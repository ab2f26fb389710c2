"""Workload inputs made from a seed, and the output checks.

Every input is derived from the seed alone.  The n = 10 solve instances
and the n = 7 classes are fixed base graphs (recorded in expected.json by
record.py) under a seeded vertex relabeling: their exact values are known
for every seed, while labels, search order and witnesses change with it.
The n = 11 tournaments, the ROADMAP ladder instance and the oriented graphs
are solved as recorded: a relabeling moves one of their solves by up to 2x
(the search breaks ties by vertex index), and they carry most of the solve
time, so seeded labels there would make the spread between runs measure the
inputs rather than the program.  The n = 8 canonical-form inputs and the
Schur probe matrices are drawn from the seed directly and are checked by
invariants.

No check compares a certificate's family or matrix, or which representative
`enumerate` or `canonical` returns: certificates are replayed, values and
counts are compared.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

NODE_LIMIT = 1_000_000  # 10x the most any solve here needs at the recorded commit (< 10^5 nodes)
WORKERS = 2
CANONICAL_PAIRS = 20
SCHUR_SAMPLES = 200
SCHUR_SCAN_SEEDS = 8
SCHUR_PROBES = 400
SCAN_ARGV = {
    "tmr-additivity": ["scan", "tmr-additivity", "--n1", "5", "--n2", "4", "--json"],
    "inv-lower-bound": ["scan", "inv-lower-bound", "--n1", "5", "--n2", "4", "--json"],
    "dijoin-theorems": ["verify-theorems", "--max-n", "4", "--json"],
    "parallel": ["scan", "tmr-additivity", "--n1", "5", "--n2", "5", "--workers", str(WORKERS), "--json"],
}

WORKLOADS = ("solve", "scan")


# ---------------------------------------------------------------------------
# graph text, independent of the program's codec


def pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def arcs_of(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, arcs) of a tournament in "n:bits" form."""
    head, sep, bits = text.partition(":")
    n = int(head) if sep and head.isdigit() else -1
    if n < 0 or len(bits) != len(pairs(n)) or set(bits) - {"0", "1"}:
        raise ValueError(f"bad tournament text {text!r}")
    return n, [(i, j) if b == "1" else (j, i) for (i, j), b in zip(pairs(n), bits)]


def tournament_text(n: int, arcs) -> str:
    forward = set(arcs)
    return f"{n}:" + "".join("1" if (i, j) in forward else "0" for i, j in pairs(n))


def relabel(text: str, perm: list[int]) -> str:
    n, arcs = arcs_of(text)
    return tournament_text(n, [(perm[u], perm[v]) for u, v in arcs])


def scores(text: str) -> list[int]:
    n, arcs = arcs_of(text)
    out = [0] * n
    for u, _ in arcs:
        out[u] += 1
    return sorted(out)


def random_tournament(n: int, rng: random.Random) -> str:
    return f"{n}:" + "".join(rng.choice("01") for _ in pairs(n))


def gf2_rank(rows: list[int]) -> int:
    basis: list[int] = []
    for r in rows:
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis.append(r)
    return len(basis)


# ---------------------------------------------------------------------------
# specs


@dataclass
class Spec:
    """One operation: the request sent to the child, and how to judge its output."""

    label: str
    op: dict
    check: Callable[[dict, list], Optional[str]]
    latency: bool = True  # counts toward op_p50_ms / op_p90_ms
    instances: Optional[Callable[[dict], int]] = None  # counts toward instances_per_s
    tags: set = field(default_factory=set)  # "scan": returns a scan report; "workers": runs a pool


def _cert_errors(entry: dict, certs: int) -> Optional[str]:
    replay = entry["replay"]
    if len(replay) != certs or not all(replay):
        return f"certificate replay failed: {replay}"
    return None


def _solved(entry: dict, via_cli: bool) -> tuple[int, dict]:
    """(value, certificate) of a solve, from the API result or the CLI's JSON line."""
    out = entry["out"]
    if not via_cli:
        return out["value"], out["cert"]
    if out["code"] != 0:
        raise ValueError(f"exit code {out['code']}")
    lines = out["stdout"].splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one certificate line, got {len(lines)}")
    cert = json.loads(lines[0])
    return cert["value"], cert


def _solve_check(expected: dict, solver: str, via_cli: bool, partner: Optional[int]):
    """Value, certificate replay, and for tmr the diagonal flag and the inv - tmr gap."""

    def check(entry: dict, entries: list) -> Optional[str]:
        value, cert = _solved(entry, via_cli)
        if cert["value"] != value:
            return f"certificate value {cert['value']} != returned {value}"
        if value != expected[solver]:
            return f"{solver} = {value}, expected {expected[solver]}"
        if solver == "tmr" and not via_cli and entry["out"]["nonzero_diag"] != expected["nonzero_diag"]:
            return "min_rank_nonzero_diag differs from the recorded value"
        if partner is not None and entries[partner]["out"] is not None:
            try:
                inv_value = _solved(entries[partner], via_cli)[0]
            except ValueError:  # the inv operation is already counted as failed
                inv_value = value
            if inv_value - value not in (0, 1):
                return f"inv - tmr = {inv_value - value}, outside {{0, 1}}"
        return _cert_errors(entry, 1)

    return check


def summarize(report: dict) -> dict:
    """The witness-independent part of a scan report."""
    ev = report["evidence"]
    out = {
        "scope": report["scope"],
        "instances_checked": report["instances_checked"],
        "violations": sorted(
            json.dumps([v["name"], v["expected"], v["observed"]]) for v in report["violations"]
        ),
        "inconclusive": len(ev.get("inconclusive", [])),
    }
    scan = report["scope"]["scan"]
    if scan == "tmr-additivity":
        out["asserted_pairs"] = ev["asserted_pairs"]
        out["evidence_pairs"] = ev["evidence_pairs"]
        out["evidence_equal"] = ev["evidence_equal"]
        out["counterexamples"] = sorted(
            [c["tmr1"], c["tmr2"], c["tmr_dijoin"]] for c in ev["counterexamples"]
        )
    elif scan == "inv-lower-bound":
        out["equality_cells"] = ev["equality_cells"]
        out["bound_counterexamples"] = sorted(
            [str(b["expected"]), b["observed"]] for b in ev["bound_counterexamples"]
        )
    elif scan == "dijoin-theorems":
        out["checks_run"] = ev["checks_run"]
    return out


def _report(entry: dict) -> tuple[Optional[dict], Optional[str]]:
    out = entry["out"]
    if out["code"] != 0:
        return None, f"exit code {out['code']}"
    try:
        return json.loads(out["stdout"]), None
    except ValueError:
        return None, "output is not a JSON report"


def report_check(expected: dict):
    """Compare the report's witness-independent summary with the recorded one."""

    def check(entry: dict, _entries: list) -> Optional[str]:
        report, err = _report(entry)
        if err:
            return err
        got = summarize(report)
        for key, want in expected.items():
            if got.get(key) != want:
                return f"report field {key}: {got.get(key)!r} != recorded {want!r}"
        if report["scope"]["scan"] == "tmr-additivity":
            return _cert_errors(entry, len(report["evidence"]["counterexamples"]))
        return None

    return check


def schur_check(expected: dict):
    """Exact tallies on the enumerated matrices; the solver witnesses may move.

    Each operand pair also probes two solver-witness matrices, so the report's
    tallies may exceed the recorded enumerated part by exactly those probes,
    and every probe, witness or not, must be violation-free.
    """

    def check(entry: dict, _entries: list) -> Optional[str]:
        report, err = _report(entry)
        if err:
            return err
        if report["scope"] != expected["scope"]:
            return f"scope {report['scope']} != {expected['scope']}"
        if report["instances_checked"] != expected["instances_checked"]:
            return f"instances_checked {report['instances_checked']} != {expected['instances_checked']}"
        if report["violations"]:
            return f"{len(report['violations'])} violations"
        tally = report["evidence"]["a_rank_tally"]
        enum = expected["enum_rank_tally"]
        if sum(tally.values()) != report["instances_checked"]:
            return "a_rank_tally does not sum to instances_checked"
        for rank, count in enum.items():
            if tally.get(rank, 0) < count:
                return f"a_rank_tally[{rank}] = {tally.get(rank, 0)} < enumerated {count}"
        if sum(tally.values()) - sum(enum.values()) != expected["witness_probes"]:
            return "tallies beyond the enumerated part differ from the witness probe count"
        classes = report["evidence"]["class_tally"]
        extra = 0
        for key, cell in expected["enum_class_tally"].items():
            got = classes.get(key)
            if got is None or got["decycles_c3"] != cell["decycles_c3"]:
                return f"class {key}: {got} against enumerated {cell}"
            if got["instances"] < cell["instances"] or got["failures"] < cell["failures"]:
                return f"class {key}: {got} below enumerated {cell}"
            extra += got["instances"] - cell["instances"]
        extra += sum(c["instances"] for k, c in classes.items() if k not in expected["enum_class_tally"])
        if extra != tally.get("3", 0) - enum.get("3", 0):
            return "class tallies beyond the enumerated part differ from the rank-3 witness probes"
        return None

    return check


def _one(_entry: dict) -> int:
    return 1


def _scan_instances(entry: dict) -> int:
    return json.loads(entry["out"]["stdout"])["instances_checked"]


# ---------------------------------------------------------------------------
# workloads


def _perm(rng: random.Random, n: int) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _solve_specs(table: dict, rng: random.Random) -> list[Spec]:
    specs: list[Spec] = []
    solve = table["solve"]
    for group in ("t10", "t11", "ladder11"):
        for i, base in enumerate(solve[group]):
            graph = base["graph"]
            if group == "t10":
                graph = relabel(graph, _perm(rng, 10))
            first = len(specs)
            for kind in ("inv", "tmr"):
                specs.append(Spec(
                    f"{kind} {group}[{i}]",
                    {"kind": kind, "graph": graph, "node_limit": NODE_LIMIT},
                    _solve_check(base, kind, False, first if kind == "tmr" else None),
                    instances=_one,
                ))
    for i, base in enumerate(solve["o11"]):
        specs.append(Spec(
            f"inv o11[{i}]",
            {"kind": "inv", "graph": base["graph"], "node_limit": NODE_LIMIT},
            _solve_check(base, "inv", False, None),
            instances=_one,
        ))
    return specs


def _enumerate_check(classes: list[dict]):
    want_scores = sorted(json.dumps(scores(c["graph"])) for c in classes)

    def check(entry: dict, _entries: list) -> Optional[str]:
        out = entry["out"]
        if out["code"] != 0:
            return f"exit code {out['code']}"
        lines = out["stdout"].split()
        if len(lines) != len(classes) or len(set(lines)) != len(lines):
            return f"{len(lines)} lines ({len(set(lines))} distinct), expected {len(classes)} classes"
        try:
            got_scores = sorted(json.dumps(scores(t)) for t in lines)
        except ValueError as exc:
            return str(exc)
        if got_scores != want_scores:
            return "score sequences of the classes differ from the recorded classes"
        return None

    return check


def _canonical_check(graph: str, partner: Optional[int]):
    def check(entry: dict, entries: list) -> Optional[str]:
        out = entry["out"]
        if out["code"] != 0:
            return f"exit code {out['code']}"
        text = out["stdout"].strip()
        try:
            if scores(text) != scores(graph):
                return f"canonical form {text} is not a relabeling of {graph}"
        except ValueError as exc:
            return str(exc)
        if partner is not None:
            other = entries[partner]["out"]
            if other and other["stdout"].strip() != text:
                return "isomorphic inputs have different canonical forms"
        return None

    return check


def _trichotomy_check(expected: dict):
    def check(entry: dict, _entries: list) -> Optional[str]:
        out = entry["out"]
        for key in ("inv", "tmr", "nonzero_diag", "holds"):
            if out[key] != expected[key]:
                return f"{key} = {out[key]}, expected {expected[key]}"
        if out["inv"] - out["tmr"] not in (0, 1):
            return "inv - tmr outside {0, 1}"
        return _cert_errors(entry, 2)

    return check


def _scan_specs(table: dict, rng: random.Random) -> list[Spec]:
    classes = table["classes7"]
    specs = [Spec("cli enumerate 7 --iso", {"kind": "cli", "argv": ["enumerate", "7", "--iso"]},
                  _enumerate_check(classes))]
    for i in range(CANONICAL_PAIRS):
        graph = random_tournament(8, rng)
        twin = relabel(graph, _perm(rng, 8))
        first = len(specs)
        specs.append(Spec(f"cli canonical [{i}]", {"kind": "cli", "argv": ["canonical", graph]},
                          _canonical_check(graph, None)))
        specs.append(Spec(f"cli canonical [{i}]'", {"kind": "cli", "argv": ["canonical", twin]},
                          _canonical_check(twin, first)))
    for name in ("tmr-additivity", "inv-lower-bound", "dijoin-theorems"):
        argv = SCAN_ARGV[name]
        specs.append(Spec("cli " + " ".join(argv[:-1]), {"kind": "cli", "argv": argv},
                          report_check(table["reports"][name]),
                          instances=_scan_instances, tags={"scan"}))
    for i, base in enumerate(classes):
        specs.append(Spec(f"trichotomy classes7[{i}]",
                          {"kind": "trichotomy", "graph": relabel(base["graph"], _perm(rng, 7))},
                          _trichotomy_check(base)))
    return specs


def probe_input(rng: random.Random) -> tuple[str, str, list[int]]:
    """A 3-vertex D1, a D2 on 3 or 4 vertices, and a seeded decycling matrix of D1 -> D2.

    The matrix flips exactly the arcs of the dijoin that disagree with a
    random vertex order, so it decycles by construction; its diagonal is
    random.
    """
    g1 = random_tournament(3, rng)
    g2 = random_tournament(rng.choice((3, 4)), rng)
    (n1, a1), (n2, a2) = arcs_of(g1), arcs_of(g2)
    n = n1 + n2
    arcs = set(a1) | {(u + n1, v + n1) for u, v in a2} | {(i, j) for i in range(n1) for j in range(n1, n)}
    pos = {v: k for k, v in enumerate(_perm(rng, n))}
    rows = [rng.getrandbits(1) << i for i in range(n)]
    for i, j in pairs(n):
        if ((i, j) in arcs) != (pos[i] < pos[j]):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return g1, g2, rows


def _probe_check(rows: list[int]):
    a_rank = gf2_rank([r & 0b111 for r in rows[:3]])

    def check(entry: dict, _entries: list) -> Optional[str]:
        out = entry["out"]
        if out["a_rank"] != a_rank:
            return f"a_rank {out['a_rank']} != {a_rank}"
        if a_rank <= 2 and not out["b_prime_decycles"]:
            return "B' fails to decycle although rank(A) <= 2"
        if not out["b_prime_decycles"] and not out["a_prime_decycles_c3"]:
            return "B' fails although A' does not decycle the directed triangle"
        if (a_rank == 3) != (out["a_prime_class"] is not None):
            return "a_prime_class present exactly when the principal is 3x3"
        return None

    return check


def _schur_specs(table: dict, rng: random.Random, seed: int) -> list[Spec]:
    exhaustive = table["schur"]["exhaustive"]
    scan_seed = seed % SCHUR_SCAN_SEEDS
    sampled = table["schur"]["sampled"][str(scan_seed)]
    specs = [
        Spec("cli scan schur-3x3 --n2 3", {"kind": "cli", "argv": ["scan", "schur-3x3", "--n2", "3", "--json"]},
             schur_check(exhaustive), instances=_scan_instances, tags={"scan"}),
        Spec("cli scan schur-3x3 --n2 4 --budget", {"kind": "cli", "argv": [
            "scan", "schur-3x3", "--n2", "4", "--budget", str(SCHUR_SAMPLES), "--seed", str(scan_seed), "--json"]},
             schur_check(sampled), instances=_scan_instances, tags={"scan"}),
    ]
    for i in range(SCHUR_PROBES):
        g1, g2, rows = probe_input(rng)
        specs.append(Spec(f"probe [{i}]", {"kind": "probe", "g1": g1, "g2": g2, "rows": rows},
                          _probe_check(rows)))
    return specs


def _parallel_specs(table: dict, start: int) -> list[Spec]:
    """`start` is the index of the first of these operations in the workload."""
    specs = []
    workers = ["--workers", str(WORKERS), "--json"]
    for i, base in enumerate(table["solve"]["t11"]):
        graph = base["graph"]
        first = start + len(specs)
        for kind in ("inv", "tmr"):
            specs.append(Spec(f"cli {kind} t11[{i}] --workers", {"kind": "cli", "argv": [kind, graph] + workers},
                              _solve_check(base, kind, True, first if kind == "tmr" else None), tags={"workers"}))
    specs.append(Spec("cli scan tmr-additivity 5 5 --workers", {"kind": "cli", "argv": SCAN_ARGV["parallel"]},
                      report_check(table["reports"]["parallel"]),
                      latency=False, instances=_scan_instances, tags={"scan", "workers"}))
    return specs


def build(workload: str, seed: int, table: dict) -> list[Spec]:
    """The workload's operation list for this seed."""
    rng = random.Random(f"{workload}|{seed}")
    if workload == "solve":
        specs = _solve_specs(table, rng)
        return specs + _parallel_specs(table, len(specs))
    if workload == "scan":
        return _scan_specs(table, rng) + _schur_specs(table, rng, seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def check_all(specs: list[Spec], entries: list[dict]) -> list[Optional[str]]:
    """One verdict per operation: None when its output is correct."""
    verdicts = []
    for spec, entry in zip(specs, entries):
        if entry["error"] is not None:
            verdicts.append(entry["error"])
            continue
        try:
            verdicts.append(spec.check(entry, entries))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            verdicts.append(f"malformed output: {type(exc).__name__}: {exc}")
    return verdicts
