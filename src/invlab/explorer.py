"""Small-tournament enumeration, theorem verification, and conjecture scans.

The canonical form of a tournament is its least "n:bits" encoding over all
vertex relabellings.  It is found by individualisation-refinement on the
out rows without automorphism pruning (McKay and Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 2014).  The vertices not yet placed
form an ordered partition into cells.  Position i takes a vertex v of the
first cell; v's row reads, cell by cell, a 0 for each member that beats v
and then a 1 for each member v beats, and every cell splits into (beats v,
beaten by v).  Only the choices of v that give the least row are kept,
level by level, and choices that reach the same partition are merged.

The search is exact.  Rows are compared in order, so the least string
starts with the least row i given rows 0..i-1.  Once v sits at position i,
any other order inside a cell gives a larger row i, so the split is forced,
and only tied choices of v branch.

Scan reports separate "asserted" outcomes (theorem-backed, violations are
build-stopping) from "evidence" (conjecture probes, where a counterexample
is a discovery, not a failure), and every report replays exactly from its
scope field.

All four scans run through one driver, `_scan`.  A scan lists its jobs,
(task, args) pairs over the tuples of tournament classes in its scope
(`_class_tuples`), and a fold that turns the task results, in job order,
into violations and evidence.  The driver runs the jobs in this process,
or with more workers forks the others and works as one of them (_fan_out:
jobs are claimed through a pipe, results come back pickled over one pipe
per child, and the design relies on Linux pipe semantics); then it appends
each result's inconclusive entries and times the run.  No pool module is
loaded, and the report is the same for any worker count apart from elapsed.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .decycling import is_decycling_matrix
from .digraph import (
    Tournament,
    decode,
    dijoin,
    encode,
    induced,
    njoin,
    pair_count,
    transitive_tournament,
)
from .gf2 import MatGF2, SymMatGF2, _trusted_sym, full_rank_principal, schur_update
from .search import Inconclusive, SearchBudget, check_trichotomy, solve_inv, solve_tmr

REPORT_SCHEMA = "invlab.scan-report/1"

MAX_CANONICAL_N = 8

_C3 = decode("3:101")


# ---------------------------------------------------------------------------
# canonical forms and enumeration


def _canonical_int(out: Sequence[int]) -> int:
    """Least packed string over all relabellings of the tournament with these out rows.

    The packed string holds one bit per pair (0,1), (0,2), ..., (n-2,n-1),
    most significant first, 1 meaning the lower label beats the higher.  A
    state is an ordered partition of the unplaced vertices into cells; see
    the module docstring for why keeping the least-row states is exact.
    """
    n = len(out)
    value = 0
    states = {((1 << n) - 1,)}
    for width in range(n - 1, 0, -1):
        best = 1 << width
        survivors = set()
        for cells in states:
            first, rest = cells[0], cells[1:]
            pick = first
            while pick:
                bit = pick & -pick
                pick ^= bit
                beaten = out[bit.bit_length() - 1]
                row = 0
                refined = []
                for cell in (first ^ bit,) + rest:
                    won = cell & beaten
                    lost = cell ^ won
                    row = (row << cell.bit_count()) | ((1 << won.bit_count()) - 1)
                    if lost:
                        refined.append(lost)
                    if won:
                        refined.append(won)
                if row < best:
                    best = row
                    survivors = {tuple(refined)}
                elif row == best:
                    survivors.add(tuple(refined))
        value = (value << width) | best
        states = survivors
    return value


def _packed_text(n: int, value: int) -> str:
    """The "n:bits" encoding of a packed string: its bits, read from the top, in pair order."""
    m = pair_count(n)
    return f"{n}:{value:0{m}b}" if m else f"{n}:"


def canonical_form(T: Tournament) -> str:
    """Canonical encoding, equal exactly for isomorphic tournaments (n <= 8)."""
    if not T.is_tournament:
        raise TypeError("canonical_form is defined for tournaments")
    if T.n > MAX_CANONICAL_N:
        raise ValueError(f"canonical_form supports n <= {MAX_CANONICAL_N}")
    return _packed_text(T.n, _canonical_int(T.out))


@lru_cache(maxsize=None)
def _iso_class_ints(n: int) -> tuple[int, ...]:
    """Packed canonical strings of the classes on n vertices, in increasing order.

    Every class on n vertices is a class on n-1 vertices plus a vertex n-1
    with one of the 2^(n-1) out-patterns.
    """
    if n > MAX_CANONICAL_N:
        raise ValueError(f"isomorphism-reduced enumeration supports n <= {MAX_CANONICAL_N}")
    if n <= 1:
        return (0,)
    top = 1 << (n - 1)
    seen = set()
    for canon in _iso_class_ints(n - 1):
        base = decode(_packed_text(n - 1, canon)).out
        for pattern in range(top):
            rows = [r if (pattern >> j) & 1 else r | top for j, r in enumerate(base)]
            rows.append(pattern)
            seen.add(_canonical_int(rows))
    return tuple(sorted(seen))


def enumerate_tournaments(n: int, up_to_iso: bool = True) -> Iterator[Tournament]:
    """All tournaments on n vertices, one per isomorphism class by default."""
    if up_to_iso:
        for canon in _iso_class_ints(n):
            yield decode(_packed_text(n, canon))
        return
    if n > MAX_CANONICAL_N:
        raise ValueError(f"labeled enumeration supports n <= {MAX_CANONICAL_N}")
    for orient in range(1 << pair_count(n)):
        yield Tournament(n, orient)


def _class_encodings(n: int) -> list[str]:
    return [_packed_text(n, canon) for canon in _iso_class_ints(n)]


# ---------------------------------------------------------------------------
# scan reports


@dataclass
class ScanReport:
    """Outcome of a verification or conjecture run; replayable from `scope`."""

    scope: dict
    instances_checked: int = 0
    violations: list = field(default_factory=list)
    evidence: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def inconclusive(self) -> list:
        return self.evidence.get("inconclusive", [])

    def to_json_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "scope": self.scope,
            "instances_checked": self.instances_checked,
            "violations": self.violations,
            "evidence": self.evidence,
            "elapsed": self.elapsed,
        }

    def table(self) -> str:
        lines = [
            f"scan               {self.scope.get('scan')}",
            f"scope              {self.scope}",
            f"instances checked  {self.instances_checked}",
            f"violations         {len(self.violations)}",
            f"inconclusive       {len(self.inconclusive)}",
            f"elapsed            {self.elapsed:.2f}s",
        ]
        for v in self.violations:
            lines.append(f"  VIOLATION {v}")
        for key, val in sorted(self.evidence.items()):
            if key == "inconclusive":
                continue
            if isinstance(val, (int, float, str, bool)):
                lines.append(f"  evidence {key}: {val}")
            elif isinstance(val, list):
                lines.append(f"  evidence {key}: {len(val)} entries")
                for entry in val[:10]:
                    lines.append(f"    {entry}")
            else:
                lines.append(f"  evidence {key}: {val}")
        return "\n".join(lines)


@lru_cache(maxsize=None)
def _inv_value(enc: str, node_limit: Optional[int] = None) -> int:
    return solve_inv(decode(enc), SearchBudget(node_limit=node_limit)).value


@lru_cache(maxsize=None)
def _tmr_result(enc: str, node_limit: Optional[int] = None):
    """(tmr, min_rank_nonzero_diag, inv), all read off one rank-pass search."""
    res = check_trichotomy(decode(enc), SearchBudget(node_limit=node_limit))
    return res.tmr, res.min_rank_nonzero_diag, res.inv


# ---------------------------------------------------------------------------
# the scan driver


def _class_tuples(sizes_each: Sequence[range], max_total: Optional[int] = None):
    """Tuples of class encodings, one class per position with its size drawn from sizes_each.

    Size tuples come in lexicographic order, skipping those whose sum exceeds
    max_total, and the classes of each size tuple in lexicographic order.
    """
    for sizes in itertools.product(*sizes_each):
        if max_total is None or sum(sizes) <= max_total:
            yield from itertools.product(*map(_class_encodings, sizes))


def _check(name: str, instances: list, expected, observed) -> dict:
    """One checked statement of a report; it is violated when expected != observed."""
    return {"name": name, "instances": instances, "expected": expected, "observed": observed}


def _run_job(job) -> dict:
    task, args = job
    return task(args)


# A claim token is the index of a job's first run, in _TOKEN bytes.  All the
# tokens go into one pipe in one write of at most a page, so the write never
# blocks, and a Linux pipe read holds the pipe lock, so every token reaches
# exactly one reader.
_TOKEN = 4
_MAX_TOKENS = 4096 // _TOKEN


def _claimed(claims: int, jobs: list, step: int) -> Iterator[tuple[int, dict]]:
    """(index, result) of every job in the runs of `step` jobs this process claims."""
    while token := os.read(claims, _TOKEN):
        if len(token) != _TOKEN:
            raise RuntimeError(f"claim pipe returned a partial token {token!r}")
        start = int.from_bytes(token, "little")
        for i in range(start, min(start + step, len(jobs))):
            yield i, _run_job(jobs[i])


def _pickled_error(exc: Exception) -> bytes:
    """exc, pickled with its traceback text as a note; a RuntimeError if exc does not unpickle."""
    import pickle
    import traceback

    text = "".join(traceback.format_exception(exc))
    exc.add_note(f"raised in scan worker {os.getpid()}:\n{text}")
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(RuntimeError(text))


def _worker(claims: int, jobs: list, step: int, out: int) -> None:
    """A forked worker: claim and run jobs, pickle the (index, result) pairs to out, exit."""
    code = 1
    try:
        import pickle

        try:
            data = pickle.dumps(list(_claimed(claims, jobs, step)))
        except Exception as exc:
            data = _pickled_error(exc)
        with open(out, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


def _fan_out(jobs: list, workers: int) -> list:
    """The results of jobs, in job order, from this process and min(workers, len(jobs)) - 1 forks.

    Jobs are claimed through one pipe of tokens (see _TOKEN), so a process
    that draws light jobs claims more of them; over _MAX_TOKENS jobs, a
    token names a run of consecutive jobs.  Each child pickles its pairs
    back over its own pipe and ends through os._exit.  A child's exception,
    or an exit with no data, is raised here; every child is reaped, and
    killed first when anything raised.
    """
    import pickle

    step = -(-len(jobs) // _MAX_TOKENS)
    claims, w = os.pipe()
    try:
        os.write(w, b"".join(i.to_bytes(_TOKEN, "little") for i in range(0, len(jobs), step)))
    finally:
        os.close(w)
    results: list = [None] * len(jobs)
    children = []  # (pid, the read end of its result pipe)
    done = False
    try:
        for _ in range(min(workers, len(jobs)) - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(claims, jobs, step, w)
            except OSError:
                os.close(r)
                raise
            finally:
                os.close(w)
            children.append((pid, open(r, "rb")))
        for i, res in _claimed(claims, jobs, step):
            results[i] = res
        for pid, fh in children:
            data = fh.read()
            if not data:
                raise RuntimeError(f"scan worker {pid} exited without sending its results")
            got = pickle.loads(data)
            if isinstance(got, BaseException):
                raise got
            for i, res in got:
                results[i] = res
        done = True
    finally:
        os.close(claims)
        for pid, fh in children:
            fh.close()
            if not done:
                import signal

                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return results


def _scan(scope: dict, jobs: list, workers: int, fold) -> ScanReport:
    """Run (task, args) jobs and fold their result dicts, in job order, into one report.

    With workers > 1 and more than one job, the jobs are shared between this
    process and forked ones (_fan_out); the report is the same for any
    workers apart from elapsed.  A report checks one instance per job unless
    fold counts otherwise.  fold fills the violations and the evidence;
    every result's "inconclusive" entries follow the evidence, in job order.
    """
    t0 = time.perf_counter()
    if workers <= 1 or len(jobs) <= 1:
        results = [_run_job(job) for job in jobs]
    else:
        results = _fan_out(jobs, workers)
    report = ScanReport(scope=scope, instances_checked=len(results))
    fold(report, results)
    report.evidence["inconclusive"] = [e for res in results for e in res["inconclusive"]]
    report.elapsed = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# theorem verification


def _dijoin_pair_task(args) -> dict:
    enc1, enc2, node_limit = args
    out = {"pair": [enc1, enc2], "checks": [], "inconclusive": []}

    def value(fn, enc):
        try:
            return fn(enc, node_limit)
        except Inconclusive as exc:
            out["inconclusive"].append({"instance": enc, "reason": exc.reason})
            return None

    inv1 = value(_inv_value, enc1)
    res2 = value(_tmr_result, enc2)
    if inv1 is None or res2 is None or inv1 > 2:
        return out
    t2, _, inv2 = res2
    d1, d2 = decode(enc1), decode(enc2)
    invj = value(_inv_value, encode(dijoin(d1, d2)))
    invj_sw = value(_inv_value, encode(dijoin(d2, d1)))
    if invj is None:
        return out
    pair, checks = out["pair"], out["checks"]
    if inv1 == 2:
        checks.append(_check("dijoin-inv-formula", pair, t2 + 2, invj))
    if invj_sw is not None:
        checks.append(_check("dijoin-switch", pair, invj, invj_sw))
    if inv1 >= 1:
        gap_claim = invj == (inv2 if inv1 == 1 else inv2 + 1)
        checks.append(_check("dijoin-gap-equivalence", pair, inv2 == t2 + 1, gap_claim))
    return out


def _triple_task(args) -> dict:
    enc1, enc2, enc3, node_limit = args
    out = {"triple": [enc1, enc2, enc3], "checks": [], "inconclusive": []}
    try:
        inv1 = _inv_value(enc1, node_limit)
        inv2 = _inv_value(enc2, node_limit)
        if inv1 not in (1, 2) or inv2 not in (1, 2):
            return out
        d1, d2, d3 = decode(enc1), decode(enc2), decode(enc3)
        observed = _inv_value(encode(njoin([d1, d2, d3])), node_limit)
        expected = inv1 + _inv_value(encode(dijoin(d2, d3)), node_limit)
    except Inconclusive as exc:
        out["inconclusive"].append({"instance": out["triple"], "reason": exc.reason})
        return out
    out["checks"].append(_check("three-join-identity", out["triple"], expected, observed))
    return out


def verify_dijoin_theorems(
    max_total: Optional[int] = None,
    max_each: Optional[int] = None,
    triple_total: Optional[int] = None,
    node_limit: Optional[int] = None,
    workers: int = 1,
) -> ScanReport:
    """Check the proven dijoin and n-join identities on enumerated pairs.

    Per ordered pair of tournament classes (within the size budget):
    inv(D1) = 2 forces inv(D1 -> D2) = tmr(D2) + 2; inv(D1) <= 2 forces the
    switch identity inv(D1 -> D2) = inv(D2 -> D1); and for inv(D1) in {1, 2}
    the gap condition inv(D2) = tmr(D2) + 1 is equivalent to the dijoin
    hitting its lower value.  Triples with the first two inversion numbers
    in {1, 2} check inv([D1, D2, D3]) = inv(D1) + inv(D2 -> D3).  Every
    check is theorem-backed: violations are build-stopping, and budget
    exhaustion is recorded per instance, never silently skipped.
    """
    if max_total is None and max_each is None:
        max_each = 3
    if triple_total is None:
        triple_total = max_total if max_total is not None else 3 * max_each
    scope = {
        "scan": "dijoin-theorems",
        "max_total": max_total,
        "max_each": max_each,
        "triple_total": triple_total,
        "node_limit": node_limit,
    }

    def sizes(total: int) -> range:
        return range(1, (max_each if max_each is not None else total) + 1)

    jobs = [
        (_dijoin_pair_task, (e1, e2, node_limit))
        for e1, e2 in _class_tuples([sizes(max_total)] * 2, max_total)
    ] + [
        (_triple_task, (e1, e2, e3, node_limit))
        for e1, e2, e3 in _class_tuples([sizes(triple_total)] * 3, triple_total)
    ]

    def fold(report, results):
        tallies: dict[str, int] = {}
        for res in results:
            for chk in res["checks"]:
                tallies[chk["name"]] = tallies.get(chk["name"], 0) + 1
                if chk["expected"] != chk["observed"]:
                    report.violations.append(chk)
        report.evidence = {"checks_run": tallies}

    return _scan(scope, jobs, workers, fold)


# ---------------------------------------------------------------------------
# tmr additivity scan


def _tmr_pair_task(args) -> dict:
    enc1, enc2, node_limit = args
    out = {"pair": [enc1, enc2], "inconclusive": []}
    joined = encode(dijoin(decode(enc1), decode(enc2)))
    try:
        t1 = _tmr_result(enc1, node_limit)[0]
        t2 = _tmr_result(enc2, node_limit)[0]
        tj = _tmr_result(joined, node_limit)[0]
    except Inconclusive as exc:
        out["inconclusive"].append({"instance": [enc1, enc2], "reason": exc.reason})
        return out
    out.update({"tmr1": t1, "tmr2": t2, "tmr_dijoin": tj, "dijoin": joined})
    return out


def scan_tmr_additivity(
    n1: int,
    n2: int,
    max_total: Optional[int] = None,
    node_limit: Optional[int] = None,
    workers: int = 1,
) -> ScanReport:
    """Probe tmr(D1 -> D2) = tmr(D1) + tmr(D2) over all class pairs.

    Pairs with tmr(D1) in {1, 2} are asserted (theorem-backed; a violation
    is build-stopping).  All other pairs are conjecture evidence, and any
    strict inequality is emitted as a replayable counterexample carrying the
    dijoin's minimum-rank certificate.
    """
    scope = {
        "scan": "tmr-additivity",
        "n1": n1,
        "n2": n2,
        "max_total": max_total,
        "node_limit": node_limit,
    }
    jobs = [
        (_tmr_pair_task, (e1, e2, node_limit))
        for e1, e2 in _class_tuples([range(1, n1 + 1), range(1, n2 + 1)], max_total)
    ]

    def fold(report, results):
        asserted = evidence_pairs = equal = 0
        counterexamples = []
        for res in results:
            if "tmr1" not in res:
                continue
            t1, t2, tj = res["tmr1"], res["tmr2"], res["tmr_dijoin"]
            additive = tj == t1 + t2
            if t1 in (1, 2):
                asserted += 1
                if not additive:
                    report.violations.append(
                        _check("tmr-additivity-asserted", res["pair"], t1 + t2, tj)
                    )
            else:
                evidence_pairs += 1
                if additive:
                    equal += 1
                else:
                    budget = SearchBudget(node_limit=node_limit)
                    cert = solve_tmr(decode(res["dijoin"]), budget).certificate
                    counterexamples.append(
                        {
                            "d1": res["pair"][0],
                            "d2": res["pair"][1],
                            "tmr1": t1,
                            "tmr2": t2,
                            "tmr_dijoin": tj,
                            "dijoin_certificate": cert.to_json_dict(),
                        }
                    )
        report.evidence = {
            "asserted_pairs": asserted,
            "evidence_pairs": evidence_pairs,
            "evidence_equal": equal,
            "counterexamples": counterexamples,
        }

    return _scan(scope, jobs, workers, fold)


# ---------------------------------------------------------------------------
# inv lower-bound conjecture scan


def _inv_bound_pair_task(args) -> dict:
    enc1, enc2, node_limit = args
    out = {"pair": [enc1, enc2], "inconclusive": []}
    joined = encode(dijoin(decode(enc1), decode(enc2)))
    try:
        out["tmr1"], _, out["inv1"] = _tmr_result(enc1, node_limit)
        out["tmr2"], _, out["inv2"] = _tmr_result(enc2, node_limit)
        out["inv_dijoin"] = _inv_value(joined, node_limit)
    except Inconclusive as exc:
        out["inconclusive"].append({"instance": [enc1, enc2], "reason": exc.reason})
    return out


def scan_inv_lower_bound(
    n1: int,
    n2: int,
    max_total: Optional[int] = None,
    node_limit: Optional[int] = None,
    workers: int = 1,
) -> ScanReport:
    """Evidence scan for inv(D1 -> D2) >= inv(D1) + inv(D2) - 1.

    The bound is asserted where it is theorem-backed (inv(D1) = 2); all
    other pairs are evidence.  Equality cases are tabulated against the
    conjectured condition inv(Di) = tmr(Di) + 1 for some i, without
    asserting the conjecture.
    """
    scope = {
        "scan": "inv-lower-bound",
        "n1": n1,
        "n2": n2,
        "max_total": max_total,
        "node_limit": node_limit,
    }
    jobs = [
        (_inv_bound_pair_task, (e1, e2, node_limit))
        for e1, e2 in _class_tuples([range(1, n1 + 1), range(1, n2 + 1)], max_total)
    ]

    def fold(report, results):
        cells = {
            "equality_and_condition": 0,
            "equality_no_condition": 0,
            "strict_and_condition": 0,
            "strict_no_condition": 0,
        }
        bound_failures = []
        for res in results:
            if "inv_dijoin" not in res:
                continue
            lo = res["inv1"] + res["inv2"] - 1
            observed = res["inv_dijoin"]
            if observed < lo:
                entry = _check("inv-lower-bound", res["pair"], f">= {lo}", observed)
                if res["inv1"] == 2:
                    report.violations.append(entry)  # theorem-backed here
                else:
                    bound_failures.append(entry)  # conjecture counterexample
                continue
            condition = (res["inv1"] == res["tmr1"] + 1) or (res["inv2"] == res["tmr2"] + 1)
            key = ("equality" if observed == lo else "strict") + (
                "_and_condition" if condition else "_no_condition"
            )
            cells[key] += 1
        report.evidence = {"equality_cells": cells, "bound_counterexamples": bound_failures}

    return _scan(scope, jobs, workers, fold)


# ---------------------------------------------------------------------------
# Schur probe


@dataclass(frozen=True)
class SchurProbeRecord:
    """One block-elimination probe of a decycling matrix for a dijoin."""

    indices: tuple[int, ...]
    a_rank: int
    cross_zero: bool
    b_prime_decycles: bool
    a_prime_decycles_induced: bool
    a_prime_decycles_c3: Optional[bool]  # populated when the principal is 3x3
    a_prime_class: Optional[int]  # canonical 3x3 key under simultaneous permutation


def _blocks(M: SymMatGF2, n1: int) -> tuple[SymMatGF2, list[int], SymMatGF2]:
    """The blocks A and B of M, and the rows of its cross block C."""
    low = (1 << n1) - 1
    A = _trusted_sym(n1, [r & low for r in M.rows[:n1]])
    c_rows = [r >> n1 for r in M.rows[:n1]]
    B = _trusted_sym(M.n - n1, [r >> n1 for r in M.rows[n1:]])
    return A, c_rows, B


_SYM3_PERMS = list(itertools.permutations(range(3)))


def _sym3_class_key(A: SymMatGF2) -> int:
    """Canonical 6-bit key of a 3x3 symmetric matrix up to relabeling."""
    best = None
    for p in _SYM3_PERMS:
        key = 0
        pos = 0
        for i in range(3):
            key |= A.entry(p[i], p[i]) << pos
            pos += 1
        for i in range(3):
            for j in range(i + 1, 3):
                key |= A.entry(p[i], p[j]) << pos
                pos += 1
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=1024)
def _a_block_facts(D1: Tournament, A: SymMatGF2):
    """The part of a probe that depends on D1 and the A-block alone.

    Returns the indices S of a maximal full-rank principal A' of A, A',
    whether A' decycles D1 induced on S, and for 3x3 A' whether it decycles
    the directed triangle and its class key (else None twice).  A 3-vertex
    D1 has only 64 A-blocks, so scans hit this cache almost always.
    """
    S = full_rank_principal(A, "max")
    A_prime = A.principal(S)
    induced_ok = is_decycling_matrix(induced(D1, S), A_prime)
    if len(S) != 3:
        return S, A_prime, induced_ok, None, None
    return S, A_prime, induced_ok, is_decycling_matrix(_C3, A_prime), _sym3_class_key(A_prime)


def schur_probe(D1: Tournament, D2: Tournament, M: SymMatGF2) -> SchurProbeRecord:
    """Eliminate a full-rank principal block of the D1 side and test the rest.

    M must decycle dijoin(D1, D2) with rows ordered D1 vertices first.  The
    probe extracts the blocks A, C, B, picks a maximal full-rank principal
    A' of A, forms B' = B + C'^T A'^{-1} C', and records whether B' still
    decycles D2 and whether A' decycles the induced subtournament of D1 on
    its indices (and, for 3x3 A', the directed triangle).
    """
    J = dijoin(D1, D2)
    if M.n != J.n:
        raise ValueError(f"matrix of size {M.n} against a dijoin on {J.n} vertices")
    return _schur_probe(D1, D2, J, M)


def _schur_probe(
    D1: Tournament, D2: Tournament, J: Tournament, M: SymMatGF2
) -> SchurProbeRecord:
    """schur_probe with J = dijoin(D1, D2) built by the caller and M of J's size."""
    if not is_decycling_matrix(J, M):
        raise ValueError("M is not a decycling matrix for the dijoin")
    A, c_rows, B = _blocks(M, D1.n)
    S, A_prime, induced_ok, c3, key = _a_block_facts(D1, A)
    C_prime = MatGF2(len(S), B.n, [c_rows[i] for i in S])
    B_prime = schur_update(A_prime, C_prime, B)
    return SchurProbeRecord(
        indices=S,
        a_rank=len(S),
        cross_zero=not any(c_rows),
        b_prime_decycles=is_decycling_matrix(D2, B_prime),
        a_prime_decycles_induced=induced_ok,
        a_prime_decycles_c3=c3,
        a_prime_class=key,
    )


def _decycling_flips(T: Tournament, order: Sequence[int]) -> tuple[int, ...]:
    """Rows of the zero-diagonal matrix that flips T onto the transitive tournament of `order`.

    A symmetric matrix decycles T iff its off-diagonal flips turn T into the
    transitive tournament of some vertex order, so these rows, one per
    order, give every decycling matrix of T up to its (free) diagonal.
    """
    return tuple(a ^ b for a, b in zip(T.out, transitive_tournament(order).out))


def _schur_pair_task(args) -> dict:
    enc1, enc2, samples, seed = args
    D1, D2 = decode(enc1), decode(enc2)
    J = dijoin(D1, D2)
    n1 = D1.n
    orders = list(itertools.permutations(range(J.n)))
    # instance k is target order k >> n1 with D1-side diagonal k & (2^n1 - 1);
    # the D2-side diagonal never reaches the probe, so it stays zero, while
    # the D1-side diagonal feeds rank(A) and A'^{-1} and is enumerated fully
    size = len(orders) << n1
    if samples is None:
        picks: Sequence[int] = range(size)
    else:
        rng = random.Random(f"{seed}|{enc1}|{enc2}")
        picks = [rng.randrange(size) for _ in range(samples)]
    flips: dict[int, tuple[int, ...]] = {}
    records = []
    for k in picks:
        oi = k >> n1
        if oi not in flips:
            flips[oi] = _decycling_flips(J, orders[oi])
        rows = [r | (k & (1 << i)) for i, r in enumerate(flips[oi])]
        records.append(_schur_probe(D1, D2, J, _trusted_sym(J.n, rows)))
    # optimal certificates are probed alongside the enumerated matrices
    records.append(_schur_probe(D1, D2, J, solve_tmr(J).certificate.payload))
    optimal_blocks = SymMatGF2.block_diag(
        solve_tmr(D1).certificate.payload, solve_tmr(D2).certificate.payload
    )
    records.append(_schur_probe(D1, D2, J, optimal_blocks))
    records = [
        (rec.a_rank, rec.b_prime_decycles, rec.a_prime_decycles_c3, rec.a_prime_class)
        for rec in records
    ]
    return {"pair": [enc1, enc2], "records": records, "inconclusive": []}


def scan_schur_3x3(
    n2_max: int = 3,
    samples: Optional[int] = None,
    seed: int = 0,
    workers: int = 1,
) -> ScanReport:
    """Probe the 3x3 block-elimination observation over enumerated matrices.

    Instances are the decycling matrices of dijoin(D1, D2) for the two
    3-vertex classes D1 and all classes of size up to n2_max (all of them
    when samples is None, else a seeded sample per pair), plus per pair the
    dijoin's own minimum-rank certificate and the block diagonal of the
    operands' minimum-rank certificates.  Pointwise, B'
    must keep decycling whenever rank(A) <= 2, and a failing B' forces the
    3x3 block to decycle the directed triangle; both are violations when
    breached.  In exhaustive mode the records are also aggregated per 3x3
    block class (up to relabeling): a class must produce at least one
    failure somewhere in the scan exactly when it decycles the triangle.
    The converse direction needs n2_max >= 3, since a failure requires
    three occupied gaps in the final vertex order.
    """
    scope = {
        "scan": "schur-3x3",
        "n2_max": n2_max,
        "samples": samples,
        "seed": seed,
    }
    jobs = [
        (_schur_pair_task, (e1, e2, samples, seed))
        for e1 in _class_encodings(3)
        for s2 in range(1, n2_max + 1)
        for e2 in _class_encodings(s2)
    ]

    def fold(report, results):
        per_class: dict[int, dict] = {}
        rank_tally: dict[int, int] = {}
        for res in results:
            for a_rank, b_ok, c3, key in res["records"]:
                rank_tally[a_rank] = rank_tally.get(a_rank, 0) + 1
                if a_rank <= 2 and not b_ok:
                    report.violations.append(
                        _check("schur-rank-le-2-must-hold", res["pair"], True, False)
                    )
                if a_rank == 3:
                    if not b_ok and not c3:
                        report.violations.append(
                            _check(
                                "schur-safe-direction",
                                res["pair"],
                                "failing B' implies A' decycles C3",
                                f"A' class {key} fails without decycling C3",
                            )
                        )
                    cell = per_class.setdefault(
                        key, {"instances": 0, "failures": 0, "decycles_c3": c3}
                    )
                    cell["instances"] += 1
                    cell["failures"] += 0 if b_ok else 1
        report.instances_checked = sum(rank_tally.values())
        if samples is None and n2_max >= 3:
            for key, cell in sorted(per_class.items()):
                if (cell["failures"] > 0) != cell["decycles_c3"]:
                    report.violations.append(
                        _check(
                            "schur-3x3-equivalence",
                            [f"a-prime-class-{key}"],
                            cell["decycles_c3"],
                            cell["failures"] > 0,
                        )
                    )
        report.evidence = {
            "a_rank_tally": {str(k): v for k, v in sorted(rank_tally.items())},
            "class_tally": {str(k): v for k, v in sorted(per_class.items())},
        }

    return _scan(scope, jobs, workers, fold)


# ---------------------------------------------------------------------------
# replay


_SCANS = {
    "dijoin-theorems": verify_dijoin_theorems,
    "tmr-additivity": scan_tmr_additivity,
    "inv-lower-bound": scan_inv_lower_bound,
    "schur-3x3": scan_schur_3x3,
}


def run_scan(scan: str, workers: int = 1, **params) -> ScanReport:
    if scan not in _SCANS:
        raise ValueError(f"unknown scan {scan!r}; choose from {sorted(_SCANS)}")
    return _SCANS[scan](workers=workers, **params)


def replay(report_or_scope, workers: int = 1) -> ScanReport:
    """Re-run a scan from its scope; deterministic scans reproduce verbatim."""
    scope = dict(
        report_or_scope.scope if isinstance(report_or_scope, ScanReport) else report_or_scope
    )
    scan = scope.pop("scan")
    return run_scan(scan, workers=workers, **scope)
