"""Record expected.json: base instances, their exact values, and scan summaries.

Run from the repository root against the commit whose outputs become the
reference:

    PYTHONPATH=src python3 perfbench/record.py

Base instances come from fixed generator seeds, so re-running at the same
commit rewrites the same file.  For the Schur scans it records only the part
produced by the enumerated matrices: the two solver-witness probes per
operand pair are computed here through the public API and subtracted, since
a different search may pick different witnesses.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import (  # noqa: E402
    SCAN_ARGV,
    SCHUR_SAMPLES,
    SCHUR_SCAN_SEEDS,
    pairs,
    summarize,
)

from invlab import (  # noqa: E402
    SymMatGF2,
    check_trichotomy,
    decode,
    dijoin,
    encode,
    enumerate_tournaments,
    scan_schur_3x3,
    schur_probe,
    solve_inv,
    solve_tmr,
)
from invlab.cli import main as cli_main  # noqa: E402

POOL = {"t10": (10, 30), "t11": (11, 5)}
ORIENTED = (11, 4, 0.85)


def _tournament(n: int, bits: int) -> str:
    return f"{n}:" + "".join("1" if (bits >> k) & 1 else "0" for k in range(len(pairs(n))))


def _oriented(n: int, density: float, rng: random.Random) -> str:
    arcs = [(i, j) if rng.random() < 0.5 else (j, i) for i, j in pairs(n) if rng.random() < density]
    return f"{n};" + ",".join(f"{u}>{v}" for u, v in arcs)


def _values(graph: str) -> dict:
    D = decode(graph)
    out = {"graph": graph, "inv": solve_inv(D).value}
    if D.is_tournament:
        res = solve_tmr(D)
        out["tmr"] = res.value
        out["nonzero_diag"] = res.min_rank_nonzero_diag
        if out["inv"] - out["tmr"] not in (0, 1):
            raise RuntimeError(f"inv - tmr outside {{0, 1}} on {graph}")
    return out


def solve_table() -> dict:
    table = {}
    for group, (n, count) in POOL.items():
        table[group] = [
            _values(_tournament(n, random.Random(f"invlab-bench|{group}|{i}").getrandbits(len(pairs(n)))))
            for i in range(count)
        ]
    # the ROADMAP ladder instance
    table["ladder11"] = [_values(_tournament(11, random.Random(11).getrandbits(len(pairs(11)))))]
    n, count, density = ORIENTED
    table["o11"] = [
        _values(_oriented(n, density, random.Random(f"invlab-bench|o11|{i}"))) for i in range(count)
    ]
    return table


def classes_table() -> list:
    out = []
    for T in enumerate_tournaments(7):
        rep = check_trichotomy(T)
        out.append({"graph": encode(T), "inv": rep.inv, "tmr": rep.tmr,
                    "nonzero_diag": rep.min_rank_nonzero_diag, "holds": rep.holds})
    return out


def _cli_report(argv: list) -> dict:
    buf = io.StringIO()
    code = cli_main(argv, out=buf)
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return json.loads(buf.getvalue())


def reports_table() -> dict:
    return {name: summarize(_cli_report(argv)) for name, argv in SCAN_ARGV.items()}


def _witness_records(n2_max: int) -> list:
    recs = []
    for D1 in enumerate_tournaments(3):
        for s2 in range(1, n2_max + 1):
            for D2 in enumerate_tournaments(s2):
                J = dijoin(D1, D2)
                for M in (
                    solve_tmr(J).certificate.payload,
                    SymMatGF2.block_diag(solve_tmr(D1).certificate.payload,
                                         solve_tmr(D2).certificate.payload),
                ):
                    recs.append(schur_probe(D1, D2, M))
    return recs


def _enumerated_part(report, witnesses: list) -> dict:
    ranks = dict(report.evidence["a_rank_tally"])
    classes = {k: dict(v) for k, v in report.evidence["class_tally"].items()}
    for rec in witnesses:
        ranks[str(rec.a_rank)] -= 1
        if rec.a_rank == 3:
            cell = classes[str(rec.a_prime_class)]
            cell["instances"] -= 1
            cell["failures"] -= 0 if rec.b_prime_decycles else 1
    if report.violations:
        raise RuntimeError(f"schur scan {report.scope} reports violations")
    return {
        "scope": report.scope,
        "instances_checked": report.instances_checked,
        "witness_probes": len(witnesses),
        "enum_rank_tally": {k: v for k, v in ranks.items() if v},
        "enum_class_tally": {k: v for k, v in classes.items() if v["instances"]},
    }


def schur_table() -> dict:
    exhaustive = _enumerated_part(scan_schur_3x3(3), _witness_records(3))
    witnesses4 = _witness_records(4)
    sampled = {
        str(s): _enumerated_part(scan_schur_3x3(4, samples=SCHUR_SAMPLES, seed=s), witnesses4)
        for s in range(SCHUR_SCAN_SEEDS)
    }
    return {"exhaustive": exhaustive, "sampled": sampled}


def main() -> None:
    table = {
        "solve": solve_table(),
        "classes7": classes_table(),
        "reports": reports_table(),
        "schur": schur_table(),
    }
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
