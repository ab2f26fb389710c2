"""Show that the output checks reject wrong outputs.

    PYTHONPATH=src python3 perfbench/selftest.py

Feeds the checks of workloads.py one correct output and tampered copies of
it: a certificate with one membership flipped, a certificate claiming a
wrong value, and scan reports with one value changed.  Exits 1 if a
tampered output is accepted or the correct one is rejected.
"""

from __future__ import annotations

import copy
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from child import replay  # noqa: E402

from invlab import decode, solve_inv  # noqa: E402
from invlab.cli import main as cli_main  # noqa: E402


def _cli_entry(argv: list) -> dict:
    buf = io.StringIO()
    code = cli_main(argv, out=buf)
    return {"error": None, "out": {"code": code, "stdout": buf.getvalue()}, "replay": []}


def _with_report(entry: dict, edit) -> dict:
    tampered = copy.deepcopy(entry)
    report = json.loads(tampered["out"]["stdout"])
    edit(report)
    tampered["out"]["stdout"] = json.dumps(report)
    return tampered


def main() -> int:
    table = json.load(open(os.path.join(os.path.dirname(__file__), "expected.json"), encoding="utf-8"))
    cases = []  # (name, check, entry, should_pass)

    base = table["solve"]["t11"][0]
    D = decode(base["graph"])
    cert = solve_inv(D).certificate.to_json_dict()
    check = workloads._solve_check(base, "inv", False, None)

    def solve_entry(c: dict) -> dict:
        return {"error": None, "out": {"value": base["inv"], "cert": c}, "replay": [replay(D, c)]}

    flipped = copy.deepcopy(cert)
    first = flipped["family"][0]
    flipped["family"][0] = first[1:] if 0 in first else sorted(first + [0])
    wrong_value = dict(cert, value=cert["value"] - 1)
    cases += [
        ("inv certificate as returned", check, solve_entry(cert), True),
        ("inv certificate with one membership flipped", check, solve_entry(flipped), False),
        ("inv certificate claiming value - 1", check, solve_entry(wrong_value), False),
    ]

    argv = workloads.SCAN_ARGV["dijoin-theorems"]
    check = workloads.report_check(table["reports"]["dijoin-theorems"])
    entry = _cli_entry(argv)

    def bump_checks(report: dict) -> None:
        report["evidence"]["checks_run"]["dijoin-switch"] += 1

    cases += [
        ("verify-theorems report as returned", check, entry, True),
        ("verify-theorems report with instances_checked + 1", check,
         _with_report(entry, lambda r: r.update(instances_checked=r["instances_checked"] + 1)), False),
        ("verify-theorems report with one check tally + 1", check, _with_report(entry, bump_checks), False),
    ]

    argv = ["scan", "schur-3x3", "--n2", "4", "--budget", str(workloads.SCHUR_SAMPLES), "--seed", "0", "--json"]
    check = workloads.schur_check(table["schur"]["sampled"]["0"])
    entry = _cli_entry(argv)

    def move_rank(report: dict) -> None:
        tally = report["evidence"]["a_rank_tally"]
        tally["2"] -= 1
        tally["3"] += 1

    cases += [
        ("schur report as returned", check, entry, True),
        ("schur report with one probe moved from rank 2 to rank 3", check, _with_report(entry, move_rank), False),
    ]

    bad = 0
    for name, check, entry, should_pass in cases:
        verdict = check(entry, [entry])
        ok = (verdict is None) == should_pass
        bad += not ok
        print(f"{'ok  ' if ok else 'BAD '} {name}: {verdict or 'accepted'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
