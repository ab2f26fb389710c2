"""Command-line front end.

Exit codes: 0 success / statement holds, 1 violation or failed certificate,
2 usage error, 3 inconclusive (budget exhausted).  `--json` emits the
certificate and scan-report schemas verbatim, each with a top-level
"schema" field; reports are the durable product, so there is no config
file and every run is self-describing through ScanReport.scope.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Optional

from .decycling import Certificate, _json_int, _json_rows, certificate_error
from .digraph import ParseError, VertexFamily, decode, dijoin, encode, njoin
from .explorer import canonical_form, enumerate_tournaments, run_scan
from .search import Inconclusive, SearchBudget, solve_inv, solve_tmr
from .constructions import extend_to_tournament

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _budget(args) -> SearchBudget:
    return SearchBudget(node_limit=args.node_limit)


def _graphs_from(arg: str, stdin) -> list[str]:
    if arg == "-":
        return [line.strip() for line in stdin if line.strip()]
    return [arg]


def _cmd_inv(args, out) -> int:
    code = EXIT_OK
    for text in _graphs_from(args.graph, sys.stdin):
        D = decode(text)
        try:
            value, cert = solve_inv(D, _budget(args))
        except Inconclusive as exc:
            print(f"inv inconclusive for {text}: {exc}", file=out)
            code = max(code, EXIT_INCONCLUSIVE)
            continue
        if args.json:
            print(json.dumps(cert.to_json_dict()), file=out)
        else:
            print(f"inv = {value}", file=out)
            print(f"family: {cert.payload.to_lists()}", file=out)
            print(f"order: {list(cert.order)}", file=out)
    return code


def _cmd_tmr(args, out) -> int:
    code = EXIT_OK
    for text in _graphs_from(args.graph, sys.stdin):
        T = decode(text)
        if not T.is_tournament:
            print(f"error: {text} is not a tournament", file=out)
            return EXIT_USAGE
        try:
            value, cert, nonzero_diag = solve_tmr(T, _budget(args))
        except Inconclusive as exc:
            print(f"tmr inconclusive for {text}: {exc}", file=out)
            code = max(code, EXIT_INCONCLUSIVE)
            continue
        if args.json:
            print(json.dumps(cert.to_json_dict()), file=out)
        else:
            print(f"tmr = {value}", file=out)
            print(f"matrix: {cert.payload.to_lists()}", file=out)
            print(f"order: {list(cert.order)}", file=out)
            print(f"min-rank matrix with nonzero diagonal exists: {nonzero_diag}", file=out)
    return code


def _cmd_check(args, out) -> int:
    D = decode(args.graph)
    with open(args.cert, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    cert = Certificate.from_json_dict(data)
    err = certificate_error(D, cert)
    if err is None:
        print("certificate ok", file=out)
        return EXIT_OK
    print(f"certificate FAILED: {err}", file=out)
    return EXIT_VIOLATION


def _cmd_dijoin(args, out) -> int:
    print(encode(dijoin(decode(args.g1), decode(args.g2))), file=out)
    return EXIT_OK


def _cmd_njoin(args, out) -> int:
    print(encode(njoin([decode(g) for g in args.graphs])), file=out)
    return EXIT_OK


def _cmd_extend(args, out) -> int:
    D = decode(args.graph)
    try:
        family = VertexFamily.from_sets(D.n, _json_rows(json.loads(args.family), _json_int))
    except (TypeError, ValueError) as exc:
        print(f"error: --family must be a JSON list of vertex lists ({exc})", file=out)
        return EXIT_USAGE
    try:
        print(encode(extend_to_tournament(D, family)), file=out)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_enumerate(args, out) -> int:
    for T in enumerate_tournaments(args.n, up_to_iso=args.iso):
        print(encode(T), file=out)
    return EXIT_OK


def _cmd_canonical(args, out) -> int:
    for text in _graphs_from(args.graph, sys.stdin):
        print(canonical_form(decode(text)), file=out)
    return EXIT_OK


def _report_exit(report, args, out) -> int:
    if args.json:
        print(json.dumps(report.to_json_dict()), file=out)
    else:
        print(report.table(), file=out)
    if report.violations:
        return EXIT_VIOLATION
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_verify_theorems(args, out) -> int:
    report = run_scan(
        "dijoin-theorems", workers=args.workers, max_each=args.max_n, node_limit=args.node_limit
    )
    return _report_exit(report, args, out)


def _cmd_scan(args, out) -> int:
    params = {}
    if args.conjecture == "schur-3x3":
        if args.node_limit is not None:
            print("error: scan schur-3x3 runs no search budget; --node-limit does not apply"
                  " (--budget sets its sample count)", file=out)
            return EXIT_USAGE
        params["n2_max"] = args.n2 if args.n2 is not None else 3
        if args.budget is not None:
            params["samples"] = args.budget
        params["seed"] = args.seed
    else:
        if args.budget is not None:
            print("error: --budget is the sample count of scan schur-3x3;"
                  " use --node-limit to cap the search nodes of this scan", file=out)
            return EXIT_USAGE
        params["n1"] = args.n1 if args.n1 is not None else 3
        params["n2"] = args.n2 if args.n2 is not None else 3
        params["node_limit"] = args.node_limit
    try:
        report = run_scan(args.conjecture, workers=args.workers, **params)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return EXIT_USAGE
    return _report_exit(report, args, out)


def _at_least(low: int):
    """An argparse type: an int >= low, else a usage error naming the flag."""

    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return count


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The invlab parser, built once per process: parsing never changes it."""
    count = _at_least(0)
    # the options of the commands that search; the others take none of them
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--json", action="store_true", help="emit JSON schemas verbatim")
    search.add_argument(
        "--workers", type=_at_least(1), default=1,
        help="process count for scan and verify-theorems; inv and tmr accept it"
        " and run one search in one process",
    )
    search.add_argument("--node-limit", type=count, default=None, help="search node cap")

    parser = argparse.ArgumentParser(
        prog="invlab",
        description="Exact inversion numbers and tournament minimum rank with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inv", parents=[search], help="inversion number of a graph")
    p.add_argument("graph", help="graph text, or - to read one per stdin line")
    p.set_defaults(fn=_cmd_inv)

    p = sub.add_parser("tmr", parents=[search], help="tournament minimum rank")
    p.add_argument("graph", help="tournament text, or - for stdin lines")
    p.set_defaults(fn=_cmd_tmr)

    p = sub.add_parser("check", help="verify a certificate file")
    p.add_argument("graph")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("dijoin", help="dijoin of two graphs")
    p.add_argument("g1")
    p.add_argument("g2")
    p.set_defaults(fn=_cmd_dijoin)

    p = sub.add_parser("njoin", help="iterated dijoin")
    p.add_argument("graphs", nargs="+")
    p.set_defaults(fn=_cmd_njoin)

    p = sub.add_parser("extend", help="extend to a tournament with equal inv")
    p.add_argument("graph")
    p.add_argument("--family", required=True, help="decycling family as JSON lists")
    p.set_defaults(fn=_cmd_extend)

    p = sub.add_parser("enumerate", help="enumerate tournaments")
    p.add_argument("n", type=int)
    p.add_argument("--iso", action="store_true", help="one per isomorphism class")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("canonical", help="canonical form of a tournament")
    p.add_argument("graph")
    p.set_defaults(fn=_cmd_canonical)

    p = sub.add_parser("verify-theorems", parents=[search], help="check the proven identities")
    p.add_argument("--max-n", type=count, default=3, help="max operand size")
    p.set_defaults(fn=_cmd_verify_theorems)

    p = sub.add_parser("scan", parents=[search], help="conjecture scans")
    p.add_argument(
        "conjecture",
        choices=["tmr-additivity", "inv-lower-bound", "schur-3x3"],
    )
    p.add_argument("--n1", type=count, default=None, help="max size of the first operand")
    p.add_argument("--n2", type=count, default=None, help="max size of the second operand")
    p.add_argument("--budget", type=count, default=None, help="schur-3x3 sample count")
    p.add_argument("--seed", type=int, default=0, help="seed for sampled scans")
    p.set_defaults(fn=_cmd_scan)

    return parser


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args, out)
    except (ParseError, OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=out)
        return EXIT_USAGE
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=out)
        return EXIT_INCONCLUSIVE


def console_main() -> None:
    sys.exit(main())
