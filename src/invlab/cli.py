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
from .digraph import UsageError, VertexFamily, _refuse_below, decode, encode, njoin
from .explorer import canonical_form, enumerate_tournaments, run_scan
from .search import Inconclusive, SearchBudget, solve_inv, solve_tmr
from .constructions import extend_to_tournament

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


def _graphs_from(arg: str, stdin) -> list[str]:
    if arg == "-":
        return [line.strip() for line in stdin if line.strip()]
    return [arg]


def _decoded(text: str, tournament: bool):
    """The graph of text, refused naming text if a tournament is asked for and it is not one."""
    D = decode(text)
    if tournament and not D.is_tournament:
        raise UsageError(f"{text} is not a tournament")
    return D


def _cmd_solve(args, out) -> int:
    # looked up per call, not kept in the cached parser, so a solver rebound in this module runs
    solve = {"inv": solve_inv, "tmr": solve_tmr}[args.command]
    _refuse_below(1, workers=args.workers)
    budget = SearchBudget(node_limit=args.node_limit)
    code = EXIT_OK
    for text in _graphs_from(args.graph, sys.stdin):
        D = _decoded(text, args.command == "tmr")
        try:
            value, cert, *nonzero_diag = solve(D, budget)
        except Inconclusive as exc:
            print(f"{args.command} inconclusive for {text}: {exc}", file=out)
            code = max(code, EXIT_INCONCLUSIVE)
            continue
        if args.json:
            print(json.dumps(cert.to_json_dict()), file=out)
            continue
        print(f"{args.command} = {value}", file=out)
        print(f"{cert.kind}: {cert.payload.to_lists()}", file=out)
        print(f"order: {list(cert.order)}", file=out)
        if nonzero_diag:  # tmr also says whether a minimum-rank matrix has a nonzero diagonal
            print(f"min-rank matrix with nonzero diagonal exists: {nonzero_diag[0]}", file=out)
    return code


def _cmd_check(args, out) -> int:
    D = decode(args.graph)
    with open(args.cert, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (RecursionError, ValueError) as exc:  # bad JSON, nested too deep, or not UTF-8
            raise UsageError(f"--cert {args.cert} is not JSON ({exc})") from None
    cert = Certificate.from_json_dict(data)
    err = certificate_error(D, cert)
    if err is None:
        print("certificate ok", file=out)
        return EXIT_OK
    print(f"certificate FAILED: {err}", file=out)
    return EXIT_VIOLATION


def _cmd_njoin(args, out) -> int:
    print(encode(njoin([decode(g) for g in args.graphs])), file=out)
    return EXIT_OK


def _cmd_extend(args, out) -> int:
    D = decode(args.graph)
    try:
        family = VertexFamily.from_sets(D.n, _json_rows(json.loads(args.family), _json_int))
    except (RecursionError, TypeError, ValueError) as exc:
        raise UsageError(f"--family must be a JSON list of vertex lists ({exc})") from None
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
        print(canonical_form(_decoded(text, tournament=True)), file=out)
    return EXIT_OK


# the flags each scan reads, each with the parameter it sets; a flag left
# unset is not passed, so the scan's own default applies
_SCAN_FLAGS = {
    "dijoin-theorems": {"max_n": "max_each", "node_limit": "node_limit"},
    "tmr-additivity": {"n1": "n1", "n2": "n2", "node_limit": "node_limit"},
    "inv-lower-bound": {"n1": "n1", "n2": "n2", "node_limit": "node_limit"},
    "schur-3x3": {"n2": "n2_max", "budget": "samples", "seed": "seed"},
}
_SCAN_OPTIONS = {flag for reads in _SCAN_FLAGS.values() for flag in reads}
# the flag that sets each library parameter, so that a refusal names what was typed
_FLAG_OF = {p: f for r in _SCAN_FLAGS.values() for f, p in r.items()} | {"workers": "workers"}


def _option(flag: str) -> str:
    return "--" + flag.replace("_", "-")


def _cmd_scan(args, out) -> int:
    reads = _SCAN_FLAGS[args.scan]
    params = {}
    for flag, value in vars(args).items():
        if flag not in _SCAN_OPTIONS or value is None:
            continue
        if flag not in reads:
            raise UsageError(f"scan {args.scan} takes no {_option(flag)};"
                             f" it reads {', '.join(map(_option, reads))}")
        params[reads[flag]] = value
    report = run_scan(args.scan, workers=args.workers, **params)
    print(json.dumps(report.to_json_dict()) if args.json else report.table(), file=out)
    if report.violations:
        return EXIT_VIOLATION
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The invlab parser, built once per process: parsing never changes it."""
    # the options of the commands that search; the others take none of them
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--json", action="store_true", help="emit JSON schemas verbatim")
    search.add_argument(
        "--workers", type=int, default=1,
        help="process count for scan and verify-theorems; inv and tmr accept it"
        " and run one search in one process",
    )
    search.add_argument("--node-limit", type=int, default=None, help="search node cap")

    parser = argparse.ArgumentParser(
        prog="invlab",
        description="Exact inversion numbers and tournament minimum rank with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inv", parents=[search], help="inversion number of a graph")
    p.add_argument("graph", help="graph text, or - to read one per stdin line")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("tmr", parents=[search], help="tournament minimum rank")
    p.add_argument("graph", help="tournament text, or - for stdin lines")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("check", help="verify a certificate file")
    p.add_argument("graph")
    p.add_argument("--cert", required=True, help="certificate JSON file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("dijoin", help="dijoin of two graphs")
    p.add_argument("graphs", nargs=2)
    p.set_defaults(fn=_cmd_njoin)

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
    p.add_argument("--max-n", type=int, default=None, help="max operand size")
    p.set_defaults(fn=_cmd_scan, scan="dijoin-theorems")

    p = sub.add_parser("scan", parents=[search], help="conjecture scans")
    p.add_argument("scan", choices=["tmr-additivity", "inv-lower-bound", "schur-3x3"])
    p.add_argument("--n1", type=int, default=None, help="max size of the first operand")
    p.add_argument("--n2", type=int, default=None, help="max size of the second operand")
    p.add_argument("--budget", type=int, default=None, help="schur-3x3 sample count")
    p.add_argument("--seed", type=int, default=None, help="schur-3x3 sample seed")
    p.set_defaults(fn=_cmd_scan)

    return parser


def main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args, out)
    except (UsageError, OSError) as exc:
        # counts parse as plain ints, so the library's range checks are the only ones;
        # any other exception is a fault, and propagates with its traceback
        flag = _FLAG_OF.get(getattr(exc, "param", None))
        print(f"error: argument {_option(flag)}: {exc}" if flag else f"error: {exc}", file=out)
        return EXIT_USAGE
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=out)
        return EXIT_INCONCLUSIVE


def console_main() -> None:
    sys.exit(main())
