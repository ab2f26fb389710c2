"""One repetition of a workload, run in a fresh interpreter by run.py.

Reads a request (JSON) on stdin: the operation list, and whether to trace.
Imports invlab, decodes the inputs, then runs the operations one after the
other (one client, closed loop), timing each.  Certificates are replayed
with verify_certificate after the timed interval.  Prints one JSON object
on stdout.  explorer's module-level caches make any in-process repeat a
cache hit, which is why every repetition gets its own interpreter.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time


def _cpu() -> float:
    """User plus system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def replay(D, cert_json: dict) -> bool:
    """Rebuild a certificate from its JSON and replay it with verify_certificate."""
    from invlab import decycling, search

    try:
        cert = decycling.Certificate.from_json_dict(cert_json)
        return bool(search.verify_certificate(D, cert))
    except (KeyError, TypeError, ValueError):
        return False


def main() -> int:
    request = json.load(sys.stdin)
    import invlab
    from invlab import cli, digraph, explorer, gf2, search

    def prepare(op: dict) -> dict:
        kind = op["kind"]
        if kind in ("inv", "tmr", "trichotomy"):
            op["D"] = digraph.decode(op["graph"])
        elif kind == "probe":
            op["D1"] = digraph.decode(op["g1"])
            op["D2"] = digraph.decode(op["g2"])
            op["M"] = gf2.SymMatGF2(len(op["rows"]), op["rows"])
        return op

    ops = [prepare(op) for op in request["ops"]]
    ready = time.perf_counter()
    if request.get("setup_only"):
        print(json.dumps({"ready": ready, "invlab": invlab.__file__}))
        return 0

    tracer = None
    if request.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def run(op: dict):
        kind = op["kind"]
        if kind == "inv":
            return search.solve_inv(op["D"], search.SearchBudget(node_limit=op.get("node_limit")))
        if kind == "tmr":
            return search.solve_tmr(op["D"], search.SearchBudget(node_limit=op.get("node_limit")))
        if kind == "trichotomy":
            return search.check_trichotomy(op["D"])
        if kind == "probe":
            return explorer.schur_probe(op["D1"], op["D2"], op["M"])
        if kind == "cli":
            buf = io.StringIO()
            code = cli.main(list(op["argv"]), out=buf)
            return code, buf.getvalue()
        raise ValueError(f"unknown operation kind {kind!r}")

    raw = []
    start_cpu = _cpu()
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        c0 = _cpu()
        try:
            value, error = run(op), None
        except Exception as exc:  # every failure is counted, never fatal
            value, error = None, f"{type(exc).__name__}: {exc}"
        c1 = _cpu()
        t1 = time.perf_counter()
        raw.append((value, error, (t1 - t0) * 1e3, c1 - c0))
    wall_s = time.perf_counter() - start
    cpu_s = _cpu() - start_cpu

    results = []
    for op, (value, error, ms, cpu) in zip(ops, raw):
        entry = {"ms": ms, "cpu_s": cpu, "error": error, "out": None, "replay": []}
        results.append(entry)
        if error is not None:
            continue
        kind = op["kind"]
        if kind in ("inv", "tmr"):
            cert = value.certificate.to_json_dict()
            entry["out"] = {"value": value.value, "cert": cert}
            if kind == "tmr":
                entry["out"]["nonzero_diag"] = value.min_rank_nonzero_diag
            entry["replay"].append(replay(op["D"], cert))
        elif kind == "trichotomy":
            entry["out"] = {
                "inv": value.inv,
                "tmr": value.tmr,
                "nonzero_diag": value.min_rank_nonzero_diag,
                "holds": value.holds,
            }
            for cert in (value.inv_certificate, value.tmr_certificate):
                entry["replay"].append(replay(op["D"], cert.to_json_dict()))
        elif kind == "probe":
            entry["out"] = {
                "a_rank": value.a_rank,
                "b_prime_decycles": value.b_prime_decycles,
                "a_prime_decycles_c3": value.a_prime_decycles_c3,
                "a_prime_class": value.a_prime_class,
            }
        else:
            code, text = value
            entry["out"] = {"code": code, "stdout": text}
            argv = op["argv"]
            if argv[0] in ("inv", "tmr") and code == 0:
                D = digraph.decode(argv[1])
                for line in text.splitlines():
                    entry["replay"].append(replay(D, json.loads(line)))
            elif argv[:2] == ["scan", "tmr-additivity"] and code == 0:
                for cx in json.loads(text)["evidence"]["counterexamples"]:
                    D = digraph.dijoin(digraph.decode(cx["d1"]), digraph.decode(cx["d2"]))
                    entry["replay"].append(replay(D, cx["dijoin_certificate"]))

    out = {
        "ready": ready,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "child_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "ops": results,
    }
    if tracer is not None:
        out["trace"] = {
            "functions": tracer.totals(),
            "counts": tracer.counts,
            "solves_in_scans": tracer.solves_in_scans,
        }
        if request.get("span_file"):
            tracer.dump(request["span_file"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
