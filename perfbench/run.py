"""invlab benchmark: seeded workloads, output checks, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload solve --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; invlab is imported from its src/.
Each repetition runs the workload's whole operation list in a fresh
interpreter (child.py), so explorer's caches never turn a repeat into cache
hits.  Repetitions follow one another while the next one is expected to end
within --seconds (at least one runs); timings are per-operation means over
the repetitions.
--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics.
The last line of stdout is one JSON object; the exit code is 0 only when
every output check passed.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
RUN_LIMIT_S = 170.0  # every child is killed past this point of the run

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_CALL = {"digraph.is_acyclic", "decycling.apply_matrix", "explorer.canonical_form",
            "gf2.rank", "gf2.gram", "gf2.schur_update"}


def per_layer_units() -> dict:
    units = {}
    for layer, names in tracer.TRACED.items():
        for name in names:
            full = f"{layer}.{name}"
            units[f"{full}.calls"] = "count"
            units[f"{full}.self_s"] = "s"
            if full in PER_CALL:
                units[f"{full}.us_per_call"] = "us"
    for name in tracer.COUNTED.values():
        units[f"{name}.calls"] = "count"
    units["explorer.solves_per_instance"] = "ratio"
    units["search.parallel.cpu_ratio"] = "ratio"
    units["explorer.parallel.cpu_ratio"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


class ChildFailed(Exception):
    pass


def spawn(request: dict, deadline: float) -> dict:
    """Run child.py once; returns its result with setup_s added."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
        start_new_session=True,  # pool workers share the group, so a kill reaches them
    )
    try:
        out, err = proc.communicate(json.dumps(request).encode(), timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed("repetition exceeded the run's time limit") from None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # pool workers a crashed child left behind
        except ProcessLookupError:
            pass
        tail = err.decode().strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        raise ChildFailed(f"child failed: {tail[0]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def quantile(values: list, q: float) -> float:
    """Linear-interpolated quantile (statistics.quantiles, inclusive method)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def op_means(results: list, key: str) -> list:
    """Each operation's mean of `key` over the repetitions."""
    return [statistics.fmean(r["ops"][i][key] for r in results) for i in range(len(results[0]["ops"]))]


def end_to_end(specs: list, results: list, setups: list) -> dict:
    """End-to-end metrics from per-operation means over the repetitions.

    The host's speed moves between states about 1.5x apart that last from
    seconds to minutes.  A mean over a run's repetitions weighs those states
    by the time spent in each; a median snaps to one of them, which makes
    whole runs jump between two values.
    """
    ms = op_means(results, "ms")
    latencies = [m for s, m in zip(specs, ms) if s.latency]
    first = results[0]["ops"]
    inst = sum(s.instances(e) for s, e in zip(specs, first) if s.instances and e["error"] is None)
    inst_s = sum(m for s, m in zip(specs, ms) if s.instances) / 1e3
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(ms) / 1e3,
        "cpu_s": sum(op_means(results, "cpu_s")),
        "op_p50_ms": quantile(latencies, 0.5),
        "op_p90_ms": quantile(latencies, 0.9),
        "instances_per_s": inst / inst_s if inst_s else 0.0,
        "peak_rss_mb": statistics.median((r["rss_kb"] + r["child_rss_kb"]) / 1024 for r in results),
    }


def cpu_ratio(specs: list, entries: list, scans: bool) -> float:
    """Process-tree CPU over wall time of the pool-running solve calls, or scan calls."""
    chosen = [e for s, e in zip(specs, entries) if "workers" in s.tags and ("scan" in s.tags) == scans]
    wall = sum(e["ms"] for e in chosen) / 1e3
    return sum(e["cpu_s"] for e in chosen) / wall if wall else 0.0


def layer_metrics(specs: list, plain: list, traced: list) -> dict:
    """Per-layer metrics: counts from the first traced repetition, times as means."""
    first = traced[0]["trace"]
    metrics = {}
    for layer, names in tracer.TRACED.items():
        for name in names:
            full = f"{layer}.{name}"
            cells = [t["trace"]["functions"].get(full, {"calls": 0, "self_s": 0.0, "incl_s": 0.0}) for t in traced]
            metrics[f"{full}.calls"] = cells[0]["calls"]
            metrics[f"{full}.self_s"] = statistics.fmean(c["self_s"] for c in cells)
            if full in PER_CALL:
                metrics[f"{full}.us_per_call"] = statistics.fmean(
                    c["incl_s"] / c["calls"] * 1e6 if c["calls"] else 0.0 for c in cells)
    for name in tracer.COUNTED.values():
        metrics[f"{name}.calls"] = first["counts"][name]
    scanned = sum(s.instances(e) for s, e in zip(specs, traced[0]["ops"])
                  if "scan" in s.tags and e["error"] is None)
    metrics["explorer.solves_per_instance"] = first["solves_in_scans"] / scanned if scanned else 0.0
    metrics["search.parallel.cpu_ratio"] = statistics.fmean(cpu_ratio(specs, r["ops"], False) for r in plain)
    metrics["explorer.parallel.cpu_ratio"] = statistics.fmean(cpu_ratio(specs, r["ops"], True) for r in plain)
    metrics["trace.overhead_s"] = (sum(op_means(traced, "ms")) - sum(op_means(plain, "ms"))) / 1e3
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "invlab" / "__init__.py").is_file():
        print(f"error: no invlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    table = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    specs = workloads.build(args.workload, args.seed, table)
    ops = [s.op for s in specs]
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = str(out_dir / f"spans-{args.workload}-{args.seed}.json")

    run_start = time.perf_counter()
    deadline = run_start + RUN_LIMIT_S
    attempted = failed = 0
    failures: list[str] = []
    plain: list[dict] = []
    traced: list[dict] = []
    setups: list[float] = []
    try:
        for _ in range(SETUP_PROBES):
            setups.append(spawn({"ops": ops, "setup_only": True}, deadline)["setup_s"])
        loop_start = time.perf_counter()
        while True:
            rep_start = time.perf_counter()
            for trace in (False, True) if args.trace else (False,):
                attempted += len(specs)
                try:
                    result = spawn({"ops": ops, "trace": trace, "span_file": span_file}, deadline)
                except ChildFailed as exc:
                    failed += len(specs)
                    failures.append(str(exc))
                    raise
                for spec, verdict in zip(specs, workloads.check_all(specs, result["ops"])):
                    if verdict is not None:
                        failed += 1
                        failures.append(f"{spec.label}: {verdict}")
                (traced if trace else plain).append(result)
            # start another repetition only if it can end within --seconds
            now = time.perf_counter()
            if now + (now - rep_start) - loop_start > args.seconds:
                break
    except ChildFailed:
        pass

    for line in failures[:20]:
        print(f"FAILED {line}")
    metrics, units = {}, {}
    if plain and (traced or not args.trace):
        setups += [r["setup_s"] for r in plain]
        if args.trace:
            metrics, units = layer_metrics(specs, plain, traced), per_layer_units()
        else:
            metrics, units = end_to_end(specs, plain, setups), END_TO_END
    correct = failed == 0 and bool(metrics)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "repetitions": len(plain),
        "setup_samples": setups,
        "wall_s": [r["wall_s"] for r in plain],
        "op_ms": {s.label: [r["ops"][i]["ms"] for r in plain] for i, s in enumerate(specs)},
    }
    (out_dir / f"last-{args.workload}.json").write_text(json.dumps(details, indent=1))
    print(f"workload {args.workload}  seed {args.seed}  repetitions {len(plain)}"
          f"  operations {attempted}  failed {failed}  error_rate {failed / max(attempted, 1):.4g}"
          f"  seconds {time.perf_counter() - run_start:.1f}")
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    if args.trace:
        print("  note: forked pool workers' spans are not captured; per-layer times and counts"
              " cover the client process (cpu_ratio includes the workers)")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
