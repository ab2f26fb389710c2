"""Span tracing of invlab's public functions, installed from outside the package.

A module that does `from .digraph import is_acyclic` holds its own binding,
so every traced function is replaced in every invlab module namespace (and
in module-level dicts such as explorer's scan table) that holds it.

Each call becomes a span: name, start, end, parent span, self time.  Self
time is the span's duration minus the durations of its child spans; calls
nest, so children never overlap.  The leaf kernels called about 10^5 times
in one `scan` repetition (AGGREGATED) are aggregated by (name, parent name)
instead of being stored span by span.

Forked pool workers inherit the wrappers, but their spans stay in the
worker's memory and are lost: per-layer numbers cover the client process
only.
"""

from __future__ import annotations

import importlib
import json
import time

TRACED = {
    "cli": ["main"],
    "explorer": [
        "enumerate_tournaments",
        "canonical_form",
        "scan_tmr_additivity",
        "scan_inv_lower_bound",
        "verify_dijoin_theorems",
        "scan_schur_3x3",
        "schur_probe",
    ],
    "search": ["solve_inv", "solve_tmr", "check_trichotomy", "verify_certificate"],
    "decycling": [
        "is_decycling_matrix",
        "apply_matrix",
        "matrix_certificate",
        "family_to_matrix",
        "certificate_error",
    ],
    "gf2": ["rank", "gram", "schur_update", "full_rank_principal", "inverse_full_rank"],
    "digraph": ["is_acyclic", "topological_order", "dijoin", "invert", "induced", "decode", "encode"],
}

# counted, not timed: (module, class, method) -> metric name
COUNTED = {
    ("gf2", "SymMatGF2", "__init__"): "gf2.SymMatGF2",
    ("digraph", "OrientedGraph", "out_masks"): "digraph.out_masks",
}

AGGREGATED = frozenset({"decycling.is_decycling_matrix", "decycling.apply_matrix", "digraph.is_acyclic"})

SCANS = frozenset(
    f"explorer.{f}"
    for f in ("scan_tmr_additivity", "scan_inv_lower_bound", "verify_dijoin_theorems", "scan_schur_3x3")
)
SOLVES = frozenset({"search.solve_inv", "search.solve_tmr"})

MODULES = ["invlab", "invlab.cli", "invlab.explorer", "invlab.search", "invlab.decycling",
           "invlab.gf2", "invlab.digraph", "invlab.constructions"]


class Tracer:
    """Records spans in memory; `install` patches invlab, `totals` summarises."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, self_s)
        self.agg: dict[tuple[str, str], list] = {}  # (name, parent name) -> [calls, incl_s, self_s]
        self.counts = {name: 0 for name in COUNTED.values()}
        self.solves_in_scans = 0
        self._stack: list[list] = []  # [name, start, child_s, span index]
        self._scan_depth = 0

    def _wrap(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        aggregated = name in AGGREGATED
        is_scan = name in SCANS
        is_solve = name in SOLVES

        def traced(*args, **kwargs):
            if aggregated:
                index = -1
            else:
                index = len(spans)
                spans.append(None)
            if is_scan:
                self._scan_depth += 1
            elif is_solve and self._scan_depth:
                self.solves_in_scans += 1
            frame = [name, clock(), 0.0, index]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_scan:
                    self._scan_depth -= 1
                duration = end - frame[1]
                self_s = duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if aggregated:
                    key = (name, parent[0] if parent else "")
                    cell = self.agg.get(key)
                    if cell is None:
                        self.agg[key] = [1, duration, self_s]
                    else:
                        cell[0] += 1
                        cell[1] += duration
                        cell[2] += self_s
                else:
                    owner = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
                    spans[index] = (name, frame[1], end, owner, self_s)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__name__ = fn.__name__
        counted.__qualname__ = fn.__qualname__
        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Replace every traced function in every namespace that binds it."""
        replaced = {}
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"invlab.{layer}")
            for fname in names:
                original = getattr(mod, fname)
                replaced[id(original)] = self._wrap(f"{layer}.{fname}", original)
        for modname in MODULES:
            mod = importlib.import_module(modname)
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced:
                            value[key] = replaced[id(item)]
        for (layer, cls_name, method), name in COUNTED.items():
            cls = getattr(importlib.import_module(f"invlab.{layer}"), cls_name)
            setattr(cls, method, self._count(name, getattr(cls, method)))

    def totals(self) -> dict:
        """Per function: calls, self seconds, inclusive seconds."""
        out: dict[str, list] = {}
        for name, start, end, _parent, self_s in self.spans:
            cell = out.setdefault(name, [0, 0.0, 0.0])
            cell[0] += 1
            cell[1] += self_s
            cell[2] += end - start
        for (name, _parent), (calls, incl_s, self_s) in self.agg.items():
            cell = out.setdefault(name, [0, 0.0, 0.0])
            cell[0] += calls
            cell[1] += self_s
            cell[2] += incl_s
        return {name: {"calls": c, "self_s": s, "incl_s": i} for name, (c, s, i) in out.items()}

    def dump(self, path: str) -> None:
        """Write the stored spans and the aggregated table as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "span_fields": ["name", "start", "end", "parent", "self_s"],
                    "spans": self.spans,
                    "aggregated": [
                        {"name": n, "parent": p, "calls": c, "incl_s": i, "self_s": s}
                        for (n, p), (c, i, s) in sorted(self.agg.items())
                    ],
                    "counts": self.counts,
                },
                fh,
            )
