"""Oriented graphs and tournaments stored as per-vertex rows.

Vertices are 0..n-1.  A graph is two tuples of n bitmasks: `out[v]` holds
v's out-neighbours and `adj[v]` the vertices that share an arc with v, so
`out[v]` is a subset of `adj[v]`, `adj` is symmetric, and each adjacent
pair appears in exactly one direction of `out`.  A tournament is the
special case where every pair is adjacent.  Every structural operation
(inverting a family, reversing, dijoins, induced subgraphs, relabelling
the vertices into a given order) is a row operation.

Pair-index bits, one bit per unordered pair {i, j} with i < j in
lexicographic order, exist only in the text codec: `decode`, `encode` and
`Tournament(n, bits)`.

Values are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .gf2 import MatGF2, gram

MAX_VERTICES = 64  # a vertex subset always fits one machine word


class UsageError(ValueError):
    """Malformed input or a refused scope; `param` names the refused parameter, if one is."""

    def __init__(self, message: str, param: str | None = None):
        super().__init__(message)
        self.param = param


class ParseError(UsageError):
    """Malformed graph text; the message names the offending token."""


def _refuse_below(low: int, **values: int | None) -> None:
    """Refuse a value below low (None is unset): it would ask nothing and report nothing wrong."""
    for name, value in values.items():
        if value is not None and value < low:
            raise UsageError(f"{name} must be >= {low}, got {value}", name)


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


@lru_cache(maxsize=None)
def _complete_rows(n: int) -> tuple[int, ...]:
    full = (1 << n) - 1
    return tuple(full ^ (1 << v) for v in range(n))


class OrientedGraph:
    """Loop-free digraph with at most one arc per vertex pair."""

    __slots__ = ("n", "out", "adj")

    def __init__(self, n: int, arcs: Iterable[tuple[int, int]] = ()):
        _check_vertex_count(n)
        out = [0] * n
        adj = [0] * n
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"arc {u}>{v}: vertex out of range for n={n}")
            if u == v:
                raise ParseError(f"arc {u}>{v}: self-loop")
            if (adj[u] >> v) & 1:
                if (out[u] >> v) & 1:
                    raise ParseError(f"arc {u}>{v}: duplicate arc")
                raise ParseError(f"arc {u}>{v}: conflicts with opposite arc")
            out[u] |= 1 << v
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.out = tuple(out)
        self.adj = tuple(adj)

    @property
    def is_tournament(self) -> bool:
        return self.adj == _complete_rows(self.n)

    def arc(self, u: int, v: int) -> bool:
        """True iff the arc u -> v is present."""
        return bool((self.out[u] >> v) & 1)

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs as (tail, head), in lexicographic pair order."""
        out = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.out[i] >> j) & 1:
                    out.append((i, j))
                elif (self.out[j] >> i) & 1:
                    out.append((j, i))
        return out

    def out_masks(self) -> list[int]:
        """Per-vertex bitmask of out-neighbours."""
        return list(self.out)

    def __eq__(self, other):
        return isinstance(other, OrientedGraph) and self.n == other.n and self.out == other.out

    def __hash__(self):
        return hash((self.n, self.out))

    def __repr__(self):
        return f"{type(self).__name__}({encode(self)!r})"


class Tournament(OrientedGraph):
    """Oriented graph with exactly one arc per pair.

    `bits` holds one orientation bit per pair in lexicographic pair order,
    1 meaning i -> j for the pair (i, j) with i < j.
    """

    __slots__ = ()

    def __init__(self, n: int, bits: int = 0):
        _check_vertex_count(n)
        if not 0 <= bits < (1 << pair_count(n)):
            raise ValueError(f"orientation bits out of range for n={n}")
        out = [0] * n
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                if (bits >> k) & 1:
                    out[i] |= 1 << j
                else:
                    out[j] |= 1 << i
                k += 1
        self.n = n
        self.out = tuple(out)
        self.adj = _complete_rows(n)


def _check_vertex_count(n: int) -> None:
    if not (0 <= n <= MAX_VERTICES):
        raise UsageError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def _make(n: int, out: Iterable[int], adj: Sequence[int] | None = None) -> OrientedGraph:
    """Internal constructor from consistent rows; adj None means a tournament."""
    complete = _complete_rows(n)
    if adj is None or tuple(adj) == complete:
        g = object.__new__(Tournament)
        g.adj = complete
    else:
        g = object.__new__(OrientedGraph)
        g.adj = tuple(adj)
    g.n = n
    g.out = tuple(out)
    return g


@dataclass(frozen=True)
class VertexFamily:
    """Ordered list of vertex subsets X_1..X_m; empty sets are permitted.

    The characteristic vector of vertex v is the m-bit word whose bit i is
    set iff v is in sets[i].
    """

    n: int
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        _check_vertex_count(self.n)
        for idx, s in enumerate(self.sets):
            if not all(0 <= v < self.n for v in s):
                raise ValueError(f"set {idx} has a vertex outside 0..{self.n - 1}")

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "VertexFamily":
        return cls(n, tuple(frozenset(s) for s in sets))

    @property
    def m(self) -> int:
        return len(self.sets)

    def char_vectors(self) -> list[int]:
        vecs = [0] * self.n
        for i, s in enumerate(self.sets):
            bit = 1 << i
            for v in s:
                vecs[v] |= bit
        return vecs

    def to_lists(self) -> list[list[int]]:
        return [sorted(s) for s in self.sets]


# ---------------------------------------------------------------------------
# text codec


def decode(text: str) -> OrientedGraph:
    """Parse "n:bits" (tournament) or "n;u>v,u>v,..." (oriented graph).

    Tournament bits are listed in lexicographic pair order, one character
    per pair, '1' meaning i -> j for the pair (i, j) with i < j.
    """
    text = text.strip()
    if ":" in text:
        head, _, bits = text.partition(":")
        n = _parse_count(head)
        m = pair_count(n)
        if len(bits) != m:
            raise ParseError(
                f"token {bits!r}: expected {m} orientation bits for n={n}, got {len(bits)}"
            )
        bad = bits.strip("01")
        if bad:
            raise ParseError(f"token {bad[0]!r}: orientation bits must be 0 or 1")
        return Tournament(n, int(bits[::-1], 2) if bits else 0)
    if ";" in text:
        head, _, body = text.partition(";")
        n = _parse_count(head)
        arcs = []
        if body:
            for token in body.split(","):
                tail, sep, headv = token.partition(">")
                if not sep:
                    raise ParseError(f"token {token!r}: expected u>v")
                try:
                    u, v = int(tail), int(headv)
                except ValueError:
                    raise ParseError(f"token {token!r}: endpoints must be integers") from None
                arcs.append((u, v))
        g = OrientedGraph(n, arcs)
        return _make(n, g.out, g.adj)
    raise ParseError(f"token {text!r}: expected 'n:bits' or 'n;arcs'")


def encode(D: OrientedGraph) -> str:
    """Inverse of decode; tournaments use the bit form."""
    n = D.n
    if D.is_tournament:
        bits = "".join("01"[D.out[i] >> j & 1] for i in range(n) for j in range(i + 1, n))
        return f"{n}:{bits}"
    return f"{n};" + ",".join(f"{u}>{v}" for u, v in D.arcs())


def _parse_count(token: str) -> int:
    try:
        n = int(token)
    except ValueError:
        raise ParseError(f"token {token!r}: vertex count must be an integer") from None
    try:
        _check_vertex_count(n)
    except UsageError as exc:
        raise ParseError(f"token {token!r}: {exc}") from None
    return n


# ---------------------------------------------------------------------------
# structural operations


def is_acyclic(D: OrientedGraph) -> bool:
    """True iff D has no directed cycle (see _topological_order_or_none)."""
    return _topological_order_or_none(D) is not None


def topological_order(D: OrientedGraph) -> tuple[int, ...]:
    """Lexicographically least topological order (unique for tournaments)."""
    order = _topological_order_or_none(D)
    if order is None:
        raise ValueError("graph is cyclic; no topological order")
    return order


def _topological_order_or_none(D: OrientedGraph):
    """The order topological_order returns, or None when D is cyclic.

    A tournament is acyclic iff it is transitive, and then its one order
    ranks the vertices by falling score, the vertex of score s at position
    n-1-s.  So a tournament takes one placement pass by score and one check
    that each placed vertex beats exactly the vertices after it; a score
    shared by two vertices leaves some vertex twice in the placement, and
    the check fails at its earlier copy, whose row would have to hold
    itself.  Other graphs run source elimination.
    """
    if D.is_tournament:
        n = D.n
        order = [0] * n
        for v, row in enumerate(D.out):
            order[n - 1 - row.bit_count()] = v
        later = 0
        for v in reversed(order):
            if D.out[v] != later:
                return None
            later |= 1 << v
        return tuple(order)
    return _source_elimination_order(D)


def _source_elimination_order(D: OrientedGraph):
    """Lexicographically least topological order by repeated least-source removal, or None."""
    # in-neighbours are the adjacent vertices that are not out-neighbours
    into = [a & ~o for a, o in zip(D.adj, D.out)]
    remaining = (1 << D.n) - 1
    order = []
    while remaining:
        src = next(
            (v for v in range(D.n) if (remaining >> v) & 1 and not into[v] & remaining), None
        )
        if src is None:
            return None
        order.append(src)
        remaining &= ~(1 << src)
    return tuple(order)


def invert(D: OrientedGraph, family: VertexFamily) -> OrientedGraph:
    """Invert each set of the family in D.

    An arc flips iff its endpoints lie together in an odd number of sets,
    i.e. iff their characteristic vectors have odd dot product: iff their
    entry of the family's gram matrix is 1.  The set order never matters.
    """
    if family.n != D.n:
        raise ValueError(f"family on {family.n} vertices applied to graph on {D.n}")
    return _flip(D, gram(MatGF2(D.n, family.m, family.char_vectors())).rows)


def _flip(D: OrientedGraph, rows: Sequence[int]) -> OrientedGraph:
    """D with arc ij reversed iff bit j of the symmetric rows[i] is 1 (absent pairs stay absent)."""
    return _make(D.n, [o ^ (r & a) for o, r, a in zip(D.out, rows, D.adj)], D.adj)


def reverse(D: OrientedGraph) -> OrientedGraph:
    """Reverse every arc; an involution."""
    return _make(D.n, [a ^ o for a, o in zip(D.adj, D.out)], D.adj)


def dijoin(D1: OrientedGraph, D2: OrientedGraph) -> OrientedGraph:
    """Disjoint union with every cross arc oriented from D1 to D2.

    D1 keeps vertices 0..n1-1; D2's vertices are shifted up by n1.
    """
    n1 = D1.n
    n = n1 + D2.n
    _check_vertex_count(n)
    low = (1 << n1) - 1
    high = ((1 << n) - 1) ^ low
    out = [r | high for r in D1.out] + [r << n1 for r in D2.out]
    adj = [r | high for r in D1.adj] + [(r << n1) | low for r in D2.adj]
    return _make(n, out, adj)


def njoin(graphs: Sequence[OrientedGraph]) -> OrientedGraph:
    """Left fold of dijoin; njoin([D]) is D itself."""
    if not graphs:
        raise ValueError("njoin needs at least one operand")
    acc = graphs[0]
    for g in graphs[1:]:
        acc = dijoin(acc, g)
    return acc


def induced(D: OrientedGraph, vertices: Iterable[int]) -> OrientedGraph:
    """Induced subgraph on the given vertices, reindexed by increasing index."""
    sub = sorted(set(vertices))
    if sub and not (0 <= sub[0] and sub[-1] < D.n):
        raise ValueError(f"vertex subset {sub} not within 0..{D.n - 1}")
    return _relabel(D, sub)


def _relabel(D: OrientedGraph, order: Sequence[int]) -> OrientedGraph:
    """The subgraph induced on the distinct vertices `order`, with order[k] renamed k.

    Each row keeps the bits of `order` and maps them by walking its set
    bits through bit[v], vertex v's new bit.  A tournament's induced
    subgraphs are tournaments, so only other graphs map their adj rows.
    """
    bit = [0] * D.n
    keep = 0
    for k, v in enumerate(order):
        bit[v] = 1 << k
        keep |= 1 << v

    def row(r: int) -> int:
        acc = 0
        r &= keep
        while r:
            low = r & -r
            acc |= bit[low.bit_length() - 1]
            r ^= low
        return acc

    out = [row(D.out[v]) for v in order]
    if D.is_tournament:
        return _make(len(order), out)
    return _make(len(order), out, [row(D.adj[v]) for v in order])


def transitive_tournament(order: Sequence[int]) -> Tournament:
    """Tournament whose arcs all point from earlier to later in `order`."""
    n = len(order)
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    out = [0] * n
    later = 0
    for v in reversed(order):
        out[v] = later
        later |= 1 << v
    return _make(n, out)
