"""Exact solvers for inv(D) and tmr(T) by branch-and-prune over vector assignments.

A family of m vertex subsets is the same thing as an assignment of a vector
in GF(2)^m to every vertex (bit i marks membership in set i), and an arc
flips iff its endpoints' vectors have odd dot product.  The solvers iterate
m = 0, 1, 2, ... and search assignments depth-first; a partial assignment is
pruned as soon as the flipped graph induced on the assigned vertices is
cyclic, which is safe because induced subgraphs of acyclic digraphs are
acyclic.

tmr search additionally runs, at even levels k where width k failed, a
width-(k+1) pass restricted to assignments of rank at most k; by the
symmetric factorization this makes level k exhaustive over rank-k decycling
matrices.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .decycling import (
    Certificate,
    certificate_error,
    family_to_matrix,
    matrix_certificate,
)
from .digraph import (
    OrientedGraph,
    Tournament,
    VertexFamily,
    _relabel_row,
    decode,
    encode,
    invert,
    is_acyclic,
    topological_order,
)
from .gf2 import rank


@dataclass(frozen=True)
class SearchBudget:
    """Limits for the exact search.

    Exceeding node_limit aborts with an explicit Inconclusive carrying the
    bounds proved so far, never a wrong value.  parallel_width > 1 fans the
    top-level branches (the first two vertices' vectors) out to worker
    processes; with a node_limit set the search stays sequential so node
    accounting is exact.
    """

    max_m: Optional[int] = None
    node_limit: Optional[int] = None
    parallel_width: int = 1

    def __post_init__(self):
        if self.max_m is not None and self.max_m < 0:
            raise ValueError("max_m must be nonnegative")
        if self.node_limit is not None and self.node_limit < 0:
            raise ValueError("node_limit must be nonnegative")
        if self.parallel_width < 1:
            raise ValueError("parallel_width must be at least 1")


class Inconclusive(Exception):
    """Search aborted by budget; carries the bounds that were established."""

    def __init__(self, lower: int, upper: Optional[int], reason: str):
        self.lower = lower
        self.upper = upper
        self.reason = reason
        bound = f">= {lower}" if upper is None else f"in [{lower}, {upper}]"
        super().__init__(f"inconclusive ({reason}); value {bound}")


class InvResult(NamedTuple):
    value: int
    certificate: Certificate


class TmrResult(NamedTuple):
    value: int
    certificate: Certificate
    min_rank_nonzero_diag: bool
    """True iff some minimum-rank decycling matrix has a nonzero diagonal entry."""


class _NodeLimit(Exception):
    pass


class _Nodes:
    __slots__ = ("used", "limit")

    def __init__(self, limit: Optional[int] = None):
        self.used = 0
        self.limit = limit

    def tick(self):
        self.used += 1
        if self.limit is not None and self.used > self.limit:
            raise _NodeLimit()


# ---------------------------------------------------------------------------
# assignment search engine


def _assignment_order(D: OrientedGraph) -> list[int]:
    """Vertices by descending directed-triangle involvement, then index.

    Cycle-heavy vertices first tightens early pruning; the tie-break keeps
    the search deterministic.
    """
    out = D.out
    n = D.n
    into = [a & ~o for a, o in zip(D.adj, out)]
    score = []
    for v in range(n):
        c = 0
        m = out[v]
        while m:
            w = (m & -m).bit_length() - 1
            c += (out[w] & into[v]).bit_count()
            m &= m - 1
        score.append(c)
    return sorted(range(n), key=lambda v: (-score[v], v))


def _first_candidates(m: int) -> list[int]:
    # column permutations preserve the gram matrix, so the first vertex's
    # vector may be forced to the sorted form 1^a 0^b
    return [(1 << a) - 1 for a in range(m + 1)]


def _reduce_vec(x: int, basis: list[int]) -> int:
    for e in basis:
        if x & (1 << (e.bit_length() - 1)):
            x ^= e
    return x


class _RankCap:
    """Tracks the rank of the assigned vectors against a cap."""

    __slots__ = ("cap", "basis")

    def __init__(self, cap: Optional[int]):
        self.cap = cap
        self.basis: list[int] = []

    def push(self, x: int) -> Optional[int]:
        """Admit x; returns a token for pop(), or None when the cap blocks it."""
        if self.cap is None:
            return 0
        red = _reduce_vec(x, self.basis)
        if red == 0:
            return 0
        if len(self.basis) >= self.cap:
            return None
        self.basis.append(red)
        self.basis.sort(key=int.bit_length, reverse=True)
        return red

    def pop(self, token: int):
        if token:
            self.basis.remove(token)


def _slot_tables(D: OrientedGraph, slots: list[int]):
    """Out-neighbour and adjacency rows reindexed by assignment slot."""
    out_slots = [_relabel_row(D.out[v], slots) for v in slots]
    pres = [_relabel_row(D.adj[v], slots) for v in slots]
    return out_slots, pres


def _level_search(
    D: OrientedGraph,
    m: int,
    *,
    counter: _Nodes,
    rank_cap: Optional[int] = None,
    prefix: Sequence[int] = (),
    prune: bool = True,
) -> Optional[tuple[int, ...]]:
    """Lexicographically first decycling width-m assignment, or None.

    Vectors are indexed by assignment slot (see _assignment_order); `prefix`
    pins the first slots' vectors, which is how top-level branches are
    handed to workers.
    """
    n = D.n
    if n == 0:
        return ()
    slots = _assignment_order(D)
    out_slots, pres = _slot_tables(D, slots)
    if D.is_tournament and prune:
        return _search_tournament(
            n, out_slots, m, counter=counter, rank_cap=rank_cap, prefix=prefix
        )
    return _search_general(
        n, out_slots, pres, m,
        counter=counter, rank_cap=rank_cap, prefix=prefix, prune=prune,
    )


def _search_tournament(n, out_slots, m, *, counter, rank_cap, prefix):
    vecs = [0] * n
    order: list[int] = []  # assigned slots, transitive order, winners first
    cap = _RankCap(rank_cap)

    def try_place(i: int, x: int) -> Optional[int]:
        # flipped arcs against the current order must read as losses then
        # wins; returns the insertion position, None when no position fits
        oi = out_slots[i]
        first_win = -1
        for pos, t in enumerate(order):
            beats = ((oi >> t) & 1) ^ ((x & vecs[t]).bit_count() & 1)
            if beats:
                if first_win < 0:
                    first_win = pos
            elif first_win >= 0:
                return None
        return first_win if first_win >= 0 else len(order)

    def dfs(i: int) -> bool:
        if i == n:
            return True
        if i < len(prefix):
            cands: Sequence[int] = (prefix[i],)
        elif i == 0:
            cands = _first_candidates(m)
        else:
            cands = range(1 << m)
        for x in cands:
            token = cap.push(x)
            if token is None:
                continue
            pos = try_place(i, x)
            if pos is None:
                cap.pop(token)
                continue
            counter.tick()
            vecs[i] = x
            order.insert(pos, i)
            if dfs(i + 1):
                return True
            del order[pos]
            cap.pop(token)
        return False

    return tuple(vecs) if dfs(0) else None


def _search_general(n, out_slots, pres, m, *, counter, rank_cap, prefix, prune):
    vecs = [0] * n
    fout = [0] * n  # flipped out-masks among assigned slots
    assigned = 0
    cap = _RankCap(rank_cap)

    def flipped_arcs(i: int, x: int) -> tuple[int, int]:
        io = ii = 0
        rest = assigned & pres[i]
        while rest:
            t = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if ((out_slots[i] >> t) & 1) ^ ((x & vecs[t]).bit_count() & 1):
                io |= 1 << t
            else:
                ii |= 1 << t
        return io, ii

    def acyclic_with(i: int, io: int, ii: int) -> bool:
        # source elimination over assigned + i, with i's arcs supplied
        remaining = assigned | (1 << i)
        while remaining:
            removed = False
            scan = remaining
            while scan:
                v = (scan & -scan).bit_length() - 1
                scan &= scan - 1
                incoming = ii if v == i else (1 << i) if (io >> v) & 1 else 0
                src = remaining & ~(1 << v) & ~(1 << i)
                while src and not incoming & remaining:
                    s = (src & -src).bit_length() - 1
                    src &= src - 1
                    if (fout[s] >> v) & 1:
                        incoming |= 1 << s
                if not incoming & remaining:
                    remaining &= ~(1 << v)
                    removed = True
            if not removed:
                return False
        return True

    def acyclic_full() -> bool:
        remaining = (1 << n) - 1
        while remaining:
            removed = False
            scan = remaining
            while scan:
                v = (scan & -scan).bit_length() - 1
                scan &= scan - 1
                if not any((fout[s] >> v) & 1 for s in _bits(remaining & ~(1 << v))):
                    remaining &= ~(1 << v)
                    removed = True
            if not removed:
                return False
        return True

    def dfs(i: int) -> bool:
        nonlocal assigned
        if i == n:
            return prune or acyclic_full()
        if i < len(prefix):
            cands: Sequence[int] = (prefix[i],)
        elif i == 0:
            cands = _first_candidates(m)
        else:
            cands = range(1 << m)
        for x in cands:
            token = cap.push(x)
            if token is None:
                continue
            io, ii = flipped_arcs(i, x)
            if prune and not acyclic_with(i, io, ii):
                cap.pop(token)
                continue
            counter.tick()
            vecs[i] = x
            fout[i] = io
            rest = ii
            while rest:
                t = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                fout[t] |= 1 << i
            assigned |= 1 << i
            if dfs(i + 1):
                return True
            assigned &= ~(1 << i)
            rest = ii
            while rest:
                t = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                fout[t] &= ~(1 << i)
            fout[i] = 0
            cap.pop(token)
        return False

    return tuple(vecs) if dfs(0) else None


def _bits(mask: int):
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


# ---------------------------------------------------------------------------
# top-level branch distribution


def _branch_prefixes(m: int, n: int) -> list[tuple[int, ...]]:
    firsts = _first_candidates(m)
    if n < 2 or m == 0:
        return [(x,) for x in firsts] if n else [()]
    return [(x0, x1) for x0 in firsts for x1 in range(1 << m)]


def _branch_worker(args) -> Optional[tuple[int, ...]]:
    enc, m, prefix, rank_cap = args
    return _level_search(
        decode(enc), m, counter=_Nodes(None), rank_cap=rank_cap, prefix=prefix
    )


def _run_level(D, m, budget: SearchBudget, counter: _Nodes, rank_cap=None):
    """One level of the search, optionally fanned out over worker processes.

    Branches are merged in lexicographic prefix order, so the result is
    independent of scheduling and identical to the sequential search.
    """
    if budget.parallel_width <= 1 or budget.node_limit is not None or D.n < 2:
        return _level_search(D, m, counter=counter, rank_cap=rank_cap)
    enc = encode(D)
    tasks = [(enc, m, p, rank_cap) for p in _branch_prefixes(m, D.n)]
    with ProcessPoolExecutor(max_workers=budget.parallel_width) as pool:
        for found in pool.map(_branch_worker, tasks, chunksize=4):
            if found is not None:
                return found
    return None


# ---------------------------------------------------------------------------
# solvers


def _family_from_assignment(D: OrientedGraph, m: int, vecs: Sequence[int]) -> VertexFamily:
    slots = _assignment_order(D)
    sets = [
        frozenset(slots[s] for s in range(D.n) if (vecs[s] >> i) & 1) for i in range(m)
    ]
    return VertexFamily(D.n, tuple(sets))


def _max_useful_m(D: OrientedGraph) -> int:
    # flipping the 2-set {u, v} flips exactly the arc uv, so inv(D) never
    # exceeds the number of arcs
    return sum(r.bit_count() for r in D.out)


def solve_inv(D: OrientedGraph, budget: Optional[SearchBudget] = None) -> InvResult:
    """Exact inversion number with a witnessing family certificate."""
    budget = budget or SearchBudget()
    counter = _Nodes(budget.node_limit)
    hard_cap = _max_useful_m(D)
    m = 0
    while True:
        if budget.max_m is not None and m > budget.max_m:
            raise Inconclusive(m, None, f"family size cap {budget.max_m} reached")
        try:
            found = _run_level(D, m, budget, counter)
        except _NodeLimit:
            raise Inconclusive(
                m, None, f"node limit {budget.node_limit} reached at level {m}"
            ) from None
        if found is not None:
            family = _family_from_assignment(D, m, found)
            after = invert(D, family)
            cert = Certificate("family", family, m, topological_order(after))
            return InvResult(m, cert)
        m += 1
        if m > hard_cap:
            raise AssertionError("search exceeded the arc-count bound on inv")


def solve_tmr(T: Tournament, budget: Optional[SearchBudget] = None) -> TmrResult:
    """Exact tournament minimum rank with a minimum-rank matrix certificate.

    Level k tries width-k assignments, and when k is even and width k fails,
    width-(k+1) assignments of rank at most k; by the symmetric factorization
    that pair of passes is exhaustive over rank-k decycling matrices.  A width-k
    success also settles that some minimum-rank decycling matrix has a
    nonzero diagonal entry (for k > 0), since a gram matrix of full column
    rank cannot have an all-zero diagonal; conversely a width-k failure means
    every minimum-rank decycling matrix is zero-diagonal.
    """
    if not isinstance(T, OrientedGraph) or not T.is_tournament:
        raise TypeError("tmr is defined for tournaments only")
    budget = budget or SearchBudget()
    counter = _Nodes(budget.node_limit)
    hard_cap = _max_useful_m(T)
    k = 0
    while True:
        if budget.max_m is not None and k > budget.max_m:
            raise Inconclusive(k, None, f"rank cap {budget.max_m} reached")
        try:
            found = _run_level(T, k, budget, counter)
            wide = None
            if found is None and k > 0 and k % 2 == 0:
                wide = _run_level(T, k + 1, budget, counter, rank_cap=k)
        except _NodeLimit:
            raise Inconclusive(
                k, None, f"node limit {budget.node_limit} reached at level {k}"
            ) from None
        if found is not None or wide is not None:
            width = k if found is not None else k + 1
            family = _family_from_assignment(T, width, found if found is not None else wide)
            M = family_to_matrix(family)
            if rank(M) != k:
                raise AssertionError("level invariant broken: found gram of wrong rank")
            cert = matrix_certificate(T, M)
            return TmrResult(k, cert, found is not None and k > 0)
        k += 1
        if k > hard_cap:
            raise AssertionError("search exceeded the arc-count bound on tmr")


@dataclass(frozen=True)
class TrichotomyReport:
    """All facts needed to audit inv/tmr agreement on one tournament."""

    encoding: str
    inv: int
    tmr: int
    transitive: bool
    min_rank_nonzero_diag: bool
    inv_certificate: Certificate
    tmr_certificate: Certificate

    @property
    def gap(self) -> int:
        return self.inv - self.tmr

    @property
    def trichotomy_ok(self) -> bool:
        return self.gap in (0, 1)

    @property
    def tmr_even_ok(self) -> Optional[bool]:
        return self.tmr % 2 == 0 if self.gap == 1 else None

    @property
    def zero_diag_ok(self) -> Optional[bool]:
        """When inv = tmr + 1: every minimum-rank decycling matrix is zero-diagonal."""
        if self.gap != 1:
            return None
        return not self.min_rank_nonzero_diag

    @property
    def diag_biconditional_ok(self) -> Optional[bool]:
        """Non-transitive case: gap = 1 iff no minimum-rank matrix has a 1 diagonal."""
        if self.transitive:
            return None
        return (self.gap == 1) == (not self.min_rank_nonzero_diag)

    @property
    def holds(self) -> bool:
        if not self.trichotomy_ok:
            return False
        if self.gap == 1:
            if not self.tmr_even_ok:
                return False
            if not self.transitive and not self.zero_diag_ok:
                return False
        return True


def check_trichotomy(T: Tournament, budget: Optional[SearchBudget] = None) -> TrichotomyReport:
    """Compute inv and tmr and report every fact of the inv/tmr trichotomy."""
    inv_res = solve_inv(T, budget)
    tmr_res = solve_tmr(T, budget)
    return TrichotomyReport(
        encoding=encode(T),
        inv=inv_res.value,
        tmr=tmr_res.value,
        transitive=is_acyclic(T),
        min_rank_nonzero_diag=tmr_res.min_rank_nonzero_diag,
        inv_certificate=inv_res.certificate,
        tmr_certificate=tmr_res.certificate,
    )


def verify_certificate(D: OrientedGraph, cert: Certificate) -> bool:
    """Replay a certificate through the decycling predicates and rank checks."""
    return certificate_error(D, cert) is None
