"""Exact solvers for inv(D) and tmr(T) by branch-and-prune over vector assignments.

A family of m vertex subsets is the same thing as an assignment of a vector
in GF(2)^m to every vertex (bit i marks membership in set i), and an arc
flips iff its endpoints' vectors have odd dot product.  A level search finds
the lexicographically first decycling width-m assignment depth-first; a
partial assignment is pruned as soon as the flipped graph induced on the
assigned vertices is cyclic, which is safe because induced subgraphs of
acyclic digraphs are acyclic.

Candidates are handled as sets: a subset of GF(2)^m is a 2^m-bit int with
bit x standing for the vector x.  On tournaments the placed slots form one
transitive order, and an acyclic tournament is transitive, so a new slot
keeps the order acyclic exactly when the slots it loses to are a prefix:
its results along the order read loss ... loss win ... win, and it enters
after its run of losses.  Each tournament node makes one forward pass over
the order that keeps, from the cached sets {x : x.v odd}, L_p = the x that
lose to the first p placed slots and M_p = the x whose first p results are
losses then at least one win.  With lose = the x losing to the next slot,
M_{p+1} = (L_p | M_p) - lose and L_{p+1} = L_p & lose, so after the last
slot L | M is exactly the set of x with that pattern: O(slots placed)
big-int operations for all x at once.  The node then walks the valid x in
ascending order; one in the final L enters last, any other before the first
slot it beats.  On other oriented graphs the search keeps below[t], the
placed slots with a flipped path to t (t included), and beats[t], the x
that orient {i, t} as i -> t for each placed neighbour t of the new slot i;
x is invalid iff it lies in beats[t] and not in beats[s] for neighbours s,
t with t in below[s].  This is exact: the placed slots are acyclic, so a
new cycle must pass through i, as i -> t ->* s -> i.

Column order (lex-leader symmetry breaking): permuting the m columns of an
assignment keeps every dot product, hence the flipped graph, the gram matrix
and its rank.  While columns j and j+1 are equal on every row so far, a row
with x_j = 0 and x_{j+1} = 1 is skipped (_lex_allowed); on the first row this
leaves exactly the words 1^a 0^b.  Witnesses do not change: the search
returns the lexicographically least assignment, and were it to break the
rule at some row, swapping columns j and j+1 would give a smaller decycling
assignment of the same rank.  So the rule cuts only subtrees that hold no
solution lexicographically before the witness, the same witness comes back,
and node counts (one per accepted placement) can only fall.

The slots are formed once per solve: _levels orders the vertices by
_assignment_order and relabels D into that order (digraph._relabel), so
vertex s of the one graph every level searches is slot s.  The tournament
kernel's table of out bits between slots is built once per solve as well:
_flip_table holds -1 where a width-m table would hold the full set
2^(2^m) - 1, which serves every width under &, and its one-entry cache is
keyed by the slot rows, so every level and pass of a solve reads one table.

One level loop (_levels) serves every solver.  Level k tries width k under
the dot product x.y.  With the rank pass on, an even level k > 0 where that
fails runs a second pass: the same width-(k+1) search with every candidate
set restricted to the even-weight vectors.  It covers the zero-diagonal
decycling matrices of rank <= k, because for even k a zero-diagonal
symmetric M has rank <= k iff M = Y Y^T with Y of width k+1 and every row
of even weight.  If M has rank r <= k, then M = Z H Z^T with H the sum of
k/2 blocks [[0, 1], [1, 0]] (A. A. Albert, Trans. AMS 1938), and Y = Z W
works for any W with W W^T = H, whose rows have even weight since H has a
zero diagonal.  Conversely x.x is the weight of x mod 2, so Y Y^T has a zero
diagonal, and its rows lie in the k-dimensional even-weight space.  Every
column permutation keeps weights as well as dot products, so the column
rule above holds in the second pass unchanged.  Only a gap instance
(inv = tmr + 1) reaches a successful second pass, so only there does a
witness come from it; elsewhere it is the first width-k dot-product
success.  solve_inv runs the loop without the rank pass; check_trichotomy
runs it with the rank pass and reads inv, tmr and both certificates off one
run, and solve_tmr is its tmr half.  The search runs in the calling
process; scans parallelise across instances instead.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .decycling import (
    Certificate,
    certificate_error,
    family_certificate,
    family_to_matrix,
    matrix_certificate,
)
from .digraph import (
    OrientedGraph,
    Tournament,
    VertexFamily,
    _CheckedRecord,
    _refuse_below,
    _relabel,
)


class _SearchBudgetFields(NamedTuple):
    node_limit: Optional[int] = None


class SearchBudget(_CheckedRecord, _SearchBudgetFields):
    """Limits for the exact search.

    Exceeding node_limit aborts with an explicit Inconclusive carrying the
    lower bound proved so far, never a wrong value.
    """

    __slots__ = ()

    def __new__(cls, node_limit: Optional[int] = None):
        _refuse_below(0, node_limit=node_limit)
        return tuple.__new__(cls, (node_limit,))


class Inconclusive(Exception):
    """Search aborted by budget; carries the lower bound that was established."""

    def __init__(self, lower: int, reason: str):
        self.lower = lower
        self.reason = reason
        super().__init__(f"inconclusive ({reason}); value >= {lower}")

    def __reduce__(self):
        # rebuild through __init__, and keep what was set since (such as notes)
        return type(self), (self.lower, self.reason), self.__dict__


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
    """A solve's node count; a level search raises _NodeLimit when it reaches
    stop (limit + 1, or -1, which no count reaches, with no limit)."""

    __slots__ = ("used", "stop")

    def __init__(self, limit: Optional[int] = None):
        self.used = 0
        self.stop = -1 if limit is None else limit + 1


# ---------------------------------------------------------------------------
# assignment search engine


def _assignment_order(D: OrientedGraph) -> list[int]:
    """Vertices by descending directed-triangle involvement, then index.

    Cycle-heavy vertices first tightens early pruning; the tie-break keeps
    the search deterministic.
    """
    out = D.out
    score = []
    for a, o in zip(D.adj, out):
        into = a & ~o
        c = 0
        while o:
            low = o & -o
            c += (out[low.bit_length() - 1] & into).bit_count()
            o ^= low
        score.append(c)
    # a stable sort keeps ties in index order, reverse=True included
    return sorted(range(D.n), key=score.__getitem__, reverse=True)


@lru_cache(maxsize=None)
def _parity_sets(m: int) -> tuple[int, ...]:
    """P[v] = {x in GF(2)^m : x.v odd}, each set a 2^m-bit int (bit x = member x)."""
    full = (1 << (1 << m)) - 1
    # col[b] = {x : bit b of x set}: runs of 2^b ones after 2^b zeros, repeated
    col = [
        full // ((1 << (2 << b)) - 1) * (((1 << (1 << b)) - 1) << (1 << b))
        for b in range(m)
    ]
    P = [0] * (1 << m)
    for v in range(1, 1 << m):
        low = v & -v
        P[v] = P[v ^ low] ^ col[low.bit_length() - 1]
    return tuple(P)


@lru_cache(maxsize=None)
def _lex_allowed(m: int, tie: int) -> int:
    """The x in GF(2)^m with no tied column pair (j, j+1) read as x_j = 0, x_{j+1} = 1.

    Bit j of tie marks columns j and j+1 equal on every row assigned so far;
    the result is a 2^m-bit set like _parity_sets.
    """
    col = [_parity_sets(m)[1 << b] for b in range(m)]
    allowed = (1 << (1 << m)) - 1
    while tie:
        j = (tie & -tie).bit_length() - 1
        tie &= tie - 1
        allowed &= ~(col[j + 1] & ~col[j])
    return allowed


def _level_search(
    D: OrientedGraph,
    m: int,
    *,
    counter: _Nodes,
    even: bool = False,
) -> Optional[tuple[int, ...]]:
    """Lexicographically first decycling width-m assignment, or None.

    D comes in slot order: _levels relabels the solved graph into
    _assignment_order once per solve, so vertex s here is slot s.  With even
    (tournaments) every vector has even weight, so the gram matrix has a
    zero diagonal and rank at most m-1.
    """
    if D.is_tournament:
        return _search_tournament(D.n, D.out, m, counter=counter, even=even)
    return _search_general(D.n, D.out, D.adj, m, counter=counter)


# _BYTE_FLIPS[b][t] = 0 if bit t of the byte b is set, else -1
_BYTE_FLIPS = tuple(tuple(-(~b >> t & 1) for t in range(8)) for b in range(256))


@lru_cache(maxsize=1)
def _flip_table(out_slots: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """flip[i][t] = 0 if slot i's out bit toward t is set, else -1.

    odd[t] ^ flip[i][t] is then {x : slot i loses to t}, as a 2^m-bit set
    read under & with the subsets of full the kernel keeps, whatever m is:
    -1 works as every width's full set.  So one table serves every level
    and pass of a solve, and the one-entry cache keyed by the slot rows
    builds it once per solve.  Rows are spliced from _BYTE_FLIPS a byte at
    a time; up to 8 slots a row is one byte.
    """
    n = len(out_slots)
    if n <= 8:
        return tuple([_BYTE_FLIPS[o][:n] for o in out_slots])
    chunks = range(0, n, 8)
    return tuple([sum([_BYTE_FLIPS[o >> c & 255] for c in chunks], ())[:n] for o in out_slots])


def _search_tournament(n, out_slots, m, *, counter, even):
    full = (1 << (1 << m)) - 1
    par = _parity_sets(m)
    all_tied = (1 << max(m - 1, 0)) - 1  # bit j: columns j, j+1 still equal
    # x.x is the weight of x mod 2, so the even-weight x are full ^ P[all ones]
    allowed = full ^ par[(1 << m) - 1] if even else full
    flip = _flip_table(out_slots)
    vecs = [0] * n
    odd = [0] * n  # odd[t] = par[vecs[t]]
    order: list[int] = []  # assigned slots, transitive order, winners first
    masks: dict[int, int] = {}  # tie -> allowed & _lex_allowed(m, tie)
    used, stop = counter.used, counter.stop

    def dfs(i: int, tie: int) -> bool:
        nonlocal used
        if i == n:
            return True
        # the pass of the module docstring, V = L | M: a step drops from V
        # the x of V - L that lose to t
        flip_row = flip[i]
        L = V = full
        for t in order:
            lose = odd[t] ^ flip_row[t]
            V ^= (V ^ L) & lose
            if not V:
                return False
            L &= lose
        mask = masks.get(tie)
        if mask is None:
            mask = masks[tie] = allowed & _lex_allowed(m, tie)
        valid = V & mask
        while valid:
            low = valid & -valid
            valid ^= low
            used += 1
            if used == stop:
                raise _NodeLimit()
            # x enters last if it is in L, else before the first slot it beats
            if L & low:
                pos = len(order)
            else:
                pos = 0
                while (odd[order[pos]] ^ flip_row[order[pos]]) & low:
                    pos += 1
            x = low.bit_length() - 1
            vecs[i] = x
            odd[i] = par[x]
            order.insert(pos, i)
            if dfs(i + 1, tie & ~(x ^ (x >> 1))):
                return True
            del order[pos]
        return False

    try:
        return tuple(vecs) if dfs(0, all_tied) else None
    finally:
        counter.used = used


def _search_general(n, out_slots, pres, m, *, counter):
    full = (1 << (1 << m)) - 1
    par = _parity_sets(m)
    vecs = [0] * n
    below = [0] * n  # below[t]: assigned slots with a flipped path to t, t included
    used, stop = counter.used, counter.stop

    def dfs(i: int, tie: int) -> bool:
        nonlocal used
        if i == n:
            return True
        # beats[t]: the x that orient {i, t} as i -> t after the flip
        beats = {
            t: par[vecs[t]] ^ (full if (out_slots[i] >> t) & 1 else 0)
            for t in range(i) if (pres[i] >> t) & 1
        }
        # a new cycle runs i -> t ->* s -> i with t in below[s]
        bad = 0
        for s, bs in beats.items():
            for t, bt in beats.items():
                if (below[s] >> t) & 1:
                    bad |= bt & ~bs
        valid = _lex_allowed(m, tie) & ~bad
        saved = below[:i]
        while valid:
            low = valid & -valid
            valid ^= low
            used += 1
            if used == stop:
                raise _NodeLimit()
            x = low.bit_length() - 1
            vecs[i] = x
            wins = 0
            mine = 1 << i
            for t, bt in beats.items():
                if bt & low:
                    wins |= 1 << t
                else:
                    mine |= below[t]
            below[i] = mine
            for t in range(i):
                if below[t] & wins:
                    below[t] |= mine
            if dfs(i + 1, tie & ~(x ^ (x >> 1))):
                return True
            below[:i] = saved
        return False

    all_tied = (1 << max(m - 1, 0)) - 1  # bit j: columns j, j+1 still equal
    try:
        return tuple(vecs) if dfs(0, all_tied) else None
    finally:
        counter.used = used


# ---------------------------------------------------------------------------
# solvers


def _family(slots: Sequence[int], m: int, vecs: Sequence[int]) -> VertexFamily:
    """The width-m family whose set i holds slots[s] for every slot s with bit i of vecs[s]."""
    sets = [frozenset(v for v, x in zip(slots, vecs) if (x >> i) & 1) for i in range(m)]
    return VertexFamily(len(slots), tuple(sets))


def _max_useful_m(D: OrientedGraph) -> int:
    # flipping the 2-set {u, v} flips exactly the arc uv, so inv(D) never
    # exceeds the number of arcs
    return sum(r.bit_count() for r in D.out)


def _levels(
    D: OrientedGraph,
    budget: SearchBudget,
    rank_pass: bool,
    upper: Optional[tuple[int, VertexFamily]] = None,
) -> tuple[int, VertexFamily]:
    """The first level k with a decycling assignment: (k, its family on D).

    The slots are formed here, once per solve: D is relabelled into
    _assignment_order and every level searches that one graph.  Every level
    tries width k under the dot product; with rank_pass, even levels k > 0
    where that fails also try width k+1 with even-weight vectors only, whose
    gram matrices are the zero-diagonal ones of rank <= k (see the module
    docstring), and a success there has k+1 sets.

    upper = (u, family) is a value the caller already holds a witness for:
    on reaching level u the loop returns upper without searching it.  The
    family is not checked here; the caller must replay it before use.
    """
    counter = _Nodes(budget.node_limit)
    hard_cap = _max_useful_m(D)
    slots = _assignment_order(D)
    S = _relabel(D, slots)
    k = 0
    while True:
        if upper is not None and k == upper[0]:
            return upper
        try:
            found = _level_search(S, k, counter=counter)
            if found is not None:
                return k, _family(slots, k, found)
            if rank_pass and k > 0 and k % 2 == 0:
                found = _level_search(S, k + 1, counter=counter, even=True)
                if found is not None:
                    return k, _family(slots, k + 1, found)
        except _NodeLimit:
            raise Inconclusive(k, f"node limit {budget.node_limit} reached at level {k}") from None
        k += 1
        if k > hard_cap:
            raise AssertionError("search exceeded the arc-count bound")


def solve_inv(D: OrientedGraph, budget: Optional[SearchBudget] = None) -> InvResult:
    """Exact inversion number with a witnessing family certificate."""
    _, family = _levels(D, budget or SearchBudget(), rank_pass=False)
    return InvResult(family.m, family_certificate(D, family))


def solve_tmr(T: Tournament, budget: Optional[SearchBudget] = None) -> TmrResult:
    """Exact tournament minimum rank with a minimum-rank matrix certificate.

    The tmr half of check_trichotomy: the rank pass makes each level
    exhaustive over rank-k decycling matrices (see the module docstring), so
    the first level that succeeds is tmr.
    """
    rep = check_trichotomy(T, budget)
    return TmrResult(rep.tmr, rep.tmr_certificate, rep.min_rank_nonzero_diag)


class TrichotomyReport(NamedTuple):
    """All facts needed to audit inv/tmr agreement on one tournament."""

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
    def holds(self) -> bool:
        """The trichotomy: inv - tmr is 0 or 1, tmr is even when it is 1, and
        for non-transitive T it is 1 exactly when no minimum-rank decycling
        matrix has a nonzero diagonal entry."""
        return (
            self.gap in (0, 1)
            and (self.gap == 0 or self.tmr % 2 == 0)
            and (self.transitive or (self.gap == 1) == (not self.min_rank_nonzero_diag))
        )


def check_trichotomy(T: Tournament, budget: Optional[SearchBudget] = None) -> TrichotomyReport:
    """Compute inv and tmr and report every fact of the inv/tmr trichotomy."""
    if not isinstance(T, OrientedGraph) or not T.is_tournament:
        raise TypeError("tmr is defined for tournaments only")
    k, family = _levels(T, budget or SearchBudget(), rank_pass=True)
    # Level 0 flips nothing, so it succeeds exactly when T is transitive.
    # One run of the rank-pass loop answers both questions.  It tries width j
    # under the dot product at every level j <= k, the same passes solve_inv
    # makes, so every width below the returned one failed: inv = k when width
    # k succeeded, and inv = k+1 when only the even-weight pass did, whose
    # assignment has k+1 columns.  Either way the returned assignment
    # is a minimum decycling family, and its gram matrix is a minimum-rank
    # decycling matrix.  The gram matrix flips exactly the arcs the family
    # inverts, so one flipped graph, and its order, serves both certificates.
    # A width-k success settles that some minimum-rank decycling matrix has a
    # nonzero diagonal entry (for k > 0), since a gram matrix of full column
    # rank cannot have an all-zero diagonal; a width-k failure means every
    # minimum-rank decycling matrix is zero-diagonal.
    tmr_cert = matrix_certificate(T, family_to_matrix(family))
    if tmr_cert.value != k:
        raise AssertionError("level invariant broken: found gram of wrong rank")
    return TrichotomyReport(
        inv=family.m,
        tmr=k,
        transitive=k == 0,
        min_rank_nonzero_diag=family.m == k and k > 0,
        inv_certificate=Certificate("family", family, family.m, tmr_cert.order),
        tmr_certificate=tmr_cert,
    )


def verify_certificate(D: OrientedGraph, cert: Certificate) -> bool:
    """Replay a certificate through the decycling predicates and rank checks."""
    return certificate_error(D, cert) is None
