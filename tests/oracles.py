"""Independent brute-force oracles the test suite checks the library against.

Everything here deliberately avoids the library's elimination and search
code paths: ranks come from kernel counting, acyclicity from a plain
recursive cycle hunt, inversion numbers from direct enumeration of
subset families, and canonical forms from trying every relabelling.
"""

from __future__ import annotations

import itertools

from invlab import MatGF2, OrientedGraph, SymMatGF2, VertexFamily, invert


def kernel_count_rank(rows: list[list[int]]) -> int:
    """rank = ncols - log2 |{x : Mx = 0}|, by enumerating all x."""
    if not rows:
        return 0
    ncols = len(rows[0])
    solutions = 0
    for x in range(1 << ncols):
        if all(
            sum(((x >> c) & 1) * row[c] for c in range(ncols)) % 2 == 0 for row in rows
        ):
            solutions += 1
    return ncols - solutions.bit_length() + 1


def dfs_acyclic(D: OrientedGraph) -> bool:
    """Generic cycle detection by depth-first search over the arc list."""
    adj = {v: [] for v in range(D.n)}
    for u, v in D.arcs():
        adj[u].append(v)
    state = {v: 0 for v in range(D.n)}  # 0 new, 1 on stack, 2 done

    def visit(v: int) -> bool:
        state[v] = 1
        for w in adj[v]:
            if state[w] == 1:
                return False
            if state[w] == 0 and not visit(w):
                return False
        state[v] = 2
        return True

    return all(state[v] != 0 or visit(v) for v in range(D.n))


def subsets(n: int):
    verts = list(range(n))
    for mask in range(1 << n):
        yield frozenset(v for v in verts if (mask >> v) & 1)


def naive_inv(D: OrientedGraph, max_m: int = 2):
    """Smallest family size up to max_m by enumerating all subset families.

    Returns the value, or None when every family of at most max_m sets fails.
    """
    all_sets = list(subsets(D.n))
    for m in range(max_m + 1):
        for combo in itertools.product(all_sets, repeat=m):
            family = VertexFamily(D.n, tuple(combo))
            if dfs_acyclic(invert(D, family)):
                return m
    return None


def mat_mul(A: MatGF2, B: MatGF2) -> MatGF2:
    """The product A B over GF(2), entry by entry from the row lists."""
    if A.ncols != B.nrows:
        raise ValueError(f"cannot multiply {A.nrows}x{A.ncols} by {B.nrows}x{B.ncols}")
    a, b = A.to_lists(), B.to_lists()
    rows = [
        [sum(a[i][k] & b[k][j] for k in range(A.ncols)) % 2 for j in range(B.ncols)]
        for i in range(A.nrows)
    ]
    return MatGF2.from_rows(rows, B.ncols)


def block_matrix(A: SymMatGF2, C: MatGF2, B: SymMatGF2) -> SymMatGF2:
    """Assemble [[A, C], [C^T, B]], the matrix the Schur update's rank identity reads."""
    r = A.n
    rows = [A.rows[i] | (C.rows[i] << r) for i in range(r)]
    Ct = C.transpose()
    rows += [Ct.rows[i] | (B.rows[i] << r) for i in range(B.n)]
    return SymMatGF2(r + B.n, rows)


def gram_by_lists(rows: list[list[int]]) -> list[list[int]]:
    """Pairwise dot products mod 2, straight from the definition."""
    n = len(rows)
    return [
        [sum(a * b for a, b in zip(rows[i], rows[j])) % 2 for j in range(n)]
        for i in range(n)
    ]


def all_oriented_graphs(n: int):
    """Every labeled oriented graph on n vertices (3 states per pair)."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        arcs = []
        for (i, j), s in zip(pairs, states):
            if s == 1:
                arcs.append((i, j))
            elif s == 2:
                arcs.append((j, i))
        yield OrientedGraph(n, arcs)


def all_symmetric_matrices(n: int):
    """Every symmetric 0/1 matrix on n vertices as row lists."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in itertools.product((0, 1), repeat=n):
        for off in itertools.product((0, 1), repeat=len(pairs)):
            rows = [[0] * n for _ in range(n)]
            for v in range(n):
                rows[v][v] = diag[v]
            for (i, j), b in zip(pairs, off):
                rows[i][j] = rows[j][i] = b
            yield rows


# ---------------------------------------------------------------------------
# arc-list oracles: a graph is n plus a set of (tail, head) pairs, taken from
# the arc list the graph was built from, never from the library's rows


def arcs_invert(arcs, sets):
    """Reverse an arc iff its endpoints lie together in an odd number of sets."""
    return {
        (v, u) if sum(u in s and v in s for s in sets) % 2 else (u, v) for u, v in arcs
    }


def arcs_apply_matrix(arcs, matrix):
    """Reverse an arc iff its matrix entry is 1."""
    return {(v, u) if matrix[u][v] else (u, v) for u, v in arcs}


def arcs_reverse(arcs):
    return {(v, u) for u, v in arcs}


def arcs_dijoin(n1, arcs1, n2, arcs2):
    """D1's arcs, D2's arcs shifted by n1, and every cross arc from D1 to D2."""
    cross = {(u, v) for u in range(n1) for v in range(n1, n1 + n2)}
    return set(arcs1) | {(u + n1, v + n1) for u, v in arcs2} | cross


def arcs_strong_components(n, arcs):
    """The strong components of a tournament, winners first, from reachability on the arcs."""
    reach = [{v} for v in range(n)]
    for u, v in arcs:
        reach[u].add(v)
    for k in range(n):
        for u in range(n):
            if k in reach[u]:
                reach[u] |= reach[k]
    comps = {frozenset(v for v in reach[u] if u in reach[v]) for u in range(n)}
    # a component reaches every later one, so winners reach the most
    return sorted((sorted(c) for c in comps), key=lambda c: -len(reach[c[0]]))


def arcs_induced(arcs, order):
    """Arcs with both ends in `order`, vertex order[k] renumbered k."""
    rank = {v: k for k, v in enumerate(order)}
    return {(rank[u], rank[v]) for u, v in arcs if u in rank and v in rank}


def brute_canonical(n, arcs):
    """Least "n:bits" text over all n! relabellings of a tournament's arc list.

    Bit k of the text is the k-th pair (i, j), i < j, in lexicographic order,
    '1' meaning i -> j after relabelling.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    best = None
    for sigma in itertools.permutations(range(n)):
        moved = {(sigma[u], sigma[v]) for u, v in arcs}
        bits = "".join("1" if p in moved else "0" for p in pairs)
        if best is None or bits < best:
            best = bits
    return f"{n}:{best}"


def place_position(order, vecs, out_row, x):
    """Where a tournament slot with vector x and out row out_row enters order.

    The per-vector rule the search once applied to each candidate: arcs to the
    placed slots in order (winners first) flip when the dot product with
    their vectors is odd, and must read as losses then wins.  Returns the
    insert position, or None when no position keeps the order transitive.
    """
    first_win = -1
    for pos, t in enumerate(order):
        beats = ((out_row >> t) & 1) ^ ((x & vecs[t]).bit_count() & 1)
        if beats:
            if first_win < 0:
                first_win = pos
        elif first_win >= 0:
            return None
    return first_win if first_win >= 0 else len(order)


def min_zero_diag_decycling_rank(n, arcs):
    """Least GF(2) rank of a zero-diagonal matrix that decycles a tournament.

    A zero-diagonal decycling matrix is fixed by the transitive order it
    flips the tournament onto: its (u, v) entry is 1 iff the arc between u
    and v disagrees with that order.  This tries all n! orders and ranks each
    matrix by plain Gauss-Jordan elimination on bit rows.
    """
    best = n
    for order in itertools.permutations(range(n)):
        pos = {v: i for i, v in enumerate(order)}
        rows = [0] * n
        for u, v in arcs:
            if pos[u] > pos[v]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, n) if (rows[i] >> c) & 1), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(n):
                if i != r and (rows[i] >> c) & 1:
                    rows[i] ^= rows[r]
            r += 1
        best = min(best, r)
    return best


def lex_least_assignment(n, arcs, slots, k, even=False):
    """Lexicographically least decycling width-k assignment of an oriented graph.

    Slot s holds vertex slots[s] and the s-th vector, and an arc flips iff
    the dot product of its endpoints' vectors is 1.  Plain depth-first search
    over all 2^k vectors per slot (with even, over those of even weight), in
    ascending order, pruned when the flipped arcs among the assigned vertices
    close a cycle, with no symmetry rule.  Returns the vectors by slot, or
    None.
    """
    table = [
        [sum(((x >> b) & 1) * ((y >> b) & 1) for b in range(k)) % 2 for y in range(1 << k)]
        for x in range(1 << k)
    ]
    candidates = [x for x in range(1 << k) if not (even and bin(x).count("1") % 2)]
    slot_of = {v: s for s, v in enumerate(slots)}
    arcs_by_slot = [[] for _ in range(n)]  # arcs to earlier slots, as slot pairs
    for u, v in arcs:
        su, sv = slot_of[u], slot_of[v]
        arcs_by_slot[max(su, sv)].append((su, sv))

    def acyclic(flipped, size):
        indegree = [0] * size
        for _, w in flipped:
            indegree[w] += 1
        stack = [v for v in range(size) if indegree[v] == 0]
        removed = 0
        while stack:
            v = stack.pop()
            removed += 1
            for u, w in flipped:
                if u == v:
                    indegree[w] -= 1
                    if indegree[w] == 0:
                        stack.append(w)
        return removed == size

    vecs = []
    flipped = []

    def dfs(s):
        if s == n:
            return True
        for x in candidates:
            vecs.append(x)
            new = [
                (b, a) if table[vecs[a]][vecs[b]] else (a, b) for a, b in arcs_by_slot[s]
            ]
            flipped.extend(new)
            if acyclic(flipped, s + 1) and dfs(s + 1):
                return True
            del flipped[len(flipped) - len(new):]
            vecs.pop()
        return False

    return tuple(vecs) if dfs(0) else None


def tournament_level_search(n, arcs, slots, k, even=False):
    """(witness, nodes) of the tournament level search, by the per-vector rule.

    Slot s holds vertex slots[s].  Plain depth-first search over the
    width-k vectors in ascending order (with even, those of even weight),
    each placed into the transitive order of the earlier slots by
    place_position.  The column rule skips a row with x_j = 0 and
    x_{j+1} = 1 while columns j and j+1 are equal on every earlier row
    (bit j of tie), and a row keeps bit j of tie only where x_j = x_{j+1}.
    One node is counted per accepted placement.  The witness is the vectors
    by slot, or None.
    """
    slot_of = {v: s for s, v in enumerate(slots)}
    out_rows = [0] * n
    for u, v in arcs:
        out_rows[slot_of[u]] |= 1 << slot_of[v]
    vecs = [0] * n
    order = []
    nodes = 0

    def dfs(s, tie):
        nonlocal nodes
        if s == n:
            return True
        for x in range(1 << k):
            if even and bin(x).count("1") % 2:
                continue
            if any((tie >> j) & 1 and not (x >> j) & 1 and (x >> (j + 1)) & 1
                   for j in range(k - 1)):
                continue
            pos = place_position(order, vecs, out_rows[s], x)
            if pos is None:
                continue
            nodes += 1
            vecs[s] = x
            order.insert(pos, s)
            if dfs(s + 1, tie & ~(x ^ (x >> 1))):
                return True
            del order[pos]
        return False

    found = dfs(0, (1 << max(k - 1, 0)) - 1)
    return (tuple(vecs) if found else None), nodes
