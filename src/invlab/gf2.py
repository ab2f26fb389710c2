"""Linear algebra over the two-element field.

Matrices are bit-packed: row r is a Python int whose bit c is the entry
(r, c), so row operations are single XORs.  There is one matrix type,
`MatGF2`: a symmetric matrix is a `SymMatGF2`, a square MatGF2 whose
constructor checks its symmetry.  Everything here is a pure function over
immutable values.

Row elimination has one home, the reduced basis of `_reduce`: `rank` counts
it, `full_rank_principal` keeps the rows it accepts, and `_solve` (behind
`inverse_full_rank` and `schur_update`) reduces [A | R] with it.
`factor_symmetric` runs its own congruence elimination, because the rank-1
and hyperbolic pieces it peels off are not a row basis.
"""

from __future__ import annotations

from typing import Iterable


class MatGF2:
    """Rectangular bit matrix over GF(2)."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows: Iterable[int]):
        rows = tuple(rows)
        if nrows < 0 or ncols < 0 or len(rows) != nrows:
            raise ValueError("dimension mismatch")
        mask = (1 << ncols) - 1
        if any(r & ~mask for r in rows):
            raise ValueError("row wider than ncols")
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], ncols: int | None = None) -> "MatGF2":
        rows = [list(r) for r in rows]
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        return cls(len(rows), ncols, _packed(rows, ncols))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "MatGF2":
        return cls(nrows, ncols, [0] * nrows)

    @classmethod
    def identity(cls, n: int) -> "MatGF2":
        return cls(n, n, [1 << i for i in range(n)])

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.ncols)] for r in self.rows]

    def transpose(self) -> "MatGF2":
        cols = [0] * self.ncols
        for i, r in enumerate(self.rows):
            while r:
                j = (r & -r).bit_length() - 1
                cols[j] |= 1 << i
                r &= r - 1
        return MatGF2(self.ncols, self.nrows, cols)

    def __eq__(self, other):
        return (
            isinstance(other, MatGF2)
            and (self.nrows, self.ncols, self.rows) == (other.nrows, other.ncols, other.rows)
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.rows))

    def __repr__(self):
        return f"{type(self).__name__}({self.to_lists()!r})"


class SymMatGF2(MatGF2):
    """Square MatGF2 that is symmetric; the diagonal is unconstrained."""

    __slots__ = ("n",)

    def __init__(self, n: int, rows: Iterable[int]):
        MatGF2.__init__(self, n, n, rows)
        rows = self.rows
        for i in range(n):
            for j in range(i + 1, n):
                if ((rows[i] >> j) & 1) != ((rows[j] >> i) & 1):
                    raise ValueError(f"matrix not symmetric at ({i},{j})")
        self.n = n

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "SymMatGF2":
        rows = [list(r) for r in rows]
        return cls(len(rows), _packed(rows, len(rows)))

    @classmethod
    def zeros(cls, n: int) -> "SymMatGF2":
        return cls(n, [0] * n)

    @classmethod
    def identity(cls, n: int) -> "SymMatGF2":
        return cls(n, [1 << i for i in range(n)])

    @classmethod
    def block_diag(cls, A: "SymMatGF2", B: "SymMatGF2") -> "SymMatGF2":
        return _trusted_sym(A.n + B.n, A.rows + tuple(r << A.n for r in B.rows))

    def diagonal(self) -> tuple[int, ...]:
        return tuple((self.rows[i] >> i) & 1 for i in range(self.n))

    def principal(self, indices: Iterable[int]) -> "SymMatGF2":
        """Principal submatrix on the given (sorted ascending) indices."""
        idx = sorted(indices)
        rows = []
        for i in idx:
            r = self.rows[i]
            row = 0
            for c, j in enumerate(idx):
                row |= ((r >> j) & 1) << c
            rows.append(row)
        return _trusted_sym(len(idx), rows)


def _packed(rows: list[list[int]], width: int) -> list[int]:
    """0/1 rows of `width` entries as ints with entry c at bit c; ValueError names a ragged row."""
    for i, r in enumerate(rows):
        if len(r) != width:
            raise ValueError(f"row {i} has {len(r)} entries, expected {width}")
    return [sum((int(x) & 1) << c for c, x in enumerate(r)) for r in rows]


def _trusted_sym(n: int, rows: Iterable[int]) -> SymMatGF2:
    """SymMatGF2 from rows that are symmetric by construction, skipping the O(n^2) check."""
    M = object.__new__(SymMatGF2)
    M.nrows = M.ncols = M.n = n
    M.rows = tuple(rows)
    return M


def rank(M: MatGF2) -> int:
    """Rank over GF(2): the number of rows the reduced basis of _reduce accepts."""
    return len(_reduce(M.rows)[0])


def _reduce(rows: Iterable[int], mask: int = -1) -> tuple[list[int], dict[int, int]]:
    """The indices of the rows independent inside mask of the rows before them, and their basis.

    The basis maps each row's pivot, its highest bit inside mask, to the row,
    and no other row has that bit: a row reduces by the row of each pivot it
    holds, in any order, and a remainder with a bit inside mask joins the
    basis once its pivot is cleared from the other rows.
    """
    kept: list[int] = []
    basis: dict[int, int] = {}
    for i, vec in enumerate(rows):
        for bit, row in basis.items():
            if vec & bit:
                vec ^= row
        low = vec & mask
        if low:
            pivot = 1 << (low.bit_length() - 1)
            for bit, row in basis.items():
                if row & pivot:
                    basis[bit] = row ^ vec
            basis[pivot] = vec
            kept.append(i)
    return kept, basis


def gram(X: MatGF2) -> SymMatGF2:
    """X X^T: pairwise dot products of the rows of X, mod 2.

    Entry (i, j) sums X[i, c] X[j, c] over the columns c, so row i is the
    XOR of the columns (read as row masks) that have a 1 in row i: one XOR
    per 1-entry of X.
    """
    rows = [0] * X.nrows
    for col in X.transpose().rows:
        m = col
        while m:
            low = m & -m
            rows[low.bit_length() - 1] ^= col
            m ^= low
    return _trusted_sym(X.nrows, rows)


def factor_symmetric(A: SymMatGF2) -> MatGF2:
    """Factor a symmetric A as X X^T with X of rank k = rank(A) and minimal width.

    Symmetric elimination peels a rank-1 piece v v^T at each diagonal-1 pivot
    and a hyperbolic piece u w^T + w u^T at each zero-diagonal pivot, then a
    local rewrite merges each hyperbolic piece with a single column via
    (u, w, c) -> (u+c, u+w+c, w+c), which preserves the sum of outer products.
    Width is k, except k+1 when A is nonzero with an all-zero diagonal (then
    every factor row has even weight, so width k is impossible and k is even).
    """
    n = A.n
    work = list(A.rows)  # stays symmetric, so column j is work[j]
    singles: list[int] = []
    hblocks: list[tuple[int, int]] = []
    while any(work):
        i = next((i for i in range(n) if (work[i] >> i) & 1), None)
        if i is not None:
            v = work[i]
            for r in range(n):
                if (v >> r) & 1:
                    work[r] ^= v
            singles.append(v)
            continue
        i, j = next(
            (i, j) for i in range(n) for j in range(i + 1, n) if (work[i] >> j) & 1
        )
        u, w = work[i], work[j]
        for r in range(n):
            work[r] ^= (w if (u >> r) & 1 else 0) ^ (u if (w >> r) & 1 else 0)
        hblocks.append((u, w))

    if hblocks and not singles:
        # all-zero diagonal: spend one extra column to open the first block
        u, w = hblocks.pop(0)
        singles = [u ^ w, u, w]
    while hblocks:
        c = singles.pop()
        u, w = hblocks.pop(0)
        singles.extend([u ^ c, u ^ w ^ c, w ^ c])

    # X has column c = singles[c]
    return MatGF2(len(singles), n, singles).transpose()


def full_rank_principal(A: SymMatGF2) -> tuple[int, ...]:
    """Indices of a principal submatrix of full rank k = rank(A), the largest there is.

    The indices are those of the first row basis of A, taken greedily in
    index order: if rows S span the row space of a symmetric A, then
    A = A[:, S] Q gives A[S, :] = A[S, S] Q, so A[S, S] has rank |S|.
    """
    return tuple(_reduce(A.rows)[0])


def _solve(A: SymMatGF2, rhs: Iterable[int]) -> list[int]:
    """Rows of A^{-1} R: inside A's n columns, _reduce takes [A | R] to [I | A^{-1} R]."""
    n = A.n
    kept, basis = _reduce([a | (r << n) for a, r in zip(A.rows, rhs)], (1 << n) - 1)
    if len(kept) < n:
        raise ValueError("matrix is singular")
    return [basis[1 << c] >> n for c in range(n)]


def inverse_full_rank(A: SymMatGF2) -> SymMatGF2:
    """Inverse of a full-rank symmetric matrix (symmetric again)."""
    return _trusted_sym(A.n, _solve(A, [1 << i for i in range(A.n)]))


def schur_update(A_prime: SymMatGF2, C: MatGF2, B: SymMatGF2) -> SymMatGF2:
    """Block elimination update B' = B + C^T A'^{-1} C.

    A' must be full rank r x r and C must be r x m with B m x m; then the
    full block matrix [[A', C], [C^T, B]] and the block diagonal
    [[A', 0], [0, B']] are congruent, so rank(B') = rank(full) - r.
    """
    if C.nrows != A_prime.n:
        raise ValueError(f"C has {C.nrows} rows but A' is {A_prime.n}x{A_prime.n}")
    if C.ncols != B.n:
        raise ValueError(f"C has {C.ncols} columns but B is {B.n}x{B.n}")
    rows = list(B.rows)
    # C^T X with X = A'^{-1} C: row i of X goes into row j wherever C[i][j] = 1
    for c, x in zip(C.rows, _solve(A_prime, C.rows)):
        while c:
            rows[(c & -c).bit_length() - 1] ^= x
            c &= c - 1
    return _trusted_sym(B.n, rows)
