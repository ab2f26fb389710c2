"""Tour of the GF(2) layer: rank, gram matrices, factorization, Schur update.

Run:  python demos/02_gf2_toolkit.py
"""

from invlab import (
    MatGF2,
    SymMatGF2,
    factor_symmetric,
    full_rank_principal,
    gram,
    inverse_full_rank,
    rank,
    schur_update,
)

# A vertex family is, per vertex, a 0/1 membership row; its gram matrix
# (pairwise dot products mod 2) tells which arcs the family flips.
X = MatGF2.from_rows([[1, 1, 0], [0, 1, 1]])
print("rows:", X.to_lists())
print("gram:", gram(X).to_lists())

# factor_symmetric inverts that step: A = X X^T with as few columns as
# possible.  Width equals rank(A) unless A is nonzero with an all-zero
# diagonal; then every factor row has even weight and one extra column is
# unavoidable (and the rank is even).
H = SymMatGF2.from_rows([[0, 1], [1, 0]])
F = factor_symmetric(H)
print("hyperbolic pair factors into width", F.ncols, "->", F.to_lists())
print("round trip ok:", gram(F) == H, "| rank of factor:", rank(F))

ones = SymMatGF2.from_rows([[1, 1], [1, 1]])
print("rank-1 block factors into width", factor_symmetric(ones).ncols)

# A maximal full-rank principal submatrix keeps the first row basis: the
# rows, taken in order, that are independent of the rows kept before them.
A = SymMatGF2.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]])
S = full_rank_principal(A)
print("rank", rank(A), "principal indices:", S, "->", A.principal(S).to_lists())

# Block elimination: B' = B + C^T A'^{-1} C decouples the blocks, so the
# ranks add up exactly.
Ap = SymMatGF2.identity(2)
C = MatGF2.from_rows([[1], [1]])
B = SymMatGF2.zeros(1)
Bp = schur_update(Ap, C, B)
full = SymMatGF2.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])  # [[A', C], [C^T, B]]
print("B' =", Bp.to_lists())
print("rank check:", rank(full), "==", rank(Ap), "+", rank(Bp))
print("inverse of [[1,1],[1,0]]:", inverse_full_rank(SymMatGF2.from_rows([[1, 1], [1, 0]])).to_lists())
