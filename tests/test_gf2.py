import copy
import itertools
import pickle
import random

import pytest

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
from oracles import (
    all_symmetric_matrices,
    block_matrix,
    gram_by_lists,
    kernel_count_rank,
    mat_mul,
)


def test_rank_examples():
    assert rank(MatGF2.identity(3)) == 3
    assert rank(SymMatGF2.from_rows([[0, 1], [1, 0]])) == 2
    assert rank(SymMatGF2.from_rows([[1, 1], [1, 1]])) == 1


def test_rank_against_kernel_count_exhaustive_small():
    for nr in range(4):
        for nc in range(4):
            for bits in range(1 << (nr * nc)):
                rows = [
                    [(bits >> (r * nc + c)) & 1 for c in range(nc)] for r in range(nr)
                ]
                assert rank(MatGF2.from_rows(rows, nc)) == kernel_count_rank(rows)


def test_rank_against_kernel_count_random_5x5():
    rng = random.Random(5)
    for _ in range(300):
        nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
        rows = [[rng.randrange(2) for _ in range(nc)] for _ in range(nr)]
        assert rank(MatGF2.from_rows(rows, nc)) == kernel_count_rank(rows)


def test_gram_examples():
    X = MatGF2.from_rows([[1], [1], [0]])
    assert gram(X).to_lists() == [[1, 1, 0], [1, 1, 0], [0, 0, 0]]
    assert gram(MatGF2.identity(4)) == SymMatGF2.identity(4)
    X = MatGF2.from_rows([[1, 1, 0], [0, 1, 1]])
    assert gram(X).to_lists() == [[0, 1], [1, 0]]
    assert gram(X).to_lists() == gram_by_lists([[1, 1, 0], [0, 1, 1]])


def test_gram_rank_bound_random():
    rng = random.Random(13)
    for _ in range(200):
        n, m = rng.randrange(1, 7), rng.randrange(0, 7)
        X = MatGF2.from_rows([[rng.randrange(2) for _ in range(m)] for _ in range(n)], m)
        assert rank(gram(X)) <= rank(X)


def test_factor_identity():
    X = factor_symmetric(SymMatGF2.identity(4))
    assert X == MatGF2.identity(4)


def test_factor_rank_one():
    A = SymMatGF2.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    X = factor_symmetric(A)
    assert X.ncols == 1 and X.to_lists() == [[1], [1], [0]]


def test_factor_hyperbolic_needs_width_three():
    H = SymMatGF2.from_rows([[0, 1], [1, 0]])
    # oracle: no 2x2 factor exists at all
    for bits in range(16):
        rows = [[(bits >> k) & 1 for k in range(2)], [(bits >> (k + 2)) & 1 for k in range(2)]]
        assert gram(MatGF2.from_rows(rows, 2)) != H
    X = factor_symmetric(H)
    assert X.ncols == 3 and rank(X) == 2 and gram(X) == H


def test_factor_round_trip_exhaustive_n_le_4():
    for n in range(5):
        for rows in all_symmetric_matrices(n):
            A = SymMatGF2.from_rows(rows)
            k = rank(A)
            X = factor_symmetric(A)
            assert gram(X) == A
            assert rank(X) == k
            alternating = all(rows[i][i] == 0 for i in range(n))
            if alternating and k > 0:
                assert X.ncols == k + 1 and k % 2 == 0
            else:
                assert X.ncols == k


def test_factor_round_trip_random_n_le_16():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randrange(1, 17)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randrange(2)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randrange(2)
        A = SymMatGF2.from_rows(rows)
        X = factor_symmetric(A)
        assert gram(X) == A
        assert X.ncols in (rank(A), rank(A) + 1)


def test_full_rank_principal_examples():
    assert full_rank_principal(SymMatGF2.from_rows([[1, 1], [1, 1]])) == (0,)
    assert full_rank_principal(SymMatGF2.identity(3)) == (0, 1, 2)
    # zero diagonal, the rank-2 principal pattern from the three rank-2 shapes
    assert full_rank_principal(SymMatGF2.from_rows([[0, 1], [1, 0]])) == (0, 1)
    assert full_rank_principal(SymMatGF2.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]])) == (0,)


def test_full_rank_principal_property_exhaustive_n_le_5():
    def check(rows):
        A = SymMatGF2.from_rows(rows)
        n, k = A.n, rank(A)
        first = next(
            S for S in itertools.combinations(range(n), k) if rank(A.principal(S)) == k
        )
        S = full_rank_principal(A)
        assert len(S) == k and rank(A.principal(S)) == k
        assert S == first  # the lexicographically first one

    for n in range(6):
        for rows in all_symmetric_matrices(n):
            check(rows)


def _square(S: SymMatGF2) -> MatGF2:
    return MatGF2(S.n, S.n, S.rows)


def test_inverse_examples():
    assert inverse_full_rank(SymMatGF2.identity(3)) == SymMatGF2.identity(3)
    H = SymMatGF2.from_rows([[0, 1], [1, 0]])
    assert inverse_full_rank(H) == H
    B = SymMatGF2.from_rows([[1, 1], [1, 0]])
    Binv = inverse_full_rank(B)
    assert Binv.to_lists() == [[0, 1], [1, 1]]
    assert mat_mul(_square(B), _square(Binv)) == MatGF2.identity(2)


def test_inverse_random_and_singular():
    rng = random.Random(17)
    found = 0
    while found < 50:
        n = rng.randrange(1, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randrange(2)
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randrange(2)
        A = SymMatGF2.from_rows(rows)
        if rank(A) != n:
            with pytest.raises(ValueError, match="singular"):
                inverse_full_rank(A)
            continue
        found += 1
        inv = inverse_full_rank(A)
        assert mat_mul(_square(A), _square(inv)) == MatGF2.identity(n)
        assert SymMatGF2(n, inv.rows) == inv  # the validating constructor accepts it


def test_inverse_exhaustive_n_le_4():
    for n in range(5):
        for rows in all_symmetric_matrices(n):
            A = SymMatGF2.from_rows(rows)
            if rank(A) == n:
                assert mat_mul(_square(A), _square(inverse_full_rank(A))) == MatGF2.identity(n)
            else:
                with pytest.raises(ValueError, match="singular"):
                    inverse_full_rank(A)


def test_schur_update_examples():
    Ap = SymMatGF2.identity(2)
    B = SymMatGF2.from_rows([[1, 0], [0, 1]])
    zero_c = MatGF2.zeros(2, 2)
    assert schur_update(Ap, zero_c, B) == B

    C = MatGF2.from_rows([[1], [1]])
    Bp = schur_update(Ap, C, SymMatGF2.zeros(1))
    assert Bp.to_lists() == [[0]]
    assert rank(block_matrix(Ap, C, SymMatGF2.zeros(1))) == 2

    one = SymMatGF2.from_rows([[1]])
    assert schur_update(one, MatGF2.from_rows([[1]]), one).to_lists() == [[0]]


def test_schur_update_errors():
    with pytest.raises(ValueError):
        schur_update(SymMatGF2.zeros(2), MatGF2.zeros(2, 1), SymMatGF2.zeros(1))
    with pytest.raises(ValueError):
        schur_update(SymMatGF2.identity(2), MatGF2.zeros(3, 1), SymMatGF2.zeros(1))
    # C must have one column per row of B; a zero C would otherwise pass through
    with pytest.raises(ValueError, match="C has 3 columns but B is 1x1"):
        schur_update(SymMatGF2.identity(2), MatGF2.zeros(2, 3), SymMatGF2.zeros(1))


def test_schur_rank_identity_random():
    rng = random.Random(41)
    done = 0
    while done < 300:
        r, m = rng.randrange(1, 5), rng.randrange(1, 5)
        a_rows = [[0] * r for _ in range(r)]
        for i in range(r):
            a_rows[i][i] = rng.randrange(2)
            for j in range(i + 1, r):
                a_rows[i][j] = a_rows[j][i] = rng.randrange(2)
        Ap = SymMatGF2.from_rows(a_rows)
        if rank(Ap) != r:
            continue
        C = MatGF2.from_rows([[rng.randrange(2) for _ in range(m)] for _ in range(r)], m)
        b_rows = [[0] * m for _ in range(m)]
        for i in range(m):
            b_rows[i][i] = rng.randrange(2)
            for j in range(i + 1, m):
                b_rows[i][j] = b_rows[j][i] = rng.randrange(2)
        B = SymMatGF2.from_rows(b_rows)
        Bp = schur_update(Ap, C, B)
        assert rank(block_matrix(Ap, C, B)) == r + rank(Bp)
        update = mat_mul(mat_mul(C.transpose(), _square(inverse_full_rank(Ap))), C)
        assert Bp.rows == tuple(b ^ u for b, u in zip(B.rows, update.rows))
        assert SymMatGF2(m, Bp.rows) == Bp  # the validating constructor accepts it
        done += 1


def test_symmetry_validation():
    with pytest.raises(ValueError, match="not symmetric"):
        SymMatGF2.from_rows([[0, 1], [0, 0]])


def test_from_rows_refuses_ragged_rows():
    # a row of another length is refused, naming the row, rather than padded with zeros
    with pytest.raises(ValueError, match="^row 1 has 1 entries, expected 3$"):
        SymMatGF2.from_rows([[0, 1, 1], [1], [1]])
    with pytest.raises(ValueError, match="^row 1 has 1 entries, expected 2$"):
        MatGF2.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError, match="^row 0 has 3 entries, expected 2$"):
        MatGF2.from_rows([[1, 0, 0], [0, 1]], 2)


def test_symmetric_matrix_is_a_checked_square_matgf2():
    I3 = SymMatGF2.identity(3)
    assert isinstance(I3, MatGF2)
    assert I3 == MatGF2.identity(3) and hash(I3) == hash(MatGF2.identity(3))
    assert repr(I3) == "SymMatGF2([[1, 0, 0], [0, 1, 0], [0, 0, 1]])"
    H = SymMatGF2.from_rows([[0, 1, 1], [1, 1, 0], [1, 0, 0]])
    for twin in (pickle.loads(pickle.dumps(H)), copy.deepcopy(H)):
        assert type(twin) is SymMatGF2 and twin == H
        assert twin.n == twin.nrows == twin.ncols == 3
    # every matrix built without the symmetry check equals its validated twin
    Ap = SymMatGF2.from_rows([[1, 1], [1, 0]])
    C = MatGF2.from_rows([[1, 0, 1], [0, 1, 1]])
    trusted = [
        gram(MatGF2.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])),
        H.principal([0, 2]),
        SymMatGF2.block_diag(H, Ap),
        schur_update(Ap, C, H),
        inverse_full_rank(Ap),
    ]
    for M in trusted:
        assert type(M) is SymMatGF2 and M.nrows == M.ncols == M.n
        assert M == SymMatGF2(M.n, M.rows)
    with pytest.raises(ValueError, match="not symmetric at \\(0,1\\)"):
        SymMatGF2(2, [0b10, 0b00])
    with pytest.raises(ValueError, match="row wider than ncols"):
        SymMatGF2(2, [0b100, 0b00])
    with pytest.raises(ValueError, match="dimension mismatch"):
        SymMatGF2(2, [0b00])
    with pytest.raises(ValueError, match="row 1 has 1 entries, expected 2"):
        SymMatGF2.from_rows([[0, 1], [1]])
