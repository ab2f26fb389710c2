import json

import pytest

from invlab import (
    Certificate,
    SymMatGF2,
    Tournament,
    VertexFamily,
    decode,
    family_certificate,
    family_to_matrix,
    is_decycling_family,
    is_decycling_matrix,
    matrix_certificate,
    matrix_to_family,
    rank,
)
from invlab.decycling import apply_matrix, certificate_error
from oracles import all_symmetric_matrices, subsets

C3 = decode("3:101")


def test_is_decycling_family_examples():
    assert is_decycling_family(C3, VertexFamily.from_sets(3, [[0, 1]]))
    assert not is_decycling_family(C3, VertexFamily.from_sets(3, []))
    assert is_decycling_family(decode("4:111111"), VertexFamily.from_sets(4, []))
    with pytest.raises(ValueError):
        is_decycling_family(C3, VertexFamily.from_sets(2, []))


def test_is_decycling_matrix_examples():
    M = SymMatGF2.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert is_decycling_matrix(C3, M)
    assert rank(M) == 1  # witnesses tmr(C3) = 1
    assert not is_decycling_matrix(C3, SymMatGF2.zeros(3))
    assert is_decycling_matrix(decode("3:111"), SymMatGF2.zeros(3))


def test_is_decycling_matrix_contract_errors():
    with pytest.raises(TypeError):
        is_decycling_matrix(decode("3;0>1"), SymMatGF2.zeros(3))
    with pytest.raises(ValueError):
        is_decycling_matrix(C3, SymMatGF2.zeros(2))


def test_diagonal_is_inert_for_the_flip():
    zero_diag = SymMatGF2.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    one_diag = SymMatGF2.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert apply_matrix(C3, zero_diag) == apply_matrix(C3, one_diag)
    assert rank(zero_diag) == 2 and rank(one_diag) == 3


def test_family_to_matrix_examples():
    fam = VertexFamily.from_sets(3, [[0, 1]])
    assert family_to_matrix(fam).to_lists() == [[1, 1, 0], [1, 1, 0], [0, 0, 0]]
    assert family_to_matrix(VertexFamily.from_sets(3, [])) == SymMatGF2.zeros(3)
    assert family_to_matrix(VertexFamily.from_sets(3, [[0], [0]])) == SymMatGF2.zeros(3)


def test_matrix_to_family_examples():
    fam = matrix_to_family(SymMatGF2.identity(2))
    assert fam.to_lists() == [[0], [1]]
    assert matrix_to_family(SymMatGF2.zeros(4)).m == 0
    fam = matrix_to_family(SymMatGF2.from_rows([[0, 1], [1, 0]]))
    assert fam.m == 3
    assert family_to_matrix(fam).to_lists() == [[0, 1], [1, 0]]


def test_matrix_family_round_trip_exhaustive_n_le_4():
    for n in range(5):
        for rows in all_symmetric_matrices(n):
            M = SymMatGF2.from_rows(rows)
            fam = matrix_to_family(M)
            assert family_to_matrix(fam) == M
            assert fam.m <= rank(M) + 1
            if fam.m == rank(M) + 1:
                assert rank(M) % 2 == 0


def test_family_and_matrix_predicates_agree_on_tournaments():
    # exhaustive: all labeled tournaments n <= 4, all families of m <= 2 sets
    for n in range(1, 5):
        sets = list(subsets(n))
        families = [VertexFamily(n, ())]
        families += [VertexFamily(n, (a,)) for a in sets]
        families += [VertexFamily(n, (a, b)) for a in sets for b in sets]
        for bits in range(1 << (n * (n - 1) // 2)):
            T = Tournament(n, bits)
            for fam in families:
                assert is_decycling_family(T, fam) == is_decycling_matrix(
                    T, family_to_matrix(fam)
                )


def test_families_with_equal_gram_invert_identically():
    # matrix_to_family reconstructs a family with the same gram matrix, so
    # it must flip exactly the same arcs on every tournament
    import random

    from invlab import Tournament, invert

    rng = random.Random(19)
    for _ in range(100):
        n = rng.randrange(1, 6)
        T = Tournament(n, rng.randrange(1 << (n * (n - 1) // 2)))
        fam = VertexFamily.from_sets(
            n, [[v for v in range(n) if rng.random() < 0.5] for _ in range(rng.randrange(4))]
        )
        twin = matrix_to_family(family_to_matrix(fam))
        assert invert(T, fam) == invert(T, twin)


def test_invert_and_apply_matrix_flip_alike():
    # a family and its gram matrix flip the same arcs, so check_trichotomy's
    # family and matrix certificates share one order
    import random

    from invlab import invert

    rng = random.Random(29)
    for _ in range(300):
        n = rng.randrange(0, 11)
        T = Tournament(n, rng.randrange(1 << (n * (n - 1) // 2)))
        fam = VertexFamily.from_sets(
            n, [[v for v in range(n) if rng.random() < 0.5] for _ in range(rng.randrange(6))]
        )
        assert invert(T, fam) == apply_matrix(T, family_to_matrix(fam))


def test_family_certificate_replay():
    fam = VertexFamily.from_sets(3, [[0, 1]])
    cert = family_certificate(C3, fam)
    assert cert.value == 1 and cert.order == (1, 2, 0)
    assert certificate_error(C3, cert) is None
    wrong = Certificate("family", fam, 1, (0, 1, 2))
    assert "order" in certificate_error(C3, wrong)
    with pytest.raises(ValueError):
        family_certificate(C3, VertexFamily.from_sets(3, []))


def test_matrix_certificate_replay():
    M = SymMatGF2.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    cert = matrix_certificate(C3, M)
    assert cert.value == 1
    assert certificate_error(C3, cert) is None
    bad_value = Certificate("matrix", M, 2, cert.order)
    assert "rank" in certificate_error(C3, bad_value)


P4 = decode("4;0>1,1>2,2>0")  # C3 and an isolated vertex: not a tournament
FAM3 = VertexFamily.from_sets(3, [[0, 1]])
MAT3 = SymMatGF2.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
MAT4 = SymMatGF2.from_rows([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])


@pytest.mark.parametrize("D, cert, valid", [
    (C3, Certificate("family", FAM3, 1, (1, 2, 0)), True),
    (C3, Certificate("matrix", MAT3, 1, (1, 2, 0)), True),
    (P4, Certificate("family", VertexFamily.from_sets(4, [[0, 1]]), 1, (1, 2, 0, 3)), True),
    (C3, Certificate("family", MAT3, 1, (1, 2, 0)), False),
    (C3, Certificate("matrix", FAM3, 1, (1, 2, 0)), False),
    (C3, Certificate("sets", FAM3, 1, (1, 2, 0)), False),
    (C3, Certificate("family", VertexFamily.from_sets(4, [[0, 1]]), 1, (1, 2, 0)), False),
    (C3, Certificate("matrix", MAT4, 1, (1, 2, 0)), False),
    (P4, Certificate("matrix", MAT4, 1, (1, 2, 0, 3)), False),
    (C3, Certificate("family", VertexFamily.from_sets(3, []), 0, (0, 1, 2)), False),
    (C3, Certificate("matrix", SymMatGF2.from_rows([[0] * 3] * 3), 0, (0, 1, 2)), False),
    (C3, Certificate("family", FAM3, 2, (1, 2, 0)), False),
    (C3, Certificate("matrix", MAT3, 2, (1, 2, 0)), False),
    (C3, Certificate("family", FAM3, 1, (0, 1, 2)), False),
    (C3, Certificate("matrix", MAT3, 1, (0, 1, 2)), False),
], ids=[
    "family", "matrix", "family-on-oriented", "family-carrying-matrix", "matrix-carrying-family",
    "unknown-kind", "family-wrong-size", "matrix-wrong-size", "matrix-on-oriented",
    "family-not-decycling", "matrix-not-decycling", "family-wrong-value", "matrix-wrong-value",
    "family-wrong-order", "matrix-wrong-order",
])
def test_certificate_error_verdicts(D, cert, valid):
    # every refusal is a message, never an exception
    err = certificate_error(D, cert)
    assert (err is None) == valid, err
    assert err is None or isinstance(err, str)


def test_certificate_json_round_trip():
    fam_cert = family_certificate(C3, VertexFamily.from_sets(3, [[0, 1]]))
    blob = json.dumps(fam_cert.to_json_dict())
    assert Certificate.from_json_dict(json.loads(blob)) == fam_cert

    mat_cert = matrix_certificate(C3, SymMatGF2.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]]))
    blob = json.dumps(mat_cert.to_json_dict())
    assert Certificate.from_json_dict(json.loads(blob)) == mat_cert
