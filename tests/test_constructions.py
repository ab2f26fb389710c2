import pytest

from invlab import (
    Certificate,
    SymMatGF2,
    VertexFamily,
    compose_dijoin_family,
    decode,
    dijoin,
    encode,
    extend_to_tournament,
    family_certificate,
    is_decycling_family,
    is_decycling_matrix,
    matrix_certificate,
    matrix_to_family,
    rank,
    solve_inv,
    solve_tmr,
)

C3 = decode("3:101")
T3 = decode("3:111")
ONE = decode("1:")


def test_compose_two_triangles():
    f1 = VertexFamily.from_sets(3, [[0, 1]])
    cert2 = family_certificate(C3, VertexFamily.from_sets(3, [[0, 1]]))
    fam = compose_dijoin_family(C3, f1, C3, cert2)
    J = dijoin(C3, C3)
    assert fam.m == 2
    assert is_decycling_family(J, fam)
    assert solve_inv(J).value == 2


def test_compose_transitive_second_operand():
    f1 = VertexFamily.from_sets(3, [[0, 1]])
    cert2 = family_certificate(T3, VertexFamily.from_sets(3, []))
    fam = compose_dijoin_family(C3, f1, T3, cert2)
    assert fam.m == 1
    assert fam.sets[0] == frozenset({0, 1})
    assert is_decycling_family(dijoin(C3, T3), fam)


def test_compose_transitive_first_operand_family_case():
    f1 = VertexFamily.from_sets(3, [])
    cert2 = family_certificate(C3, VertexFamily.from_sets(3, [[1, 2]]))
    fam = compose_dijoin_family(T3, f1, C3, cert2)
    assert fam.to_lists() == [[4, 5]]
    assert is_decycling_family(dijoin(T3, C3), fam)


def test_compose_matrix_case_zero_diagonal():
    # an even-rank zero-diagonal decycling matrix for C3 (not minimum rank:
    # no tournament this small has inv = tmr + 1, so the case is synthetic)
    B = SymMatGF2.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    assert is_decycling_matrix(C3, B) and rank(B) == 2
    cert2 = matrix_certificate(C3, B)
    f1 = VertexFamily.from_sets(3, [[0, 1]])
    fam = compose_dijoin_family(C3, f1, C3, cert2)
    assert fam.m == 1 + rank(B)
    assert is_decycling_family(dijoin(C3, C3), fam)
    # every second-operand set carries X1 along
    for s in fam.sets[: rank(B) + 1]:
        assert {0, 1} <= set(s)


def test_compose_merges_even_families_of_odd_size_only():
    # the matrix case's family, given as a family, merges into X_1 the same
    # way; an even-weight family of even size would flip X_1's own arc if
    # merged, so it is appended
    B = SymMatGF2.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    f1 = VertexFamily.from_sets(3, [[0, 1]])
    merged = compose_dijoin_family(C3, f1, C3, matrix_certificate(C3, B))
    as_family = family_certificate(C3, matrix_to_family(B))
    assert compose_dijoin_family(C3, f1, C3, as_family) == merged
    even = family_certificate(C3, VertexFamily.from_sets(3, [[0], [0, 1], [1], []]))
    fam = compose_dijoin_family(C3, f1, C3, even)
    assert fam.m == 5 and is_decycling_family(dijoin(C3, C3), fam)


def test_compose_matrix_case_requires_nonempty_first_family():
    B = SymMatGF2.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    cert2 = matrix_certificate(C3, B)
    with pytest.raises(ValueError, match="nonempty"):
        compose_dijoin_family(T3, VertexFamily.from_sets(3, []), C3, cert2)


def test_compose_rejects_bad_inputs():
    f1 = VertexFamily.from_sets(3, [])
    cert2 = family_certificate(C3, VertexFamily.from_sets(3, [[0, 1]]))
    with pytest.raises(ValueError, match="does not decycle"):
        compose_dijoin_family(C3, f1, C3, cert2)
    bad = Certificate("family", VertexFamily.from_sets(3, []), 0, (0, 1, 2))
    with pytest.raises(ValueError, match="certificate"):
        compose_dijoin_family(C3, VertexFamily.from_sets(3, [[0, 1]]), C3, bad)


def test_compose_exhaustive_pairs_n_le_3():
    from invlab import enumerate_tournaments

    classes = [t for n in range(1, 4) for t in enumerate_tournaments(n)]
    for d1 in classes:
        for d2 in classes:
            inv1, cert1 = solve_inv(d1)
            tmr2 = solve_tmr(d2).value
            fam = compose_dijoin_family(d1, cert1.payload, d2, solve_inv(d2).certificate)
            J = dijoin(d1, d2)
            assert fam.m == inv1 + tmr2
            assert is_decycling_family(J, fam)
            assert solve_inv(J).value <= fam.m


def test_extend_tournament_is_identity():
    fam = VertexFamily.from_sets(3, [[0, 1]])
    assert extend_to_tournament(C3, fam) == C3


def test_extend_oriented_path():
    d = decode("3;0>1,1>2")
    out = extend_to_tournament(d, VertexFamily.from_sets(3, []))
    assert encode(out) == "3:111"


def test_extend_four_cycle():
    d = decode("4;0>1,1>2,2>3,3>0")
    fam = VertexFamily.from_sets(4, [[0, 1]])
    out = extend_to_tournament(d, fam)
    assert all(out.arc(u, v) for u, v in d.arcs())
    assert is_decycling_family(out, fam)
    assert solve_inv(out).value == 1 == solve_inv(d).value


def test_extend_rejects_non_decycling_family():
    with pytest.raises(ValueError):
        extend_to_tournament(C3, VertexFamily.from_sets(3, []))


def test_extend_preserves_inv_on_optimal_families():
    from oracles import all_oriented_graphs

    for D in all_oriented_graphs(3):
        value, cert = solve_inv(D)
        out = extend_to_tournament(D, cert.payload)
        assert all(out.arc(u, v) for u, v in D.arcs())
        assert solve_inv(out).value == value
