import itertools
import random

import pytest

from invlab import (
    OrientedGraph,
    ParseError,
    Tournament,
    VertexFamily,
    decode,
    dijoin,
    encode,
    induced,
    invert,
    is_acyclic,
    is_decycling_family,
    njoin,
    reverse,
    topological_order,
    transitive_tournament,
)
from invlab import digraph
from oracles import all_oriented_graphs, dfs_acyclic


def all_tournaments(n):
    for bits in range(1 << (n * (n - 1) // 2)):
        yield Tournament(n, bits)


def test_decode_c3():
    c3 = decode("3:101")
    assert c3.arcs() == [(0, 1), (2, 0), (1, 2)]
    assert c3.is_tournament


def test_decode_transitive():
    t3 = decode("3:111")
    assert t3.arcs() == [(0, 1), (0, 2), (1, 2)]


def test_decode_oriented_path():
    d = decode("3;0>1,1>2")
    assert d.arcs() == [(0, 1), (1, 2)]
    assert not d.is_tournament
    assert not d.arc(0, 2) and not d.arc(2, 0)


def test_codec_round_trip_tournaments():
    for n in range(5):
        for t in all_tournaments(n):
            assert decode(encode(t)) == t


def test_codec_round_trip_oriented():
    for n in range(4):
        for d in all_oriented_graphs(n):
            assert decode(encode(d)) == d


def test_oriented_parse_normalizes_complete_graphs():
    assert decode("3;0>1,0>2,1>2") == decode("3:111")
    assert encode(decode("3;0>1,0>2,1>2")) == "3:111"


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("3:10", "expected 3 orientation bits"),
        ("3:1011", "expected 3 orientation bits"),
        ("3:10z", "'z'"),
        ("3;0>1,0>1", "duplicate"),
        ("3;0>1,1>0", "conflicts"),
        ("3;0>5", "out of range"),
        ("3;0-1", "'0-1'"),
        ("x:101", "'x'"),
        ("99:", "outside"),
        ("3;1>1", "self-loop"),
    ],
)
def test_parse_errors_name_the_token(text, fragment):
    with pytest.raises(ParseError) as err:
        decode(text)
    assert fragment in str(err.value)


def test_is_acyclic_examples():
    assert is_acyclic(decode("3:111"))
    assert not is_acyclic(decode("3:101"))
    assert is_acyclic(decode("3;0>1,1>2"))


def test_is_acyclic_matches_generic_oracle_up_to_n6():
    for n in range(7):
        for t in all_tournaments(n):
            assert is_acyclic(t) == dfs_acyclic(t)


def test_invert_c3_single_set():
    c3 = decode("3:101")
    out = invert(c3, VertexFamily.from_sets(3, [[0, 1]]))
    assert encode(out) == "3:001"
    assert topological_order(out) == (1, 2, 0)


def test_invert_identity_cases():
    c3 = decode("3:101")
    assert invert(c3, VertexFamily.from_sets(3, [[]])) == c3
    assert invert(c3, VertexFamily.from_sets(3, [[0, 2], [0, 2]])) == c3


def test_invert_involution_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 7)
        d = Tournament(n, rng.randrange(1 << (n * (n - 1) // 2)))
        fam = VertexFamily.from_sets(
            n, [[v for v in range(n) if rng.random() < 0.5] for _ in range(rng.randrange(4))]
        )
        assert invert(invert(d, fam), fam) == d


def test_invert_depends_only_on_gram_off_diagonal():
    # duplicating a set or permuting sets never changes the inversion
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 6)
        d = Tournament(n, rng.randrange(1 << (n * (n - 1) // 2)))
        base = [[v for v in range(n) if rng.random() < 0.5] for _ in range(3)]
        fam = VertexFamily.from_sets(n, base)
        extra = [v for v in range(n) if rng.random() < 0.5]
        padded = VertexFamily.from_sets(n, base[::-1] + [extra, extra])
        assert invert(d, fam) == invert(d, padded)


def test_invert_size_mismatch():
    with pytest.raises(ValueError):
        invert(decode("3:101"), VertexFamily.from_sets(2, [[0]]))


def test_dijoin_singletons():
    assert encode(dijoin(decode("1:"), decode("1:"))) == "2:1"


def test_dijoin_c3_c3():
    j = dijoin(decode("3:101"), decode("3:101"))
    # both triangles plus all nine cross arcs pointing forward
    assert encode(j) == "6:101111111111101"
    assert induced(j, range(3)) == decode("3:101")
    assert induced(j, range(3, 6)) == decode("3:101")
    for u in range(3):
        for v in range(3, 6):
            assert j.arc(u, v)


def test_njoin_transitive_blocks():
    t2 = decode("2:1")
    out = njoin([t2, t2, t2])
    assert out.n == 6 and is_acyclic(out)
    assert out == transitive_tournament(range(6))


def test_njoin_single_and_empty():
    c3 = decode("3:101")
    assert njoin([c3]) == c3
    with pytest.raises(ValueError):
        njoin([])


def test_njoin_associativity_exhaustive_small():
    graphs = [decode("1:"), decode("2:1"), decode("3:101"), decode("3;0>1")]
    for a, b, c in itertools.product(graphs, repeat=3):
        assert dijoin(dijoin(a, b), c) == dijoin(a, dijoin(b, c)) == njoin([a, b, c])


def _relabel(D, sigma):
    return decode(f"{D.n};" + ",".join(f"{sigma[u]}>{sigma[v]}" for u, v in D.arcs()))


def test_reverse_examples():
    assert encode(reverse(decode("3:111"))) == "3:000"
    assert encode(reverse(decode("3:101"))) == "3:010"
    # smallest case of the dijoin swap identity: reversing "2:1" swaps blocks
    one = decode("1:")
    assert encode(reverse(dijoin(one, one))) == "2:0"
    assert reverse(dijoin(one, one)) == _relabel(dijoin(reverse(one), reverse(one)), [1, 0])


def test_reverse_involution_and_decycling_families_preserved():
    for t in all_tournaments(4):
        assert reverse(reverse(t)) == t
        for m1 in range(1 << 4):
            fam = VertexFamily.from_sets(4, [[v for v in range(4) if (m1 >> v) & 1]])
            assert is_decycling_family(t, fam) == is_decycling_family(reverse(t), fam)


def test_reverse_of_dijoin_swaps_operands():
    a, b = decode("3:101"), decode("2:1")
    # move b's block in front, as the swapped dijoin lays it out
    sigma = [2, 3, 4, 0, 1]
    assert _relabel(reverse(dijoin(a, b)), sigma) == dijoin(reverse(b), reverse(a))


def test_induced_examples():
    c3 = decode("3:101")
    assert encode(induced(c3, [0, 1])) == "2:1"
    assert induced(c3, range(3)) == c3
    assert induced(dijoin(c3, c3), [3, 4, 5]) == c3


def test_topological_order_is_lex_least():
    d = OrientedGraph(4, [(2, 0), (3, 1)])
    assert topological_order(d) == (2, 0, 3, 1)
    with pytest.raises(ValueError):
        topological_order(decode("3:101"))


def test_tournament_topological_order_against_source_elimination():
    # the tournament branch places vertices by score and checks the rows;
    # it must agree with source elimination, which never looks at scores,
    # and return None exactly when the cycle hunt finds a cycle
    rng = random.Random(5)
    graphs = [T for n in range(6) for T in all_tournaments(n)]
    for n in range(6, 13):
        graphs += [Tournament(n, rng.getrandbits(n * (n - 1) // 2)) for _ in range(20)]
        perm = list(range(n))
        rng.shuffle(perm)
        acyclic = transitive_tournament(perm)
        graphs.append(acyclic)
        # flipping a non-adjacent pair of the order (positions >= 2 apart) closes a cycle
        i, j = sorted(rng.sample(range(n), 2))
        if j - i < 2:
            i, j = 0, n - 1
        a, b = perm[i], perm[j]
        arcs = [(x, y) if (x, y) != (a, b) else (b, a) for x, y in acyclic.arcs()]
        graphs.append(OrientedGraph(n, arcs))
    cyclic = 0
    for T in graphs:
        assert T.is_tournament
        order = digraph._topological_order_or_none(T)
        assert order == digraph._source_elimination_order(T), encode(T)
        assert (order is None) == (not dfs_acyclic(T)), encode(T)
        cyclic += order is None
    assert 0 < cyclic < len(graphs)


def test_vertex_limit_boundary():
    n = 64
    big = transitive_tournament(range(n))
    assert big.n == n and is_acyclic(big)
    assert decode(encode(big)) == big
    with pytest.raises(ValueError, match="outside"):
        dijoin(big, decode("1:"))
    with pytest.raises(ParseError):
        decode("65:")


def test_vertex_family_validation():
    with pytest.raises(ValueError):
        VertexFamily.from_sets(2, [[0, 3]])
    fam = VertexFamily.from_sets(3, [[0, 1], [], [2]])
    assert fam.m == 3
    assert fam.char_vectors() == [0b001, 0b001, 0b100]
