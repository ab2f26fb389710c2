"""Property tests for the per-vertex row representation of graphs and the search kernels.

Graphs are generated as arc lists; every operation is compared with the
arc-list oracles in oracles.py, which never read the library's rows.  The
tournament search's witnesses and node counts are compared with a search
by the per-vector placement rule, canonical forms are checked for
invariance under relabelling, and solver certificates are checked to
survive a JSON round trip and to reject tampering.  The pair scans' join
keys are checked against a reachability oracle, and their bounded level
loop against the unbounded solvers.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from invlab import (
    Certificate,
    OrientedGraph,
    SymMatGF2,
    Tournament,
    VertexFamily,
    canonical_form,
    check_trichotomy,
    decode,
    dijoin,
    encode,
    induced,
    invert,
    njoin,
    reverse,
    solve_inv,
    solve_tmr,
    verify_certificate,
)
from invlab.decycling import apply_matrix
from invlab.digraph import _relabel
from invlab.explorer import _canonical_int, _component_key, _components
from invlab.search import (
    SearchBudget,
    _assignment_order,
    _level_search,
    _levels,
    _lex_allowed,
    _Nodes,
)
from oracles import (
    arcs_apply_matrix,
    arcs_dijoin,
    arcs_induced,
    arcs_invert,
    arcs_reverse,
    arcs_strong_components,
    lex_least_assignment,
    naive_inv,
    tournament_level_search,
)

MAX_N = 12


@st.composite
def arc_lists(draw, max_n=MAX_N, tournament=False):
    """(n, arcs): each pair absent or oriented either way, listed in a random order."""
    n = draw(st.integers(0, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    states = draw(st.lists(st.integers(1 if tournament else 0, 2), min_size=len(pairs),
                           max_size=len(pairs)))
    arcs = [(i, j) if s == 1 else (j, i) for (i, j), s in zip(pairs, states) if s]
    return n, draw(st.permutations(arcs))


def check_rows(D):
    """No self bit, out within adj, adj symmetric, one direction per adjacent pair."""
    assert len(D.out) == len(D.adj) == D.n
    for u in range(D.n):
        assert not (D.adj[u] >> u) & 1
        assert D.out[u] & ~D.adj[u] == 0
        assert D.adj[u] >> D.n == 0
        for v in range(D.n):
            assert (D.adj[u] >> v) & 1 == (D.adj[v] >> u) & 1
            if (D.adj[u] >> v) & 1:
                assert ((D.out[u] >> v) & 1) + ((D.out[v] >> u) & 1) == 1
    assert D.is_tournament == all(a.bit_count() == D.n - 1 for a in D.adj)


@settings(deadline=None)
@given(arc_lists())
def test_codec_round_trip_and_rows_oriented(graph):
    n, arcs = graph
    D = OrientedGraph(n, arcs)
    check_rows(D)
    assert set(D.arcs()) == set(arcs)
    assert decode(encode(D)) == D


@settings(deadline=None)
@given(st.integers(0, MAX_N).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))))
def test_codec_round_trip_and_rows_tournament(nbits):
    n, bits = nbits
    T = Tournament(n, bits)
    check_rows(T)
    assert T.is_tournament
    text = encode(T)
    assert decode(text) == T and encode(decode(text)) == text
    # the bit for pair (i, j), i < j, in lexicographic order says i -> j
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            assert T.arc(i, j) == bool((bits >> k) & 1)
            k += 1


@settings(deadline=None)
@given(arc_lists(), st.data())
def test_invert_matches_oracle(graph, data):
    n, arcs = graph
    sets = data.draw(st.lists(st.sets(st.integers(0, n - 1)) if n else st.just(set()),
                              max_size=4))
    out = invert(OrientedGraph(n, arcs), VertexFamily.from_sets(n, sets))
    check_rows(out)
    assert set(out.arcs()) == arcs_invert(arcs, sets)


@settings(deadline=None)
@given(arc_lists(tournament=True), st.data())
def test_apply_matrix_matches_oracle(graph, data):
    n, arcs = graph
    bits = data.draw(st.lists(st.integers(0, 1), min_size=n * n, max_size=n * n))
    matrix = [[bits[min(i, j) * n + max(i, j)] for j in range(n)] for i in range(n)]
    out = apply_matrix(OrientedGraph(n, arcs), SymMatGF2.from_rows(matrix))
    check_rows(out)
    assert out.is_tournament
    assert set(out.arcs()) == arcs_apply_matrix(arcs, matrix)


@settings(deadline=None)
@given(arc_lists(max_n=6), arc_lists(max_n=6))
def test_dijoin_matches_oracle(g1, g2):
    (n1, arcs1), (n2, arcs2) = g1, g2
    out = dijoin(OrientedGraph(n1, arcs1), OrientedGraph(n2, arcs2))
    check_rows(out)
    assert out.n == n1 + n2
    assert set(out.arcs()) == arcs_dijoin(n1, arcs1, n2, arcs2)


@settings(deadline=None)
@given(st.one_of(arc_lists(), arc_lists(tournament=True)), st.data())
def test_induced_and_reverse_match_oracle(graph, data):
    n, arcs = graph
    D = OrientedGraph(n, arcs)
    vertices = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
    sub = induced(D, vertices)
    check_rows(sub)
    assert set(sub.arcs()) == arcs_induced(arcs, sorted(vertices))
    perm = data.draw(st.permutations(range(n)))
    # a whole relabelling, and a subset taken in any order
    for order in (perm, [v for v in perm if v in vertices]):
        moved = _relabel(D, order)
        check_rows(moved)
        assert set(moved.arcs()) == arcs_induced(arcs, order)
        complete = len(moved.arcs()) == len(order) * (len(order) - 1) // 2
        assert isinstance(moved, Tournament) == moved.is_tournament == complete
    rev = reverse(D)
    check_rows(rev)
    assert set(rev.arcs()) == arcs_reverse(arcs)


@settings(deadline=None)
@given(arc_lists(max_n=8, tournament=True), st.data())
def test_canonical_form_is_a_relabelling_invariant(graph, data):
    n, arcs = graph
    sigma = data.draw(st.permutations(range(n)))
    form = canonical_form(OrientedGraph(n, arcs))
    assert form == canonical_form(OrientedGraph(n, [(sigma[u], sigma[v]) for u, v in arcs]))
    C = decode(form)
    assert sorted(r.bit_count() for r in C.out) == sorted(
        sum(u == v for u, _ in arcs) for v in range(n)
    )
    assert canonical_form(C) == form


def members(bitset: int, m: int) -> set[int]:
    return {x for x in range(1 << m) if (bitset >> x) & 1}


@settings(deadline=None, max_examples=300)
@given(arc_lists(max_n=8, tournament=True))
def test_tournament_search_matches_per_vector_oracle(graph):
    # the one pass per node and the insert position read from its final L
    # give the witness and the node count of a search that places every
    # vector by the per-vector rule; each pair's orientation is drawn, so
    # the tournaments come under every labelling
    n, arcs = graph
    D = OrientedGraph(n, arcs)
    slots = _assignment_order(D)
    S = _relabel(D, slots)
    for k in range(4):
        for even in (False, True):
            counter = _Nodes()
            found = _level_search(S, k, counter=counter, even=even)
            assert (found, counter.used) == tournament_level_search(n, arcs, slots, k, even)


@settings(deadline=None, max_examples=300)
@given(arc_lists(max_n=7), st.integers(0, 3))
def test_level_search_returns_the_lex_least_assignment(graph, k):
    # oriented graphs and tournaments alike: the candidate sets and the
    # column rule return the witness a plain search over every vector finds
    n, arcs = graph
    D = OrientedGraph(n, arcs)
    slots = _assignment_order(D)
    found = _level_search(_relabel(D, slots), k, counter=_Nodes())
    assert found == lex_least_assignment(n, arcs, slots, k)


@settings(deadline=None, max_examples=60)
@given(st.booleans().flatmap(lambda t: arc_lists(max_n=9, tournament=t)))
def test_solve_inv_matches_naive_inv(graph):
    # half the draws are tournaments, where inv 2 and 3 are common; the
    # oracle tries every family of up to max_m sets, one set fewer from n = 8
    # on, since a miss with two sets at n = 9 tries 2^18 families
    n, arcs = graph
    D = OrientedGraph(n, arcs)
    max_m = 2 if n <= 7 else 1
    value = solve_inv(D).value
    want = naive_inv(D, max_m)
    if want is None:
        assert value > max_m
    else:
        assert value == want


def test_lex_allowed_all_tied_is_the_sorted_first_rows():
    for m in range(9):
        all_tied = (1 << max(m - 1, 0)) - 1
        assert members(_lex_allowed(m, all_tied), m) == {(1 << a) - 1 for a in range(m + 1)}


@settings(deadline=None)
@given(st.integers(0, 7).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, (1 << max(m - 1, 0)) - 1))))
def test_lex_allowed_is_the_column_swap_rule(m_tie):
    # allowed iff no tied pair (j, j+1) reads x_j = 0, x_{j+1} = 1, the rows
    # a column swap would make lexicographically smaller
    m, tie = m_tie
    swappable = {
        x for x in range(1 << m)
        if any((tie >> j) & 1 and not (x >> j) & 1 and (x >> (j + 1)) & 1 for j in range(m - 1))
    }
    assert members(_lex_allowed(m, tie), m) == set(range(1 << m)) - swappable


@settings(deadline=None, max_examples=60)
@given(arc_lists(max_n=9, tournament=True), st.data())
def test_certificates_round_trip_json_and_reject_tampering(graph, data):
    n, arcs = graph
    T = OrientedGraph(n, arcs)
    tri = check_trichotomy(T)
    certs = [solve_inv(T).certificate, solve_tmr(T).certificate,
             tri.inv_certificate, tri.tmr_certificate]
    for cert in certs:
        text = json.dumps(cert.to_json_dict())
        back = Certificate.from_json_dict(json.loads(text))
        assert back == cert
        assert verify_certificate(T, back)
        wrong = json.loads(text)
        wrong["value"] = data.draw(st.integers(0, n + 1).filter(lambda v: v != cert.value))
        assert not verify_certificate(T, Certificate.from_json_dict(wrong))
        if n >= 2:
            wrong = json.loads(text)
            i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                      unique=True))
            wrong["order"][i], wrong["order"][j] = wrong["order"][j], wrong["order"][i]
            assert not verify_certificate(T, Certificate.from_json_dict(wrong))


@settings(deadline=None)
@given(arc_lists(max_n=10, tournament=True), st.data())
def test_components_match_reachability_oracle(graph, data):
    # winners first, the key is a relabelling invariant, and its order and
    # the canonical order relabel T onto the forms they stand for
    n, arcs = graph
    T = OrientedGraph(n, arcs)
    assert [sorted(c) for c in _components(T)] == arcs_strong_components(n, arcs)
    if n <= 8:
        perm = data.draw(st.permutations(range(n)))
        relabelled = OrientedGraph(n, [(perm[u], perm[v]) for u, v in arcs])
        key, order = _component_key(T)
        assert _component_key(relabelled)[0] == key
        joined = njoin([decode(e) for e in key]) if key else T
        canonical = encode(_relabel(T, _canonical_int(T.out)[1]))
        assert (_relabel(T, order), canonical) == (joined, canonical_form(T))


@st.composite
def join_operands(draw, max_total=10):
    """Two or three nonempty tournaments with at most max_total vertices in all."""
    k = draw(st.integers(2, 3))
    graphs = draw(st.lists(arc_lists(max_n=max_total // k, tournament=True).filter(
        lambda g: g[0] >= 1), min_size=k, max_size=k))
    return [OrientedGraph(n, arcs) for n, arcs in graphs]


@settings(deadline=None, max_examples=60)
@given(join_operands())
def test_bounded_levels_match_unbounded_solvers(graphs):
    # the operands' minimum families, shifted onto the n-join, decycle it and
    # bound inv by their sizes and tmr by their gram ranks
    J = njoin(graphs)
    reports = [check_trichotomy(D) for D in graphs]
    sets, offset = [], 0
    for D, rep in zip(graphs, reports):
        sets += [frozenset(v + offset for v in s) for s in rep.inv_certificate.payload.sets]
        offset += D.n
    union = VertexFamily(J.n, tuple(sets))
    budget = SearchBudget()
    for rank_pass, value, bound in (
        (False, solve_inv(J).value, sum(r.inv for r in reports)),
        (True, solve_tmr(J).value, sum(r.tmr for r in reports)),
    ):
        assert value <= bound
        k, family, _ = _levels(J, budget, rank_pass, (bound, union))
        assert k == value
        if k == bound:
            assert family is union
        # a bound above the value is never reached: the lex-first witness
        wider = VertexFamily(J.n, union.sets + (frozenset(),))
        assert _levels(J, budget, rank_pass, (bound + 1, wider)) == _levels(J, budget, rank_pass)
