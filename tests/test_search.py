import hashlib
import json
import pickle
import random
from pathlib import Path

import pytest

from invlab import (
    Certificate,
    Inconclusive,
    SearchBudget,
    SymMatGF2,
    Tournament,
    UsageError,
    VertexFamily,
    check_trichotomy,
    decode,
    dijoin,
    encode,
    enumerate_tournaments,
    family_to_matrix,
    is_decycling_family,
    matrix_certificate,
    rank,
    solve_inv,
    solve_tmr,
    verify_certificate,
)
from invlab import search
from invlab.digraph import OrientedGraph, _relabel, pair_count
from invlab.search import (
    _assignment_order,
    _family,
    _level_search,
    _Nodes,
)
from oracles import (
    all_oriented_graphs,
    arcs_apply_matrix,
    dfs_acyclic,
    lex_least_assignment,
    min_decycling_rank,
    min_zero_diag_decycling_rank,
    naive_inv,
)

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

C3 = decode("3:101")


def test_solve_inv_examples():
    for n in range(1, 6):
        t = decode(f"{n}:" + "1" * (n * (n - 1) // 2))
        value, cert = solve_inv(t)
        assert value == 0 and cert.payload.m == 0

    value, cert = solve_inv(C3)
    assert value == 1
    assert is_decycling_family(C3, cert.payload)

    value, _ = solve_inv(dijoin(C3, C3))
    assert value == 2


def test_solve_inv_certificates_verify():
    for n in range(1, 6):
        for T in enumerate_tournaments(n):
            value, cert = solve_inv(T)
            assert verify_certificate(T, cert)
            assert cert.value == value == cert.payload.m


def test_solve_tmr_examples():
    assert solve_tmr(decode("4:111111")).value == 0
    assert solve_tmr(C3).value == 1
    # the paper's corollary: tmr(C3 -> C3) = 1 + 1
    assert solve_tmr(dijoin(C3, C3)).value == 2


def test_solve_tmr_rejects_non_tournaments():
    with pytest.raises(TypeError):
        solve_tmr(decode("3;0>1"))


def test_solve_tmr_certificate_and_diag_flag():
    res = solve_tmr(C3)
    assert res.certificate.kind == "matrix"
    assert verify_certificate(C3, res.certificate)
    # a rank-1 decycling matrix always has a diagonal 1
    assert res.min_rank_nonzero_diag
    # transitive: the only rank-0 matrix is all-zero
    assert not solve_tmr(decode("3:111")).min_rank_nonzero_diag


def test_solver_agrees_with_naive_oracle_oriented_n_le_3():
    for n in range(4):
        for D in all_oriented_graphs(n):
            expect = naive_inv(D, max_m=2)
            got = solve_inv(D).value
            if expect is None:
                assert got > 2
            else:
                assert got == expect


def test_solver_agrees_with_naive_oracle_tournaments_n4():
    for bits in range(1 << 6):
        T = Tournament(4, bits)
        expect = naive_inv(T, max_m=2)
        assert expect is not None and solve_inv(T).value == expect


def test_inv_tmr_inequality_chain():
    for n in range(1, 6):
        for T in enumerate_tournaments(n):
            inv = solve_inv(T).value
            tmr = solve_tmr(T).value
            assert tmr <= inv <= tmr + 1


def test_check_trichotomy_examples():
    r = check_trichotomy(decode("5:" + "1" * 10))
    assert r.inv == r.tmr == 0 and r.holds

    r = check_trichotomy(C3)
    assert r.inv == r.tmr == 1 and r.holds

    # tmr and the diagonal flag against an oracle that ranks every decycling
    # matrix, on the 20 classes with n <= 5
    classes = [T for n in range(1, 6) for T in enumerate_tournaments(n, up_to_iso=True)]
    assert len(classes) == 20
    for T in classes:
        r = check_trichotomy(T)
        assert (r.tmr, r.min_rank_nonzero_diag) == min_decycling_rank(T.n, T.arcs()), encode(T)


def test_trichotomy_holds_reads_the_diagonal_condition_both_ways():
    r = check_trichotomy(C3)
    assert (r.gap, r.transitive, r.min_rank_nonzero_diag) == (0, False, True)
    # gap 0 on a non-transitive tournament needs a minimum-rank matrix with a
    # nonzero diagonal, and gap 1 needs an even tmr and none
    assert not r._replace(min_rank_nonzero_diag=False).holds
    assert not r._replace(inv=2).holds
    assert not r._replace(inv=3, tmr=2).holds
    assert r._replace(inv=3, tmr=2, min_rank_nonzero_diag=False).holds
    assert not r._replace(inv=3).holds
    # a transitive tournament is exempt from the diagonal condition
    t = check_trichotomy(decode("3:111"))
    assert t.holds and t._replace(min_rank_nonzero_diag=True).holds


def test_check_trichotomy_matches_solve_inv_on_classes_n_le_7():
    # check_trichotomy reads inv off the rank-pass search; solve_inv runs
    # without that pass, so the two must agree and both certificates replay;
    # for n <= 5 inv is also checked against the enumerating oracle
    for n in range(1, 8):
        for T in enumerate_tournaments(n, up_to_iso=True):
            r = check_trichotomy(T)
            assert r.inv == solve_inv(T).value
            tmr = solve_tmr(T)
            assert (r.tmr, r.min_rank_nonzero_diag) == (tmr.value, tmr.min_rank_nonzero_diag)
            if n <= 5:
                assert r.inv == naive_inv(T, max_m=2)
            assert verify_certificate(T, r.inv_certificate)
            assert verify_certificate(T, r.tmr_certificate)


def test_check_trichotomy_gap_instance():
    # no class with n <= 7 has inv > tmr; this one does, so inv comes from
    # the even-weight pass's assignment, of width tmr + 1
    T = decode("10:010100000111011100001001111110010000111110100")
    r = check_trichotomy(T)
    assert (r.inv, r.tmr, r.min_rank_nonzero_diag) == (3, 2, False)
    assert r.holds
    assert r.inv == solve_inv(T).value and r.tmr == solve_tmr(T).value
    assert r.inv_certificate.kind == "family" and r.inv_certificate.payload.m == 3
    assert verify_certificate(T, r.inv_certificate)
    assert verify_certificate(T, r.tmr_certificate)


def test_check_trichotomy_sorts_one_flipped_graph(monkeypatch):
    # the gram matrix flips exactly the arcs the family inverts, so both
    # certificates share the order of one topological pass
    from invlab import decycling

    passes = []
    sort = decycling._topological_order_or_none

    def counted(D):
        passes.append(D)
        return sort(D)

    monkeypatch.setattr(decycling, "_topological_order_or_none", counted)
    gap = decode("10:010100000111011100001001111110010000111110100")
    seeded = [Tournament(n, random.Random(n).getrandbits(pair_count(n))) for n in range(1, 12)]
    for T in [gap, C3] + seeded:
        passes.clear()
        r = check_trichotomy(T)
        assert len(passes) == 1, encode(T)
        assert r.inv_certificate.order == r.tmr_certificate.order
        assert verify_certificate(T, r.inv_certificate)
        assert verify_certificate(T, r.tmr_certificate)


def test_verify_certificate_examples():
    good = Certificate("family", VertexFamily.from_sets(3, [[0, 1]]), 1, (1, 2, 0))
    assert verify_certificate(C3, good)
    empty = Certificate("family", VertexFamily.from_sets(3, []), 0, (0, 1, 2))
    assert not verify_certificate(C3, empty)
    M = SymMatGF2.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert verify_certificate(C3, Certificate("matrix", M, 1, (1, 2, 0)))
    assert not verify_certificate(C3, Certificate("matrix", M, 2, (1, 2, 0)))


def test_node_limit_gives_inconclusive_with_bounds():
    J = dijoin(C3, C3)
    with pytest.raises(Inconclusive) as err:
        solve_inv(J, SearchBudget(node_limit=3))
    assert err.value.lower >= 1 and str(err.value).endswith(f"value >= {err.value.lower}")

    with pytest.raises(Inconclusive):
        solve_tmr(J, SearchBudget(node_limit=3))


def test_inconclusive_survives_pickling():
    # a scan worker sends its exception back pickled, notes and all
    for exc in (Inconclusive(1, "x"), Inconclusive(2, "node limit 3 reached at level 2")):
        exc.add_note("raised in scan worker")
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is Inconclusive and str(back) == str(exc)
        assert (back.lower, back.reason) == (exc.lower, exc.reason)
        assert back.__notes__ == ["raised in scan worker"]


def test_determinism_with_fixed_budget():
    J = dijoin(C3, decode("4:010010"))
    a = solve_inv(J, SearchBudget())
    b = solve_inv(J, SearchBudget())
    assert a == b
    assert solve_tmr(J) == solve_tmr(J)


def test_solve_tmr_against_brute_force_enumeration():
    # independent oracle: enumerate every symmetric matrix, keep the
    # decycling ones, read off the minimum rank and whether any attaining
    # matrix has a diagonal 1; checks both solver outputs at once
    from invlab import SymMatGF2, is_decycling_matrix, rank
    from oracles import all_symmetric_matrices

    for n in range(1, 5):
        for bits in range(1 << (n * (n - 1) // 2)):
            T = Tournament(n, bits)
            best = None
            nonzero_diag = False
            for rows in all_symmetric_matrices(n):
                M = SymMatGF2.from_rows(rows)
                if not is_decycling_matrix(T, M):
                    continue
                r = rank(M)
                if best is None or r < best:
                    best, nonzero_diag = r, False
                if r == best and any(rows[i][i] for i in range(n)):
                    nonzero_diag = True
            res = solve_tmr(T)
            assert res.value == best
            assert res.min_rank_nonzero_diag == nonzero_diag


def test_budget_validation():
    with pytest.raises(UsageError, match="^node_limit must be >= 0, got -1$"):
        SearchBudget(node_limit=-1)


def test_records_are_frozen_value_tuples_checked_however_they_are_made():
    family = VertexFamily.from_sets(3, [[1, 2], [0]])
    report = check_trichotomy(C3)
    records = [SearchBudget(5), family, report.inv_certificate, report.tmr_certificate, report]
    for record in records:
        for name in (record._fields[0], "note"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
        # results cross the worker pipes pickled
        again = pickle.loads(pickle.dumps(record))
        assert type(again) is type(record) and again == record and hash(again) == hash(record)
    # equal fields make equal records, whichever object carries them
    assert VertexFamily.from_sets(3, [[2, 1], [0]]) == family
    assert hash(VertexFamily.from_sets(3, [[2, 1], [0]])) == hash(family)
    assert check_trichotomy(decode("3:101")) == report
    assert SearchBudget(5) == SearchBudget(node_limit=5) != SearchBudget(6)
    # the checks run in the constructor, in _replace and on unpickling
    forged_budget = pickle.dumps(tuple.__new__(SearchBudget, (-1,)))
    for make in (lambda: SearchBudget(-1), lambda: SearchBudget(5)._replace(node_limit=-1),
                 lambda: pickle.loads(forged_budget)):
        with pytest.raises(UsageError, match="^node_limit must be >= 0, got -1$"):
            make()
    outside = (frozenset({0, 3}),)
    forged_family = pickle.dumps(tuple.__new__(VertexFamily, (3, outside)))
    for make in (lambda: VertexFamily(3, outside), lambda: family._replace(sets=outside),
                 lambda: pickle.loads(forged_family)):
        with pytest.raises(ValueError, match="vertex outside 0..2"):
            make()


# sha256 of the certificate JSON rows "encoding kind json" of both
# check_trichotomy certificates for every class with n <= 7 and for a seeded
# relabelling of each n = 7 class, then of solve_inv's certificate on the
# recorded n = 11 oriented graphs: every pass outside the node loop (slot
# relabelling, flip tables, topological orders, gram matrices) must leave
# each certificate byte for byte as it was
CERTS7_SHA256 = "2e06e8a4b6e56aaf05ac00b44bfdb9b758c5366436862ad85890d93926934055"


def _cert_row(D, cert) -> str:
    return f"{encode(D)} {cert.kind} {json.dumps(cert.to_json_dict(), sort_keys=True)}"


def test_certificates_pinned_on_classes_n_le_7():
    rng = random.Random(7)
    graphs = [T for n in range(1, 8) for T in enumerate_tournaments(n)]
    for T in enumerate_tournaments(7):
        perm = list(range(7))
        rng.shuffle(perm)
        graphs.append(_relabel(T, perm))
    rows = []
    for T in graphs:
        r = check_trichotomy(T)
        rows += [_cert_row(T, r.inv_certificate), _cert_row(T, r.tmr_certificate)]
    for e in json.loads(EXPECTED.read_text())["solve"]["o11"]:
        D = decode(e["graph"])
        rows.append(_cert_row(D, solve_inv(D).certificate))
    assert len(rows) == 2 * (1 + 1 + 2 + 4 + 12 + 56 + 2 * 456) + 4
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == CERTS7_SHA256


@pytest.mark.parametrize("key", ["classes7", "t10", "t11", "ladder11", "o11"])
def test_values_match_recorded_expected(key):
    # perfbench/expected.json holds values recorded by an earlier solver; a
    # new search method must reproduce them, and every certificate replays
    table = json.loads(EXPECTED.read_text())
    entries = table["classes7"] if key == "classes7" else table["solve"][key]
    assert entries
    for e in entries:
        D = decode(e["graph"])
        inv = solve_inv(D)
        assert inv.value == e["inv"], e["graph"]
        assert verify_certificate(D, inv.certificate)
        if "tmr" in e:
            tmr = solve_tmr(D)
            assert (tmr.value, tmr.min_rank_nonzero_diag) == (e["tmr"], e["nonzero_diag"])
            assert verify_certificate(D, tmr.certificate)
        if "holds" in e:
            assert check_trichotomy(D).holds == e["holds"]


# the seeded n = 12 solves pin the search tree, not only the value: each
# succeeds with exactly the nodes it needs and is inconclusive one node
# short, so a kernel change that visits the candidates differently fails
def test_seeded_n12_tournament_inv():
    n = 12
    T = Tournament(n, random.Random(n).getrandbits(pair_count(n)))
    res = solve_inv(T, SearchBudget(node_limit=75_351))
    assert res.value == 5
    assert verify_certificate(T, res.certificate)
    with pytest.raises(Inconclusive):
        solve_inv(T, SearchBudget(node_limit=75_350))


def test_seeded_n12_tournament_tmr():
    # a width-4 pass under the alternating form took 522,029 nodes here
    n = 12
    T = Tournament(n, random.Random(n).getrandbits(pair_count(n)))
    res = solve_tmr(T, SearchBudget(node_limit=91_021))
    assert res.value == 5
    assert verify_certificate(T, res.certificate)
    with pytest.raises(Inconclusive):
        solve_tmr(T, SearchBudget(node_limit=91_020))


def test_seeded_n12_oriented_graph_inv():
    # the same pin for the search over oriented graphs that are not
    # tournaments: each pair is absent with probability 0.15
    n = 12
    rng = random.Random(n)
    arcs = [(u, v) if rng.random() < 0.5 else (v, u)
            for u in range(n) for v in range(u + 1, n) if rng.random() < 0.85]
    D = OrientedGraph(n, arcs)
    assert not D.is_tournament
    res = solve_inv(D, SearchBudget(node_limit=2_531))
    assert res.value == 3
    assert verify_certificate(D, res.certificate)
    with pytest.raises(Inconclusive):
        solve_inv(D, SearchBudget(node_limit=2_530))


def test_one_slot_order_per_solve(monkeypatch):
    # _levels relabels the graph into slot order once; no level or result
    # builder orders the slots again
    calls = []
    order = search._assignment_order

    def counted(D):
        calls.append(D)
        return order(D)

    monkeypatch.setattr(search, "_assignment_order", counted)
    T = Tournament(10, random.Random(10).getrandbits(pair_count(10)))
    O = dijoin(C3, decode("4;0>1,1>2,2>0"))
    assert not O.is_tournament
    for solve, D in ((solve_inv, T), (solve_tmr, T), (check_trichotomy, T), (solve_inv, O)):
        calls.clear()
        solve(D)
        assert calls == [D], solve.__name__


# sha256 of the "class width even vectors nodes" rows of _level_search over
# the 456 classes with n = 7 at widths 0-3, with and without even, recorded
# before the tournament kernel became one forward pass per slot
NODES7_SHA256 = "955c0dc58f032888a47256cbdef009d529c4885235861eb5486d727c84067c45"


def test_level_search_nodes_on_classes_n7():
    rows = []
    for T in enumerate_tournaments(7):
        S = _relabel(T, _assignment_order(T))
        for m in range(4):
            for even in (False, True):
                counter = _Nodes()
                found = _level_search(S, m, counter=counter, even=even)
                vecs = "-" if found is None else ",".join(map(str, found))
                rows.append(f"{encode(T)} {m} {int(even)} {vecs} {counter.used}")
    assert len(rows) == 456 * 8
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == NODES7_SHA256


def test_one_flip_table_serves_every_width(monkeypatch):
    # _flip_table holds -1 where a per-width table held full = 2^(2^m) - 1;
    # the kernel reads it only under & with subsets of full, so each level
    # must return the same vectors after the same nodes, or reach the node
    # limit at the same count, as with the per-width table
    def per_width(m):
        full = (1 << (1 << m)) - 1
        return lambda out: [[0 if (o >> t) & 1 else full for t in range(len(out))] for o in out]

    def run(S, m, even):
        counter = _Nodes(20_000)
        try:
            found = _level_search(S, m, counter=counter, even=even)
        except search._NodeLimit:
            found = "limit"
        return found, counter.used

    shared = search._flip_table
    outcomes = set()
    # n = 7 and 8 read one byte per row, n = 10-12 splice two
    for n in (7, 8, 10, 11, 12):
        T = Tournament(n, random.Random(n).getrandbits(pair_count(n)))
        S = _relabel(T, _assignment_order(T))
        for m in range(6):
            for even in (False, True):
                got = run(S, m, even)
                monkeypatch.setattr(search, "_flip_table", per_width(m))
                assert run(S, m, even) == got, (n, m, even)
                monkeypatch.setattr(search, "_flip_table", shared)
                outcomes.add("limit" if got[0] == "limit" else got[0] is None)
    assert outcomes == {True, False, "limit"}


# three of the 280 classes with n = 8 and inv = tmr + 1 = 3
GAP8 = (
    "8:0000001000010000000100001111",
    "8:0000001000010000000100010111",
    "8:0000001000010000000101001101",
)


def test_even_weight_pass_against_zero_diag_rank_oracle():
    # for even k, the width-(k+1) pass over even-weight vectors succeeds iff
    # some zero-diagonal decycling matrix has rank <= k; the oracle ranks the
    # flip matrix of every vertex order.  With the full column rule it still
    # returns the lexicographically least even-weight assignment, found by a
    # search with no rule.  Its gram matrix must be zero-diagonal, of rank
    # <= k, and decycle T (checked on arcs)
    graphs = [T for n in range(1, 7) for T in enumerate_tournaments(n)]
    graphs += [decode(e) for e in GAP8]
    seen = set()
    for T in graphs:
        best = min_zero_diag_decycling_rank(T.n, T.arcs())
        seen.add(best)
        slots = _assignment_order(T)
        S = _relabel(T, slots)
        for k in (2, 4):
            found = _level_search(S, k + 1, counter=_Nodes(), even=True)
            assert (found is not None) == (best <= k), (encode(T), k, best)
            least = lex_least_assignment(T.n, T.arcs(), slots, k + 1, even=True)
            assert found == least, (encode(T), k)
            if found is None:
                continue
            assert all(x.bit_count() % 2 == 0 for x in found)
            M = family_to_matrix(_family(slots, k + 1, found))
            assert not any(M.diagonal()) and best <= rank(M) <= k
            flipped = arcs_apply_matrix(T.arcs(), M.to_lists())
            assert dfs_acyclic(OrientedGraph(T.n, sorted(flipped)))
            assert verify_certificate(T, matrix_certificate(T, M))
    assert seen == {0, 2, 4}


# sha256 of the sorted "encoding inv tmr diag" rows of check_trichotomy over
# the 6,880 classes with n = 8, recorded with a different second pass (width
# k+1 under a rank cap of k), so the even-weight pass is checked against it
N8_TRICHOTOMY_SHA256 = "ffb92be4414d6fb03768e4c2e85b436f62a18ffbb2ec9d2b9a13d045a27ae7d4"


def test_check_trichotomy_n8_classes_regression():
    rows, gaps = [], []
    for T in enumerate_tournaments(8):
        r = check_trichotomy(T)
        rows.append(f"{encode(T)} {r.inv} {r.tmr} {int(r.min_rank_nonzero_diag)}")
        if r.inv == r.tmr + 1:
            gaps.append((T, r))
    rows.sort()
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == N8_TRICHOTOMY_SHA256
    assert len(gaps) == 280
    for T, r in gaps:
        assert r.inv == solve_inv(T).value
        M = r.tmr_certificate.payload
        assert not any(M.diagonal()) and rank(M) == r.tmr_certificate.value == r.inv - 1
        assert r.inv_certificate.payload.m == r.inv_certificate.value == r.tmr + 1
        assert verify_certificate(T, r.inv_certificate)
        assert verify_certificate(T, r.tmr_certificate)
