import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from invlab import (
    Certificate,
    Inconclusive,
    SearchBudget,
    SymMatGF2,
    Tournament,
    UsageError,
    canonical_form,
    check_trichotomy,
    decode,
    dijoin,
    encode,
    enumerate_tournaments,
    family_certificate,
    family_to_matrix,
    njoin,
    rank,
    replay,
    reverse,
    run_scan,
    scan_inv_lower_bound,
    scan_schur_3x3,
    scan_tmr_additivity,
    schur_probe,
    solve_inv,
    verify_certificate,
    verify_dijoin_theorems,
    VertexFamily,
)
from invlab import cli, explorer, search
from invlab.explorer import _decycling_flips
from oracles import brute_canonical

C3 = decode("3:101")


def _relabeled(T, sigma):
    return decode(
        f"{T.n};" + ",".join(f"{sigma[u]}>{sigma[v]}" for u, v in T.arcs())
    )


def test_canonical_form_is_relabeling_invariant():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 7)
        T = Tournament(n, rng.randrange(1 << (n * (n - 1) // 2)))
        sigma = list(range(n))
        rng.shuffle(sigma)
        assert canonical_form(T) == canonical_form(_relabeled(T, sigma))


def test_canonical_form_examples():
    forms = {canonical_form(_relabeled(C3, sigma)) for sigma in [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}
    assert len(forms) == 1
    assert canonical_form(decode("3:111")) == canonical_form(decode("3:000"))
    with pytest.raises(ValueError):
        canonical_form(Tournament(9))
    with pytest.raises(TypeError):
        canonical_form(decode("3;0>1"))


def test_canonical_form_matches_brute_force_oracle():
    for n in range(6):
        for T in enumerate_tournaments(n, up_to_iso=False):
            assert canonical_form(T) == brute_canonical(n, T.arcs())
    rng = random.Random(6)
    for _ in range(40):
        T = Tournament(6, rng.getrandbits(15))
        assert canonical_form(T) == brute_canonical(6, T.arcs())


def test_import_needs_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    plain = "import sys, invlab; assert 'numpy' not in sys.modules"
    blocked = (
        "import sys; sys.modules['numpy'] = None; import invlab; "
        "print(invlab.canonical_form(invlab.decode('3:101')), "
        "len(list(invlab.enumerate_tournaments(5))))"
    )
    for code in (plain, blocked):
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["3:010", "12"]


def test_enumeration_counts():
    # OEIS A000568
    expected = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12, 6: 56, 7: 456, 8: 6880}
    for n, count in expected.items():
        assert len(list(enumerate_tournaments(n))) == count
    assert len(list(enumerate_tournaments(3, up_to_iso=False))) == 8
    with pytest.raises(ValueError):
        list(enumerate_tournaments(9, up_to_iso=True))


def test_enumeration_matches_dedup_oracle_n_le_5():
    for n in range(1, 6):
        seen = {canonical_form(t) for t in enumerate_tournaments(n, up_to_iso=False)}
        reps = [encode(t) for t in enumerate_tournaments(n)]
        assert sorted(seen) == sorted(reps)
        assert len(set(reps)) == len(reps)


def test_verify_dijoin_theorems_small():
    report = verify_dijoin_theorems(max_each=3)
    assert report.violations == []
    assert report.inconclusive == []
    assert report.evidence["checks_run"]["dijoin-switch"] > 0
    assert report.evidence["checks_run"]["three-join-identity"] > 0


def _theorem_jobs(pair, node_limit=None):
    """The theorem scan's jobs for one pair, their values, and the pair's outcome."""
    jobs, outcomes = explorer._questions(
        [pair], explorer._theorem_questions, False, False, node_limit
    )
    values = explorer._fan_out(jobs, 1)
    [outcome] = outcomes(values)
    return jobs, values, outcome


def test_dijoin_pair_task_reads_d2_off_one_search():
    # D2 has inv 3 and tmr 2, so inv2 must come from the tmr search's
    # even-weight pass, of width 3; no class with n <= 7 has a gap
    gap = "10:010100000111011100001001111110010000111110100"
    rep = explorer._trichotomy(gap)
    assert (rep.tmr, rep.min_rank_nonzero_diag, rep.inv) == (2, False, 3)
    jobs, values, (pair, (reps, got)) = _theorem_jobs(("3:101", gap))
    assert reps[1] is rep and [k for k, _, _ in got] == [k for k, _ in values] == [3, 3]
    checks = {
        c["name"]: (c["expected"], c["observed"])
        for c in explorer._theorem_checks(pair, reps, [k for k, _, _ in got])
    }
    assert checks == {"dijoin-switch": (3, 3), "dijoin-gap-equivalence": (True, True)}
    # a node limit caps the join searches alone: the operands are still
    # answered exactly, both questions are asked, and the pair is one entry
    # with the reason of its first question
    jobs, values, outcome = _theorem_jobs(("3:101", gap), 5)
    assert len(jobs) == 2 and values == ["node limit 5 reached at level 1"] * 2
    assert outcome == (["3:101", gap], values[0])


def test_dijoin_pair_task_records_each_inconclusive_dijoin_once():
    # three checks read inv(D1 -> D2); an exhausted budget on it is one entry,
    # for the pair, with the reason of that search
    jobs, values, outcome = _theorem_jobs(("3:010", "4:001000"), 30)
    joins = [encode(njoin([decode(e) for e in args[0]])) for _, args in jobs]
    assert joins[0] == "7:011111011111111001000" and len(joins) == 2
    assert isinstance(values[0], str) and outcome == (["3:010", "4:001000"], values[0])


def test_theorem_scan_searches_each_class_and_question_once(monkeypatch):
    # each class goes through check_trichotomy once, and each join question,
    # up to isomorphism, through one bounded inv level loop: 16 at max_each=3
    # and 147 at 4, a question shared by a pair and a triple included
    operands, joins = _record_searches(monkeypatch)
    assert not hasattr(explorer, "solve_inv")
    inv = {}
    for max_each, questions in ((3, 16), (4, 147)):
        operands.clear()
        joins.clear()
        explorer._trichotomy.cache_clear()
        report = verify_dijoin_theorems(max_each=max_each)
        assert report.violations == [] and report.inconclusive == []
        classes = [e for n in range(1, max_each + 1) for e in explorer._class_encodings(n)]
        assert sorted(operands) == sorted(classes)
        inv.update((e, solve_inv(decode(e)).value) for e in classes)
        asked = set()
        for tup in explorer._class_tuples([range(1, max_each + 1)] * 2):
            if inv[tup[0]] <= 2:
                asked.update({tup, tup[::-1]})
        for tup in explorer._class_tuples([range(1, max_each + 1)] * 3):
            if inv[tup[0]] in (1, 2) and inv[tup[1]] in (1, 2):
                asked.update({tup, tup[1:]})
        keys = {explorer._component_key(njoin([decode(e) for e in q]))[0] for q in asked}
        assert len(joins) == len(keys) == questions
        assert {explorer._component_key(D)[0] for D, _, _ in joins} == keys
        assert all(not rank_pass and upper is not None for _, rank_pass, upper in joins)


def test_theorem_scan_searches_each_direction_of_a_pair():
    # C3 and the transitive 2-tournament are both self-converse, so the
    # converse key of 2:1 -> C3 is the key of C3 -> 2:1: keyed by converse,
    # one search would read both sides of the switch check
    jobs, values, (pair, (reps, _)) = _theorem_jobs(("3:101", "2:1"))
    assert [args[0] for _, args in jobs] == [("3:010", "1:", "1:"), ("1:", "1:", "3:010")]
    assert [k for k, _ in values] == [1, 1]
    # and the switch check reads one value from each
    checks = explorer._theorem_checks(pair, reps, [1, 2])
    assert ("dijoin-switch", 1, 2) in {(c["name"], c["expected"], c["observed"]) for c in checks}
    jobs, _ = explorer._questions(
        [("3:101", "2:1")], explorer._theorem_questions, False, True, None
    )
    assert len(jobs) == 1


@pytest.mark.parametrize("call, refused", [
    (lambda: verify_dijoin_theorems(max_total=10, node_limit=100), "max_total = 10"),
    (lambda: scan_tmr_additivity(n1=9, n2=1), "n1 = 9"),
    (lambda: scan_inv_lower_bound(n1=2, n2=9, node_limit=10), "n2 = 9"),
    (lambda: scan_schur_3x3(n2_max=9, samples=1), "n2_max = 9"),
])
def test_scopes_past_the_enumerated_classes_are_refused_before_they_start(
    monkeypatch, call, refused
):
    # the refusal names the parameter and the bound, and comes before the scan runs
    monkeypatch.setattr(explorer, "_scan", lambda *args: pytest.fail("the scan started"))
    with pytest.raises(UsageError, match=f"^{refused} exceeds MAX_CANONICAL_N = 8"):
        call()


@pytest.mark.parametrize("call, refused", [
    (lambda: scan_tmr_additivity(-1, 3), "n1"),
    (lambda: scan_inv_lower_bound(n1=2, n2=-4), "n2"),
    (lambda: scan_tmr_additivity(max_total=-1), "max_total"),
    (lambda: scan_tmr_additivity(max_total=1), "max_total"),
    (lambda: scan_inv_lower_bound(max_total=0), "max_total"),
    (lambda: scan_inv_lower_bound(node_limit=-5), "node_limit"),
    (lambda: verify_dijoin_theorems(max_each=-2), "max_each"),
    (lambda: verify_dijoin_theorems(max_total=-3, node_limit=10), "max_total"),
    (lambda: verify_dijoin_theorems(max_total=0), "max_total"),
    (lambda: verify_dijoin_theorems(max_each=2, max_total=1, triple_total=2), "max_total"),
    (lambda: verify_dijoin_theorems(max_total=4, triple_total=-1), "triple_total"),
    (lambda: verify_dijoin_theorems(node_limit=-1), "node_limit"),
    (lambda: scan_schur_3x3(n2_max=-1), "n2_max"),
    (lambda: scan_schur_3x3(n2_max=2, samples=-3), "samples"),
    (lambda: replay({"scan": "inv-lower-bound", "n1": 2, "n2": -4, "max_total": None,
                     "node_limit": None}), "n2"),
])
def test_negative_scope_counts_are_refused_before_the_scan_starts(monkeypatch, call, refused):
    # a negative count would run as an empty scan that reports no violations;
    # so would a size cap of 0, so the size caps must be >= 1, and a max_total
    # below the smallest pair's 2 vertices, so max_total must be >= 2
    low = {"n1": 1, "n2": 1, "n2_max": 1, "max_each": 1, "max_total": 2}.get(refused, 0)
    monkeypatch.setattr(explorer, "_scan", lambda *args: pytest.fail("the scan started"))
    with pytest.raises(UsageError, match=f"^{refused} must be >= {low}, got ") as info:
        call()
    assert info.value.param == refused


def test_scan_scopes_match_class_counts():
    # one instance per tuple of classes; class counts from OEIS A000568
    classes = {1: 1, 2: 1, 3: 2, 4: 4, 5: 12}

    def tuples(caps, total):
        return sum(
            math.prod(classes[s] for s in sizes)
            for sizes in itertools.product(*(range(1, cap + 1) for cap in caps))
            if sum(sizes) <= total
        )

    assert tuples([5, 5], 6) == 56 and tuples([4, 4, 4], 6) == 38
    assert verify_dijoin_theorems(max_total=6).instances_checked == 56 + 38
    report = verify_dijoin_theorems(max_total=7, max_each=3, triple_total=6)
    assert report.instances_checked == tuples([3, 3], 7) + tuples([3, 3, 3], 6) == 42
    assert scan_tmr_additivity(4, 4, max_total=6).instances_checked == tuples([4, 4], 6) == 32
    assert scan_inv_lower_bound(5, 4).instances_checked == tuples([5, 4], 9) == 160


def test_transitive_first_operand_keeps_inv():
    for n2 in range(1, 4):
        for d2 in enumerate_tournaments(n2):
            j = dijoin(decode("2:1"), d2)
            assert solve_inv(j).value == solve_inv(d2).value


def test_switch_identity_c3_c3():
    assert solve_inv(dijoin(C3, C3)).value == 2 == solve_inv(dijoin(C3, C3)).value


def test_scan_tmr_additivity_small():
    report = scan_tmr_additivity(3, 3)
    assert report.violations == []
    assert report.evidence["counterexamples"] == []
    assert report.evidence["asserted_pairs"] > 0
    # evidence pairs at these sizes all come out additive
    assert report.evidence["evidence_equal"] == report.evidence["evidence_pairs"]


def _under_reporting_joins(monkeypatch, by: int):
    """Make every join question answer `by` below its value, so the scans' discovery branches run."""
    real = explorer._join_task

    def low(args):
        got = real(args)
        return got if isinstance(got, str) else (got[0] - by, got[1])

    monkeypatch.setattr(explorer, "_join_task", low)


def test_tmr_additivity_reports_what_an_under_additive_join_breaks(monkeypatch):
    # pairs with tmr(D1) in {1, 2} become asserted violations; the others
    # become counterexamples that carry the dijoin's real certificate
    _under_reporting_joins(monkeypatch, 1)
    report = scan_tmr_additivity(3, 3, workers=1)
    assert len(report.violations) == 4
    assert all(v["name"] == "tmr-additivity-asserted" for v in report.violations)
    counterexamples = report.evidence["counterexamples"]
    assert len(counterexamples) == 12
    assert report.evidence["evidence_equal"] == 0
    for entry in counterexamples:
        J = dijoin(decode(entry["d1"]), decode(entry["d2"]))
        cert = Certificate.from_json_dict(entry["dijoin_certificate"])
        assert verify_certificate(J, cert)
        assert entry["tmr_dijoin"] == cert.value - 1


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("node_limit", [5, 20])
def test_a_budgeted_scan_places_each_pair_once(monkeypatch, node_limit, workers):
    # a counterexample's certificate comes from its join question's own
    # search, so a node limit leaves pairs inconclusive and never raises:
    # each pair is a violation, a counterexample or inconclusive, and every
    # certificate replays with the join's real tmr
    _under_reporting_joins(monkeypatch, 1)
    report = scan_tmr_additivity(5, 5, node_limit=node_limit, workers=workers)
    counterexamples = report.evidence["counterexamples"]
    placed = [tuple(v["instances"]) for v in report.violations]
    placed += [(entry["d1"], entry["d2"]) for entry in counterexamples]
    placed += [tuple(entry["instance"]) for entry in report.inconclusive]
    assert sorted(placed) == sorted(explorer._class_tuples([range(1, 6)] * 2))
    assert len(counterexamples) > 0 and len(report.inconclusive) > 0
    for entry in counterexamples:
        J = dijoin(decode(entry["d1"]), decode(entry["d2"]))
        cert = Certificate.from_json_dict(entry["dijoin_certificate"])
        assert verify_certificate(J, cert) and cert.value == entry["tmr_dijoin"] + 1


def test_inv_lower_bound_reports_each_join_below_the_bound(monkeypatch):
    # the bound is theorem-backed only where inv(D1) = 2; elsewhere a join
    # below it is a conjecture counterexample
    _under_reporting_joins(monkeypatch, 2)
    report = scan_inv_lower_bound(5, 2, workers=1)
    failures = report.evidence["bound_counterexamples"]
    assert len(report.violations) == 6 and len(failures) == 34
    for entry in report.violations + failures:
        d1, d2 = entry["instances"]
        lo = solve_inv(decode(d1)).value + solve_inv(decode(d2)).value - 1
        assert entry["expected"] == f">= {lo}"
        assert entry["observed"] == solve_inv(dijoin(decode(d1), decode(d2))).value - 2 < lo
        assert (entry in report.violations) == (solve_inv(decode(d1)).value == 2)


def _record_searches(monkeypatch):
    """Record every operand search and every level loop the pair scans make."""
    operands, joins = [], []
    real_check, real_levels = explorer.check_trichotomy, explorer._levels

    def check(T, budget=None):
        operands.append(encode(T))
        return real_check(T, budget)

    def levels(D, budget, rank_pass, upper=None):
        joins.append((D, rank_pass, upper))
        return real_levels(D, budget, rank_pass, upper)

    monkeypatch.setattr(explorer, "check_trichotomy", check)
    monkeypatch.setattr(explorer, "_levels", levels)
    assert not hasattr(explorer, "solve_tmr")
    explorer._trichotomy.cache_clear()
    return operands, joins


def test_inv_bound_pair_task_searches_each_operand_once(monkeypatch):
    # each operand class is answered once, by check_trichotomy, and each join
    # question once, by one bounded level loop on the dijoin
    operands, joins = _record_searches(monkeypatch)
    report = scan_inv_lower_bound(4, 3)
    assert report.instances_checked == 8 * 4 and report.inconclusive == []
    assert sorted(operands) == sorted(e for n in range(1, 5) for e in explorer._class_encodings(n))
    questions = {
        frozenset({canonical_form(J), canonical_form(reverse(J))})
        for J in (dijoin(decode(e1), decode(e2)) for e1, e2 in explorer._class_tuples(
            [range(1, 5), range(1, 4)]))
    }
    assert len(joins) == len(questions) == len(
        {frozenset({canonical_form(J), canonical_form(reverse(J))}) for J, _, _ in joins}
    )
    assert all(not rank_pass and upper is not None for _, rank_pass, upper in joins)
    # one job: its key in, the dijoin's inv out; each component class of the
    # key is answered once, and one loop searches the n-join of the key
    operands.clear()
    joins.clear()
    explorer._trichotomy.cache_clear()
    J = dijoin(decode("3:101"), decode("5:1010110100"))
    key, _ = explorer._component_key(J)
    assert key == ("3:010", "1:", "3:010", "1:")
    assert explorer._join_task((key, False, None))[0] == solve_inv(J).value
    assert operands == ["3:010", "1:"]
    assert [encode(D) for D, _, _ in joins] == [encode(njoin([decode(e) for e in key]))]


def test_join_task_stops_at_the_operands_bound_on_a_gap_operand(monkeypatch):
    # D2 is a gap class (inv 3, tmr 2): its family merges into C3's set, so
    # both questions stop at 1 + 2 and return the replayed joined family
    gap = "10:010100000111011100001001111110010000111110100"
    returned = []
    real = explorer._levels

    def levels(D, budget, rank_pass, upper=None):
        k, family, cert = real(D, budget, rank_pass, upper)
        returned.append((rank_pass, upper[0], k, family is upper[1]))
        return k, family, cert

    monkeypatch.setattr(explorer, "_levels", levels)
    key, _ = explorer._component_key(dijoin(C3, decode(gap)))
    for rank_pass in (True, False):
        assert explorer._join_task((key, rank_pass, None))[0] == 3
    assert returned == [(True, 3, 3, True), (False, 3, 3, True)]


def test_join_task_refuses_a_searched_family_that_does_not_decycle(monkeypatch):
    # a level search that claims width 1 on the 6-vertex join C3 -> C3 with an
    # all-zero assignment: its family of one empty set flips nothing, so the
    # level loop must refuse it rather than answer 1 (inv and tmr are both 2)
    explorer._trichotomy("3:101")  # the operand, answered by the real search
    real = search._level_search

    def claims_width_1(D, m, *, counter, even=False):
        if D.n == 6 and m == 1:
            return (0,) * D.n
        return real(D, m, counter=counter, even=even)

    monkeypatch.setattr(search, "_level_search", claims_width_1)
    for rank_pass in (True, False):
        with pytest.raises(ValueError, match="does not decycle"):
            explorer._join_task((("3:101", "3:101"), rank_pass, None))


INV2_N5 = ("5:0001000010", "5:0001010000", "5:0011001000")  # every n=5 class with inv 2
GAPS_N8 = (  # n=8 classes with inv = tmr + 1 = 3
    "8:0000001000010001000011000110",
    "8:0000011000100010010010101000",
    "8:0000011000001001000010001111",
    "8:0000011000101000100101010010",
)


def test_a_gap_join_is_bounded_by_the_papers_construction():
    # inv(D1 -> D2) = inv(D1) + tmr(D2) when inv(D1) = 2, one less than
    # inv(D1) + inv(D2) for a gap class D2, in both orders.  The joined family
    # has that many sets and replays, so the bound's level is not searched:
    # each question here takes at most 10,239 nodes, under a 12,000 limit,
    # where the union of the operands' families (5 sets) took 37,314-183,864
    def replayed(key, rank_pass):
        got = explorer._join_task((key, rank_pass, 12_000))
        assert not isinstance(got, str), got
        k, family = got
        J = njoin([decode(e) for e in key])
        assert family_certificate(J, family).value == family.m
        assert rank(family_to_matrix(family)) == sum(explorer._trichotomy(e).tmr for e in key)
        return k, family.m

    for d1, gap in itertools.product(INV2_N5, GAPS_N8):
        tmr = check_trichotomy(decode(gap)).tmr
        for D in (dijoin(decode(d1), decode(gap)), dijoin(decode(gap), decode(d1))):
            key, _ = explorer._component_key(D)
            assert replayed(key, False) == (tmr + 2, tmr + 2)
    # two gap components: the first family is appended as it is and the
    # second merges into its first set, 3 + 3 - 1 sets of gram rank 2 + 2
    gap = GAPS_N8[1]
    key, _ = explorer._component_key(njoin([decode(gap), decode("1:"), decode(gap)]))
    assert replayed(key, True) == (4, 5)


def test_join_key_is_exact_for_tournaments():
    # every ordered pair of classes with n1 + n2 <= 8: the key of the dijoin
    # is the operands' keys in turn, equal keys mean isomorphic dijoins and
    # back, and the converse key is the key of the reversed dijoin
    def component_key(D):
        return explorer._component_key(D)[0]

    key_of, form_of = {}, {}
    for e1, e2 in explorer._class_tuples([range(1, 8)] * 2, 8):
        D1, D2 = decode(e1), decode(e2)
        J = dijoin(D1, D2)
        key = component_key(D1) + component_key(D2)
        assert key == component_key(J)
        converse = component_key(reverse(D2)) + component_key(reverse(D1))
        assert converse == component_key(decode(canonical_form(reverse(J))))
        form = canonical_form(J)
        assert key_of.setdefault(form, key) == key
        assert form_of.setdefault(key, form) == form
    # every tournament that is not strong is one dijoin: sum over n = 2..8 of
    # A000568(n) - A051337(n), the classes less the strong ones
    assert len(key_of) == len(form_of) == 1 + 1 + 3 + 6 + 21 + 103 + 872


def test_pair_scans_search_each_join_question_once(monkeypatch):
    # 5x5 has 400 pairs and 181 questions up to isomorphism and converse, 5x4 160 and 103
    _, joins = _record_searches(monkeypatch)
    for n1, n2, pairs, questions in ((5, 5, 400, 181), (5, 4, 160, 103)):
        joins.clear()
        assert scan_tmr_additivity(n1, n2).instances_checked == pairs
        assert len(joins) == questions
        assert all(rank_pass and upper is not None for _, rank_pass, upper in joins)


@pytest.mark.parametrize("scan", ["tmr-additivity", "verify-theorems"])
def test_a_node_limit_applies_per_join_question(scan):
    # a question that runs out marks every pair or triple that asks it, so
    # pairs with one question share its outcome; inconclusive instances keep
    # instance order and the entry format
    def join(encs):
        return njoin([decode(e) for e in encs])

    def inv(enc):
        return solve_inv(decode(enc)).value

    if scan == "tmr-additivity":
        report = scan_tmr_additivity(4, 4, node_limit=10)
        instances = list(explorer._class_tuples([range(1, 5)] * 2))

        def questions(tup):
            J = join(tup)
            return {frozenset({canonical_form(J), canonical_form(reverse(J))})}
    else:
        report = verify_dijoin_theorems(max_each=4, triple_total=8, node_limit=20)
        instances = list(explorer._class_tuples([range(1, 5)] * 2)) + list(
            explorer._class_tuples([range(1, 5)] * 3, 8)
        )

        def questions(tup):
            if len(tup) == 2:
                asked = [tup, tup[::-1]] if inv(tup[0]) <= 2 else []
            else:
                asked = [tup, tup[1:]] if {inv(tup[0]), inv(tup[1])} <= {1, 2} else []
            return {canonical_form(join(q)) for q in asked}

    position = {tup: i for i, tup in enumerate(instances)}
    out = [tuple(e["instance"]) for e in report.inconclusive]
    assert 0 < len(out) < len(instances) and out == sorted(out, key=position.get)
    assert all(set(e) == {"instance", "reason"} for e in report.inconclusive)
    # no operand runs out at these limits, so an inconclusive instance asks a
    # question that no conclusive instance asks
    answered = set().union(*(questions(tup) for tup in instances if tup not in out))
    assert all(not questions(tup) <= answered for tup in out)


def test_only_a_question_that_ran_out_leaves_an_instance_inconclusive():
    # operands are answered exactly, so at node limit 5 the search for 3:010
    # running out matters nowhere: an instance is listed exactly when one of
    # its join questions, searched as its key, runs out, with that reason
    with pytest.raises(Inconclusive):
        check_trichotomy(decode("3:010"), SearchBudget(node_limit=5))
    buf = io.StringIO()
    argv = ["verify-theorems", "--max-n", "3", "--node-limit", "5", "--json"]
    assert cli.main(argv, out=buf) == 3  # some instances are inconclusive
    report = json.loads(buf.getvalue())
    expected = []
    sizes = [range(1, 4)] * 3
    for tup in itertools.chain(explorer._class_tuples(sizes[:2]), explorer._class_tuples(sizes)):
        reps = [check_trichotomy(decode(e)) for e in tup]
        for join in explorer._theorem_questions(reps):
            key, _ = explorer._component_key(njoin([decode(tup[i]) for i in join]))
            got = explorer._join_task((key, False, 5))
            if isinstance(got, str):
                expected.append({"instance": list(tup), "reason": got})
                break
    assert report["instances_checked"] == 80 and len(expected) == 5
    assert report["evidence"]["inconclusive"] == expected
    assert ["1:", "1:", "3:010"] not in [e["instance"] for e in expected]


@pytest.mark.parametrize("node_limit", [100, 300])
def test_a_join_question_outcome_is_a_function_of_its_key(node_limit):
    # each join is searched in its key's labelling, not in that of the first
    # pair that asks it, so a pair planned alone gets the outcome it gets
    # within the whole scope, under a node limit too
    scope = {"n1": 5, "n2": 5, "max_total": None, "node_limit": node_limit}
    jobs, outcomes = explorer._pair_questions(scope, True)
    whole = outcomes([task(args) for task, args in jobs])
    assert any(isinstance(row, str) for _, row in whole)
    for pair, row in whole:
        jobs, outcomes = explorer._questions(
            [tuple(pair)], lambda reps: [(0, 1)], True, True, node_limit
        )
        assert outcomes([task(args) for task, args in jobs]) == [(pair, row)]


def test_every_operand_class_is_answered_within_a_small_search():
    # _trichotomy answers operand classes unbudgeted: every class with
    # n <= MAX_CANONICAL_N finishes within 1000 nodes (648 at most); and a
    # non-strong class's components sum to its own inv and tmr, so a join
    # question's bound from its key's components is the bound from its operands
    reports = {
        enc: check_trichotomy(decode(enc), SearchBudget(node_limit=1000))
        for n in range(1, explorer.MAX_CANONICAL_N + 1)
        for enc in explorer._class_encodings(n)
    }
    not_strong = 0
    for enc, rep in reports.items():
        key, _ = explorer._component_key(decode(enc))
        if len(key) > 1:
            not_strong += 1
            parts = [reports[c] for c in key]
            assert sum(r.inv for r in parts) == rep.inv and sum(r.tmr for r in parts) == rep.tmr
    assert len(reports) == 7412 and not_strong == 1007


# sha256 of the --json reports without "elapsed" of the 5x4 pair scans and of
# verify-theorems --max-n 4, each recorded before that scan keyed its join
# questions
PAIR_SCAN_SHA256 = {
    "tmr-additivity": "7c3c7b76ae267c4bbaac12d5b527814c335acc4656b2a428f47957524e7c430f",
    "inv-lower-bound": "d6e38bd41059f3e1461226639aba36834e34493aeb51f04c750723e3eda6cc72",
    "verify-theorems": "61d6de95f266a3eb413496b4cb4ec44b254d8a7bd03d3fb26d0eb69127c86ccc",
}


@pytest.mark.parametrize("scan", sorted(PAIR_SCAN_SHA256))
def test_pair_scan_reports_match_recorded(scan):
    if scan == "verify-theorems":
        argv = [scan, "--max-n", "4"]
    else:
        argv = ["scan", scan, "--n1", "5", "--n2", "4"]
    buf = io.StringIO()
    assert cli.main(argv + ["--json"], out=buf) == 0
    report = json.loads(buf.getvalue())
    report.pop("elapsed")
    assert hashlib.sha256(json.dumps(report).encode()).hexdigest() == PAIR_SCAN_SHA256[scan]


def test_scan_inv_lower_bound_small():
    report = scan_inv_lower_bound(3, 3)
    assert report.violations == []
    assert report.evidence["bound_counterexamples"] == []
    cells = report.evidence["equality_cells"]
    assert sum(cells.values()) == report.instances_checked


def test_reports_replay_identically():
    for report in [
        verify_dijoin_theorems(max_each=3),
        scan_tmr_additivity(3, 3),
        scan_inv_lower_bound(3, 3),
        scan_schur_3x3(n2_max=2),
    ]:
        again = replay(report)
        assert again.scope == report.scope
        assert again.instances_checked == report.instances_checked
        assert again.violations == report.violations
        assert again.evidence == report.evidence


def test_run_scan_rejects_unknown_id():
    with pytest.raises(UsageError, match="unknown scan"):
        run_scan("nope")


def test_schur_probe_block_diagonal():
    A = family_to_matrix(VertexFamily.from_sets(3, [[0, 1]]))
    M = SymMatGF2.block_diag(A, A)
    rec = schur_probe(C3, C3, M)
    assert rec.a_rank == 1
    assert rec.b_prime_decycles


def test_schur_probe_full_rank_3x3():
    # A-block of full rank: identity diagonal with one flipped pair
    flips = _decycling_flips(dijoin(C3, decode("1:")), range(4))
    M = SymMatGF2(4, [r | (0b111 & (1 << i)) for i, r in enumerate(flips)])
    rec = schur_probe(C3, decode("1:"), M)
    if rec.a_rank == 3:
        assert rec.a_prime_decycles_c3 is not None
        assert rec.a_prime_class is not None


def test_schur_probe_validates_input():
    with pytest.raises(ValueError):
        schur_probe(C3, C3, SymMatGF2.zeros(6))
    with pytest.raises(ValueError):
        schur_probe(C3, C3, SymMatGF2.zeros(5))


def test_schur_scan_sampled_matches_example():
    report = scan_schur_3x3(n2_max=3, samples=100, seed=0)
    assert report.violations == []
    # 2 classes of D1 x 4 of D2, 100 samples plus 2 optimal certificates each
    assert report.instances_checked == 102 * 8


def test_schur_scan_exhaustive_small():
    report = scan_schur_3x3(n2_max=2)
    assert all(v["name"] != "schur-rank-le-2-must-hold" for v in report.violations)
    assert all(v["name"] != "schur-safe-direction" for v in report.violations)


def test_decycling_matrix_enumeration_is_complete_and_sound():
    # every flip matrix decycles; distinct orders give distinct matrices
    T = decode("4:010011")
    masks = [_decycling_flips(T, order) for order in itertools.permutations(range(4))]
    assert len(masks) == 24 and len(set(masks)) == 24
    from invlab import is_decycling_matrix

    for mask in masks:
        M = SymMatGF2(4, mask)
        assert is_decycling_matrix(T, M)


def test_theorem_checks_reduce_oriented_operands_to_tournaments():
    # the identities hold for oriented operands as given: with the path
    # (inv 0) both dijoins keep inv(C3) = 1 (switch); C3 has inv = tmr = 1,
    # no gap, so with the 4-cycle (inv 1) both dijoins miss the lower value
    # inv(C3) and take 2 (switch and gap equivalence)
    for d1, value in (("3;0>1,1>2", 1), ("4;0>1,1>2,2>3,3>0", 2)):
        D1 = decode(d1)
        assert solve_inv(dijoin(D1, C3)).value == value == solve_inv(dijoin(C3, D1)).value


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scans_parallel_match_sequential():
    # the forked workers run first, from the caller's caches as they stand
    for scan in (
        lambda workers: verify_dijoin_theorems(max_each=3, workers=workers),
        lambda workers: scan_tmr_additivity(4, 4, workers=workers),
        lambda workers: scan_inv_lower_bound(4, 3, workers=workers),
        lambda workers: scan_schur_3x3(2, workers=workers),
    ):
        par = scan(2).to_json_dict()
        _assert_no_children()
        seq = scan(1).to_json_dict()
        assert par.pop("elapsed") > 0 and seq.pop("elapsed") > 0
        assert par == seq, par["scope"]


def test_fan_out_keeps_job_order():
    # over _MAX_TOKENS jobs a token claims a run; more workers than jobs
    # fork one child per job beyond the caller's; no jobs fork nothing
    for count, workers in ((3 * explorer._MAX_TOKENS + 5, 3), (2, 5), (0, 1), (0, 2)):
        jobs = [(lambda i: {"index": i}, i) for i in range(count)]
        assert explorer._fan_out(jobs, workers) == [{"index": i} for i in range(count)]
        _assert_no_children()


def _fold(report, results):
    pass


@pytest.mark.parametrize("failure, error, text", [
    (lambda: ValueError("job failed in a worker"), ValueError, "job failed in a worker"),
    (lambda: explorer.Inconclusive(1, "x"), explorer.Inconclusive, "value >= 1"),
    (lambda: os._exit(3), RuntimeError, "exited without sending its results"),
])
def test_a_worker_failure_raises_from_scan(tmp_path, failure, error, text):
    caller = os.getpid()
    claimed = tmp_path / "claimed"

    def task(i):
        if os.getpid() != caller:
            claimed.touch()
            raise failure()
        # the caller holds its first job until the worker has claimed one
        deadline = time.monotonic() + 30
        while not claimed.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return i, None

    with pytest.raises(error, match=text) as info:
        explorer._scan({}, lambda: ([(task, i) for i in range(20)], list), 2, _fold)
    _assert_no_children()
    if error is explorer.Inconclusive:
        assert (info.value.lower, info.value.reason) == (1, "x")
        assert "raised in scan worker" in info.value.__notes__[0]


def test_a_caller_failure_kills_the_workers():
    caller = os.getpid()

    def task(i):
        if os.getpid() == caller:
            raise ValueError("job failed in the caller")
        time.sleep(60)

    started = time.perf_counter()
    with pytest.raises(ValueError, match="failed in the caller"):
        explorer._scan({}, lambda: ([(task, i) for i in range(4)], list), 3, _fold)
    _assert_no_children()
    assert time.perf_counter() - started < 30


def test_internal_schur_probe_matches_public_probe():
    from invlab.explorer import _schur_probe

    D1, D2 = C3, decode("2:1")
    J = dijoin(D1, D2)
    for order in itertools.permutations(range(J.n)):
        flips = _decycling_flips(J, order)
        for diag in range(1 << D1.n):
            rows = [r | (diag & (1 << i)) for i, r in enumerate(flips)]
            # the validating constructor accepts every enumerated matrix
            M = SymMatGF2(J.n, rows)
            assert _schur_probe(D1, D2, J, M) == schur_probe(D1, D2, M)


def test_nth_order_matches_permutations():
    for n in range(8):
        for k, order in enumerate(itertools.permutations(range(n))):
            assert explorer._nth_order(n, k) == order


def test_sampled_schur_pair_task_at_the_largest_n2():
    # J has 11 vertices and 11! orders; a sample draws each order by index
    D2 = Tournament(8, random.Random(8).getrandbits(28))
    pair, records = explorer._schur_pair_task(("3:101", encode(D2), 10, 0))
    assert pair == ["3:101", encode(D2)] and len(records) == 10 + 2
    # the scan's pointwise checks: B' decycles at rank <= 2, else A' decycles C3
    assert all(b_ok or (rank == 3 and c3) for rank, b_ok, c3, _ in records)


def test_schur_pair_task_enumerated_tallies():
    from collections import Counter

    from invlab.explorer import _class_encodings, _schur_pair_task

    tally = Counter()
    for e1 in _class_encodings(3):
        for n2 in range(1, 4):
            for e2 in _class_encodings(n2):
                # the last two records per pair probe solver witnesses; skip them
                tally.update(_schur_pair_task((e1, e2, 100, 0))[1][:-2])
    # (a_rank, B' decycles, A' decycles C3, A' class) -> count, 100 samples x 8 pairs
    assert tally == {
        (0, True, None, None): 13,
        (1, True, None, None): 95,
        (2, True, None, None): 365,
        (3, False, True, 12): 2,
        (3, False, True, 13): 2,
        (3, False, True, 26): 1,
        (3, False, True, 27): 2,
        (3, True, False, 7): 10,
        (3, True, False, 57): 28,
        (3, True, True, 12): 34,
        (3, True, True, 13): 90,
        (3, True, True, 26): 60,
        (3, True, True, 27): 65,
        (3, True, True, 31): 33,
    }
