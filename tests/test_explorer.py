import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from invlab import (
    SymMatGF2,
    Tournament,
    canonical_form,
    decode,
    dijoin,
    encode,
    enumerate_tournaments,
    family_to_matrix,
    replay,
    run_scan,
    scan_inv_lower_bound,
    scan_schur_3x3,
    scan_tmr_additivity,
    schur_probe,
    solve_inv,
    verify_dijoin_theorems,
    VertexFamily,
)
from invlab import explorer
from invlab.explorer import _decycling_flips, _dijoin_pair_task, _tmr_result
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


def test_dijoin_pair_task_reads_d2_off_one_search():
    # D2 has inv 3 and tmr 2, so inv2 must come from the tmr search's
    # even-weight pass, of width 3; no class with n <= 7 has a gap
    gap = "10:010100000111011100001001111110010000111110100"
    assert _tmr_result(gap) == (2, False, 3)
    out = _dijoin_pair_task(("3:101", gap, None))
    checks = {c["name"]: (c["expected"], c["observed"]) for c in out["checks"]}
    assert checks == {"dijoin-switch": (3, 3), "dijoin-gap-equivalence": (True, True)}
    # an exhausted budget on D2 is recorded once
    out = _dijoin_pair_task(("3:101", gap, 5))
    assert [e["instance"] for e in out["inconclusive"]] == ["3:101", gap]


def test_dijoin_pair_task_records_each_inconclusive_dijoin_once():
    # three checks read inv(D1 -> D2); an exhausted budget on it is one entry
    out = _dijoin_pair_task(("3:010", "4:001000", 30))
    instances = [e["instance"] for e in out["inconclusive"]]
    assert instances.count("7:011111011111111001000") == 1
    assert len(instances) == len(set(instances))


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


def test_inv_bound_pair_task_searches_each_operand_once(monkeypatch):
    # inv of each operand is read off its rank-pass search, so solve_inv sees
    # only the dijoin
    solved = []
    real = explorer.solve_inv

    def recording(D, budget=None):
        solved.append(encode(D))
        return real(D, budget)

    monkeypatch.setattr(explorer, "solve_inv", recording)
    explorer._inv_value.cache_clear()
    explorer._tmr_result.cache_clear()
    enc1, enc2 = "3:101", "5:1010110100"
    out = explorer._inv_bound_pair_task((enc1, enc2, None))
    assert out["inconclusive"] == []
    assert (out["inv1"], out["inv2"]) == (real(decode(enc1)).value, real(decode(enc2)).value)
    assert solved == [encode(dijoin(decode(enc1), decode(enc2)))]


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
    with pytest.raises(ValueError, match="unknown scan"):
        run_scan("nope")


def test_schur_probe_block_diagonal():
    A = family_to_matrix(VertexFamily.from_sets(3, [[0, 1]]))
    M = SymMatGF2.block_diag(A, A)
    rec = schur_probe(C3, C3, M)
    assert rec.cross_zero
    assert rec.b_prime_decycles
    assert rec.a_prime_decycles_induced


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
    from invlab.explorer import _dijoin_pair_task

    # the identities hold for oriented operands as given
    res = _dijoin_pair_task(("3;0>1,1>2", "3:101", None))
    assert res["inconclusive"] == []
    for chk in res["checks"]:
        assert chk["expected"] == chk["observed"]

    res = _dijoin_pair_task(("4;0>1,1>2,2>3,3>0", "3:101", None))
    assert all(c["expected"] == c["observed"] for c in res["checks"])


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
    # fork one child per job beyond the caller's
    for count, workers in ((3 * explorer._MAX_TOKENS + 5, 3), (2, 5)):
        jobs = [(lambda i: {"index": i}, i) for i in range(count)]
        assert explorer._fan_out(jobs, workers) == [{"index": i} for i in range(count)]
        _assert_no_children()


def _fold(report, results):
    pass


@pytest.mark.parametrize("failure, error, text", [
    (lambda: ValueError("job failed in a worker"), ValueError, "job failed in a worker"),
    # Inconclusive does not unpickle from its args, so its traceback comes back as text
    (lambda: explorer.Inconclusive(1, None, "x"), RuntimeError, "Inconclusive: inconclusive"),
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
        return {"inconclusive": []}

    with pytest.raises(error, match=text):
        explorer._scan({}, [(task, i) for i in range(20)], 2, _fold)
    _assert_no_children()


def test_a_caller_failure_kills_the_workers():
    caller = os.getpid()

    def task(i):
        if os.getpid() == caller:
            raise ValueError("job failed in the caller")
        time.sleep(60)

    started = time.perf_counter()
    with pytest.raises(ValueError, match="failed in the caller"):
        explorer._scan({}, [(task, i) for i in range(4)], 3, _fold)
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


def test_schur_pair_task_enumerated_tallies():
    from collections import Counter

    from invlab.explorer import _class_encodings, _schur_pair_task

    tally = Counter()
    for e1 in _class_encodings(3):
        for n2 in range(1, 4):
            for e2 in _class_encodings(n2):
                # the last two records per pair probe solver witnesses; skip them
                tally.update(_schur_pair_task((e1, e2, 100, 0))["records"][:-2])
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
