import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from invlab import UsageError, explorer
from invlab.cli import main
from invlab.explorer import run_scan


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_inv_c3():
    code, text = run_cli("inv", "3:101")
    assert code == 0
    assert "inv = 1" in text
    assert "family:" in text and "order:" in text


def test_tmr_transitive():
    code, text = run_cli("tmr", "3:111")
    assert code == 0
    assert "tmr = 0" in text


def test_inv_json_certificate_checks_back(tmp_path):
    code, text = run_cli("inv", "3:101", "--json")
    assert code == 0
    cert = json.loads(text)
    assert cert["schema"] == "invlab.certificate/1"
    assert cert["kind"] == "family" and cert["value"] == 1
    path = tmp_path / "cert.json"
    path.write_text(text)
    code, text = run_cli("check", "3:101", "--cert", str(path))
    assert code == 0 and "certificate ok" in text


def test_check_rejects_wrong_certificate(tmp_path):
    code, text = run_cli("tmr", "3:101", "--json")
    cert = json.loads(text)
    cert["value"] = 0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert))
    code, text = run_cli("check", "3:101", "--cert", str(path))
    assert code == 1 and "FAILED" in text


@pytest.mark.parametrize(
    "cert,field",
    [
        ({"kind": "matrix", "value": 1, "order": [0, 1, 2]}, "'matrix'"),
        ({"kind": "family", "family": [[0, 1]], "value": 1}, "'order'"),
        ({"kind": "matrix", "matrix": [[0, 0, 0]] * 3, "order": [0, 1, 2]}, "'value'"),
        ({"kind": "family", "value": 1}, "'family'"),
        ({"kind": "sets", "value": 1, "order": []}, "'sets'"),
        ([1, 2], "object"),
        ({"kind": "family", "family": 1, "value": 1, "order": [1, 2, 0]}, "'family'"),
        ({"kind": "family", "family": [[0, "a"]], "value": 1, "order": [1, 2, 0]}, "'family'"),
        ({"kind": "family", "family": [[0, 1]], "value": "x", "order": [1, 2, 0]}, "'value'"),
        ({"kind": "family", "family": [[0, 1]], "value": 1, "order": 5}, "'order'"),
        ({"kind": "family", "family": [[0, 1]], "n": "3", "value": 1, "order": [1, 2, 0]}, "'n'"),
        ({"kind": "matrix", "matrix": 7, "value": 1, "order": [1, 2, 0]}, "'matrix'"),
        ({"kind": "matrix", "matrix": [[1, 1, 0], [1, 1, "0"], [0, 0, 0]], "value": 1,
          "order": [1, 2, 0]}, "'matrix'"),
        ({"kind": "matrix", "matrix": [[1, 1, 0], [1, 1, 0], [0, 0, 0]], "value": [1],
          "order": [1, 2, 0]}, "'value'"),
        ({"kind": "matrix", "matrix": [[1, 1, 2], [1, 1, 0], [2, 0, 0]], "value": 1,
          "order": [1, 2, 0]}, "'matrix'"),
        # a ragged matrix: short rows are refused, not padded with zeros
        ({"kind": "matrix", "matrix": [[0, 1, 1], [1], [1]], "value": 2,
          "order": [1, 0, 2]}, "'matrix'"),
    ],
)
def test_check_malformed_certificate_names_the_field(tmp_path, cert, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert))
    code, text = run_cli("check", "3:101", "--cert", str(path))
    assert code == 2 and field in text


@pytest.mark.parametrize("graph, cert", [
    ("4:101111", {"kind": "family", "family": [[0, 1]], "value": 1, "order": [1, 2, 0, 3]}),
    ("4:111111", {"kind": "family", "family": [], "value": 0, "order": [0, 1, 2, 3]}),
])
def test_family_certificate_states_its_vertex_count(tmp_path, graph, cert):
    # the sets alone do not give n: a vertex in no set, or no set at all
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, text = run_cli("check", graph, "--cert", str(path))
    assert code == 2 and "'n'" in text, text
    path.write_text(json.dumps({**cert, "n": 4}))
    assert run_cli("check", graph, "--cert", str(path)) == (0, "certificate ok\n")


@pytest.mark.parametrize(
    "content",
    [b"", b'{"kind": "family", "fam', b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
    ids=["empty", "truncated", "not-utf8", "too-deep"],
)
def test_check_certificate_that_is_not_json_names_the_flag(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, text = run_cli("check", "3:101", "--cert", str(path))
    assert code == 2 and text.startswith(f"error: --cert {path} is not JSON (")


def test_check_unreadable_certificate_is_a_usage_error(tmp_path):
    code, text = run_cli("check", "3:101", "--cert", str(tmp_path))
    assert code == 2 and text.startswith("error:") and str(tmp_path) in text


def test_dijoin_njoin_commands():
    code, text = run_cli("dijoin", "3:101", "3:101")
    assert code == 0 and text.strip() == "6:101111111111101"
    code, text = run_cli("njoin", "1:", "1:", "1:")
    assert code == 0 and text.strip() == "3:111"


def test_extend_command():
    code, text = run_cli("extend", "3;0>1,1>2", "--family", "[]")
    assert code == 0 and text.strip() == "3:111"
    code, text = run_cli("extend", "3:101", "--family", "[]")
    assert code == 1 and "error" in text


def test_enumerate_command():
    code, text = run_cli("enumerate", "3", "--iso")
    assert code == 0 and len(text.strip().splitlines()) == 2
    code, text = run_cli("enumerate", "3")
    assert len(text.strip().splitlines()) == 8


def test_commands_take_only_the_options_they_read():
    assert run_cli("enumerate", "3", "--json")[0] == 2
    assert run_cli("canonical", "3:101", "--node-limit", "5")[0] == 2
    assert run_cli("inv", "3:101", "--seed", "1")[0] == 2
    assert run_cli("verify-theorems", "--seed", "1")[0] == 2


def test_canonical_command():
    code, a = run_cli("canonical", "3:101")
    _, b = run_cli("canonical", "3:110")
    assert code == 0
    assert a != b  # C3 and a transitive relabeling differ


def test_verify_theorems_small():
    code, text = run_cli("verify-theorems", "--max-n", "3")
    assert code == 0
    assert "violations         0" in text


def test_scan_command_json():
    code, text = run_cli("scan", "tmr-additivity", "--n1", "3", "--n2", "3", "--json")
    assert code == 0
    report = json.loads(text)
    assert report["schema"] == "invlab.scan-report/1"
    assert report["violations"] == []
    assert report["scope"]["scan"] == "tmr-additivity"


def test_scan_schur_sampled():
    code, text = run_cli("scan", "schur-3x3", "--n2", "2", "--budget", "50", "--seed", "7")
    assert code == 0


def test_scan_budget_flags_are_explicit():
    for conjecture in ("tmr-additivity", "inv-lower-bound"):
        code, text = run_cli("scan", conjecture, "--n1", "2", "--n2", "2",
                             "--budget", "100", "--node-limit", "100")
        assert code == 2 and "--budget" in text and "--node-limit" in text
        code, _ = run_cli("scan", conjecture, "--n1", "2", "--n2", "2", "--node-limit", "100")
        assert code == 0
    code, text = run_cli("scan", "schur-3x3", "--n2", "2", "--node-limit", "100")
    assert code == 2 and "--node-limit" in text


def test_exhaustive_schur_scope_past_n2_5_is_refused():
    # an exhaustive n2 = 6 scope would run for hours; a sampled one of the
    # same size is accepted, and so is the exhaustive n2 = 5 scope (not run)
    for n2 in ("6", "8"):
        code, text = run_cli("scan", "schur-3x3", "--n2", n2)
        assert code == 2 and "--n2" in text and "--budget" in text, text
    with pytest.raises(ValueError, match="use n2_max 5 or less, or sample each pair with samples"):
        run_scan("schur-3x3", n2_max=6)
    code, text = run_cli("scan", "schur-3x3", "--n2", "6", "--budget", "1", "--json")
    assert code == 0 and json.loads(text)["scope"]["n2_max"] == 6


def test_unbudgeted_theorem_scope_past_14_vertices_is_refused(monkeypatch):
    # --max-n 5 builds three-joins of 15 vertices, which would run for hours
    # without a node limit; with one the same scope runs
    code, text = run_cli("verify-theorems", "--max-n", "5")
    assert code == 2 and "--max-n" in text and "--node-limit" in text, text
    with pytest.raises(ValueError, match="use max_each 4 or less, .* with node_limit"):
        run_scan("dijoin-theorems", max_each=5)
    # without max_each the totals bound each operand, by MAX_CANONICAL_N = 8
    with pytest.raises(ValueError, match="^max_total = 15 exceeds MAX_CANONICAL_N"):
        run_scan("dijoin-theorems", max_total=15)
    code, text = run_cli("verify-theorems", "--max-n", "5", "--node-limit", "1", "--json")
    assert code == 3 and json.loads(text)["scope"]["triple_total"] == 15
    # scopes of at most 14 vertices are accepted (planned, not run here); a
    # max_total of 14 needs a max_each, since no class has more than 8 vertices
    monkeypatch.setattr(explorer, "_scan", lambda *args: "accepted")
    for params in ({"max_each": 5, "triple_total": 14}, {"max_total": 14, "max_each": 8},
                   {"max_each": 4}, {"max_total": 8, "triple_total": 8}):
        assert run_scan("dijoin-theorems", **params) == "accepted", params


def test_scan_flags_the_scan_does_not_read_are_refused():
    code, text = run_cli("scan", "schur-3x3", "--n1", "6", "--n2", "2")
    assert code == 2 and "--n1" in text, text
    for conjecture in ("tmr-additivity", "inv-lower-bound"):
        code, text = run_cli("scan", conjecture, "--n1", "3", "--n2", "3", "--seed", "5")
        assert code == 2 and "--seed" in text, text
    # schur-3x3 without --seed keeps seed 0 in its scope
    code, text = run_cli("scan", "schur-3x3", "--n2", "2", "--budget", "1", "--json")
    assert code == 0 and json.loads(text)["scope"]["seed"] == 0


def test_budget_is_only_the_schur_sample_count():
    code, text = run_cli("scan", "tmr-additivity", "--n1", "2", "--n2", "2", "--budget", "100")
    assert code == 2 and "--budget" in text and "--node-limit" in text


@pytest.mark.parametrize("argv, flag", [
    (["scan", "schur-3x3", "--n2", "2", "--budget", "-5"], "--budget"),
    (["verify-theorems", "--max-n", "-1"], "--max-n"),
    (["scan", "tmr-additivity", "--n1", "-1"], "--n1"),
    (["scan", "inv-lower-bound", "--n2", "-2"], "--n2"),
    (["scan", "tmr-additivity", "--n1", "2", "--n2", "2", "--workers", "-2"], "--workers"),
    (["verify-theorems", "--workers", "0"], "--workers"),
    (["inv", "3:101", "--node-limit", "-1"], "--node-limit"),
    # operand sizes past the isomorphism classes name their flag too
    (["verify-theorems", "--max-n", "9"], "--max-n"),
    (["scan", "tmr-additivity", "--n1", "9"], "--n1"),
    (["scan", "schur-3x3", "--n2", "9"], "--n2"),
    (["inv", "3:101", "--workers", "0"], "--workers"),
    # a size cap of 0 lists no instance, and would report no violations
    (["verify-theorems", "--max-n", "0"], "--max-n"),
    (["scan", "inv-lower-bound", "--n1", "0"], "--n1"),
    (["scan", "schur-3x3", "--n2", "0"], "--n2"),
])
def test_negative_counts_are_usage_errors(argv, flag):
    # the library refuses the value; the CLI names the flag that set it
    code, text = run_cli(*argv)
    assert code == 2
    if "9" in argv:
        bound = "<= 8"
    else:
        bound = ">= 0" if flag in ("--budget", "--node-limit") else ">= 1"
    assert text.startswith(f"error: argument {flag}: ") and bound in text, text


@pytest.mark.parametrize("call, refused", [
    (lambda: explorer.scan_tmr_additivity(2, 2, workers=0), "workers must be >= 1, got 0"),
    (lambda: explorer.verify_dijoin_theorems(max_each=0), "max_each must be >= 1, got 0"),
    (lambda: explorer.scan_inv_lower_bound(n1=0), "n1 must be >= 1, got 0"),
    (lambda: explorer.scan_tmr_additivity(n2=0), "n2 must be >= 1, got 0"),
    (lambda: explorer.scan_schur_3x3(n2_max=0), "n2_max must be >= 1, got 0"),
])
def test_library_refusals_are_usage_errors(monkeypatch, call, refused):
    monkeypatch.setattr(explorer, "_fan_out", lambda *args: pytest.fail("the scan started"))
    with pytest.raises(UsageError, match=f"^{refused}$") as info:
        call()
    assert info.value.param == refused.split()[0]


def test_usage_errors_name_the_input():
    code, text = run_cli("inv", "3:10z")
    assert code == 2 and "'z'" in text
    code, _ = run_cli("nonsense")
    assert code == 2
    code, text = run_cli("tmr", "3;0>1")
    assert code == 2 and "not a tournament" in text
    code, text = run_cli("enumerate", "9", "--iso")
    assert code == 2 and "n <= 8" in text
    code, text = run_cli("canonical", "3;0>1")
    assert code == 2
    for family, token in (("{}", "{}"), ("[[true]]", "True"), ("[[0.5]]", "0.5")):
        code, text = run_cli("extend", "3;0>1", "--family", family)
        assert code == 2 and "--family" in text and token in text, family


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("fault", [ValueError, TypeError])
def test_a_fault_inside_a_scan_job_is_not_a_usage_error(monkeypatch, tmp_path, fault, workers):
    # a bug inside a join job surfaces with its traceback instead of reading
    # as a mistyped flag; with two workers the caller holds its first job
    # until the worker has claimed one, so the worker's fault is the one raised
    caller = os.getpid()
    claimed = tmp_path / "claimed"
    join_task = explorer._join_task

    def task(args):
        if workers == "1" or os.getpid() != caller:
            claimed.touch()
            raise fault("bug inside a join job")
        deadline = time.monotonic() + 30
        while not claimed.exists() and time.monotonic() < deadline:
            time.sleep(0.001)
        return join_task(args)

    monkeypatch.setattr(explorer, "_join_task", task)
    with pytest.raises(fault, match="bug inside a join job") as info:
        run_cli("scan", "tmr-additivity", "--n1", "2", "--n2", "2", "--workers", workers)
    if workers == "2":
        assert "raised in scan worker" in info.value.__notes__[0]
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


# graph text from the codec's alphabet (no '-', which argparse reads as an
# option and the solve commands as stdin), and well-formed graphs
_WELL_FORMED = st.sampled_from(["3:101", "3:111", "4:101101", "5:1010110100", "0:", "3;0>1",
                                "4;0>1,1>2,2>0,2>3"])
_GRAPHS = st.one_of(st.text(alphabet="0123456789:;>,x ", max_size=10), _WELL_FORMED)
_FIELDS = ("kind", "family", "matrix", "value", "order", "n")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.floats(-2, 9) | st.text("01a", max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_FIELDS), inner),
    max_leaves=12,
)
_CERTS = st.one_of(
    st.binary(max_size=12),
    _JSON.map(lambda x: json.dumps(x).encode()),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["family", "matrix", "sets"])},
        optional={name: _JSON for name in _FIELDS[1:]},
    ).map(lambda x: json.dumps(x).encode()),
)
_COUNTS = st.sampled_from(["-1", "0", "1", "2", "9"])


def _flags(draw, *names):
    """Some of the flags named, each with a drawn count."""
    return [arg for name in names if draw(st.booleans()) for arg in (name, draw(_COUNTS))]


@st.composite
def _invocations(draw):
    """(argv, certificate file bytes or None) for one command with malformed or odd input."""
    command = draw(st.sampled_from(["inv", "tmr", "check", "dijoin", "njoin", "extend",
                                    "enumerate", "canonical", "verify-theorems", "scan"]))
    graph = draw(_GRAPHS)
    if command in ("inv", "tmr"):
        return [command, graph, "--node-limit", draw(st.sampled_from(["-1", "0", "30"]))], None
    if command == "check":
        return [command, draw(_WELL_FORMED), "--cert"], draw(_CERTS)
    if command == "dijoin":
        return [command, graph, draw(_GRAPHS)], None
    if command == "njoin":
        return [command, graph, *draw(st.lists(_GRAPHS, max_size=2))], None
    if command == "extend":
        family = draw(st.one_of(_JSON.map(json.dumps), st.text("[]0123, x", max_size=8)))
        return [command, draw(_WELL_FORMED), "--family", family], None
    if command == "enumerate":
        n = draw(st.sampled_from(["-2", "0", "3", "9"]))
        return [command, n, *draw(st.sampled_from([[], ["--iso"]]))], None
    if command == "canonical":
        return [command, graph], None
    if command == "verify-theorems":
        return [command, *_flags(draw, "--max-n", "--node-limit", "--workers")], None
    # schur-3x3 stays sampled: an exhaustive pair at n2 >= 2 takes a while
    scan = draw(st.sampled_from(["tmr-additivity", "inv-lower-bound", "schur-3x3"]))
    flags = _flags(draw, "--n1", "--n2", "--node-limit", "--seed", "--workers")
    budget = ["--budget", draw(st.sampled_from(["-1", "0", "2"]))]
    return ["scan", scan, *flags, *(budget if scan == "schur-3x3" else [])], None


@seed(28)
@settings(deadline=None, max_examples=400, database=None)
@given(_invocations())
def test_malformed_input_is_a_usage_error_naming_it(invocation):
    # no exception escapes main; an exit 2 names the graph token, the
    # certificate field, the flag, or (a join past 64 vertices) the vertex count
    argv, cert = invocation
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        if cert is not None:
            path = os.path.join(tmp, "cert.json")
            with open(path, "wb") as fh:
                fh.write(cert)
            argv = argv + [path]
        code, text = run_cli(*argv)
    text += err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, text)
    if code == 2:
        names = [a for a in argv if a.startswith("--") or (a.strip() and a in text)]
        names += ["token '", "arc ", "vertex count", "n must be", "n = ", "object"]
        names += [f"'{field}'" for field in _FIELDS]
        assert any(name in text for name in names), (argv, text)


def test_tmr_certificate_checks_back(tmp_path):
    code, text = run_cli("tmr", "5:1010110100", "--json")
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(text)
    code, text = run_cli("check", "5:1010110100", "--cert", str(path))
    assert code == 0 and "certificate ok" in text


def test_inconclusive_exit_code():
    code, text = run_cli("inv", "6:101111111111101", "--node-limit", "2")
    assert code == 3 and "inconclusive" in text
    # --workers does not drop the budget of a single solve
    for kind in ("inv", "tmr"):
        code, text = run_cli(kind, "6:101111111111101", "--workers", "2", "--node-limit", "2")
        assert code == 3 and "node limit 2 reached" in text


def test_stdin_batch(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3:101\n3:111\n"))
    code, text = run_cli("inv", "-")
    assert code == 0
    assert text.count("inv = ") == 2


# a batch whose second line runs out of an 8-node search and whose third is
# not a tournament: inv goes on past both, tmr stops at the third
_BATCH = "3:101\n6:101111111111101\n4;0>1,1>2,2>0,2>3\n5:1010110100\n"
_RUNS_OUT = (" inconclusive for 6:101111111111101:"
             " inconclusive (node limit 8 reached at level 1); value >= 1")
_FAMILY_JSON = ('{"schema": "invlab.certificate/1", "kind": "family", "value": 1,'
                ' "family": [[1, 2]], "n": %d, "order": %s}')
_MATRIX_JSON = ('{"schema": "invlab.certificate/1", "kind": "matrix", "value": 1,'
                ' "matrix": [[0, 0, 0], [0, 1, 1], [0, 1, 1]], "order": [2, 0, 1]}')
_NOT_A_TOURNAMENT = "error: 4;0>1,1>2,2>0,2>3 is not a tournament"


@pytest.mark.parametrize("argv, code, lines", [
    (["inv"], 3, [
        "inv = 1", "family: [[1, 2]]", "order: [2, 0, 1]",
        "inv" + _RUNS_OUT,
        "inv = 1", "family: [[1, 2]]", "order: [2, 0, 1, 3]",
        "inv = 1", "family: [[1, 2]]", "order: [4, 2, 0, 1, 3]",
    ]),
    (["inv", "--json"], 3, [
        _FAMILY_JSON % (3, "[2, 0, 1]"),
        "inv" + _RUNS_OUT,
        _FAMILY_JSON % (4, "[2, 0, 1, 3]"),
        _FAMILY_JSON % (5, "[4, 2, 0, 1, 3]"),
    ]),
    (["tmr"], 2, [
        "tmr = 1", "matrix: [[0, 0, 0], [0, 1, 1], [0, 1, 1]]", "order: [2, 0, 1]",
        "min-rank matrix with nonzero diagonal exists: True",
        "tmr" + _RUNS_OUT,
        _NOT_A_TOURNAMENT,
    ]),
    (["tmr", "--json"], 2, [_MATRIX_JSON, "tmr" + _RUNS_OUT, _NOT_A_TOURNAMENT]),
])
def test_solve_batch_output(monkeypatch, argv, code, lines):
    monkeypatch.setattr("sys.stdin", io.StringIO(_BATCH))
    assert run_cli(argv[0], "-", "--node-limit", "8", *argv[1:]) == (code, "\n".join(lines) + "\n")


def test_byte_identical_reruns():
    first = run_cli("inv", "5:1011010110")
    second = run_cli("inv", "5:1011010110")
    assert first == second
    a = run_cli("scan", "inv-lower-bound", "--n1", "3", "--n2", "3", "--json")
    b = run_cli("scan", "inv-lower-bound", "--n1", "3", "--n2", "3", "--json")
    # elapsed differs between runs; everything else is byte-identical
    ja, jb = json.loads(a[1]), json.loads(b[1])
    ja.pop("elapsed"), jb.pop("elapsed")
    assert a[0] == b[0] and ja == jb


def test_python_m_invlab_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "invlab", "inv", "3:101"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "inv = 1" in proc.stdout


def test_importing_the_cli_loads_no_process_pool():
    # explorer._scan forks its workers itself, so neither importing the CLI
    # nor a two-worker scan loads the pool machinery
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    heavy = ("concurrent.futures", "multiprocessing", "logging")
    scan = ["scan", "tmr-additivity", "--n1", "3", "--n2", "3", "--workers", "2"]
    for code in ("import invlab.cli", f"import invlab.cli, io; invlab.cli.main({scan!r}, io.StringIO())"):
        proc = subprocess.run(
            [sys.executable, "-c",
             f"{code}; import sys; print([m for m in {heavy!r} if m in sys.modules])"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", code


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # the records are NamedTuples and ScanReport a __slots__ class: dataclasses
    # would bring inspect, ast, dis and tokenize into every process's start-up.
    # -S keeps site and what its .pth files import out of the count
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import invlab, invlab.cli; "
            "print([m for m in ('dataclasses', 'inspect') if m in sys.modules])")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_one_worker_scan_loads_no_pickle():
    # one worker runs the fan-out loop but forks nothing, so it has no
    # results to unpickle
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    scan = ["scan", "tmr-additivity", "--n1", "3", "--n2", "3", "--workers", "1"]
    code = (f"import invlab.cli, io, sys; invlab.cli.main({scan!r}, io.StringIO()); "
            "print('pickle' in sys.modules)")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
