import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from invlab.cli import main


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
    ],
)
def test_check_malformed_certificate_names_the_field(tmp_path, cert, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cert))
    code, text = run_cli("check", "3:101", "--cert", str(path))
    assert code == 2 and field in text


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
])
def test_negative_counts_are_usage_errors(capsys, argv, flag):
    code, _ = run_cli(*argv)
    assert code == 2
    assert f"argument {flag}: must be >= " in capsys.readouterr().err


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
