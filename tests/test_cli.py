"""Golden-output and exit-code tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import apsquares.cli as cli
from apsquares.search import SearchReport


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "apsquares", *args],
        capture_output=True,
        text=True,
        env=env,
    )


GOLDEN = [
    (
        ("classify", "--p", "7"),
        '{"legendre3":-1,"mod12":7,"p":7}\n',
    ),
    (
        ("legendre", "--a", "3", "--p", "5"),
        '{"a":3,"p":5,"symbol":-1}\n',
    ),
    (
        ("sqrtmod", "--a", "3", "--p", "11"),
        '{"a":3,"p":11,"roots":[5,6]}\n',
    ),
    (
        ("sum", "--k", "24"),
        '{"k":24,"sum":300,"sum_sq":4900}\n',
    ),
    (
        ("check", "--n", "18", "--d", "1", "--k", "11"),
        '{"d":1,"floor_root":77,"k":11,"n":18,"root":77,"sum":5929}\n',
    ),
    (
        ("verify", "--p", "5", "--max-n", "200", "--max-d", "200"),
        '{"max_d":200,"max_n":200,"p":5,"solutions":[],"windows":40000}\n',
    ),
    (
        ("trace", "--n", "1", "--d", "1", "--k", "3"),
        '{"d":1,"details":{"quotient":14,"quotient_mod_3":2,"sum":14,"valuation":0},'
        '"k":3,"n":1,"obstruction":"MOD3_QUOTIENT","prime":3,'
        '"splits":{"d":{"unit":1,"valuation":0},"n":{"unit":1,"valuation":0}}}\n',
    ),
    (
        ("search", "--k", "11", "--max-n", "50", "--max-d", "1", "--format", "csv"),
        "k,n,d,t\n11,18,1,77\n11,38,1,143\n",
    ),
    (
        ("verify", "--p", "5", "--max-n", "20", "--max-d", "20", "--format", "csv"),
        "k,n,d,t\n",
    ),
    (
        ("classify", "--p", "7", "--format", "csv"),
        "p,mod12,legendre3\n7,7,-1\n",
    ),
    (
        ("legendre", "--a", "3", "--p", "5", "--format", "csv"),
        "a,p,symbol\n3,5,-1\n",
    ),
    (
        ("sqrtmod", "--a", "2", "--p", "17", "--format", "csv"),
        "a,p,root_small,root_large\n2,17,6,11\n",
    ),
    (
        ("sum", "--k", "24", "--format", "csv"),
        "k,sum,sum_sq\n24,300,4900\n",
    ),
    (
        ("check", "--n", "1", "--d", "1", "--k", "3", "--format", "csv"),
        "n,d,k,sum,floor_root,root\n1,1,3,14,3,\n",
    ),
    (
        ("trace", "--n", "1", "--d", "1", "--k", "3", "--format", "csv"),
        "n,d,k,prime,obstruction,valuation,quotient\n1,1,3,3,MOD3_QUOTIENT,0,14\n",
    ),
    (
        ("trace", "--n", "5", "--d", "5", "--k", "5", "--format", "csv"),
        "n,d,k,prime,obstruction,valuation,quotient\n5,5,5,5,VALUATION_PARITY,3,\n",
    ),
]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_outputs_byte_identical_across_runs(argv, expected):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == 0, first.stderr
    assert first.stdout == expected
    assert second.stdout == first.stdout


def test_search_json_payload():
    proc = run_cli("search", "--k", "11", "--max-n", "50", "--max-d", "1")
    data = json.loads(proc.stdout)
    assert data["solutions"] == [[18, 1, 77], [38, 1, 143]]
    assert data["sieve"] is False
    assert data["windows"] == 50


def test_search_sieve_flag_prunes_without_changing_solutions():
    plain = json.loads(run_cli("search", "--k", "11", "--max-n", "60", "--max-d", "10").stdout)
    sieved = json.loads(
        run_cli("search", "--k", "11", "--max-n", "60", "--max-d", "10", "--sieve").stdout
    )
    assert sieved["solutions"] == plain["solutions"]
    assert sieved["sieve"] is True
    assert sieved["windows"] < plain["windows"]


def test_trace_valuation_parity_for_nonresidue_prime():
    data = json.loads(run_cli("trace", "--n", "5", "--d", "5", "--k", "5").stdout)
    assert data["obstruction"] == "VALUATION_PARITY"
    assert data["details"]["valuation"] == 3
    assert data["splits"]["n"] == {"unit": 1, "valuation": 1}


def test_big_integers_render_as_decimal_strings():
    n = 2**60
    proc = run_cli("check", "--n", str(n), "--d", "1", "--k", "3")
    data = json.loads(proc.stdout)
    assert isinstance(data["sum"], str)
    assert int(data["sum"]) == 3 * n * n + 6 * n + 5
    assert isinstance(data["n"], str)
    assert data["d"] == 1  # small values stay plain JSON numbers


def test_sqrtmod_non_residue_reports_null_roots():
    data = json.loads(run_cli("sqrtmod", "--a", "3", "--p", "5").stdout)
    assert data["roots"] is None
    proc = run_cli("sqrtmod", "--a", "3", "--p", "5", "--format", "csv")
    assert proc.stdout == "a,p,root_small,root_large\n3,5,,\n"


def test_exit_code_2_on_domain_error_with_error_record():
    proc = run_cli("classify", "--p", "9")
    assert proc.returncode == 2
    assert proc.stdout == ""
    record = json.loads(proc.stderr.strip())
    assert "error" in record


def test_exit_code_2_on_usage_errors():
    assert run_cli("frobnicate").returncode == 2
    proc = run_cli("classify", "--p", "seven")
    assert proc.returncode == 2
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "error" in record


def test_exit_code_2_on_window_domain_error():
    proc = run_cli("check", "--n", "1", "--d", "0", "--k", "3")
    assert proc.returncode == 2
    assert "difference" in json.loads(proc.stderr.strip())["error"]


def test_trace_rejects_residue_prime_length():
    proc = run_cli("trace", "--n", "18", "--d", "1", "--k", "11")
    assert proc.returncode == 2
    assert "residue" in json.loads(proc.stderr.strip())["error"]


def test_verify_rejects_residue_prime():
    proc = run_cli("verify", "--p", "13", "--max-n", "5", "--max-d", "5")
    assert proc.returncode == 2


def test_prime_parameters_beyond_deterministic_range_rejected():
    huge = str(3_317_044_064_679_887_385_961_981)
    proc = run_cli("classify", "--p", huge)
    assert proc.returncode == 2
    assert "deterministic" in json.loads(proc.stderr.strip())["error"]


def test_format_env_variable_sets_default():
    proc = run_cli("classify", "--p", "7", env_extra={"APSQUARES_FORMAT": "csv"})
    assert proc.stdout == "p,mod12,legendre3\n7,7,-1\n"
    proc = run_cli(
        "classify", "--p", "7", "--format", "json", env_extra={"APSQUARES_FORMAT": "csv"}
    )
    assert proc.stdout == '{"legendre3":-1,"mod12":7,"p":7}\n'


def test_unrecognised_format_env_value_falls_back_to_json():
    for value in ("xml", "CSV", ""):
        proc = run_cli("classify", "--p", "7", env_extra={"APSQUARES_FORMAT": value})
        assert proc.returncode == 0
        assert proc.stdout == '{"legendre3":-1,"mod12":7,"p":7}\n'


def test_text_format_is_human_oriented():
    proc = run_cli("check", "--n", "18", "--d", "1", "--k", "11", "--format", "text")
    assert "5929" in proc.stdout and "77" in proc.stdout
    proc = run_cli("verify", "--p", "5", "--max-n", "20", "--max-d", "20", "--format", "text")
    assert "no square windows" in proc.stdout


def test_counterexample_exit_code_1(monkeypatch, capsys):
    fake = SearchReport(
        k=11,
        n_range=(1, 30),
        d_range=(1, 1),
        windows_checked=30,
        solutions=((18, 1, 77),),
        sieve_used=False,
        elapsed=0.0,
        checkpoint_state=None,
    )
    monkeypatch.setattr(cli, "verify_no_solutions", lambda *args, **kwargs: fake)
    code = cli.main(["verify", "--p", "5", "--max-n", "30", "--max-d", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["solutions"] == [[18, 1, 77]]


def test_keyboard_interrupt_is_exit_130_with_error_record(monkeypatch, capsys):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "dispatch", interrupted)
    try:
        code = cli.main(["verify", "--p", "5", "--max-n", "30", "--max-d", "1"])
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped cli.main")
    captured = capsys.readouterr()
    assert code == 130
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])


def test_sigterm_is_exit_143_and_keeps_completed_rows(tmp_path):
    # A grid far too large to finish: stop it once some rows are done.
    ckpt = tmp_path / "term.ckpt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "apsquares", "verify", "--p", "89",
         "--max-n", "2000", "--max-d", "100000000", "--checkpoint", str(ckpt)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while "done d=" not in (ckpt.read_text(encoding="ascii") if ckpt.exists() else ""):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 143
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "error" in json.loads(lines[0])
    text = ckpt.read_text(encoding="ascii")
    assert text.endswith("\n")
    rows = text.splitlines()
    assert rows[0] == "k=89 n_max=2000 d_max=100000000 sieve=0"
    assert len(rows) >= 2
    assert rows[1:] == [f"done d={d}" for d in range(1, len(rows))]


def test_main_restores_the_previous_sigterm_handler(capsys):
    def previous(signum, frame):
        pass

    saved = signal.signal(signal.SIGTERM, previous)
    try:
        assert cli.main(["sum", "--k", "3"]) == 0
        assert cli.main(["verify", "--p", "11", "--max-n", "3", "--max-d", "1"]) == 2
        assert signal.getsignal(signal.SIGTERM) is previous
    finally:
        signal.signal(signal.SIGTERM, saved)
    capsys.readouterr()


def test_main_runs_outside_the_main_thread(capsys):
    # Signal handlers can only be installed from the main thread.
    results = []
    worker = threading.Thread(target=lambda: results.append(cli.main(["sum", "--k", "3"])))
    worker.start()
    worker.join()
    assert results == [0]
    assert json.loads(capsys.readouterr().out)["k"] == 3


def test_cli_checkpoint_resume_reproduces_report(tmp_path):
    ckpt = tmp_path / "verify.ckpt"
    uninterrupted = run_cli("verify", "--p", "7", "--max-n", "40", "--max-d", "10")
    full = run_cli(
        "verify", "--p", "7", "--max-n", "40", "--max-d", "10", "--checkpoint", str(ckpt)
    )
    assert full.stdout == uninterrupted.stdout
    # simulate a crash after four completed rows
    lines = ckpt.read_text(encoding="ascii").splitlines()
    ckpt.write_text("\n".join(lines[:5]) + "\n", encoding="ascii")
    resumed = run_cli(
        "verify", "--p", "7", "--max-n", "40", "--max-d", "10", "--checkpoint", str(ckpt)
    )
    assert resumed.returncode == 0
    assert resumed.stdout == uninterrupted.stdout


def test_cli_checkpoint_mismatch_is_exit_2(tmp_path):
    ckpt = tmp_path / "other.ckpt"
    ckpt.write_text("k=5 n_max=1 d_max=1 sieve=0\n", encoding="ascii")
    proc = run_cli(
        "verify", "--p", "7", "--max-n", "40", "--max-d", "10", "--checkpoint", str(ckpt)
    )
    assert proc.returncode == 2
    assert "fingerprint" in json.loads(proc.stderr.strip())["error"]


def test_cli_checkpoint_file_error_is_exit_2(tmp_path):
    # Exit 1 means a counterexample; a path that cannot be used must not read as one.
    for ckpt in (tmp_path, tmp_path / "missing" / "run.ckpt", ""):
        proc = run_cli(
            "verify", "--p", "5", "--max-n", "5", "--max-d", "5", "--checkpoint", str(ckpt)
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and str(ckpt) in json.loads(lines[0])["error"]
