"""Command-line interface tests: exit codes, error records, streams, signals, checkpoints
and the argument parser.

What each command prints is pinned in one place, `GOLDEN` in test_acceptance.py. c10 runs
every row once in a child, and `test_golden_outputs_through_a_text_only_stdout` here runs it
once in-process; no other test compares a golden's stdout.
"""

import argparse
import contextlib
import errno
import gc
import io
import itertools
import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time

import pytest
from conftest import CLI_TIMEOUT_S, direct_square_sum, run_cli
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import GOLDEN

import apsquares.cli as cli
import apsquares.residues as residues
import apsquares.search as search
from apsquares.search import SearchReport


def test_search_k_checked_for_primality_only_with_sieve():
    # An even k past the deterministic range: without the sieve no
    # primality verdict is used, so it is not refused.
    argv = ("search", "--k", str(residues.DETERMINISTIC_LIMIT + 1), "--max-n", "3", "--max-d", "3")
    plain = run_cli(*argv)
    assert plain.returncode == 0, plain.stderr
    assert '"windows":9' in plain.stdout
    sieved = run_cli(*argv, "--sieve")
    assert sieved.returncode == 2
    assert "deterministic" in json.loads(sieved.stderr)["error"]


_JSON_SAFE_MAX = 2**53 - 1
# One of each kind of character the renderer treats apart: a quote, a backslash, each named
# escape, other controls, printable ASCII, DEL, non-ASCII, astral characters, and both ends of
# the lone surrogates, which argv holds for bytes that are not UTF-8. Every code point is
# checked once, by test_json_string_escapes_every_code_point_as_json_dumps_does.
_JSON_TEXT = st.text(
    st.sampled_from([
        '"', "\\", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", " ", "a", "\x7f", "\x80", "é",
        "\u2028", "\uffff", "\U0001f600", "\ud800", "\udfff",
    ]),
    max_size=12,
)
# Any int, and the ints on both sides of +-(2^53 - 1).
_JSON_INTS = st.one_of(
    st.integers(),
    st.builds(lambda offset, sign: sign * (_JSON_SAFE_MAX + offset), st.integers(-2, 2),
              st.sampled_from([1, -1])),
)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _JSON_INTS, _JSON_TEXT),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, inner, max_size=4),
    ),
    max_leaves=16,
)


def _json_oracle(value):
    # What the renderer promises: every int beyond 2^53 - 1 in magnitude as a decimal string.
    if isinstance(value, bool) or not isinstance(value, (int, list, tuple, dict)):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > _JSON_SAFE_MAX else value
    if isinstance(value, dict):
        return {key: _json_oracle(item) for key, item in value.items()}
    return [_json_oracle(item) for item in value]


def test_json_string_escapes_every_code_point_as_json_dumps_does():
    text = "".join(map(chr, range(0x110000)))
    if cli._json_string(text) != json.dumps(text):
        # The first code point rendered wrong, not a diff of two 7-million-character strings.
        wrong = next(char for char in text if cli._json_string(char) != json.dumps(char))
        pytest.fail(f"U+{ord(wrong):04X}: {cli._json_string(wrong)} != {json.dumps(wrong)}")


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(_JSON_TEXT, _JSON_VALUES, max_size=5))
@example({"max": _JSON_SAFE_MAX, "min": -_JSON_SAFE_MAX, "over": 2**53, "under": -(2**53)})
@example({"bools": [True, 1, False, 0], "true": True, "one": 1, "false": False, "zero": 0})
@example({"empty": [[], (), {}], "nested": (1, ((), ("a", (None,))))})
@example({"b": {"d": 0, "c": 1}, "a": None, '"\\\b\x7f\ud800\U0001f600': "escaped key"})
def test_render_json_writes_what_json_dumps_writes(payload):
    expected = json.dumps(_json_oracle(payload), sort_keys=True, separators=(",", ":")) + "\n"
    assert cli.render_json(payload) == expected


def test_render_json_refuses_what_json_dumps_refuses():
    payload = {"primes": {5, 7}}
    with pytest.raises(TypeError) as dumps:
        json.dumps(payload)
    with pytest.raises(TypeError) as rendered:
        cli.render_json(payload)
    assert str(rendered.value) == str(dumps.value) == "Object of type set is not JSON serializable"


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["classify", "--p", "9"], "prime >= 5"),
        (["frobnicate"], "frobnicate"),
        (["classify", "--p", "seven"], "invalid int value"),
        (["check", "--n", "1", "--d", "0", "--k", "3"], "difference"),
        (["trace", "--n", "18", "--d", "1", "--k", "11"], "residue"),
        (["verify", "--p", "13", "--max-n", "5", "--max-d", "5"], "residue"),
        (["classify", "--p", str(3_317_044_064_679_887_385_961_981)], "deterministic"),
    ],
    ids=[
        "composite-prime",
        "unknown-command",
        "non-integer",
        "zero-difference",
        "trace-residue-prime",
        "verify-residue-prime",
        "beyond-deterministic",
    ],
)
def test_refusal_is_exit_2_with_one_error_record(argv, fragment):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert isinstance(record, dict) and list(record) == ["error"]
    assert fragment in record["error"]


@pytest.mark.parametrize("argv,expected", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_golden_outputs_through_a_text_only_stdout(argv, expected, monkeypatch):
    # The in-process leg of each golden row; c10 runs it in a child. A stdout with no byte
    # layer, such as the io.StringIO that bench/run.py's traced runs redirect into, takes the
    # report in one text write.
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert cli.main(list(argv)) == 0
    assert stdout.getvalue() == expected


@pytest.mark.parametrize("value", ["csv", "text", "xml", ""])
def test_format_comes_from_the_argv_alone(value, monkeypatch, capsys):
    # No environment variable picks the format: the same argv prints the same bytes.
    monkeypatch.delenv("APSQUARES_FORMAT", raising=False)
    assert cli.main(["classify", "--p", "7"]) == 0
    expected = capsys.readouterr().out
    proc = run_cli("classify", "--p", "7", env_extra={"APSQUARES_FORMAT": value})
    assert (proc.returncode, proc.stdout) == (0, expected)
    monkeypatch.setenv("APSQUARES_FORMAT", value)
    assert cli.main(["classify", "--p", "7"]) == 0
    assert capsys.readouterr().out == expected


def test_counterexample_exit_code_1(monkeypatch, capsys):
    fake = SearchReport(
        windows_checked=30,
        solutions=((18, 1, 77),),
        sieve_used=False,
    )
    monkeypatch.setattr(cli, "verify_no_solutions", lambda *args, **kwargs: fake)
    code = cli.main(["verify", "--p", "5", "--max-n", "30", "--max-d", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["solutions"] == [[18, 1, 77]]
    assert json.loads(captured.out)["p"] == 5


def test_internal_check_failure_is_exit_3_not_counterexample(monkeypatch, capsys):
    # A fake hit fails _record's re-verification: a broken scan, which
    # exit 1 would report as a counterexample.
    monkeypatch.setattr(search, "_scan_row", lambda *args, **kwargs: [(1, 1)])
    code = cli.main(["verify", "--p", "5", "--max-n", "3", "--max-d", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "re-verification" in json.loads(lines[0])["error"]


def test_classify_cross_check_failure_is_exit_3(monkeypatch, capsys):
    # An Euler criterion that disagrees with the mod-12 class is a bug, not a domain error.
    euler = residues.legendre_euler
    monkeypatch.setattr(residues, "legendre_euler", lambda a, p: -euler(a, p))
    message = "mod-12 class and Euler criterion disagree for p=7"
    with pytest.raises(RuntimeError, match=message):
        residues.classify_prime_mod12(7)
    assert cli.main(["classify", "--p", "7"]) == 3
    assert capsys.readouterr() == ("", '{"error":"' + message + '"}\n')


@pytest.mark.parametrize(
    "exc, record",
    [(ZeroDivisionError("division by zero"), "division by zero"), (MemoryError(), "MemoryError")],
    ids=["message", "empty-message"],
)
def test_unexpected_error_is_exit_3_not_counterexample(monkeypatch, capsys, exc, record):
    # A bug in a handler, or memory running out: neither bad input nor a counterexample. An
    # exception with no message is named by its type.
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "dispatch", broken)
    assert cli.main(["sum", "--k", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == {"error": record}


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


class _RaisingWriter:
    """A stream whose every write raises `exc`."""

    def __init__(self, exc):
        self.exc = exc

    def write(self, text):
        raise self.exc


@pytest.mark.parametrize(
    "exc, status, record",
    [(KeyboardInterrupt, 130, "interrupted"), (cli._Terminated, 143, "terminated")],
    ids=["interrupted", "terminated"],
)
def test_interrupt_while_the_report_is_written_keeps_the_record(monkeypatch, exc, status, record):
    handler = signal.getsignal(signal.SIGTERM)
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    stderr = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(sys, "stdout", _RaisingWriter(exc))
    try:
        code = cli.main(["sum", "--k", "3"])
    except BaseException:
        pytest.fail(f"{exc.__name__} escaped cli.main")
    assert code == status
    assert stderr.getvalue() == f'{{"error":"{record}"}}\n'
    assert signal.getsignal(signal.SIGTERM) is handler
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == digits


def _child_env(unbuffered):
    # This process's environment, with PYTHONUNBUFFERED set exactly when `unbuffered` is.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_sigterm_while_the_report_is_written_is_exit_143(unbuffered):
    # A 167,989-byte report: the child blocks on the full pipe until it is read.
    proc = subprocess.Popen(
        [sys.executable, "-m", "apsquares", "search", "--k", "2",
         "--max-n", "4000", "--max-d", "4000", "--format", "text"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(unbuffered),
    )
    try:
        first = os.read(proc.stdout.fileno(), 1)  # the write has begun
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=CLI_TIMEOUT_S)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 143
    assert err == b'{"error":"terminated"}\n'
    assert first and len(first + out) < 167989


# Runs a refused verify with a spy on `cli._write` that writes one byte to stdout just before
# the error record goes to stderr.
_REFUSAL_WITH_A_SIGNAL_BYTE = """
import os, sys
import apsquares.cli as cli
write = cli._write
def spy(stream, text):
    if stream is sys.stderr:
        os.write(1, b".")
    write(stream, text)
cli._write = spy
sys.argv[1:] = ["verify", "--p", "13", "--max-n", "1", "--max-d", "1"]
sys.exit(cli.run())
"""
_REFUSAL_RECORD = (
    b'{"error":"3 is a quadratic residue mod 13; the valuation law is not guaranteed there '
    b'and square windows may exist"}\n'
)


def _read_before(fd, deadline):
    # The next bytes from `fd`, b"" at its end; the test fails if none arrive by `deadline`.
    ready = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0]
    assert ready, "the child did not finish"
    return os.read(fd, 65536)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_sigterm_while_the_error_record_is_written_keeps_the_exit_code(unbuffered):
    # stderr is a full pipe, so the record's write blocks until SIGTERM arrives; the refusal's
    # exit 2 stands. A buffered stderr keeps the record and flushes it at exit once the pipe is
    # drained; an unbuffered one loses it whole, since a write this short is atomic on a pipe.
    fcntl = pytest.importorskip("fcntl")
    read_end, write_end = os.pipe()
    try:
        flags = fcntl.fcntl(write_end, fcntl.F_GETFL)
        fcntl.fcntl(write_end, fcntl.F_SETFL, flags | os.O_NONBLOCK)
        filler = 0
        for size in (65536, 1):  # the last, partly filled page too
            with contextlib.suppress(BlockingIOError):
                while True:
                    filler += os.write(write_end, b"x" * size)
        fcntl.fcntl(write_end, fcntl.F_SETFL, flags)
        proc = subprocess.Popen(
            [sys.executable, "-c", _REFUSAL_WITH_A_SIGNAL_BYTE],
            stdout=subprocess.PIPE,
            stderr=write_end,
            env=_child_env(unbuffered),
        )
        os.close(write_end)
        write_end = None
        try:
            assert os.read(proc.stdout.fileno(), 1) == b"."
            time.sleep(0.2)  # from the byte into the blocked write
            proc.send_signal(signal.SIGTERM)
            err = b""
            deadline = time.monotonic() + CLI_TIMEOUT_S
            while chunk := _read_before(read_end, deadline):
                err += chunk
            proc.wait(timeout=CLI_TIMEOUT_S)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
    finally:
        os.close(read_end)
        if write_end is not None:
            os.close(write_end)
    assert proc.returncode == 2
    assert err[:filler] == b"x" * filler
    record = err[filler:]
    assert record == _REFUSAL_RECORD or (unbuffered and record == b"")


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


def test_sigkill_mid_run_then_resume_is_byte_identical(tmp_path):
    # SIGKILL skips every flush: the file keeps what reached the disk, up to
    # a torn last line. The resumed run rescans the lost rows.
    args = ["verify", "--p", "89", "--max-n", "20", "--max-d", "100000"]
    ckpt = tmp_path / "kill.ckpt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "apsquares", *args, "--checkpoint", str(ckpt)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60
        while b"done d=" not in (ckpt.read_bytes() if ckpt.exists() else b""):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    header = "k=89 n_max=20 d_max=100000 sieve=0\n"
    killed = ckpt.read_text(encoding="ascii")
    assert killed.startswith(header)
    assert killed.count("\n") - 1 < 100000  # fewer rows than the grid: killed mid-run
    resumed = run_cli(*args, "--checkpoint", str(ckpt))
    uninterrupted = run_cli(*args)
    assert resumed.returncode == uninterrupted.returncode == 0
    assert resumed.stdout == uninterrupted.stdout
    assert resumed.stderr == uninterrupted.stderr == ""
    rows = "".join(f"done d={d}\n" for d in range(1, 100001))
    assert ckpt.read_text(encoding="ascii") == header + rows


def test_main_leaves_the_heap_unfrozen(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["sum", "--k", "3"]) == 0
    assert cli.main(["verify", "--p", "13", "--max-n", "1", "--max-d", "1"]) == 2
    assert gc.get_freeze_count() == before
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, status, out",
    [
        (["sum", "--k", "3"], 0, '{"k":3,"sum":6,"sum_sq":14}\n'),
        (["verify", "--p", "13", "--max-n", "1", "--max-d", "1"], 2, ""),
    ],
)
def test_run_returns_the_status_of_main_and_freezes_the_heap(monkeypatch, capsys, argv, status, out):
    monkeypatch.setattr(sys, "argv", ["apsquares", *argv])
    before = gc.get_freeze_count()
    try:
        assert cli.run() == status
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()  # the test process goes on collecting
    assert capsys.readouterr().out == out


def test_run_freezes_the_heap_on_a_usage_error(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["apsquares", "frobnicate"])
    before = gc.get_freeze_count()
    try:
        assert cli.run() == 2
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert "frobnicate" in json.loads(capsys.readouterr().err)["error"]


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


def test_checkpoint_longer_than_its_run_can_write_is_exit_2_and_untouched(tmp_path, capsys):
    # A 3-row run's file holds at most 63 bytes; a longer one is refused before it is cut.
    ckpt = tmp_path / "huge.ckpt"
    content = b"k=5 n_max=3 d_max=3 sieve=0\n" + b"done d=1\n" * 10000
    ckpt.write_bytes(content)
    argv = ["verify", "--p", "5", "--max-n", "3", "--max-d", "3", "--checkpoint", str(ckpt)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    error = json.loads(captured.err)["error"]
    assert error.startswith("malformed checkpoint") and str(ckpt) in error
    assert ckpt.read_bytes() == content


def test_closed_stdout_is_exit_2_with_one_error_line():
    # A reader that went away before the report was written: the read end is closed.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "apsquares", "classify", "--p", "7"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and "Broken pipe" in json.loads(lines[0])["error"]


def test_stdout_closed_before_start_is_exit_2(monkeypatch):
    # Python sets sys.stdout to None when descriptor 1 is closed at start.
    stderr = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(sys, "stdout", None)
    assert cli.main(["classify", "--p", "7"]) == 2
    assert stderr.getvalue() == '{"error":"cannot write output: stdout is closed"}\n'


def test_stdout_closed_before_start_is_exit_2_in_a_child():
    proc = subprocess.run(
        ["/bin/sh", "-c", '"$0" -m apsquares classify --p 7 >&-', sys.executable],
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    assert proc.returncode == 2
    assert proc.stderr == '{"error":"cannot write output: stdout is closed"}\n'


class _ShortRaw(io.RawIOBase):
    """A raw stream that takes 10 bytes of its first write, then raises BrokenPipeError."""

    def __init__(self, fd):
        self.fd = fd
        self.taken = b""

    def writable(self):
        return True

    def fileno(self):
        return super().fileno() if self.fd is None else self.fd

    def write(self, data):
        if self.taken:
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        self.taken = bytes(data[:10])
        return 10


@pytest.mark.parametrize("descriptor", [True, False], ids=["descriptor", "no-descriptor"])
def test_short_write_then_broken_pipe_is_exit_2(monkeypatch, descriptor):
    # As under PYTHONUNBUFFERED=1: the text layer writes through to a raw
    # file, and ignores the short count it returns.
    fd = os.open(os.devnull, os.O_WRONLY)
    raw = _ShortRaw(fd if descriptor else None)
    stdout = io.TextIOWrapper(raw, encoding="ascii", write_through=True)
    stderr = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert cli.main(["sum", "--k", "3"]) == 2
    finally:
        monkeypatch.undo()
        stdout.close()
        os.close(fd)
    assert raw.taken == b'{"k":3,"su'
    assert stderr.getvalue() == '{"error":"cannot write output: [Errno 32] Broken pipe"}\n'


class _TenBytesRaw(io.RawIOBase):
    """A raw stream that takes at most 10 bytes of each write."""

    def __init__(self):
        self.taken = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.taken += data[:10]
        return min(len(data), 10)


def test_short_write_to_an_unbuffered_stderr_keeps_the_whole_record(monkeypatch):
    # As under PYTHONUNBUFFERED=1, stderr's text layer writes through to a raw file; the rest
    # of a short write must follow, as it does on stdout.
    argv = ["verify", "--p", "13", "--max-n", "1", "--max-d", "1"]
    expected = io.StringIO()
    monkeypatch.setattr(sys, "stderr", expected)
    assert cli.main(argv) == 2
    raw = _TenBytesRaw()
    stderr = io.TextIOWrapper(raw, encoding="ascii", write_through=True)
    monkeypatch.setattr(sys, "stderr", stderr)
    try:
        assert cli.main(argv) == 2
    finally:
        monkeypatch.undo()
        stderr.close()
    record = expected.getvalue()
    assert record.count("\n") == 1 and "error" in json.loads(record)
    assert raw.taken.decode("ascii") == record


_WOULD_BLOCK_RECORD = (
    f'{{"error":"cannot write output: [Errno {errno.EAGAIN}] write could not complete without '
    'blocking"}\n'
)


class _WouldBlockRaw(io.RawIOBase):
    """A raw stream whose non-blocking descriptor is full: its first write returns None."""

    def __init__(self):
        self.writes = 0

    def writable(self):
        return True

    def write(self, data):
        self.writes += 1
        assert self.writes == 1, "the write was retried after it returned None"
        return None


def test_would_block_unbuffered_write_is_exit_2(monkeypatch):
    raw = _WouldBlockRaw()
    stdout = io.TextIOWrapper(raw, encoding="ascii", write_through=True)
    stderr = io.StringIO()
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert cli.main(["sum", "--k", "3"]) == 2
    finally:
        monkeypatch.undo()
        stdout.close()
    assert raw.writes == 1
    assert stderr.getvalue() == _WOULD_BLOCK_RECORD


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_full_non_blocking_stdout_is_exit_2(unbuffered):
    # A pipe that is full and non-blocking: every write to it fails with EAGAIN at once.
    read_end, write_end = os.pipe()
    try:
        os.set_blocking(write_end, False)
        with contextlib.suppress(BlockingIOError):
            while True:
                os.write(write_end, b"x" * 65536)
        proc = subprocess.Popen(
            [sys.executable, "-m", "apsquares", "search", "--k", "2",
             "--max-n", "4000", "--max-d", "4000", "--format", "text"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_child_env(unbuffered),
        )
        try:
            err = proc.communicate(timeout=30)[1]  # a child spinning on the full pipe fails here
        finally:
            proc.kill()
            proc.wait()
    finally:
        os.close(read_end)
        os.close(write_end)
    assert proc.returncode == 2
    assert err.decode() == _WOULD_BLOCK_RECORD


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_reader_that_goes_away_mid_report_is_exit_2(unbuffered):
    # A 167,989-byte report, so the child is still writing when the reader closes the pipe.
    proc = subprocess.Popen(
        [sys.executable, "-m", "apsquares", "search", "--k", "2",
         "--max-n", "4000", "--max-d", "4000", "--format", "text"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(unbuffered),
    )
    try:
        assert os.read(proc.stdout.fileno(), 100)
        proc.stdout.close()
        err = proc.communicate(timeout=CLI_TIMEOUT_S)[1]
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 2
    assert err == b'{"error":"cannot write output: [Errno 32] Broken pipe"}\n'


def test_cli_module_runs_as_the_package_does():
    # `python -m apsquares.cli` enters through cli.py's own `__main__` block.
    argv = ["classify", "--p", "7"]
    procs = [
        subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True,
                       timeout=CLI_TIMEOUT_S)
        for module in ("apsquares.cli", "apsquares")
    ]
    cli_module, package = [(p.returncode, p.stdout, p.stderr) for p in procs]
    assert cli_module == package and package[0] == 0 and package[2] == ""


def test_cli_imports_none_of_the_standard_modules_it_avoids():
    # Without `site`, as on a clean interpreter: nothing else has loaded them.
    avoided = {
        "argparse", "dataclasses", "enum", "gettext", "inspect", "json", "locale", "re",
        "signal", "threading", "typing", "__future__",
    }
    probe = f"import sys, apsquares.cli; print(sorted({avoided!r} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv",
    [["-h"], ["search", "-h"], ["classify", "--p", "7", "--bogus", "--help"]],
    ids=["top", "command", "after-flags"],
)
def test_help_in_process_is_exit_0_with_the_usage_on_stdout(argv, capsys):
    # The top-level help lists every command, and a command's help its flags.
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: apsquares") and captured.err == ""
    listed = cli._COMMANDS[argv[0]].flags if argv[0] in cli._COMMANDS else cli._COMMANDS
    assert all(name in captured.out for name in listed)


# CPython 3.11 argparse's messages, as the CLI printed them while it parsed with argparse.
USAGE_ERRORS = [
    ([], "the following arguments are required: command"),
    (
        ["frobnicate"],
        "argument command: invalid choice: 'frobnicate' (choose from 'classify', 'legendre', "
        "'sqrtmod', 'sum', 'check', 'trace', 'verify', 'search')",
    ),
    (["verify", "--p", "5"], "the following arguments are required: --max-n, --max-d"),
    (["sum", "--k", "3", "extra"], "unrecognized arguments: extra"),
    (
        ["classify", "--p", "7", "--format", "xml"],
        "argument --format: invalid choice: 'xml' (choose from 'json', 'csv', 'text')",
    ),
    (["classify", "--p"], "argument --p: expected one argument"),
    (["check", "--n", "x", "--d", "1", "--k", "3"], "argument --n: invalid int value: 'x'"),
    (
        ["search", "--k", "3", "--max-n", "1", "--max-d", "1", "--sieve=1"],
        "argument --sieve: ignored explicit argument '1'",
    ),
    (["classify", "-h=x"], "argument -h/--help: ignored explicit argument 'x'"),
    # A dotted negative number is a value, not a flag; then it is no int.
    (["legendre", "--a", "-1.5", "--p", "5"], "argument --a: invalid int value: '-1.5'"),
]


@pytest.mark.parametrize("argv,message", USAGE_ERRORS, ids=[m.split(":")[0] for _, m in USAGE_ERRORS])
def test_usage_error_messages_are_byte_identical(argv, message, capsys):
    # `parse_args` raises the message and writes nothing; only `cli.main` writes the record and
    # picks the exit code.
    with pytest.raises(ValueError) as error:
        cli.parse_args(argv)
    assert str(error.value) == message
    assert capsys.readouterr() == ("", "")
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", '{"error":' + json.dumps(message) + "}\n")


def test_negative_values_and_last_occurrence(capsys):
    assert cli.main(["legendre", "--a", "-3", "--p=7", "--p", "5", "--format=csv"]) == 0
    assert capsys.readouterr().out == "a,p,symbol\n-3,5,-1\n"
    # A spaced dash word is a value, not a flag, and int() strips the space.
    assert cli.main(["legendre", "--a", "-5 ", "--p", "5", "--format=csv"]) == 0
    assert capsys.readouterr().out == "a,p,symbol\n-5,5,0\n"


@pytest.mark.parametrize(
    "argv,extra",
    [
        (["search", "--k", "3", "--max-n", "1", "--max-d", "1", "--si"], "--si"),
        (["verify", "--p", "5", "--max-n", "1", "--max-d", "1", "--max", "2"], "--max 2"),
        (["classify", "--p", "7", "--form=csv"], "--form=csv"),
    ],
)
def test_flag_abbreviations_are_unrecognized(argv, extra, capsys):
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err) == {"error": f"unrecognized arguments: {extra}"}


class _Rejected(Exception):
    pass


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise _Rejected(message)


def _argparse_oracle():
    """argparse built from `cli._COMMANDS` the way the CLI built its parser when it used argparse."""
    parser = _OracleParser(prog="apsquares")
    common = _OracleParser(add_help=False)
    common.add_argument("--format", choices=cli._FORMATS, default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli._COMMANDS.items():
        sp = sub.add_parser(name, parents=[common])
        for flag, (_, kind) in command.flags.items():
            if kind is bool:
                sp.add_argument(flag, action="store_true")
            elif kind is int:
                sp.add_argument(flag, type=int, required=True)
            else:
                sp.add_argument(flag)
    return parser


_ORACLE = _argparse_oracle()
_REAL_FLAGS = sorted({flag for command in cli._COMMANDS.values() for flag in command.flags})
_LONG_FLAGS = [*_REAL_FLAGS, "--format", "--help"]
_FLAG_TOKENS = st.sampled_from([*_REAL_FLAGS, "--format", "--bogus", "-x"])
_INT_VALUES = st.one_of(
    st.integers(-(10**20), 10**20).map(str), st.sampled_from(["9" * 5000, "-" + "7" * 4400])
)
_JUNK = ["", " ", "x", "seven", "1.5", "-1.5", "+7", " 7 ", "1_000", "-1_0", "\u0663",
         "\U0001F600", "-", "-x", "-5 ", "json", "csv", "text", "xml", "7=8", "--bogus=1"]
# Free text from a few characters: the parser's separators and signs, a digit, a letter, a
# newline, a non-ASCII digit, an emoji and a lone surrogate. All of Unicode would have
# Hypothesis build its Unicode table under .hypothesis/ on every fresh checkout.
_VALUES = st.one_of(
    _INT_VALUES, st.sampled_from(_JUNK), st.text("-=. 7x\n\u0663\U0001F600\udc80", max_size=4)
)
_PIECES = st.one_of(
    st.tuples(_FLAG_TOKENS, _VALUES).map(list),
    st.tuples(_FLAG_TOKENS, _VALUES).map(lambda pair: ["=".join(pair)]),
    _FLAG_TOKENS.map(lambda flag: [flag]),
    _VALUES.map(lambda value: [value]),
)


def _help_or_abbreviation(token):
    # Help exits 0 with a different text, and abbreviations and "--" are where the two parsers
    # part on purpose; each has its own test.
    head = token.partition("=")[0]
    if token.startswith("-h") or head == "--help":
        return True
    return head.startswith("--") and head not in _LONG_FLAGS and any(
        flag.startswith(head) for flag in _LONG_FLAGS
    )


@st.composite
def _argvs(draw):
    name = draw(st.sampled_from([*cli._COMMANDS, "frobnicate", ""]))
    pieces = []
    flags = cli._COMMANDS[name].flags if name in cli._COMMANDS else {}
    for flag, (_, kind) in flags.items():
        if draw(st.integers(0, 9)) == 0:
            continue  # mostly present, so most argvs reach every field
        value = draw(_INT_VALUES if kind is int and draw(st.integers(0, 7)) else _VALUES)
        spellings = [[flag, value], [f"{flag}={value}"]]
        pieces.append(draw(st.sampled_from([[flag], [flag], *spellings] if kind is bool else spellings)))
    pieces += draw(st.lists(_PIECES, max_size=3))
    if draw(st.booleans()):
        pieces.append(["--format", draw(st.sampled_from([*cli._FORMATS, "xml"]))])
    return [name, *itertools.chain.from_iterable(draw(st.permutations(pieces)))]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="the CLI reproduces CPython 3.11's argparse, whose rules and wording later releases change",
)
# Each parser rule a test can name is pinned by an example here, by USAGE_ERRORS or by
# test_negative_values_and_last_occurrence; the random argvs look for the rules no test names.
@settings(max_examples=150, deadline=None)
@example(["legendre", "--a", "-3", "--p", "5"])
@example(["legendre", "--a", "-\u0663", "--p", "5"])  # an Arabic-Indic 3, which `\d` matches
@example(["legendre", "--a", "-3\n", "--p", "5"])  # `$` matches before a final newline
@example(["check", "--n", "--d= 1", "--d", "1", "--k", "3"])  # a spaced value that is a flag
@given(_argvs().filter(lambda argv: not any(map(_help_or_abbreviation, argv))))
def test_parse_args_agrees_with_argparse(argv):
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as `cli.main` does, for both parsers
    try:
        try:
            expected = vars(_ORACLE.parse_args(argv))
        except _Rejected as rejected:
            expected = str(rejected)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                got = vars(cli.parse_args(argv))
            except ValueError as exc:
                got = str(exc)
    finally:
        sys.set_int_max_str_digits(digits)
    assert got == expected
    assert err.getvalue() == ""


@pytest.mark.parametrize(
    "stderr",
    [
        None,
        _RaisingWriter(OSError(errno.ENOSPC, "No space left on device")),
        _RaisingWriter(ValueError("I/O operation on closed file.")),
        _RaisingWriter(KeyboardInterrupt()),
        _RaisingWriter(cli._Terminated()),
    ],
    ids=["none", "full", "closed", "interrupted", "terminated"],
)
def test_unusable_stderr_keeps_the_exit_code(monkeypatch, stderr):
    # The record is lost, but a refusal must not read as exit 1, a counterexample, nor may a
    # Ctrl-C or SIGTERM during its write escape; the trap and the digit limit are restored.
    handler = signal.getsignal(signal.SIGTERM)
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    stdout = io.StringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    try:
        codes = [cli.main(["verify", "--p", "13", "--max-n", "1", "--max-d", "1"])]
        codes.append(cli.main(["frobnicate"]))
    except BaseException as exc:
        pytest.fail(f"{type(exc).__name__} escaped cli.main")
    assert codes == [2, 2]
    assert stdout.getvalue() == ""
    assert signal.getsignal(signal.SIGTERM) is handler
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == digits


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_refusal_with_stderr_on_a_full_device_is_exit_2():
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "apsquares", "verify", "--p", "13",
             "--max-n", "1", "--max-d", "1"],
            stdout=subprocess.PIPE,
            stderr=full,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
    assert proc.returncode == 2
    assert proc.stdout == ""


# 3000 nines: S(10^3000 - 1, 1, 3) = 3 * 10^6000 + 2, spelled out past
# CPython's default 4300-digit limit on int <-> str conversion.
_NINES = "9" * 3000
_NINES_SUM = "3" + "0" * 5999 + "2"


def test_check_prints_sums_past_the_digit_limit():
    # Checked without str() of a long int, which this process still refuses.
    assert direct_square_sum(int(_NINES), 1, 3) == 3 * 10**6000 + 2
    proc = run_cli("check", "--n", _NINES, "--d", "1", "--k", "3")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["sum"] == _NINES_SUM and payload["n"] == _NINES
    csv = run_cli("check", "--n", _NINES, "--d", "1", "--k", "3", "--format", "csv")
    assert csv.returncode == 0, csv.stderr
    header, row = csv.stdout.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["sum"] == _NINES_SUM
    text = run_cli("check", "--n", _NINES, "--d", "1", "--k", "3", "--format", "text")
    assert text.returncode == 0, text.stderr
    assert f"= {_NINES_SUM}, not a perfect square" in text.stdout


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_main_parses_long_integers_and_restores_the_digit_limit(capsys):
    before = sys.get_int_max_str_digits()
    n = "7" * 5000
    assert cli.main(["check", "--n", n, "--d", "1", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == n
    assert sys.get_int_max_str_digits() == before
    assert cli.main(["check", "--n", "x", "--d", "1", "--k", "2"]) == 2  # a usage error
    capsys.readouterr()
    assert sys.get_int_max_str_digits() == before


def test_main_runs_without_a_digit_limit(monkeypatch, capsys):
    # CPython 3.10.0-3.10.6 has no int <-> str digit limit, and no functions for one.
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert cli.main(["sum", "--k", "3"]) == 0
    assert capsys.readouterr().out == '{"k":3,"sum":6,"sum_sq":14}\n'


# Checkpoints that `verify --p 5 --max-n 3 --max-d 3` cannot use: the path's kind, the bytes
# of a file at the path or None, and the whole error message as a regex, where {path} stands
# for the path's repr.
_UNUSABLE_CHECKPOINTS = [
    ("dev-null", None, r"checkpoint {path} is not a regular file"),
    ("fifo", None, r"checkpoint {path} is not a regular file"),
    ("directory", None, r"\[Errno \d+\] .+: {path}"),
    ("missing-parent", None, r"\[Errno \d+\] .+: {path}"),
    ("empty-path", None, r"\[Errno \d+\] .+: {path}"),
    ("other-run", b"k=5 n_max=1 d_max=1 sieve=0\n",
     r"checkpoint fingerprint 'k=5 n_max=1 d_max=1 sieve=0' does not match the requested run "
     r"'k=5 n_max=3 d_max=3 sieve=0'"),
    # A line longer than any row of 3 is spelled, in a file short enough to be read.
    ("overlong-line", b"k=5 n_max=3 d_max=3 sieve=0\ndone d=" + b"1" * 20 + b"\n",
     r"malformed checkpoint line 'done d=1+'"),
]


@pytest.mark.parametrize(
    "kind, content, message", _UNUSABLE_CHECKPOINTS, ids=[kind for kind, *_ in _UNUSABLE_CHECKPOINTS]
)
def test_checkpoint_on_a_device_is_exit_2_naming_the_path(kind, content, message, tmp_path, capsys):
    # Exit 1 means a counterexample; a checkpoint that cannot be used must not read as one.
    path = {
        "dev-null": "/dev/null",
        "directory": str(tmp_path),
        "missing-parent": str(tmp_path / "missing" / "run.ckpt"),
        "empty-path": "",
    }.get(kind, str(tmp_path / "run.ckpt"))
    if kind == "dev-null" and not os.path.exists(path):
        pytest.skip("no /dev/null")
    if kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no os.mkfifo")
        os.mkfifo(path)
    if content is not None:
        with open(path, "wb") as fh:
            fh.write(content)
    assert cli.main(["verify", "--p", "5", "--max-n", "3", "--max-d", "3",
                     "--checkpoint", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    record = json.loads(captured.err)
    assert list(record) == ["error"]
    assert re.fullmatch(message.format(path=re.escape(repr(path))), record["error"]), record


def test_oversized_error_records_are_capped(tmp_path):
    # Each message echoes an input of more than 1000 characters: a malformed
    # checkpoint line of 1500, which a 200-row run's file has room for, or an
    # argument of 50000 or more. The one stderr line keeps its first and last
    # 500 characters.
    ckpt = tmp_path / "long.ckpt"
    content = f"k=5 n_max=5 d_max=200 sieve=0\ndone d={'1' * 1493}\n".encode("ascii")
    ckpt.write_bytes(content)
    resume = ("verify", "--p", "5", "--max-n", "5", "--max-d", "200", "--checkpoint", str(ckpt))
    check = ("check", "--n", "x" * 100000, "--d", "1", "--k", "3")
    huge_p = ("verify", "--p", "1" + "0" * 50000, "--max-n", "1", "--max-d", "1")
    cases = (
        (resume, "malformed checkpoint line", "'"),
        (check, "argument --n: invalid int value", "'"),
        (huge_p, "1000", "deterministic"),
    )
    for argv, head, tail in cases:
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) <= 1100
        error = json.loads(proc.stderr)["error"]
        assert error.startswith(head) and tail in error[-500:], error
        assert "characters cut]" in error
    assert ckpt.read_bytes() == content


def test_error_record_caps_escaped_bytes_of_non_ascii_input():
    # render_json escapes each emoji to 12 bytes; the cap counts those bytes, not characters.
    proc = run_cli("check", "--n", "\U0001F600" * 5000, "--d", "1", "--k", "3")
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) <= 1100
    error = json.loads(proc.stderr)["error"]
    assert error.startswith("argument --n: invalid int value") and "characters cut]" in error


@pytest.mark.parametrize("char", ['"', "\\", "\x01"])
def test_error_record_caps_escaped_bytes_of_escaped_ascii(char, capsys):
    message = char * 3000
    cli._print_error(message)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) <= 1100
    error = json.loads(err)["error"]
    head, _, tail = error.partition("...[")
    assert set(head) == {char} and tail.endswith("characters cut]..." + head)


@pytest.mark.parametrize("length", [0, 999, 1000, 1001, 50000])
def test_error_message_is_whole_up_to_1000_characters(length, capsys):
    message = "".join(chr(ord("a") + i % 26) for i in range(length))
    cli._print_error(message)
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    error = json.loads(err)["error"]
    if length <= 1000:
        assert error == message
    else:
        cut = length - 1000
        assert error == f"{message[:500]}...[{cut} characters cut]...{message[-500:]}"
