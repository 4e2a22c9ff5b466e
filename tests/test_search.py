"""Tests for grid verification, discovery, sieving, and checkpoints."""

import dataclasses
import math

import pytest
from conftest import direct_square_sum
from hypothesis import given
from hypothesis import strategies as st

import apsquares.search as search
from apsquares.apsum import APWindow, window_sum_sq_closed
from apsquares.search import (
    CheckpointMismatch,
    find_solutions,
    verify_no_solutions,
)


def _brute_solutions(k, n_max, d_max):
    out = []
    for d in range(1, d_max + 1):
        for n in range(1, n_max + 1):
            total = direct_square_sum(n, d, k)
            root = math.isqrt(total)
            if root * root == total:
                out.append((n, d, root))
    return tuple(out)


def _essence(report):
    # identical reports up to wall time and resume token
    return dataclasses.replace(report, elapsed=0.0, checkpoint_state=None)


def test_verify_pinned_grids():
    report = verify_no_solutions(3, 500, 500)
    assert report.windows_checked == 250_000
    assert report.solutions == ()
    assert not report.sieve_used
    assert report.n_range == (1, 500) and report.d_range == (1, 500)
    assert verify_no_solutions(5, 200, 200).solutions == ()
    assert verify_no_solutions(7, 200, 200).solutions == ()


def test_verify_domain(tmp_path):
    with pytest.raises(ValueError):
        verify_no_solutions(11, 10, 10)  # 3 is a residue mod 11
    path = tmp_path / "refused.ckpt"
    with pytest.raises(ValueError):
        verify_no_solutions(11, 10, 10, checkpoint=str(path))
    assert not path.exists()  # a refused run leaves no checkpoint behind
    with pytest.raises(ValueError):
        verify_no_solutions(13, 10, 10)
    with pytest.raises(ValueError):
        verify_no_solutions(4, 10, 10)
    with pytest.raises(ValueError):
        verify_no_solutions(2, 10, 10)
    with pytest.raises(ValueError):
        verify_no_solutions(5, 0, 10)


def test_find_pinned_solutions():
    assert (18, 1, 77) in find_solutions(11, 50, 1).solutions
    assert (7, 1, 92) in find_solutions(23, 50, 1).solutions
    assert (1, 1, 70) in find_solutions(24, 5, 1).solutions
    assert (3, 1, 5) in find_solutions(2, 10, 1).solutions  # 3,4 -> 5


def test_find_matches_brute_force():
    for k in (2, 3, 11, 24):
        report = find_solutions(k, 60, 40)
        assert report.solutions == _brute_solutions(k, 60, 40)
        assert report.windows_checked == 60 * 40
        assert not report.sieve_used


def test_find_domain():
    with pytest.raises(ValueError):
        find_solutions(1, 10, 10)
    with pytest.raises(ValueError):
        find_solutions(0, 10, 10)
    with pytest.raises(ValueError):
        find_solutions(11, 10, 0)


def test_solutions_sorted_by_d_then_n():
    for use_sieve in (False, True):
        sols = find_solutions(11, 200, 200, use_sieve=use_sieve).solutions
        assert list(sols) == sorted(sols, key=lambda s: (s[1], s[0]))


def test_sieve_lossless_and_cheaper():
    for k in (11, 13, 23):
        plain = find_solutions(k, 200, 200, use_sieve=False)
        sieved = find_solutions(k, 200, 200, use_sieve=True)
        assert sieved.solutions == plain.solutions
        assert sieved.sieve_used and not plain.sieve_used
        assert sieved.windows_checked < plain.windows_checked == 200 * 200


def test_sieve_matches_brute_force_oracle():
    report = find_solutions(11, 120, 90, use_sieve=True)
    assert report.solutions == _brute_solutions(11, 120, 90)


def test_sieve_on_non_residue_prime_scans_only_divisible_strata():
    plain = find_solutions(5, 100, 100, use_sieve=False)
    sieved = find_solutions(5, 100, 100, use_sieve=True)
    assert sieved.solutions == plain.solutions == ()
    assert sieved.sieve_used
    # The coprime stratum is empty, so at most the cells with 5 | n*d
    # (grid minus the 80x80 coprime block) can be inspected.
    assert 0 < sieved.windows_checked <= 100 * 100 - 80 * 80


@pytest.mark.parametrize("k,n_max", [(5, 200), (7, 150), (11, 220), (13, 60), (23, 12)])
def test_sieve_equals_plain_scan_and_brute_force_past_k_squared(k, n_max):
    # d_max >= 2k^2 puts rows with k^2 | d in the grid; n_max = 220 for
    # k = 11 reaches the scaled solution (198, 11, 847) of (18, 1, 77).
    d_max = 2 * k * k + 2
    sieved = find_solutions(k, n_max, d_max, use_sieve=True)
    assert sieved.sieve_used
    assert sieved.solutions == find_solutions(k, n_max, d_max).solutions
    assert sieved.solutions == _brute_solutions(k, n_max, d_max)


@given(st.sampled_from([11, 13, 23, 37]), st.integers(1, 10**6), st.integers(1, 10**6))
def test_k_divides_n_only_gives_valuation_one(k, m, d):
    # The coprime-row sieve skips the class k | n on this law.
    if d % k == 0:
        d += 1
    total = direct_square_sum(k * m, d, k)
    assert total % k == 0 and total % (k * k) != 0


def test_sieve_on_non_residue_prime_scans_only_rows_divisible_by_k():
    # Coprime rows have no admissible class, so only the 20 rows with
    # 5 | d are inspected, in full.
    assert find_solutions(5, 100, 100, use_sieve=True).windows_checked == 20 * 100


@pytest.mark.parametrize("k,n_max,d_max", [(11, 30, 7), (11, 30, 25), (13, 20, 40), (23, 100, 47), (5, 9, 12)])
def test_sieved_windows_count_admissible_cells(k, n_max, d_max):
    # Every cell of a row with k | d, and elsewhere the cells whose ratio
    # d/n mod k is admissible, i.e. d = n * r (mod k).
    ratios = search.residue_sieve(k)
    expected = sum(
        1
        for d in range(1, d_max + 1)
        for n in range(1, n_max + 1)
        if d % k == 0 or any((n * r - d) % k == 0 for r in ratios)
    )
    assert find_solutions(k, n_max, d_max, use_sieve=True).windows_checked == expected


def test_sieve_request_ignored_for_ineligible_lengths():
    for k in (2, 3, 4, 24):
        report = find_solutions(k, 30, 5, use_sieve=True)
        assert not report.sieve_used
        assert report.windows_checked == 30 * 5


def test_scaling_closure():
    base = find_solutions(11, 70, 70).solutions
    assert base  # includes (18, 1, 77)
    bigger = find_solutions(11, 210, 210).solutions
    for n, d, t in base:
        for m in (2, 3):
            assert window_sum_sq_closed(APWindow(m * n, m * d, 11)) == (m * t) ** 2
            assert (m * n, m * d, m * t) in bigger


def test_determinism_of_repeat_runs():
    first = find_solutions(11, 150, 150, use_sieve=True)
    again = find_solutions(11, 150, 150, use_sieve=True)
    assert _essence(first) == _essence(again)


def test_checkpoint_file_format(tmp_path):
    path = str(tmp_path / "run.ckpt")
    report = verify_no_solutions(5, 30, 12, checkpoint=path)
    assert report.checkpoint_state == path
    lines = (tmp_path / "run.ckpt").read_text(encoding="ascii").splitlines()
    assert lines[0] == "k=5 n_max=30 d_max=12 sieve=0"
    assert lines[1:] == [f"done d={d}" for d in range(1, 13)]


def test_checkpoint_resume_after_every_row(tmp_path):
    full = verify_no_solutions(5, 30, 12)
    path = tmp_path / "resume.ckpt"
    fingerprint = "k=5 n_max=30 d_max=12 sieve=0"
    for rows_done in range(12):
        # the file a run killed after `rows_done` rows leaves behind
        path.write_text(
            fingerprint + "\n" + "".join(f"done d={d}\n" for d in range(1, rows_done + 1)),
            encoding="ascii",
        )
        resumed = verify_no_solutions(5, 30, 12, checkpoint=str(path))
        assert _essence(resumed) == _essence(full)
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[1:] == [f"done d={d}" for d in range(1, 13)]


def test_checkpoint_fingerprint_mismatch(tmp_path):
    path = tmp_path / "other.ckpt"
    path.write_text("k=7 n_max=30 d_max=12 sieve=0\ndone d=1\n", encoding="ascii")
    with pytest.raises(CheckpointMismatch):
        verify_no_solutions(5, 30, 12, checkpoint=str(path))
    assert path.read_bytes() == b"k=7 n_max=30 d_max=12 sieve=0\ndone d=1\n"  # left untouched


def test_checkpoint_malformed_line(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("k=5 n_max=30 d_max=12 sieve=0\ndone d=oops\n", encoding="ascii")
    with pytest.raises(CheckpointMismatch):
        verify_no_solutions(5, 30, 12, checkpoint=str(path))
    path.write_text("k=5 n_max=30 d_max=12 sieve=0\nrow 3 finished\n", encoding="ascii")
    with pytest.raises(CheckpointMismatch):
        verify_no_solutions(5, 30, 12, checkpoint=str(path))


def test_checkpoint_non_ascii_byte_rejected(tmp_path):
    path = tmp_path / "binary.ckpt"
    path.write_bytes(b"k=5 n_max=30 d_max=12 sieve=0\n\xff\n")
    with pytest.raises(CheckpointMismatch, match="binary.ckpt"):
        verify_no_solutions(5, 30, 12, checkpoint=str(path))


def test_checkpoint_torn_tail_is_cut_before_append(tmp_path):
    full = verify_no_solutions(5, 30, 12)
    fingerprint = "k=5 n_max=30 d_max=12 sieve=0"
    path = tmp_path / "torn.ckpt"
    for content in (fingerprint + "\ndone d=1\ndone d=", fingerprint[:7]):
        path.write_text(content, encoding="ascii")
        resumed = verify_no_solutions(5, 30, 12, checkpoint=str(path))
        assert _essence(resumed) == _essence(full)
        assert path.read_text(encoding="ascii") == fingerprint + "\n" + "".join(
            f"done d={d}\n" for d in range(1, 13)
        )
    path.write_text("k=7 n_max", encoding="ascii")  # torn, but another run's
    with pytest.raises(CheckpointMismatch):
        verify_no_solutions(5, 30, 12, checkpoint=str(path))
    assert path.read_bytes() == b"k=7 n_max"  # not cut: the tail is another run's


def test_checkpoint_torn_row_number_is_not_done(tmp_path, monkeypatch):
    # A torn "done d=25" reads "done d=2"; row 2 holds a counterexample
    # here, so trusting the torn line would lose it.
    monkeypatch.setattr(search, "legendre_euler", lambda a, p: -1)
    path = tmp_path / "torn.ckpt"
    path.write_text("k=11 n_max=40 d_max=25 sieve=0\ndone d=2", encoding="ascii")
    report = search.verify_no_solutions(11, 40, 25, checkpoint=str(path))
    assert (36, 2, 154) in report.solutions
    assert report.solutions == search.verify_no_solutions(11, 40, 25).solutions


def test_checkpoint_row_outside_grid_rejected(tmp_path):
    path = tmp_path / "range.ckpt"
    for row in (0, 13, 999):
        path.write_text(f"k=5 n_max=30 d_max=12 sieve=0\ndone d={row}\n", encoding="ascii")
        with pytest.raises(CheckpointMismatch):
            verify_no_solutions(5, 30, 12, checkpoint=str(path))


def test_checkpoint_empty_file_is_fresh(tmp_path):
    path = tmp_path / "fresh.ckpt"
    path.touch()
    report = verify_no_solutions(5, 10, 4, checkpoint=str(path))
    assert report.windows_checked == 40
    assert path.read_text(encoding="ascii").splitlines()[0] == "k=5 n_max=10 d_max=4 sieve=0"


def test_counterexample_reported_and_not_checkpointed(tmp_path, monkeypatch):
    # Force the gate open for p = 11, where genuine square windows exist,
    # to exercise the falsification path end to end.
    monkeypatch.setattr(search, "legendre_euler", lambda a, p: -1)
    path = tmp_path / "ce.ckpt"
    report = search.verify_no_solutions(11, 30, 2, checkpoint=str(path))
    assert report.solutions == ((18, 1, 77),)
    lines = path.read_text(encoding="ascii").splitlines()
    assert "done d=1" not in lines  # the counterexample row stays unmarked
    assert "done d=2" in lines
    resumed = search.verify_no_solutions(11, 30, 2, checkpoint=str(path))
    assert resumed.solutions == ((18, 1, 77),)  # resume rediscovers it


def test_injected_fake_hit_fails_reverification(monkeypatch):
    monkeypatch.setattr(search, "_scan_row", lambda *args, **kwargs: [(1, 1)])
    with pytest.raises(RuntimeError):
        search.verify_no_solutions(5, 3, 1)


_BLOCK = search._BLOCK


def _kernel_hits(k, d, n_lo, n_hi, sieve):
    # The kernel as find_solutions drives it: the sieve only for prime
    # k >= 5 and only on rows with k not dividing d.
    tables = search._row_tables(k, n_hi - n_lo + 1)
    inverses = None
    if sieve and k >= 5 and search.is_prime(k) and d % k:
        inverses = tuple(pow(r, -1, k) for r in search.residue_sieve(k))
    return search._scan_row(k, d, n_lo, n_hi, tables=tables, inverses=inverses)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 11, 12, 13, 23, 89])
def test_row_kernel_matches_direct_sums(k):
    # The oracle runs once per row over the longest range; shorter rows
    # compare against its prefix. Rows at d of 2^64 and more push S past
    # 2^128; rows with k | d run unsieved.
    n_maxes = (1, _BLOCK - 1, _BLOCK, 2 * _BLOCK + 17)
    for d in (1, 3 * k, 2**70 - 3, k << 64):
        expected = []
        for n in range(1, n_maxes[-1] + 1):
            total = direct_square_sum(n, d, k)
            root = math.isqrt(total)
            if root * root == total:
                expected.append((n, root))
        for n_max in n_maxes:
            prefix = [hit for hit in expected if hit[0] <= n_max]
            for sieve in (False, True):
                assert _kernel_hits(k, d, 1, n_max, sieve) == prefix, (d, n_max, sieve)


@pytest.mark.parametrize("k,n,d,t", [(11, 18, 1, 77), (23, 7, 1, 92), (24, 1, 1, 70), (2, 3, 1, 5)])
def test_row_kernel_finds_scaled_solutions_past_2_64(k, n, d, t):
    # (m*n, m*d, m*t) solves whenever (n, d, t) does; m > 2^64 makes the
    # sums exceed 2^128 inside a window starting far from n = 1.
    m = 2**65 + 7
    lo = m * n - _BLOCK - 5
    for sieve in (False, True):
        hits = _kernel_hits(k, m * d, lo, lo + 2 * _BLOCK + 16, sieve)
        assert (m * n, m * t) in hits
        for hit_n, root in hits:
            assert root * root == direct_square_sum(hit_n, m * d, k)


@pytest.mark.parametrize("k", [2, 3, 5, 6, 11, 13, 89, 30030])
def test_row_tables_match_residue_enumeration(k):
    n_max = 40
    tables = search._row_tables(k, n_max)
    assert tables.width == n_max
    for m, tiles in tables.squares:
        squares_mod_m = {x * x % m for x in range(m)}
        assert len(tiles) == m
        for r, tile in enumerate(tiles):
            for i in range(n_max + m - 1):
                byte = tile >> (8 * i) & 0xFF
                # d = r stands for every d = r (mod m).
                assert byte == (direct_square_sum(i + 1, r, k) % m in squares_mod_m), (m, r, i)
    for i in range(n_max):
        assert tables.every_cell >> (8 * i) & 0xFF == 1
        assert tables.every_kth_cell >> (8 * i) & 0xFF == (i % k == 0)


def test_verify_filter_never_uses_the_length_as_modulus(monkeypatch):
    # A filter modulus sharing a factor with p would let verify assume
    # the nonexistence result it is meant to test.
    used = []
    real_scan_row = search._scan_row

    def spy(*args, **kwargs):
        used.append(kwargs["tables"])
        return real_scan_row(*args, **kwargs)

    monkeypatch.setattr(search, "_scan_row", spy)
    lengths = [3] + [p for p in range(5, 200) if search.is_prime(p) and p % 12 in (5, 7)]
    assert 5 in lengths and 7 in lengths
    for p in lengths:
        used.clear()
        verify_no_solutions(p, 20, 2)
        assert used
        for tables in used:
            assert tables.squares
            assert all(math.gcd(m, p) == 1 for m, _ in tables.squares), p
