"""Tests for grid verification, discovery, sieving, and checkpoints."""

import math
import os

import pytest
from conftest import direct_square_sum
from hypothesis import given
from hypothesis import strategies as st

import apsquares.search as search
from apsquares.apsum import APWindow, window_form, window_sum_sq_closed
from apsquares.obstruction import residue_sieve, trace_length3, valuation_law
from apsquares.residues import DETERMINISTIC_LIMIT, is_prime
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


def test_verify_pinned_grids():
    report = verify_no_solutions(3, 500, 500)
    assert report.windows_checked == 250_000
    assert report.solutions == ()
    assert not report.sieve_used
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


def _error(run):
    try:
        run()
    except ValueError as exc:
        return str(exc)
    return None


def test_verify_accepts_exactly_the_traceable_lengths():
    # verify's domain against two other engines: the trace's gates, and
    # for primes the ratio sieve, empty exactly when 3 is a non-residue.
    # 2^89 - 1 is beyond the deterministic range, where all of them refuse.
    for p in (*range(-2, 3000), 2**61 - 1, 2**61 + 1, 2**89 - 1):
        refused = _error(lambda: verify_no_solutions(p, 1, 1)) is not None
        trace = trace_length3 if p == 3 else valuation_law
        assert refused == (_error(lambda: trace(APWindow(1, 1, p))) is not None), p
        if 5 <= p < DETERMINISTIC_LIMIT and is_prime(p):
            assert refused == bool(residue_sieve(p)), p


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


@pytest.mark.parametrize(
    "k,n_max,d_max",
    [(11, 30, 7), (11, 30, 25), (13, 20, 40), (23, 100, 47), (5, 9, 12), (11, 40, 11), (13, 13, 40)],
)
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
    assert first == again


def test_checkpoint_file_format(tmp_path):
    path = str(tmp_path / "run.ckpt")
    verify_no_solutions(5, 30, 12, checkpoint=path)
    rows = "".join(f"done d={d}\n" for d in range(1, 13))
    assert (tmp_path / "run.ckpt").read_bytes() == ("k=5 n_max=30 d_max=12 sieve=0\n" + rows).encode()


def test_checkpoint_flushes_rows_once_the_interval_has_passed(monkeypatch, tmp_path):
    # With no interval to wait, each completed row is on disk before the next is scanned.
    path = tmp_path / "flush.ckpt"
    header = "k=5 n_max=30 d_max=12 sieve=0\n"
    scan_row = search._scan_row
    scanned = []

    def spy(k, fixed, *args, **kwargs):
        done = "".join(f"done d={d}\n" for d in range(1, fixed))
        assert path.read_text(encoding="ascii") == header + done
        scanned.append(fixed)
        return scan_row(k, fixed, *args, **kwargs)

    monkeypatch.setattr(search, "_FLUSH_S", 0)
    monkeypatch.setattr(search, "_scan_row", spy)
    verify_no_solutions(5, 30, 12, checkpoint=str(path))
    assert scanned == list(range(1, 13))


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
        assert resumed == full
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[1:] == [f"done d={d}" for d in range(1, 13)]


def test_checkpoint_fingerprint_mismatch(tmp_path):
    path = tmp_path / "other.ckpt"
    # The second is this run's fingerprint joined to a row by "\x1e", not "\n".
    for content in (b"k=7 n_max=30 d_max=12 sieve=0\ndone d=1\n",
                    b"k=5 n_max=30 d_max=12 sieve=0\x1edone d=7\n"):
        path.write_bytes(content)
        with pytest.raises(CheckpointMismatch):
            verify_no_solutions(5, 30, 12, checkpoint=str(path))
        assert path.read_bytes() == content  # left untouched


def test_checkpoint_malformed_line(tmp_path):
    path = tmp_path / "bad.ckpt"
    # "done d=x" and "done d=" are short enough to reach int(), which refuses them.
    # int() accepts "1_0" through "3 "; only the writer's exact "done d=<row>" counts.
    # splitlines() would read the last two as rows, breaking at "\x0c" and "\r".
    for line in ("done d=oops", "done d=x", "done d=", "row 3 finished", "done d=1_0",
                 "done d=+3", "done d= 3", "done d=03", "done d=3 ", "done d=1\x0cdone d=2",
                 "done d=1\r"):
        content = f"k=5 n_max=30 d_max=12 sieve=0\n{line}\n".encode("ascii")
        path.write_bytes(content)
        with pytest.raises(CheckpointMismatch, match="malformed"):
            verify_no_solutions(5, 30, 12, checkpoint=str(path))
        assert path.read_bytes() == content  # read_text() would turn "\r\n" into "\n"


def test_checkpoint_non_ascii_byte_rejected(tmp_path):
    path = tmp_path / "binary.ckpt"
    path.write_bytes(b"k=5 n_max=30 d_max=12 sieve=0\n\xff\n")
    with pytest.raises(CheckpointMismatch, match="binary.ckpt"):
        verify_no_solutions(5, 30, 12, checkpoint=str(path))


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_checkpoint_that_is_not_a_regular_file_is_refused():
    # A character device is refused before it is read: /dev/zero would be read without end.
    with pytest.raises(CheckpointMismatch, match="'/dev/null' is not a regular file"):
        verify_no_solutions(5, 3, 3, checkpoint="/dev/null")


def test_checkpoint_torn_tail_is_cut_before_append(tmp_path):
    full = verify_no_solutions(5, 30, 12)
    fingerprint = "k=5 n_max=30 d_max=12 sieve=0"
    path = tmp_path / "torn.ckpt"
    for content in (fingerprint + "\ndone d=1\ndone d=", fingerprint[:7]):
        path.write_text(content, encoding="ascii")
        resumed = verify_no_solutions(5, 30, 12, checkpoint=str(path))
        assert resumed == full
        assert path.read_text(encoding="ascii") == fingerprint + "\n" + "".join(
            f"done d={d}\n" for d in range(1, 13)
        )
    path.write_text("k=7 n_max", encoding="ascii")  # torn, but another run's
    with pytest.raises(CheckpointMismatch):
        verify_no_solutions(5, 30, 12, checkpoint=str(path))
    assert path.read_bytes() == b"k=7 n_max"  # not cut: the tail is another run's


def test_checkpoint_torn_row_number_is_not_done(tmp_path):
    # A torn "done d=25" reads "done d=2"; row 2 holds a counterexample
    # here, so trusting the torn line would lose it. verify's driver runs
    # past its gate, which refuses p = 11, where square windows exist.
    path = tmp_path / "torn.ckpt"
    path.write_text("k=11 n_max=40 d_max=25 sieve=0\ndone d=2", encoding="ascii")
    report = search._scan_grid(11, 40, 25, None, str(path))
    assert (36, 2, 154) in report.solutions
    assert report.solutions == find_solutions(11, 40, 25).solutions


def test_checkpoint_resume_from_every_byte_prefix(tmp_path):
    # Row 1 holds hits, so it is never marked done. Each prefix is a file
    # some interrupted write could leave, a torn header included.
    path = tmp_path / "prefix.ckpt"
    full = search._scan_grid(11, 40, 25, None, str(path))
    finished = path.read_bytes()
    assert b"done d=1\n" not in finished
    for cut in range(len(finished) + 1):
        path.write_bytes(finished[:cut])
        resumed = search._scan_grid(11, 40, 25, None, str(path))
        assert resumed == full
        assert path.read_bytes() == finished


def test_checkpoint_corrupt_header_byte_rejected(tmp_path):
    path = tmp_path / "header.ckpt"
    search._scan_grid(11, 40, 25, None, str(path))
    finished = path.read_bytes()
    for i in range(finished.index(b"\n") + 1):
        corrupt = finished[:i] + b"#" + finished[i + 1 :]
        # Cut just after the overwritten byte, and at full length.
        for content in (corrupt[: i + 1], corrupt):
            path.write_bytes(content)
            with pytest.raises(CheckpointMismatch):
                search._scan_grid(11, 40, 25, None, str(path))
            assert path.read_bytes() == content


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


def test_checkpoint_size_bound_is_the_longest_file_the_run_writes(tmp_path):
    # With d_max = 9 every row line has the longest spelling, 9 bytes: the
    # longest file is the header, all 9 rows and a torn line of 8 bytes.
    full = verify_no_solutions(5, 30, 9)
    finished = "k=5 n_max=30 d_max=9 sieve=0\n" + "".join(f"done d={d}\n" for d in range(1, 10))
    limit = len(finished) + 8
    assert limit == 118
    path = tmp_path / "bound.ckpt"
    path.write_text(finished + "done d=9", encoding="ascii")
    assert verify_no_solutions(5, 30, 9, checkpoint=str(path)) == full
    assert path.read_text(encoding="ascii") == finished
    content = (finished + "done d=99").encode("ascii")
    assert len(content) == limit + 1
    path.write_bytes(content)
    with pytest.raises(CheckpointMismatch, match=r"malformed checkpoint .*bound\.ckpt"):
        verify_no_solutions(5, 30, 9, checkpoint=str(path))
    assert path.read_bytes() == content


def test_counterexample_reported_and_not_checkpointed(tmp_path):
    # Run verify's driver past its gate for p = 11, where genuine square
    # windows exist, to exercise the falsification path end to end.
    path = tmp_path / "ce.ckpt"
    report = search._scan_grid(11, 30, 2, None, str(path))
    assert report.solutions == ((18, 1, 77),) == find_solutions(11, 30, 2).solutions
    lines = path.read_text(encoding="ascii").splitlines()
    assert "done d=1" not in lines  # the counterexample row stays unmarked
    assert "done d=2" in lines
    resumed = search._scan_grid(11, 30, 2, None, str(path))
    assert resumed.solutions == ((18, 1, 77),)  # resume rediscovers it


def test_injected_fake_hit_fails_reverification(monkeypatch):
    monkeypatch.setattr(search, "_scan_row", lambda *args, **kwargs: [(1, 1)])
    with pytest.raises(RuntimeError):
        search.verify_no_solutions(5, 3, 1)


_BLOCK = search._BLOCK
# Lines enough to visit every residue of every selector modulus, so the
# tables hold a tile for each.
_ALL_LINES = max(search._MODULI)


def _kernel_hits(k, d, n_lo, n_hi, sieve):
    # The kernel as find_solutions drives it: the sieve only for prime
    # k >= 5 and only on rows with k not dividing d.
    tables = search._row_tables(k, n_hi - n_lo + 1, window_form(k), lines=_ALL_LINES)
    classes = None
    if sieve and k >= 5 and search.is_prime(k) and d % k:
        classes = {d * pow(r, -1, k) % k for r in search.residue_sieve(k)}
    return search._scan_row(k, d, n_lo, n_hi, tables=tables, classes=classes)


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


# A known solution (n, d) per length; the other lengths scan lines through (1, 1).
_SOLVED = {4: (13, 6), 11: (18, 1), 24: (1, 1)}


@pytest.mark.parametrize("k", [4, 11, 12, 13, 24, 4099, 30030])
def test_kernel_keeps_exactly_the_cells_of_its_classes(k):
    # Class sets no sieve produces, on rows and columns of 1, _BLOCK and
    # 2 * _BLOCK + 17 cells, from x = 1 and from past 2^40 through a scaled
    # solution. For k = 30030 only the moduli 17, 19 and 23 are coprime; 4099 > _BLOCK.
    a, b, c = window_form(k)
    n0, d0 = _SOLVED.get(k, (1, 1))
    lengths = (1, _BLOCK, 2 * _BLOCK + 17)
    hits_seen = 0
    for columns in (False, True):
        form = (c, b, a) if columns else (a, b, c)
        for m in (1, 2**40 + 9):
            fixed, x0 = (m * n0, m * d0) if columns else (m * d0, m * n0)
            lo = 1 if m == 1 else x0 - _BLOCK - 5
            squares = []
            for x in range(lo, lo + lengths[-1]):
                n, d = (fixed, x) if columns else (x, fixed)
                total = a * n * n + b * n * d + c * d * d if k > 100 else direct_square_sum(n, d, k)
                root = math.isqrt(total)
                if root * root == total:
                    squares.append((x, root))
            hits_seen += len(squares)
            h = squares[0][0] % k if squares else 1
            for length in lengths:
                hi = lo + length - 1
                line = [hit for hit in squares if hit[0] <= hi]
                tables = search._row_tables(k, length, form, lines=_ALL_LINES)
                three = {h, (h + 2) % k, (h + 5) % k}
                for classes in (None, set(range(k)), set(), {h}, {(h + 1) % k}, three):
                    kept = [hit for hit in line if classes is None or hit[0] % k in classes]
                    hits = search._scan_row(k, fixed, lo, hi, tables=tables, classes=classes)
                    assert hits == kept, (columns, lo, length, classes)
    if k in _SOLVED:
        assert hits_seen


def test_kernel_keeps_exactly_the_cells_of_its_classes_without_selector_moduli():
    # k = 2*3*5*...*23 shares a factor with every selector modulus, so its
    # tables are empty and a line without classes takes every cell. Besides
    # the rows' and columns' forms, (1, 2, 1) makes S = (x + fixed)^2 a
    # square at every cell. Class sets cover the line, not all k residues.
    k = 223092870
    a, b, c = window_form(k)
    lengths = (1, _BLOCK, 2 * _BLOCK + 17)
    for form in ((a, b, c), (c, b, a), (1, 2, 1)):
        fa, fb, fc = form
        for fixed in (1, 2**40 + 9):
            lo = 1 if fixed == 1 else fixed - _BLOCK - 5
            squares = []
            for x in range(lo, lo + lengths[-1]):
                total = fa * x * x + fb * x * fixed + fc * fixed * fixed
                root = math.isqrt(total)
                if root * root == total:
                    squares.append((x, root))
            if form == (1, 2, 1):
                assert len(squares) == lengths[-1]
            for length in lengths:
                hi = lo + length - 1
                line = [hit for hit in squares if hit[0] <= hi]
                tables = search._row_tables(k, length, form, lines=_ALL_LINES)
                assert not tables.squares
                every = {x % k for x in range(lo, hi + 1)}
                for classes in (None, every, set(), {lo % k}, {(lo + 1) % k, hi % k}):
                    kept = [hit for hit in line if classes is None or hit[0] % k in classes]
                    hits = search._scan_row(k, fixed, lo, hi, tables=tables, classes=classes)
                    assert hits == kept, (form, lo, length, classes)


@pytest.mark.parametrize("k", [2, 11, 13, 24, 89])
def test_kernel_takes_isqrt_only_on_selected_cells(k, monkeypatch):
    # A line's isqrt calls are its cells the sieve keeps whose S is a
    # square modulo every selector modulus coprime to k, counted here by
    # brute force: rows and columns, sieve on and off.
    moduli = [(m, {x * x % m for x in range(m)}) for m in search._MODULI if math.gcd(m, k) == 1]
    ratios = _sieve_ratios(k)
    lines = []
    real_isqrt, real_scan_row = math.isqrt, search._scan_row

    def counting_isqrt(value):
        lines[-1][-1] += 1
        return real_isqrt(value)

    def spy(k, fixed, lo, hi, **kwargs):
        lines.append([fixed, lo, hi, 0])
        return real_scan_row(k, fixed, lo, hi, **kwargs)

    monkeypatch.setattr(math, "isqrt", counting_isqrt)
    monkeypatch.setattr(search, "_scan_row", spy)
    sums = {}
    for n_max, d_max in ((200, 30), (30, 200)):
        for use_sieve in (False, True):
            lines.clear()
            find_solutions(k, n_max, d_max, use_sieve)
            assert len(lines) == min(n_max, d_max)
            for fixed, lo, hi, calls in lines:
                selected = 0
                for x in range(lo, hi + 1):
                    n, d = (fixed, x) if n_max < d_max else (x, fixed)
                    if use_sieve and ratios is not None and d % k:
                        if n % k == 0 or d * pow(n, -1, k) % k not in ratios:
                            continue
                    if (n, d) not in sums:
                        sums[n, d] = direct_square_sum(n, d, k)
                    selected += all(sums[n, d] % m in squares for m, squares in moduli)
                assert calls == selected, (n_max, d_max, use_sieve, fixed)


def _square_sum_mod(n, d, k, m):
    # S(n, d, k) mod m from one period of terms: n + (i + m)d = n + id (mod m),
    # so the k terms are k // m whole periods and the first k mod m terms.
    period = sum((n + i * d) ** 2 for i in range(m))
    return ((k // m) * period + sum((n + i * d) ** 2 for i in range(k % m))) % m


def _assert_tiles_match(tables, k, width, cell):
    # Bit i of tile r is the cell x = i + 1 of a line whose fixed coordinate
    # is r; `cell(r, x)` is its (n, d). A few cells per modulus pin the
    # period shortcut to the direct sum.
    for m, tiles in tables.squares:
        squares_mod_m = {x * x % m for x in range(m)}
        assert len(tiles) == m
        for r, tile in enumerate(tiles):
            for i in range(width + m - 1):
                # r stands for every fixed coordinate = r (mod m).
                expected = _square_sum_mod(*cell(r, i + 1), k, m) in squares_mod_m
                assert tile >> i & 1 == expected, (m, r, i)
        for r, x in ((0, 1), (1, 2), (m - 1, width + m - 1)):
            n, d = cell(r, x)
            assert _square_sum_mod(n, d, k, m) == direct_square_sum(n, d, k) % m, (m, r, x)


@pytest.mark.parametrize("k", [2, 3, 5, 6, 11, 13, 89, 30030])
def test_row_tables_match_residue_enumeration(k):
    n_max = 40
    tables = search._row_tables(k, n_max, window_form(k), lines=_ALL_LINES)
    assert tables.form == window_form(k)
    assert tables.width == n_max
    _assert_tiles_match(tables, k, n_max, lambda r, x: (x, r))
    for i in range(n_max):
        assert tables.every_kth_cell >> i & 1 == (i % k == 0)


@pytest.mark.parametrize("lines", [1, 5, 22, 70])
@pytest.mark.parametrize("k", [5, 11, 89])
def test_tables_for_a_runs_lines_hold_the_full_tables_visited_tiles(k, lines):
    # A run's lines fix the coordinates 1..lines, so they visit only the
    # residues below min(m, lines + 1); those tiles are the full build's.
    for form in (window_form(k), window_form(k)[::-1]):
        full = search._row_tables(k, 40, form, lines=_ALL_LINES)
        visited = search._row_tables(k, 40, form, lines)
        assert visited._replace(squares=None) == full._replace(squares=None)
        assert [m for m, _ in visited.squares] == [m for m, _ in full.squares]
        for (m, tiles), (_, full_tiles) in zip(visited.squares, full.squares):
            assert len(tiles) == min(m, lines + 1)
            assert tiles == full_tiles[: min(lines, m - 1) + 1], (m, form)


@pytest.mark.parametrize("lines", [1, 5, 22, 70])
def test_scans_with_the_visited_tiles_match_scans_with_the_full_tables(lines, monkeypatch):
    # Rows on (90, lines) grids and columns on (lines, 90) ones: a small
    # verify and a small sieved search report as with every tile built.
    def scans():
        return [
            run(k, *grid)
            for grid in ((90, lines), (lines, 90))
            for run, k in ((verify_no_solutions, 5), (verify_no_solutions, 89),
                           (lambda k, n, d: find_solutions(k, n, d, use_sieve=True), 11))
        ]

    with_visited_tiles = scans()
    full_tables = search._row_tables
    monkeypatch.setattr(
        search, "_row_tables", lambda k, length, form, lines: full_tables(k, length, form, _ALL_LINES)
    )
    assert with_visited_tiles == scans()
    assert any(report.solutions for report in with_visited_tiles)


def test_verify_filter_never_uses_the_length_as_modulus(monkeypatch):
    # A filter modulus sharing a factor with p would let verify assume
    # the nonexistence result it is meant to test. It matters at p = 3,
    # where the tile at 9 keeps only 3 | n and 3 | d, the length-3
    # theorem's 3-adic step; for p >= 5 the tile at p keeps every cell.
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


def _sieve_ratios(k):
    # find_solutions' sieve: the admissible ratios, for prime k >= 5.
    return residue_sieve(k) if k >= 5 and is_prime(k) else None


def _count_kept_cells(monkeypatch):
    # Spy on the kernel and count the cells its class filter leaves: the
    # whole line, or the cells x = c (mod k) for each class c.
    kept = []
    real_scan_row = search._scan_row

    def spy(k, fixed, lo, hi, *, tables, classes=None):
        if classes is None:
            kept.append(hi - lo + 1)
        else:
            kept.append(sum(len(range(lo + (c - lo) % k, hi + 1, k)) for c in classes))
        return real_scan_row(k, fixed, lo, hi, tables=tables, classes=classes)

    monkeypatch.setattr(search, "_scan_row", spy)
    return kept


@pytest.mark.parametrize("k", [2, 3, 5, 7, 11, 13, 23, 24, 89])
def test_rows_and_columns_agree(k, tmp_path, monkeypatch):
    # A checkpoint forces d-major rows; without one a tall grid is
    # scanned by columns. d_max >= 2k^2 + 2 puts rows with k^2 | d in the
    # grid; for k = 89 three columns keep the direct-sum oracle quick.
    kept = _count_kept_cells(monkeypatch)
    for n_max, d_max in ((7, 600), (20 if k < 89 else 3, max(2 * k * k + 2, 60))):
        brute = _brute_solutions(k, n_max, d_max)
        for ratios in dict.fromkeys((None, _sieve_ratios(k))):
            path = tmp_path / f"{n_max}-{ratios is None}.ckpt"
            kept.clear()
            rows = search._scan_grid(k, n_max, d_max, ratios, str(path))
            assert len(kept) == d_max and sum(kept) == rows.windows_checked
            kept.clear()
            columns = search._scan_grid(k, n_max, d_max, ratios, None)
            assert len(kept) == n_max and sum(kept) == columns.windows_checked
            assert columns.solutions == rows.solutions == brute, (n_max, d_max, ratios)
            assert columns.windows_checked == rows.windows_checked


@pytest.mark.parametrize("n_max,d_max", [(10, 400), (20, 300)])
@pytest.mark.parametrize("p", [3, 5, 7, 17])
def test_verify_report_is_the_same_scanned_by_rows_or_by_columns(p, n_max, d_max, tmp_path):
    # The checkpointed run scans the d_max rows and the other the n_max
    # columns; the report names neither the checkpoint nor the grid, so
    # the two are equal, down to their hashes.
    rows = verify_no_solutions(p, n_max, d_max, checkpoint=str(tmp_path / "rows.ckpt"))
    columns = verify_no_solutions(p, n_max, d_max)
    assert rows == columns
    assert hash(rows) == hash(columns)
    assert rows.solutions == ()
    assert rows.windows_checked == n_max * d_max


@pytest.mark.parametrize("k", [2, 3, 5, 6, 11, 13, 89, 30030])
def test_column_tables_match_residue_enumeration(k):
    d_max = 40
    tables = search._row_tables(k, d_max, window_form(k)[::-1], lines=_ALL_LINES)
    assert tables.form == window_form(k)[::-1]
    assert tables.width == d_max
    _assert_tiles_match(tables, k, d_max, lambda r, x: (r, x))


def test_column_filter_never_uses_the_length_as_modulus(monkeypatch):
    # The tall-grid companion of the row test: verify's columns, too,
    # never filter by a modulus sharing a factor with p, which matters at
    # p = 3 (the tile at 9 is the 3-adic step) and not for p >= 5.
    used = []
    real_scan_row = search._scan_row

    def spy(*args, **kwargs):
        used.append(kwargs["tables"])
        return real_scan_row(*args, **kwargs)

    monkeypatch.setattr(search, "_scan_row", spy)
    lengths = [3] + [p for p in range(5, 200) if search.is_prime(p) and p % 12 in (5, 7)]
    for p in lengths:
        used.clear()
        verify_no_solutions(p, 2, 20)
        assert len(used) == 2  # one call per column
        for tables in used:
            assert tables.form == window_form(p)[::-1]
            assert tables.squares
            assert all(math.gcd(m, p) == 1 for m, _ in tables.squares), p


@pytest.mark.parametrize("k,n_max,d_max", [(11, 60, 2000), (24, 30, 500)])
def test_tall_grid_solutions_sorted_by_d_then_n(k, n_max, d_max):
    for use_sieve in (False, True):
        sols = find_solutions(k, n_max, d_max, use_sieve=use_sieve).solutions
        assert len({n for n, _, _ in sols}) > 1  # hits from several columns
        assert list(sols) == sorted(sols, key=lambda s: (s[1], s[0]))
        assert list(sols) != sorted(sols)  # so (n, d) order would differ


def test_verify_refuses_lengths_with_the_valuation_laws_message():
    # One gate: every length verify refuses, it refuses in the valuation
    # law's words. No window has a length below 1, so there the law
    # cannot be asked; its gate's prime-length refusal is pinned instead.
    for p in range(-2, 3000):
        if p == 3:
            continue
        refused = _error(lambda: verify_no_solutions(p, 1, 1))
        if p < 1:
            assert refused == f"window length must be a prime >= 5, got {p}"
        elif refused is not None:
            assert refused == _error(lambda: valuation_law(APWindow(1, 1, p))), p


@pytest.mark.parametrize("k", [37, 107, 1000033])
@pytest.mark.parametrize("n_max,d_max", [(20, 7), (7, 20)])
def test_sieve_with_length_beyond_both_sides(k, n_max, d_max):
    # 20 x 7 scans rows and 7 x 20 columns, each line shorter than k, so
    # no line has k | d and a kept class holds at most one cell.
    ratios = residue_sieve(k)
    assert ratios  # k = 1, 11 (mod 12)
    expected = sum(
        1
        for d in range(1, d_max + 1)
        for n in range(1, n_max + 1)
        if d % k == 0 or any((n * r - d) % k == 0 for r in ratios)
    )
    report = find_solutions(k, n_max, d_max, use_sieve=True)
    assert report.sieve_used
    assert report.windows_checked == expected
    if k < 1000:  # the direct sums are too slow for k = 1000033
        assert report.solutions == _brute_solutions(k, n_max, d_max)


def test_overlong_checkpoint_line_is_malformed_without_parsing(tmp_path, monkeypatch):
    # No row in [1, 12] is spelled longer than "done d=12"; a longer line
    # must not reach int(), which is quadratic in its digits when the CLI
    # has lifted CPython's digit limit.
    parsed = []

    class Spy(int):
        # The module's int, as `_resume_rows` calls it.
        def __new__(cls, value=0, *args):
            parsed.append(value)
            return int(value, *args)

    monkeypatch.setattr(search, "int", Spy, raising=False)
    path = tmp_path / "long.ckpt"
    for row, error in (("1" * 5000, "malformed"), ("100", "malformed"), ("13", "outside")):
        content = f"k=5 n_max=30 d_max=12 sieve=0\ndone d={row}\n".encode("ascii")
        path.write_bytes(content)
        parsed.clear()
        with pytest.raises(CheckpointMismatch, match=error):
            verify_no_solutions(5, 30, 12, checkpoint=str(path))
        assert (row in parsed) == (error == "outside"), row
        assert path.read_bytes() == content
