"""Grid verification and discovery of perfect-square window sums.

The (n, d) grid is scanned in d-major order: rows are independent, so a
row boundary is both the checkpoint granularity and the natural sharding
line. `verify_no_solutions` is the falsification harness for window
lengths where squares are impossible; it always scans the full grid and
never assumes the result it is checking. `find_solutions` discovers
square windows and can prune with the mod-p ratio sieve. Every cell
either route inspects goes through the one row kernel `_scan_row`.

The sieve applies to prime k >= 5. A row with k | d is scanned in full.
A row with k not dividing d touches only the residue classes of n whose
ratio d/n mod k is admissible; every other cell of the row has odd
k-adic valuation, so the sieve is lossless: sieved and unsieved runs
return identical solution lists, and only `windows_checked` differs.

Checkpoint files are line-oriented text. Line 1 is the parameter
fingerprint ``k=<k> n_max=<n> d_max=<d> sieve=<0|1>``; each subsequent
line is ``done d=<value>`` for a fully completed row. Only
newline-terminated lines count: a torn final line left by an
interrupted append is ignored and cut off before the next append.
Resuming against a file whose fingerprint does not match the requested
run, or that names a row outside [1, d_max], is a hard error.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass

from .apsum import APWindow, window_sum_sq_closed
from .exactarith import _SQ64_MASK
from .obstruction import residue_sieve
from .residues import is_prime, legendre_euler


class CheckpointMismatch(ValueError):
    """The checkpoint file does not belong to the requested run."""


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one grid scan.

    `windows_checked` counts cells whose sum actually underwent a square
    decision; under the sieve it is the grid size minus the pruned
    cells. Every (n, d, t) in `solutions` was re-verified on insertion.
    `elapsed` is wall time of this invocation only and is excluded from
    serialized reports.
    """

    k: int
    n_range: tuple[int, int]
    d_range: tuple[int, int]
    windows_checked: int
    solutions: tuple[tuple[int, int, int], ...]
    sieve_used: bool
    elapsed: float
    checkpoint_state: str | None


def _validate_bounds(n_max: int, d_max: int) -> None:
    if n_max < 1 or d_max < 1:
        raise ValueError(f"search bounds must be positive, got n_max={n_max}, d_max={d_max}")


def _scan_row(k: int, d: int, n_lo: int, n_hi: int, step: int = 1) -> list[tuple[int, int]]:
    """Square-check S(n, d, k) for n in [n_lo, n_hi] stepping by `step`.

    Returns (n, root) pairs in ascending n. Exact throughout: the mod-64
    mask only skips values that cannot be squares.
    """
    b = k * (k - 1) * d
    c = d * d * (k * (k - 1) * (2 * k - 1) // 6)
    hits = []
    isqrt = math.isqrt
    mask = _SQ64_MASK
    for n in range(n_lo, n_hi + 1, step):
        s = k * n * n + b * n + c
        if (mask >> (s & 63)) & 1:
            r = isqrt(s)
            if r * r == s:
                hits.append((n, r))
    return hits


def _sieved_row(k: int, d: int, n_max: int, inverses: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """Scan one row under the sieve; returns (cells checked, hits).

    `inverses` holds r^-1 mod k for each admissible ratio r. When k does
    not divide d, a square needs k not dividing n and n = d * r^-1
    (mod k), so only those classes are scanned. The class k | n is
    skipped because there v_k(S) = 1 exactly: with n = k*m,
    S = k^3 m^2 + k^2 (k-1) m d + k d^2 (k-1)(2k-1)/6, whose first two
    terms are divisible by k^2 while the last is k times a unit, since
    k does not divide d and (k-1)(2k-1)/6 = 1/6 (mod k) for prime k >= 5.
    """
    dr = d % k
    if not dr:
        return n_max, _scan_row(k, d, 1, n_max)
    checked = 0
    hits: list[tuple[int, int]] = []
    for inverse in inverses:
        start = dr * inverse % k
        hits.extend(_scan_row(k, d, start, n_max, step=k))
        checked += len(range(start, n_max + 1, k))
    hits.sort()
    return checked, hits


def _record(solutions: list[tuple[int, int, int]], k: int, n: int, d: int, t: int) -> None:
    # Re-verify from scratch before accepting; a failure here means the
    # scan or the sieve is broken, not the input.
    if window_sum_sq_closed(APWindow(n=n, d=d, k=k)) != t * t:
        raise RuntimeError(f"candidate ({n}, {d}, {t}) for k={k} failed re-verification")
    solutions.append((n, d, t))


def _fingerprint(k: int, n_max: int, d_max: int, sieve: bool) -> str:
    return f"k={k} n_max={n_max} d_max={d_max} sieve={int(sieve)}"


def _load_done_rows(path: str, fingerprint: str, d_max: int) -> tuple[set[int], int]:
    """Completed d rows in a checkpoint file and the length of its
    newline-terminated prefix; a torn final line counts for nothing."""
    if not os.path.exists(path):
        return set(), 0
    with open(path, "rb") as fh:
        data = fh.read().decode("ascii")
    committed = data[: data.rfind("\n") + 1]
    lines = committed.splitlines()
    if not lines:
        if not (fingerprint + "\n").startswith(data):
            raise CheckpointMismatch(f"checkpoint {data!r} does not match the requested run {fingerprint!r}")
        return set(), 0
    if lines[0] != fingerprint:
        raise CheckpointMismatch(
            f"checkpoint fingerprint {lines[0]!r} does not match the requested run {fingerprint!r}"
        )
    done = set()
    for line in lines[1:]:
        if not line.startswith("done d="):
            raise CheckpointMismatch(f"malformed checkpoint line {line!r}")
        try:
            d = int(line[len("done d="):])
        except ValueError as exc:
            raise CheckpointMismatch(f"malformed checkpoint line {line!r}") from exc
        if not 1 <= d <= d_max:
            raise CheckpointMismatch(f"checkpoint row d={d} is outside [1, {d_max}]")
        done.add(d)
    return done, len(committed)


def verify_no_solutions(
    p: int,
    n_max: int,
    d_max: int,
    checkpoint: str | None = None,
) -> SearchReport:
    """Exhaustively confirm the absence of square windows of length p.

    Accepts p = 3 and primes p >= 5 with 3 a quadratic non-residue of p;
    for those lengths no square window exists, so a non-empty solution
    list is a counterexample and is reported rather than suppressed.
    The full grid is scanned without pruning. With `checkpoint`, rows are
    marked done as they complete and a resumed run reproduces the
    uninterrupted report; rows that contained a solution are never marked
    done, so a resume rediscovers them.
    """
    _validate_bounds(n_max, d_max)
    if p != 3:
        if p < 5 or not is_prime(p):
            raise ValueError(f"p must be 3 or a prime >= 5, got {p}")
        if legendre_euler(3, p) != -1:
            raise ValueError(
                f"3 is a quadratic residue mod {p}; square windows may exist "
                "there, use find_solutions instead"
            )
    start = time.perf_counter()
    fingerprint = _fingerprint(p, n_max, d_max, sieve=False)
    done, committed = _load_done_rows(checkpoint, fingerprint, d_max) if checkpoint else (set(), 0)

    solutions: list[tuple[int, int, int]] = []
    windows = 0
    ckpt = None
    try:
        if checkpoint:
            ckpt = open(checkpoint, "a", encoding="ascii")
            ckpt.truncate(committed)
            if not committed:
                ckpt.write(fingerprint + "\n")
                ckpt.flush()
        for d in range(1, d_max + 1):
            if d in done:
                windows += n_max
                continue
            hits = _scan_row(p, d, 1, n_max)
            windows += n_max
            for n, root in hits:
                _record(solutions, p, n, d, root)
            if ckpt is not None and not hits:
                ckpt.write(f"done d={d}\n")
                ckpt.flush()
    finally:
        if ckpt is not None:
            ckpt.close()
    return SearchReport(
        k=p,
        n_range=(1, n_max),
        d_range=(1, d_max),
        windows_checked=windows,
        solutions=tuple(solutions),
        sieve_used=False,
        elapsed=time.perf_counter() - start,
        checkpoint_state=checkpoint,
    )


def find_solutions(
    k: int,
    n_max: int,
    d_max: int,
    use_sieve: bool = False,
) -> SearchReport:
    """Every (n, d, t) in range with S(n, d, k) = t^2, ascending in (d, n).

    The sieve is applied only for prime k >= 5. Rows with k | d are
    scanned in full; every other row touches only the n classes whose
    ratio d/n mod k is admissible (none when 3 is a non-residue of k).
    The solutions are identical with and without the sieve;
    `windows_checked` counts the cells actually inspected.
    """
    if k < 2:
        raise ValueError(
            f"window length must be at least 2, got {k}; every length-1 sum "
            "is trivially a square"
        )
    _validate_bounds(n_max, d_max)
    start = time.perf_counter()
    sieve_active = bool(use_sieve) and k >= 5 and is_prime(k)
    inverses = tuple(pow(r, -1, k) for r in residue_sieve(k)) if sieve_active else None

    solutions: list[tuple[int, int, int]] = []
    windows = 0
    for d in range(1, d_max + 1):
        if inverses is None:
            checked, hits = n_max, _scan_row(k, d, 1, n_max)
        else:
            checked, hits = _sieved_row(k, d, n_max, inverses)
        windows += checked
        for n, root in hits:
            _record(solutions, k, n, d, root)
    return SearchReport(
        k=k,
        n_range=(1, n_max),
        d_range=(1, d_max),
        windows_checked=windows,
        solutions=tuple(solutions),
        sieve_used=sieve_active,
        elapsed=time.perf_counter() - start,
        checkpoint_state=None,
    )
