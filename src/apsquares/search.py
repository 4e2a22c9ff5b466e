"""Grid verification and discovery of perfect-square window sums.

The (n, d) grid is scanned in d-major order: rows are independent, so a
row boundary is both the checkpoint granularity and the natural sharding
line. `verify_no_solutions` is the falsification harness for window
lengths where squares are impossible; it always scans the full grid and
never assumes the result it is checking. `find_solutions` discovers
square windows and can prune with the mod-p ratio sieve. Both check
their arguments and then run one driver, `_scan_grid`, whose every row
goes through the one row kernel `_scan_row`.

The kernel decides a row without visiting most of its cells. A perfect
square is a square modulo every m, and S(n, d, k) mod m depends only on
n mod m and d mod m. For each modulus m in (64, 9, 5, 7, 11, 13) that is
coprime to k, a table built once per run holds, per d mod m, a byte per
cell marking the n whose S is a square mod m. The kernel ANDs these
tiles into a selector, and only the cells that survive (about 3%) have
S evaluated and an exact `math.isqrt` taken. A modulus sharing a factor
with k is never used: for length p the mod-p test is the nonexistence
theorem itself (it rejects every length-5 cell), so `verify` would
assume what it checks. Rows longer than a block of 4096 cells are
selected block by block, so the tables stay bounded.

The sieve applies to prime k >= 5. A row with k | d is scanned in full.
In a row with k not dividing d, the selector also keeps only the
residue classes of n whose ratio d/n mod k is admissible; every other
cell of the row has odd k-adic valuation, so the sieve is lossless:
sieved and unsieved runs return identical solution lists, and only
`windows_checked` differs. It counts every cell the sieve leaves,
including those the residue tables reject, as decided.

Checkpoint files are line-oriented text, opened once and read, cut and
appended through that one handle. Line 1 is the parameter fingerprint
``k=<k> n_max=<n> d_max=<d> sieve=<0|1>``; each subsequent line is
``done d=<value>`` for a fully completed row. Only newline-terminated
lines count: a torn final line left by an interrupted append is ignored
and cut off before the next append. Resuming against a file whose
fingerprint does not match the requested run, or that names a row
outside [1, d_max], is a hard error.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import compress
from typing import BinaryIO

from .apsum import APWindow, window_sum_sq_closed
from .obstruction import residue_sieve
from .residues import is_prime, legendre_euler


class CheckpointMismatch(ValueError):
    """The checkpoint file does not belong to the requested run."""


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one grid scan.

    `windows_checked` counts cells whose sum underwent a square
    decision, including cells the residue selector rejects; under the
    sieve it is the grid size minus the pruned cells. Every (n, d, t)
    in `solutions` was re-verified on insertion.
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


# Residue-selector moduli; those sharing a factor with k are skipped
# (see the module docstring).
_MODULI = (64, 9, 5, 7, 11, 13)
# Cells per selector block; longer rows are scanned block by block.
_BLOCK = 4096


def _bytes_tile(period: bytes, width: int) -> int:
    # `period` repeated to at least `width` bytes, as an int whose byte
    # i (little-endian) is period[i % len(period)].
    return int.from_bytes(period * -(-width // len(period)), "little")


@dataclass(frozen=True)
class _RowTables:
    """Per-length tables of the row kernel, built once per run.

    A tile is an int holding one 0/1 byte per cell, byte i for the cell
    n = lo + i of the block starting at lo; ANDing tiles intersects the
    cell sets they select. `squares` holds, for each modulus m, one
    tile per d mod m, repeating with period m from n = 1 and long
    enough to be shifted by up to m - 1 cells.
    """

    width: int
    every_cell: int
    every_kth_cell: int
    squares: tuple[tuple[int, tuple[int, ...]], ...]


def _row_tables(k: int, n_max: int) -> _RowTables:
    width = min(n_max, _BLOCK)
    a, b, c = k, k * (k - 1), k * (k - 1) * (2 * k - 1) // 6
    squares = []
    for m in _MODULI:
        if math.gcd(m, k) > 1:
            continue
        residues = {x * x % m for x in range(m)}
        tiles = tuple(
            _bytes_tile(
                bytes((a * n * n + b * r * n + c * r * r) % m in residues for n in range(1, m + 1)),
                width + m - 1,
            )
            for r in range(m)
        )
        squares.append((m, tiles))
    return _RowTables(
        width=width,
        every_cell=_bytes_tile(b"\x01", width),
        every_kth_cell=_bytes_tile(b"\x01".ljust(min(k, width), b"\x00"), width),
        squares=tuple(squares),
    )


def _scan_row(
    k: int,
    d: int,
    n_lo: int,
    n_hi: int,
    *,
    tables: _RowTables,
    inverses: tuple[int, ...] | None = None,
) -> list[tuple[int, int]]:
    """Square-check S(n, d, k) for n in [n_lo, n_hi]; (n, root) pairs in
    ascending n.

    Each block of cells is first narrowed by a selector: the AND of the
    square tiles for d mod m and, when `inverses` is given, of the tiles
    of the cells n = d * inverse (mod k). Only the surviving cells have
    S evaluated and an exact isqrt taken.
    """
    b = k * (k - 1) * d
    c = d * d * (k * (k - 1) * (2 * k - 1) // 6)
    width = tables.width
    hits = []
    isqrt = math.isqrt
    for lo in range(n_lo, n_hi + 1, width):
        selector = tables.every_cell
        for m, tiles in tables.squares:
            selector &= tiles[d % m] >> ((lo - 1) % m * 8)
        if selector and inverses is not None:
            admissible = 0
            for inverse in inverses:
                shift = (d * inverse - lo) % k
                if shift < width:
                    admissible |= tables.every_kth_cell << (shift * 8)
            selector &= admissible
        if not selector:
            continue
        for n in compress(range(lo, min(lo + width, n_hi + 1)), selector.to_bytes(width, "little")):
            s = k * n * n + b * n + c
            root = isqrt(s)
            if root * root == s:
                hits.append((n, root))
    return hits


def _sieved_cells(k: int, n_max: int, d_max: int, inverses: tuple[int, ...]) -> int:
    """Cells the sieve leaves to decide: every cell of the rows with
    k | d, and in each other row the cells n = d * inverse (mod k)."""
    cells = n_max * (d_max // k)
    for dr in range(1, min(k, d_max + 1)):
        per_row = sum(len(range(dr * inverse % k, n_max + 1, k)) for inverse in inverses)
        cells += per_row * len(range(dr, d_max + 1, k))
    return cells


def _record(solutions: list[tuple[int, int, int]], k: int, n: int, d: int, t: int) -> None:
    # Re-verify from scratch before accepting; a failure here means the
    # scan or the sieve is broken, not the input.
    if window_sum_sq_closed(APWindow(n=n, d=d, k=k)) != t * t:
        raise RuntimeError(f"candidate ({n}, {d}, {t}) for k={k} failed re-verification")
    solutions.append((n, d, t))


def _load_done_rows(fh: BinaryIO, fingerprint: str, d_max: int) -> tuple[set[int], int]:
    """Completed d rows in an open checkpoint file and the length of its
    newline-terminated prefix; a torn final line counts for nothing."""
    fh.seek(0)
    raw = fh.read()
    try:
        data = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckpointMismatch(f"checkpoint {fh.name!r} is not an ASCII checkpoint file") from exc
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


def _scan_grid(
    k: int,
    n_max: int,
    d_max: int,
    inverses: tuple[int, ...] | None,
    checkpoint: str | None,
) -> SearchReport:
    """Scan every row d in [1, d_max] and report; `inverses` enables the
    sieve in rows with k not dividing d, and `checkpoint` resumes from and
    marks rows done in the named file (see the module docstring)."""
    start = time.perf_counter()
    fingerprint = f"k={k} n_max={n_max} d_max={d_max} sieve={int(inverses is not None)}"
    tables = _row_tables(k, n_max)
    solutions: list[tuple[int, int, int]] = []
    done: set[int] = set()
    with open(checkpoint, "a+b") if checkpoint is not None else nullcontext() as ckpt:
        if ckpt is not None:
            done, committed = _load_done_rows(ckpt, fingerprint, d_max)
            ckpt.truncate(committed)
            if not committed:
                ckpt.write(f"{fingerprint}\n".encode("ascii"))
                ckpt.flush()
        for d in range(1, d_max + 1):
            if d in done:
                continue
            hits = _scan_row(k, d, 1, n_max, tables=tables, inverses=inverses if d % k else None)
            for n, root in hits:
                _record(solutions, k, n, d, root)
            if ckpt is not None and not hits:
                ckpt.write(f"done d={d}\n".encode("ascii"))
                ckpt.flush()
    windows = n_max * d_max if inverses is None else _sieved_cells(k, n_max, d_max, inverses)
    return SearchReport(
        k=k,
        n_range=(1, n_max),
        d_range=(1, d_max),
        windows_checked=windows,
        solutions=tuple(solutions),
        sieve_used=inverses is not None,
        elapsed=time.perf_counter() - start,
        checkpoint_state=checkpoint,
    )


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
    return _scan_grid(p, n_max, d_max, inverses=None, checkpoint=checkpoint)


def find_solutions(
    k: int,
    n_max: int,
    d_max: int,
    use_sieve: bool = False,
) -> SearchReport:
    """Every (n, d, t) in range with S(n, d, k) = t^2, ascending in (d, n).

    The sieve is applied only for prime k >= 5. Rows with k | d are
    scanned in full; in every other row only the n classes whose ratio
    d/n mod k is admissible (none when 3 is a non-residue of k) are
    decided. The solutions are identical with and without the sieve;
    `windows_checked` counts the cells the sieve leaves.
    """
    if k < 2:
        raise ValueError(
            f"window length must be at least 2, got {k}; every length-1 sum "
            "is trivially a square"
        )
    _validate_bounds(n_max, d_max)
    # In a row with k not dividing d, a square needs n = d * r^-1 (mod k)
    # for an admissible ratio r, so never k | n. There, with n = k*m,
    # S = k^3 m^2 + k^2 (k-1) m d + k d^2 (k-1)(2k-1)/6 has v_k(S) = 1:
    # the last term is k times a unit, as (k-1)(2k-1)/6 = 1/6 (mod k).
    inverses = None
    if use_sieve and k >= 5 and is_prime(k):
        inverses = tuple(pow(r, -1, k) for r in residue_sieve(k))
    return _scan_grid(k, n_max, d_max, inverses=inverses, checkpoint=None)
