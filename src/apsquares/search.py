"""Grid verification and discovery of perfect-square window sums.

The (n, d) grid is scanned line by line, a row fixing d or a column
fixing n. A checkpointed run scans rows in d-major order, a row being
the checkpoint granularity; any other run scans the longer axis, so a
tall grid is a few long columns, not many short rows.
`verify_no_solutions` is the falsification harness for window lengths
where squares are impossible; it always scans the full grid and never
assumes the result it is checking. `find_solutions` discovers square
windows and can prune with the mod-p ratio sieve. Both check their
arguments and then run one driver, `_scan_grid`, whose every line goes
through the one line kernel `_scan_row`.

The kernel decides a line without visiting most of its cells. A perfect
square is a square modulo every m, and S(n, d, k), the quadratic form
`window_form(k)` in (n, d), depends mod m only on n mod m and d mod m;
a column reads the form reversed, as a quadratic in d. For each modulus
m in (64, 9, 5, 7, 11, 13, 17, 19, 23) that is coprime to k, a table
built once per run holds, per fixed coordinate mod m that the run's
lines visit, an int with one bit per cell marking the cells whose S is
a square mod m. The kernel
ANDs these tiles into a selector and walks its set bits lowest first, so
it visits only the cells that survive (about 0.2-1%); they alone have S
evaluated and an exact `math.isqrt` taken. A modulus sharing a factor
with k is never used, so `verify` never assumes what it checks. The bar
binds at length 3: there the tile at 9 would keep exactly the cells
with 3 | n and 3 | d, which is the length-3 theorem's 3-adic step. For
a prime length p >= 5 the tile at p would keep every cell, as p divides
every coefficient of `window_form(p)` and so S = 0 (mod p); that
theorem is a statement about higher powers of p. A length sharing a
prime with every modulus has no selector; its lines keep every cell.
Lines longer than a block of 4096 cells are selected block by block, so
the tables stay bounded.

The sieve applies to prime k >= 5. Its one value, `residue_sieve(k)`,
holds the admissible ratios d/n mod k; a cell is decided when k | d or
its ratio is admissible. A line's kept residue classes, of n along a
row and of d along a column, depend only on its fixed coordinate mod k;
the driver derives them from the ratios once per residue, before the
first line, and that one set both counts the line's cells and filters
the kernel.
Every other cell has odd k-adic valuation, so the sieve is lossless:
the solution lists are identical, and only `windows_checked` differs.

Checkpoint files are newline-ended ASCII lines, opened once and read,
cut and appended through that one handle. The header line is the
fingerprint ``k=<k> n_max=<n> d_max=<d> sieve=<0|1>``; each later line
is ``done d=<d>``, spelled exactly as written, for a completed row. A
file belongs to the run when it and the header line are prefixes of one
another; whatever follows its last newline, a torn header included, is
a torn line, cut once every other line has passed. Any other line, or a
row outside [1, d_max], is a hard error that leaves the file untouched;
so is a path that is not a regular file, refused as it is opened, and a
file longer than its run can write (the header, every row once at its
longest spelling, and one torn line), refused after reading one byte
past that bound, so a huge file is never read into memory.
Rows are appended as they complete but flushed about once a second and
on every exit, an exception included (the CLI turns SIGTERM into one);
a SIGKILL loses at most about the last second of rows, which a resumed
run scans again.
"""

import math
import os
import stat
import time
from collections import namedtuple
from collections.abc import Set
from contextlib import nullcontext
from io import BufferedRandom

from .apsum import APWindow, window_form, window_sum_sq_closed
from .obstruction import _require_nonresidue_prime, residue_sieve
from .residues import is_prime


class CheckpointMismatch(ValueError):
    """The checkpoint file does not belong to the requested run."""


class SearchReport(namedtuple("SearchReport", "windows_checked solutions sieve_used")):
    """Outcome of one grid scan, only the three things it decides. The caller
    echoes the length, grid and checkpoint path from its own arguments.

    `windows_checked` counts cells whose sum underwent a square
    decision, including cells the residue selector rejects; under the
    sieve it is the grid size minus the pruned cells. Every (n, d, t)
    in `solutions` was re-verified on insertion.
    The report is a pure function of the scan's arguments: equal scans,
    resumed or not, give equal, hashable reports. A caller who wants
    wall time times the call.
    """

    __slots__ = ()


def _validate_bounds(n_max: int, d_max: int) -> None:
    if n_max < 1 or d_max < 1:
        raise ValueError(f"search bounds must be positive, got n_max={n_max}, d_max={d_max}")


# Residue-selector moduli; those sharing a factor with k are skipped. For
# k = 3 the tile at 9 would keep only 3 | n and 3 | d, the length-3
# theorem's 3-adic step; for a prime k >= 5 the tile at k would keep every
# cell, as k divides every coefficient of the form (see the module docstring).
_MODULI = (64, 9, 5, 7, 11, 13, 17, 19, 23)
# Cells per selector block; longer lines are scanned block by block.
_BLOCK = 4096
# A completed row's checkpoint line, as written and as read back.
_ROW_LINE = "done d={}\n"
# Seconds between checkpoint flushes; a killed run loses at most the rows since.
_FLUSH_S = 1.0


def _repunit(m: int, width: int) -> int:
    # 1 + 2^m + 2^(2m) + ..., at least `width` bits long. Multiplying an
    # m-bit period by it repeats the period: bit i of the product is bit
    # i % m of the period, as no two copies overlap.
    reps = -(-width // m)
    return ((1 << m * reps) - 1) // ((1 << m) - 1)


class _RowTables(namedtuple("_RowTables", "form width every_kth_cell squares")):
    """Per-length tables of the line kernel, built once per run.

    A line is a row (d fixed, x = n) or a column (n fixed, x = d). A
    tile is an int holding one bit per cell, bit i for the cell
    x = lo + i of the block starting at lo; ANDing tiles intersects the
    cell sets they select. `squares` holds, for each modulus m, one tile
    per fixed coordinate mod m that the run's lines visit, repeating
    with period m from x = 1 and long enough to be shifted by up to
    m - 1 cells. `every_kth_cell` sets bits 0, k, 2k, ... below `width`.
    `form` is `window_form(k)` for rows and its reverse for columns.
    """

    __slots__ = ()


def _row_tables(k: int, length: int, form: tuple[int, int, int], lines: int) -> _RowTables:
    """Tables for `lines` lines of `length` cells in the quadratic `form`.
    The lines fix the coordinates 1..lines, so they need only the tiles
    of the residues below min(m, lines + 1)."""
    width = min(length, _BLOCK)
    a, b, c = form
    squares = []
    for m in _MODULI:
        if math.gcd(m, k) > 1:
            continue
        is_square = ["0"] * m
        for x in range(m):
            is_square[x * x % m] = "1"
        # The period's bits as a binary numeral, its highest bit, the cell x = m, first.
        quadratic = [a * x * x % m for x in range(m, 0, -1)]
        linear = [b * x % m for x in range(m, 0, -1)]
        repunit = _repunit(m, width + m - 1)
        tiles = []
        for r in range(min(m, lines + 1)):
            constant = c * r * r
            period = "".join(
                [is_square[(ax2 + bx * r + constant) % m] for ax2, bx in zip(quadratic, linear)]
            )
            tiles.append(int(period, 2) * repunit)
        squares.append((m, tuple(tiles)))
    return _RowTables(
        form=form,
        width=width,
        every_kth_cell=_repunit(min(k, width), width),
        squares=tuple(squares),
    )


def _scan_row(
    k: int,
    fixed: int,
    lo: int,
    hi: int,
    *,
    tables: _RowTables,
    classes: Set[int] | None = None,
) -> list[tuple[int, int]]:
    """Square-check the cells x in [lo, hi] of the row or column (as
    `tables` says) whose other coordinate is `fixed`; (x, root) pairs in
    ascending x.

    Each block of cells is first narrowed by a selector, one bit per
    cell: the AND of the square tiles for `fixed` mod m, each shifted to
    the block's start, and, when `classes` is given, of the cells
    x = r (mod k) for each r in it. The kept cells are then taken
    lowest set bit first; they alone have S evaluated and an exact isqrt
    taken.
    """
    a, b, c = tables.form
    b, c = b * fixed, c * fixed * fixed
    width = tables.width
    hits = []
    isqrt = math.isqrt
    for block in range(lo, hi + 1, width):
        end = hi + 1 - block
        selector = (1 << min(end, width)) - 1
        for m, tiles in tables.squares:
            selector &= tiles[fixed % m] >> ((block - 1) % m)
        if selector and classes is not None:
            admissible = 0
            for residue in classes:
                shift = (residue - block) % k
                if shift < width:
                    admissible |= tables.every_kth_cell << shift
            selector &= admissible
        while selector:
            low = selector & -selector
            x = block + low.bit_length() - 1
            selector ^= low
            s = a * x * x + b * x + c
            root = isqrt(s)
            if root * root == s:
                hits.append((x, root))
    return hits


def _record(solutions: list[tuple[int, int, int]], k: int, n: int, d: int, t: int) -> None:
    # Re-verify from scratch before accepting; a failure here means the
    # scan or the sieve is broken, not the input.
    if window_sum_sq_closed(APWindow(n=n, d=d, k=k)) != t * t:
        raise RuntimeError(f"candidate ({n}, {d}, {t}) for k={k} failed re-verification")
    solutions.append((n, d, t))


def _open_regular(path: str, flags: int) -> int:
    # The checkpoint's `open` opener. A device such as /dev/zero would be read without end,
    # /dev/null refuses the cut, and a FIFO fails the seek to its end that "a+b" makes at once.
    fd = os.open(path, flags, 0o666)
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise CheckpointMismatch(f"checkpoint {path!r} is not a regular file")
    return fd


def _resume_rows(fh: BufferedRandom, fingerprint: str, d_max: int) -> set[int]:
    """Completed d rows in an open checkpoint file. Only once every line
    has passed is the torn final line cut and, if no line is left, the
    header written. A file longer than its run can write is malformed."""
    header = fingerprint + "\n"
    longest = len(_ROW_LINE.format(d_max))  # no row is spelled longer; int() is quadratic
    # The header, every row once at its longest, and one torn line. A read of n bytes allocates
    # n up front, so it asks for no more than the file holds.
    limit = len(header) + d_max * longest + longest - 1
    fh.seek(0)
    data = fh.read(min(limit, os.fstat(fh.fileno()).st_size) + 1)
    if len(data) > limit:
        raise CheckpointMismatch(
            f"malformed checkpoint {fh.name!r}: longer than the {limit} bytes its run can write"
        )
    try:
        data = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise CheckpointMismatch(f"checkpoint {fh.name!r} is not an ASCII checkpoint file") from exc
    # Split at the writer's "\n" alone, not also at "\r", "\x0c", ... as splitlines() does. The
    # last item is the torn final line, empty if there is none; a torn header is one too.
    lines = data.split("\n")
    if not (data.startswith(header) or header.startswith(data)):
        raise CheckpointMismatch(
            f"checkpoint fingerprint {lines[0]!r} does not match the requested run {fingerprint!r}"
        )
    done = set()
    for line in lines[1:-1]:
        # The parse only proposes a row: int() also takes "03", "+3", "1_0", so
        # the line counts only if it is the writer's spelling of that row.
        try:
            d = int(line.rpartition("=")[2]) if len(line) < longest else 0
        except ValueError:
            d = 0
        if line + "\n" != _ROW_LINE.format(d):
            raise CheckpointMismatch(f"malformed checkpoint line {line!r}")
        if not 1 <= d <= d_max:
            raise CheckpointMismatch(f"checkpoint row d={d} is outside [1, {d_max}]")
        done.add(d)
    fh.truncate(len(data) - len(lines[-1]))
    if len(lines) == 1:
        fh.write(header.encode("ascii"))
        fh.flush()
    return done


def _scan_grid(
    k: int,
    n_max: int,
    d_max: int,
    ratios: frozenset[int] | None,
    checkpoint: str | None,
) -> SearchReport:
    """Scan every line of the grid and report; `ratios` enables the
    sieve, and `checkpoint` resumes from and marks rows done in the named
    file (see the module docstring). Every line, done or scanned, adds its
    kept cells, or all its cells, to `windows_checked`."""
    fingerprint = f"k={k} n_max={n_max} d_max={d_max} sieve={int(ratios is not None)}"
    columns = checkpoint is None and n_max < d_max
    lines, length = (n_max, d_max) if columns else (d_max, n_max)
    form = window_form(k)
    tables = _row_tables(k, length, form[::-1] if columns else form, lines)
    # A row keeps n = d * r^-1 (mod k) for each ratio r, and all of a row
    # with k | d. A column keeps what its rows keep: d = n * r, and k | d.
    # `shares` maps the fixed coordinate mod k of every sieved line to its
    # kept classes and the cells x = c (mod k) they hold; rows with k | d
    # are left out. It covers every residue the loop visits and needs no
    # cap: a sieved run has no checkpoint, so it scans the longer axis,
    # lines <= length, and its at most min(k, lines + 1) entries never
    # outnumber the cells of one line.
    shares = {}
    if ratios is not None:
        multipliers = (*ratios, 0) if columns else tuple(pow(r, -1, k) for r in ratios)
        for residue in range(0 if columns else 1, min(k, lines + 1)):
            classes = frozenset(residue * m % k for m in multipliers)
            shares[residue] = classes, sum(len(range(c or k, length + 1, k)) for c in classes)

    solutions: list[tuple[int, int, int]] = []
    windows = 0
    opened = nullcontext() if checkpoint is None else open(checkpoint, "a+b", opener=_open_regular)
    with opened as ckpt:
        done = set() if ckpt is None else _resume_rows(ckpt, fingerprint, d_max)
        flushed = time.perf_counter()
        for fixed in range(1, lines + 1):
            classes, kept = shares.get(fixed % k, (None, length))
            windows += kept
            if fixed in done:
                continue
            hits = _scan_row(k, fixed, 1, length, tables=tables, classes=classes)
            for x, root in hits:
                n, d = (fixed, x) if columns else (x, fixed)
                _record(solutions, k, n, d, root)
            if ckpt is not None and not hits:
                ckpt.write(_ROW_LINE.format(fixed).encode("ascii"))
                # Leaving the `with` flushes the rest, on success and on any exception.
                if time.perf_counter() - flushed >= _FLUSH_S:
                    ckpt.flush()
                    flushed = time.perf_counter()
    solutions.sort(key=lambda s: (s[1], s[0]))
    return SearchReport(
        windows_checked=windows,
        solutions=tuple(solutions),
        sieve_used=ratios is not None,
    )


def verify_no_solutions(
    p: int,
    n_max: int,
    d_max: int,
    checkpoint: str | None = None,
) -> SearchReport:
    """Exhaustively confirm the absence of square windows of length p.

    Accepts p = 3 and, through the valuation law's own gate, the primes
    p = 5, 7 (mod 12); for those lengths no square window exists, so a
    non-empty solution list is a counterexample and is reported rather
    than suppressed. The full grid is scanned without pruning. With
    `checkpoint`, rows are marked done as they complete and a resumed run
    reproduces the uninterrupted report; rows that contained a solution
    are never marked done, so a resume rediscovers them.
    """
    _validate_bounds(n_max, d_max)
    if p != 3:
        _require_nonresidue_prime(p)
    return _scan_grid(p, n_max, d_max, ratios=None, checkpoint=checkpoint)


def find_solutions(
    k: int,
    n_max: int,
    d_max: int,
    use_sieve: bool = False,
) -> SearchReport:
    """Every (n, d, t) in range with S(n, d, k) = t^2, ascending in (d, n).

    The sieve is applied only for prime k >= 5; a k that `is_prime`
    refuses, at or beyond DETERMINISTIC_LIMIT, is refused with it, while
    an unsieved scan takes any k >= 2. Every cell with k | d is
    decided; every other cell only when its ratio d/n mod k is admissible
    (never when 3 is a non-residue of k). The solutions are identical
    with and without the sieve; `windows_checked` counts the cells the
    sieve leaves.
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
    ratios = residue_sieve(k) if use_sieve and k >= 5 and is_prime(k) else None
    return _scan_grid(k, n_max, d_max, ratios=ratios, checkpoint=None)
