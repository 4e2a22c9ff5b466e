"""Exhaustive check of the grid scans against a cell-by-cell oracle.

For every window length k in 2..64 and every prime k up to 200, on the
grids 150 x 150 (rows), 5 x 3000 (columns), 3000 x 5 (rows) and
2 x 9000 (columns crossing two selector blocks), `find_solutions` with
and without the sieve must list exactly the cells whose window sum
a*n^2 + b*n*d + c*d^2 is a perfect square by `math.isqrt`, with
a = k, b = 2*(0 + 1 + ... + (k-1)) and c = 0^2 + 1^2 + ... + (k-1)^2
summed term by term rather than taken from the library's `window_form`.
Wherever that oracle finds a window, the local-solubility oracle
`failing_primes(k)` of `tests/test_solubility.py` must name no prime:
an insoluble length has no square window on any of the grids. For 3
and every prime p = 5, 7 (mod 12) up to 200, `verify_no_solutions` must
find nothing, decide every cell and return a report equal to the
unsieved `find_solutions` report of that length on that grid. For every prime
5 <= k <= 200, the sieved `windows_checked` must equal a count over
residue pairs (a, b) mod k: the n = a and d = b classes' sizes
multiplied, summed over the pairs
with b = 0 or a * r = b (mod k) for a ratio r of `residue_sieve(k)`.
The grids hold rows and columns, with fewer and more lines than k.
Every window with n, d <= 60 of length 3 and of each of those primes
p = 5, 7 (mod 12) is also traced, and its report's obstruction,
valuation, quotient, minimum exponent and sum must equal an oracle
built on `tests/conftest.py`'s term-by-term sum `direct_square_sum`
and repeated-division `split`. For every prime
5 <= p < 10^4, `residue_sieve(p)` must be exactly the units r mod p
with (3 - r)^2 = 3 (mod p): the paper's witness [N^-1 * (3N - D)]^2 = 3
for the ratio r = D/N.
Takes well under a minute on one CPU. The file
name keeps pytest from collecting it; run it directly from the
repository root:

    PYTHONPATH=src python tests/exhaustive_kernel.py
"""

from __future__ import annotations

import math
import sys

from apsquares.apsum import APWindow
from apsquares.obstruction import residue_sieve, trace_length3, valuation_law
from apsquares.search import find_solutions, verify_no_solutions
# The script's own directory, tests/, is first on sys.path.
from conftest import direct_square_sum, split
from test_solubility import failing_primes

GRIDS = ((150, 150), (5, 3000), (3000, 5), (2, 9000))
PRIMES_BELOW_10K = [p for p in range(2, 10_000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
PRIMES = [p for p in PRIMES_BELOW_10K if p <= 200]
WITNESSED = PRIMES_BELOW_10K[2:]
LENGTHS = sorted(set(range(2, 65)) | set(PRIMES))
VERIFIED = [3] + [p for p in PRIMES if p % 12 in (5, 7)]
SIEVED = [p for p in PRIMES if p >= 5]
TRACED = 60


def oracle(k: int, n_max: int, d_max: int) -> tuple[tuple[int, int, int], ...]:
    # S = sum of (n + i*d)^2 over i < k, expanded term by term, not read from window_form.
    a, b, c = k, 2 * sum(range(k)), sum(i * i for i in range(k))
    found = []
    for d in range(1, d_max + 1):
        for n in range(1, n_max + 1):
            total = a * n * n + b * n * d + c * d * d
            root = math.isqrt(total)
            if root * root == total:
                found.append((n, d, root))
    return tuple(found)


def sieved_count(k: int, n_max: int, d_max: int) -> int:
    # Cells the sieve decides, counted a residue class pair at a time.
    ratios = residue_sieve(k)
    cn = [len(range(a or k, n_max + 1, k)) for a in range(k)]
    cd = [len(range(b or k, d_max + 1, k)) for b in range(k)]
    return sum(
        cn[a] * cd[b]
        for a in range(k)
        for b in range(k)
        if b == 0 or any((a * r - b) % k == 0 for r in ratios)
    )


def trace_oracle(n: int, d: int, k: int) -> tuple:
    # (obstruction, valuation, quotient or min_exponent, sum) of a trace.
    total = direct_square_sum(n, d, k)
    if k == 3:
        v, quotient = split(total, 3)
        return ("VALUATION_PARITY" if v % 2 else "MOD3_QUOTIENT", v, quotient, total)
    min_exp = min(split(n, k)[0], split(d, k)[0])
    return ("VALUATION_PARITY", split(6 * total, k)[0], min_exp, total)


def traced(n: int, d: int, k: int) -> tuple:
    if k == 3:
        report = trace_length3(APWindow(n, d, k))
        third = report.details["quotient"]
    else:
        report = valuation_law(APWindow(n, d, k))
        third = report.details["min_exponent"]
    return (report.obstruction, report.details["valuation"], third, report.details["sum"])


def main() -> int:
    wrong = []
    for p in WITNESSED:
        if residue_sieve(p) != {r for r in range(1, p) if (3 - r) ** 2 % p == 3}:
            wrong.append(f"residue_sieve({p})")
    for k in VERIFIED:
        for n in range(1, TRACED + 1):
            for d in range(1, TRACED + 1):
                if traced(n, d, k) != trace_oracle(n, d, k):
                    wrong.append(f"trace of ({n}, {d}, {k})")
    for n_max, d_max in GRIDS:
        unsieved = {}
        for k in LENGTHS:
            expected = oracle(k, n_max, d_max)
            if expected and failing_primes(k):
                wrong.append(f"insoluble length {k} has a window on {n_max} x {d_max}")
            for use_sieve in (False, True):
                report = find_solutions(k, n_max, d_max, use_sieve)
                if not use_sieve:
                    unsieved[k] = report
                if report.solutions != expected:
                    wrong.append(f"find_solutions({k}, {n_max}, {d_max}, {use_sieve})")
                elif use_sieve and k in SIEVED and report.windows_checked != sieved_count(
                    k, n_max, d_max
                ):
                    wrong.append(f"find_solutions({k}, {n_max}, {d_max}, True).windows_checked")
        for p in VERIFIED:
            report = verify_no_solutions(p, n_max, d_max)
            if (
                report.solutions
                or report.windows_checked != n_max * d_max
                or report != unsieved[p]
            ):
                wrong.append(f"verify_no_solutions({p}, {n_max}, {d_max})")
    if wrong:
        print(f"{len(wrong)} scans, traces or sieves disagree with the oracle, first {wrong[:10]}")
        return 1
    print(
        f"{len(LENGTHS)} searched and {len(VERIFIED)} verified lengths agree with the oracle,"
        f" and {len(SIEVED)} sieved lengths with the cell count; no insoluble length has a"
        f" window; {len(VERIFIED) * TRACED * TRACED} traces agree with theirs; {len(WITNESSED)}"
        " residue sieves are the witness identity"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
