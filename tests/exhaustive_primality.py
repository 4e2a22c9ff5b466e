"""Exhaustive check of `is_prime` against a sieve of Eratosthenes.

One pass compares with the sieve for every n below 26,000,000. Below
43^2 `is_prime` decides by trial division alone; from 43^2 on every n is
decided by the band below 2^64: trial division, the strong test to base
2, then the extra strong Lucas test. Every base-2 strong pseudoprime
below the limit with no prime factor up to 41 (8321, ..., 1093^2,
3511^2, ...) meets the Lucas test here, and each must be rejected.

Takes about half a minute on one CPU. The file name keeps pytest from
collecting it; run it directly from the repository root:

    PYTHONPATH=src python tests/exhaustive_primality.py
"""

from __future__ import annotations

import sys

from apsquares.residues import is_prime

LIMIT = 26_000_000


def sieve(limit: int) -> bytearray:
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return flags


def main() -> int:
    flags = sieve(LIMIT)
    wrong = [n for n in range(LIMIT) if is_prime(n) != flags[n]]
    if wrong:
        print(f"is_prime disagrees with the sieve at {len(wrong)} n, first {wrong[:10]}")
        return 1
    print(f"is_prime agrees with the sieve for every n < {LIMIT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
