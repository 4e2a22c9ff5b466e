"""Exhaustive check of `is_prime` against a sieve of Eratosthenes.

Two passes compare with the sieve for every n below 26,000,000, which is
past psi_3 = 25,326,001:

1. `is_prime` as it is, so the trial-division tier (n < 43^2) and the
   (2, 3) and (2, 3, 5) tiers are each proved exact on their whole
   range.
2. `is_prime` with every n from 43^2 on sent to the band below 2^64:
   trial division, the strong test to base 2, then the extra strong
   Lucas test. Every base-2 strong pseudoprime below the limit with no
   prime factor up to 41 (8321, ..., 1093^2, 3511^2, ...) meets the
   Lucas test here, and each must be rejected.

Takes about a minute on one CPU. The file name keeps pytest from
collecting it; run it directly from the repository root:

    PYTHONPATH=src python tests/exhaustive_primality.py
"""

from __future__ import annotations

import sys

from apsquares import residues
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
    tiers = residues._WITNESS_TIERS
    bpsw_band = next(tier for tier in tiers if tier[0] == residues._BPSW_LIMIT)
    failed = False
    for name, table in (("is_prime", tiers), ("the base-2 plus Lucas band", (bpsw_band,))):
        residues._WITNESS_TIERS = table
        try:
            wrong = [n for n in range(LIMIT) if is_prime(n) != flags[n]]
        finally:
            residues._WITNESS_TIERS = tiers
        if wrong:
            print(f"{name} disagrees with the sieve at {len(wrong)} n, first {wrong[:10]}")
            failed = True
        else:
            print(f"{name} agrees with the sieve for every n < {LIMIT}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
