"""Exact unbounded-integer primitives: floor square roots, perfect-square
decisions, p-adic valuation splits, and modular helpers.

Everything here is pure and exact; no operation ever rounds or wraps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .residues import is_prime


@dataclass(frozen=True)
class PAdicSplit:
    """Decomposition x = base**valuation * unit with base not dividing unit."""

    base: int
    valuation: int
    unit: int

    def value(self) -> int:
        """Reconstruct the split integer exactly."""
        return self.base**self.valuation * self.unit


def isqrt(x: int) -> int:
    """Floor square root: the r with r*r <= x < (r+1)*(r+1)."""
    if x < 0:
        raise ValueError("isqrt is undefined for negative integers")
    return math.isqrt(x)


def is_perfect_square(x: int) -> int | None:
    """Return the root t with t*t == x, or None when x is not a square."""
    if x < 0:
        raise ValueError("negative integers are never perfect squares")
    r = math.isqrt(x)
    return r if r * r == x else None


def padic_split(x: int, p: int) -> PAdicSplit:
    """Split x >= 1 as p**v * unit with p not dividing unit."""
    if x < 1:
        raise ValueError("p-adic split is only defined for positive integers")
    if not is_prime(p):
        raise ValueError(f"p-adic split requires a prime base, got {p}")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return PAdicSplit(base=p, valuation=v, unit=x)


def modpow(base: int, exp: int, mod: int) -> int:
    """base**exp mod `mod`, for non-negative exp and mod >= 2."""
    if mod < 2:
        raise ValueError(f"modulus must be at least 2, got {mod}")
    if exp < 0:
        raise ValueError(f"exponent must be non-negative, got {exp}")
    return pow(base, exp, mod)


def modinv(a: int, p: int) -> int:
    """The unique K in [1, p) with a*K = 1 (mod p), for prime p."""
    if p < 2:
        raise ValueError(f"modulus must be at least 2, got {p}")
    if a % p == 0:
        raise ValueError(f"{a} has no inverse modulo {p}")
    return pow(a, -1, p)
