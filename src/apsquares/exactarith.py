"""Exact unbounded-integer primitives: floor square roots, perfect-square
decisions, p-adic valuation splits, and modular helpers.

Everything here is pure and exact; no operation ever rounds or wraps.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .residues import is_prime


class PAdicSplit(namedtuple("PAdicSplit", "base valuation unit")):
    """Decomposition x = base**valuation * unit with base not dividing unit."""

    __slots__ = ()

    def value(self) -> int:
        """Reconstruct the split integer exactly."""
        return self.base**self.valuation * self.unit


def isqrt(x: int) -> int:
    """Floor square root: the r with r*r <= x < (r+1)*(r+1); x < 0 raises ValueError."""
    return math.isqrt(x)


def is_perfect_square(x: int) -> int | None:
    """The root t with t*t == x, or None when x is not a square; x < 0 raises ValueError."""
    r = math.isqrt(x)
    return r if r * r == x else None


def padic_split(x: int, p: int) -> PAdicSplit:
    """Split x >= 1 as p**v * unit with p not dividing unit."""
    if x < 1:
        raise ValueError("p-adic split is only defined for positive integers")
    if not is_prime(p):
        raise ValueError(f"p-adic split requires a prime base, got {p}")
    return _split(x, p)


def _split(x: int, p: int) -> PAdicSplit:
    """padic_split for x >= 1 and a prime p the caller has already checked."""
    v = 0
    while not x % p:
        x //= p
        v += 1
    return tuple.__new__(PAdicSplit, (p, v, x))


def modpow(base: int, exp: int, mod: int) -> int:
    """base**exp mod `mod`, for non-negative exp and mod >= 2."""
    if mod < 2:
        raise ValueError(f"modulus must be at least 2, got {mod}")
    if exp < 0:
        raise ValueError(f"exponent must be non-negative, got {exp}")
    return pow(base, exp, mod)


def modinv(a: int, p: int) -> int:
    """The unique K in [1, p) with a*K = 1 (mod p), for prime p not dividing a."""
    if p < 2:
        raise ValueError(f"modulus must be at least 2, got {p}")
    return pow(a, -1, p)
