"""Sums of squares over arithmetic-progression windows.

A window is the k terms n, n+d, ..., n+(k-1)d of an increasing integer
progression. Its sum of squares has the closed form

    S = k*n^2 + k*(k-1)*n*d + [k*(k-1)*(2k-1)/6]*d^2

a quadratic form in (n, d) with coefficients `window_form(k)`, which this
module evaluates exactly, plus the decision of whether S is a perfect
square.
"""

import math
from collections import namedtuple
from collections.abc import Iterable


class APWindow(namedtuple("APWindow", "n d k")):
    """k consecutive terms of an increasing arithmetic progression."""

    __slots__ = ()

    def __new__(cls, n: int, d: int, k: int) -> "APWindow":
        if n < 1:
            raise ValueError(f"first term must be a positive integer, got {n}")
        if d < 1:
            raise ValueError(
                f"common difference must be a positive integer, got {d}; "
                "write a decreasing progression in reverse order"
            )
        if k < 1:
            raise ValueError(f"window length must be a positive integer, got {k}")
        return tuple.__new__(cls, (n, d, k))

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> "APWindow":
        # namedtuple's own `_make`, which `_replace` calls, would skip the checks.
        return cls(*iterable)


class SquareOutcome(namedtuple("SquareOutcome", "sum floor_root root")):
    """A window's sum of squares, its floor root, and its exact root if any."""

    __slots__ = ()


def sum_first_k(k: int) -> int:
    """1 + 2 + ... + k = k(k+1)/2."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return k * (k + 1) // 2


def sum_sq_first_k(k: int) -> int:
    """1^2 + 2^2 + ... + k^2 = k(k+1)(2k+1)/6, always an exact integer."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return k * (k + 1) * (2 * k + 1) // 6


def window_form(k: int) -> tuple[int, int, int]:
    """The coefficients (a, b, c) of S(n, d, k) = a*n^2 + b*n*d + c*d^2."""
    # k(k-1)(2k-1) is always divisible by 6: k(k-1) is even, and one of
    # k-1, k, 2k-1 is divisible by 3.
    return k, k * (k - 1), k * (k - 1) * (2 * k - 1) // 6


def window_sum_sq_closed(window: APWindow) -> int:
    """Sum of squared terms, sum((n + i*d)^2 for i < k), via the closed form."""
    n, d, k = window
    a, b, c = window_form(k)
    return (a * n + b * d) * n + c * d * d


def check_window_square(window: APWindow) -> SquareOutcome:
    """Decide whether the window's sum of squares is a perfect square."""
    total = window_sum_sq_closed(window)
    floor_root = math.isqrt(total)
    root = floor_root if floor_root * floor_root == total else None
    return SquareOutcome(sum=total, floor_root=floor_root, root=root)
