"""Tests for window sums and the perfect-square decision."""

import random

import pytest
from conftest import direct_square_sum
from hypothesis import given
from hypothesis import strategies as st

from apsquares.apsum import (
    APWindow,
    SquareOutcome,
    check_window_square,
    sum_first_k,
    sum_sq_first_k,
    window_sum_sq_closed,
)


def test_window_validation():
    with pytest.raises(ValueError):
        APWindow(n=0, d=1, k=3)
    with pytest.raises(ValueError):
        APWindow(n=1, d=0, k=3)  # constant progressions are excluded
    with pytest.raises(ValueError):
        APWindow(n=1, d=-2, k=3)
    with pytest.raises(ValueError):
        APWindow(n=1, d=1, k=0)


def test_sum_first_k_pinned_values():
    assert sum_first_k(1) == 1
    assert sum_first_k(10) == 55 == sum(range(1, 11))
    assert sum_first_k(100) == 5050 == sum(range(1, 101))
    with pytest.raises(ValueError):
        sum_first_k(0)


def test_sum_sq_first_k_pinned_values():
    assert sum_sq_first_k(1) == 1
    assert sum_sq_first_k(24) == 4900 == sum(i * i for i in range(1, 25))
    assert sum_sq_first_k(5) == 55  # 1 + 4 + 9 + 16 + 25
    with pytest.raises(ValueError):
        sum_sq_first_k(0)


def test_identities_against_running_sums():
    linear = 0
    squares = 0
    for k in range(1, 10_001):
        linear += k
        squares += k * k
        assert sum_first_k(k) == linear
        assert sum_sq_first_k(k) == squares


def test_window_sums_pinned_values():
    assert window_sum_sq_closed(APWindow(1, 1, 3)) == 14  # 3 + 6 + 5
    assert window_sum_sq_closed(APWindow(1, 1, 5)) == 55  # 5 + 20 + 30
    assert window_sum_sq_closed(APWindow(18, 1, 11)) == 5929  # 3564 + 1980 + 385


def test_closed_equals_direct_bulk():
    rng = random.Random(0xAB5)
    for _ in range(10_000):
        n = rng.randint(1, 10**6)
        d = rng.randint(1, 10**6)
        k = rng.randint(1, 200)
        assert window_sum_sq_closed(APWindow(n, d, k)) == direct_square_sum(n, d, k)


@given(st.integers(1, 10**9), st.integers(1, 10**9), st.integers(1, 80))
def test_closed_equals_direct_property(n, d, k):
    assert window_sum_sq_closed(APWindow(n, d, k)) == direct_square_sum(n, d, k)


def test_length3_polynomial_specialization():
    for n in range(1, 101):
        for d in range(1, 101):
            expected = 3 * n * n + 6 * n * d + 5 * d * d
            assert window_sum_sq_closed(APWindow(n, d, 3)) == expected


@given(st.integers(1, 10**6), st.integers(1, 10**6))
def test_length1_window_is_always_square(n, d):
    outcome = check_window_square(APWindow(n, d, 1))
    assert outcome == SquareOutcome(sum=n * n, floor_root=n, root=n)


def test_check_window_square_pinned_values():
    assert check_window_square(APWindow(1, 1, 3)) == SquareOutcome(14, 3, None)
    assert check_window_square(APWindow(18, 1, 11)) == SquareOutcome(5929, 77, 77)
    assert check_window_square(APWindow(7, 1, 23)) == SquareOutcome(8464, 92, 92)


def test_outcome_invariants_on_grid():
    for n in range(1, 40):
        for d in range(1, 40):
            for k in (1, 2, 3, 5, 11):
                outcome = check_window_square(APWindow(n, d, k))
                fr = outcome.floor_root
                assert fr * fr <= outcome.sum < (fr + 1) * (fr + 1)
                if outcome.root is not None:
                    assert outcome.root == fr
                    assert fr * fr == outcome.sum
                else:
                    assert fr * fr != outcome.sum
