"""A local-solubility oracle: which window lengths k admit any square window.

Put Y = 2n + (k - 1)d. Then S(n, d, k) = t^2 becomes

    t^2 = (k/4) Y^2 + (k(k^2 - 1)/12) d^2,

and, times 4 with X = 2t, X^2 = k Y^2 + (k(k^2 - 1)/3) d^2. By
Hasse-Minkowski this conic has a rational point exactly when the Hilbert
symbol (k, k(k^2 - 1)/3)_q, equal to (k, 3k(k^2 - 1))_q since 9 is a
square, is 1 at every place q. It is 1 at every odd prime dividing
neither argument, so only the primes q dividing 6k(k^2 - 1) can fail, and
the real place always passes, since k > 0.

A point is enough. The form k Y^2 + (k(k^2 - 1)/3) d^2 is positive
definite, so the real points of the conic form an ellipse, and its
rational points, when there are any, are dense on it. So some rational
point has d > 0 and Y > (k - 1)d. Scale it to integers (X, Y, d), then
double all three: n = (Y - (k - 1)d)/2 is now a positive integer, and
4 S(n, d, k) = X^2 with X even, so t = X/2 is one. Hence k admits a square
window if and only if every one of those symbols is 1.

The paper's Proposition 2 is the case q = p | k with p = 5, 7 (mod 12),
through (3/p) = -1. By the product formula, a failing symbol always has a
partner: for k = 5 the failing primes are 2 and 5, for k = 89 they are 3
and 89.

The oracle stands apart from the library: Legendre symbols come from
Euler's criterion with `pow`, and k - 1, k and k + 1 are trial-factored.
It is checked both ways on small grids: an insoluble length has no
square window, and a soluble one has one.
"""

import pytest
from conftest import split

from apsquares.apsum import APWindow, check_window_square
from apsquares.search import find_solutions

LENGTHS = range(2, 1001)


def _prime_factors(n):
    factors, q = set(), 2
    while q * q <= n:
        while n % q == 0:
            factors.add(q)
            n //= q
        q += 1
    return factors | {n} if n > 1 else factors


def _legendre(u, q):
    # Euler's criterion, for an odd prime q not dividing u.
    return 1 if pow(u, (q - 1) // 2, q) == 1 else -1


def _hilbert(a, b, q):
    """The Hilbert symbol (a, b)_q of positive integers at the prime q (Serre, ch. III)."""
    alpha, u = split(a, q)
    beta, v = split(b, q)
    if q == 2:
        # (-1)^(eps(u) eps(v) + alpha omega(v) + beta omega(u)), with eps(x) = (x - 1)/2 and
        # omega(x) = (x^2 - 1)/8.
        exponent = ((u - 1) // 2) * ((v - 1) // 2) + alpha * ((v * v - 1) // 8)
        exponent += beta * ((u * u - 1) // 8)
        return -1 if exponent % 2 else 1
    sign = -1 if alpha * beta * ((q - 1) // 2) % 2 else 1
    return sign * _legendre(u, q) ** beta * _legendre(v, q) ** alpha


def failing_primes(k):
    """The primes q with (k, 3k(k^2 - 1))_q = -1; empty exactly when k is soluble."""
    primes = {2, 3} | _prime_factors(k - 1) | _prime_factors(k) | _prime_factors(k + 1)
    return {q for q in primes if _hilbert(k, 3 * k * (k * k - 1), q) == -1}


FAILING = {k: failing_primes(k) for k in LENGTHS}
INSOLUBLE = [k for k in LENGTHS if FAILING[k]]


def test_oracle_counts_for_lengths_up_to_1000():
    assert len(INSOLUBLE) == 871
    assert len(LENGTHS) - len(INSOLUBLE) == 128
    # The product formula: the failing places pair up (the real place never fails).
    assert all(len(FAILING[k]) % 2 == 0 for k in LENGTHS)
    # Beyond the paper: a failure at 2, 3 or a prime dividing k^2 - 1 only.
    beyond = [k for k in INSOLUBLE if FAILING[k] <= {2, 3} | _prime_factors(k * k - 1)]
    assert len(beyond) == 254
    assert {8, 12, 18, 32} <= set(beyond)


@pytest.mark.parametrize("k,primes", [(5, {2, 5}), (89, {3, 89}), (13, {2, 7})])
def test_oracle_names_the_failing_primes(k, primes):
    assert FAILING[k] == primes


def test_every_verify_length_fails_at_itself():
    lengths = [3] + [p for p in LENGTHS if p % 12 in (5, 7) and _prime_factors(p) == {p}]
    assert all(p in FAILING[p] for p in lengths)


def test_insoluble_lengths_have_no_square_window():
    for k in INSOLUBLE:
        assert find_solutions(k, 40, 40).solutions == (), k


# Soluble lengths with no square window on 300^2: a known cell and its root.
_FAR_CELLS = {362: (155, 331, 1316051), 383: (1417, 137, 615864)}


def test_soluble_lengths_have_a_square_window():
    soluble = [k for k in LENGTHS if k <= 400 and not FAILING[k]]
    assert len(soluble) == 65
    for k in soluble:
        if k in _FAR_CELLS:
            n, d, root = _FAR_CELLS[k]
            assert check_window_square(APWindow(n, d, k)).root == root, k
            continue
        for use_sieve in (False, True):
            assert find_solutions(k, 300, 300, use_sieve=use_sieve).solutions, (k, use_sieve)
