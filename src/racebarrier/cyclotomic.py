"""Exact arithmetic with integer combinations of n-th roots of unity.

A sum sum_k c_k e(k/n) is stored as the integer coefficient vector (c_0..c_{n-1})
and reduced modulo the n-th cyclotomic polynomial, giving a canonical form of
degree < phi(n).  Two sums are equal as complex numbers iff their canonical
forms coincide, so character-sum equalities can be decided without floats.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree."""
    if n < 1:
        raise ValueError("n must be positive")
    # start from x^n - 1 and divide out Phi_d for all proper divisors d
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    # long division of integer polynomials; divisor is monic up to sign
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % lead == 0
        f = c // lead
        quot[i - dd] = f
        for j, dj in enumerate(den):
            num[i - dd + j] -= f * dj
    assert all(c == 0 for c in num), "non-exact polynomial division"
    return quot


def reduce_root_sum(counts: Sequence[int], n: int) -> tuple[int, ...]:
    """Canonical form of sum_k counts[k] * e(k/n): remainder mod Phi_n."""
    phi_n = cyclotomic_polynomial(n)
    deg = len(phi_n) - 1
    rem = list(counts)
    if len(rem) < deg:
        rem += [0] * (deg - len(rem))
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        rem[i] = 0
        for j in range(deg):
            rem[i - deg + j] -= c * phi_n[j]
    return tuple(rem[:deg])


def angles_to_counts(numerators: Sequence[int], n: int) -> list[int]:
    """Coefficient vector of sum_j e(k_j / n) for integer numerators k_j."""
    counts = [0] * n
    for k in numerators:
        counts[k % n] += 1
    return counts
