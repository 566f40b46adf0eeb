import cmath
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from racebarrier.cyclotomic import (
    angles_to_counts,
    cyclotomic_polynomial,
    reduce_root_sum,
)


def root_sum_is_zero(counts, n):
    return not any(reduce_root_sum(counts, n))


def test_small_cyclotomics():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_degree_is_phi():
    from racebarrier.residue_group import euler_phi

    for n in range(1, 60):
        assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


def test_full_orbit_sums_to_zero():
    for n in range(2, 40):
        counts = [1] * n
        assert root_sum_is_zero(counts, n)


def test_cube_roots_sum_zero():
    # 1 + w + w^2 = 0 is invisible without the cyclotomic reduction
    assert root_sum_is_zero(angles_to_counts([0, 1, 2], 3), 3)
    assert not root_sum_is_zero(angles_to_counts([0, 1], 3), 3)


def test_equal_sums_different_numerators():
    # e(1/6) + e(5/6) = 1 (two primitive 6th roots sum to 1): the difference
    # from e(0) reduces to zero, and the difference from e(1/6) does not
    def difference(a, b):
        return [x - y for x, y in zip(angles_to_counts(a, 6), angles_to_counts(b, 6))]

    assert root_sum_is_zero(difference([1, 5], [0]), 6)
    assert not root_sum_is_zero(difference([1, 5], [1]), 6)


@given(st.integers(min_value=2, max_value=30), st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_reduction_matches_complex_value(n, coeffs):
    coeffs = coeffs[:n] + [0] * max(0, n - len(coeffs))
    value = sum(c * cmath.exp(2j * math.pi * k / n) for k, c in enumerate(coeffs))
    reduced = reduce_root_sum(coeffs, n)
    value2 = sum(c * cmath.exp(2j * math.pi * k / n) for k, c in enumerate(reduced))
    assert abs(value - value2) < 1e-9
    if root_sum_is_zero(coeffs, n):
        assert abs(value) < 1e-9
    else:
        assert abs(value) > 1e-12
