import itertools
import math
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racebarrier.residue_group import (
    Q_CAP,
    UnitGroupStructure,
    check_modulus,
    check_residue,
    dlog_vector,
    euler_phi,
    mod_div,
    multiplicative_order,
    unit_group_structure,
)

VALID_Q = st.one_of(st.just(5), st.integers(min_value=7, max_value=400))


def brute_force_units(q):
    return [a for a in range(1, q) if gcd(a, q) == 1]


def ext_gcd(a, b):
    # independent inverse for the division oracle
    if b == 0:
        return a, 1, 0
    g, x, y = ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def product_loop_dlog(g):
    """The dlog builder the power tables replaced: t pow calls per unit."""
    dlog = {}
    for vec in itertools.product(*[range(s) for s in g.orders]):
        x = 1
        for gen, f in zip(g.generators, vec):
            x = x * pow(gen, f, g.q) % g.q
        dlog[x] = vec
    return dlog


class TestModulus:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 6, 0, -5])
    def test_rejected(self, q):
        with pytest.raises(ValueError):
            check_modulus(q)

    @pytest.mark.parametrize("q", [5, 7, 8, 9, 10**6])
    def test_accepted(self, q):
        assert check_modulus(q) == q

    def test_cap(self):
        with pytest.raises(ValueError):
            check_modulus(Q_CAP + 1)


class TestUnitGroupStructure:
    def test_q5(self):
        g = unit_group_structure(5)
        assert list(zip(g.generators, g.orders)) == [(2, 4)]

    def test_q8(self):
        g = unit_group_structure(8)
        assert list(zip(g.generators, g.orders)) == [(7, 2), (5, 2)]

    def test_q15(self):
        g = unit_group_structure(15)
        assert list(zip(g.generators, g.orders)) == [(11, 2), (2, 4)]

    @given(VALID_Q)
    @settings(max_examples=60, deadline=None)
    def test_exponent_vectors_cover_group_once(self, q):
        g = unit_group_structure(q)
        # brute-force oracle: products of generator powers hit every unit once
        seen = product_loop_dlog(g)
        assert len(seen) == math.prod(g.orders)
        assert sorted(seen) == brute_force_units(q)

    def test_dlog_matches_the_product_loop(self):
        """The power-table build gives the old loop's dlog table: same keys,
        same tuples of ints, same insertion order."""
        moduli = [5, *range(7, 2001), 30030, 65536, 720720]
        for q in moduli:
            g = unit_group_structure(q)
            assert list(g.dlog.items()) == list(product_loop_dlog(g).items()), q
            key, vec = next(iter(g.dlog.items()))
            assert type(key) is int and all(type(f) is int for f in vec)

    @given(VALID_Q)
    @settings(max_examples=60, deadline=None)
    def test_order_product_is_phi(self, q):
        g = unit_group_structure(q)
        assert math.prod(g.orders) == euler_phi(q) == len(brute_force_units(q))

    @given(VALID_Q)
    @settings(max_examples=40, deadline=None)
    def test_generator_orders(self, q):
        g = unit_group_structure(q)
        for gen, s in zip(g.generators, g.orders):
            assert multiplicative_order(q, gen) == s


class TestOrd:
    def test_identity(self):
        assert multiplicative_order(11, 1) == 1

    def test_examples(self):
        assert multiplicative_order(7, 2) == 3
        assert multiplicative_order(5, 2) == 4

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            multiplicative_order(9, 3)

    @given(VALID_Q, st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_minimality_and_divides_phi(self, q, seed):
        units = brute_force_units(q)
        b = units[seed % len(units)]
        m = multiplicative_order(q, b)
        assert pow(b, m, q) == 1
        x = 1
        for k in range(1, m):
            x = x * b % q
            assert x != 1
        assert euler_phi(q) % m == 0


class TestDlogVector:
    def test_identity_is_zero(self):
        assert dlog_vector(15, 1) == (0, 0)

    def test_q5(self):
        # 2^3 = 8 = 3 mod 5
        assert dlog_vector(5, 3) == (3,)

    def test_q7(self):
        # generator 3, 3^2 = 2
        assert dlog_vector(7, 2) == (2,)

    @given(VALID_Q, st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, q, seed):
        g = unit_group_structure(q)
        units = g.units
        b = units[seed % len(units)]
        vec = dlog_vector(q, b)
        assert all(0 <= f < s for f, s in zip(vec, g.orders))
        assert g.from_vector(vec) == b


class TestModDiv:
    def test_self_quotient(self):
        assert mod_div(13, 9, 9) == 1

    def test_examples(self):
        assert mod_div(7, 5, 2) == 6
        assert mod_div(9, 7, 4) == 4

    @given(VALID_Q, st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=100, deadline=None)
    def test_division_inverts_multiplication(self, q, s1, s2):
        units = brute_force_units(q)
        a, b = units[s1 % len(units)], units[s2 % len(units)]
        d = mod_div(q, a, b)
        assert d * b % q == a
        # independent extended-gcd oracle
        g, x, _ = ext_gcd(b, q)
        assert g == 1
        assert d == a * x % q

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            mod_div(9, 3, 2)
        with pytest.raises(ValueError):
            check_residue(9, 6)
