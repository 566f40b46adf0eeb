import cmath
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from racebarrier.barrier_search import RaceTriple, find_barrier
from racebarrier.characters import (
    CharacterTable,
    DirichletCharacter,
    angle_to_complex,
    character_group,
    character_pair_constraint,
    character_sum_reduced,
    character_table,
    character_with_unit_value,
    nonprincipal_characters,
    principal_character,
)
from racebarrier.cyclotomic import angles_to_counts, reduce_root_sum
from racebarrier.residue_group import (
    check_modulus,
    dlog_vector,
    multiplicative_order,
    unit_group_structure,
)

SMALL_Q = st.one_of(st.just(5), st.integers(min_value=7, max_value=60))


def units_of(q):
    return unit_group_structure(q).units


class TestEvaluate:
    def test_principal_is_zero_angle(self):
        chi = principal_character(12)
        for a in units_of(12):
            assert chi.evaluate(a) == 0

    def test_q5_power_table(self):
        chi = DirichletCharacter(5, (1,))
        assert chi.evaluate(2) == Fraction(1, 4)
        assert chi.evaluate(4) == Fraction(1, 2)
        assert chi.evaluate(3) == Fraction(3, 4)

    @given(SMALL_Q, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_multiplicative(self, q, s1, s2, s3):
        chars = character_group(q)
        chi = chars[s1 % len(chars)]
        us = units_of(q)
        a, b = us[s2 % len(us)], us[s3 % len(us)]
        assert (chi.evaluate(a) + chi.evaluate(b)) % 1 == chi.evaluate(a * b % q)

    @given(SMALL_Q, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 30))
    @settings(max_examples=100, deadline=None)
    def test_power_rule(self, q, s1, s2, k):
        chars = character_group(q)
        chi = chars[s1 % len(chars)]
        us = units_of(q)
        a = us[s2 % len(us)]
        assert (chi**k).evaluate(a) == (k * chi.evaluate(a)) % 1

    @given(SMALL_Q, st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_conjugate_negates(self, q, s1, s2):
        chars = character_group(q)
        chi = chars[s1 % len(chars)]
        us = units_of(q)
        a = us[s2 % len(us)]
        assert chi.conjugate().evaluate(a) == (-chi.evaluate(a)) % 1

    def test_angle_numerator_matches_fraction(self):
        for q in (5, 7, 9, 12, 15, 16, 24):
            n = unit_group_structure(q).exponent
            for chi in character_group(q):
                for a in units_of(q):
                    assert Fraction(chi.angle_numerator(a), n) % 1 == chi.evaluate(a)


class TestCharacterTable:
    @staticmethod
    def per_generator_angle(chi, a):
        """Reference: sum_i h_i f_i (n / s_i) mod n over the dlog vector f of a."""
        group = unit_group_structure(chi.q)
        n = group.exponent
        f = dlog_vector(chi.q, a)
        return sum(h * fi * (n // s) for h, fi, s in zip(chi.exponents, f, group.orders)) % n

    def test_matches_per_generator_formula_for_every_q_up_to_200(self):
        for q in range(5, 201):
            try:
                check_modulus(q)
            except ValueError:
                continue
            group = unit_group_structure(q)
            units = group.units
            table = character_table(q)
            assert table.exponent == group.exponent
            assert table.scaled.shape == (group.phi, len(group.orders))
            assert not (table.scaled.flags.writeable or table.column(units[-1]).flags.writeable)
            uncached = CharacterTable(q, table.exponent, table.scaled)
            cols = table.columns(units)
            for row, chi in enumerate(character_group(q)):
                expected = [self.per_generator_angle(chi, a) for a in units]
                assert [col[row] for col in cols] == expected, (q, chi)
                assert [table.angle(row, a) for a in units] == expected, (q, chi)
                assert [uncached.angle(row, a) for a in units] == expected, (q, chi)
            assert not uncached._columns  # single reads build no column

    def test_one_read_at_a_large_modulus_stays_small(self):
        """A single value costs O(t) and a column O(phi); nothing phi^2 is built
        (the full table at q = 100003 would take 80 GB)."""
        q = 100003
        unit_group_structure(q)  # the dlog table is not the character table's cost
        tracemalloc.start()
        try:
            chi = DirichletCharacter(q, (1,))
            k = chi.angle_numerator(2)
            assert chi.evaluate(2) == Fraction(k, q - 1)
            assert character_with_unit_value(q, 2).evaluate(2) == Fraction(
                1, multiplicative_order(q, 2))
            k = chi.angle_numerator(3)
            assert character_table(q).column(3)[1] == k == chi.angle_numerator(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    def test_reads_agree_with_the_table(self):
        q = 24
        table = character_table(q)
        units = units_of(q)
        cols = table.columns(units)
        n = table.exponent
        for chi in character_group(q):
            for a, col in zip(units, cols):
                k = chi.angle_numerator(a)
                assert type(k) is int and k == col[chi.index]
                assert chi.angle_numerator(a + 5 * q) == k
                assert chi.evaluate(a) == Fraction(k, n)
                assert chi.value(a) == table.roots[k] == angle_to_complex(Fraction(k, n))

    @pytest.mark.parametrize("a", [0, 2, 3, 12, -4, 30])
    def test_non_unit_rejected_on_every_read(self, a):
        chi = character_group(12)[1]
        for read in (chi.angle_numerator, chi.value, chi.evaluate,
                     lambda a: character_table(12).columns((1, a))):
            with pytest.raises(ValueError, match="not coprime"):
                read(a)


class TestCharOrder:
    def test_principal(self):
        assert principal_character(7).order == 1

    def test_q5(self):
        assert DirichletCharacter(5, (1,)).order == 4

    def test_q29(self):
        chi = DirichletCharacter(29, (4,))
        assert unit_group_structure(29).orders == (28,)
        assert chi.order == 7

    @given(SMALL_Q, st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_order_is_minimal(self, q, s):
        chars = character_group(q)
        chi = chars[s % len(chars)]
        k = chi.order
        assert (chi**k).is_principal
        for m in range(1, k):
            assert not (chi**m).is_principal


def old_character_group(q):
    """The eager builder the lazy group replaced: every row, built at once."""
    orders = unit_group_structure(q).orders
    return tuple(DirichletCharacter(q, vec) for vec in itertools.product(*map(range, orders)))


class TestCharacterGroup:
    def test_matches_the_eager_tuple_for_every_q_up_to_200(self):
        for q in range(5, 201):
            try:
                check_modulus(q)
            except ValueError:
                continue
            chars = character_group(q)
            old = old_character_group(q)
            assert len(chars) == len(old)
            for i, chi in enumerate(old):
                assert chars[i] == chi and chars[i].index == i
                assert chars[i] is chars[i] is chars[i - len(old)]
            assert tuple(chars) == old
            assert nonprincipal_characters(q) == old[1:]
            assert chars[-1] is chars[len(old) - 1]
            for past in (len(old), -len(old) - 1):
                with pytest.raises(IndexError):
                    chars[past]
            with pytest.raises(TypeError):
                chars[1:]

    def test_a_cold_construction_one_builds_few_rows(self):
        q = 8191  # phi = 8190, read by no other test
        barrier = find_barrier(RaceTriple(q, 2, 3, 5))
        assert barrier.construction == "I"
        built = [row for row in character_group(q)._rows if row is not None]
        assert 0 < len(built) <= 24
        assert all(zero.character in built for zero in barrier.zeros)

    @given(SMALL_Q)
    @settings(max_examples=40, deadline=None)
    def test_counts_and_uniqueness(self, q):
        chars = character_group(q)
        assert len(chars) == unit_group_structure(q).phi
        assert len(set(chars)) == len(chars)
        assert sum(1 for c in chars if c.is_principal) == 1

    @given(SMALL_Q)
    @settings(max_examples=30, deadline=None)
    def test_canonical_index(self, q):
        chars = character_group(q)
        for i, chi in enumerate(chars):
            assert chi.index == i

    @given(SMALL_Q, st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_nonprincipal_sum_is_minus_one(self, q, s):
        """sum over non-principal characters of chi(a) = -1 for every unit a != 1,
        decided exactly over the cyclotomic basis."""
        us = [a for a in units_of(q) if a != 1]
        a = us[s % len(us)]
        chars = nonprincipal_characters(q)
        n = unit_group_structure(q).exponent
        counts = angles_to_counts([c.angle_numerator(a) for c in chars], n)
        counts[0] += 1  # adding 1 should give exactly zero
        assert not any(reduce_root_sum(counts, n))

    def test_character_sum_reduced_helper(self):
        chars = nonprincipal_characters(7)
        red = character_sum_reduced(chars, 2)
        assert red == reduce_root_sum([-1], unit_group_structure(7).exponent)


class TestCharacterWithUnitValue:
    def test_b_equals_one(self):
        assert character_with_unit_value(11, 1).is_principal

    def test_q5(self):
        chi = character_with_unit_value(5, 2)
        assert chi.evaluate(2) == Fraction(1, 4)

    def test_q7(self):
        chi = character_with_unit_value(7, 2)
        assert chi.evaluate(2) == Fraction(1, 3)

    def test_exhaustive_scan_oracle_small_q(self):
        # the returned character indeed achieves e(1/m), and some character does
        # for every unit: cross-check against a full scan
        from racebarrier.residue_group import multiplicative_order

        for q in (5, 7, 8, 9, 12, 15, 16, 21, 24):
            for b in units_of(q):
                m = multiplicative_order(q, b)
                chi = character_with_unit_value(q, b)
                assert chi.evaluate(b) == (Fraction(1, m) % 1)
                scan = [c for c in character_group(q) if c.evaluate(b) == Fraction(1, m) % 1]
                assert chi in scan

    def test_exhaustive_all_q_up_to_200(self):
        from racebarrier.residue_group import multiplicative_order

        for q in [5] + list(range(7, 201)):
            for b in units_of(q):
                chi = character_with_unit_value(q, b)
                m = multiplicative_order(q, b)
                assert chi.evaluate(b) == (Fraction(1, m) % 1), (q, b)


class TestCharacterPairConstraint:
    def test_r_one_is_principal(self):
        chi = character_pair_constraint(7, 2, 3, 1)
        assert chi.is_principal

    def test_q7(self):
        chi = character_pair_constraint(7, 2, 3, 3)
        assert chi.evaluate(2) == Fraction(1, 3)
        assert (3 * chi.evaluate(3)) % 1 == 0

    def test_q13(self):
        chi = character_pair_constraint(13, 3, 4, 3)
        assert chi.evaluate(3) == Fraction(1, 3)
        assert (3 * chi.evaluate(4)) % 1 == 0

    def test_exhaustive_oracle(self):
        # scan confirms the constructed character is among all satisfying ones
        chi = character_pair_constraint(13, 3, 4, 3)
        scan = [
            c
            for c in character_group(13)
            if c.evaluate(3) == Fraction(1, 3) and (3 * c.evaluate(4)) % 1 == 0
        ]
        assert chi in scan and scan

    def test_precondition_violations(self):
        with pytest.raises(ValueError, match="does not divide"):
            character_pair_constraint(7, 2, 3, 4)  # 4 does not divide ord(2)=3
        # q=16: ord(15)=2, ord(5)=4: p=2, a=1 || r=2 but 4 | ord(5)
        with pytest.raises(ValueError, match="2\\^1"):
            character_pair_constraint(16, 15, 5, 2)


def test_angle_to_complex_reduces_first():
    big = Fraction(10**12 + 1, 4)  # reduces to 1/4 exactly
    assert abs(angle_to_complex(big) - 1j) < 1e-15
