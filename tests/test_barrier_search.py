import cmath
import dataclasses
import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import racebarrier as rb
from racebarrier import barrier_search
from racebarrier.barrier_search import (
    IM_DET_FLOOR,
    BarrierParams,
    ConstructionError,
    RaceTriple,
    SpacingCharacter,
    ZeroSpec,
    _cosines_distinct,
    _imag_det,
    _zero_spec,
    barrier_from_dict,
    barrier_to_dict,
    construction_one,
    construction_three,
    construction_two,
    find_barrier,
    find_equal_sum_set,
    find_order7_character,
    find_spacing_character,
    multiplicities_for,
    solve_lambda_system,
    verify_crossing_inequality,
)
from racebarrier.characters import (
    DirichletCharacter,
    _RootsOfUnity,
    character_group,
    character_pair_constraint,
    nonprincipal_characters,
)
from racebarrier.race_simulator import MainTermConfig, pair_diff_grid, simulate
from racebarrier.residue_group import multiplicative_order, unit_group_structure


class TestRaceTriple:
    def test_valid(self):
        t = RaceTriple(7, 1, 2, 5)
        assert t.residues == (1, 2, 5)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            RaceTriple(7, 1, 2, 9)  # 9 = 2 mod 7

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            RaceTriple(9, 1, 3, 5)


class TestZeroSpec:
    def test_strip_validation(self):
        chi = DirichletCharacter(7, (1,))
        with pytest.raises(ValueError):
            ZeroSpec(chi, 0.5, 100.0, 1)
        with pytest.raises(ValueError):
            ZeroSpec(chi, 0.6, -1.0, 1)
        with pytest.raises(ValueError):
            ZeroSpec(chi, 0.6, 100.0, 0)


_PARAM_NAMES = ("tau", "sigma1", "sigma2", "beta1", "t", "epsilon", "truncation")


class TestBarrierParams:
    def test_seven_frozen_fields(self):
        params = BarrierParams()
        assert tuple(f.name for f in dataclasses.fields(params)) == _PARAM_NAMES
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.t = 2000.0
        assert barrier_search.DEFAULT_PARAMS == params

    @pytest.mark.parametrize("changes", [
        *({name: value} for name in _PARAM_NAMES
          for value in (math.nan, math.inf, -math.inf, True, "1")),
        {"beta1": 0.4999},  # 1/2 <= beta1
        {"sigma2": 0.5},  # beta1 < sigma2
        {"sigma1": 0.5005},  # sigma2 < sigma1
        {"sigma1": 1.2},  # sigma1 <= 1
        {"tau": -1.0},
        {"t": 0.0},
        {"t": -1000},
        {"epsilon": 0.0},
        {"truncation": 0},
        {"truncation": 10_000.0},
        {"t": 2 ** 1024},  # an int no float holds
        {"truncation": 2 ** 1024},
    ], ids=lambda changes: ",".join(f"{k}={v!r}"[:24] for k, v in changes.items()))
    def test_each_bad_value_names_its_field(self, changes):
        name = next(iter(changes))
        with pytest.raises(ValueError, match=f"^parameter '{name}' must be "):
            BarrierParams(**changes)

    def test_ints_serve_float_fields(self):
        params = BarrierParams(sigma1=1, tau=0, t=4000, epsilon=1)
        assert params.height == 4000 and params.sigma1 == 1

    @pytest.mark.parametrize("t, tau, height", [(1000.0, 100.0, 1000.0), (4000.0, 100.0, 4000.0),
                                                (10.0, 3000.0, 6000.0), (10.0, 0.0, 1000.0)])
    def test_height(self, t, tau, height):
        assert BarrierParams(t=t, tau=tau).height == height

    def test_default_parameters_are_built_once(self, monkeypatch):
        """find_barrier and construction_gsh read one shared default; the
        census calls find_barrier once per triple."""
        built = []
        monkeypatch.setattr(BarrierParams, "__post_init__", lambda self: built.append(self))
        for triple in ((7, 1, 2, 5), (23, 2, 3, 4), (19, 2, 3, 14), (29, 1, 16, 24)):
            find_barrier(RaceTriple(*triple))
        rb.construction_gsh(RaceTriple(7, 1, 2, 5))
        assert built == []
        BarrierParams()
        assert len(built) == 1


# reprs of find_barrier(RaceTriple(7, 1, 2, 5)) and its equal-sum set,
# recorded while the records had dataclass-generated __init__s
_BARRIER_7_REPR = (
    "Barrier(triple=RaceTriple(q=7, a1=1, a2=2, a3=5), permutation=(0, 1, 2), "
    "relabeled_triple=(1, 2, 5), construction='I', beta1=0.5, zeros=(ZeroSpec("
    "character=DirichletCharacter(q=7, exponents=(3,)), sigma=0.501, gamma=1000.0, "
    "multiplicity=1), ZeroSpec(character=DirichletCharacter(q=7, exponents=(1,)), "
    "sigma=0.5005, gamma=2000.0, multiplicity=1)), excluded_ordering=(1, 5, 2), "
    "parameters={'sigma1': 0.501, 'sigma2': 0.5005, 't': 1000.0, 'family': "
    "'primitive-root'}, margins={'B': -0.33333333333333337, 'B_times_t': "
    "-333.33333333333337, 'F0': 0.0007517499213896524, 'cos_c_star': "
    "-0.49934882425012367, 'phase_slack': 1.0479493011179875, 'abs_W': "
    "1.7320508075688772, 'abs_Z': 2.0, 'verdict_margin': 1.0479493011179875})"
)
_EQUAL_SUM_7_REPR = (
    "EqualSumSet(permutation=(0, 1, 2), relabeled_triple=(1, 2, 5), family="
    "'primitive-root', characters=(DirichletCharacter(q=7, exponents=(3,)),), "
    "chi2=DirichletCharacter(q=7, exponents=(1,)))"
)


class TestRecordContract:
    """RaceTriple, EqualSumSet, Barrier and SpacingCharacter set their fields
    with one __dict__ update, and ZeroSpec and CrossingInequality with the
    generated __init__; all six keep the frozen dataclass contract: no
    assignment, generated __eq__/__hash__/__repr__, fields/replace and every
    check."""

    @pytest.fixture(scope="class")
    def barrier7(self):
        return find_barrier(RaceTriple(7, 1, 2, 5))

    def _records(self, barrier7):
        return {
            "triple": (barrier7.triple, "q"),
            "equal_sum": (find_equal_sum_set(RaceTriple(7, 1, 2, 5)), "family"),
            "zero": (barrier7.zeros[0], "sigma"),
            "barrier": (barrier7, "beta1"),
            "spacing": (find_spacing_character(RaceTriple(23, 2, 3, 4)), "d1"),
            "crossing": (verify_crossing_inequality(1, 2, Fraction(2, 5), Fraction(2, 5)),
                         "margin"),
        }

    @pytest.mark.parametrize("kind", ["triple", "equal_sum", "zero", "barrier", "spacing",
                                      "crossing"])
    def test_assignment_raises(self, barrier7, kind):
        record, name = self._records(barrier7)[kind]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, getattr(record, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.unknown = 0

    @pytest.mark.parametrize("kind", ["triple", "equal_sum", "zero", "barrier", "spacing",
                                      "crossing"])
    def test_fields_replace_and_equality(self, barrier7, kind):
        record, _ = self._records(barrier7)[kind]
        names = [f.name for f in dataclasses.fields(record)]
        assert list(record.__dict__) == names
        copy = dataclasses.replace(record)
        assert copy == record and hash(copy) == hash(record) and copy is not record
        assert repr(copy) == repr(record)
        assert type(record)(*(getattr(record, n) for n in names)) == record

    def test_residues_reduced_before_comparing(self):
        a, b = RaceTriple(7, 8, 2, 3), RaceTriple(7, 1, 2, 3)
        assert a == b and hash(a) == hash(b)
        assert a.residues == (1, 2, 3) and repr(a) == "RaceTriple(q=7, a1=1, a2=2, a3=3)"
        assert RaceTriple(q=7, a1=-6, a2=9, a3=10) == b

    @pytest.mark.parametrize("args, message", [
        ((6, 1, 5, 7), "modulus must be 5 or >= 7, got 6"),
        ((7.0, 1, 2, 3), "modulus must be an integer, got 7.0"),
        ((9, 1, 3, 5), "3 is not coprime to 9"),
        ((9, 6, 3, 5), "6 is not coprime to 9"),
        ((7, 1, 2, 9), "residues [1, 2, 2] are not pairwise distinct mod 7"),
        ((7, 3, 2, 10), "residues [3, 2, 3] are not pairwise distinct mod 7"),
        ((7, 5, 12, 2), "residues [5, 5, 2] are not pairwise distinct mod 7"),
    ])
    def test_race_triple_checks(self, args, message):
        with pytest.raises(ValueError) as exc:
            RaceTriple(*args)
        assert str(exc.value) == message

    @pytest.mark.parametrize("args, message", [
        ((0.5, 100.0, 1), "zero real part 0.5 outside (1/2, 1]"),
        ((1.5, 100.0, 1), "zero real part 1.5 outside (1/2, 1]"),
        ((0.6, -1.0, 1), "zero ordinate must be positive"),
        ((0.6, 0.0, 0), "zero ordinate must be positive"),
        ((0.6, 100.0, 0), "multiplicity must be >= 1"),
        ((0.6, -math.inf, 1), "zero ordinate must be positive"),
        ((0.6, math.nan, 1), "zero ordinate nan is not finite"),
        ((0.6, math.inf, 1), "zero ordinate inf is not finite"),
    ])
    def test_zero_spec_checks(self, args, message):
        with pytest.raises(ValueError) as exc:
            ZeroSpec(DirichletCharacter(7, (1,)), *args)
        assert str(exc.value) == message

    def test_barrier_checks(self, barrier7):
        def build(**changes):
            return dataclasses.replace(barrier7, **changes)

        with pytest.raises(ValueError) as exc:
            build(zeros=())
        assert str(exc.value) == "barrier needs at least one zero"
        with pytest.raises(ValueError) as exc:
            build(beta1=0.5005)
        assert str(exc.value) == "beta1=0.5005 not below the zero strip [0.5005, ...]"
        with pytest.raises(ValueError) as exc:
            build(beta1=0.4)
        assert str(exc.value) == "beta1=0.4 not below the zero strip [0.5005, ...]"
        for excluded in [(1, 2, 2), (1, 2), (1, 2, 5, 5), (1, 2, 6)]:
            with pytest.raises(ValueError) as exc:
                build(excluded_ordering=excluded)
            assert str(exc.value) == "excluded ordering is not a permutation of the triple"

    def test_barrier_defaults_and_replace(self, barrier7):
        kept = {f.name: getattr(barrier7, f.name) for f in dataclasses.fields(barrier7)
                if f.name not in ("parameters", "margins")}
        a, b = rb.Barrier(**kept), rb.Barrier(**kept)
        assert a.parameters == {} and a.margins == {} and a.margins is not b.margins
        assert a == barrier7 and hash(a) == hash(barrier7)  # compare=False fields
        edited = dataclasses.replace(barrier7, margins={"verdict_margin": -1.0})
        assert edited.margins == {"verdict_margin": -1.0}
        assert edited.parameters is barrier7.parameters and edited.zeros is barrier7.zeros
        assert edited == barrier7 and barrier7.margins["verdict_margin"] > 0

    def test_reprs_as_recorded(self, barrier7):
        assert repr(barrier7) == _BARRIER_7_REPR
        assert repr(find_equal_sum_set(RaceTriple(7, 1, 2, 5))) == _EQUAL_SUM_7_REPR


class TestFindEqualSumSet:
    def test_q7_singleton(self):
        found = find_equal_sum_set(RaceTriple(7, 1, 2, 5))
        assert found.family == "primitive-root"
        assert found.relabeled_triple == (1, 2, 5)
        [chi] = found.characters
        assert chi.evaluate(3) == Fraction(1, 2)
        assert chi.evaluate(1) == chi.evaluate(2) != chi.evaluate(5)

    def test_q9_conjugate_pair(self):
        found = find_equal_sum_set(RaceTriple(9, 4, 7, 1))
        assert found.family == "conjugate-pair"
        assert found.relabeled_triple == (4, 7, 1)
        assert all(chi.order == 6 for chi in found.characters)
        sums = [sum(chi.value(a) for chi in found.characters) for a in found.relabeled_triple]
        assert sums[0] == pytest.approx(-1) and sums[1] == pytest.approx(-1)
        assert sums[2] == pytest.approx(2)

    def test_q29_order7_triple_needs_power_family(self):
        """Singletons and conjugate pairs fail by direct scan; the power
        family of any character nontrivial on the ratios succeeds."""
        q, triple = 29, (1, 16, 24)
        chars = nonprincipal_characters(q)
        for perm in itertools.permutations(triple):
            for chi in chars:
                v = [chi.evaluate(a) for a in perm]
                assert not (v[0] == v[1] != v[2])  # no singleton
                s = [2 * math.cos(2 * math.pi * float(x)) for x in v]
                if abs(s[0] - s[1]) < 1e-12:
                    assert abs(s[0] - s[2]) < 1e-12  # no conjugate pair either
        found = find_equal_sum_set(RaceTriple(q, *triple))
        assert found.family == "power"
        assert found.relabeled_triple[2] == 1  # residue 1 carries the odd sum out

    def test_sums_verified_exactly(self):
        """Whatever family is found, the sums agree on the first two relabeled
        residues and differ on the third, checked over the cyclotomic basis."""
        from racebarrier.characters import character_sum_reduced

        for q, triple in [(7, (1, 2, 5)), (9, (4, 7, 1)), (29, (1, 16, 24)), (13, (1, 3, 9))]:
            found = find_equal_sum_set(RaceTriple(q, *triple))
            b1, b2, b3 = found.relabeled_triple
            s1 = character_sum_reduced(found.characters, b1)
            s2 = character_sum_reduced(found.characters, b2)
            s3 = character_sum_reduced(found.characters, b3)
            assert s1 == s2 != s3

    def test_chi2_separates(self):
        found = find_equal_sum_set(RaceTriple(7, 1, 2, 5))
        b1, b2, _ = found.relabeled_triple
        assert found.chi2.evaluate(b1) != found.chi2.evaluate(b2)

    def test_structured_failure_matches_subset_oracle(self):
        """For phi(q) <= 16, the structured families return None only when a
        float-screened exhaustive subset scan also finds nothing."""
        q = 16
        units = unit_group_structure(q).units
        chars = nonprincipal_characters(q)
        for triple in itertools.permutations(units, 3):
            found = find_equal_sum_set(RaceTriple(q, *triple))
            oracle_hit = False
            vals = [[c.value(a) for a in triple] for c in chars]
            for mask in range(1, 1 << len(chars)):
                s = [0j, 0j, 0j]
                for b in range(len(chars)):
                    if mask >> b & 1:
                        for t in range(3):
                            s[t] += vals[b][t]
                for i, j, k in itertools.permutations(range(3)):
                    if abs(s[i] - s[j]) < 1e-9 and abs(s[i] - s[k]) > 1e-9:
                        oracle_hit = True
                if oracle_hit:
                    break
            assert (found is not None) == oracle_hit

    def test_families_decide_every_triple_with_phi_at_most_17(self):
        """Every ordered triple of the 27 moduli with phi(q) <= 17 (5 through
        60) is decided by a structured family, so no search over arbitrary
        character subsets is needed."""
        moduli = [q for q in range(5, 201) if q != 6 and unit_group_structure(q).phi <= 17]
        assert len(moduli) == 27 and max(moduli) == 60
        count = 0
        for q in moduli:
            for triple in itertools.permutations(unit_group_structure(q).units, 3):
                found = find_equal_sum_set(RaceTriple(q, *triple))
                assert found is not None and found.family != "subset", (q, triple)
                count += 1
        assert count == 31_776


class TestConstructionOne:
    def test_q7_structure(self):
        D = RaceTriple(7, 1, 2, 5)
        found = find_equal_sum_set(D)
        barrier = construction_one(D, found, BarrierParams())
        assert barrier.construction == "I"
        assert barrier.size == len(found.characters) + 1
        assert all(z.multiplicity == 1 for z in barrier.zeros)
        sigmas = sorted({z.sigma for z in barrier.zeros})
        assert barrier.beta1 < sigmas[0]

    def test_b_condition(self):
        for q, triple in [(7, (1, 2, 5)), (9, (4, 7, 1)), (11, (1, 2, 3))]:
            D = RaceTriple(q, *triple)
            barrier = construction_one(D, find_equal_sum_set(D), BarrierParams())
            b = barrier.margins["B"]
            t = barrier.parameters["t"]
            assert b == 0.0 or abs(b) > 2.0 / t

    def test_q9_b_is_exactly_zero(self):
        D = RaceTriple(9, 4, 7, 1)
        barrier = construction_one(D, find_equal_sum_set(D), BarrierParams())
        # arg W = pi/2 and arg Z = pi put the phase offset exactly on the snap
        assert barrier.margins["B"] == 0.0
        assert barrier.margins["abs_Z"] == pytest.approx(3.0)

    def test_excluded_ordering_verified_by_simulator(self):
        for q, triple in [(7, (1, 2, 5)), (9, (4, 7, 1))]:
            D = RaceTriple(q, *triple)
            barrier = construction_one(D, find_equal_sum_set(D), BarrierParams())
            t = barrier.parameters["t"]
            prof = simulate(barrier, 2e5, 2e5 + 8 * 2 * math.pi / t, 30000)
            assert prof.excluded_raw == 0
            assert prof.verified

    def test_sigma1_above_its_limit_fails(self):
        """Construction I keeps its own limit sigma1 <= 0.501 inside a valid
        parameter stack."""
        D = RaceTriple(7, 1, 2, 5)
        with pytest.raises(ConstructionError, match="construction I needs sigma1 <= 0.501"):
            construction_one(D, find_equal_sum_set(D), BarrierParams(sigma1=0.55))

    def test_zero_heights_are_t_and_2t(self):
        D = RaceTriple(7, 1, 2, 5)
        barrier = construction_one(D, find_equal_sum_set(D), BarrierParams())
        t = barrier.parameters["t"]
        assert sorted({z.gamma for z in barrier.zeros}) == [t, 2 * t]


class TestFindSpacingCharacter:
    def test_p2_route_coincidence_gives_none(self):
        # ord(3 / 1) = 4 mod 16: the even prime power collapses to coinciding
        # values, so the search gives None and a singleton decides the triple
        D = RaceTriple(16, 1, 3, 5)
        assert find_spacing_character(D) is None
        assert find_equal_sum_set(D).family == "singleton"
        assert find_barrier(D).construction == "I"

    def test_q11_order5(self):
        result = find_spacing_character(RaceTriple(11, 1, 4, 5))
        assert isinstance(result, SpacingCharacter)
        assert (result.d1, result.d2) == (Fraction(2, 5), Fraction(2, 5))
        assert result.chi.order == 5
        assert (result.c1, result.c2) == (1, 2)

    def test_all_orders_in_excluded_set_gives_none(self):
        assert find_spacing_character(RaceTriple(29, 1, 16, 24)) is None

    def test_composite_order_route(self):
        # all ratio orders 39: the prime-power route is blocked (3 and 13 are
        # excluded prime powers) and the composite route takes over
        g = unit_group_structure(79).generators[0]
        b = pow(g, 2, 79)
        D = RaceTriple(79, 1, b, b * b % 79)
        result = find_spacing_character(D)
        assert isinstance(result, SpacingCharacter)
        assert result.base_modulus == 39 and result.chi.order == 39
        assert construction_two(D, result, BarrierParams()).size == 3

    @pytest.mark.parametrize("triple, construction", [
        ((19, 2, 3, 14), "III"),  # every relabeling and both routes fail
        ((23, 2, 3, 4), "II"),
        ((69, 2, 32, 62), "II"),  # two generators
    ])
    def test_three_ratio_orders_per_triple(self, monkeypatch, triple, construction):
        """ord(x) = ord(1/x), so the six relabelings share three ratio orders,
        each one `_ratio_order` read from the dlog index, and each equal to
        the multiplicative order of the ratio."""
        from racebarrier import barrier_search

        calls = []
        order = barrier_search._ratio_order

        def counted(group, a, b):
            calls.append(order(group, a, b))
            assert calls[-1] == multiplicative_order(group.q, b * pow(a, -1, group.q))
            return calls[-1]

        monkeypatch.setattr(barrier_search, "_ratio_order", counted)
        assert find_barrier(RaceTriple(*triple)).construction == construction
        assert len(calls) == 3

    def test_declared_gaps_match_values(self):
        for q, triple in [(11, (1, 4, 5)), (23, (2, 3, 4)), (47, (2, 3, 4))]:
            result = find_spacing_character(RaceTriple(q, *triple))
            if not isinstance(result, SpacingCharacter):
                continue
            t1, t2, t3 = (result.chi.evaluate(a) for a in result.relabeled_triple)
            assert (t2 - t1) % 1 == result.d1
            assert (t3 - t2) % 1 == result.d2


class TestVerify34:
    def test_frozen_margins(self):
        # high-precision oracle values (50+ digits): see the acceptance suite
        r1 = verify_crossing_inequality(5, 9, Fraction(6, 19), Fraction(9, 19))
        assert r1.ok and r1.margin == pytest.approx(0.002280949785288752, abs=1e-12)
        r2 = verify_crossing_inequality(3, 5, Fraction(12, 37), Fraction(16, 37))
        assert r2.ok and r2.margin == pytest.approx(0.028487888906942138, abs=1e-12)

    def test_window_case(self):
        r = verify_crossing_inequality(1, 2, Fraction(2, 5), Fraction(2, 5))
        assert r.ok and r.margin > 0

    def test_lambda_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            verify_crossing_inequality(1, 2, Fraction(1, 10), Fraction(2, 5))  # lam1 = 2cos(pi/10) > 1


def _synthetic_spacing(q, den, k2, k3, c1, c2):
    g = unit_group_structure(q).generators[0]
    phi = unit_group_structure(q).phi
    chi = DirichletCharacter(q, (phi // den,))
    assert chi.order == den
    a1, a2, a3 = 1, pow(g, k2, q), pow(g, k3, q)
    return RaceTriple(q, a1, a2, a3), SpacingCharacter(
        (0, 1, 2), (a1, a2, a3), chi,
        Fraction(k2, den), Fraction(k3 - k2, den), c1, c2, den, 1,
    )


class TestConstructionTwo:
    def test_window_case_size_three(self):
        D = RaceTriple(23, 2, 3, 4)
        sp = find_spacing_character(D)
        barrier = construction_two(D, sp, BarrierParams())
        assert barrier.construction == "II" and barrier.size == 3

    def test_exceptional_pair_6_19(self):
        D, sp = _synthetic_spacing(191, 19, 6, 15, 5, 9)
        barrier = construction_two(D, sp, BarrierParams())
        assert barrier.size == 14
        assert barrier.margins["envelope_delta"] > 0

    def test_exceptional_pair_12_37(self):
        D, sp = _synthetic_spacing(149, 37, 12, 28, 3, 5)
        barrier = construction_two(D, sp, BarrierParams())
        assert barrier.size == 8

    def test_multiplicity_table(self):
        assert multiplicities_for(2, 5, 2, 5) == (1, 2)
        assert multiplicities_for(6, 19, 9, 19) == (5, 9)
        assert multiplicities_for(12, 37, 16, 37) == (3, 5)
        # unreduced ratios, as the spacing search passes them over the group exponent
        assert multiplicities_for(4, 10, 4, 10) == (1, 2)
        assert multiplicities_for(12, 38, 18, 38) == (5, 9)
        assert multiplicities_for(24, 74, 32, 74) == (3, 5)
        with pytest.raises(ValueError):
            multiplicities_for(1, 5, 2, 5)
        with pytest.raises(ValueError):
            multiplicities_for(12, 38, 16, 38)  # (6/19, 8/19)

    def test_inconsistent_gaps_rejected(self):
        D, sp = _synthetic_spacing(191, 19, 6, 15, 5, 9)
        bad = SpacingCharacter(
            sp.permutation, sp.relabeled_triple, sp.chi,
            Fraction(12, 37), Fraction(16, 37), 3, 5, 37, 1,
        )
        with pytest.raises(ConstructionError):
            construction_two(D, bad, BarrierParams())

    @pytest.mark.parametrize("triple, d1, d2", [
        # d1 > 1/3 alone made multiplicities_for answer (1, 2), and the barrier was emitted
        ((1, 6, 7), Fraction(5, 12), Fraction(1, 2)),
        # lambda1 = 2 cos(pi / 4) > 1 raised a bare ValueError from v_lambda
        ((1, 8, 9), Fraction(1, 4), Fraction(5, 12)),
    ])
    def test_gaps_outside_the_admissible_set_rejected(self, triple, d1, d2):
        """Gaps the character values realize, but outside the spacing set."""
        D = RaceTriple(13, *triple)
        chi = DirichletCharacter(13, (1,))
        k1, k2, k3 = (chi.evaluate(a) for a in triple)
        assert ((k2 - k1) % 1, (k3 - k2) % 1) == (d1, d2)
        bad = SpacingCharacter((0, 1, 2), triple, chi, d1, d2, 1, 2, 3, 1)
        with pytest.raises(ConstructionError, match="outside the admissible spacing set"):
            construction_two(D, bad, BarrierParams())

    def test_envelope_negative_on_main_terms(self):
        """The emitted barrier's two normalized main terms dip below -delta
        together: their pointwise min never exceeds -delta over a period."""
        D = RaceTriple(23, 2, 3, 4)
        barrier = construction_two(D, find_spacing_character(D), BarrierParams())
        gam = barrier.parameters["gamma"]
        delta = barrier.margins["envelope_delta"]
        cfg = MainTermConfig.from_zeros(barrier.q, barrier.zeros, beta1=barrier.beta1)
        b1, b2, b3 = barrier.relabeled_triple
        us = np.linspace(100.0, 100.0 + 2 * math.pi / gam, 50001)
        d1 = pair_diff_grid(cfg, b2, b1, us)
        d2 = pair_diff_grid(cfg, b3, b2, us)
        worst = np.minimum(d1, d2).max()
        assert worst <= (4.0 / gam) * (-delta) + 30.0 / gam**2

    def test_exclusion_simulated(self):
        D = RaceTriple(23, 2, 3, 4)
        barrier = construction_two(D, find_spacing_character(D), BarrierParams())
        gam = barrier.parameters["gamma"]
        prof = simulate(barrier, 2e5, 2e5 + 8 * 2 * math.pi / gam, 30000)
        assert prof.excluded_raw == 0 and prof.verified


def mp_determinant(trig, n, h, k, k1, k2, k3):
    """A determinant test's left minus right side at 50 digits: trig is
    mpmath.cos (powers 1, 2) or mpmath.sin (powers h, k)."""
    import mpmath as mp

    def diff(power, kx, ky):
        return (trig(2 * mp.pi * (power * kx % n) / n)
                - trig(2 * mp.pi * (power * ky % n) / n))

    with mp.workdps(50):
        return diff(h, k3, k2) * diff(k, k2, k1) - diff(h, k2, k1) * diff(k, k3, k2)


@st.composite
def angle_triples(draw):
    """(n, k1, k2, k3) with n <= 10^6, the k_i often equal up to sign mod n
    or close to 0 or n/2, where the cosines nearly coincide."""
    n = draw(st.one_of(st.integers(7, 100), st.integers(7, 10**6)))
    near = st.one_of(st.integers(0, 3), st.integers(n // 2 - 2, n // 2 + 2),
                     st.integers(n - 3, n - 1), st.integers(0, n - 1))
    k1 = draw(near) % n
    k2 = draw(st.one_of(st.just(k1), st.just(-k1 % n), near)) % n
    k3 = draw(st.one_of(st.just(k2), st.just(-k1 % n), near)) % n
    return n, k1, k2, k3


class TestDeterminantTests:
    """The exact real test and the certified imaginary test of
    find_order7_character against 50-digit mpmath determinants."""

    @settings(max_examples=300, deadline=None)
    @given(angle_triples())
    def test_real_test_is_exact(self, angles):
        import mpmath as mp

        n, k1, k2, k3 = angles
        det = mp_determinant(mp.cos, n, 1, 2, k1, k2, k3)
        # the old escalation accepted above 1e-40; a nonzero value is at least 1024 / n^6
        distinct = _cosines_distinct(n, k1, k2, k3)
        assert distinct == (abs(det) > mp.mpf("1e-40"))
        if distinct:
            assert abs(det) >= mp.mpf(1024) / mp.mpf(n) ** 6

    @settings(max_examples=300, deadline=None)
    @given(angle_triples(), st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    def test_imaginary_float_error_is_below_its_bound(self, angles, powers):
        import mpmath as mp

        n, k1, k2, k3 = angles
        h, k = powers
        det = _imag_det(_RootsOfUnity(n), n, h, k, k1, k2, k3)
        exact = mp_determinant(mp.sin, n, h, k, k1, k2, k3)
        assert abs(det - exact) < 5e-14  # the bound in _imag_det's docstring
        if abs(det) > IM_DET_FLOOR:
            assert abs(exact) > IM_DET_FLOOR - 5e-14 > 0

    def test_pair_at_the_floor_is_passed_over(self, monkeypatch):
        """A pair whose imaginary determinant is at the floor is passed over
        for the next pair, without escalation.  On 19 2 3 14 the witness is
        row 1 with (h, k) = (1, 2), and that row's other two pairs are 0."""
        D = RaceTriple(19, 2, 3, 14)
        w = find_order7_character(D)
        assert (w.chi.index, w.h, w.k) == (1, 1, 2)
        calls = []

        def first_at_floor(*args):
            calls.append(args[2:4])
            return IM_DET_FLOOR if len(calls) == 1 else _imag_det(*args)

        monkeypatch.setattr(barrier_search, "_imag_det", first_at_floor)
        w = find_order7_character(D)
        assert (w.chi.index, w.h, w.k) == (2, 1, 2)
        assert calls == [(1, 2), (1, 3), (2, 3), (1, 2)]
        monkeypatch.setattr(barrier_search, "_imag_det", lambda *args: -IM_DET_FLOOR)
        with pytest.raises(ConstructionError, match="no character passes"):
            find_order7_character(D)


class TestFindOrder7Character:
    def test_q19_true_failure_triple(self):
        D = RaceTriple(19, 2, 3, 14)
        w = find_order7_character(D)
        assert w.chi.order >= 7
        assert 1 <= w.h < w.k <= 3
        vals = [w.chi.value(a) for a in D.residues]
        # genuine first-construction failure: the full value structure applies
        res = sorted(v.real for v in vals)
        assert res[0] < res[1] < res[2]
        assert all(abs(v - 1) > 1e-9 and abs(v + 1) > 1e-9 for v in vals)

    def test_q29_example_triple(self):
        w = find_order7_character(RaceTriple(29, 1, 16, 24))
        assert w.chi.order in (7, 14, 28)

    def test_determinants_nonzero(self):
        D = RaceTriple(19, 2, 3, 14)
        w = find_order7_character(D)
        a1, a2, a3 = D.residues

        def rdiff(p, x, y):
            return (w.chi**p).value(x).real - (w.chi**p).value(y).real

        def idiff(p, x, y):
            return (w.chi**p).value(x).imag - (w.chi**p).value(y).imag

        assert abs(rdiff(1, a3, a2) * rdiff(2, a2, a1) - rdiff(1, a2, a1) * rdiff(2, a3, a2)) > 1e-9
        assert (
            abs(
                idiff(w.h, a3, a2) * idiff(w.k, a2, a1)
                - idiff(w.h, a2, a1) * idiff(w.k, a3, a2)
            )
            > 1e-9
        )


@pytest.fixture(scope="module")
def witness19():
    D = RaceTriple(19, 2, 3, 14)
    return D, find_order7_character(D)


class TestSolveLambdaSystem:

    def test_zero_targets(self, witness19):
        D, w = witness19
        lam = solve_lambda_system(D, w.chi, w.h, w.k, 0j, 0j)
        assert all(v == 0.0 for v in lam.values())

    def test_standard_targets(self, witness19):
        D, w = witness19
        a1, a2, a3 = D.residues
        for z1, z2 in ((1j, -1j), (1j, 1j), (0.3 - 0.7j, -1.1 + 0.2j)):
            lam = solve_lambda_system(D, w.chi, w.h, w.k, z1, z2)
            assert all(v >= 0.0 for v in lam.values())
            r1 = sum(v * (c.value(a2).conjugate() - c.value(a1).conjugate()) for c, v in lam.items())
            r2 = sum(v * (c.value(a3).conjugate() - c.value(a2).conjugate()) for c, v in lam.items())
            assert abs(r1 - z1) < 1e-10 and abs(r2 - z2) < 1e-10

    def test_shift_invariance(self, witness19):
        D, w = witness19
        a1, a2, _ = D.residues
        lam = solve_lambda_system(D, w.chi, w.h, w.k, 1j, -1j)
        shifted = {c: v + 2.5 for c, v in lam.items()}
        r_orig = sum(v * (c.value(a2).conjugate() - c.value(a1).conjugate()) for c, v in lam.items())
        r_shift = sum(v * (c.value(a2).conjugate() - c.value(a1).conjugate()) for c, v in shifted.items())
        assert abs(r_orig - r_shift) < 1e-12

    def test_residue_one_rejected(self):
        D = RaceTriple(29, 1, 16, 24)
        w = find_order7_character(D)
        with pytest.raises(ValueError):
            solve_lambda_system(D, w.chi, w.h, w.k, 1j, -1j)


class TestConstructionThree:
    def test_q19(self):
        D = RaceTriple(19, 2, 3, 14)
        barrier = construction_three(D, BarrierParams())
        assert barrier.construction == "III"
        assert barrier.excluded_ordering == D.residues
        assert barrier.margins["err_nu1"] < 1e-3 and barrier.margins["err_nu2"] < 1e-3
        assert barrier.margins["envelope_bound"] < 0
        heights = {z.gamma for z in barrier.zeros}
        gam = barrier.parameters["gamma"]
        assert heights <= {gam, 2 * gam}

    def test_normalized_main_terms_match_envelope(self):
        D = RaceTriple(19, 2, 3, 14)
        barrier = construction_three(D, BarrierParams())
        Q = barrier.parameters["Q"]
        gam = barrier.parameters["gamma"]
        cfg = MainTermConfig.from_zeros(barrier.q, barrier.zeros, beta1=barrier.beta1)
        a1, a2, a3 = D.residues
        us = np.linspace(80.0, 80.0 + 4 * math.pi / gam, 3001)
        d1 = pair_diff_grid(cfg, a1, a2, us)
        d2 = pair_diff_grid(cfg, a2, a3, us)
        ideal1 = (Q / gam) * (2 * np.cos(gam * us) + np.cos(2 * gam * us))
        ideal2 = (Q / gam) * (-2 * np.cos(gam * us) + np.cos(2 * gam * us))
        scale = barrier.margins["rationalization_scale"]
        tol = (2.0 * max(barrier.margins["err_nu1"], barrier.margins["err_nu2"]) * scale
               + 30.0 / gam) * (Q / gam)
        assert np.abs(d1 - ideal1).max() < tol
        assert np.abs(d2 - ideal2).max() < tol
        # grid form of the envelope bound
        m = np.minimum(d1, d2) * gam / Q
        assert m.max() <= barrier.margins["envelope_bound"] + 30.0 / gam

    def test_epsilon_too_small_reports_best(self):
        D = RaceTriple(19, 2, 3, 14)
        with pytest.raises(ConstructionError, match="best errors"):
            construction_three(D, BarrierParams(epsilon=1e-12))

    @pytest.mark.parametrize("epsilon, first_q", [(0.6, 1), (0.1, 10)])
    def test_q_rises_until_the_margin_is_positive(self, epsilon, first_q):
        """The first Q within epsilon (margins -34.6 and -2.6 on this triple)
        is passed over until the verdict margin is positive."""
        D = RaceTriple(19, 2, 3, 14)
        barrier = construction_three(D, BarrierParams(epsilon=epsilon))
        assert barrier.parameters["Q"] > first_q
        assert barrier.margins["verdict_margin"] > 0 > barrier.margins["envelope_bound"]
        assert max(barrier.margins["err_nu1"], barrier.margins["err_nu2"]) < epsilon
        # below any rounding error at Q = 10^6, so no Q <= 10^Q_CAP_POWER10 is within it
        with pytest.raises(ConstructionError, match=r"positive verdict margin .* Q <= 10\^6;"):
            construction_three(D, BarrierParams(epsilon=1e-12))

    def test_post_hoc_rationalization_errors(self):
        D = RaceTriple(19, 2, 3, 14)
        params = BarrierParams(epsilon=1e-3)
        barrier = construction_three(D, params)
        w = find_order7_character(D)
        nu1 = solve_lambda_system(D, w.chi, w.h, w.k, 1j, -1j)
        Q = barrier.parameters["Q"]
        mults = {(tuple(z.character.exponents), z.gamma == barrier.parameters["gamma"]): z.multiplicity for z in barrier.zeros}
        for c, v in nu1.items():
            n = mults.get((tuple(c.exponents), True), 0)
            assert abs(v - n / Q) < 1e-3

    def test_values_come_from_the_table(self, monkeypatch):
        """Construction III reads chi^p(a) from the group's columns: the old path
        made 540 value calls on this triple.  Powers are rows of the group, so
        their count is not bounded."""
        calls = Counter()
        value = DirichletCharacter.value

        def counted_value(self, a):
            calls["value"] += 1
            return value(self, a)

        monkeypatch.setattr(DirichletCharacter, "value", counted_value)
        construction_three(RaceTriple(43, 2, 3, 14), BarrierParams())
        assert calls["value"] <= 60, calls

    def test_exclusion_simulated(self):
        D = RaceTriple(19, 2, 3, 14)
        barrier = construction_three(D, BarrierParams())
        gam = barrier.parameters["gamma"]
        prof = simulate(barrier, 2e5, 2e5 + 8 * 2 * math.pi / gam, 30000)
        assert prof.excluded_raw == 0 and prof.verified


class TestFindBarrier:
    def test_pipeline_dispatch(self):
        assert find_barrier(RaceTriple(7, 1, 2, 5)).construction == "I"
        assert find_barrier(RaceTriple(7, 1, 2, 5)).size == 2
        assert find_barrier(RaceTriple(23, 2, 3, 4)).construction == "II"
        assert find_barrier(RaceTriple(19, 2, 3, 14)).construction == "III"
        # a triple containing residue 1 always admits a power family
        assert find_barrier(RaceTriple(29, 1, 16, 24)).construction == "I"

    def test_region_constraints(self):
        params = BarrierParams(sigma1=0.501, tau=3000.0)
        barrier = find_barrier(RaceTriple(7, 1, 2, 5), params)
        for z in barrier.zeros:
            assert z.sigma <= params.sigma1 and z.gamma > params.tau

    def test_barrier_strip_invariant(self):
        for q, triple in [(7, (1, 2, 5)), (23, (2, 3, 4)), (19, (2, 3, 14))]:
            barrier = find_barrier(RaceTriple(q, *triple))
            beta2 = min(z.sigma for z in barrier.zeros)
            assert 0.5 <= barrier.beta1 < beta2
            assert max(z.sigma for z in barrier.zeros) <= 1.0


def test_cold_large_modulus_stays_small():
    """A cold find_barrier at q = 99991, group and character builds included,
    peaks under 40 MiB of traced memory (49.2 MiB with the per-unit builds).
    It runs in a fresh interpreter, so no other test can have warmed q."""
    script = (
        "import tracemalloc\n"
        "from racebarrier.barrier_search import RaceTriple, find_barrier\n"
        "tracemalloc.start()\n"
        "assert find_barrier(RaceTriple(99991, 2, 3, 5)).construction == 'I'\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(Path(rb.__file__).parents[1]), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    peak = int(out.split()[-1])
    assert peak < 40 * 2**20, peak


def test_finite_query_imports_no_gsh_module():
    """A finite find_barrier, run in a fresh interpreter, compiles none of the
    GSH modules."""
    script = (
        "import sys\n"
        "from racebarrier.barrier_search import RaceTriple, find_barrier\n"
        "for t in ((7, 1, 2, 5), (23, 2, 3, 4), (19, 2, 3, 14)):\n"
        "    find_barrier(RaceTriple(*t))\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('racebarrier.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(Path(rb.__file__).parents[1]), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    loaded = out.split()
    assert "racebarrier.barrier_search" in loaded
    assert not {"racebarrier.gsh_phases", "racebarrier.gsh_family"} & set(loaded), loaded


class TestSharedRecords:
    """The searches read characters as the character group's own row objects,
    and the constructions share one ZeroSpec per distinct set of arguments."""

    @staticmethod
    def assert_rows(chars):
        for chi in chars:
            assert chi is character_group(chi.q)[chi.index], chi

    def test_spacing_route_character_and_powers(self):
        for t in ((23, 2, 3, 4), (79, 1, 9, 2), (191, 125, 36, 180), (149, 24, 133, 20)):
            D = RaceTriple(*t)
            spacing = find_spacing_character(D)
            barrier = construction_two(D, spacing, BarrierParams())
            self.assert_rows([spacing.chi, *(z.character for z in barrier.zeros)])
        # the route's character through the validating public entry
        self.assert_rows([character_pair_constraint(13, 3, 4, 3)])

    def test_power_family_members(self):
        for t in ((401, 1, 72, 372), (29, 1, 7, 16)):
            found = find_equal_sum_set(RaceTriple(*t))
            assert found.family == "power"
            chi = found.characters[0]
            assert found.characters == tuple(chi**p for p in range(1, chi.order))
            self.assert_rows(found.characters)

    def test_equal_zero_arguments_share_one_record(self):
        chi = character_group(7)[3]
        z = _zero_spec(chi, 0.501, 1000.0, 1)
        assert z is _zero_spec(chi, 0.501, 1000.0, 1) == ZeroSpec(chi, 0.501, 1000.0, 1)
        assert _zero_spec(chi, 0.501, 1000, 1) is not z  # written as 1000, not 1000.0
        a, b = find_barrier(RaceTriple(7, 1, 2, 5)), find_barrier(RaceTriple(7, 2, 1, 5))
        assert a.zeros == b.zeros and all(x is y for x, y in zip(a.zeros, b.zeros))


class TestSerialization:
    def test_finite_roundtrip(self):
        for q, triple in [(7, (1, 2, 5)), (23, (2, 3, 4)), (19, (2, 3, 14))]:
            barrier = find_barrier(RaceTriple(q, *triple))
            data = barrier_to_dict(barrier)
            import json

            back = barrier_from_dict(json.loads(json.dumps(data)))
            assert back == barrier  # field-by-field (dataclass equality)
            assert [z.character for z in back.zeros] == [z.character for z in barrier.zeros]

    def test_golden_population_round_trips(self):
        """Every barrier of the q <= 30 golden population passes the load-time
        relabeling check and comes back equal."""
        import json

        count = 0
        for q in range(5, 31):
            if q == 6:
                continue
            for triple in itertools.permutations(unit_group_structure(q).units, 3):
                barrier = find_barrier(RaceTriple(q, *triple))
                back = barrier_from_dict(json.loads(json.dumps(barrier_to_dict(barrier))))
                assert back == barrier, (q, triple)
                count += 1
        assert count == 56_664 + 960 + 240

    @pytest.mark.parametrize("field, value", [
        ("relabeled_triple", [1, 2, 6]), ("relabeled_triple", [2, 1, 5]),
        ("permutation", [2, 2, 2]), ("permutation", [1, 0, 2]), ("permutation", [0, 1]),
        ("permutation", [0, 1, 2.0]), ("permutation", ["0", 1, 2]),
    ])
    def test_inconsistent_relabeling_rejected(self, field, value):
        data = barrier_to_dict(find_barrier(RaceTriple(7, 1, 2, 5)))
        assert data["permutation"] == [0, 1, 2] and data["relabeled_triple"] == [1, 2, 5]
        data[field] = value
        with pytest.raises(ValueError, match="permutation"):
            barrier_from_dict(data)

    def test_stable_field_order(self):
        barrier = find_barrier(RaceTriple(7, 1, 2, 5))
        keys = list(barrier_to_dict(barrier))
        assert keys == [
            "kind", "q", "triple", "permutation", "relabeled_triple", "construction",
            "beta1", "zeros", "excluded_ordering", "parameters", "margins",
        ]
