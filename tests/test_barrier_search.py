import cmath
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

import racebarrier as rb
from racebarrier.barrier_search import (
    BarrierParams,
    CaseIDeferral,
    ConstructionError,
    RaceTriple,
    SpacingCharacter,
    ZeroSpec,
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
from racebarrier.characters import DirichletCharacter, nonprincipal_characters
from racebarrier.race_simulator import MainTermConfig, pair_diff_grid, simulate
from racebarrier.residue_group import unit_group_structure


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
        sums = [complex(s) for s in found.sums]
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
            assert prof.robustly_excluded

    def test_zero_heights_are_t_and_2t(self):
        D = RaceTriple(7, 1, 2, 5)
        barrier = construction_one(D, find_equal_sum_set(D), BarrierParams())
        t = barrier.parameters["t"]
        assert sorted({z.gamma for z in barrier.zeros}) == [t, 2 * t]


class TestFindSpacingCharacter:
    def test_p2_route_defers(self):
        # ord(3 / 1) = 4 mod 16: the even prime power collapses to coinciding values
        result = find_spacing_character(RaceTriple(16, 1, 3, 5))
        assert isinstance(result, CaseIDeferral)
        vals = [result.chi.evaluate(a) for a in result.relabeled_triple]
        assert len(set(vals)) == 2  # two coincide

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
    ])
    def test_three_ratio_orders_per_triple(self, monkeypatch, triple, construction):
        """ord(x) = ord(1/x), so the six relabelings share three ratio orders."""
        from racebarrier import barrier_search

        calls = []
        order = barrier_search.multiplicative_order

        def counted(q, b):
            calls.append(b)
            return order(q, b)

        monkeypatch.setattr(barrier_search, "multiplicative_order", counted)
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
        assert multiplicities_for(Fraction(2, 5), Fraction(2, 5)) == (1, 2)
        assert multiplicities_for(Fraction(6, 19), Fraction(9, 19)) == (5, 9)
        assert multiplicities_for(Fraction(12, 37), Fraction(16, 37)) == (3, 5)
        with pytest.raises(ValueError):
            multiplicities_for(Fraction(1, 5), Fraction(2, 5))

    def test_inconsistent_gaps_rejected(self):
        D, sp = _synthetic_spacing(191, 19, 6, 15, 5, 9)
        bad = SpacingCharacter(
            sp.permutation, sp.relabeled_triple, sp.chi,
            Fraction(12, 37), Fraction(16, 37), 3, 5, 37, 1,
        )
        with pytest.raises(ConstructionError):
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
        assert prof.excluded_raw == 0 and prof.robustly_excluded


class TestDistinctEscalation:
    def test_near_tie_resolved_at_high_precision(self):
        import mpmath as mp

        from racebarrier.barrier_search import _distinct

        tie = lambda: mp.mpf("0.3")
        off = lambda: mp.mpf("0.3") + mp.mpf("1e-30")
        assert not _distinct(0.3, 0.3 + 5e-10, tie, tie)
        assert _distinct(0.3, 0.3 + 5e-10, tie, off)

    def test_clear_gap_skips_escalation(self):
        from racebarrier.barrier_search import _distinct

        def boom():
            raise AssertionError("escalation should not run")

        assert _distinct(0.1, 0.5, boom, boom)


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
        """Construction III reads chi^p(a) from the table columns: the old path
        made 540 value and 60 __pow__ calls on this triple."""
        calls = Counter()
        value, power = DirichletCharacter.value, DirichletCharacter.__pow__

        def counted_value(self, a):
            calls["value"] += 1
            return value(self, a)

        def counted_power(self, k):
            calls["pow"] += 1
            return power(self, k)

        monkeypatch.setattr(DirichletCharacter, "value", counted_value)
        monkeypatch.setattr(DirichletCharacter, "__pow__", counted_power)
        construction_three(RaceTriple(43, 2, 3, 14), BarrierParams())
        assert calls["value"] <= 60 and calls["pow"] <= 12, calls

    def test_exclusion_simulated(self):
        D = RaceTriple(19, 2, 3, 14)
        barrier = construction_three(D, BarrierParams())
        gam = barrier.parameters["gamma"]
        prof = simulate(barrier, 2e5, 2e5 + 8 * 2 * math.pi / gam, 30000)
        assert prof.excluded_raw == 0 and prof.robustly_excluded


class TestFindBarrier:
    def test_pipeline_dispatch(self):
        assert find_barrier(RaceTriple(7, 1, 2, 5)).construction == "I"
        assert find_barrier(RaceTriple(7, 1, 2, 5)).size == 2
        assert find_barrier(RaceTriple(23, 2, 3, 4)).construction == "II"
        assert find_barrier(RaceTriple(19, 2, 3, 14)).construction == "III"
        # a triple containing residue 1 always admits a power family
        assert find_barrier(RaceTriple(29, 1, 16, 24)).construction == "I"

    def test_region_constraints(self):
        params = BarrierParams(sigma=0.75, tau=3000.0)
        barrier = find_barrier(RaceTriple(7, 1, 2, 5), params)
        for z in barrier.zeros:
            assert z.sigma <= params.sigma and z.gamma > params.tau

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


class TestSerialization:
    def test_finite_roundtrip(self):
        for q, triple in [(7, (1, 2, 5)), (23, (2, 3, 4)), (19, (2, 3, 14))]:
            barrier = find_barrier(RaceTriple(q, *triple))
            data = barrier_to_dict(barrier)
            import json

            back = barrier_from_dict(json.loads(json.dumps(data)))
            assert back == barrier  # field-by-field (dataclass equality)
            assert [z.character for z in back.zeros] == [z.character for z in barrier.zeros]

    def test_stable_field_order(self):
        barrier = find_barrier(RaceTriple(7, 1, 2, 5))
        keys = list(barrier_to_dict(barrier))
        assert keys == [
            "kind", "q", "triple", "permutation", "relabeled_triple", "construction",
            "beta1", "zeros", "excluded_ordering", "parameters", "margins",
        ]
