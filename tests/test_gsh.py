import dataclasses
import functools
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import racebarrier as rb
from racebarrier import gsh_family
from racebarrier.barrier_search import (
    TWO_PI,
    BarrierParams,
    ConstructionError,
    RaceTriple,
    barrier_from_dict,
    barrier_to_dict,
    construction_gsh,
    find_gsh_characters,
)
from racebarrier.characters import nonprincipal_characters
from racebarrier.gsh_family import (
    Certificate,
    _first_h_offsets,
    _h_lower_bounds,
    _h_max_gap,
    _in_h,
    family_tasks,
    nearest_int_dist,
    run_pooled,
)
from racebarrier.gsh_phases import INV_PI, INV_PI_BITS, family_phases, root_table, rotation
from racebarrier.race_simulator import (
    RaceProfile,
    SimulationError,
    SimulationInputError,
    gsh_simulate,
)

# the four GSH golden triples, then the four gsh benchmark triples of seed 1
GOLDEN_AND_BENCHMARK = [(7, 1, 2, 5), (5, 1, 2, 3), (21, 1, 2, 10), (29, 2, 3, 5),
                        (29, 9, 25, 12), (23, 14, 21, 6), (29, 4, 16, 7), (29, 26, 25, 1)]


@functools.lru_cache(maxsize=None)
def gsh_at_j4(triple):
    return construction_gsh(RaceTriple(*triple), BarrierParams(truncation=10_000))


@pytest.fixture(scope="module")
def gsh7():
    return construction_gsh(RaceTriple(7, 1, 2, 5))


class TestCharacterPair:
    def test_q7_admits_order2_order6_pair(self):
        """Direct scan: the two-character phase condition holds with a
        quadratic character and a generator character."""
        found = []
        for perm in itertools.permutations((1, 2, 5)):
            b1, b2, b3 = perm
            for chi1 in nonprincipal_characters(7):
                if chi1.evaluate(b1) == chi1.evaluate(b2) != chi1.evaluate(b3):
                    for chi2 in nonprincipal_characters(7):
                        if chi2.evaluate(b1) != chi2.evaluate(b2):
                            found.append((chi1.order, chi2.order))
        assert (2, 6) in found

    def test_selection_is_deterministic(self):
        a = find_gsh_characters(RaceTriple(7, 1, 2, 5))
        b = find_gsh_characters(RaceTriple(7, 1, 2, 5))
        assert a == b

    def test_unsatisfiable_raises(self):
        # no character coincides on exactly two of these residues (order-7 ratios)
        with pytest.raises(ConstructionError):
            construction_gsh(RaceTriple(29, 1, 16, 24))


class TestConstruction:
    def test_alpha_in_band(self, gsh7):
        t = gsh7.t
        dist = abs(gsh7.alpha - round(gsh7.alpha))
        assert 1.0 / (10.0 * t) <= dist <= 0.5 - 1.0 / (10.0 * t)

    def test_h_windows(self, gsh7):
        for j, h in enumerate(gsh7.h_values, start=1):
            assert j * j <= h <= j * j + j
        assert all(b < a for b, a in zip(gsh7.h_values, gsh7.h_values[1:]))

    def test_h_membership_flags(self, gsh7):
        for h, flag in zip(gsh7.h_values, gsh7.in_h):
            frac = h * gsh7.alpha + gsh7.beta_phase
            inside = abs(frac - round(frac)) <= 0.2
            assert inside == flag

    def test_gap_property_on_million(self, gsh7):
        assert gsh7.margins["h_max_gap"] <= gsh7.margins["h_gap_bound"]
        assert gsh7.margins["h_gap_bound"] == int(10 * gsh7.t) + 1

    def test_ordinates(self, gsh7):
        for j, (h, g) in enumerate(zip(gsh7.h_values, gsh7.gammas), start=1):
            assert abs(g - 2.0 * gsh7.t * h) <= j ** -10.0
        assert len(set(gsh7.gammas)) == len(gsh7.gammas)

    def test_deltas_inside_strip(self, gsh7):
        width = gsh7.sigma2 - gsh7.beta
        for j, d in enumerate(gsh7.deltas, start=1):
            assert 0.0 < d < width
            assert d <= 8.0 * width / j**3

    def test_ordinate_sum_converges(self, gsh7):
        inv = np.cumsum(1.0 / np.asarray(gsh7.gammas))
        J = gsh7.truncation
        assert abs(inv[-1] - inv[J // 2 - 1]) < 1e-6
        # analytic tail beyond the truncation
        assert 1.0 / (2.0 * gsh7.t * J) < 1e-6

    def test_phase_coefficients_nonzero(self, gsh7):
        assert abs(gsh7.z) > 0 and abs(gsh7.w) > 0
        b1, b2, b3 = gsh7.relabeled_triple
        assert gsh7.chi1.evaluate(b1) == gsh7.chi1.evaluate(b2) != gsh7.chi1.evaluate(b3)
        assert gsh7.chi2.evaluate(b1) != gsh7.chi2.evaluate(b2)


def per_window_h_set(gsh):
    """The H-set search as one numpy call per window [j^2, j^2 + j]."""
    h_values, in_h = [], []
    for j in range(1, gsh.truncation + 1):
        window = np.arange(j * j, j * j + j + 1, dtype=np.int64)
        hits = np.flatnonzero(_in_h(window, gsh.alpha, gsh.beta_phase))
        h_values.append(int(window[hits[0]]) if hits.size else j * j)
        in_h.append(bool(hits.size))
    return tuple(h_values), tuple(in_h)


class TestHSetSearch:
    def test_fast_drift_matches_per_window_search(self, gsh7):
        assert (gsh7.h_values, gsh7.in_h) == per_window_h_set(gsh7)

    def test_slow_drift_matches_per_window_search(self):
        # alpha is 2e-4 from an integer: H comes in runs with gaps of 3143, so
        # windows below j = 3143 can miss and first hits lie deep in a window
        gsh = construction_gsh(RaceTriple(5, 1, 2, 3), BarrierParams(truncation=4000))
        assert (gsh.h_values, gsh.in_h) == per_window_h_set(gsh)
        assert not all(gsh.in_h)
        assert max(h - j * j for j, h in enumerate(gsh.h_values, 1)) > 1000

    def test_peak_memory(self):
        # the window probes and the 10^6-point gap check both scan in blocks
        # of 2^13 elements; one unblocked gap check alone peaked at 32 MiB
        tracemalloc.start()
        try:
            construction_gsh(RaceTriple(5, 1, 2, 3), BarrierParams(truncation=10_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def bounded_first_hits(alpha, beta_phase, truncation):
    """Lower bounds and first-hit offsets of the construction's window search
    for a synthetic phase walk h alpha + beta_phase."""
    js = np.arange(1, truncation + 1, dtype=np.int64)
    lo = _h_lower_bounds(alpha, beta_phase, js)
    return lo, _first_h_offsets(alpha, beta_phase, js, lo)


class TestFirstHitLowerBound:
    """Every window j <= 2000 of synthetic walks against the per-window scan:
    the bound never passes the first float hit, and probing from it finds
    exactly the scan's first hits and misses."""

    @pytest.mark.parametrize("alpha, beta_phase", [
        (0.7731, 0.1),  # eps -0.2269
        (0.9998, -0.37),  # eps -2e-4: slow drift downwards
        (-1.0002, 0.05),  # eps -2e-4 from a negative integer
        (3.0002, 0.25),  # eps 2e-4: slow drift upwards
        (0.43, 0.0),  # |eps| in (0.4, 0.5]
        (-0.4600001, 0.17),
        (0.5, -0.3),  # eps 1/2
        (1.5, 0.3),  # eps -1/2
        (2.0 + 4e-7, 0.2 + 1e-9),  # |eps| < 1e-6, walk starts just outside the band
        (1.0 - 3e-7, -0.2 - 5e-10),
        (-5.0 + 9e-7, 0.2 - 1e-9),  # starts just inside
        (0.25, 0.2 + 1e-9),  # every fourth h sits 1e-9 outside the band edge
        (1.75, -0.2 - 1e-9),
        (0.25, 0.2 - 1e-9),  # ... or 1e-9 inside it
        (-0.75, 0.8 + 1e-9),
    ])
    def test_matches_per_window_search(self, alpha, beta_phase):
        truncation = 2000
        lo, first = bounded_first_hits(alpha, beta_phase, truncation)
        walk = SimpleNamespace(alpha=alpha, beta_phase=beta_phase, truncation=truncation)
        h_values, in_h = per_window_h_set(walk)
        js = np.arange(1, truncation + 1)
        hit = np.array(in_h)
        offsets = np.array(h_values) - js * js
        assert np.all(lo[hit] <= offsets[hit])
        assert not hit[lo > js].any()
        assert (tuple((js * js + np.maximum(first, 0)).tolist()), tuple((first >= 0).tolist())) \
            == (h_values, in_h)

    def test_bound_skips_most_of_a_slow_drift(self):
        # eps = 2e-4: a window's first hit lies up to 3000 offsets in, and the
        # bound puts the probe within one round of width 8 of it
        lo, first = bounded_first_hits(3.0002, 0.25, 2000)
        hit = first >= 0
        assert (first[hit] - lo[hit]).max() < 8
        assert lo[hit].max() > 1000

    def test_tiny_drift_certifies_misses(self):
        # h eps stays below 0.17 for h <= 2000^2 + 2000, so the walk never
        # leaves [0.3, 0.47]: every window is a certified miss, none is probed
        lo, first = bounded_first_hits(2.0 + 4e-8, 0.3, 2000)
        assert np.all(lo > np.arange(1, 2001)) and not (first >= 0).any()


class TestFloatMembership:
    @pytest.mark.parametrize("triple", GOLDEN_AND_BENCHMARK)
    def test_float_flags_match_exact_decision(self, triple):
        """The float in_h flag of every stored h agrees with the exact
        decision on Fraction(alpha) and Fraction(beta_phase) wherever the exact
        distance to the nearest integer lies outside 0.2 +- 1e-6."""
        gsh = gsh_at_j4(triple)
        alpha, beta_phase = Fraction(gsh.alpha), Fraction(gsh.beta_phase)
        band, slack = Fraction(1, 5), Fraction(1, 10**6)
        near_edge = 0
        for h, flag in zip(gsh.h_values, gsh.in_h):
            x = h * alpha + beta_phase
            dist = abs(x - round(x))
            if abs(dist - band) <= slack:
                near_edge += 1
                continue
            assert flag == (dist <= band), (h, float(dist))
        assert near_edge < len(gsh.h_values) // 100


def full_range_max_gap(gsh):
    """Largest gap between consecutive members of H on [0, 10^6], from one
    scan over the whole range with the float membership test."""
    return scan_max_gap(gsh.alpha, gsh.beta_phase, 10**6)


def scan_max_gap(alpha, beta_phase, limit):
    hs = np.arange(limit + 1, dtype=np.int64)
    return int(np.diff(np.flatnonzero(_in_h(hs, alpha, beta_phase))).max())


def exact_max_circular_gap(alpha, n):
    """Largest gap between the n points k alpha mod 1, k < n, on the circle,
    in exact arithmetic."""
    x = Fraction(alpha)
    pts = sorted((k * x) % 1 for k in range(n))
    return max(max(b - a for a, b in zip(pts, pts[1:])), 1 - pts[-1] + pts[0])


class TestGapProof:
    """`_h_max_gap` proves the gap property of H for every h: any N
    consecutive integers hold a member, whatever the offset beta_phase."""

    @pytest.mark.parametrize("triple", GOLDEN_AND_BENCHMARK)
    def test_proof_matches_full_range_scan(self, triple):
        gsh = gsh_at_j4(triple)
        assert gsh.margins["h_max_gap"] == _h_max_gap(gsh.alpha) == full_range_max_gap(gsh)

    @pytest.mark.parametrize("alpha", [
        0.3, 0.7, -0.3, 1.3, 2.0 / 7.0, 0.45, 0.55, 0.41, 0.59, 0.618, -0.618,
        0.01, -0.01, 0.99, 0.5 + 0.004, 0.5 - 0.004, 2.0 + 0.002, -3.0 - 0.002,
        0.25, 1.0 / 3.0, 0.4, 0.2, -0.75,
    ])
    def test_least_n_from_exact_gaps(self, alpha):
        """N points leave no gap above 2/5, N - 1 points leave one: a band of
        width 2/5 placed inside it misses N - 1 consecutive h."""
        n = _h_max_gap(alpha)
        assert exact_max_circular_gap(alpha, n) <= Fraction(2, 5)
        assert n == 1 or exact_max_circular_gap(alpha, n - 1) > Fraction(2, 5)

    @pytest.mark.parametrize("alpha, n", [(0.25, 4), (-0.75, 4), (0.125, 6), (1.0 / 3.0, 3),
                                          (0.5, None), (1.5, None), (0.0, None), (-2.0, None)])
    def test_small_denominators(self, alpha, n):
        # at alpha = p/q the points k alpha sit 1/q apart, so there is no bound
        # for q <= 2; the float 1/3 is a dyadic just below 1/3 whose three
        # points already leave no gap above 2/5
        assert _h_max_gap(alpha) == n

    @pytest.mark.parametrize("seed", range(4))
    def test_never_below_the_scan(self, seed):
        """Random offsets and drifts, slow ones near 0, 1/2 and 1 on both sides:
        the proved N is at least every gap a scan of [0, 2 10^5] finds."""
        rng = np.random.default_rng(seed)
        for center in (0.0, 0.5, 1.0, None):
            for sign in (1.0, -1.0):
                if center is None:
                    alpha = rng.uniform(-2.0, 2.0)
                else:
                    alpha = center + sign * 10.0 ** rng.uniform(-3.5, -1.0)
                alpha += float(rng.integers(-3, 4))
                beta_phase = rng.uniform(-0.5, 0.5)
                n = _h_max_gap(alpha)
                assert n is not None and n >= scan_max_gap(alpha, beta_phase, 200_000), \
                    (alpha, beta_phase)

    @pytest.mark.parametrize("proved", [None, 10**9])
    def test_unbounded_gap_is_a_construction_error(self, proved, monkeypatch):
        monkeypatch.setattr(gsh_family, "_h_max_gap", lambda alpha: proved)
        with pytest.raises(ConstructionError, match="H gaps exceed 10001"):
            construction_gsh(RaceTriple(7, 1, 2, 5), BarrierParams(truncation=100))


class TestSimulation:
    def test_two_regimes(self, gsh7):
        u0 = max(1000.0, gsh7.margins["recommended_u0"])
        prof = gsh_simulate(gsh7, u0, u0 + 5.0, 400)
        assert int(prof.regime2.sum()) > 0
        assert prof.controlled_total > 100
        assert prof.controlled_positive == prof.controlled_total
        assert prof.phase_bound_max <= 0.21
        assert prof.excluded_raw == 0
        assert prof.dominance_violations == 0
        assert isinstance(prof, RaceProfile) and prof.remainder is None
        assert prof.excluded_robust == prof.excluded_raw
        assert prof.verified == (prof.excluded_raw == 0)

    def test_tail_constant(self, gsh7):
        u0 = max(1000.0, gsh7.margins["recommended_u0"])
        prof = gsh_simulate(gsh7, u0, u0 + 5.0, 200, max_lock_points=0)
        us = prof.u
        tails = np.zeros_like(us)
        gam = np.asarray(gsh7.gammas)
        dl = np.asarray(gsh7.deltas)
        for i, u in enumerate(us):
            tails[i] = float((np.exp(-dl * u) / gam**2).sum())
        assert np.all(tails <= prof.tail_constant * us ** -0.75 + 1e-18)

    def test_truncation_guard(self, gsh7):
        # J = 10^4 is below u1^0.4 only for u1 > 10^10
        with pytest.raises(SimulationInputError, match="truncation"):
            gsh_simulate(gsh7, 1e10, 2e10, 100)

    @pytest.mark.parametrize("u0, u1", [(math.nan, 2e3), (1e3, math.nan), (1e3, math.inf)])
    def test_non_finite_window(self, gsh7, u0, u1):
        with pytest.raises(SimulationInputError, match="not finite"):
            gsh_simulate(gsh7, u0, u1, 10)

    def test_floor_guard(self, gsh7):
        with pytest.raises(SimulationInputError, match="floor"):
            gsh_simulate(gsh7, 12.0, 14.0, 100)

    def test_failed_certificate_is_not_an_input_error(self, gsh7):
        """Far beyond its window the float regime split and certificate mark
        samples controlled whose exactly evaluated first term is not
        positive (612 of 1200 here; 634 while d1 came from float phases): a
        verification failure, reported as SimulationError proper."""
        with pytest.raises(SimulationError, match="failed on 612 of 1200 controlled") as info:
            gsh_simulate(gsh7, 1e9, 2e9, 100)
        assert not isinstance(info.value, SimulationInputError)

    def test_negative_lock_point_count(self, gsh7):
        """numpy's linspace raised a bare ValueError for it."""
        with pytest.raises(SimulationInputError, match="max_lock_points"):
            gsh_simulate(gsh7, 1000.0, 1001.0, 10, max_lock_points=-1)


def serial_family_sums(gsh, us):
    """The first-term kernel as one pass over all samples per 512-term chunk:
    the exact turns and their rotation for d1, and the damping tail in its
    original expression."""
    gam = np.asarray(gsh.gammas)
    del_ = np.asarray(gsh.deltas)
    wj = complex(gsh.w) / ((gsh.sigma2 - del_) + 1j * gam)
    phases = family_phases(gsh.t, gsh.h_values, gam, us)
    d1 = np.zeros_like(us)
    tails = np.zeros_like(us)
    for s in range(0, len(gam), 512):
        sl = slice(s, min(s + 512, len(gam)))
        damp = np.exp(-np.outer(us, del_[sl]))
        cos, sin = rotation(phases.turns(slice(0, len(us)), sl))
        d1 += 2.0 * ((cos * wj[sl].real - sin * wj[sl].imag) * damp).sum(axis=1)
        tails += (damp / (gam[sl] ** 2)).sum(axis=1)
    return d1, tails


def family_sums(gsh, us, with_certificate_sums=False):
    gam = np.asarray(gsh.gammas)
    del_ = np.asarray(gsh.deltas)
    wj = complex(gsh.w) / ((gsh.sigma2 - del_) + 1j * gam)
    weights = Certificate(gsh, gam, del_).weights
    d1, tails, sums, tasks = family_tasks(us, family_phases(gsh.t, gsh.h_values, gam, us),
                                          gam, del_, wj, weights)
    run_pooled(tasks)
    if with_certificate_sums:
        return d1, tails, sums
    return d1, tails


@pytest.fixture(scope="module")
def gsh5():
    # alpha 2e-4 from an integer: recommended u0 6.25e6
    return construction_gsh(RaceTriple(5, 1, 2, 3))


class TestPhaseKernel:
    """The row-blocked, threaded kernel reproduces the serial one bit for bit,
    and its damping tail keeps the bytes of the float-phase kernel."""

    @pytest.mark.parametrize("which, lock_points", [("gsh7", False), ("gsh5", True)])
    def test_bit_identical_to_serial_loop(self, request, which, lock_points):
        gsh = request.getfixturevalue(which)
        u0 = max(1000.0, gsh.margins["recommended_u0"])
        assert u0 == {"gsh7": 1000.0, "gsh5": 6249999.999999994}[which]
        # 203 samples: not a multiple of the row block
        prof = gsh_simulate(gsh, u0, u0 + 10.0, 203, max_lock_points=200 if lock_points else 0)
        assert len(prof.u) == (403 if lock_points else 203)
        d1, tails = serial_family_sums(gsh, prof.u)
        assert prof.d1.tobytes() == d1.tobytes()
        got_d1, got_tails = family_sums(gsh, prof.u)
        assert got_d1.tobytes() == d1.tobytes()
        assert got_tails.tobytes() == tails.tobytes()
        assert prof.tail_constant == float((tails * prof.u ** 0.75).max())

    @pytest.mark.parametrize("n", [1, 2, 17])
    def test_short_grids(self, gsh7, n):
        us = np.linspace(1000.0, 1001.0, n)
        assert [a.tobytes() for a in family_sums(gsh7, us)] == \
            [a.tobytes() for a in serial_family_sums(gsh7, us)]

    def test_worker_count_does_not_change_output(self, gsh7, monkeypatch):
        # 4 workers on fewer cores, switching threads as often as possible:
        # a lost update to a shared row would change the bytes
        us = np.linspace(1000.0, 1010.0, 203)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        outputs = []
        try:
            sys.setswitchinterval(1e-6)
            for cpus in (1, 4):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                                    raising=False)
                outputs.append([a.tobytes() for a in family_sums(gsh7, us)])
                prof = gsh_simulate(gsh7, 1000.0, 1010.0, 203, max_lock_points=200)
                outputs[-1] += [prof.u.tobytes(), prof.d1.tobytes(), prof.d2.tobytes()]
                assert threading.active_count() == before
        finally:
            sys.setswitchinterval(interval)
        assert outputs[0] == outputs[1]
        assert outputs[0][:2] == [a.tobytes() for a in serial_family_sums(gsh7, us)]

    @pytest.mark.parametrize("rows", [1, 7, 30, 64, 500])
    def test_tile_geometry_is_not_an_input(self, gsh7, monkeypatch, rows):
        """Neither the tile's row count nor the worker count moves a byte of
        d1, the tails or the profile (101 samples, and 151 with the lock
        points: a multiple of none of the row counts, and fewer than 500)."""
        us = np.linspace(1000.0, 1010.0, 101)
        expected = [a.tobytes() for a in serial_family_sums(gsh7, us)]
        reference = profile_bytes(gsh_simulate(gsh7, 1000.0, 1010.0, 101, max_lock_points=50))
        monkeypatch.setattr(gsh_family, "_ROWS", rows)
        for cpus in (1, 2, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                                raising=False)
            assert [a.tobytes() for a in family_sums(gsh7, us)] == expected
            prof = gsh_simulate(gsh7, 1000.0, 1010.0, 101, max_lock_points=50)
            assert profile_bytes(prof) == reference


def serial_certificate(gsh, us, d1):
    """The regime-2 positivity certificate as one loop over the samples on
    the calling thread: controlled flags, their total and positive counts,
    and the largest phase distance of the locked terms."""
    t = gsh.t
    gam = np.asarray(gsh.gammas)
    del_ = np.asarray(gsh.deltas)
    w = complex(gsh.w)
    sigma2 = gsh.sigma2
    dist = nearest_int_dist(t * us / math.pi - gsh.alpha)
    regime2 = dist <= us ** -0.9
    controlled = np.zeros_like(regime2)
    phase_bound_max = 0.0
    ctrl_pos = 0
    ctrl_tot = 0
    h_arr = np.asarray(gsh.h_values, dtype=float)
    in_h_arr = np.asarray(gsh.in_h, dtype=bool)
    xi_arr = np.asarray(gsh.gammas) - 2.0 * t * h_arr
    abs_w = abs(w)
    for i in np.flatnonzero(regime2):
        u = us[i]
        mag = abs_w * np.exp(-del_ * u) / gam
        rho_corr = mag * (sigma2 / gam)
        budget = 0.2 + h_arr * dist[i] + xi_arr * u / TWO_PI
        certified = in_h_arr & (budget < 0.24)
        lower = (mag[certified] * np.cos(TWO_PI * budget[certified])).sum()
        lower -= mag[~certified].sum() + rho_corr.sum()
        if lower <= 0.0:
            continue
        controlled[i] = True
        ctrl_tot += 1
        j_lo = max(2, math.ceil(u ** 0.25))
        j_hi = min(len(gam), math.floor(u ** 0.4))
        if j_hi >= j_lo:
            js = np.arange(j_lo - 1, j_hi)
            bj = w * np.exp((-del_[js] + 1j * gam[js]) * u) / (1j * gam[js])
            pb = nearest_int_dist(np.angle(bj) / TWO_PI)
            phase_bound_max = max(phase_bound_max, float(pb.max()))
        if d1[i] > 0:
            ctrl_pos += 1
    return controlled, ctrl_tot, ctrl_pos, phase_bound_max


def float_phase_d1(gsh, us):
    """d1 as the kernel formed it before exact phases: e^(i gamma_j u) from
    one complex exp of the float64 product gamma_j u."""
    gam = np.asarray(gsh.gammas)
    del_ = np.asarray(gsh.deltas)
    wj = complex(gsh.w) / ((gsh.sigma2 - del_) + 1j * gam)
    d1 = np.zeros_like(us)
    for s in range(0, len(gam), 512):
        sl = slice(s, min(s + 512, len(gam)))
        damp = np.exp(-np.outer(us, del_[sl]))
        rot = np.exp(1j * np.outer(us, gam[sl]))
        d1 += 2.0 * (damp * (rot.real * wj[sl].real - rot.imag * wj[sl].imag)).sum(axis=1)
    return d1


def turn_distance(got: int, exact: Fraction) -> Fraction:
    """Distance mod 1 between a 64-bit turn and an exact fraction of a turn,
    in units of 2^-64."""
    diff = (Fraction(got, 2**64) - exact) % 1
    return min(diff, 1 - diff) * 2**64


# 1 / 2 pi to 400 bits, for exact reference turns
with mpmath.workprec(480):
    INV_TWO_PI = Fraction(int(mpmath.floor(mpmath.mpf(2) ** 400 / (2 * mpmath.pi))), 2**400)


class TestExactPhases:
    """The family's phases gamma_j u / 2 pi are reduced exactly in integer
    fixed point, and their cos and sin are within 4 2^-53 of the exact
    values of fl(gamma_j) fl(u)."""

    def test_inverse_pi_constant(self):
        with mpmath.workprec(400):
            assert INV_PI == int(mpmath.floor(mpmath.mpf(2) ** INV_PI_BITS / mpmath.pi))
        assert INV_PI.bit_length() >= 256

    def test_root_table_correctly_rounded(self):
        root_cos, root_sin = root_table()
        with mpmath.workdps(40):
            for k in range(4096):
                angle = 2 * mpmath.pi * (k + mpmath.mpf(1) / 2) / 4096
                assert (root_cos[k], root_sin[k]) == (float(mpmath.cos(angle)),
                                                      float(mpmath.sin(angle))), k

    @settings(max_examples=300, deadline=None)
    @given(h=st.integers(0, 2**32 - 1), u=st.floats(10.0, 1e10), k=st.integers(0, 12),
           xi=st.one_of(st.just(0.0), st.floats(-0.414, 0.414)))
    def test_turns_match_fractions(self, h, u, k, xi):
        """frac(gamma u / 2 pi) with gamma = fl(2t h + xi), t = 1000 2^k,
        within 3 units of 2^-64 of the Fraction value (the bound asked of the
        helper, 2 units of 2^-60, is 32 of these)."""
        t = 1000.0 * 2.0**k
        gamma = 2.0 * t * h + xi
        phases = family_phases(t, (h,), np.array([gamma]), np.array([u]))
        got = int(phases.turns(slice(0, 1), slice(0, 1))[0, 0])
        exact = Fraction(gamma) * Fraction(u) * INV_TWO_PI % 1
        assert turn_distance(got, exact) <= 3

    def test_rotation_of_random_turns(self):
        turns = np.random.default_rng(7).integers(0, 2**64, size=3000, dtype=np.uint64)
        cos, sin = rotation(turns.copy())
        with mpmath.workdps(40):
            for x, c, s in zip(turns.tolist(), cos, sin):
                exact_c, exact_s = mpmath.cos_sin(2 * mpmath.pi * mpmath.mpf(x) / 2**64)
                assert abs(c - exact_c) <= 4 * 2**-53 and abs(s - exact_s) <= 4 * 2**-53

    @pytest.mark.parametrize("u0", [1000.0, 6.25e6, 1.5e9])
    def test_terms_and_d1_against_oracle(self, gsh7, u0):
        """7 1 2 5 at J = 10^4: every term's cos and sin against 90 digits, and
        d1 closer to the oracle than the float-phase d1.  The oracle sums
        2 damp_j (Re w_j cos - Im w_j sin) over the exact cos and sin of
        fl(gamma_j) fl(u), with the same float damp_j and w_j.  The samples
        sit off u0 itself: at u0 = 1000 or 6.25e6, gamma_j u0 is an exact
        float product for every j >= 12, where gamma_j = 2000 h_j."""
        gam = np.asarray(gsh7.gammas)
        del_ = np.asarray(gsh7.deltas)
        wj = complex(gsh7.w) / ((gsh7.sigma2 - del_) + 1j * gam)
        us = np.array([u0 + 0.37, u0 + 0.71])
        phases = family_phases(gsh7.t, gsh7.h_values, gam, us)
        cos, sin = rotation(phases.turns(slice(0, 2), slice(0, len(gam))))
        new_d1 = family_sums(gsh7, us)[0]
        old_d1 = float_phase_d1(gsh7, us)
        with mpmath.workdps(90):
            for i, u in enumerate(us.tolist()):
                damp = np.exp(-u * del_)
                oracle = mpmath.mpf(0)
                scale = 0.0
                for j, g in enumerate(gam.tolist()):
                    exact_c, exact_s = mpmath.cos_sin(mpmath.mpf(g) * mpmath.mpf(u))
                    assert abs(cos[i, j] - exact_c) <= 4 * 2**-53, (u, j)
                    assert abs(sin[i, j] - exact_s) <= 4 * 2**-53, (u, j)
                    oracle += damp[j] * (wj[j].real * exact_c - wj[j].imag * exact_s)
                    scale += damp[j] * abs(wj[j])
                oracle *= 2
                new_err = abs(new_d1[i] - oracle)
                assert new_err < abs(old_d1[i] - oracle), u
                assert new_err <= 2**-45 * scale, u

    def test_runtime_imports_no_mpmath(self, tmp_path):
        """GSH and construction III, in the library and through the CLI, run
        where importing mpmath fails."""
        probe = ("import sys\n"
                 "sys.modules['mpmath'] = None  # any import of it raises ImportError\n"
                 "import racebarrier as rb\n"
                 "from racebarrier.cli import main\n"
                 "g = rb.construction_gsh(rb.RaceTriple(7, 1, 2, 5),\n"
                 "                        rb.BarrierParams(truncation=2000))\n"
                 "rb.gsh_simulate(g, 1000.0, 1001.0, 50)\n"
                 "print(rb.find_barrier(rb.RaceTriple(19, 2, 3, 14)).construction)\n"
                 f"print(main(['barrier', '19', '2', '3', '14', '--out', {str(tmp_path / 'b.json')!r}]))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
            str(Path(rb.__file__).parents[1]), os.environ.get("PYTHONPATH")))))
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=300).stdout
        lines = out.splitlines()
        assert (lines[0], lines[-1]) == ("III", "0")
        assert json.loads((tmp_path / "b.json").read_text())["construction"] == "III"


class TestExactRange:
    """A barrier built in code never passes the load-time check, so
    gsh_simulate rejects one outside the phase kernel's exact range."""

    def _edited(self, gsh, **changes):
        return dataclasses.replace(gsh, **changes)

    def test_h_beyond_range(self, gsh7):
        h = list(gsh7.h_values)
        h[-1] = 2**32
        with pytest.raises(SimulationInputError, match="exact range"):
            gsh_simulate(self._edited(gsh7, h_values=tuple(h)), 1000.0, 1001.0, 20)

    def test_gamma_off_its_lattice_point(self, gsh7):
        gammas = list(gsh7.gammas)
        gammas[5] *= 3.0  # gamma_6 - 2t h_6 is then no exact difference
        with pytest.raises(SimulationInputError, match="lattice"):
            gsh_simulate(self._edited(gsh7, gammas=tuple(gammas)), 1000.0, 1001.0, 20)

    def test_inexact_lattice_product(self, gsh7):
        with pytest.raises(SimulationInputError, match="not exact in float64"):
            gsh_simulate(self._edited(gsh7, t=1000.0 + 2**-40), 1000.0, 1001.0, 20)

    def test_t_u_beyond_range(self, gsh7):
        t = 2.0**195
        gammas = tuple(2.0 * t * h for h in gsh7.h_values)
        with pytest.raises(SimulationInputError, match="range"):
            gsh_simulate(self._edited(gsh7, t=t, gammas=gammas), 1000.0, 1001.0, 20,
                         max_lock_points=0)


def spy_on_certificate(monkeypatch):
    """Record the samples, rows and flags of every Certificate.controlled
    call, and count the samples that reach the term-by-term expression."""
    calls, fallbacks = [], []
    controlled, lower = Certificate.controlled, Certificate.lower

    def spy_controlled(self, us, dist, rows, sums):
        flags = controlled(self, us, dist, rows, sums)
        calls.append((us, rows, flags))
        return flags

    def spy_lower(self, u, dist):
        fallbacks.append(u)
        return lower(self, u, dist)

    monkeypatch.setattr(Certificate, "controlled", spy_controlled)
    monkeypatch.setattr(Certificate, "lower", spy_lower)
    return calls, fallbacks


def profile_bytes(prof):
    """Every GshProfile field, arrays as bytes and the rest as repr."""
    return [getattr(prof, f.name).tobytes() if isinstance(getattr(prof, f.name), np.ndarray)
            else repr(getattr(prof, f.name)) for f in dataclasses.fields(prof)]


def shuffled(gsh, seed=0):
    """The barrier with its per-term sequences in one random order, which
    only a barrier built in code can have: a loaded file's h_values ascend."""
    order = np.random.default_rng(seed).permutation(gsh.truncation).tolist()
    return dataclasses.replace(gsh, **{name: tuple(getattr(gsh, name)[j] for j in order)
                                       for name in ("h_values", "in_h", "gammas", "deltas")})


class TestCertificateFilter:
    """The certificate decides each regime-2 sample from an interval of
    three tile sums and falls back to its per-term expression only near 0;
    flags, counts and phase bound equal the serial loop's at any worker
    count, and with the interval switched off the profile keeps its bytes."""

    @pytest.mark.parametrize("which, u0, certified", [
        ("gsh7", 1000.0, 200), ("gsh5", 1000.0, 200), ("gsh5", None, 0),
        ("gsh7", 6.25e6, 106), ("gsh7", 984150.0, 200), ("gsh25", None, 0),
        ("gsh7_shuffled", 1000.0, 200), ("gsh7_shuffled", 984150.0, 200)])
    def test_matches_serial_loop(self, request, monkeypatch, which, u0, certified):
        """Above u0 = 1000 some regime-2 samples certify only the locked
        terms of small h: 94 of 200 for gsh7 and 104 of 200 for gsh5 at
        6.25e6, and 46 controlled ones at 984150 (gsh25's recommended u0)."""
        if which == "gsh25":
            gsh = gsh_at_j4((25, 11, 8, 24))
        elif which == "gsh7_shuffled":
            gsh = shuffled(request.getfixturevalue("gsh7"))
        else:
            gsh = request.getfixturevalue(which)
        u0 = u0 or gsh.margins["recommended_u0"]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for cpus in (1, 4):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)),
                                    raising=False)
                prof = gsh_simulate(gsh, u0, u0 + 10.0, 200, max_lock_points=200)
                controlled, total, positive, bound = serial_certificate(gsh, prof.u, prof.d1)
                assert prof.controlled.tobytes() == controlled.tobytes()
                assert (prof.controlled_total, prof.controlled_positive) == (total, positive)
                assert repr(prof.phase_bound_max) == repr(bound)
                assert type(prof.controlled_total) is int and type(prof.phase_bound_max) is float
        finally:
            sys.setswitchinterval(interval)
        assert total == certified

    def test_failing_window_matches_serial_loop(self, gsh7, monkeypatch):
        """Far beyond its window the certificate still makes the serial
        loop's decisions, so the failure keeps its count."""
        calls, _ = spy_on_certificate(monkeypatch)
        with pytest.raises(SimulationError, match="positivity failed on 612 of 1200 "):
            gsh_simulate(gsh7, 1e9, 2e9, 100)
        [(us, rows, flags)] = calls
        controlled = serial_certificate(gsh7, us, np.zeros_like(us))[0]
        assert flags.tobytes() == controlled[rows].tobytes()
        assert flags.sum() == 1200

    @pytest.mark.parametrize("which, u0", [("gsh7", 1000.0), ("gsh5", None), ("gsh7", 6.25e6)])
    def test_exact_fallback_keeps_every_byte(self, request, monkeypatch, which, u0):
        """With an infinite margin no sample is decided by the interval: each
        runs the per-term expression, and the profile is byte-identical."""
        gsh = request.getfixturevalue(which)
        u0 = u0 or gsh.margins["recommended_u0"]
        calls, fallbacks = spy_on_certificate(monkeypatch)
        filtered = gsh_simulate(gsh, u0, u0 + 10.0, 200, max_lock_points=200)
        assert not fallbacks
        monkeypatch.setattr(gsh_family, "_MARGIN", math.inf)
        exact = gsh_simulate(gsh, u0, u0 + 10.0, 200, max_lock_points=200)
        assert len(fallbacks) == int(exact.regime2.sum()) > 0
        assert profile_bytes(exact) == profile_bytes(filtered)

    def test_sign_change_inside_the_budget(self, monkeypatch):
        """A four-term family whose lower bound changes sign while its terms
        are still certified, one of them with xi' != 0: the interval decides
        away from 0, the per-term expression near it, and every flag is that
        expression's."""
        t = 1000.0
        h = np.array([1, 4, 9, 16])
        gam = 2.0 * t * h
        gam[3] += 1e-3
        del_ = np.array([1e-3, 2e-3, 3e-3, 4e-3])
        gsh = SimpleNamespace(h_values=tuple(h.tolist()), in_h=(True,) * 4, t=t, w=1 + 1j,
                              sigma2=0.2 * gam[0])
        certificate = Certificate(gsh, gam, del_)
        dist = np.linspace(0.0, 0.045, 901)
        us = np.full_like(dist, 10.0)
        expected = [not certificate.lower(u, d) <= 0.0 for u, d in zip(us, dist)]
        _, fallbacks = spy_on_certificate(monkeypatch)
        sums = np.exp(-np.outer(us, del_)) @ np.concatenate(certificate.weights)
        flags = certificate.controlled(us, dist, np.arange(len(us)), sums)
        assert flags.tolist() == expected
        assert 0 < sum(expected) < len(expected) and 0 < len(fallbacks) < len(expected) / 2

    def test_tile_sums_are_the_damping_rows_times_the_weights(self, gsh5):
        us = np.linspace(6.25e6, 6.25e6 + 10.0, 47)
        gam = np.asarray(gsh5.gammas)
        del_ = np.asarray(gsh5.deltas)
        sums = family_sums(gsh5, us, with_certificate_sums=True)[2]
        weights = np.concatenate(Certificate(gsh5, gam, del_).weights)
        expected = np.exp(-np.outer(us, del_)) @ weights
        np.testing.assert_allclose(sums, expected, rtol=1e-12, atol=0.0)


FAULT_PROBE = """
import json, resource
import racebarrier as rb

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

before = faults()
gsh = rb.construction_gsh(rb.RaceTriple(5, 1, 2, 3), rb.BarrierParams(truncation=10_000))
build = faults() - before
rb.gsh_simulate(gsh, 1000.0, 1010.0, 200, max_lock_points=200)
before = faults()
rb.gsh_simulate(gsh, 1000.0, 1010.0, 200, max_lock_points=200)
print(json.dumps({"build": build, "warm_simulate": faults() - before}))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts glibc page faults")
def test_cache_sized_tiles_do_not_fault():
    """Neither the first construction in a process (about 94k minor faults
    with 512 KiB scan blocks and 8 MB gap-check arrays) nor a warm
    simulation maps fresh pages per block.  The construction's temporaries
    are under glibc's initial 128 KiB mmap threshold, so they come from the
    heap.  The family sum's 256 KiB tile arrays are above it, but each
    thread allocates its five once per call, and freeing the first call's
    mmapped ones raises glibc's threshold past them, so a warm call takes
    them from the heap too (40 to 300 faults per warm call; at
    100-sample tiles, about 1,050)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(Path(rb.__file__).parents[1]), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    counts = json.loads(out)
    assert counts["build"] < 5000 and counts["warm_simulate"] < 5000, counts


class TestGshSerialization:
    def test_roundtrip(self, gsh7):
        data = json.loads(json.dumps(barrier_to_dict(gsh7)))
        back = barrier_from_dict(data)
        assert back == gsh7

    @pytest.mark.parametrize("field, value", [("relabeled_triple", [5, 2, 1]),
                                              ("permutation", [2, 2, 2])])
    def test_inconsistent_relabeling_rejected(self, gsh7, field, value):
        data = barrier_to_dict(gsh7)
        assert data[field] != value
        data[field] = value
        with pytest.raises(ValueError, match="permutation"):
            barrier_from_dict(data)

    def test_character_payload(self, gsh7):
        """The file holds the construction's choices and nothing derived."""
        data = barrier_to_dict(gsh7)
        assert data["kind"] == "gsh"
        assert data["chi1"] == list(gsh7.chi1.exponents)
        assert data["chi2"] == list(gsh7.chi2.exponents)
        assert data["h_values"] == list(gsh7.h_values)
        assert len(data) == 14 and not {"gammas", "in_h", "z", "alpha"} & set(data)
