import cmath
import dataclasses
import functools
import itertools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import racebarrier as rb
from racebarrier import race_simulator
from racebarrier.characters import (
    DirichletCharacter,
    character_group,
    nonprincipal_characters,
    principal_character,
)
from racebarrier.race_simulator import (
    MainTermConfig,
    SimulationError,
    SimulationInputError,
    classify_orderings,
    envelope3_max,
    envelope_min,
    gsh_simulate,
    pair_diff_grid,
    pair_diff_grids,
    remainder_sup,
    simulate,
    v_lambda,
    write_profile,
)
from racebarrier.residue_group import unit_group_structure


class Z:
    """Bare zero record (duck-typed like ZeroSpec)."""

    def __init__(self, character, sigma, gamma, multiplicity=1):
        self.character = character
        self.sigma = sigma
        self.gamma = gamma
        self.multiplicity = multiplicity


def small_config(q=5, sigma=0.75, gammas=(100.0, 173.2), mults=(1, 2)):
    chars = nonprincipal_characters(q)
    zeros = [Z(chars[i], sigma, g, m) for i, (g, m) in enumerate(zip(gammas, mults))]
    return MainTermConfig.from_zeros(q, zeros)


def pair_diff_at(cfg, a, b, u):
    """`pair_diff_grid` on the one-element grid [u]."""
    return float(pair_diff_grid(cfg, a, b, np.asarray([u], dtype=float))[0])


class TestMainTerm:
    def test_equal_residues_zero(self):
        cfg = small_config()
        assert pair_diff_at(cfg, 2, 2, 60.0) == 0.0

    def test_empty_config_zero(self):
        cfg = MainTermConfig.from_zeros(5, [])
        assert pair_diff_at(cfg, 2, 3, 60.0) == 0.0

    def test_antisymmetry_exact(self):
        cfg = small_config()
        for u in (50.0, 61.3, 77.7):
            assert pair_diff_at(cfg, 2, 3, u) == -pair_diff_at(cfg, 3, 2, u)

    @given(st.floats(min_value=50.0, max_value=200.0))
    @settings(max_examples=50, deadline=None)
    def test_cocycle(self, u):
        cfg = small_config()
        d12 = pair_diff_at(cfg, 1, 2, u)
        d23 = pair_diff_at(cfg, 2, 3, u)
        d13 = pair_diff_at(cfg, 1, 3, u)
        assert abs(d12 + d23 - d13) < 1e-12

    def test_single_zero_sinusoid_shape(self):
        """One simple zero: amplitude (4/gamma) sin(pi d) and phase -(r_a+r_b)pi,
        up to the 1/gamma^2 curvature of 1/rho."""
        q, gamma = 5, 10_000.0
        chi = DirichletCharacter(5, (1,))
        cfg = MainTermConfig.from_zeros(q, [Z(chi, 0.75, gamma)])
        r3, r2 = chi.evaluate(3), chi.evaluate(2)
        d = float(r3 - r2)
        for u in np.linspace(50, 51, 7):
            got = pair_diff_at(cfg, 3, 2, u)
            want = (4.0 / gamma) * math.sin(math.pi * d) * math.cos(
                gamma * u - float(r2 + r3) * math.pi
            )
            assert abs(got - want) < 20.0 / gamma**2

    def test_brute_force_oracle(self):
        """Direct summation with x = e^u and complex powers, no normalization."""
        cfg = small_config(gammas=(40.0, 97.3), mults=(2, 3))
        for (a, b) in ((1, 2), (2, 4), (3, 1)):
            for u in (50.0, 80.0, 110.0):
                x = math.exp(u)
                total = 0j
                for chi, rho, mult in cfg.zeros:
                    coeff = chi.value(a).conjugate() - chi.value(b).conjugate()
                    total += coeff * mult * x**rho / (rho * math.log(x))
                direct = -2.0 * total.real
                normalized = direct * u / math.exp(cfg.sigma_max * u)
                got = pair_diff_at(cfg, a, b, u)
                assert got == pytest.approx(normalized, rel=1e-10, abs=1e-300)

    def test_conjugate_pairing_reality(self):
        """Doubling the real part equals summing the conjugate zero family; the
        residual imaginary part vanishes."""
        cfg = small_config()
        a, b, u = 2, 3, 73.0
        total = 0j
        for chi, rho, mult in cfg.zeros:
            for ch, rr in ((chi, rho), (chi.conjugate(), rho.conjugate())):
                coeff = ch.value(a).conjugate() - ch.value(b).conjugate()
                total += -coeff * mult * cmath.exp((rr - cfg.sigma_max) * u) / rr
        assert abs(total.imag) < 1e-12
        assert total.real == pytest.approx(pair_diff_at(cfg, a, b, u), rel=1e-12)

    def test_period_consistency(self):
        cfg = MainTermConfig.from_zeros(5, [Z(DirichletCharacter(5, (1,)), 0.75, 100.0)])
        period = 2 * math.pi / 100.0
        us = np.linspace(50.0, 50.0 + period, 1000)
        v1 = pair_diff_grid(cfg, 2, 3, us)
        v2 = pair_diff_grid(cfg, 2, 3, us + period)
        assert np.abs(v1 - v2).max() < 1e-10


class TestRemainderBound:
    def test_zero_for_equal_pair(self):
        cfg = small_config()
        assert remainder_sup(cfg, 2, 2, 60.0, 60.0, cfg.coefficients(((2, 2),))[0]) == 0.0

    def test_dominates_true_integral_tail(self):
        """The dropped term per zero is (1/rho) int_2^x t^(rho-1)/ln^2 t dt;
        high-precision quadrature stays below the reported bound."""
        import mpmath as mp

        cfg = small_config(gammas=(40.0,), mults=(1,))
        chi, rho, _ = cfg.zeros[0]
        for u in (50.0, 90.0):
            with mp.workdps(30):
                rr = mp.mpc(rho.real, rho.imag)
                integral = mp.quad(
                    lambda t: mp.power(t, rr - 1) / mp.log(t) ** 2, [2, mp.exp(u)]
                )
                dropped = abs(integral / rr)
            for (a, b) in ((1, 2), (2, 3)):
                coeff = abs(chi.value(a).conjugate() - chi.value(b).conjugate())
                true_norm = 2.0 * coeff * float(dropped) * u / math.exp(cfg.sigma_max * u)
                bound = remainder_sup(cfg, a, b, u, u, cfg.coefficients(((a, b),))[0])
                assert true_norm < bound


class TestEnvelope:
    def test_v_lambda_endpoints(self):
        assert v_lambda(1.0 - 1e-15) == pytest.approx(math.pi / 3, abs=1e-7)
        lam = 1e-8
        assert abs(v_lambda(lam) - (math.pi / 2 - lam)) < 1e-12

    def test_v_lambda_domain(self):
        with pytest.raises(ValueError):
            v_lambda(0.0)
        with pytest.raises(ValueError):
            v_lambda(1.0)
        with pytest.raises(ValueError):
            v_lambda(1.5)

    def test_h_sign_structure(self):
        for lam in (0.1, 0.5, 0.9):
            v = v_lambda(lam)
            for y in np.linspace(0.0, v - 1e-6, 50):
                assert math.cos(y) + lam * math.cos(2.0 * y) > 0
            for y in np.linspace(v + 1e-6, math.pi, 50):
                assert math.cos(y) + lam * math.cos(2.0 * y) < 0

    def test_z_below_pi_d_in_window_case(self):
        # both gaps above 1/3: each crossing sits below pi d
        for d in (0.35, 0.40):
            lam = 2.0 * math.cos(math.pi * d)
            assert v_lambda(lam) < math.pi * d

    def test_envelope_min_is_upper_bound(self):
        from fractions import Fraction

        delta, y_at = envelope_min(Fraction(2, 5), Fraction(2, 5), 1, 2)
        assert delta > 0
        shift = math.pi * (0.8)
        ys = np.linspace(0, 2 * math.pi, 20001)
        g1 = math.sin(math.pi * 0.4) * np.cos(ys) + math.sin(2 * math.pi * 0.4) * np.cos(2 * ys)
        g2 = math.sin(math.pi * 0.4) * np.cos(ys - shift) + math.sin(2 * math.pi * 0.4) * np.cos(
            2 * (ys - shift)
        )
        assert np.minimum(g1, g2).max() <= -delta + 1e-9

    def test_envelope3(self):
        m, u_at, us, vals = envelope3_max(10**6)
        assert abs(m + 1.0) < 1e-9
        # attained at pi/2 as well: the grid point nearest pi/2 is within 1e-9
        i = int(np.argmin(np.abs(us - math.pi / 2)))
        assert abs(vals[i] + 1.0) < 1e-9


@pytest.fixture(scope="module")
def barrier7():
    return rb.find_barrier(rb.RaceTriple(7, 1, 2, 5))


class _EmptyBarrier:
    def __init__(self, src):
        self.q = src.q
        self.beta1 = src.beta1
        self.zeros = ()
        self.relabeled_triple = src.relabeled_triple
        self.excluded_ordering = src.excluded_ordering


class TestSimulate:
    def test_rejects_empty(self, barrier7):
        with pytest.raises(SimulationInputError):
            simulate(_EmptyBarrier(barrier7), 50.0, 51.0, 100)

    def test_u0_floor(self, barrier7):
        with pytest.raises(SimulationInputError):
            simulate(barrier7, 5.0, 6.0, 10)

    def test_histogram_totals(self, barrier7):
        t = barrier7.parameters["t"]
        prof = simulate(barrier7, 2e5, 2e5 + 2 * math.pi / t, 5000)
        assert sum(prof.ordering_histogram.values()) + prof.ties == len(prof.u) == 5000

    def test_excluded_ordering_never_strictly_observed(self, barrier7):
        t = barrier7.parameters["t"]
        prof = simulate(barrier7, 2e5, 2e5 + 10 * 2 * math.pi / t, 40000)
        assert prof.excluded_raw == 0
        assert prof.excluded_ordering not in prof.ordering_histogram

    def test_sign_constancy_on_locked_samples(self, barrier7):
        """Phase-locked samples (the second main term's crossing set) keep the
        first main term at one sign."""
        cfg = MainTermConfig.from_zeros(barrier7.q, barrier7.zeros, beta1=barrier7.beta1)
        b1, b2, b3 = barrier7.relabeled_triple
        t = barrier7.parameters["t"]
        # build lock points: t u + arg Z + atan(sigma1/t) = 0 (mod pi)
        chi_s = [z for z in barrier7.zeros if z.gamma == t]
        z_coeff = sum(
            z.character.value(b2).conjugate() - z.character.value(b3).conjugate()
            for z in chi_s
        )
        s1 = barrier7.parameters["sigma1"]
        base = -(cmath.phase(z_coeff) + math.atan(s1 / t)) / t
        u0 = 2e5
        k0 = math.ceil((u0 - base) * t / math.pi)
        locks = np.array([base + k * math.pi / t for k in range(k0, k0 + 2000)])
        vals = pair_diff_grid(cfg, b1, b2, locks)
        assert np.all(vals > 0) or np.all(vals < 0)


class TestRejectedInput:
    def test_input_errors_are_simulation_errors(self):
        assert issubclass(SimulationInputError, SimulationError)

    @pytest.mark.parametrize("u0, u1, n", [(2e5, 2e5, 100), (2e5, 2e5 + 1.0, 1)])
    def test_range_and_sample_count(self, barrier7, u0, u1, n):
        with pytest.raises(SimulationInputError):
            simulate(barrier7, u0, u1, n)

    @pytest.mark.parametrize("u0, u1", [(math.nan, 2e5), (2e5, math.nan), (2e5, math.inf),
                                        (-math.inf, 2e5), (math.inf, math.inf)])
    def test_non_finite_window(self, barrier7, u0, u1):
        caches = (race_simulator._window_grid, race_simulator._window_rotation,
                  race_simulator._window_amplitude)
        for cache in caches:
            cache.cache_clear()
        with pytest.raises(SimulationInputError, match="not finite"):
            simulate(barrier7, u0, u1, 10)
        for cache in caches:
            assert cache.cache_info().currsize == 0


def _classify(triple, dab, dbc, dac):
    """Per-sample ordering classifier the table-driven one replaced (oracle)."""
    a, b, c = triple
    orders = []
    for x, y, z in zip(dab, dbc, dac):
        if x == 0 or y == 0 or z == 0:
            orders.append(None)
            continue
        wins = {
            a: int(x > 0) + int(z > 0),
            b: int(x < 0) + int(y > 0),
            c: int(y < 0) + int(z < 0),
        }
        if tuple(sorted(wins.values())) != (0, 1, 2):
            orders.append(None)
            continue
        orders.append(tuple(sorted(wins, key=wins.get, reverse=True)))
    return orders


_SPECIAL = st.sampled_from([0.0, -0.0, math.nan, 1.0, -1.0, 5e-324, -5e-324, math.inf, -math.inf])
_MAGNITUDE = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)
# strict signs (+, +, -) or (-, -, +) on (ab, bc, ac) are the two sign cycles
_CYCLE = st.builds(
    lambda signs, mags: tuple(s * m for s, m in zip(signs, mags)),
    st.sampled_from([(1.0, 1.0, -1.0), (-1.0, -1.0, 1.0)]),
    st.tuples(_MAGNITUDE, _MAGNITUDE, _MAGNITUDE),
)
_VALUE = st.one_of(st.floats(), _SPECIAL)
_ROWS = st.lists(st.one_of(st.tuples(_VALUE, _VALUE, _VALUE), _CYCLE), max_size=60)


class TestOrderingClassifier:
    @given(
        st.lists(st.integers(1, 200), min_size=3, max_size=3, unique=True),
        _ROWS,
    )
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_per_sample_oracle(self, triple, rows):
        dab, dbc, dac = (np.array([r[i] for r in rows], dtype=float) for i in range(3))
        codes, labels, histogram, ties = classify_orderings(triple, (dab, dbc, dac))
        assert codes.dtype == np.int8 and len(codes) == len(rows)
        want = _classify(triple, dab, dbc, dac)
        assert [labels[k] if k >= 0 else None for k in codes] == want
        want_hist = {}
        for o in want:
            if o is not None:
                want_hist[o] = want_hist.get(o, 0) + 1
        assert histogram == want_hist
        assert ties == want.count(None)

    def test_labels_are_the_six_orderings(self):
        codes, labels, _, _ = classify_orderings((3, 1, 2), ([1.0], [1.0], [1.0]))
        assert sorted(labels) == sorted(itertools.permutations((3, 1, 2)))
        assert labels[codes[0]] == (3, 1, 2)


def _reference_pair_diff(config, a, b, us):
    """Pair-by-pair main term, one exp/cos/sin evaluation per pair and rho."""
    out = np.zeros_like(us)
    if a == b:
        return out
    for rho, c in config.coefficients(((a, b),))[0].items():
        if c == 0:
            continue
        expo = (rho.real - config.sigma_max) * us
        phase = rho.imag * us
        z = c / rho
        out += -2.0 * np.exp(expo) * (z.real * np.cos(phase) - z.imag * np.sin(phase))
    return out


def _window(barrier, n=2000):
    gam = min(z.gamma for z in barrier.zeros)
    return 2e5, 2e5 + 10 * 2 * math.pi / gam, n


# verdict fields of simulate(barrier, *_window(barrier)) recorded before the
# shared kernel and the table-driven classifier replaced the per-pair and
# per-sample code; the kernel must reproduce them exactly
_PINNED = {
    (7, 1, 2, 5): (
        "I",
        {(2, 1, 5): 500, (1, 2, 5): 500, (5, 2, 1): 500, (5, 1, 2): 500},
        0, 2.5252244550264366e-06, 1.5968061868255866e-07, 0, 0,
    ),
    (23, 2, 3, 4): (
        "II",
        {(2, 4, 3): 160, (4, 2, 3): 470, (4, 3, 2): 309, (3, 4, 2): 530, (2, 3, 4): 531},
        0, 0.0005007393887252842, 2.6592917075254156e-07, 0, 0,
    ),
    (19, 2, 3, 14): (
        "III",
        {(3, 2, 14): 500, (3, 14, 2): 262, (14, 3, 2): 477, (14, 2, 3): 261, (2, 14, 3): 500},
        0, 0.9979711534845032, 0.00011972624494033265, 0, 0,
    ),
}


@pytest.fixture(scope="module", params=sorted(_PINNED), ids=lambda t: "q%d_%d_%d_%d" % t)
def pinned_barrier(request):
    return request.param, rb.find_barrier(rb.RaceTriple(*request.param))


def _verdict(profile):
    return (profile.ordering_histogram, profile.ties, profile.margin, profile.remainder,
            profile.excluded_raw, profile.excluded_robust)


class TestPairKernel:
    def test_bit_identical_to_per_pair_loop(self, pinned_barrier):
        _, barrier = pinned_barrier
        cfg = MainTermConfig.from_zeros(barrier.q, barrier.zeros, beta1=barrier.beta1)
        a, b, c = barrier.relabeled_triple
        us = np.linspace(*_window(barrier))
        pairs = ((a, b), (b, c), (a, c))
        got = pair_diff_grids(cfg, pairs, us)
        for (x, y), d in zip(pairs, got):
            want = _reference_pair_diff(cfg, x, y, us)
            assert np.array_equal(d, want)
            assert np.array_equal(pair_diff_grid(cfg, x, y, us), want)

    def test_equal_pair_is_zero(self, barrier7):
        cfg = MainTermConfig.from_zeros(barrier7.q, barrier7.zeros, beta1=barrier7.beta1)
        us = np.linspace(2e5, 2e5 + 1.0, 10)
        same, other = pair_diff_grids(cfg, ((2, 2), (1, 2)), us)
        assert not same.any() and other.any()

    def test_verdict_unchanged(self, pinned_barrier):
        triple, barrier = pinned_barrier
        construction, *verdict = _PINNED[triple]
        assert barrier.construction == construction
        assert _verdict(simulate(barrier, *_window(barrier))) == tuple(verdict)

    def test_mutant_verdict_unchanged(self, barrier7):
        """The character flip the CLI's tampering test makes, still caught."""
        z0 = barrier7.zeros[0]
        flipped = dataclasses.replace(z0, character=DirichletCharacter(7, (1,)))
        mutant = dataclasses.replace(barrier7, zeros=(flipped,) + tuple(barrier7.zeros[1:]))
        prof = simulate(mutant, *_window(barrier7))
        assert _verdict(prof) == (
            {(5, 1, 2): 501, (1, 5, 2): 333, (1, 2, 5): 167, (2, 1, 5): 499, (2, 5, 1): 334,
             (5, 2, 1): 166},
            0, -0.0013072176651708109, 1.5968061868255863e-07, 333, 333,
        )

    def test_first_violation_u(self, barrier7):
        """The first u whose slack min(x - y, y - z) on the excluded ordering
        exceeds the remainder; None when the barrier verifies."""
        assert simulate(barrier7, *_window(barrier7)).first_violation_u is None
        z0 = barrier7.zeros[0]
        flipped = dataclasses.replace(z0, character=DirichletCharacter(7, (1,)))
        mutant = dataclasses.replace(barrier7, zeros=(flipped,) + tuple(barrier7.zeros[1:]))
        prof = simulate(mutant, *_window(barrier7))
        hits = np.flatnonzero(np.minimum(prof.d1, prof.d2) > prof.remainder)
        assert hits.size == prof.excluded_robust > 0
        assert prof.first_violation_u == prof.u[hits[0]]


_CENSUS = ((7, 1, 2, 5), (23, 2, 3, 4), (19, 2, 3, 14), (13, 2, 5, 7))


@pytest.fixture(scope="module")
def census_barriers():
    return [rb.find_barrier(rb.RaceTriple(*t)) for t in _CENSUS]


def _profile_bytes(profile):
    return (profile.u.tobytes(), profile.d1.tobytes(), profile.d2.tobytes(),
            profile.ordering_codes.tobytes(), repr(profile.margin), repr(profile.remainder))


class TestWindowCache:
    """simulate's grid is cached per (u0, u1, n) and its rotations e^(i gamma u)
    per (gamma, u0, u1, n)."""

    def test_one_rotation_per_ordinate(self, census_barriers, monkeypatch):
        window = _window(census_barriers[0])
        assert {_window(b) for b in census_barriers} == {window}
        assert {z.gamma for b in census_barriers for z in b.zeros} == {1000.0, 2000.0}
        gammas = []
        kernel = race_simulator._sincos

        def counting(gamma, us):
            gammas.append(gamma)
            return kernel(gamma, us)

        monkeypatch.setattr(race_simulator, "_sincos", counting)
        race_simulator._window_rotation.cache_clear()
        for _ in range(2):
            for barrier in census_barriers:
                simulate(barrier, *window)
        assert sorted(gammas) == [1000.0, 2000.0]

    def test_cold_and_warm_calls_agree(self, census_barriers):
        windows = [_window(census_barriers[0]), _window(census_barriers[0], 1999),
                   (2.5e5, 2.5e5 + 0.07, 2000)]
        cold = []
        for w in windows:
            for b in census_barriers:
                race_simulator._window_rotation.cache_clear()
                cold.append(_profile_bytes(simulate(b, *w)))
        warm = [_profile_bytes(simulate(b, *w)) for w in windows for b in census_barriers]
        assert race_simulator._window_rotation.cache_info().hits > 0
        assert cold == warm
        for barrier in census_barriers[:3]:
            cfg = MainTermConfig.from_zeros(barrier.q, barrier.zeros, beta1=barrier.beta1)
            x, y, _ = barrier.excluded_ordering
            for w in windows:
                want = _reference_pair_diff(cfg, x, y, np.linspace(*w))
                assert np.array_equal(simulate(barrier, *w).d1, want)

    def test_verdicts_pinned_cold_and_warm(self, census_barriers):
        for triple, barrier in zip(_CENSUS, census_barriers):
            if triple not in _PINNED:
                continue
            _, *verdict = _PINNED[triple]
            race_simulator._window_rotation.cache_clear()
            assert _verdict(simulate(barrier, *_window(barrier))) == tuple(verdict)
            assert _verdict(simulate(barrier, *_window(barrier))) == tuple(verdict)

    def test_cached_rotations_are_read_only(self, barrier7):
        window = _window(barrier7)
        simulate(barrier7, *window)
        rot = race_simulator._window_rotation(1000.0, *window)
        for view in (rot, rot[0], rot[1]):
            with pytest.raises(ValueError):
                view[0] = 0.0

    def test_cached_amplitudes_are_read_only(self, barrier7):
        window = _window(barrier7)
        simulate(barrier7, *window)
        sigmas = [z.sigma for z in barrier7.zeros]
        offset = min(sigmas) - max(sigmas)
        assert offset < 0.0
        amp = race_simulator._window_amplitude(offset, *window)
        with pytest.raises(ValueError):
            amp[0] = 0.0

    def test_one_exp_per_offset_and_window(self, census_barriers, monkeypatch):
        """Each (sigma - sigma_max, window) pays one exp; sigma = sigma_max pays none."""
        windows = [_window(census_barriers[0]), (2.5e5, 2.5e5 + 0.07, 2000)]
        calls = []
        kernel = race_simulator._amplitude

        def counting(offset, us):
            calls.append((offset, us[0], us[-1], len(us)))
            return kernel(offset, us)

        monkeypatch.setattr(race_simulator, "_amplitude", counting)
        race_simulator._window_amplitude.cache_clear()
        for _ in range(2):
            for window in windows:
                for barrier in census_barriers:
                    simulate(barrier, *window)
        offsets = set()
        for barrier in census_barriers:
            sigma_max = max(z.sigma for z in barrier.zeros)
            offsets |= {z.sigma - sigma_max for z in barrier.zeros} - {0.0}
        assert offsets
        assert sorted(calls) == sorted((o, *w) for o in offsets for w in windows)

    def test_one_grid_per_window(self, census_barriers):
        """Every barrier checked on one window reads one cached grid; each
        profile gets a writable copy of it, equal to np.linspace."""
        window = _window(census_barriers[0])
        race_simulator._window_grid.cache_clear()
        grid = race_simulator._window_grid(*window)
        with pytest.raises(ValueError):
            grid[0] = 0.0
        for barrier in census_barriers:
            u = simulate(barrier, *window).u
            assert u.tobytes() == np.linspace(*window).tobytes()
            assert u.flags.writeable and not np.shares_memory(u, grid)
            u[0] = 0.0
        assert grid.tobytes() == np.linspace(*window).tobytes()
        info = race_simulator._window_grid.cache_info()
        assert info.misses == 1 and info.currsize == 1

    def test_cache_is_bounded(self, barrier7):
        n = 10**5
        caches = (race_simulator._window_grid, race_simulator._window_rotation,
                  race_simulator._window_amplitude)
        maxsize = max(cache.cache_info().maxsize for cache in caches)
        for cache in caches:
            cache.cache_clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for k in range(maxsize + 3):
                simulate(barrier7, 2e5 + k, 2e5 + k + 0.07, n)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        for cache in caches:
            info = cache.cache_info()
            assert 0 < info.currsize <= info.maxsize
        # one float64 row (0.8 MB) per grid entry, one (cos, sin) pair of
        # float64 rows (1.6 MB) per rotation entry and one float64 row (0.8 MB)
        # per amplitude entry, with 5% for bookkeeping
        grids, rotations, amplitudes = (cache.cache_info().maxsize for cache in caches)
        assert retained <= 1.05 * (grids + 2 * rotations + amplitudes) * n * 8


def _parent_simulate(barrier, u0, u1, n):
    """Frozen copy of `simulate` from before the stacked kernel and the
    amplitude cache: pair-by-pair coefficients and main terms, one exp per
    (pair, rho), three separately classified differences (oracle)."""
    config = MainTermConfig.from_zeros(barrier.q, list(barrier.zeros), beta1=barrier.beta1)
    chars = character_group(barrier.q)
    a, b, c = barrier.relabeled_triple
    pairs = ((a, b), (b, c), (a, c))
    us = np.linspace(u0, u1, n)
    coeffs = []
    for x, y in pairs:
        kx, ky = chars.columns((x, y))
        cs = {}
        for chi, rho, mult in config.zeros:
            w = (chars.roots[kx[chi.index]].conjugate()
                 - chars.roots[ky[chi.index]].conjugate()) * mult
            cs[rho] = cs.get(rho, 0j) + w
        coeffs.append(cs)
    outs = [np.zeros_like(us) for _ in pairs]
    for rho in dict.fromkeys(rho for _, rho, _ in config.zeros):
        terms = [(out, cs[rho] / rho) for out, cs in zip(outs, coeffs) if cs.get(rho, 0) != 0]
        if not terms:
            continue
        amp = -2.0 * np.exp((rho.real - config.sigma_max) * us)
        rot = np.exp(1j * (rho.imag * us))
        for out, z in terms:
            out += amp * (z.real * rot.real - z.imag * rot.imag)
    dab, dbc, dac = outs
    labels = tuple(sorted(itertools.permutations((a, b, c))))
    orders = _classify((a, b, c), dab, dbc, dac)
    codes = np.array([labels.index(o) if o is not None else -1 for o in orders], dtype=np.int8)
    histogram = {}
    for label in labels:
        if orders.count(label):
            histogram[label] = orders.count(label)
    diffs = {(a, b): dab, (b, a): -dab, (b, c): dbc, (c, b): -dbc, (a, c): dac, (c, a): -dac}
    coeff_of = {}
    for pair, cs in zip(pairs, coeffs):
        coeff_of[pair] = coeff_of[pair[::-1]] = cs
    x, y, z = barrier.excluded_ordering
    slack = np.minimum(diffs[(x, y)], diffs[(y, z)])
    rem = max(race_simulator.remainder_sup(config, x, y, u0, u1, coeffs=coeff_of[(x, y)]),
              race_simulator.remainder_sup(config, y, z, u0, u1, coeffs=coeff_of[(y, z)]))
    profile = (us.tobytes(), diffs[(x, y)].tobytes(), diffs[(y, z)].tobytes(), codes.tobytes(),
               repr(histogram), repr(orders.count(None)), repr(float(-slack.max())), repr(rem),
               int((slack > 0).sum()), int((slack > rem).sum()))
    return profile, [d.tobytes() for d in outs]


def _new_simulate(barrier, u0, u1, n):
    prof = simulate(barrier, u0, u1, n)
    return (prof.u.tobytes(), prof.d1.tobytes(), prof.d2.tobytes(),
            prof.ordering_codes.tobytes(), repr(prof.ordering_histogram), repr(prof.ties),
            repr(prof.margin), repr(prof.remainder), prof.excluded_raw, prof.excluded_robust)


@functools.lru_cache(maxsize=None)
def _census_barrier(triple):
    return rb.find_barrier(rb.RaceTriple(*triple))


# the census moduli: 5 and 7..50
_CENSUS_MODULI = (5, *range(7, 51))


# power family (11 10 7 6), construction II and construction III
_NAMED = ((11, 10, 7, 6), (23, 2, 3, 4), (19, 2, 3, 14))


@st.composite
def _census_triples(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_NAMED))
    q = draw(st.sampled_from(_CENSUS_MODULI))
    units = list(unit_group_structure(q).units)
    return (q, *draw(st.permutations(units))[:3])


class TestStackedKernel:
    """simulate against a frozen copy of its pair-by-pair predecessor."""

    @given(_census_triples(), st.floats(1e3, 1e7), st.floats(1e-3, 50.0), st.integers(2, 9000))
    @settings(max_examples=150, deadline=None)
    def test_bytes_match_the_pair_by_pair_simulate(self, triple, u0, width, n):
        """Beyond u = 1.5e6 a construction-I amplitude e^(-0.0005 u) underflows,
        so rows with only that rho hold signed zeros."""
        barrier = _census_barrier(triple)
        want, rows = _parent_simulate(barrier, u0, u0 + width, n)
        race_simulator._window_rotation.cache_clear()
        race_simulator._window_amplitude.cache_clear()
        assert _new_simulate(barrier, u0, u0 + width, n) == want  # cold caches
        assert _new_simulate(barrier, u0, u0 + width, n) == want  # warm caches
        cfg = MainTermConfig.from_zeros(barrier.q, barrier.zeros, beta1=barrier.beta1)
        a, b, c = barrier.relabeled_triple
        got = pair_diff_grids(cfg, ((a, b), (b, c), (a, c)), np.linspace(u0, u0 + width, n))
        assert [d.tobytes() for d in got] == rows

    @pytest.mark.parametrize("triple", _NAMED + ((7, 1, 2, 5),))
    def test_tile_edges(self, triple):
        barrier = _census_barrier(triple)
        tile = race_simulator._TILE_CELLS // 3
        for n in (tile - 1, tile, tile + 1, 2 * tile + 1):
            assert _new_simulate(barrier, 2e5, 2e5 + 0.07, n) == \
                _parent_simulate(barrier, 2e5, 2e5 + 0.07, n)[0]

    def test_equal_pair_and_vanishing_coefficient(self):
        """A pair (a, a) and pairs whose coefficient is exactly zero at one
        rho (the quadratic character is 1 at 1 and 4 mod 5) equal a
        pair-by-pair evaluation; the active rows at that rho are not a run."""
        chars = nonprincipal_characters(5)
        quadratic = next(chi for chi in chars if chi.order == 2)
        quartic = next(chi for chi in chars if chi.order == 4)
        cfg = MainTermConfig.from_zeros(5, [Z(quadratic, 0.75, 100.0), Z(quartic, 0.7, 173.2, 2)])
        pairs = ((1, 2), (1, 4), (1, 3), (4, 4))
        at_quadratic = [cs[complex(0.75, 100.0)] for cs in cfg.coefficients(pairs)]
        assert [c != 0 for c in at_quadratic] == [True, False, True, False]
        us = np.linspace(60.0, 80.0, 5000)
        got = pair_diff_grids(cfg, pairs, us)
        for (a, b), d in zip(pairs, got):
            assert d.tobytes() == _reference_pair_diff(cfg, a, b, us).tobytes()
        assert not got[3].any()


class TestWriteProfile:
    def test_ordering_column(self, barrier7, tmp_path):
        prof = simulate(barrier7, 2e5, 2e5 + 0.01, 50)
        path = tmp_path / "p.csv"
        write_profile(prof, path)
        rows = path.read_text().splitlines()
        assert rows[0] == "u,D1,D2,ordering"
        names = [row.split(",")[3] for row in rows[1:]]
        want = [">".join(map(str, prof.ordering_labels[k])) if k >= 0 else "tie"
                for k in prof.ordering_codes]
        assert names == want and len(names) == 50

    def test_ties_written_as_tie(self, barrier7, tmp_path):
        # a zero of the principal character adds 1 - 1 = 0 to every difference
        tied = _EmptyBarrier(barrier7)
        tied.zeros = (Z(principal_character(barrier7.q), 0.501, 1000.0),)
        prof = simulate(tied, 50.0, 51.0, 5)
        assert prof.ties == 5 and not prof.ordering_histogram
        path = tmp_path / "p.csv"
        write_profile(prof, path)
        assert [row.split(",")[3] for row in path.read_text().splitlines()[1:]] == ["tie"] * 5


def _power_map(q, k, residues):
    return tuple(pow(a, k, q) for a in residues)


def _transported(barrier, k=-1, relabel=(0, 1, 2)):
    """The barrier for the triple (q; a1^k, a2^k, a3^k), k prime to the group
    exponent n, listed in the order `relabel`: every zero's character raised
    to k^-1 mod n (conjugated for k = -1), the relabeled triple and the
    excluded ordering mapped residue by residue, and the permutation carried
    to the new listing."""
    q = barrier.q
    k_inv = pow(k, -1, unit_group_structure(q).exponent)
    triple = _power_map(q, k, barrier.triple.residues)
    return rb.Barrier(
        triple=rb.RaceTriple(q, *(triple[p] for p in relabel)),
        # old position p is position relabel.index(p) of the new listing
        permutation=tuple(relabel.index(p) for p in barrier.permutation),
        relabeled_triple=_power_map(q, k, barrier.relabeled_triple),
        construction=barrier.construction,
        beta1=barrier.beta1,
        zeros=tuple(rb.ZeroSpec(z.character**k_inv, z.sigma, z.gamma, z.multiplicity)
                    for z in barrier.zeros),
        excluded_ordering=_power_map(q, k, barrier.excluded_ordering),
    )


def _transported_file(gsh, k, relabel):
    """A GSH barrier's file with the same map applied: the triple, the
    relabeled triple and the permutation as in `_transported`, chi1 and chi2
    raised to k^-1 mod n; the loader derives everything else."""
    group = unit_group_structure(gsh.q)
    k_inv = pow(k, -1, group.exponent)
    data = rb.barrier_to_dict(gsh)
    triple = _power_map(gsh.q, k, data["triple"])
    data.update(
        triple=[triple[p] for p in relabel],
        permutation=[relabel.index(p) for p in data["permutation"]],
        relabeled_triple=list(_power_map(gsh.q, k, data["relabeled_triple"])),
        **{name: [h * k_inv % s for h, s in zip(data[name], group.orders)]
           for name in ("chi1", "chi2")},
    )
    return data


def assert_transported(sample, ks=None, relabels=None):
    """Each barrier and its transport, read back from its file, simulate to
    the same d1, d2, margin and remainder bytes, with the histogram mapped."""
    for barrier, k, relabel in zip(sample, ks or itertools.repeat(-1),
                                   relabels or itertools.repeat((0, 1, 2))):
        q = barrier.q
        moved = rb.barrier_from_dict(rb.barrier_to_dict(_transported(barrier, k, relabel)))
        want, got = (simulate(b, 2e5, 2.2e5, 20_000) for b in (barrier, moved))
        assert got.d1.tobytes() == want.d1.tobytes(), barrier.triple
        assert got.d2.tobytes() == want.d2.tobytes(), barrier.triple
        assert (repr(got.margin), repr(got.remainder)) == (
            repr(want.margin), repr(want.remainder)), barrier.triple
        assert got.ordering_histogram == {
            _power_map(q, k, ordering): count
            for ordering, count in want.ordering_histogram.items()}, barrier.triple
        assert (got.ties, got.excluded_raw, got.excluded_robust) == (
            want.ties, want.excluded_raw, want.excluded_robust), barrier.triple


def power_maps(q):
    """The units mod the group exponent n other than 1 (1 alone where n = 2)."""
    n = unit_group_structure(q).exponent
    return [k for k in range(2, n) if math.gcd(k, n) == 1] or [1]


_EXCEPTIONAL = ((191, 125, 36, 180), (149, 24, 133, 20))


def _drawn_barriers(rng, kinds, count):
    """count barriers of each kind (a construction-I family or construction
    II) from a draw of q <= 50 triples, and the two exceptional spacing
    barriers."""
    sample = {kind: [] for kind in kinds}
    while min(map(len, sample.values())) < count:
        q = rng.choice(_CENSUS_MODULI)
        barrier = rb.find_barrier(rb.RaceTriple(q, *rng.sample(unit_group_structure(q).units, 3)))
        kind = sample.get(barrier.parameters.get("family", barrier.construction))
        if kind is not None and len(kind) < count:
            kind.append(barrier)
    return [*itertools.chain(*sample.values()), *map(_census_barrier, _EXCEPTIONAL)]


def _transport_sample():
    """100 construction-II and 100 power-family barriers from a fixed draw
    of q <= 50 triples, and the two exceptional spacing barriers."""
    return _drawn_barriers(random.Random("conjugation transport"), ("II", "power"), 100)


def _power_map_sample():
    """(barrier, k, relabeling) triples: 30 barriers of every construction-I
    family and of construction II from a fixed draw, the two exceptional
    spacing barriers and the 24 construction-III barriers of q = 19, each
    with k drawn from the units mod the group exponent n other than 1 (k = 1
    where n = 2) and a relabeling drawn from a second generator."""
    rng = random.Random("power map transport")
    barriers = _drawn_barriers(rng, ("primitive-root", "singleton", "conjugate-pair", "power",
                                     "II"), 30)
    three = (rb.find_barrier(rb.RaceTriple(19, *t))
             for t in itertools.permutations(unit_group_structure(19).units, 3))
    barriers += [b for b in three if b.construction == "III"]
    ks = [rng.choice(power_maps(b.q)) for b in barriers]
    relabel = random.Random("relabeling transport")
    perms = list(itertools.permutations(range(3)))
    return [(b, k, relabel.choice(perms)) for b, k in zip(barriers, ks)]


class TestConjugationTransport:
    """chi(a^-1) is the conjugate of chi(a), so conjugating every zero's
    character and inverting the triple carries a barrier to one for the
    inverse triple whose main terms are the same floats.  The same holds for
    every power map a -> a^k with k prime to the group exponent n, each
    character raised to k^-1 mod n: chi^(k^-1)(a^k) = chi(a)."""

    def test_transported_barriers_simulate_to_the_same_bytes(self):
        sample = _transport_sample()
        assert Counter(b.parameters.get("family", b.construction) for b in sample) == {
            "II": 102, "power": 100}
        assert_transported(sample)

    def test_construction_three_barriers_transport(self):
        """Every construction-III triple of q = 19 and q = 37 (19 2 3 14
        among them): zeros for every character, at several multiplicities."""
        built = (rb.find_barrier(rb.RaceTriple(q, *t)) for q in (19, 37)
                 for t in itertools.permutations(unit_group_structure(q).units, 3))
        sample = [b for b in built if b.construction == "III"]
        assert len(sample) == 72
        assert (2, 3, 14) in {b.triple.residues for b in sample if b.q == 19}
        assert_transported(sample)

    def test_power_maps_transport(self):
        sample = _power_map_sample()
        assert Counter(b.parameters.get("family", b.construction) for b, _, _ in sample) == {
            "primitive-root": 30, "singleton": 30, "conjugate-pair": 30, "power": 30, "II": 32,
            "III": 24}
        assert set(_EXCEPTIONAL) <= {(b.q, *b.triple.residues) for b, _, _ in sample}
        # most maps are neither the identity nor the conjugation already covered
        n = {b.q: unit_group_structure(b.q).exponent for b, _, _ in sample}
        assert sum(k % n[b.q] not in (1, n[b.q] - 1) for b, k, _ in sample) >= 100
        # every relabeling occurs, most of them not the identity
        relabels = Counter(relabel for _, _, relabel in sample)
        assert len(relabels) == 6 and relabels[(0, 1, 2)] < 60
        assert_transported(*zip(*sample))

    @pytest.mark.parametrize("triple", [(7, 1, 2, 5), (29, 2, 3, 5), (13, 7, 5, 2)],
                             ids=lambda triple: " ".join(map(str, triple)))
    def test_gsh_barriers_transport(self, triple):
        """Every power map of the triple, each under one of the relabelings in
        turn: the file loads to a barrier whose family sum and isolated term
        are the same floats."""
        gsh = rb.construction_gsh(rb.RaceTriple(*triple), rb.BarrierParams(truncation=500))
        u0 = max(1000.0, gsh.margins["recommended_u0"])
        want = gsh_simulate(gsh, u0, u0 + 5.0, 200, max_lock_points=100)
        q = gsh.q
        ks = [1, *power_maps(q)]
        perms = itertools.cycle(itertools.permutations(range(3)))
        for k, relabel in zip(ks, perms):
            moved = rb.barrier_from_dict(_transported_file(gsh, k, relabel))
            triple = _power_map(q, k, gsh.triple.residues)
            assert moved.triple.residues == tuple(triple[p] for p in relabel)
            assert moved.excluded_ordering == _power_map(q, k, gsh.excluded_ordering)
            got = gsh_simulate(moved, u0, u0 + 5.0, 200, max_lock_points=100)
            assert got.d1.tobytes() == want.d1.tobytes(), (q, k)
            assert got.d2.tobytes() == want.d2.tobytes(), (q, k)
            assert got.ordering_histogram == {
                _power_map(q, k, ordering): count
                for ordering, count in want.ordering_histogram.items()}, (q, k)

