import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import racebarrier as rb
from racebarrier import barrier_search
from racebarrier.barrier_search import (
    BarrierParams,
    ConstructionError,
    RaceTriple,
    barrier_from_dict,
    barrier_to_dict,
    construction_gsh,
    find_gsh_characters,
)
from racebarrier.characters import nonprincipal_characters
from racebarrier.race_simulator import (
    SimulationError,
    SimulationInputError,
    _gsh_family_sums,
    gsh_simulate,
)


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

    def in_h_set(hs):
        frac = hs * gsh.alpha + gsh.beta_phase
        return np.abs(frac - np.round(frac)) <= 0.2

    h_values, in_h = [], []
    for j in range(1, gsh.truncation + 1):
        window = np.arange(j * j, j * j + j + 1, dtype=np.int64)
        hits = np.flatnonzero(in_h_set(window))
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


def full_range_max_gap(gsh):
    """Largest gap between consecutive members of H on [0, gap_check_limit],
    from one scan over the whole range."""
    hs = np.arange(gsh.parameters["gap_check_limit"] + 1, dtype=np.int64)
    frac = hs * gsh.alpha + gsh.beta_phase
    return int(np.diff(np.flatnonzero(np.abs(frac - np.round(frac)) <= 0.2)).max())


class TestGapCheck:
    # the four GSH golden triples, then the four gsh benchmark triples of seed 1
    @pytest.mark.parametrize("triple", [(7, 1, 2, 5), (5, 1, 2, 3), (21, 1, 2, 10),
                                        (29, 2, 3, 5), (29, 9, 25, 12), (23, 14, 21, 6),
                                        (29, 4, 16, 7), (29, 26, 25, 1)])
    def test_blocked_scan_matches_full_range(self, triple):
        gsh = construction_gsh(RaceTriple(*triple), BarrierParams(truncation=10_000))
        assert gsh.margins["h_max_gap"] == full_range_max_gap(gsh)

    @pytest.mark.parametrize("limit", [8191, 8192, 8193, 20_000])
    def test_limits_at_block_edges(self, limit):
        # slow drift: the largest gap below 20000, 6283 -> 9425, crosses the
        # first block edge at 8192
        gsh = construction_gsh(RaceTriple(5, 1, 2, 3),
                               BarrierParams(truncation=100, gap_check_limit=limit))
        assert gsh.margins["h_max_gap"] == full_range_max_gap(gsh) > 3000

    @pytest.mark.parametrize("triple", [(5, 1, 2, 3), (21, 1, 2, 10), (7, 1, 2, 5)])
    def test_gaps_spanning_empty_blocks(self, triple, monkeypatch):
        # with blocks of 1000 every gap of H above 2000 starts and ends in
        # different blocks, with blocks free of members between them
        monkeypatch.setattr(barrier_search, "_H_BLOCK", 1000)
        gsh = construction_gsh(RaceTriple(*triple),
                               BarrierParams(truncation=100, gap_check_limit=40_000))
        assert gsh.margins["h_max_gap"] == full_range_max_gap(gsh)


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

    def test_tail_constant(self, gsh7):
        u0 = max(1000.0, gsh7.margins["recommended_u0"])
        prof = gsh_simulate(gsh7, u0, u0 + 5.0, 200, include_lock_points=False)
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
        """Far beyond its window the truncated family loses positivity: a
        verification failure, reported as SimulationError proper."""
        with pytest.raises(SimulationError) as info:
            gsh_simulate(gsh7, 1e9, 2e9, 100)
        assert not isinstance(info.value, SimulationInputError)


def serial_family_sums(gsh, us):
    """The first-term kernel as one pass over all samples per 512-term chunk."""
    gam = np.asarray(gsh.gammas)
    del_ = np.asarray(gsh.deltas)
    wj = complex(gsh.w) / ((gsh.sigma2 - del_) + 1j * gam)
    d1 = np.zeros_like(us)
    tails = np.zeros_like(us)
    for s in range(0, len(gam), 512):
        sl = slice(s, min(s + 512, len(gam)))
        damp = np.exp(-np.outer(us, del_[sl]))
        rot = np.exp(1j * np.outer(us, gam[sl]))
        d1 += 2.0 * (damp * (rot.real * wj[sl].real - rot.imag * wj[sl].imag)).sum(axis=1)
        tails += (damp / (gam[sl] ** 2)).sum(axis=1)
    return d1, tails


def family_sums(gsh, us):
    gam = np.asarray(gsh.gammas)
    del_ = np.asarray(gsh.deltas)
    wj = complex(gsh.w) / ((gsh.sigma2 - del_) + 1j * gam)
    return _gsh_family_sums(us, gam, del_, wj)


@pytest.fixture(scope="module")
def gsh5():
    # alpha 2e-4 from an integer: recommended u0 6.25e6
    return construction_gsh(RaceTriple(5, 1, 2, 3))


class TestPhaseKernel:
    """The row-blocked, threaded kernel reproduces the serial one bit for bit."""

    @pytest.mark.parametrize("which, lock_points", [("gsh7", False), ("gsh5", True)])
    def test_bit_identical_to_serial_loop(self, request, which, lock_points):
        gsh = request.getfixturevalue(which)
        u0 = max(1000.0, gsh.margins["recommended_u0"])
        assert u0 == {"gsh7": 1000.0, "gsh5": 6249999.999999994}[which]
        # 203 samples: not a multiple of the row block
        prof = gsh_simulate(gsh, u0, u0 + 10.0, 203, include_lock_points=lock_points,
                            max_lock_points=200)
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
    """Temporaries under glibc's 128 KiB mmap threshold come from the heap, so
    neither the first construction in a process (about 94k minor faults with
    512 KiB scan blocks and 8 MB gap-check arrays) nor a warm simulation maps
    fresh pages per block."""
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

    def test_character_payload(self, gsh7):
        data = barrier_to_dict(gsh7)
        assert data["kind"] == "gsh"
        assert data["chi1"] == list(gsh7.chi1.exponents)
        assert len(data["gammas"]) == gsh7.truncation
