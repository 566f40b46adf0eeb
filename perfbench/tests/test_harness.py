"""Tests of the benchmark harness itself (not of the library)."""

import functools
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import bootstrap  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

rb = bootstrap.import_package()


# ---------------------------------------------------------------------------
# inputs


def test_census_population_is_the_q_le_50_census_in_sweep_order():
    population = workloads.TriplePopulation(workloads.CENSUS_MODULI)
    assert population.size == 500_352
    small = workloads.TriplePopulation((7, 8, 12))
    expected = [(q, *t) for q in (7, 8, 12)
                for t in itertools.permutations(workloads.unit_residues(q), 3)]
    assert [small.triple(i) for i in range(small.size)] == expected


@pytest.mark.parametrize("cls", [workloads.Census, workloads.ColdModulus, workloads.Gsh])
def test_inputs_depend_only_on_the_seed(cls):
    a, b, c = cls(rb, 7), cls(rb, 7), cls(rb, 8)
    assert a.inputs == b.inputs
    assert a.inputs != c.inputs


def test_input_lists_have_their_fixed_sizes():
    census = workloads.Census(rb, 3).inputs
    assert len(census) == workloads.CENSUS_TRIPLES
    rounds = [census[i:i + workloads.CENSUS_ROUND]
              for i in range(0, len(census), workloads.CENSUS_ROUND)]
    assert all(r == sorted(r) for r in rounds)
    assert census != sorted(census)
    moduli = [q for q, *_ in workloads.ColdModulus(rb, 3).inputs]
    assert moduli == [q for q, *_ in workloads.ColdModulus(rb, 4).inputs]
    assert len(set(moduli)) == len(moduli) == workloads.COLD_QUERIES
    assert all(300 <= q <= 1000 and 400 <= len(workloads.unit_residues(q)) < 450
               for q in moduli)
    for seed in range(4):
        gsh = workloads.Gsh(rb, seed).inputs
        pairs = [workloads.has_gsh_pair(*t) for t in gsh]
        assert sum(pairs) == workloads.GSH_TRIPLES and pairs[-1]


def test_verify_cases_depend_only_on_the_seed():
    a, b = workloads.Verify(rb, 4, count=5), workloads.Verify(rb, 4, count=5)
    assert [c[0] for c in a.inputs] == [c[0] for c in b.inputs]
    assert [c[2] for c in a.inputs] == [c[2] for c in b.inputs]
    assert [c[0] for c in a.inputs] != [c[0] for c in workloads.Verify(rb, 5, count=5).inputs]


def test_gsh_pair_predicate_matches_the_library():
    from racebarrier.barrier_search import find_gsh_characters

    for q in (5, 7, 8, 9, 12, 15, 16):
        for t in itertools.permutations(workloads.unit_residues(q), 3):
            found = find_gsh_characters(rb.RaceTriple(q, *t)) is not None
            assert workloads.has_gsh_pair(q, *t) == found, (q, t)


# ---------------------------------------------------------------------------
# statistics


@pytest.mark.parametrize("n, name, rank", [
    (1, "max", 1), (10, "max", 10), (19, "max", 19),
    (20, "p50", 10), (25, "p60", 15), (40, "p75", 30),
    (1000, "p99", 990), (250_000, "p99", 247_500),
])
def test_tail_percentile_names(n, name, rank):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted input
    got_name, value = bench.tail_percentile(values)
    assert got_name == name
    assert value == float(rank)
    assert sum(v > value for v in values) >= 10 or name == "max"


# ---------------------------------------------------------------------------
# speed normalisation


def test_speed_gauge_scales_each_operation_by_the_samples_around_it(monkeypatch):
    samples = iter([0.010, 0.005, 0.020])
    asked = []

    def fake_sample(kernel, at_least):
        asked.append(at_least)
        return next(samples)

    monkeypatch.setattr(speed, "sample", fake_sample)
    gauge = speed.SpeedGauge(speed.VECTORISED)
    gauge.checkpoint()
    for seconds in (0.03, 0.03, 0.3):  # the third operation starts a new stretch
        if gauge.due():
            gauge.checkpoint()
        gauge.record(seconds)
    gauge.checkpoint()
    nominal = speed.VECTORISED.nominal_s
    assert gauge.factors() == pytest.approx(
        [nominal / 0.0075, nominal / 0.0075, nominal / 0.0125])
    # a sample runs the kernel for a fixed share of the work since the last one
    share = speed.KERNEL_SHARE
    assert asked == pytest.approx([share * speed.CHUNK_S, share * 0.06, share * 0.3])


def test_kernel_sample_runs_at_least_once_and_for_at_least_the_time_asked():
    runs = []
    kernel = speed.Kernel(lambda: runs.append(1) or 0.0, 1.0)
    assert speed.sample(kernel, 0.0) >= 0.0 and len(runs) == 1
    start = speed.time.perf_counter()
    speed.sample(speed.INTERPRETED, 0.02)
    assert speed.time.perf_counter() - start >= 0.02


def test_speed_gauge_needs_a_closing_checkpoint():
    gauge = speed.SpeedGauge(speed.INTERPRETED)
    gauge.checkpoint()
    gauge.record(0.01)
    with pytest.raises(RuntimeError):
        gauge.factors()


def test_sweep_timings_are_normalised(monkeypatch):
    # the host reads as half the nominal speed, so every timing is halved
    monkeypatch.setattr(speed, "sample", lambda kernel, at_least: 2 * kernel.nominal_s)

    class Fixed(workloads.Workload):
        def run(self, item):
            return workloads.Op(0.04, str(item), build_s=0.03, simulate_s=0.01)

    workload = Fixed(rb, 0)
    workload.inputs = [1, 2, 3]
    sweep = bench.run_sweep(workload)
    assert sweep.seconds == pytest.approx([0.02] * 3)
    assert sweep.build == pytest.approx([0.015] * 3)
    assert sweep.simulate == pytest.approx([0.005] * 3)


# ---------------------------------------------------------------------------
# statistics over sweeps


def sweep_of(seconds):
    sweep = bench.Sweep()
    sweep.seconds = list(seconds)
    return sweep


def test_input_medians_skip_failed_timings():
    sweeps = [sweep_of([1.0, 5.0, math.inf]), sweep_of([3.0, math.inf, math.inf]),
              sweep_of([2.0, 7.0, math.inf])]
    assert bench.input_medians(sweeps, "seconds") == [2.0, 6.0, math.inf]


def test_end_to_end_uses_only_timed_sweeps():
    def timed_sweep(seconds):
        sweep = sweep_of(seconds)
        sweep.barrier = [True] * len(seconds)
        sweep.rss_kb = 2048
        return sweep

    warm = timed_sweep([100.0, 100.0])
    passes = [bench.Pass(0.5, [warm, timed_sweep([0.001, 0.003])], timed_from=1),
              bench.Pass(0.7, [warm, timed_sweep([0.003, 0.005])], timed_from=1),
              bench.Pass(0.6, [warm, timed_sweep([0.002, 0.004])], timed_from=1)]
    values, lines = bench.end_to_end(passes)
    assert values["setup_s"] == 0.6
    assert values["triples_per_s"] == pytest.approx(2 / 0.006)  # over the inputs' medians
    assert values["triple_p50_ms"] == pytest.approx(3.0)
    assert values["triple_tail_ms"] == pytest.approx(4.0)  # max of two inputs
    assert values["peak_rss_mb"] == 2.0
    assert any("max of 2 inputs" in line for line in lines)


# ---------------------------------------------------------------------------
# digests


def in_process_pass(name, seed, budget=0.0, traced=False):
    return bench.Pass.from_json(json.loads(json.dumps(
        bench.run_pass(name, seed, budget, traced).to_json())))


def _small_census(monkeypatch, tmp_path, references):
    monkeypatch.setitem(bench.WORKLOADS, "census", functools.partial(workloads.Census, count=30))
    monkeypatch.setattr(bench, "spawn_pass", in_process_pass)
    path = tmp_path / "reference_digests.json"
    path.write_text(json.dumps(references))
    monkeypatch.setattr(bench, "REFERENCE_FILE", path)


def test_digest_mismatch_fails_the_run(monkeypatch, tmp_path, capsys):
    _small_census(monkeypatch, tmp_path, {"census": {"11": "0" * 64}})
    assert bench.run_workload("census", 11, 0.0, trace=False) == 1
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert any("REFERENCE MISMATCH" in line for line in out)


def test_matching_digest_passes(monkeypatch, tmp_path, capsys):
    digest = bench.run_sweep(workloads.Census(rb, 11, count=30)).digest
    _small_census(monkeypatch, tmp_path, {"census": {"11": digest}})
    assert bench.run_workload("census", 11, 0.0, trace=False) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    # at least MIN_PASSES passes, each a warm-up sweep and a timed one
    assert result["attempted"] == 30 * 2 * bench.MIN_PASSES


# ---------------------------------------------------------------------------
# tracing


def test_tracer_wraps_every_binding_and_restores_them():
    original = rb.residue_group.mod_div
    with tracer.LayerTracer(rb) as tr:
        assert rb.barrier_search.mod_div is rb.residue_group.mod_div is not original
        assert rb.mod_div is rb.residue_group.mod_div
        assert ("racebarrier.barrier_search", "mod_div") in tr.bindings()
        assert ("racebarrier.barrier_search", "witness_for") in tr.bindings()
    assert rb.barrier_search.mod_div is rb.residue_group.mod_div is original


def test_traced_census_cross_checks_on_a_tiny_input(monkeypatch):
    monkeypatch.setitem(bench.WORKLOADS, "census", functools.partial(workloads.Census, count=60))
    untraced = bench.run_pass("census", 2, 0.0, traced=False)
    traced = in_process_pass("census", 2, traced=True)
    assert len(traced.sweeps) == 2 and traced.timed_from == 1  # warm-up sweep, then traced
    sweep = traced.sweeps[-1]
    assert bench.cross_check(untraced.sweeps[0], sweep, traced.layers) == []
    calls = traced.layers.calls
    assert calls["barrier_search.find_barrier"] == 60
    assert calls["cyclotomic.reduce_root_sum"] == 0
    assert calls["characters.DirichletCharacter.angle_numerator"] > 0
    assert set(traced.layers.metrics(1.0)) == set(tracer.metric_units())

    # a count that disagrees with the outputs is reported
    sweep.outputs["family.singleton"] += 1
    assert any("family.singleton" in p
               for p in bench.cross_check(untraced.sweeps[0], sweep, traced.layers))
    traced.layers.calls["barrier_search.construction_two"] += 1
    assert any("construction_one/two/three" in p
               for p in bench.cross_check(untraced.sweeps[0], sweep, traced.layers))


def test_cold_roundtrip_check_runs_untraced(monkeypatch):
    monkeypatch.setattr(workloads, "COLD_MODULI", range(41, 100))
    monkeypatch.setattr(workloads, "COLD_PHI", range(40, 44))
    monkeypatch.setitem(bench.WORKLOADS, "cold-modulus",
                        functools.partial(workloads.ColdModulus, count=2))
    traced = bench.run_pass("cold-modulus", 5, 0.0, traced=True)
    assert len(traced.sweeps) == 1 and traced.sweeps[0].errors == []
    untraced = bench.run_pass("cold-modulus", 5, 100.0, traced=False)
    assert len(untraced.sweeps) == 1  # a cold query is never repeated in its process
    assert bench.cross_check(untraced.sweeps[0], traced.sweeps[0], traced.layers) == []
    assert traced.layers.calls["barrier_search.barrier_to_dict"] == 2


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert set(spec["command"][1:]) <= {"perfbench/run.py"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
