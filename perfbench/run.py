"""racebarrier benchmark.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload makes a fixed list of inputs from the seed.  A run starts pass
after pass, each a fresh interpreter started one at a time, so the load is
always one process, until --seconds have passed (at least MIN_PASSES).  A pass
sweeps the whole input list, and sweeps it again while its share of the run,
1/PASSES of --seconds, lasts; a `census` pass first makes one untimed sweep to
fill the character-table caches, and a `cold-modulus` pass sweeps only once,
as its queries must stay cold.  An input's time is the median of all its
timings over the run, and setup_s is the median of the passes' set-up times.
Every timing is normalised to nominal host speed with a reference kernel run
between operations (speed.py), because a shared host's speed drifts by up to
2x over minutes.
With --trace 1 one more pass sweeps the same inputs under tracer.LayerTracer.

Every output is checked, every sweep must give the same outputs byte for
byte, and their digest must match reference_digests.json when the seed has
an entry there.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; the exit code is 0 only when
every check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

_STARTED = time.perf_counter()

import bootstrap  # noqa: E402
from speed import SpeedGauge, normalised  # noqa: E402
from tracer import LayerCounts, LayerTracer, metric_units  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_digests.json"
PASSES = 5
MIN_PASSES = 3
PASS_TIMEOUT_S = 170
END_TO_END_UNITS = {
    "setup_s": "s",
    "triples_per_s": "1/s",
    "triple_p50_ms": "ms",
    "triple_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def tail_percentile(values) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, capped at p99.

    Nearest-rank percentiles; with fewer than 20 samples no such percentile
    reaches the median, and the maximum is reported instead.
    """
    n = len(values)
    pct = min(99, 100 * (n - 10) // n) if n > 10 else 0
    if pct < 50:
        return "max", max(values)
    return f"p{pct}", sorted(values)[math.ceil(pct * n / 100) - 1]


def peak_rss_kb() -> int:
    """Peak resident memory of this process image.

    /proc's VmHWM starts afresh at exec; ru_maxrss would also count the
    parent's memory at the time it spawned this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Sweep:
    """One run over a workload's inputs in one process: per-input timings in
    input order, and what the outputs add up to.  Outputs themselves are
    folded into the digest.  A timing is infinite where the operation failed
    or has no such step."""

    FIELDS = ("seconds", "build", "simulate", "barrier", "samples", "errors", "outputs",
              "digest", "rss_kb")

    def __init__(self):
        self.seconds: list[float] = []
        self.build: list[float] = []
        self.simulate: list[float] = []
        self.barrier: list[bool] = []
        self.samples = 0
        self.errors: list[str] = []
        self.outputs: Counter = Counter()
        self.digest = ""
        self.rss_kb = 0  # peak RSS of the process when the sweep ended
        self._digest = hashlib.sha256()

    @property
    def work(self) -> float:
        """Seconds of timed work of the operations that passed their checks."""
        return math.fsum(s for s in self.seconds if s != math.inf)

    def add(self, op) -> None:
        self._digest.update(op.record.encode() + b"\n")
        self.digest = self._digest.hexdigest()
        failed = op.error is not None
        self.seconds.append(math.inf if failed else op.seconds)
        self.build.append(math.inf if failed or op.build_s is None else op.build_s)
        self.simulate.append(math.inf if failed or op.simulate_s is None else op.simulate_s)
        self.barrier.append(op.barrier and not failed)
        if failed:
            self.errors.append(op.error)
            return
        self.samples += op.samples
        self.outputs.update(op.outputs)

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.FIELDS}

    @classmethod
    def from_json(cls, data: dict) -> "Sweep":
        sweep = cls()
        for key in cls.FIELDS:
            setattr(sweep, key, data[key])
        sweep.outputs = Counter(data["outputs"])
        return sweep


class Pass:
    """The sweeps of one interpreter, its set-up time and, when traced, its
    layer counts.  Sweeps before `timed_from` warmed the caches up: they are
    checked, but their timings are not used."""

    def __init__(self, setup_s: float, sweeps: list[Sweep], timed_from: int = 0,
                 layers: LayerCounts | None = None):
        self.setup_s = setup_s
        self.sweeps = sweeps
        self.timed_from = timed_from
        self.layers = layers

    @property
    def timed(self) -> list[Sweep]:
        return self.sweeps[self.timed_from:]

    def to_json(self) -> dict:
        return {"setup_s": self.setup_s, "sweeps": [s.to_json() for s in self.sweeps],
                "timed_from": self.timed_from,
                "layers": self.layers.to_json() if self.layers is not None else None}

    @classmethod
    def from_json(cls, data: dict) -> "Pass":
        layers = data["layers"]
        return cls(data["setup_s"], [Sweep.from_json(s) for s in data["sweeps"]],
                   data["timed_from"],
                   LayerCounts.from_json(layers) if layers is not None else None)


def run_sweep(workload, tracer: LayerTracer | None = None) -> Sweep:
    """Every input of the workload once, in order, in this process, with the
    reference kernel sampled between operations; timings are normalised to
    nominal host speed (see speed.py)."""
    sweep = Sweep()
    gauge = SpeedGauge(workload.kernel)
    ops = []
    gauge.checkpoint()
    for item in workload.inputs:
        if gauge.due():
            gauge.checkpoint()
        try:
            op = workload.run(item)
            if op.check is not None and op.error is None:
                with tracer.paused() if tracer else nullcontext():
                    op.error = op.check()
        except Exception as exc:  # a failed operation is data: count it and go on
            op = Op(0.0, f"error {type(exc).__name__}",
                    f"{item}: {type(exc).__name__}: {exc}", barrier=False)
        gauge.record(op.seconds)
        ops.append(op)
    gauge.checkpoint()
    for op, factor in zip(ops, gauge.factors()):
        sweep.add(op.scaled(factor))
    sweep.rss_kb = peak_rss_kb()
    return sweep


def run_pass(name: str, seed: int, budget: float, traced: bool) -> Pass:
    """One pass in this (fresh) interpreter; set-up is timed from its start.

    A pass of a workload with `warm_up` first sweeps its inputs once to fill
    the caches.  Then it makes a timed sweep, and, if the workload is
    `repeatable`, another while one of the mean length still ends within
    `budget` seconds of the pass's start.  A traced pass makes the warm-up
    sweep untraced and then one traced sweep."""
    rb = bootstrap.import_package()
    workload = WORKLOADS[name](rb, seed)
    setup_s = normalised(time.perf_counter() - _STARTED)
    warm = int(workload.warm_up)
    start = time.perf_counter()
    sweeps = [run_sweep(workload) for _ in range(warm)]
    if traced:
        with LayerTracer(rb) as tracer:
            sweeps.append(run_sweep(workload, tracer))
        return Pass(setup_s, sweeps, warm, tracer.counts)
    sweeps.append(run_sweep(workload))
    while workload.repeatable:
        elapsed = time.perf_counter() - start
        if elapsed * (len(sweeps) + 1) / len(sweeps) > budget:
            break
        sweeps.append(run_sweep(workload))
    return Pass(setup_s, sweeps, warm)


def spawn_pass(name: str, seed: int, budget: float = 0.0, traced: bool = False) -> Pass:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
            "--pass-budget", str(budget)]
    if traced:
        argv.append("--pass-traced")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return Pass.from_json(json.loads(proc.stdout.strip().splitlines()[-1]))


def measure(name: str, seed: int, seconds: float) -> list[Pass]:
    """Passes until `seconds` have passed: another starts while it would end
    less than half its length after the deadline, and at least MIN_PASSES run."""
    start = time.perf_counter()
    passes: list[Pass] = []
    last = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        passes.append(spawn_pass(name, seed, budget=seconds / PASSES))
        last = time.perf_counter() - began
    return passes


def load_references() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def digest_problem(workload_name: str, seed: int, digest: str, references: dict) -> str | None:
    expected = references.get(workload_name, {}).get(str(seed))
    if expected is None or digest == expected:
        return None
    return f"output digest {digest} differs from the reference {expected} for seed {seed}"


def cross_check(untraced: Sweep, traced: Sweep, counts: LayerCounts) -> list[str]:
    """The traced sweep must reproduce the untraced outputs, and its counts
    must agree with what those outputs say was built."""
    problems = []
    if traced.digest != untraced.digest:
        problems.append("traced outputs differ from the untraced outputs")
    calls = counts.calls
    built = sum(traced.outputs[f"construction.{c}"] for c in ("I", "II", "III"))
    expected_calls = {
        "barrier_search.find_barrier": built,
        "race_simulator.simulate": traced.outputs["simulate"],
        "barrier_search.construction_gsh": traced.outputs["gsh.attempt"],
        "race_simulator.gsh_simulate": traced.outputs["gsh.built"],
    }
    for name, expected in expected_calls.items():
        if calls[name] != expected:
            problems.append(f"{name} called {calls[name]} times, outputs say {expected}")
    constructed = sum(calls[f"barrier_search.construction_{k}"] for k in ("one", "two", "three"))
    if constructed != built:
        problems.append(f"construction_one/two/three calls add up to {constructed}, "
                        f"but {built} triples were built")
    for key in sorted(set(traced.outputs) | set(counts.events)):
        if key.startswith(("construction.", "family.")) and counts.events[key] != traced.outputs[key]:
            problems.append(f"trace counts {counts.events[key]} for {key}, "
                            f"outputs {traced.outputs[key]}")
    return problems


def input_medians(sweeps: list[Sweep], field: str) -> list[float]:
    """Per input, the median of its finite timings over all sweeps (inf if none)."""
    medians = []
    for timings in zip(*(getattr(s, field) for s in sweeps)):
        finite = [t for t in timings if t != math.inf]
        medians.append(statistics.median(finite) if finite else math.inf)
    return medians


def end_to_end(passes: list[Pass]) -> tuple[dict, list[str]]:
    """Driver metrics from the timed sweeps, plus the human-readable lines
    that name every figure."""
    sweeps = [s for p in passes for s in p.timed]
    medians = input_medians(sweeps, "seconds")
    times = [t for t, b in zip(medians, sweeps[0].barrier) if b]
    tail_name, tail = tail_percentile(times)
    values = {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "triples_per_s": len(times) / math.fsum(t for t in medians if t != math.inf),
        "triple_p50_ms": statistics.median(times) * 1e3,
        "triple_tail_ms": tail * 1e3,
        "peak_rss_mb": max(p.sweeps[0].rss_kb for p in passes) / 1024.0,
    }
    lines = [f"  {name} {values[name]:.6g} {unit}" + (
        f"  ({tail_name} of {len(times)} inputs)" if name == "triple_tail_ms" else "")
        for name, unit in END_TO_END_UNITS.items()]
    for label in ("build", "simulate"):
        samples = [b for b in input_medians(sweeps, label) if b != math.inf]
        if samples:
            name, value = tail_percentile(samples)
            lines.append(f"  {label}_p50_ms {statistics.median(samples) * 1e3:.6g} ms")
            lines.append(f"  {label}_tail_ms {value * 1e3:.6g} ms  ({name} of {len(samples)} inputs)")
            if label == "simulate":
                seconds = math.fsum(t for s in sweeps for t in s.simulate if t != math.inf)
                lines.append(f"  samples_per_s {sum(s.samples for s in sweeps) / seconds:.6g} 1/s")
    return values, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    bootstrap.import_package()
    passes = measure(name, seed, seconds)
    sweeps = [s for p in passes for s in p.sweeps]
    first = sweeps[0]
    problems = [e for s in sweeps for e in s.errors]
    if any(s.digest != first.digest for s in sweeps):
        problems.append("sweeps of the same inputs gave different outputs")
    references = load_references()
    reference = references.get(name, {}).get(str(seed))
    problem = digest_problem(name, seed, first.digest, references)
    if problem:
        problems.append(problem)
    attempted = sum(len(s.seconds) for s in sweeps)
    failed = sum(len(s.errors) for s in sweeps)

    timed = [s for p in passes for s in p.timed]
    print(f"workload {name} seed {seed}: {len(first.seconds)} inputs, {len(sweeps)} sweeps in "
          f"{len(passes)} passes, {len(timed)} of them timed; "
          f"{math.fsum(s.work for s in timed):.3f} s of timed work")
    if trace:
        traced = spawn_pass(name, seed, traced=True)
        tsweep = traced.sweeps[-1]
        problems += [e for s in traced.sweeps for e in s.errors]
        problems += cross_check(first, tsweep, traced.layers)
        untraced_work = statistics.median(s.work for s in timed)
        overhead = tsweep.work / untraced_work
        values = traced.layers.metrics(overhead)
        units = metric_units()
        print(f"  trace.overhead_ratio {overhead:.4f} (traced sweep {tsweep.work:.3f} s, "
              f"untraced sweep {untraced_work:.3f} s of timed work)")
        spans = [k[:-len(".self_s")] for k in units if k.endswith(".self_s")]
        for self_s, span in sorted(((values[f"{s}.self_s"], s) for s in spans), reverse=True)[:8]:
            print(f"  self time {self_s:9.4f} s  {span}")
    else:
        values, lines = end_to_end(passes)
        units = END_TO_END_UNITS
        print("\n".join(lines))
    print(f"  fail_share {failed / attempted:.6g} ({failed} of {attempted})")
    print(f"  digest {first.digest} of one sweep's outputs "
          + ("(reference matches)" if reference == first.digest else
             "(no reference for this seed)" if reference is None else "(REFERENCE MISMATCH)"))
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed if correct else max(failed, 1),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in turn, each in its own interpreter."""
    bootstrap.import_package()
    status = 0
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # one pass in this process, for the parent run
    parser.add_argument("--pass-budget", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--pass-traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    bootstrap.pin_threads()
    if args.pass_budget is not None:
        result = run_pass(args.workload, args.seed, args.pass_budget, args.pass_traced)
        print(json.dumps(result.to_json()))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
