"""The four benchmark workloads.

Each workload turns a seed into a fixed list of inputs, runs one timed
operation per input through the package's public functions, checks the
output of every operation, and renders it as one line of the run's digest.
Inputs are generated here with plain modular arithmetic; the library only
sees the generated triples.

census        find_barrier over 6000 triples drawn uniformly from the 500,352
              ordered triples with q <= 50, in three rounds of 2000, each in
              ascending (q, a1, a2, a3) order as the sweep runs them.
              Character tables amortise over many triples per modulus, so
              per-call character evaluation and the family search dominate;
              constructions II and III appear in their natural shares and set
              the tail.
cold-modulus  one query per modulus the process has not seen yet, for the
              first 6 of the distinct moduli q in [300, 1000] with
              400 <= phi(q) < 450 in one fixed shuffled order (cyclic and
              non-cyclic groups): find_barrier, barrier_to_dict and JSON
              encoding, as a one-shot `racebarrier barrier` call.  Every query
              pays the O(phi^2) group and character-table build that the
              census hides; the narrow phi band and the fixed moduli keep the
              cost mix the same in every run; the seed draws the triple at
              each modulus.
verify        simulate() on 64 finite barriers built during set-up, at
              u0 = 2e5 over ten periods of the lowest ordinate (the
              criterion-7 window) with 4000 samples instead of criterion 7's
              10^5, so that one call takes about 20 ms and each barrier is
              timed many times in a run; the ordering must be robustly
              excluded.  barrier_search does no timed work here.
gsh           construction_gsh at J = 10^4, then gsh_simulate in the
              criterion-9 shape (u0 = max(1000, recommended u0), a window of
              10) with 200 grid samples plus up to 200 lock points, for
              uniform triples with q <= 30, drawn until four of them have a
              GSH character pair.  A triple with no such pair must raise
              ConstructionError, which an independent subgroup test
              predicts; it is an expected result.
"""

from __future__ import annotations

import bisect
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

import speed

CENSUS_MODULI = (5, *range(7, 51))
CENSUS_ROUND = 2000
CENSUS_TRIPLES = 3 * CENSUS_ROUND
COLD_QUERIES = 6
COLD_MODULI = range(300, 1001)
COLD_PHI = range(400, 450)
VERIFY_BARRIERS = 64
VERIFY_U0 = 2e5
VERIFY_PERIODS = 10
VERIFY_SAMPLES = 4000
GSH_MODULI = (5, *range(7, 31))
GSH_TRUNCATION = 10_000
GSH_WINDOW = 10.0
GSH_SAMPLES = 200
GSH_LOCK_POINTS = 200
GSH_TRIPLES = 4
CONSTRUCTIONS = ("I", "II", "III")


@dataclass
class Op:
    """Outcome of one timed operation."""

    seconds: float  # timed work
    record: str  # digest line
    error: str | None = None  # set when a check failed
    barrier: bool = True  # False for failures and for an expected GSH no-pair result
    build_s: float | None = None
    simulate_s: float | None = None
    samples: int = 0
    outputs: Counter = field(default_factory=Counter)  # output counts the trace must match
    check: Callable[[], str | None] | None = None  # untimed check that calls the package

    def scaled(self, factor: float) -> "Op":
        """This outcome with every timing multiplied by `factor`."""
        self.seconds *= factor
        if self.build_s is not None:
            self.build_s *= factor
        if self.simulate_s is not None:
            self.simulate_s *= factor
        return self


def unit_residues(q: int) -> list[int]:
    return [a for a in range(1, q) if gcd(a, q) == 1]


class TriplePopulation:
    """All ordered triples of distinct units for the given moduli, indexed in
    ascending (q, a1, a2, a3) order without materialising the list."""

    def __init__(self, moduli):
        self.moduli = tuple(moduli)
        self.units = [unit_residues(q) for q in self.moduli]
        self.starts = []
        size = 0
        for units in self.units:
            self.starts.append(size)
            p = len(units)
            size += p * (p - 1) * (p - 2)
        self.size = size

    def triple(self, index: int) -> tuple[int, int, int, int]:
        if not 0 <= index < self.size:
            raise IndexError(index)
        i = bisect.bisect_right(self.starts, index) - 1
        units = self.units[i]
        p = len(units)
        i1, rest = divmod(index - self.starts[i], (p - 1) * (p - 2))
        i2, i3 = divmod(rest, p - 2)
        i2 += i2 >= i1
        lo, hi = sorted((i1, i2))
        i3 += i3 >= lo
        i3 += i3 >= hi
        return (self.moduli[i], units[i1], units[i2], units[i3])


def has_gsh_pair(q: int, a1: int, a2: int, a3: int) -> bool:
    """Whether a character pair for the GSH construction exists.

    It does exactly when, for some choice of the pair (x, y) with z the third
    residue, z/x lies outside the cyclic subgroup generated by y/x: then a
    character is trivial on that subgroup (equal on x and y) but not on z/x.
    """
    for x, y, z in ((a1, a2, a3), (a1, a3, a2), (a2, a3, a1)):
        inv = pow(x, -1, q)
        ratio, target = y * inv % q, z * inv % q
        power = ratio
        while power not in (1, target):
            power = power * ratio % q
        if power != target:
            return True
    return False


def _ordering(residues) -> str:
    return ">".join(str(a) for a in residues)


def _histogram(histogram: dict) -> str:
    return ";".join(f"{_ordering(k)}:{v}" for k, v in sorted(histogram.items()))


def finite_barrier_op(item, barrier, seconds: float, record: str | None = None) -> Op:
    """Op for a barrier from find_barrier, with the per-item checks."""
    construction = barrier.construction
    margin = barrier.margins.get("verdict_margin")
    family = barrier.parameters.get("family", "")
    error = None
    if construction not in CONSTRUCTIONS:
        error = f"{item}: construction {construction!r} is not I, II or III"
    elif not (isinstance(margin, float) and margin > 0.0):
        error = f"{item}: verdict_margin {margin!r} is not positive"
    outputs = Counter({f"construction.{construction}": 1})
    if family:
        outputs[f"family.{family}"] += 1
    if record is None:
        record = ",".join((*map(str, item), construction, str(barrier.size),
                           _ordering(barrier.excluded_ordering), repr(margin), family))
    return Op(seconds, record, error, build_s=seconds, outputs=outputs)


class Workload:
    """`inputs`, made from the seed at set-up, is the list one sweep runs."""

    name = ""
    warm_up = False  # whether a pass first sweeps once untimed, to fill the package's caches
    repeatable = True  # whether a pass sweeps again while its budget lasts
    kernel = speed.INTERPRETED  # the reference kernel that matches the workload's mix

    def __init__(self, rb, seed: int):
        self.rb = rb
        self.seed = seed
        self.inputs: list = []

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def run(self, item) -> Op:
        raise NotImplementedError


class Census(Workload):
    name = "census"
    warm_up = True  # character tables are built on a modulus's first triple

    def __init__(self, rb, seed, count: int = CENSUS_TRIPLES):
        super().__init__(rb, seed)
        population = TriplePopulation(CENSUS_MODULI)
        rng = self.rng()
        while len(self.inputs) < count:
            self.inputs += [population.triple(index) for index in
                            sorted(rng.sample(range(population.size), CENSUS_ROUND))]
        del self.inputs[count:]

    def run(self, item):
        rb = self.rb
        start = time.perf_counter()
        barrier = rb.find_barrier(rb.RaceTriple(*item))
        return finite_barrier_op(item, barrier, time.perf_counter() - start)


class ColdModulus(Workload):
    name = "cold-modulus"
    repeatable = False  # every query must find its tables unbuilt

    def __init__(self, rb, seed, count: int = COLD_QUERIES):
        super().__init__(rb, seed)
        moduli = [q for q in COLD_MODULI if len(unit_residues(q)) in COLD_PHI]
        random.Random(self.name).shuffle(moduli)
        rng = self.rng()
        self.inputs = [(q, *rng.sample(unit_residues(q), 3)) for q in moduli[:count]]

    def run(self, item):
        rb = self.rb
        start = time.perf_counter()
        barrier = rb.find_barrier(rb.RaceTriple(*item))
        text = json.dumps(rb.barrier_to_dict(barrier), indent=1)
        op = finite_barrier_op(item, barrier, time.perf_counter() - start, record=text)

        def roundtrip() -> str | None:
            decoded = rb.barrier_from_dict(json.loads(text))
            if decoded == barrier and json.dumps(rb.barrier_to_dict(decoded), indent=1) == text:
                return None
            return f"{item}: JSON round trip did not give back an equal barrier"

        op.check = roundtrip
        return op


class Verify(Workload):
    name = "verify"

    def __init__(self, rb, seed, count: int = VERIFY_BARRIERS):
        super().__init__(rb, seed)
        population = TriplePopulation(CENSUS_MODULI)
        for index in self.rng().sample(range(population.size), count):
            item = population.triple(index)
            barrier = rb.find_barrier(rb.RaceTriple(*item))
            gamma = min(z.gamma for z in barrier.zeros)
            u1 = VERIFY_U0 + VERIFY_PERIODS * 2.0 * math.pi / gamma
            self.inputs.append((item, barrier, u1))

    def run(self, case):
        item, barrier, u1 = case
        start = time.perf_counter()
        profile = self.rb.simulate(barrier, VERIFY_U0, u1, VERIFY_SAMPLES)
        seconds = time.perf_counter() - start
        error = None
        if profile.excluded_robust != 0:
            error = f"{item}: {profile.excluded_robust} robust occurrences of the excluded ordering"
        record = ",".join((*map(str, item), _ordering(profile.excluded_ordering),
                           str(profile.excluded_raw), str(profile.excluded_robust),
                           repr(profile.margin), repr(profile.remainder), str(profile.ties),
                           _histogram(profile.ordering_histogram)))
        return Op(seconds, record, error, simulate_s=seconds, samples=len(profile.u),
                  outputs=Counter(simulate=1))


class Gsh(Workload):
    name = "gsh"
    kernel = speed.VECTORISED  # gsh_simulate's time goes to numpy over outer products

    def __init__(self, rb, seed, count: int = GSH_TRIPLES):
        super().__init__(rb, seed)
        population = TriplePopulation(GSH_MODULI)
        rng = self.rng()
        built = 0
        while built < count:  # no-pair triples drawn on the way stay in, as expected results
            self.inputs.append(population.triple(rng.randrange(population.size)))
            built += has_gsh_pair(*self.inputs[-1])

    def run(self, item):
        rb = self.rb
        expected = has_gsh_pair(*item)
        outputs = Counter({"gsh.attempt": 1})
        start = time.perf_counter()
        try:
            gsh = rb.construction_gsh(rb.RaceTriple(*item),
                                      rb.BarrierParams(truncation=GSH_TRUNCATION))
        except rb.ConstructionError as exc:
            seconds = time.perf_counter() - start
            error = f"{item}: unexpected ConstructionError: {exc}" if expected else None
            record = ",".join((*map(str, item), "no-pair"))
            return Op(seconds, record, error, barrier=False, build_s=seconds, outputs=outputs)
        built = time.perf_counter()
        u0 = max(1000.0, gsh.margins["recommended_u0"])
        profile = rb.gsh_simulate(gsh, u0, u0 + GSH_WINDOW, GSH_SAMPLES,
                                  max_lock_points=GSH_LOCK_POINTS)
        done = time.perf_counter()
        outputs["gsh.built"] += 1
        error = None
        if not expected:
            error = f"{item}: GSH barrier built although no character pair exists"
        elif profile.controlled_positive != profile.controlled_total:
            error = (f"{item}: {profile.controlled_positive} of {profile.controlled_total} "
                     "controlled samples positive")
        elif profile.excluded_raw != 0:
            error = f"{item}: excluded ordering observed {profile.excluded_raw} times"
        record = ",".join((*map(str, item), repr(gsh.t), _ordering(gsh.excluded_ordering),
                           str(len(profile.u)), str(profile.controlled_positive),
                           str(profile.controlled_total), str(profile.excluded_raw),
                           str(profile.ties), repr(profile.phase_bound_max),
                           repr(profile.tail_constant), str(profile.dominance_violations),
                           _histogram(profile.ordering_histogram)))
        return Op(done - start, record, error, build_s=built - start,
                  simulate_s=done - built, samples=len(profile.u), outputs=outputs)


WORKLOADS = {cls.name: cls for cls in (Census, ColdModulus, Verify, Gsh)}
