"""Per-layer tracing of the racebarrier package from outside.

`LayerTracer` replaces each traced function with a wrapper that counts calls
and accumulates self time: a span's duration minus the time covered by the
wrapped spans it caused.  A name imported with `from ... import` is a second
binding of the same function object, so the wrapper is installed in every
module of the package that binds the original; patching only the defining
module would miss those calls.  Methods are patched on their class.

A few wrapped functions also feed output-derived counters (the family of each
construction-I barrier, spacing-search outcomes, t-doublings, ...), which the
benchmark cross-checks against the outputs it collects itself.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, qualified name) of every traced function, grouped by layer.
TARGETS = (
    ("residue_group", "unit_group_structure"),
    ("residue_group", "multiplicative_order"),
    ("residue_group", "dlog_vector"),
    ("residue_group", "mod_div"),
    ("characters", "DirichletCharacter.angle_numerator"),
    ("characters", "DirichletCharacter.value"),
    ("characters", "DirichletCharacter.evaluate"),
    ("characters", "character_group"),
    ("characters", "character_pair_constraint"),
    ("cyclotomic", "reduce_root_sum"),
    ("goodness", "witness_for"),
    ("barrier_search", "find_barrier"),
    ("barrier_search", "find_equal_sum_set"),
    ("barrier_search", "construction_one"),
    ("barrier_search", "find_spacing_character"),
    ("barrier_search", "construction_two"),
    ("barrier_search", "find_order7_character"),
    ("barrier_search", "solve_lambda_system"),
    ("barrier_search", "construction_three"),
    ("barrier_search", "construction_gsh"),
    ("barrier_search", "barrier_to_dict"),
    ("race_simulator", "envelope_min"),
    ("race_simulator", "v_lambda"),
    ("race_simulator", "simulate"),
    ("race_simulator", "pair_diff_grid"),
    ("race_simulator", "remainder_sup"),
    ("race_simulator", "gsh_simulate"),
)

FAMILIES = ("primitive-root", "singleton", "conjugate-pair", "power", "subset",
            "deferral-singleton")
CONSTRUCTIONS = ("I", "II", "III")
SPACING_OUTCOMES = ("spacing", "deferral", "none")


def span_names() -> list[str]:
    return [f"{module}.{qualname}" for module, qualname in TARGETS]


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in span_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units["barrier_search.find_equal_sum_set.hit_ratio"] = "ratio"
    for outcome in SPACING_OUTCOMES:
        units[f"barrier_search.find_spacing_character.{outcome}"] = "count"
    units["barrier_search.construction_one.t_doublings"] = "count"
    units["barrier_search.construction_one.b_zero"] = "count"
    units["barrier_search.construction_three.Q_max"] = "denominator"
    for family in FAMILIES:
        units[f"barrier_search.family.{family}.count"] = "count"
    for construction in CONSTRUCTIONS:
        units[f"barrier_search.construction.{construction}.count"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


class LayerCounts:
    """Calls, self time and output-derived counters, sent from a pass process as JSON."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.events = Counter()
        self.q_max = 0

    def to_json(self) -> dict:
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "events": dict(self.events), "q_max": self.q_max}

    @classmethod
    def from_json(cls, data: dict) -> "LayerCounts":
        out = cls()
        out.calls.update(data["calls"])
        out.self_ns.update(data["self_ns"])
        out.events.update(data["events"])
        out.q_max = data["q_max"]
        return out

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        values: dict[str, float] = {}
        for name in span_names():
            values[f"{name}.calls"] = self.calls[name]
            values[f"{name}.self_s"] = self.self_ns[name] / 1e9
        searches = self.calls["barrier_search.find_equal_sum_set"]
        values["barrier_search.find_equal_sum_set.hit_ratio"] = (
            self.events["equal_sum_hit"] / searches if searches else 0.0
        )
        for outcome in SPACING_OUTCOMES:
            values[f"barrier_search.find_spacing_character.{outcome}"] = self.events[
                f"spacing.{outcome}"
            ]
        values["barrier_search.construction_one.t_doublings"] = self.events["t_doublings"]
        values["barrier_search.construction_one.b_zero"] = self.events["b_zero"]
        values["barrier_search.construction_three.Q_max"] = self.q_max
        for family in FAMILIES:
            values[f"barrier_search.family.{family}.count"] = self.events[f"family.{family}"]
        for construction in CONSTRUCTIONS:
            values[f"barrier_search.construction.{construction}.count"] = self.events[
                f"construction.{construction}"
            ]
        values["trace.overhead_ratio"] = overhead_ratio
        return values


class LayerTracer:
    """Context manager that wraps every target while active.

    `package` is the imported racebarrier package; all of its loaded
    submodules are scanned for bindings of each target.
    """

    def __init__(self, package):
        self.package = package
        self.counts = LayerCounts()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    def __enter__(self) -> "LayerTracer":
        prefix = self.package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package.__name__ or name.startswith(prefix))]
        for module_name, qualname in TARGETS:
            module = sys.modules[prefix + module_name]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Run a block untraced, e.g. a check that calls the package."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)

    def bindings(self) -> list[tuple[str, str]]:
        """(owner, attribute) of every binding the tracer replaced."""
        return [(getattr(owner, "__name__", repr(owner)), attr) for owner, attr, *_ in self._patches]

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original, wrapper))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        calls = self.counts.calls
        self_ns = self.counts.self_ns
        stack = self._stack
        clock = time.perf_counter_ns
        observe = _OBSERVERS.get(name)
        counts = self.counts

        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_ns[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(counts, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper


def _observe_barrier(counts: LayerCounts, args, barrier) -> None:
    counts.events[f"construction.{barrier.construction}"] += 1


def _observe_equal_sum(counts: LayerCounts, args, found) -> None:
    if found is not None:
        counts.events["equal_sum_hit"] += 1


def _observe_spacing(counts: LayerCounts, args, spacing) -> None:
    kind = type(spacing).__name__
    outcome = {"SpacingCharacter": "spacing", "CaseIDeferral": "deferral"}.get(kind, "none")
    counts.events[f"spacing.{outcome}"] += 1


def _observe_construction_one(counts: LayerCounts, args, barrier) -> None:
    params = args[2]
    t_start = max(params.t, 2.0 * params.tau, 1000.0)
    counts.events["t_doublings"] += round(math.log2(barrier.parameters["t"] / t_start))
    counts.events["b_zero"] += barrier.margins["B"] == 0.0
    counts.events[f"family.{barrier.parameters['family']}"] += 1


def _observe_construction_three(counts: LayerCounts, args, barrier) -> None:
    counts.q_max = max(counts.q_max, barrier.parameters["Q"])


_OBSERVERS = {
    "barrier_search.find_barrier": _observe_barrier,
    "barrier_search.find_equal_sum_set": _observe_equal_sum,
    "barrier_search.find_spacing_character": _observe_spacing,
    "barrier_search.construction_one": _observe_construction_one,
    "barrier_search.construction_three": _observe_construction_three,
}
