"""Command-line front end.

Subcommands: group, chars, good, barrier, simulate, sweep, gsh.
Exit codes: 0 success, 1 validation error, 2 construction failure,
3 verification failure.  Defaults can be collected in a JSON config file
(--config); explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from dataclasses import fields

from . import barrier_search as bs
from . import goodness as good_mod
from . import race_simulator as sim
from .characters import character_group
from .residue_group import unit_group_structure

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONSTRUCTION = 2
EXIT_VERIFICATION = 3

# default u0 of `simulate` on a finite barrier: at the default zero real parts
# (0.501 / 0.5005 against the ceiling 1/2) the remainder bound falls below the
# main terms only near u = 2e5; at small u it dwarfs them and no ordering
# violation can count as robust
DEFAULT_FINITE_U0 = 2e5

# the BarrierParams fields each building command reads, offered as flags
_BARRIER_FLAGS = ("tau", "sigma1", "sigma2", "beta1", "t", "epsilon")
_GSH_FLAGS = ("t", "tau", "truncation")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="racebarrier")
    ap.add_argument("--config", help="JSON file with default parameter values")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("group", help="unit group structure and character count")
    g.add_argument("q", type=int)

    c = sub.add_parser("chars", help="character table summary")
    c.add_argument("q", type=int)

    gd = sub.add_parser("good", help="goodness certificate for odd m")
    gd.add_argument("m", type=int)
    gd.add_argument("--max", type=int, default=None, help="sweep all odd m up to this bound")
    gd.add_argument("--full-range", action="store_true", help="search j over [1, m-1]")
    gd.add_argument("--out", help="write certificate records to a file")

    # the triple and output path shared by `barrier` and `gsh`
    build = argparse.ArgumentParser(add_help=False)
    for name in ("q", "a1", "a2", "a3"):
        build.add_argument(name, type=int)
    build.add_argument("--out", help="barrier file path (JSON)")

    b = sub.add_parser("barrier", parents=[build], help="synthesize a barrier for a triple")
    b.add_argument("--construction", choices=["auto", "I", "II", "III"], default="auto")
    b.set_defaults(out_prefix="barrier")

    s = sub.add_parser("simulate", help="verify a barrier file on a u grid")
    s.add_argument("barrier_file")
    s.add_argument("--u0", type=float, default=None)
    s.add_argument("--u1", type=float, default=None)
    s.add_argument("--samples", type=int, default=None)
    s.add_argument("--out", help="profile file path (CSV)")

    w = sub.add_parser("sweep", help="barrier census over all triples up to qmax")
    w.add_argument("qmax", type=int)
    w.add_argument("--jobs", type=int, default=None)
    w.add_argument("--out", help="census CSV path")

    gs = sub.add_parser("gsh", parents=[build], help="infinite construction for a triple")
    gs.set_defaults(construction="GSH", out_prefix="gsh")
    for parser, flags in ((b, _BARRIER_FLAGS), (gs, _GSH_FLAGS)):
        for flag in flags:
            parser.add_argument(f"--{flag}", type=type(getattr(bs.DEFAULT_PARAMS, flag)))
    return ap


def _load_config(path: str) -> dict:
    """The JSON object in the file, each key a `BarrierParams` field; the
    values are checked by building the parameters they give."""
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"expected a JSON object, not {type(config).__name__}")
    names = {f.name for f in fields(bs.BarrierParams)}
    for key in config:
        if key not in names:
            raise ValueError(f"unknown parameter {key!r}")
    bs.BarrierParams(**config)
    return config


def _params_from(args, config: dict) -> bs.BarrierParams:
    """The config's parameters, with the command's flags winning."""
    flags = {name: value for name in {*_BARRIER_FLAGS, *_GSH_FLAGS}
             if (value := getattr(args, name, None)) is not None}
    return bs.BarrierParams(**{**config, **flags})


def cmd_group(args, config) -> int:
    g = unit_group_structure(args.q)  # a bad modulus exits 1 through main
    print(f"q = {g.q}: phi(q) = {g.phi}, exponent = {g.exponent}")
    cyclic = "cyclic" if len(g.generators) <= 1 else f"{len(g.generators)} generators"
    print(f"structure: {cyclic}")
    for gen, order in zip(g.generators, g.orders):
        print(f"  generator {gen} of order {order}")
    print(f"characters: {g.phi}")
    return EXIT_OK


def cmd_chars(args, config) -> int:
    chars = character_group(args.q)  # a bad modulus exits 1 through main
    print(f"q = {chars.q}: {len(chars)} characters (index: exponents, order)")
    for chi in chars:
        tag = " principal" if chi.is_principal else ""
        print(f"  {chi.index:3d}: {list(chi.exponents)} order {chi.order}{tag}")
    return EXIT_OK


def cmd_good(args, config) -> int:
    if args.max is not None:
        good, bad = [], []
        for m in range(3, args.max + 1, 2):
            cert = good_mod.is_good(m, full_range=args.full_range)
            (good if cert.good else bad).append(m)
        print(f"odd m in [3, {args.max}]: {len(good)} good, {len(bad)} not good")
        print(f"not good: {bad}")
        return EXIT_OK
    cert = good_mod.is_good(args.m, full_range=args.full_range)
    verdict = "GOOD" if cert.good else f"NOT GOOD, failing j: {sorted(cert.failing_j)}"
    print(f"m = {cert.m}: {verdict}")
    if args.out:
        with open(args.out, "w") as fh:
            for line in cert.lines():
                fh.write(line + "\n")
        print(f"certificate written to {args.out}")
    else:
        for line in cert.lines():
            print(" ", line)
    return EXIT_OK


def cmd_barrier(args, config) -> int:
    """`barrier`, and `gsh`, whose parser sets the construction to GSH."""
    triple = bs.RaceTriple(args.q, args.a1, args.a2, args.a3)  # ValueError: exit 1 in main
    params = _params_from(args, config)  # so does a bad parameter
    try:
        if args.construction == "auto":
            barrier = bs.find_barrier(triple, params)
        elif args.construction == "I":
            found = bs.find_equal_sum_set(triple)
            if found is None:
                raise bs.ConstructionError("no qualifying character set found")
            barrier = bs.construction_one(triple, found, params)
        elif args.construction == "II":
            spacing = bs.find_spacing_character(triple)
            if spacing is None:
                raise bs.ConstructionError("no spacing character")
            barrier = bs.construction_two(triple, spacing, params)
        elif args.construction == "III":
            barrier = bs.construction_three(triple, params)
        else:
            barrier = bs.construction_gsh(triple, params)
    except (bs.ConstructionError, ArithmeticError, ValueError) as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    _print_barrier(barrier)
    out = args.out or f"{args.out_prefix}_q{args.q}_{args.a1}_{args.a2}_{args.a3}.json"
    with open(out, "w") as fh:
        json.dump(bs.barrier_to_dict(barrier), fh, indent=1)
        fh.write("\n")
    print(f"barrier written to {out}")
    return EXIT_OK


def _print_barrier(barrier) -> None:
    x, y, z = barrier.excluded_ordering
    print(f"construction {barrier.construction} for q={barrier.q} triple {barrier.triple.residues}")
    if isinstance(barrier, bs.GshBarrier):
        print(f"  t = {barrier.t}, truncation J = {barrier.truncation}")
    else:
        print(f"  |B| = {barrier.size} zeros:")
        for zz in barrier.zeros:
            print(
                f"    chi{list(zz.character.exponents)} at {zz.sigma} + {zz.gamma}i"
                f" x{zz.multiplicity}"
            )
    print(f"  excluded ordering: pi({x}) > pi({y}) > pi({z})")
    for key, value in barrier.margins.items():
        print(f"  margin {key}: {value}")


def cmd_simulate(args, config) -> int:
    try:
        with open(args.barrier_file) as fh:
            barrier = bs.barrier_from_dict(json.load(fh))
    except OSError as exc:
        print(f"cannot read barrier file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KeyError, ValueError) as exc:
        print(f"malformed barrier file: {exc}", file=sys.stderr)
        return EXIT_VALIDATION

    gsh = isinstance(barrier, bs.GshBarrier)
    if gsh:
        u0 = args.u0 if args.u0 is not None else max(1000.0, barrier.margins.get("recommended_u0", 1000.0))
        u1 = args.u1 if args.u1 is not None else u0 + 50.0
        n = args.samples if args.samples is not None else 20000
    else:
        gam = min(zz.gamma for zz in barrier.zeros)
        u0 = args.u0 if args.u0 is not None else DEFAULT_FINITE_U0
        u1 = args.u1 if args.u1 is not None else u0 + 10.0 * 2.0 * math.pi / gam
        n = args.samples if args.samples is not None else 10**5
    try:
        profile = (sim.gsh_simulate if gsh else sim.simulate)(barrier, u0, u1, n)
    except sim.SimulationInputError as exc:
        print(f"simulation rejected: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except sim.SimulationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION

    x, y, z = profile.excluded_ordering
    print(f"samples: {len(profile.u)} on [{u0}, {u1}]")
    if gsh:
        print(f"regime-2: {int(profile.regime2.sum())}, controlled: {profile.controlled_total}")
        print(f"window phase bound: {profile.phase_bound_max:.4f} (<= 0.21)")
        print(f"tail constant C: {profile.tail_constant:.6g}")
    print(f"excluded ordering pi({x}) > pi({y}) > pi({z}):")
    print(f"  raw occurrences: {profile.excluded_raw}")
    print(f"  robust occurrences (above remainder): {profile.excluded_robust}")
    print(f"  ties: {profile.ties} of {len(profile.u)} samples")
    print(f"  avoidance margin: {profile.margin:.6g}")
    rem = "none" if profile.remainder is None else f"{profile.remainder:.6g}"
    print(f"  remainder bound: {rem}")
    print(f"  verdict: {'VERIFIED' if profile.verified else 'VIOLATED'}")
    if args.out:
        sim.write_profile(profile, args.out)
        print(f"profile written to {args.out}")
    if not profile.verified:
        print(f"counterexample near u = {profile.first_violation_u}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def _sweep_q(task) -> list[tuple]:
    """Census rows of the triples (q, a1, a2, a3) for the task's q and a1, in
    (a2, a3) order."""
    q, params, a1 = task
    rows = []
    others = [a for a in unit_group_structure(q).units if a != a1]
    for a2, a3 in itertools.permutations(others, 2):
        triple = bs.RaceTriple(q, a1, a2, a3)
        try:
            barrier = bs.find_barrier(triple, params)
            margin = barrier.margins.get("verdict_margin", 0.0)
            rows.append((q, a1, a2, a3, barrier.construction, barrier.size, margin))
        except bs.ConstructionError as exc:  # construction failures are census data
            rows.append((q, a1, a2, a3, f"FAIL:{exc}", -1, 0.0))
    return rows


def cmd_sweep(args, config) -> int:
    import csv  # imported here, as is the pool: no other command needs them
    from concurrent.futures import ProcessPoolExecutor

    if args.qmax < 5:
        print("qmax must be >= 5", file=sys.stderr)
        return EXIT_VALIDATION
    params = _params_from(args, config)
    qs = [q for q in range(5, args.qmax + 1) if q == 5 or q >= 7]
    # one task per (q, a1), so that no worker or result holds more than
    # phi(q)^2 rows; a whole modulus is up to phi(q)^3 (857k rows at q = 97)
    tasks = [(q, params, a1) for q in qs for a1 in unit_group_structure(q).units]
    total = failed = small = 0
    by_construction: dict[str, int] = {}
    with contextlib.ExitStack() as stack:
        writer = None
        if args.out:
            writer = csv.writer(stack.enter_context(open(args.out, "w", newline="")))
            writer.writerow(["q", "a1", "a2", "a3", "construction", "size", "margin"])
        pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs))
        # pool.map yields the tasks in order, and each task's rows come in
        # (a2, a3) order (ascending units, lexicographic permutations), so the
        # rows are written sorted as they arrive and only counts are kept
        for rows in pool.map(_sweep_q, tasks):
            if writer is not None:
                writer.writerows(rows)
            for row in rows:
                construction, size = row[4], row[5]
                by_construction[construction] = by_construction.get(construction, 0) + 1
                failed += size < 0
                small += 0 < size <= 3
            total += len(rows)
    print(f"triples: {total}, failures: {failed}")
    print(f"constructions: {by_construction}")
    print(f"|B| <= 3: {small} ({small / total:.2%})")
    if args.out:
        print(f"census written to {args.out}")
    return EXIT_OK if not failed else EXIT_CONSTRUCTION


_COMMANDS = {
    "group": cmd_group,
    "chars": cmd_chars,
    "good": cmd_good,
    "barrier": cmd_barrier,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "gsh": cmd_barrier,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = {}
    if args.config:
        try:
            config = _load_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        code = _COMMANDS[args.command](args, config)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # standard output closed early (`| head`): as the SIGPIPE note in the
        # Python docs says, point it at os.devnull so the exit flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
    except (OSError, ValueError) as exc:  # a bad parameter, or an --out path not writable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
