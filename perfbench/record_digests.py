"""Record reference output digests for the benchmark.

    python3 perfbench/record_digests.py --workload census --seeds 0-31

For each seed, sweeps the workload's inputs once and stores the sha256
digest of their outputs in reference_digests.json.  A benchmark run whose digest
differs from the stored one fails, so record only from a commit whose
outputs are known to be right, and re-record only when a change of output is
intended.
"""

import argparse
import json
import sys

import bootstrap
import run
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="N or N-M")
    args = parser.parse_args(argv)
    bootstrap.pin_threads()
    rb = bootstrap.import_package()
    references = run.load_references()
    table = references.setdefault(args.workload, {})
    status = 0
    for seed in args.seeds:
        sweep = run.run_sweep(WORKLOADS[args.workload](rb, seed))
        if sweep.errors:
            print(f"seed {seed}: not recorded, {sweep.errors[0]}", file=sys.stderr)
            status = 1
            continue
        old = table.get(str(seed))
        table[str(seed)] = sweep.digest
        change = "" if old in (None, sweep.digest) else f" (was {old})"
        print(f"{args.workload} seed {seed}: {sweep.digest}{change}", flush=True)
    references[args.workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(run.REFERENCE_FILE, "w") as fh:
        json.dump(dict(sorted(references.items())), fh, indent=1)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
