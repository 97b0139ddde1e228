#!/usr/bin/env python3
"""Record reference output digests of one workload for a list of seeds.

    python3 perfbench/record_reference.py --workload sim_bundled --seeds 0-40,7477

Each seed's operation runs once; its outputs must first pass the oracle
check, then their digests are merged into
``perfbench/reference/<workload>.json``.  ``run.py`` compares every
operation of a run with the recorded digests of its seed.  Re-record only
at a commit whose outputs are known to be right: the point of the file is
to catch a later change that moves them.
"""
import argparse
import json
import shutil
import sys

from run import HERE, ROOT  # also pins BLAS threads before numpy loads


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-20,4242")
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src")]
    import workloads

    path = HERE / "reference" / f"{args.workload}.json"
    table = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    workdir = ROOT / ".perfbench_work" / f"record-{args.workload}"
    try:
        for seed in parse_seeds(args.seeds):
            workload = workloads.WORKLOADS[args.workload](ROOT, seed, workdir)
            workload.setup()
            outputs = workload.op()()
            problems = workload.oracle_check()
            if problems:
                print(f"seed {seed}: oracle check failed: {problems}", file=sys.stderr)
                return 1
            table["seeds"][str(seed)] = workloads.digest(outputs)
            print(f"{args.workload} seed {seed} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    table["seeds"] = dict(sorted(table["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(table, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
