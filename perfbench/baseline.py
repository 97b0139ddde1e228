#!/usr/bin/env python3
"""Run every workload over several seeds and record the baseline.

    python3 perfbench/baseline.py --seeds 1-10

Each run is a fresh ``perfbench/run.py`` process (so ``peak_rss_mib`` is
that workload's own high-water mark), one at a time.  For every
end-to-end metric the script reports the median, the quartiles and their
distance as a share of the median (the run-to-run spread), and compares
the spread with the metric's bound in ``BENCHMARK.json``.  One traced run
per workload (on the first seed) adds the per-layer metrics.  The result,
with the machine it was measured on, goes to ``perfbench/baseline.json``.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from record_reference import parse_seeds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed={seed} trace={trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", file=sys.stderr)
    return result


def machine() -> dict:
    import numpy
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    summary = {"machine": machine(), "seeds": seeds, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run(workload, seed, seconds, 0) for seed in seeds]
        ok &= all(r["correct"] and r["failed"] == 0 for r in results)
        rows = {}
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / q2
            rows[metric["name"]] = {"median": q2, "q1": q1, "q3": q3, "spread": spread,
                                    "bound": metric["bound"], "unit": metric["unit"],
                                    "values": values}
            print(f"  {workload:13s} {metric['name']:13s} median {q2:.4f} {metric['unit']:4s}"
                  f" spread {spread:.4f} (bound {metric['bound']}, a third "
                  f"{metric['bound'] / 3:.4f})", file=sys.stderr)
        traced = run(workload, seeds[0], seconds, 1)
        summary["workloads"][workload] = {
            "end_to_end": rows,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}}
    summary["all_correct"] = ok
    out = HERE / "baseline.json"
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
