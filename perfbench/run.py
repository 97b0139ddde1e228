#!/usr/bin/env python3
"""spreadrank benchmark: run one workload and print its metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload sim_bundled --seed 1 --seconds 40 --trace 0

One process runs one workload: it imports spreadrank from ``src/``, times
that import in fresh interpreters and sets the workload up, each several
times (the sum of the two medians is ``setup_s``), repeats the
workload's operation for ``--seconds`` (``op_s`` is the sum of the medians
of its timed parts), then checks every operation's outputs against the
recorded reference of this seed, against the first operation, and against
the benchmark's own oracle.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  Details
(every operation time, the tail percentile, the spans of a traced run)
go to ``.perfbench_out/`` and a summary to standard error.
"""
import os

# One BLAS/OpenMP thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def tail_percentile(samples: list[float]):
    """Highest listed percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    best = None
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            ordered = sorted(samples)
            best = (p, ordered[min(n - 1, int(p / 100.0 * n))])
    return best


def import_seconds() -> list[float]:
    """Wall seconds of fresh interpreters importing what a run imports, once per set-up.

    Import is the largest part of set-up and cannot be repeated in one
    process, so it is timed in child processes, one at a time.
    """
    paths = [str(ROOT / "src"), str(HERE)]
    code = f"import sys; sys.path[:0] = {paths!r}; import workloads, spans"
    times = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        times.append(time.perf_counter() - began)
    return times


def run_window(workload, seconds: float, tracer) -> list[dict]:
    """Repeat the operation for ``seconds`` (at least once).

    A new operation starts only while at least half of the median
    operation so far still fits in the window, so the measured time stays
    within half an operation of ``seconds``.  With a tracer every second
    operation is traced, so that drift in the machine's speed hits traced
    and untraced operations alike, and at least one of each runs.
    """
    from workloads import digest

    ops = []
    start = time.perf_counter()
    while True:
        unit = f"op{len(ops)}"
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.install()
        workload.parts = {}
        with tracer.in_unit(unit) if traced else nullcontext():
            began = time.perf_counter()
            try:
                collect, error = workload.op(), None
            except Exception as exc:  # any failure of the program counts against it
                collect, error = None, f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - began
        if traced:
            tracer.uninstall()
        # keep only a digest: holding every op's outputs would grow the process
        outputs = digest(collect()) if collect is not None else None
        ops.append({"unit": unit, "seconds": elapsed, "digest": outputs, "error": error,
                    "traced": traced, "parts": workload.parts or {"op": elapsed}})
        typical = statistics.median(op["seconds"] for op in ops)
        if time.perf_counter() - start + typical / 2 > seconds and \
                (tracer is None or len(ops) >= 2):
            return ops


def op_seconds(ops: list[dict]) -> float:
    """Sum over an operation's parts of each part's median time across ``ops``.

    Operations that raised have partial parts; they count only if none finished.
    """
    finished = [op for op in ops if op["error"] is None]
    if not finished:
        return statistics.median(op["seconds"] for op in ops)
    return sum(statistics.median(op["parts"][name] for op in finished)
               for name in finished[0]["parts"])


def check(workload, ops: list, reference: dict | None, rtol: float) -> tuple[int, list[str]]:
    """Number of failed operations and the problems found."""
    from workloads import mismatches

    problems = []
    digests = [op["digest"] for op in ops]
    first = next((d for d in digests if d is not None), None)
    expected = reference if reference is not None else first
    if reference is not None and first is not None:
        problems += [f"reference: {p}" for p in mismatches(first, reference, rtol)]
    oracle_problems = workload.oracle_check() if workload.first is not None else []
    problems += [f"oracle: {p}" for p in oracle_problems]
    from oracle import self_test
    problems += self_test()
    failed = 0
    for op, got in zip(ops, digests):
        if op["error"] is not None:
            failed += 1
            problems.append(f"{op['unit']}: {op['error']}")
        elif oracle_problems or mismatches(got, expected, rtol):
            failed += 1
    return failed, problems


def layer_metrics(tracer, workload, ops: list, names: list[str]) -> dict[str, float]:
    from oracle import replay_draws_s
    from spans import median_over

    totals = tracer.unit_totals()
    traced = [totals.get(op["unit"], {}) for op in ops if op["traced"]]
    setups = [totals.get(f"setup{i}", {}) for i in range(SETUP_REPEATS)]
    values = {}
    for name in names:
        value = median_over(traced, name)
        if name.startswith("graph.") and not any(u.get(name) for u in traced):
            value = median_over(setups, name)  # the ops load no graph: set-up's share
        values[name] = value
    for dataset, net, runs, master_seed in workload.simulated():
        key = f"propagation.simulate_s.{dataset}"
        values[f"propagation.draw_s.{dataset}"] = replay_draws_s(net, runs, master_seed)
        values[f"propagation.reach_s.{dataset}"] = \
            values[key] - values[f"propagation.draw_s.{dataset}"]
    calls = median_over(traced, "cli.simulate_calls")
    values["cli.cache_hit_ratio"] = median_over(traced, "cli.cache_hits") / calls if calls else 0.0
    untraced = [op["seconds"] for op in ops if not op["traced"]]
    traced_s = [op["seconds"] for op in ops if op["traced"]]
    values["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced)
    return {name: values[name] for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    missing = [p for p in ("src/spreadrank", "data/manifest.json", "BENCHMARK.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a spreadrank checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    sys.path[:0] = [str(ROOT / "src")]
    import workloads
    from spans import Tracer
    import_times = import_seconds()

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir, tracer)
    try:
        if tracer:
            tracer.install()
        setup_times = []
        for i in range(SETUP_REPEATS):
            with tracer.in_unit(f"setup{i}") if tracer else nullcontext():
                began = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - began)
        if tracer:
            tracer.uninstall()
        ops = run_window(workload, args.seconds, tracer)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        references = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
        reference = references["seeds"].get(str(args.seed))
        began = time.perf_counter()
        failed, problems = check(workload, ops, reference, spec["tolerance"]["rtol"])
        check_s = time.perf_counter() - began
        op_times = [op["seconds"] for op in ops if not op["traced"]]
        if tracer:
            names = [m["name"] for m in bench["per_layer"]]
            metrics = layer_metrics(tracer, workload, ops, names)
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        else:
            metrics = {"op_s": op_seconds([op for op in ops if not op["traced"]]),
                       "setup_s": statistics.median(import_times) + statistics.median(setup_times),
                       "peak_rss_mib": peak_rss_mib}
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    tail = tail_percentile(op_times)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "reference": "recorded" if reference is not None else "none",
        "op_s_samples": op_times, "op_s_count": len(op_times),
        "op_s_median_of_totals": statistics.median(op_times),
        "op_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "import_s_samples": import_times, "setup_s_samples": setup_times, "check_s": check_s,
        "fail_ratio": failed / len(ops), "problems": problems,
        "metrics": metrics,
        "spans": tracer.dump() if tracer else [],
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(ops)} ops, {failed} failed, reference "
          f"{detail['reference']}, tail {detail['op_s_tail']}; details in {out_file}",
          file=sys.stderr)
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
