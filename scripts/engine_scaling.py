#!/usr/bin/env python3
"""Time the simulation engine on one CPU and on every usable CPU.

For each CPU count, ``spread_all`` runs over the four bundled synthetic
sets (ingested as ``data/manifest.json`` declares them), or with
``--ladder N`` over the generated scale-ladder graph of N nodes
(``apply_wcs`` of ``social_digraph(default_rng(7), N, 6.0, 0.3)``), where
a change that is neutral on the small bundled sets can still be much
slower.  So does a draws-only pass: the same uniforms as the randomness
contract draws them, ``_CHUNK`` rows at a time into one reused buffer
per seed, on one thread per CPU.  That pass is the floor no engine can go below without
changing the contract.  The script narrows the CPUs of its own process
with ``os.sched_setaffinity`` (so ``spread_all`` sees and uses that many)
and restores them afterwards.  Prints the best of ``--repeats`` wall
times and the speedups.

Usage, from the repository root (Linux only):

    PYTHONPATH=src python3 scripts/engine_scaling.py --runs 4160 --repeats 3
    PYTHONPATH=src python3 scripts/engine_scaling.py --ladder 1000 --runs 1000 --repeats 1
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat
from pathlib import Path

import numpy as np

from make_synthetic_data import social_digraph
from spreadrank.config import RunConfig
from spreadrank.graph import Network, apply_wcs, orient_undirected
from spreadrank.propagation import BLOCK, _CHUNK, spread_all
from spreadrank.storage import load_edge_list

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def bundled_networks() -> dict:
    entries = json.loads((DATA_DIR / "manifest.json").read_text())["datasets"]
    nets = {}
    for entry in entries:
        if entry["synthetic"]:
            net = load_edge_list(DATA_DIR / entry["file"], entry["weighted"])
            nets[entry["name"]] = apply_wcs(net if entry["directed"] else orient_undirected(net))
    return nets


def ladder_network(n: int) -> Network:
    """The scale ladder's generated graph of ``n`` nodes, with WCS probabilities."""
    edges = social_digraph(np.random.default_rng(7), n, 6.0, 0.3)
    return apply_wcs(Network.from_edges(n, edges))


def draw_seed(seed_node: int, edges: int, runs: int, master_seed: int) -> None:
    draws = np.empty((_CHUNK, edges))
    for block in range(math.ceil(runs / BLOCK)):
        seq = np.random.SeedSequence([master_seed & ((1 << 64) - 1), seed_node, block])
        rng = np.random.default_rng(seq)
        for lo in range(block * BLOCK, min(runs, (block + 1) * BLOCK), _CHUNK):
            rng.random(out=draws[:min(_CHUNK, runs - lo)])


def draws_only(nets: dict, runs: int, master_seed: int) -> None:
    """The contract's uniforms of every seed node, one thread per usable CPU as the engine."""
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for net in nets.values():
            list(pool.map(draw_seed, range(net.node_count), repeat(net.edge_count),
                          repeat(runs), repeat(master_seed)))


def engine(nets: dict, runs: int, master_seed: int) -> None:
    for net in nets.values():
        spread_all(net, RunConfig(runs=runs, master_seed=master_seed))


def best_of(repeats: int, work, *args) -> float:
    times = []
    for _ in range(repeats):
        began = time.perf_counter()
        work(*args)
        times.append(time.perf_counter() - began)
    return min(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=4160)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--master-seed", type=int, default=1)
    parser.add_argument("--ladder", type=int, metavar="N",
                        help="time the generated N-node ladder graph instead of the bundled sets")
    args = parser.parse_args(argv)
    if args.runs < 2 or args.repeats < 1:
        parser.error("--runs must be >= 2 and --repeats >= 1")
    if args.ladder is not None and args.ladder < 2:
        parser.error("--ladder must be >= 2")
    if not hasattr(os, "sched_setaffinity"):
        print("error: os.sched_setaffinity is not available on this platform", file=sys.stderr)
        return 2
    nets = bundled_networks() if args.ladder is None else {
        f"ladder_{args.ladder}": ladder_network(args.ladder)}
    usable = sorted(os.sched_getaffinity(0))
    seconds = {}
    try:
        for cpus in sorted({1, len(usable)}):
            os.sched_setaffinity(0, usable[:cpus])
            seconds[cpus] = {name: best_of(args.repeats, work, nets, args.runs, args.master_seed)
                             for name, work in (("engine", engine), ("draws", draws_only))}
    finally:
        os.sched_setaffinity(0, usable)
    print(f"spread_all over {', '.join(nets)} at {args.runs} runs, "
          f"best of {args.repeats}")
    print(f"{'cpus':>4} {'engine_s':>9} {'draws_s':>8} {'engine/draws':>13}")
    for cpus, row in seconds.items():
        print(f"{cpus:>4} {row['engine']:9.3f} {row['draws']:8.3f} "
              f"{row['engine'] / row['draws']:13.2f}")
    if len(seconds) > 1:
        one, every = seconds[1], seconds[len(usable)]
        print(f"speedup on {len(usable)} cpus: engine {one['engine'] / every['engine']:.2f}x, "
              f"draws {one['draws'] / every['draws']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
