"""The benchmark's own replay of spreadrank's randomness contract.

``spreadrank.propagation`` documents that the uniforms of run block ``b``
for seed node ``u`` are
``default_rng(SeedSequence([master_seed, u, b])).random((rows, m))`` with
blocks of ``BLOCK`` runs, and that an edge is live in a run when its
uniform is below the edge's probability.  This module replays that
contract without touching any private name of the package, so that

* the draw share of a simulation can be timed from outside
  (``reach_s = simulate_s - draw_s``), and
* cascade sizes can be recomputed by an independent breadth-first search
  and compared array-equal with the program's.

Run ``python3 perfbench/oracle.py`` from the repository root for the
self-test on small graphs.
"""
from __future__ import annotations

import math
import sys
from time import perf_counter

import numpy as np

_MASK64 = (1 << 64) - 1


def block_uniforms(master_seed: int, seed_node: int, block: int, rows: int,
                   cols: int) -> np.ndarray:
    seq = np.random.SeedSequence([master_seed & _MASK64, seed_node, block])
    return np.random.default_rng(seq).random((rows, cols))


def _blocks(runs: int):
    from spreadrank.propagation import BLOCK
    for block in range(math.ceil(runs / BLOCK)):
        yield block, min(BLOCK, runs - block * BLOCK)


def replay_draws_s(net, runs: int, master_seed: int) -> float:
    """Wall seconds spent drawing every seed node's uniforms, as the contract states."""
    m = net.edge_count
    start = perf_counter()
    for seed_node in range(net.node_count):
        for block, rows in _blocks(runs):
            block_uniforms(master_seed, seed_node, block, rows, m)
    return perf_counter() - start


def cascade_sizes(net, seed_node: int, runs: int, master_seed: int) -> np.ndarray:
    """Active-set size per run, by level-synchronous BFS over the replayed live edges."""
    n, m = net.node_count, net.edge_count
    live = np.vstack([block_uniforms(master_seed, seed_node, block, rows, m) < net.weight
                      for block, rows in _blocks(runs)])
    into = np.zeros((m, n), dtype=np.float32)  # edge -> its target, one-hot
    into[np.arange(m), net.dst] = 1.0
    active = np.zeros((runs, n), dtype=bool)
    active[:, seed_node] = True
    frontier = active.copy()
    while frontier.any():
        fired = (frontier[:, net.src] & live).astype(np.float32)
        frontier = ((fired @ into) > 0.0) & ~active
        active |= frontier
    return active.sum(axis=1)


def spread_mismatches(net, estimate, nodes, name: str) -> list[str]:
    """Seed nodes whose estimate differs from the oracle's mean or standard error."""
    problems = []
    for u in nodes:
        sizes = cascade_sizes(net, int(u), estimate.runs, estimate.master_seed)
        mean = float(sizes.mean())
        std_error = float(sizes.std(ddof=1) / math.sqrt(estimate.runs))
        if estimate.values[u] != mean or estimate.std_error[u] != std_error:
            problems.append(f"{name}: node {u} spread {estimate.values[u]!r}/"
                            f"{estimate.std_error[u]!r}, oracle {mean!r}/{std_error!r}")
    return problems


def self_test() -> list[str]:
    """Oracle BFS versus ``spreadrank.propagation.cascade_sizes`` on small graphs."""
    from spreadrank import Network
    from spreadrank.propagation import BLOCK, cascade_sizes as program_sizes

    rng = np.random.default_rng(7)
    problems = []
    for case in range(6):
        n = int(rng.integers(2, 12))
        pairs = {(int(u), int(v)) for u, v in rng.integers(0, n, size=(3 * n, 2)) if u != v}
        edges = [(u, v, float(rng.uniform(0.05, 1.0))) for u, v in sorted(pairs)]
        net = Network.from_edges(n, edges)
        runs = BLOCK + 64 if case % 2 else 97
        for seed_node in range(n):
            ours = cascade_sizes(net, seed_node, runs, case)
            theirs = program_sizes(net, seed_node, runs, case)
            if not np.array_equal(ours, theirs):
                problems.append(f"self-test case {case} node {seed_node}: cascade sizes differ")
    return problems


if __name__ == "__main__":
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    failures = self_test()
    print("\n".join(failures) or "oracle self-test passed")
    sys.exit(1 if failures else 0)
