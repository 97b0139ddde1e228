"""Independent-cascade spread estimation.

A cascade starts from a single seed; every node that becomes active gets
one chance per outgoing edge to activate its target, succeeding when a
fresh uniform draw ``r`` satisfies ``r < P(edge)``.  Activated nodes never
deactivate, and the process stops once an iteration activates nobody.

Because each edge is tried at most once by its (unique) source, the final
active set equals the set of nodes reachable from the seed through the
edges whose draw succeeded.  The simulator therefore pre-draws one uniform
per edge and run and computes reachability over the successful edges,
which vectorizes across runs without changing any outcome.

Randomness contract: runs are processed in fixed blocks of :data:`BLOCK`
rows, and the uniforms of block ``b`` come from a generator seeded with
``(master_seed, seed_node, b)``.  A run's draws are thus a pure function
of (master_seed, seed_node, run_index) and the edge count, so results do
not depend on scheduling or on the total number of runs requested.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import Network

BLOCK = 4096
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class SpreadEstimate:
    """Per-node expected cascade size (seed included) with standard errors."""

    values: np.ndarray
    std_error: np.ndarray
    runs: int
    master_seed: int

    def __post_init__(self):
        values = np.asarray(self.values, np.float64)
        err = np.asarray(self.std_error, np.float64)
        if self.runs < 2:
            raise ValidationError("std_error reporting requires runs >= 2")
        if not (np.all(values >= 1.0) and np.all(err >= 0.0)):
            raise ValidationError("spread values must be >= 1 and errors >= 0")
        values.setflags(write=False)
        err.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "std_error", err)


def _check_probabilities(net: Network) -> None:
    if net.edge_count and float(net.weight.max()) > 1.0:
        raise ValidationError("edge weights must be probabilities in (0, 1]")


def _block_uniforms(master_seed: int, seed_node: int, block_index: int,
                    rows: int, cols: int) -> np.ndarray:
    seq = np.random.SeedSequence([master_seed & _MASK64, seed_node, block_index])
    return np.random.default_rng(seq).random((rows, cols))


def _reach_counts(net: Network, seed_node: int, live: np.ndarray) -> np.ndarray:
    """Final active-set sizes for a batch of runs with given live edges.

    ``live`` has one row per edge and one column per run.  Runs whose
    frontier died are counted and dropped mid-flight; the loop order is
    fixed, so results do not depend on batching.
    """
    runs = live.shape[1]
    n = net.node_count
    counts = np.empty(runs, dtype=np.int64)
    run_ids = np.arange(runs)
    active = np.zeros((n, runs), dtype=bool)
    active[seed_node] = True
    frontier = active.copy()
    while True:
        source_has_frontier = frontier.any(axis=1)
        if not source_has_frontier.any():
            counts[run_ids] = active.sum(axis=0)
            break
        hit = np.zeros_like(active)
        for u in np.flatnonzero(source_has_frontier):
            eids = net.out_edge_ids(u)
            if eids.size == 0:
                continue
            hit[net.dst[eids]] |= live[eids] & frontier[u]
        frontier = hit & ~active
        active |= frontier
        run_alive = frontier.any(axis=0)
        finished = ~run_alive
        if finished.all():
            counts[run_ids] = active.sum(axis=0)
            break
        if finished.mean() > 0.5 and run_ids.size > 512:
            counts[run_ids[finished]] = active[:, finished].sum(axis=0)
            run_ids = run_ids[run_alive]
            active = active[:, run_alive]
            frontier = frontier[:, run_alive]
            live = live[:, run_alive]
    return counts


def cascade_sizes(net: Network, seed_node: int, runs: int, master_seed: int) -> np.ndarray:
    """Active-set size of each of ``runs`` independent cascades, by run index."""
    _check_probabilities(net)
    if not 0 <= seed_node < net.node_count:
        raise ValidationError(f"seed node {seed_node} out of range")
    m = net.edge_count
    probs = net.weight
    live = np.empty((m, runs), dtype=bool)
    for block in range(math.ceil(runs / BLOCK)):
        lo = block * BLOCK
        rows = min(BLOCK, runs - lo)
        uniforms = _block_uniforms(master_seed, seed_node, block, rows, m)
        live[:, lo:lo + rows] = (uniforms < probs[None, :]).T
    return _reach_counts(net, seed_node, live)


def simulate_ic(net: Network, seed_node: int, cfg) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the cascade size for one seed.

    ``cfg`` supplies ``runs`` (>= 2) and ``master_seed``.  Identical inputs
    give bit-identical results.
    """
    if cfg.runs < 2:
        raise ValidationError("runs must be >= 2 for error reporting")
    sizes = cascade_sizes(net, seed_node, cfg.runs, cfg.master_seed)
    mean = float(sizes.mean())
    std_error = float(sizes.std(ddof=1) / math.sqrt(cfg.runs))
    return mean, std_error


def spread_all(net: Network, cfg, progress=None) -> SpreadEstimate:
    """Expected spread of every node as a single seed.

    ``progress`` is an optional callable invoked as ``progress(done, total)``
    after each node.
    """
    if cfg.runs < 2:
        raise ValidationError("runs must be >= 2 for error reporting")
    n = net.node_count
    values = np.empty(n)
    errors = np.empty(n)
    for u in range(n):
        values[u], errors[u] = simulate_ic(net, u, cfg)
        if progress is not None:
            progress(u + 1, n)
    return SpreadEstimate(values, errors, runs=cfg.runs, master_seed=cfg.master_seed)
