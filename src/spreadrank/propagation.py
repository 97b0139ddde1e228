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
``(master_seed, seed_node, b)``: row ``r`` is run ``b * BLOCK + r`` and
column ``j`` is edge ``j``.  A run's draws are thus a pure function of
(master_seed, seed_node, run_index) and the edge count, so results do
not depend on scheduling or on the total number of runs requested.  A
block's rows are drawn :data:`_CHUNK` at a time, which yields the same
doubles as one call.  :data:`ENGINE` names this contract and engine in
every spread cache key; it is bumped whenever counts could change.

Seed nodes run concurrently, one worker thread per usable CPU (numpy
releases the GIL while it draws, compares and packs).  Each seed's counts
depend only on its own stream, so they are the same for any worker count
and completion order, and the ``progress`` callback of :func:`spread_all`
runs on the caller's thread in node order.

Packed layout: the outcome of the ``u < P(edge)`` test is kept as bits,
one row of 64-bit words per edge, where bit ``j`` of word ``w`` is run
``64 * w + j``.  A breadth-first level ANDs each edge's words with its
source's frontier words and ORs the result per target, so one word
operation advances 64 runs.
"""
from __future__ import annotations

import contextlib
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ValidationError
from .graph import Network

ENGINE = "ic-packed-1"
BLOCK = 4096
# Uniform rows drawn at once: a multiple of 64 that divides BLOCK.  Small, as
# every concurrent seed holds a (_CHUNK x edges) float64 buffer of its own.
_CHUNK = 128
_MASK64 = (1 << 64) - 1
_WORD = np.dtype("<u8")


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


def _live_edges(net: Network, seed_node: int, runs: int, master_seed: int) -> np.ndarray:
    """Packed live-edge bits: one row per edge, bit ``j`` of word ``w`` is run ``64*w + j``."""
    m = net.edge_count
    live = np.zeros((m, -(-runs // 64)), _WORD)
    live_bytes = live.view(np.uint8)
    for block in range(math.ceil(runs / BLOCK)):
        seq = np.random.SeedSequence([master_seed & _MASK64, seed_node, block])
        rng = np.random.default_rng(seq)
        block_end = min(runs, (block + 1) * BLOCK)
        for lo in range(block * BLOCK, block_end, _CHUNK):
            is_live = rng.random((min(_CHUNK, block_end - lo), m)) < net.weight
            packed = np.packbits(np.ascontiguousarray(is_live.T), axis=1, bitorder="little")
            live_bytes[:, lo // 8:lo // 8 + packed.shape[1]] = packed
    return live


def _reach_counts(net: Network, seed_node: int, live: np.ndarray, runs: int) -> np.ndarray:
    """Final active-set size of each run, by breadth-first levels over all runs at once.

    Every level fires each edge in the runs where its source joined the
    frontier and the edge is live, then ORs the fired words per target.
    """
    indptr, order = net.in_csr
    has_in = indptr[1:] > indptr[:-1]
    targets = np.flatnonzero(has_in)
    starts = indptr[:-1][has_in]  # reduceat would pass an empty group's next row through
    src, live = net.src[order], live[order]
    active = np.zeros((net.node_count, live.shape[1]), _WORD)
    active[seed_node] = ~np.uint64(0)
    frontier = active.copy()
    while targets.size:  # without edges there is no group to reduce
        hit = np.bitwise_or.reduceat(frontier[src] & live, starts, axis=0)
        fresh = hit & ~active[targets]
        if not fresh.any():
            break
        frontier[:] = 0
        frontier[targets] = fresh
        active[targets] |= fresh
    bits = np.unpackbits(active.view(np.uint8), axis=1, bitorder="little")
    return bits[:, :runs].sum(axis=0, dtype=np.int64)


def cascade_sizes(net: Network, seed_node: int, runs: int, master_seed: int) -> np.ndarray:
    """Active-set size of each of ``runs`` independent cascades, by run index."""
    _check_probabilities(net)
    if not 0 <= seed_node < net.node_count:
        raise ValidationError(f"seed node {seed_node} out of range")
    return _reach_counts(net, seed_node, _live_edges(net, seed_node, runs, master_seed), runs)


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


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spread_all(net: Network, cfg, progress=None) -> SpreadEstimate:
    """Expected spread of every node as a single seed.

    Seed nodes are simulated concurrently, one worker per usable CPU; the
    values are the same for any worker count and completion order.
    ``progress`` is an optional callable invoked as ``progress(done, total)``
    on the calling thread, in node order, as each node's result arrives.
    An exception from a worker or from ``progress`` cancels the seeds that
    have not started.
    """
    if cfg.runs < 2:
        raise ValidationError("runs must be >= 2 for error reporting")
    n = net.node_count
    values = np.empty(n)
    errors = np.empty(n)
    with ThreadPoolExecutor(_usable_cpus()) as pool, contextlib.closing(
            pool.map(simulate_ic, repeat(net), range(n), repeat(cfg))) as results:
        # closing the result iterator cancels the pending seeds before the
        # pool's shutdown waits for the running ones
        for u, (mean, std_error) in enumerate(results):
            values[u], errors[u] = mean, std_error
            if progress is not None:
                progress(u + 1, n)
    return SpreadEstimate(values, errors, runs=cfg.runs, master_seed=cfg.master_seed)
