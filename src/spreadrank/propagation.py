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

Packed layout: the outcome of the ``u < P(edge)`` test is kept as bits,
one row of 64-bit words per edge.  Seeds are simulated in batches that
share these rows: each seed owns a block of ``W = ceil(runs / 64)``
consecutive words, where bit ``j`` of its word ``w`` is its run
``64 * w + j``, and fills the block from its own stream alone.  A
breadth-first level ANDs each edge's words with its source's frontier
words and ORs the result per target, so one word operation advances 64
(seed, run) pairs; bits never cross columns, so every seed's counts are
those it would have alone.  A batch holds at most ``64 // W`` seeds (at
least one), so at most 64 words; from 2 049 runs on a batch is one seed.
The nodes are split evenly, in node order, into the fewest such batches
whose count is a multiple of the worker count (or one per node), so every
worker gets a batch and no batch is left nearly empty.

Batches run concurrently, one worker thread per usable CPU (numpy
releases the GIL while it draws, compares and packs).  Counts depend only
on each seed's stream, so they are the same for any worker count, batch
size and completion order, and the ``progress`` callback of
:func:`spread_all` still fires once per node, in node order, on the
caller's thread.
"""
from __future__ import annotations

import contextlib
import math
import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ValidationError
from .graph import Network

ENGINE = "ic-packed-1"
BLOCK = 4096
# Uniform rows drawn at once: a multiple of 64 that divides BLOCK.  Small, as
# every concurrent batch holds a (_CHUNK x edges) float64 buffer of its own;
# a batch draws its seeds one after another, never stacking their uniforms.
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


def _live_edges(net: Network, seeds: Sequence[int], runs: int, master_seed: int) -> np.ndarray:
    """Packed live-edge bits of a batch: one row per edge, one block of words per seed.

    Bit ``j`` of word ``w`` in seed ``i``'s block (words ``i * W`` to
    ``(i + 1) * W - 1``, ``W = ceil(runs / 64)``) is that seed's run ``64*w + j``.
    """
    m = net.edge_count
    words = -(-runs // 64)
    live = np.zeros((m, len(seeds) * words), _WORD)
    live_bytes = live.view(np.uint8)
    for i, seed_node in enumerate(seeds):
        base = i * words * 8
        for block in range(math.ceil(runs / BLOCK)):
            seq = np.random.SeedSequence([master_seed & _MASK64, seed_node, block])
            rng = np.random.default_rng(seq)
            block_end = min(runs, (block + 1) * BLOCK)
            for lo in range(block * BLOCK, block_end, _CHUNK):
                is_live = rng.random((min(_CHUNK, block_end - lo), m)) < net.weight
                packed = np.packbits(np.ascontiguousarray(is_live.T), axis=1, bitorder="little")
                live_bytes[:, base + lo // 8:base + lo // 8 + packed.shape[1]] = packed
    return live


def _reach_counts(net: Network, seeds: Sequence[int], live: np.ndarray, runs: int) -> np.ndarray:
    """Final active-set size of each (seed, run), by breadth-first levels over all at once.

    Every level fires each edge in the columns where its source joined the
    frontier and the edge is live, then ORs the fired words per target.
    Columns never mix, so each seed's block evolves as if it ran alone.
    """
    indptr, order = net.in_csr
    has_in = indptr[1:] > indptr[:-1]
    targets = np.flatnonzero(has_in)
    starts = indptr[:-1][has_in]  # reduceat would pass an empty group's next row through
    src, live = net.src[order], live[order]
    active = np.zeros((net.node_count, len(seeds), live.shape[1] // len(seeds)), _WORD)
    active[seeds, range(len(seeds))] = ~np.uint64(0)
    active = active.reshape(net.node_count, -1)
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
    return bits.reshape(net.node_count, len(seeds), -1)[:, :, :runs].sum(axis=0, dtype=np.int64)


def _batch_sizes(net: Network, seeds: Sequence[int], runs: int, master_seed: int) -> np.ndarray:
    return _reach_counts(net, seeds, _live_edges(net, seeds, runs, master_seed), runs)


def cascade_sizes(net: Network, seed_node: int, runs: int, master_seed: int) -> np.ndarray:
    """Active-set size of each of ``runs`` independent cascades, by run index."""
    _check_probabilities(net)
    if not 0 <= seed_node < net.node_count:
        raise ValidationError(f"seed node {seed_node} out of range")
    return _batch_sizes(net, [seed_node], runs, master_seed)[0]


def _mean_and_error(sizes: np.ndarray) -> tuple[float, float]:
    return float(sizes.mean()), float(sizes.std(ddof=1) / math.sqrt(sizes.size))


def simulate_ic(net: Network, seed_node: int, cfg) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the cascade size for one seed.

    ``cfg`` supplies ``runs`` (>= 2) and ``master_seed``.  Identical inputs
    give bit-identical results.
    """
    if cfg.runs < 2:
        raise ValidationError("runs must be >= 2 for error reporting")
    return _mean_and_error(cascade_sizes(net, seed_node, cfg.runs, cfg.master_seed))


def _simulate_batch(net: Network, seeds: Sequence[int], cfg) -> list[tuple[float, float]]:
    """:func:`simulate_ic` of each seed in ``seeds``, from one shared BFS."""
    return [_mean_and_error(sizes)
            for sizes in _batch_sizes(net, seeds, cfg.runs, cfg.master_seed)]


def _batches(node_count: int, runs: int, workers: int) -> list[range]:
    """Consecutive seed nodes sharing a BFS: at most 64 words, split evenly over the workers."""
    rounds = -(-node_count // (max(1, 64 // -(-runs // 64)) * workers))
    count = min(node_count, rounds * workers)
    return [range(i * node_count // count, (i + 1) * node_count // count) for i in range(count)]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spread_all(net: Network, cfg, progress=None) -> SpreadEstimate:
    """Expected spread of every node as a single seed.

    Batches of seed nodes are simulated concurrently, one worker per usable
    CPU; the values are the same for any worker count and completion order.
    ``progress`` is an optional callable invoked as ``progress(done, total)``
    on the calling thread, in node order, as each node's result arrives.
    An exception from a worker or from ``progress`` cancels the batches
    that have not started.
    """
    if cfg.runs < 2:
        raise ValidationError("runs must be >= 2 for error reporting")
    _check_probabilities(net)
    n = net.node_count
    values = np.empty(n)
    errors = np.empty(n)
    workers = _usable_cpus()
    batches = _batches(n, cfg.runs, workers)
    with ThreadPoolExecutor(workers) as pool, contextlib.closing(
            pool.map(_simulate_batch, repeat(net), batches, repeat(cfg))) as results:
        # closing the result iterator cancels the pending batches before the
        # pool's shutdown waits for the running ones
        for seeds, pairs in zip(batches, results):
            for u, (mean, std_error) in zip(seeds, pairs):
                values[u], errors[u] = mean, std_error
                if progress is not None:
                    progress(u + 1, n)
    return SpreadEstimate(values, errors, runs=cfg.runs, master_seed=cfg.master_seed)
