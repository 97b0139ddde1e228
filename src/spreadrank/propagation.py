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
block's rows are drawn :data:`_DRAWS` at a time, which yields the same
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
A seed without out-edges reaches itself alone in every run, so
:func:`spread_all` gives it 1.0 and 0.0 without drawing its streams; the
other seeds are split evenly, in node order, into the fewest such batches
whose count is a multiple of the worker count (or one per seed), so every
worker gets a batch and no batch is left nearly empty.

Kernel: the tables that depend only on the network are built once per
:func:`spread_all` call.  Nodes are renumbered by in-degree, largest
first, so rank ``k`` of the in-edges (each node's ``k``-th in-edge, in
edge order) targets rows ``0 .. r_k - 1``, where ``r_k`` nodes have more
than ``k`` in-edges.  A batch allocates its buffers once and compares
:data:`_CHUNK` rows of uniforms at a time: a (:data:`_DRAWS` x edges)
float64 draw buffer that ``Generator.random`` fills in place twice per
chunk, a (:data:`_CHUNK` x edges) boolean buffer that ``np.less`` fills
in place, and the chunk's packed bytes, which ``np.einsum`` fills by
weighting each 8 boolean rows by their bit values.  Each chunk's packed
bytes are stored straight into the batch's live words in reach order:
rank after rank while a rank spans at least :data:`_SLICE_ROWS` rows,
then the other in-edges grouped by target; so a batch holds its live
words once.  A level is a ``np.take`` of the frontier rows of the edges'
sources, an AND with the live words, one OR per sliced rank into the
rows of rank 0, an ``np.bitwise_or.reduceat`` of the grouped rest, and
whole-slice updates of the frontier and of the not-yet-active words,
all into preallocated arrays.  Run counts unpack the final active bits
of at most 64 words of columns at a time and add those of up to 255
nodes at a time in the byte lanes of 64-bit words.  With ``m`` edges,
``n`` nodes and ``W`` words in a batch, a worker thus holds at most
about ``max(1312 * m + 8 * m * W, 16 * m * W + 24 * n * W + 64 * n *
min(W, 64))`` bytes, drawing or reaching: about 102 MB on the 2 000-node
ladder graph (m = 15 708) at 20 000 runs.

Batches run concurrently, one worker thread per usable CPU.  The threads
overlap the draws, most of a batch's time, but not the breadth-first
levels, although numpy releases the GIL (Python's global interpreter
lock) in their gathers and word-wise ANDs, ORs and XORs; the reduceat of
the grouped in-edges holds it, as does the einsum that packs the draws.
Over the bundled sets at 4 160 runs on 2 vCPUs (Python 3.11.7, numpy
2.4.6; ``scripts/engine_scaling.py``, best of 3, two runs), the engine
took 1.45-1.58 s on 1 thread and 0.84 s on 2 threads, the draws alone
1.01-1.02 s and 0.52-0.53 s, and the engine's traced peak was 1.1 MiB on
1 thread and 2.1 MiB on 2.  An earlier probe put reach alone at
0.21-0.25 s on 2 threads and 0.10-0.17 s on 2 processes.  Counts depend only on each
seed's stream, so they are the same for any worker count, batch size
and completion order, and the ``progress`` callback of
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
from itertools import chain, repeat

import numpy as np

from .errors import ValidationError
from .graph import Network

ENGINE = "ic-packed-1"
BLOCK = 4096
# Uniform rows compared and packed at once: a multiple of 64 that divides BLOCK
_CHUNK = 256
# Uniform rows drawn at once, twice per chunk.  Small, as every concurrent
# batch holds a (_DRAWS x edges) float64 buffer of its own, reused for all
# its seeds, which it draws one after another.
_DRAWS = _CHUNK // 2
_MASK64 = (1 << 64) - 1
_WORD = np.dtype("<u8")
_BIT = np.array([1, 2, 4, 8, 16, 32, 64, 128], np.uint8)
# Fewest rows an in-edge rank must span to be ORed as one slice (see _Layout);
# on the bundled sets 6 and 40 were slower
_SLICE_ROWS = 16


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


class _Layout:
    """The kernel's tables of one network, shared by all its batches.

    Reach order holds rank after rank while a rank spans many rows, then
    the other in-edges grouped by target.  A sliced rank is ORed in one
    numpy call whatever its length, while reduceat makes an inner call
    per group and word, so a rank spanning fewer than :data:`_SLICE_ROWS`
    rows is cheaper grouped and reduced.
    """

    def __init__(self, net: Network):
        n, m = net.node_count, net.edge_count
        indeg = net.in_degree()
        self.renumber = np.empty(n, np.intp)  # node id -> row: by in-degree, largest first
        self.renumber[np.argsort(-indeg, kind="stable")] = np.arange(n)
        row = self.renumber[net.dst]  # each edge's target row
        degree = np.sort(indeg)[::-1]  # each row's in-degree
        grouped = np.argsort(row, kind="stable")
        rank = np.empty(m, np.intp)  # each edge's place among its target's in-edges
        rank[grouped] = np.arange(m) - (np.cumsum(degree) - degree)[row[grouped]]
        spans = np.searchsorted(-degree, -np.arange(degree.max(initial=0)))  # rank -> its rows
        sliced = max(1, int(np.count_nonzero(spans >= _SLICE_ROWS))) if m else 0
        firsts = np.cumsum(spans) - spans
        grouped_in = degree[:spans[sliced]] - sliced if sliced < spans.size else degree[:0]
        self.node_count = n
        self.targets = int(np.count_nonzero(indeg))  # rows with an in-edge, rank 0's rows
        self.weight = net.weight  # in edge order, the draws' columns
        self.order = np.lexsort((rank, row, np.minimum(rank, sliced)))  # reach -> edge order
        self.src = self.renumber[net.src[self.order]]  # source row of each edge in reach order
        # (first edge, rows) of each sliced rank but rank 0
        self.slices = list(zip(firsts[1:sliced].tolist(), spans[1:sliced].tolist()))
        self.tail = int(spans[:sliced].sum())  # first edge of the grouped in-edges
        self.tail_starts = np.cumsum(grouped_in) - grouped_in  # of rows 0, 1, ...


def _live_edges(lay: _Layout, seeds: Sequence[int], runs: int, master_seed: int) -> np.ndarray:
    """A batch's packed live-edge bits: a row per edge in reach order, a block of words per seed.

    Bit ``j`` of word ``w`` in seed ``i``'s block (words ``i * W`` to
    ``(i + 1) * W - 1``, ``W = ceil(runs / 64)``) is that seed's run ``64*w + j``.
    """
    m = lay.weight.size
    words = -(-runs // 64)
    live = np.zeros((m, len(seeds) * words), _WORD)
    live_bytes = live.view(np.uint8)
    draws = np.empty((_DRAWS, m))
    is_live = np.empty((_CHUNK, m), bool)
    packed = np.empty((_CHUNK // 8, m), np.uint8)
    for i, seed_node in enumerate(seeds):
        base = i * words * 8
        for block in range(math.ceil(runs / BLOCK)):
            seq = np.random.SeedSequence([master_seed & _MASK64, seed_node, block])
            rng = np.random.default_rng(seq)
            block_end = min(runs, (block + 1) * BLOCK)
            for lo in range(block * BLOCK, block_end, _CHUNK):
                rows = min(_CHUNK, block_end - lo)
                nbytes = -(-rows // 8)
                for at in range(0, rows, _DRAWS):
                    part = min(_DRAWS, rows - at)
                    rng.random(out=draws[:part])
                    np.less(draws[:part], lay.weight, out=is_live[at:at + part])
                is_live[rows:nbytes * 8] = False  # a partial byte's missing runs
                bits = is_live[:nbytes * 8].view(np.uint8).reshape(nbytes, 8, m)
                np.einsum("rkm,k->rm", bits, _BIT, out=packed[:nbytes])
                first = base + lo // 8
                live_bytes[:, first:first + nbytes] = packed[:nbytes].T[lay.order]
    return live


def _reach_counts(lay: _Layout, seeds: Sequence[int], live: np.ndarray, runs: int) -> np.ndarray:
    """Final active-set size of each (seed, run), by breadth-first levels over all at once.

    Every level fires each edge in the columns where its source joined the
    frontier and the edge is live, then ORs the fired words per target.
    Columns never mix, so each seed's block evolves as if it ran alone.
    """
    n, targets = lay.node_count, lay.targets
    idle = np.full((n, len(seeds), live.shape[1] // len(seeds)), ~np.uint64(0))
    idle[lay.renumber[seeds], range(len(seeds))] = 0
    idle = idle.reshape(n, -1)  # the (node, run) bits not yet active
    frontier = ~idle
    fired = np.empty_like(live)
    rest = np.empty((lay.tail_starts.size, live.shape[1]), _WORD)
    fresh = frontier[:targets]
    while targets:  # without edges there is nothing to fire
        np.take(frontier, lay.src, axis=0, out=fired, mode="clip")
        np.bitwise_and(fired, live, out=fired)
        # rank 0's edges are rows 0 .. targets-1 of fired: OR the rest into them
        for first, rows in lay.slices:
            np.bitwise_or(fired[:rows], fired[first:first + rows], out=fired[:rows])
        if rest.size:
            np.bitwise_or.reduceat(fired[lay.tail:], lay.tail_starts, axis=0, out=rest)
            np.bitwise_or(fired[:rest.shape[0]], rest, out=fired[:rest.shape[0]])
        np.bitwise_and(fired[:targets], idle[:targets], out=fresh)
        frontier[targets:] = 0  # seeds without in-edges fire at level 0 only
        if not fresh.any():
            break
        np.bitwise_xor(idle[:targets], fresh, out=idle[:targets])
    active = np.invert(idle, out=idle)
    sizes = np.zeros(64 * active.shape[1], np.int64)
    for col in range(0, active.shape[1], 64):  # unpack at most 64 words of columns at a time
        bits = np.unpackbits(active[:, col:col + 64].view(np.uint8), axis=1, bitorder="little")
        lanes = sizes[64 * col:64 * col + bits.shape[1]]
        for lo in range(0, n, 255):  # 255 rows of 0/1 bytes add up in uint64 lanes without carries
            lanes += bits[lo:lo + 255].view(np.uint64).sum(axis=0, dtype=np.uint64).view(np.uint8)
    return sizes.reshape(len(seeds), -1)[:, :runs]


def _batch_sizes(lay: _Layout, seeds: Sequence[int], runs: int, master_seed: int) -> np.ndarray:
    return _reach_counts(lay, seeds, _live_edges(lay, seeds, runs, master_seed), runs)


def cascade_sizes(net: Network, seed_node: int, runs: int, master_seed: int) -> np.ndarray:
    """Active-set size of each of ``runs`` independent cascades, by run index."""
    _check_probabilities(net)
    if not 0 <= seed_node < net.node_count:
        raise ValidationError(f"seed node {seed_node} out of range")
    return _batch_sizes(_Layout(net), [seed_node], runs, master_seed)[0]


def _simulate_batch(lay: _Layout, seeds: Sequence[int], cfg) -> list[tuple[float, float]]:
    """Mean cascade size and its standard error for each seed in ``seeds``, from one BFS."""
    return [(float(sizes.mean()), float(sizes.std(ddof=1) / math.sqrt(sizes.size)))
            for sizes in _batch_sizes(lay, seeds, cfg.runs, cfg.master_seed)]


def _batches(seed_count: int, runs: int, workers: int) -> list[range]:
    """Consecutive seeds sharing a BFS: at most 64 words, split evenly over the workers."""
    rounds = -(-seed_count // (max(1, 64 // -(-runs // 64)) * workers))
    count = min(seed_count, rounds * workers)
    return [range(i * seed_count // count, (i + 1) * seed_count // count) for i in range(count)]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def spread_all(net: Network, cfg, progress=None) -> SpreadEstimate:
    """Expected spread of every node as a single seed, with standard errors.

    ``cfg`` (a :class:`~spreadrank.config.RunConfig`, whose ``runs`` is at
    least 2) supplies ``runs`` and ``master_seed``.  Batches of seed nodes
    are simulated concurrently, one worker per usable CPU; the values are
    bit-identical for any worker count and completion order.  A seed without
    out-edges is not simulated: its value is exactly 1.0 and its error 0.0,
    as its all-ones cascade sizes give.
    ``progress`` is an optional callable invoked as ``progress(done, total)``
    on the calling thread, in node order, as each node's result arrives.
    An exception from a worker or from ``progress`` cancels the batches
    that have not started.
    """
    _check_probabilities(net)
    n = net.node_count
    values = np.ones(n)  # a seed without out-edges reaches itself alone in every run
    errors = np.zeros(n)
    fires = net.out_degree() > 0
    seeds = np.flatnonzero(fires).tolist()
    workers = _usable_cpus()
    batches = [seeds[r.start:r.stop] for r in _batches(len(seeds), cfg.runs, workers)]
    with ThreadPoolExecutor(workers) as pool, contextlib.closing(
            pool.map(_simulate_batch, repeat(_Layout(net)), batches, repeat(cfg))) as results:
        # closing the result iterator cancels the pending batches before the
        # pool's shutdown waits for the running ones
        pairs = chain.from_iterable(results)  # (mean, std_error) of each seed, in node order
        for u in range(n):
            if fires[u]:
                values[u], errors[u] = next(pairs)
            if progress is not None:
                progress(u + 1, n)
    return SpreadEstimate(values, errors, runs=cfg.runs, master_seed=cfg.master_seed)
