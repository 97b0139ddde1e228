import functools
import math
import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spreadrank import propagation
from spreadrank.config import RunConfig
from spreadrank.errors import ParameterError, ValidationError
from spreadrank.graph import Network, apply_wcs
from spreadrank.propagation import BLOCK, cascade_sizes, spread_all, SpreadEstimate

from oracles import bf_cascade_sizes, bf_exact_spread, random_sparse_digraph
from test_cascade_digests import NETWORKS


def cfg(runs=4000, seed=11):
    return RunConfig(runs=runs, master_seed=seed)


def simulate_one(net, seed_node, config):
    """One seed's mean cascade size and its standard error, as ``spread_all`` reports them."""
    sizes = cascade_sizes(net, seed_node, config.runs, config.master_seed)
    return float(sizes.mean()), float(sizes.std(ddof=1) / math.sqrt(sizes.size))


class TestSimulateIC:
    def test_isolated_seed(self):
        net = Network.from_edges(2, [(1, 0, 0.5)])
        mean, err = simulate_one(net, 0, cfg(runs=100))
        assert mean == 1.0
        assert err == 0.0

    def test_deterministic_path(self):
        net = Network.from_edges(2, [(0, 1, 1.0)])
        mean, err = simulate_one(net, 0, cfg(runs=100))
        assert mean == 2.0
        assert err == 0.0

    def test_two_branches_half(self):
        net = Network.from_edges(3, [(0, 1, 0.5), (0, 2, 0.5)])
        mean, err = simulate_one(net, 0, cfg(runs=20000))
        assert err > 0
        assert abs(mean - 2.0) < 3 * err

    def test_rejects_probability_above_one(self):
        net = Network.from_edges(2, [(0, 1, 1.5)])
        with pytest.raises(ValidationError, match="probabilities"):
            simulate_one(net, 0, cfg())

    def test_rejects_single_run(self):
        # a standard error needs two runs, so no configuration holds fewer
        with pytest.raises(ParameterError, match="runs must be >= 2"):
            RunConfig(runs=1)

    def test_bit_identical_reruns(self):
        net = apply_wcs(Network.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 0)]))
        a = simulate_one(net, 0, cfg(runs=5000, seed=42))
        b = simulate_one(net, 0, cfg(runs=5000, seed=42))
        assert a == b

    def test_run_streams_are_prefix_stable(self):
        # run r's draws may not depend on the total number of runs requested
        net = apply_wcs(Network.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))
        short = cascade_sizes(net, 0, 5000, 9)
        long = cascade_sizes(net, 0, 9000, 9)
        assert np.array_equal(short, long[:5000])

    def test_seed_streams_independent_of_other_nodes(self):
        net = apply_wcs(Network.from_edges(3, [(0, 1), (1, 2), (2, 0)]))
        alone = cascade_sizes(net, 1, 3000, 123)
        again = cascade_sizes(net, 1, 3000, 123)
        assert np.array_equal(alone, again)


@st.composite
def weighted_digraphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) \
        if pairs else []
    probs = st.one_of(st.just(1.0), st.floats(0.01, 1.0))
    return n, [(u, v, draw(probs)) for u, v in chosen]


class TestAgainstPerRunOracle:
    """``cascade_sizes`` equals a per-run BFS over the replayed contract draws."""

    @staticmethod
    def agree(n, edges, seed_node, runs, master_seed=7):
        got = cascade_sizes(Network.from_edges(n, edges), seed_node, runs, master_seed)
        want = bf_cascade_sizes(n, edges, seed_node, runs, master_seed)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        return got

    @settings(max_examples=150, deadline=None)
    @given(weighted_digraphs(), st.integers(0, 7), st.integers(2, 200),
           st.integers(-2**63, 2**64 - 1))
    def test_random_digraphs(self, graph, seed_pick, runs, master_seed):
        n, edges = graph
        self.agree(n, edges, seed_pick % n, runs, master_seed)

    def test_zero_edge_network(self):
        sizes = self.agree(3, [], 1, 130)
        assert sizes.tolist() == [1] * 130

    def test_seed_without_out_edges(self):
        sizes = self.agree(3, [(0, 1, 0.5), (1, 2, 1.0)], 2, 100)
        assert sizes.tolist() == [1] * 100

    def test_in_degree_zero_targets_between_reached_ones(self):
        # nodes 0, 2 and 5 have no in-edges; 2 and 5 sit between targets
        # that do, where a grouped OR over empty groups would misattribute
        edges = [(0, 1, 1.0), (1, 3, 1.0), (2, 3, 1.0), (3, 4, 0.5), (5, 6, 1.0),
                 (4, 6, 1.0), (6, 1, 0.5)]
        assert set(self.agree(7, edges, 0, 200).tolist()) == {3, 5}
        assert set(self.agree(7, edges, 2, 200).tolist()) == {2, 4, 5}
        assert set(self.agree(7, edges, 5, 65).tolist()) == {2, 4, 5}

    @pytest.mark.parametrize("runs", [2, 63, 65, 100, 191])
    def test_runs_not_a_multiple_of_64(self, runs):
        self.agree(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5), (0, 2, 0.3)],
                   0, runs)

    @pytest.mark.parametrize("runs", [BLOCK + 1, BLOCK + 64, 2 * BLOCK + 3])
    def test_runs_beyond_one_block(self, runs):
        self.agree(5, [(0, 1, 0.5), (1, 2, 0.7), (2, 0, 0.2), (1, 3, 0.4), (3, 4, 0.9)],
                   1, runs, master_seed=99)

    @pytest.mark.parametrize("runs", [propagation._DRAWS - 1, propagation._DRAWS + 1,
                                      BLOCK + propagation._DRAWS + 3,
                                      propagation._CHUNK - 1, propagation._CHUNK + 1,
                                      BLOCK + propagation._CHUNK + 3])
    def test_runs_at_chunk_edges(self, runs):
        # each count ends in a partial draw, a partial byte of rows or both;
        # the sure edge (1.0) and the all but dead one (1e-9) fill whole
        # columns with ones and zeros
        sizes = self.agree(5, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 1e-9), (3, 4, 1.0),
                               (2, 0, 0.4), (1, 4, 0.3)], 0, runs, master_seed=31)
        assert sizes.min() == 2

    def test_ranks_sliced_and_grouped_past_a_byte_of_nodes(self):
        # every node but 0 has an in-edge from 0 and all from 2 on one from
        # their predecessor: ranks 0 and 1 span hundreds of rows; node 1's
        # hundred in-edges are grouped; seed 0 reaches all 300 nodes, more
        # than one uint64 byte lane counts
        n = 300
        edges = ([(0, v, 1.0) for v in range(1, n)] + [(v, v + 1, 0.3) for v in range(1, n - 1)]
                 + [(v, 1, 0.5) for v in range(3, n, 3)])
        assert self.agree(n, edges, 0, 70).tolist() == [n] * 70
        self.agree(n, edges, 5, 70)

    def test_chunk_is_whole_words_of_a_block(self):
        assert propagation._CHUNK % 64 == 0
        assert BLOCK % propagation._CHUNK == 0
        assert propagation._CHUNK % propagation._DRAWS == 0


class TestExactSpread:
    """Hand-checked values and a monotonicity property of the enumeration oracle."""

    def test_isolated(self):
        assert bf_exact_spread(1, [], 0) == 1.0

    def test_single_edge(self):
        assert math.isclose(bf_exact_spread(2, [(0, 1, 0.3)], 0), 1.3, rel_tol=0, abs_tol=1e-12)

    def test_chain(self):
        assert math.isclose(bf_exact_spread(3, [(0, 1, 0.5), (1, 2, 0.5)], 0), 1.75,
                            abs_tol=1e-12)

    def test_monotone_in_edge_probability(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, edges = random_sparse_digraph(rng, max_edges=8, max_n=6)
            weighted = [(u, v, float(rng.uniform(0.1, 0.8))) for u, v in edges]
            seed = int(rng.integers(0, n))
            base = bf_exact_spread(n, weighted, seed)
            bump = int(rng.integers(0, len(weighted)))
            raised = [(u, v, min(1.0, w + 0.15) if j == bump else w)
                      for j, (u, v, w) in enumerate(weighted)]
            assert bf_exact_spread(n, raised, seed) >= base - 1e-12


def usable_cpus(mp, cpus):
    """Make ``spread_all`` see ``cpus`` usable CPUs (``None``: the host's own)."""
    if cpus is not None:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def one_by_one(net, config):
    pairs = [simulate_one(net, u, config) for u in range(net.node_count)]
    return [mean for mean, _ in pairs], [err for _, err in pairs]


@functools.lru_cache(maxsize=None)
def bundled_one_by_one(name, runs):
    return one_by_one(NETWORKS[name], cfg(runs=runs, seed=2020))


def ring_with_chords(n=120):
    return apply_wcs(Network.from_edges(n, [(u, (u + step) % n)
                                            for u in range(n) for step in (1, 7, 13)]))


class TestSpreadAll:
    def test_two_node_deterministic(self):
        net = Network.from_edges(2, [(0, 1, 1.0)])
        est = spread_all(net, cfg(runs=50))
        assert est.values.tolist() == [2.0, 1.0]

    def test_seed_always_counted(self):
        net = apply_wcs(Network.from_edges(5, [(0, 1), (1, 2), (3, 2), (4, 0)]))
        est = spread_all(net, cfg(runs=200))
        assert np.all(est.values >= 1.0)

    def test_triangle_matches_exact_within_error(self):
        net = apply_wcs(Network.from_edges(3, [(0, 1), (1, 2), (2, 0),
                                               (1, 0), (2, 1), (0, 2)]))
        est = spread_all(net, cfg(runs=20000, seed=5))
        for u in range(3):
            exact = bf_exact_spread(3, list(net.edges()), u)
            assert abs(est.values[u] - exact) <= 3 * max(est.std_error[u], 1e-9)

    def test_progress_callback(self):
        # called on the caller's thread, in node order, though seeds run concurrently
        seen = []
        spread_all(ring_with_chords(30), cfg(runs=200),
                   progress=lambda done, total: seen.append((done, total, threading.get_ident())))
        assert seen == [(u + 1, 30, threading.get_ident()) for u in range(30)]

    def test_seeds_without_out_edges_are_not_simulated(self, monkeypatch):
        net = NETWORKS["synth_campus"]
        sinks = np.flatnonzero(net.out_degree() == 0).tolist()
        assert len(sinks) == 10
        values, errors = bundled_one_by_one("synth_campus", 4160)
        drawn = []
        live_edges = propagation._live_edges

        def recorded(lay, seeds, runs, master_seed):
            drawn.extend(seeds)
            return live_edges(lay, seeds, runs, master_seed)

        monkeypatch.setattr(propagation, "_live_edges", recorded)
        est = spread_all(net, cfg(runs=4160, seed=2020))
        assert sorted(drawn) == sorted(set(range(net.node_count)) - set(sinks))
        assert est.values.tolist() == values
        assert est.std_error.tolist() == errors
        assert est.values[sinks].tolist() == [1.0] * 10
        assert est.std_error[sinks].tolist() == [0.0] * 10

    def test_estimate_validation(self):
        with pytest.raises(ValidationError):
            SpreadEstimate(np.array([0.5]), np.array([0.0]), runs=10, master_seed=0)
        with pytest.raises(ValidationError):
            SpreadEstimate(np.array([1.5]), np.array([0.1]), runs=1, master_seed=0)


class TestSeedBatches:
    """Seeds share a BFS in batches of at most 64 words; their counts do not change."""

    @pytest.mark.parametrize("runs", [2, 64, 65, 100, 1000, 2048, 2049, 4096, 4160])
    @pytest.mark.parametrize("node_count, workers", [(1, 1), (1, 2), (40, 3), (70, 1),
                                                      (70, 2), (80, 2), (80, 3), (250, 2)])
    def test_batch_rule(self, node_count, workers, runs):
        batches = propagation._batches(node_count, runs, workers)
        words = -(-runs // 64)
        seats = max(1, 64 // words)
        sizes = [len(seeds) for seeds in batches]
        assert [u for seeds in batches for u in seeds] == list(range(node_count))
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= seats
        # every worker gets as many batches, and a round fewer would not seat all seeds
        assert len(batches) % workers == 0 or len(batches) == node_count
        assert len(batches) >= min(node_count, workers)
        assert (len(batches) - workers) * seats < node_count
        if runs > 2048:
            assert sizes == [1] * node_count

    def test_network_tables_built_once_per_call(self, monkeypatch):
        built = []
        layout = propagation._Layout
        monkeypatch.setattr(propagation, "_Layout", lambda net: built.append(net) or layout(net))
        net = ring_with_chords(30)
        assert len(propagation._batches(net.node_count, 4160, propagation._usable_cpus())) > 1
        spread_all(net, cfg(runs=4160))
        assert built == [net]

    @pytest.mark.parametrize("runs", [2, 63, 64, 65, 100, 130, 1000])
    def test_batch_counts_equal_single_seed_counts(self, runs):
        net = NETWORKS["synth_forum"]
        seeds = range(3, 3 + 64 // -(-runs // 64))
        batch = propagation._batch_sizes(propagation._Layout(net), seeds, runs, 77)
        assert batch.shape == (len(seeds), runs)
        for row, u in zip(batch, seeds):
            assert np.array_equal(row, cascade_sizes(net, u, runs, 77))


class TestConcurrentSeeds:
    """``spread_all`` runs seeds concurrently yet equals the serial per-seed loop."""

    @pytest.mark.parametrize("cpus", [None, 1, 3])
    @pytest.mark.parametrize("runs", [2, 65, 100, 4160])
    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_bundled_bit_identical(self, monkeypatch, name, runs, cpus):
        usable_cpus(monkeypatch, cpus)
        est = spread_all(NETWORKS[name], cfg(runs=runs, seed=2020))
        values, errors = bundled_one_by_one(name, runs)
        assert est.values.tolist() == values
        assert est.std_error.tolist() == errors

    @pytest.mark.parametrize("cpus", [None, 1, 3])
    @settings(max_examples=40, deadline=None)
    @given(weighted_digraphs(), st.integers(2, 200), st.integers(-2**63, 2**63 - 1))
    def test_random_digraphs_bit_identical(self, cpus, graph, runs, master_seed):
        net = Network.from_edges(*graph)
        config = cfg(runs=runs, seed=master_seed)
        with pytest.MonkeyPatch.context() as mp:
            usable_cpus(mp, cpus)
            est = spread_all(net, config)
        assert (est.values.tolist(), est.std_error.tolist()) == one_by_one(net, config)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_one_worker_per_usable_cpu(self, monkeypatch, cpus):
        usable_cpus(monkeypatch, cpus)
        workers = set()
        simulate = propagation._simulate_batch

        def recorded(*args):
            workers.add(threading.get_ident())
            return simulate(*args)

        monkeypatch.setattr(propagation, "_simulate_batch", recorded)
        # one seed per batch, so there are more batches than a right-sized pool has threads
        assert len(propagation._batches(30, 4160, cpus)) > cpus
        spread_all(ring_with_chords(30), cfg(runs=4160))
        assert 1 <= len(workers) <= cpus
        assert threading.get_ident() not in workers

    @staticmethod
    def started_before_stop(monkeypatch, net, config, hold=lambda seeds: None):
        """Seeds of the batches that started before ``progress`` raised at node 1.

        ``hold(seeds)`` runs on the worker as each batch starts.
        """
        started = []
        simulate = propagation._simulate_batch

        def counted(net, seeds, config):
            started.extend(seeds)
            hold(seeds)
            return simulate(net, seeds, config)

        def progress(done, total):
            raise RuntimeError(f"stop at {done}")

        monkeypatch.setattr(propagation, "_simulate_batch", counted)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="stop at 1"):
            spread_all(net, config, progress=progress)
        assert threading.active_count() == threads
        return started

    def test_progress_exception_cancels_pending_seeds(self, monkeypatch):
        net = ring_with_chords(120)
        started = self.started_before_stop(monkeypatch, net, cfg(runs=4160))
        assert 1 <= len(started) < net.node_count

    def test_progress_exception_cancels_later_batches(self, monkeypatch):
        # At 100 runs and one CPU the lone worker runs batches of 30 seeds in
        # node order.  It may start the second batch before the caller cancels,
        # but that batch then waits until the pool shuts down, which follows
        # the cancelling, so no later batch can start.
        usable_cpus(monkeypatch, 1)
        net = ring_with_chords(240)
        batches = propagation._batches(net.node_count, 100, 1)
        assert len(batches) > 2
        first, second = list(batches[0]), list(batches[1])
        shutting_down = threading.Event()

        class Pool(ThreadPoolExecutor):
            def shutdown(self, *args, **kwargs):
                shutting_down.set()
                super().shutdown(*args, **kwargs)

        def hold(seeds):
            if seeds[0] != 0:
                shutting_down.wait(timeout=60)

        monkeypatch.setattr(propagation, "ThreadPoolExecutor", Pool)
        started = self.started_before_stop(monkeypatch, net, cfg(runs=100), hold)
        assert started in (first, first + second)

    def test_rejects_probability_above_one(self):
        net = Network.from_edges(3, [(0, 1, 0.5), (1, 2, 1.5)])
        with pytest.raises(ValidationError, match="probabilities"):
            spread_all(net, cfg(runs=100))


class TestMemory:
    """A batch's buffers are sized by the chunk and the batch, not by edges x runs."""

    @staticmethod
    def within_the_buffers(monkeypatch, runs):
        workers = 2
        net = NETWORKS["synth_forum"]
        monkeypatch.setattr(propagation, "_usable_cpus", lambda: workers)
        spread_all(net, cfg(runs=130, seed=3))  # one-off allocations of a first call
        tracemalloc.start()
        try:
            spread_all(net, cfg(runs=runs, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m, n, words = net.edge_count, net.node_count, -(-runs // 64)
        # drawing: the float64 draws, a chunk's booleans and packed bytes, next
        # to the batch's live words; reaching: the live and fired words, the
        # frontier, idle and grouped-target words, the unpacked bits of at
        # most 64 words of columns and the counts
        drawing = propagation._DRAWS * m * 8 + propagation._CHUNK * m * (1 + 1 / 8) + 8 * m * words
        reaching = 16 * m * words + 24 * n * words + 64 * n * min(words, 64) + 512 * words
        assert peak <= 1.25 * workers * max(drawing, reaching)

    def test_traced_peak_within_the_buffers(self, monkeypatch):
        self.within_the_buffers(monkeypatch, 4160)

    def test_traced_peak_within_the_buffers_of_one_seed_batches(self, monkeypatch):
        # a batch is one seed of 313 words, and reaching outweighs drawing
        self.within_the_buffers(monkeypatch, 20000)
