import math

import numpy as np
import pytest

from spreadrank.centrality import (KATZ_ALPHA_FRACTION, _distances, betweenness,
                                   closeness, eigenvector, katz, kshell,
                                   spectral_radius_estimate, weighted_kshell)
from spreadrank.config import RunConfig
from spreadrank.errors import ParameterError
from spreadrank.graph import Network, ViewKind, WeightMode, apply_wcs, view
from spreadrank.measures import MeasureContext

from oracles import (bf_betweenness, bf_closeness, bf_core_numbers, bf_eigenvector,
                     bf_katz, dense_adjacency, floyd_warshall, random_connected_undirected,
                     random_digraph, random_undirected)


def reversed_network(net: Network) -> Network:
    return Network(net.node_count, net.dst, net.src, net.weight)


def sparse_digraph(rng, mean_out):
    """17-40 nodes, more than one 16-source block, with uniform probabilities."""
    n = int(rng.integers(17, 41))
    edges = [(u, v, float(rng.uniform(0.05, 1.0))) for u in range(n) for v in range(n)
             if u != v and rng.random() < mean_out / (n - 1)]
    return n, edges


def inverted(edges):
    """The distances an INVERTED view reads off cascade probabilities."""
    return [(u, v, 1.0 / w) for u, v, w in edges]


def undirected_edges(g):
    """Each pair of an undirected view once, with the view's weight."""
    half = g.edge_count // 2  # first half holds each collapsed pair once
    return [(int(u), int(v), float(w)) for u, v, w in zip(g.src[:half], g.dst[:half],
                                                           g.weight[:half])]


def grid(side):
    """Edges of a side x side lattice, node r * side + c at row r and column c."""
    return [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)] + \
        [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]


# graphs with many equal-length shortest paths between a pair
TIED = {
    "grid_4x4": (16, grid(4)),
    "k33": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "cycle_20": (20, [(u, (u + 1) % 20) for u in range(20)]),
}


def star(n=5):
    # center 0 with out-edges to 1..n-1
    return Network.from_edges(n, [(0, v) for v in range(1, n)])


def degree(net: Network) -> np.ndarray:
    return MeasureContext(net, RunConfig()).get("c_od")


def strength(net: Network) -> np.ndarray:
    return MeasureContext(net, RunConfig()).get("c_os")


class TestDegreeStrength:
    def test_star_out_degree(self):
        assert degree(star())[0] == 4.0

    def test_isolated_zero(self):
        net = Network.from_edges(3, [(0, 1)])
        assert degree(net)[2] == 0.0

    def test_in_total_split(self):
        net = Network.from_edges(3, [(0, 1), (2, 1)])
        assert degree(net).tolist() == [1.0, 0.0, 1.0]

    def test_undirected_counts_each_edge_once(self):
        # the view lists each edge in both directions, so its sources count the
        # degree that ks peels by
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        g = view(net, ViewKind.UU)
        assert np.bincount(g.src, minlength=g.n).tolist() == [1, 2, 1]

    def test_strength_sums_weights(self):
        net = Network.from_edges(3, [(0, 1, 0.5), (0, 2, 0.25)])
        assert strength(net)[0] == 0.75

    def test_unit_strength_equals_degree(self):
        rng = np.random.default_rng(0)
        n, edges = random_digraph(rng, max_n=7, weights="unit")
        net = Network.from_edges(n, edges)
        assert np.array_equal(strength(net), degree(net))

    def test_wcs_in_strength_counts_fed_nodes(self):
        # every edge leaves one node and enters another, so the out-strengths
        # add up to the in-strengths: 1 per node with an in-edge
        net = apply_wcs(Network.from_edges(4, [(0, 1), (2, 1), (1, 3), (0, 3)]))
        fed = int(np.sum(net.in_degree() > 0))
        assert math.isclose(strength(net).sum(), fed, abs_tol=1e-12)


class TestBetweenness:
    def test_path_midpoint_unordered(self):
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        g = view(net, ViewKind.UU)
        assert betweenness(g).tolist() == [0.0, 1.0, 0.0]

    def test_complete_graph_zero(self):
        edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
        g = view(Network.from_edges(4, edges), ViewKind.UU)
        assert np.all(betweenness(g) == 0.0)

    def test_directed_ordered_pairs(self):
        net = Network.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        g = view(net, ViewKind.DU)
        # every node sits on exactly one two-step shortest path
        assert betweenness(g).tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("directed,kind", [(True, ViewKind.DW), (False, ViewKind.UW)])
    def test_matches_path_enumeration(self, directed, kind):
        rng = np.random.default_rng(21 if directed else 22)
        for _ in range(15):
            n, edges = random_digraph(rng, max_n=6, weights="dyadic")
            if not edges:
                continue
            net = Network.from_edges(n, edges)
            g = view(net, kind)
            oracle_edges = edges if directed else undirected_edges(g)
            expected = bf_betweenness(n, oracle_edges, directed)
            np.testing.assert_allclose(betweenness(g), expected, atol=1e-9)

    # path enumeration grows fast with cycles, so the undirected graphs are sparser
    @pytest.mark.parametrize("kind, mean_out", [(ViewKind.DW, 1.2), (ViewKind.UW, 0.7)])
    def test_inverted_probabilities_match_path_enumeration(self, kind, mean_out):
        rng = np.random.default_rng(23)
        for small in (True,) * 10 + (False,) * 4:
            n, edges = (random_digraph(rng, max_n=7, weights="uniform") if small
                        else sparse_digraph(rng, mean_out))
            g = view(Network.from_edges(n, edges), kind, WeightMode.INVERTED)
            oracle_edges = inverted(edges) if kind is ViewKind.DW else undirected_edges(g)
            expected = bf_betweenness(n, oracle_edges, directed=kind is ViewKind.DW)
            np.testing.assert_allclose(betweenness(g), expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(TIED))
    @pytest.mark.parametrize("kind", [ViewKind.UU, ViewKind.UW])
    def test_tied_shortest_paths_split_the_pair(self, name, kind):
        n, pairs = TIED[name]
        # equal probabilities keep every path of a given hop count equally long
        g = view(Network.from_edges(n, [(u, v, 0.5) for u, v in pairs]), kind,
                 WeightMode.INVERTED)
        expected = bf_betweenness(n, undirected_edges(g), directed=False)
        np.testing.assert_allclose(betweenness(g), expected, rtol=1e-12, atol=1e-12)


class TestCloseness:
    def test_star_center_is_one(self):
        g = view(star(), ViewKind.DU)
        assert closeness(g)[0] == 1.0

    def test_sink_scores_zero(self):
        net = Network.from_edges(3, [(0, 1), (0, 2)])
        g = view(net, ViewKind.DU)
        assert closeness(g)[1] == 0.0

    def test_matches_floyd_warshall(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            n, edges = random_digraph(rng, max_n=6, weights="dyadic")
            net = Network.from_edges(n, edges)
            g = view(net, ViewKind.DW)
            np.testing.assert_allclose(closeness(g),
                                       bf_closeness(n, edges, directed=True), atol=1e-12)

    def test_inverted_probabilities_match_floyd_warshall(self):
        rng = np.random.default_rng(34)
        for small in (True,) * 10 + (False,) * 10:
            n, edges = (random_digraph(rng, max_n=7, weights="uniform") if small
                        else sparse_digraph(rng, mean_out=2.0))
            g = view(Network.from_edges(n, edges), ViewKind.DW, WeightMode.INVERTED)
            np.testing.assert_allclose(closeness(g),
                                       bf_closeness(n, inverted(edges), directed=True),
                                       rtol=1e-12, atol=0)


class TestDistances:
    @pytest.mark.parametrize("kind", [ViewKind.DU, ViewKind.DW, ViewKind.UW])
    def test_rows_match_floyd_warshall(self, kind):
        rng = np.random.default_rng(35)
        for _ in range(10):
            n, edges = sparse_digraph(rng, mean_out=2.0)
            g = view(Network.from_edges(n, edges), kind, WeightMode.INVERTED)
            expected = floyd_warshall(n, list(zip(g.src.tolist(), g.dst.tolist(),
                                                  g.weight.tolist())), directed=True)
            # a block of scattered sources, in no particular order
            sources = rng.choice(n, size=16, replace=False)
            np.testing.assert_allclose(_distances(g, sources), expected[sources],
                                       rtol=1e-12, atol=0)


class TestEigenvector:
    def test_regular_graph_uniform(self):
        edges = [(u, (u + 1) % 6) for u in range(6)]
        np.testing.assert_allclose(eigenvector(Network.from_edges(6, edges)), 1 / math.sqrt(6),
                                   atol=1e-8)

    def test_edge_plus_isolated(self):
        values = eigenvector(Network.from_edges(3, [(0, 1)]))
        np.testing.assert_allclose(values[:2], 1 / math.sqrt(2), atol=1e-8)
        assert values[2] < 1e-8

    def test_matches_dense_solver(self):
        rng = np.random.default_rng(44)
        for _ in range(15):
            n, edges = random_connected_undirected(rng, max_n=6)
            np.testing.assert_allclose(eigenvector(Network.from_edges(n, edges)),
                                       bf_eigenvector(n, edges), atol=1e-6)

    def test_rayleigh_residual_small(self):
        rng = np.random.default_rng(45)
        n, edges = random_connected_undirected(rng, max_n=8)
        net = Network.from_edges(n, edges)
        x = eigenvector(net)
        g = view(net, ViewKind.UU)
        a = dense_adjacency(g.n, zip(g.src, g.dst, g.weight))
        lam = x @ a @ x
        assert np.linalg.norm(a @ x - lam * x) < 1e-5


class TestKatz:
    def test_isolated_node_zero(self):
        net = Network.from_edges(2, [(0, 1)])
        g = view(net, ViewKind.DU)
        assert katz(g, True, alpha=0.3)[0] == 0.0

    def test_single_edge_incoming(self):
        net = Network.from_edges(2, [(0, 1)])
        g = view(net, ViewKind.DU)
        values = katz(g, True, alpha=0.5)
        np.testing.assert_allclose(values, [0.0, 0.5], atol=1e-10)

    def test_matches_truncated_series(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            n, edges = random_digraph(rng, max_n=5, weights="dyadic")
            if not edges:
                continue
            net = Network.from_edges(n, edges)
            g = view(net, ViewKind.DW)
            alpha = 0.5 / max(spectral_radius_estimate(g), 1.0)
            for outgoing in (False, True):
                np.testing.assert_allclose(katz(g, not outgoing, alpha),
                                           bf_katz(n, edges, alpha, outgoing), atol=1e-8)

    def test_incoming_equals_outgoing_on_reversed(self):
        rng = np.random.default_rng(56)
        n, edges = random_digraph(rng, max_n=7, weights="unit")
        net = Network.from_edges(n, edges)
        alpha = 0.3 / max(spectral_radius_estimate(view(net, ViewKind.DU)), 1.0)
        incoming = katz(view(net, ViewKind.DU), True, alpha)
        outgoing = katz(view(reversed_network(net), ViewKind.DU), False, alpha)
        np.testing.assert_allclose(incoming, outgoing, atol=1e-12)

    def test_divergent_alpha_rejected(self):
        edges = [(u, v) for u in range(4) for v in range(4) if u != v]
        g = view(Network.from_edges(4, edges), ViewKind.DU)
        with pytest.raises(ParameterError):
            katz(g, True, alpha=0.9)  # spectral radius 3

    def test_auto_alpha_converges(self):
        rng = np.random.default_rng(57)
        n, edges = random_digraph(rng, max_n=7)
        net = Network.from_edges(n, edges)
        g = view(net, ViewKind.DW)
        values = katz(g, False, None)
        assert np.all(np.isfinite(values))
        # the default is 0.85 over the spectral radius, or 0.85 itself when the
        # radius is 0 (an acyclic graph, as here)
        radius = spectral_radius_estimate(g)
        alpha = KATZ_ALPHA_FRACTION / radius if radius > 1e-12 else KATZ_ALPHA_FRACTION
        assert np.array_equal(values, katz(g, False, alpha))


class TestWeightScaleInvariance:
    def test_rankings_stable_under_weight_scaling(self):
        # strength, inverted-distance closeness, and betweenness rank the
        # same after multiplying all weights by a positive constant
        rng = np.random.default_rng(88)
        n, edges = random_digraph(rng, max_n=7, weights="random")
        net = Network.from_edges(n, edges)
        scaled = Network.from_edges(n, [(u, v, 3.75 * w) for u, v, w in edges])
        for builder in (
            lambda g: MeasureContext(g, RunConfig()).get("c_os"),
            lambda g: closeness(view(g, ViewKind.DW, WeightMode.INVERTED)),
            lambda g: betweenness(view(g, ViewKind.DW, WeightMode.INVERTED)),
        ):
            base = builder(net)
            other = builder(scaled)
            assert np.array_equal(np.lexsort((np.arange(n), base)),
                                  np.lexsort((np.arange(n), other)))


class TestKshell:
    def test_cycle_all_two(self):
        edges = [(u, (u + 1) % 5) for u in range(5)]
        assert np.all(kshell(Network.from_edges(5, edges)) == 2.0)

    def test_star_all_one(self):
        assert np.all(kshell(star()) == 1.0)

    def test_matches_subset_enumeration(self):
        rng = np.random.default_rng(66)
        for _ in range(15):
            n, edges = random_undirected(rng, max_n=8)
            np.testing.assert_array_equal(kshell(Network.from_edges(n, edges)),
                                          bf_core_numbers(n, edges))


class TestWeightedKshell:
    def test_star_collapses_like_unweighted_shell(self):
        # removing the mass-0 leaves drains the center, so all share shell 0
        net = Network.from_edges(3, [(0, 1, 0.5), (0, 2, 0.5)])
        values = weighted_kshell(net)
        assert values.tolist() == [0.0, 0.0, 0.0]

    def test_core_outranks_appendage(self):
        core = [(u, v, 1.0) for u in range(4) for v in range(4) if u != v]
        net = Network.from_edges(5, core + [(4, 0, 0.25)])
        values = weighted_kshell(net)
        assert values[4] < values[0]
        assert len(set(values[:4].tolist())) == 1

    def test_all_zero_out_strength(self):
        net = Network.from_edges(2, [(0, 1, 0.5)])
        wks = weighted_kshell(reversed_network(net))
        assert wks[0] >= 0.0

    def test_unit_weights_rank_like_out_degree_peel(self):
        # with unit weights the mass reduces to the out-degree, so the
        # shell ordering must match a plain out-degree peeling
        rng = np.random.default_rng(77)
        for _ in range(10):
            n, edges = random_digraph(rng, max_n=7, weights="unit")
            if not edges:
                continue
            net = Network.from_edges(n, edges)
            wks = weighted_kshell(net)
            plain = _out_degree_peel(net)
            order_a = np.argsort(wks, kind="stable")
            # same grouping: shells agree as partitions in the same order
            ranks_a = _partition_ranks(wks)
            ranks_b = _partition_ranks(plain)
            assert ranks_a == ranks_b, (wks, plain)

    def test_scale_levels_cover_range(self):
        net = apply_wcs(Network.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]))
        values = weighted_kshell(net)
        assert values.min() >= 0.0
        assert values.max() <= net.node_count

    @pytest.mark.parametrize("weights", ["dyadic", "uniform", "wcs"])
    def test_matches_per_node_levels(self, weights):
        # the same peel with every round's levels computed one node at a time
        rng = np.random.default_rng(78)
        for _ in range(40):
            n, edges = random_digraph(rng, max_n=14, p=0.3,
                                      weights="uniform" if weights == "wcs" else weights)
            net = Network.from_edges(n, edges)
            if weights == "wcs":
                net = apply_wcs(net)
            np.testing.assert_array_equal(weighted_kshell(net), _per_node_wks(net))

    def test_empty_network(self):
        assert weighted_kshell(Network.from_edges(0, [])).size == 0
        assert kshell(Network.from_edges(0, [])).size == 0


def _per_node_wks(net):
    """Reference weighted shell peel that computes each node's level on its own."""
    n = net.node_count
    cur_deg = net.out_degree().astype(np.float64)
    cur_str = net.out_strength()
    peak = max((math.sqrt(d * w) for d, w in zip(cur_deg, cur_str)), default=0.0)
    shell = [0] * n
    if peak == 0.0:
        return np.zeros(n)
    scale = n / peak
    alive = [True] * n
    incoming = [[] for _ in range(n)]
    for s, v, w in net.edges():
        incoming[v].append((s, w))

    def level(u):
        return int(math.floor(scale * math.sqrt(max(cur_deg[u] * cur_str[u], 0.0))))

    k = 0
    while any(alive):
        queue = [u for u in range(n) if alive[u] and level(u) <= k]
        if not queue:
            k += 1
        while queue:
            u = queue.pop()
            if not alive[u] or level(u) > k:
                continue
            alive[u] = False
            shell[u] = k
            for s, w in incoming[u]:
                if alive[s]:
                    cur_deg[s] -= 1
                    cur_str[s] -= w
                    if level(s) <= k:
                        queue.append(s)
    return np.array(shell, dtype=np.float64)


def _out_degree_peel(net):
    """Reference peeling on raw out-degree, recomputed on the live subgraph."""
    n = net.node_count
    alive = [True] * n
    out = [set() for _ in range(n)]
    incoming = [set() for _ in range(n)]
    for u, v, _ in net.edges():
        out[u].add(v)
        incoming[v].add(u)
    shell = [0] * n
    k = 0
    remaining = n
    while remaining:
        candidates = [u for u in range(n) if alive[u] and len(out[u]) <= k]
        if not candidates:
            k += 1
            continue
        for u in candidates:
            if not alive[u]:
                continue
            alive[u] = False
            shell[u] = k
            remaining -= 1
            for s in incoming[u]:
                out[s].discard(u)
    return np.array(shell, dtype=float)


def _partition_ranks(values):
    """Node ids grouped by value, ordered by ascending value."""
    order = sorted(set(values.tolist()))
    return [tuple(sorted(np.flatnonzero(values == v).tolist())) for v in order]
