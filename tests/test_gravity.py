import numpy as np
import pytest

from spreadrank.centrality import _distances, gravity, kshell
from spreadrank.config import RunConfig
from spreadrank.errors import ValidationError
from spreadrank.graph import Network, ViewKind, WeightMode, apply_wcs, view
from spreadrank.measures import MeasureContext, _ods

from oracles import bf_gravity, bf_hop_set, random_digraph
from test_centrality import inverted, sparse_digraph, undirected_edges


def rhop_neighborhood(net, u, r):
    """Nodes other than ``u`` within ``r`` directed edges, by the hop-limited search."""
    (hops,) = _distances(view(net, ViewKind.DW), np.array([u]), hops=r)
    return set(np.flatnonzero(np.isfinite(hops)).tolist()) - {u}


class TestHopNeighborhood:
    def test_isolated_empty(self):
        net = Network.from_edges(2, [(1, 0)])
        assert rhop_neighborhood(net, 0, 3) == set()

    def test_path_three_hops(self):
        net = Network.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert rhop_neighborhood(net, 0, 3) == {1, 2, 3}

    def test_excludes_self_on_cycle(self):
        net = Network.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert rhop_neighborhood(net, 0, 3) == {1, 2}

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n, edges = random_digraph(rng, max_n=10, p=0.25)
            net = Network.from_edges(n, edges)
            u = int(rng.integers(0, n))
            r = int(rng.integers(1, 4))
            assert rhop_neighborhood(net, u, r) == bf_hop_set(n, edges, u, r)

    def test_hop_sets_of_a_block_match_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            n, edges = sparse_digraph(rng, mean_out=2.0)
            # hops count edges whatever the weights
            g = view(Network.from_edges(n, edges), ViewKind.DW, WeightMode.INVERTED)
            sources = rng.choice(n, size=16, replace=False)
            r = int(rng.integers(1, 4))
            for u, row in zip(sources.tolist(), _distances(g, sources, hops=r)):
                assert set(np.flatnonzero(np.isfinite(row)).tolist()) - {u} == \
                    bf_hop_set(n, edges, u, r)


class TestGravityKernel:
    def test_zero_mass_zero_scores(self):
        net = Network.from_edges(3, [(0, 1), (1, 2)])
        g = view(net, ViewKind.DW, WeightMode.INVERTED)
        out = gravity(g, np.zeros(3), 3)
        assert np.all(out == 0.0)

    def test_node_with_zero_mass_scores_zero(self):
        net = Network.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        g = view(net, ViewKind.DW)
        out = gravity(g, np.array([0.0, 2.0, 3.0]), 3)
        assert out[0] == 0.0
        assert out[1] > 0.0

    def test_two_node_single_term(self):
        net = Network.from_edges(2, [(0, 1, 1.0)])
        g = view(net, ViewKind.DW)
        out = gravity(g, np.array([2.0, 3.0]), 3)
        assert out.tolist() == [6.0, 0.0]

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            n, edges = random_digraph(rng, max_n=8, p=0.3, weights="dyadic")
            if not edges:
                continue
            net = Network.from_edges(n, edges)
            g = view(net, ViewKind.DW)
            mass = rng.random(n) * 3
            for r in (1, 2, 3):
                np.testing.assert_allclose(
                    gravity(g, mass, r),
                    bf_gravity(n, edges, mass, r, directed=True), atol=1e-9)

    # the oracle's Floyd-Warshall per node is slow on wide neighborhoods
    @pytest.mark.parametrize("kind, mean_out", [(ViewKind.DW, 2.0), (ViewKind.UU, 1.0)])
    def test_inverted_probabilities_match_double_loop_oracle(self, kind, mean_out):
        rng = np.random.default_rng(13)
        for small in (True,) * 8 + (False,) * 8:
            n, edges = (random_digraph(rng, max_n=8, p=0.3, weights="uniform") if small
                        else sparse_digraph(rng, mean_out))
            g = view(Network.from_edges(n, edges), kind, WeightMode.INVERTED)
            oracle_edges = inverted(edges) if kind is ViewKind.DW else undirected_edges(g)
            # zero masses between nonzero ones, so the source blocks skip nodes
            mass = rng.random(n) * (rng.random(n) < 0.6)
            for r in (1, 2, 3):
                np.testing.assert_allclose(
                    gravity(g, mass, r),
                    bf_gravity(n, oracle_edges, mass, r, directed=kind is ViewKind.DW),
                    rtol=1e-12, atol=0)

    def test_radius_growth_never_decreases(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n, edges = random_digraph(rng, max_n=8, p=0.3)
            net = Network.from_edges(n, edges)
            g = view(net, ViewKind.DW, WeightMode.INVERTED)
            mass = rng.random(n)
            previous = gravity(g, mass, 1)
            for r in (2, 3, 4):
                current = gravity(g, mass, r)
                assert np.all(current >= previous - 1e-12)
                previous = current

    def test_classic_formula_by_hand(self):
        # square 0-1-2-3-0 plus chord 0-2, undirected unit distances
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
        net = Network.from_edges(4, edges)
        ks = kshell(net)
        assert ks.tolist() == [2.0, 2.0, 2.0, 2.0]
        out = gravity(view(net, ViewKind.UU), ks, 3)
        # node 0: neighbors 1,2,3 all at distance 1 -> 3 * (2*2)/1
        assert out[0] == 12.0
        assert MeasureContext(net, RunConfig()).get("gc").tolist() == out.tolist()


class TestMasses:
    def test_ods_product(self):
        net = Network.from_edges(3, [(0, 1, 0.25), (0, 2, 0.25)])
        values = _ods(net)
        assert values[0] == 2 * 0.5
        assert values[1] == 0.0

    def test_ods_degree_three_half_strength(self):
        net = Network.from_edges(4, [(0, 1, 0.25), (0, 2, 0.125), (0, 3, 0.125)])
        assert _ods(net)[0] == 1.5

    def test_out_degree_zero_all_zero(self):
        net = Network.from_edges(2, [(0, 1, 0.5)])
        assert _ods(net)[1] == 0.0
        assert MeasureContext(net, RunConfig()).get("mgc_wk")[1] == 0.0

    def test_wk_multiplies_katz(self):
        # a 0.5-cycle: every node's mass is ods 0.5 times the same Katz score,
        # its successor sits at inverted distance 2 and the next node at 4
        net = Network.from_edges(3, [(0, 1, 0.5), (1, 2, 0.5), (2, 0, 0.5)])
        ctx = MeasureContext(net, RunConfig())
        mass = 0.5 * ctx.get("c_katz_dw_out")[0]
        np.testing.assert_allclose(ctx.get("mgc_wk"), mass ** 2 * (1 / 4 + 1 / 16), rtol=1e-12)


class TestMGC:
    def test_complete_digraph_unit_strength(self):
        edges = [(u, v, 1.0) for u in range(3) for v in range(3) if u != v]
        net = Network.from_edges(3, edges)
        unit = gravity(view(net, ViewKind.DW, WeightMode.INVERTED), np.ones(3), 3)
        assert unit.tolist() == [2.0, 2.0, 2.0]
        # out-strength 2 everywhere: two neighbors at distance 1, each 2 * 2
        assert MeasureContext(net, RunConfig()).get("mgc_s").tolist() == [8.0, 8.0, 8.0]

    def test_zero_sk3_all_zero(self):
        net = Network.from_edges(3, [(0, 1, 0.5), (1, 2, 0.5)])
        dw_inv = view(net, ViewKind.DW, WeightMode.INVERTED)
        out = gravity(dw_inv, np.zeros(3), 3)
        assert np.all(out == 0.0)

    def test_unknown_variant(self):
        net = Network.from_edges(2, [(0, 1, 0.5)])
        with pytest.raises(ValidationError):
            MeasureContext(net, RunConfig()).get("mgc_bogus")

    @pytest.mark.parametrize("variant, mass", [
        ("ods", lambda ctx: _ods(ctx.net)),
        ("s", lambda ctx: ctx.get("c_os")),
        ("sc", lambda ctx: ctx.get("sc1")),
        ("sk", lambda ctx: ctx.get("sk3")),
        ("wk", lambda ctx: _ods(ctx.net) * ctx.get("c_katz_dw_out")),
    ])
    def test_registry_passes_mass_to_gravity(self, variant, mass):
        rng = np.random.default_rng(11)
        n, edges = random_digraph(rng, max_n=8, p=0.35)
        net = apply_wcs(Network.from_edges(n, edges))
        ctx = MeasureContext(net, RunConfig())
        expected = gravity(view(net, ViewKind.DW, WeightMode.INVERTED), mass(ctx), 3)
        assert np.array_equal(ctx.get(f"mgc_{variant}"), expected)

    def test_gc_weighted_composition(self):
        # equals assembling the pieces by hand
        from spreadrank.centrality import weighted_kshell
        rng = np.random.default_rng(10)
        n, edges = random_digraph(rng, max_n=7, p=0.35)
        net = apply_wcs(Network.from_edges(n, edges))
        direct = MeasureContext(net, RunConfig()).get("gc_w")
        dw_inv = view(net, ViewKind.DW, WeightMode.INVERTED)
        assembled = gravity(dw_inv, weighted_kshell(net), 3)
        np.testing.assert_allclose(direct, assembled, atol=0)

    def test_distances_use_inverted_weights(self):
        # strong tie (p=1) at distance 1, weak tie (p=0.25) at distance 4
        net = Network.from_edges(3, [(0, 1, 1.0), (0, 2, 0.25)])
        mass = np.array([1.0, 1.0, 1.0])
        out = gravity(view(net, ViewKind.DW, WeightMode.INVERTED), mass, 3)
        assert np.isclose(out[0], 1.0 / 1.0 + 1.0 / 16.0)
