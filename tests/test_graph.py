import numpy as np
import pytest

from spreadrank.errors import ParseError, ValidationError
from spreadrank.graph import Network, ViewKind, WeightMode, apply_wcs, orient_undirected, view
from spreadrank.storage import load_edge_list, read_canonical_network, write_edge_list


def write(tmp_path, text):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_unweighted_directed(self, tmp_path):
        net = load_edge_list(write(tmp_path, "0 1\n1 2\n"), False)
        assert net.node_count == 3
        assert net.edge_count == 2
        assert np.all(net.weight == 1.0)

    def test_duplicate_keeps_first_weight(self, tmp_path):
        net = load_edge_list(write(tmp_path, "0 1 0.5\n0 1 0.7\n"), True)
        assert net.edge_count == 1
        assert net.weight[0] == 0.5
        assert net.duplicates_dropped == 1

    def test_self_loops_dropped_and_counted(self, tmp_path):
        net = load_edge_list(write(tmp_path, "0 0\n0 1\n1 1\n"), False)
        assert net.edge_count == 1
        assert net.self_loops_dropped == 2

    def test_comments_and_blank_lines(self, tmp_path):
        net = load_edge_list(write(tmp_path, "# header\n% konect header\n\n3 4\n"), False)
        assert net.edge_count == 1

    def test_first_seen_dense_remap(self, tmp_path):
        net = load_edge_list(write(tmp_path, "9 must\nmust 9\nalpha 9\n"), False)
        assert net.labels == ("9", "must", "alpha")
        assert (net.src.tolist(), net.dst.tolist()) == ([0, 1, 2], [1, 0, 0])

    def test_malformed_line_reports_number(self, tmp_path):
        with pytest.raises(ParseError, match="line 2"):
            load_edge_list(write(tmp_path, "0 1\n0 1 2 3\n"), False)

    def test_bad_weight_token(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list(write(tmp_path, "0 1 heavy\n"), True)

    def test_non_positive_weight_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="weight 0.0 must be finite and positive"):
            load_edge_list(write(tmp_path, "0 1 0\n"), True)

    def test_third_column_ignored_when_unweighted(self, tmp_path):
        net = load_edge_list(write(tmp_path, "0 1 7.5\n"), False)
        assert net.weight[0] == 1.0

    def test_missing_weight_defaults_to_one(self, tmp_path):
        net = load_edge_list(write(tmp_path, "0 1 0.5\n1 2\n"), True)
        assert net.weight.tolist() == [0.5, 1.0]

    def test_roundtrip_identical(self, tmp_path):
        net = load_edge_list(write(tmp_path, "0 1 0.25\n2 0 0.125\n1 2 1\n"), True)
        out = tmp_path / "canonical.edges"
        write_edge_list(net, out, comments={})
        back = read_canonical_network(out)
        assert back.node_count == net.node_count
        assert np.array_equal(back.src, net.src)
        assert np.array_equal(back.dst, net.dst)
        assert np.array_equal(back.weight, net.weight)


class TestNetworkInvariants:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            Network.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(ValidationError):
            Network.from_edges(2, [(0, 1), (0, 1)])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValidationError):
            Network.from_edges(2, [(0, 1, -0.5)])

    def test_rejects_out_of_range_id(self):
        with pytest.raises(ValidationError):
            Network.from_edges(2, [(0, 5)])

    def test_arrays_immutable(self):
        net = Network.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            net.weight[0] = 2.0


class TestOrientUndirected:
    def test_flips_larger_source(self):
        net = Network.from_edges(6, [(5, 2, 0.5)])
        out = orient_undirected(net)
        assert list(out.edges()) == [(2, 5, 0.5)]

    def test_keeps_oriented_edge(self):
        net = Network.from_edges(6, [(2, 5, 0.5)])
        assert list(orient_undirected(net).edges()) == [(2, 5, 0.5)]

    def test_reciprocal_pair_collapses(self):
        net = Network.from_edges(4, [(3, 1, 0.5), (1, 3, 0.25)])
        out = orient_undirected(net)
        assert list(out.edges()) == [(1, 3, 0.5)]
        assert out.duplicates_dropped == 1

    def test_idempotent(self):
        net = Network.from_edges(5, [(4, 0), (1, 3), (3, 2)])
        once = orient_undirected(net)
        twice = orient_undirected(once)
        assert np.array_equal(once.src, twice.src)
        assert np.array_equal(once.dst, twice.dst)
        assert np.array_equal(once.weight, twice.weight)


class TestApplyWcs:
    def test_in_degree_two_halves(self):
        net = Network.from_edges(3, [(0, 2), (1, 2)])
        out = apply_wcs(net)
        assert np.all(out.weight == 0.5)

    def test_in_degree_one_is_unit(self):
        net = Network.from_edges(2, [(0, 1)])
        assert apply_wcs(net).weight[0] == 1.0

    def test_star_center_quarters(self):
        net = Network.from_edges(5, [(1, 0), (2, 0), (3, 0), (4, 0)])
        assert np.all(apply_wcs(net).weight == 0.25)

    def test_incoming_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            edges = [(u, v) for u in range(n) for v in range(n)
                     if u != v and rng.random() < 0.4]
            if not edges:
                continue
            net = apply_wcs(Network.from_edges(n, edges))
            sums = np.bincount(net.dst, weights=net.weight, minlength=n)
            indeg = net.in_degree()
            assert np.allclose(sums[indeg > 0], 1.0, atol=1e-12)


class TestViews:
    def setup_method(self):
        self.net = Network.from_edges(3, [(0, 1, 0.25), (2, 1, 0.5)])

    def test_dw_view_is_identity(self):
        g = view(self.net, ViewKind.DW)
        assert np.array_equal(g.weight, self.net.weight)
        assert not g.undirected

    def test_uu_view_bidirectional_unit(self):
        g = view(self.net, ViewKind.UU)
        assert g.edge_count == 4  # 2 undirected pairs, both directions
        assert np.all(g.weight == 1.0)
        targets = g.dst[g.src == 1]
        assert sorted(targets.tolist()) == [0, 2]

    def test_inverted_weights(self):
        g = view(self.net, ViewKind.DW, WeightMode.INVERTED)
        assert g.weight[0] == 4.0
        assert g.weight[1] == 2.0

    def test_view_deterministic(self):
        a = view(self.net, ViewKind.UW, WeightMode.INVERTED)
        b = view(self.net, ViewKind.UW, WeightMode.INVERTED)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)
        assert np.array_equal(a.weight, b.weight)

    def test_reciprocal_edges_collapse_keep_first(self):
        net = Network.from_edges(2, [(0, 1, 0.25), (1, 0, 0.5)])
        g = view(net, ViewKind.UW)
        assert g.edge_count == 2  # one pair in both directions
        assert set(g.weight.tolist()) == {0.25}
