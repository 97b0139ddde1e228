import numpy as np
import pytest

from spreadrank.errors import UndefinedCorrelationError, ValidationError
from spreadrank.propagation import SpreadEstimate
from spreadrank.ranking import (EvaluationReport, MeasureMetrics, _inversions, aggregate,
                                evaluate_measures, kendall_tau, monotonicity,
                                ranking_error, top_k_nodes)

from oracles import bf_kendall, bf_monotonicity, bf_ranking_error


def spread_of(values):
    arr = np.asarray(values, dtype=float)
    return SpreadEstimate(arr, np.zeros_like(arr), runs=2, master_seed=0)


class TestKendallTau:
    def test_identity_is_one(self):
        x = np.array([3.0, 1.0, 2.0, 5.0])
        assert kendall_tau(x, x) == 1.0

    def test_reversal_is_minus_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert kendall_tau(x, -x) == -1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        x, y = rng.random(50), rng.integers(0, 5, 50).astype(float)
        assert kendall_tau(x, y) == pytest.approx(kendall_tau(y, x), abs=1e-15)

    def test_matches_quadratic_oracle_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 60))
            x = rng.integers(0, 6, n).astype(float)
            y = rng.integers(0, 6, n).astype(float)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert abs(kendall_tau(x, y) - bf_kendall(x, y)) <= 1e-12

    def test_matches_scipy(self):
        from scipy.stats import kendalltau as scipy_tau
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(3, 80))
            x = np.round(rng.random(n), 1)
            y = np.round(rng.random(n), 1)
            if np.unique(x).size < 2 or np.unique(y).size < 2:
                continue
            expected = scipy_tau(x, y).statistic
            assert kendall_tau(x, y) == pytest.approx(expected, abs=1e-12)

    def test_constant_input_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            kendall_tau(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(3)
        x = rng.random(40)
        y = rng.integers(0, 10, 40).astype(float)
        base = kendall_tau(x, y)
        assert kendall_tau(np.exp(5 * x), y) == pytest.approx(base, abs=1e-12)
        assert kendall_tau(x, 3 * y + 7) == pytest.approx(base, abs=1e-12)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            kendall_tau(np.array([1.0]), np.array([2.0]))

    def test_signed_zeros_are_tied(self):
        x = np.array([-0.0, 0.0, 1.0, -0.0, 2.0])
        y = np.array([3.0, 1.0, 2.0, 0.0, -0.0])
        assert kendall_tau(x, y) == pytest.approx(bf_kendall(x, y), abs=1e-15)
        assert kendall_tau(x, y) == kendall_tau(np.abs(x), np.abs(y))

    def test_heavily_tied_inputs(self):
        from scipy.stats import kendalltau as scipy_tau
        rng = np.random.default_rng(14)
        for levels in (2, 3):
            x = rng.integers(0, levels, 300).astype(float)
            y = x + rng.integers(0, 2, 300)
            expected = scipy_tau(x, y).statistic
            assert kendall_tau(x, y) == pytest.approx(expected, abs=1e-12)
            assert kendall_tau(x, y) == pytest.approx(bf_kendall(x, y), abs=1e-12)

    def test_one_distinct_pair_in_many_ties(self):
        x = np.zeros(100)
        x[0] = 1.0
        y = np.zeros(100)
        y[0] = 1.0
        assert kendall_tau(x, y) == 1.0
        assert kendall_tau(x, -y) == -1.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([bad, 1.0, bad, 2.0])
        with pytest.raises(ValidationError, match="finite"):
            kendall_tau(x, y)
        with pytest.raises(ValidationError, match="finite"):
            kendall_tau(y, x)


class TestInversions:
    @staticmethod
    def quadratic(ranks):
        return int(sum(np.count_nonzero(ranks[i] > ranks[i + 1:]) for i in range(ranks.size)))

    @pytest.mark.parametrize("ranks", [
        [], [0], [5], [3, 3, 3, 3], [0, 0], [1, 0], [0, 1],
        list(range(40, -1, -1)), list(range(41)),
        [40_000, 0, 32_768, 32_767, 1, 40_000, 65_535, 0],
    ], ids=["empty", "one_zero", "one", "all_equal", "two_equal", "two_inverted",
            "two_sorted", "strictly_decreasing", "strictly_increasing", "wide"])
    def test_edge_cases(self, ranks):
        ranks = np.array(ranks, dtype=np.int64)
        assert _inversions(ranks) == self.quadratic(ranks)

    @pytest.mark.parametrize("high", [2, 7, 64, 1 << 15, 1 << 20])
    def test_matches_quadratic_count(self, high):
        rng = np.random.default_rng(high)
        for _ in range(30):
            ranks = rng.integers(0, high, int(rng.integers(0, 120)))
            assert _inversions(ranks) == self.quadratic(ranks)

    def test_ranks_spanning_many_bits(self):
        ranks = np.random.default_rng(13).integers(0, 1 << 17, 400)
        assert int(ranks.max()).bit_length() >= 15
        assert _inversions(ranks) == self.quadratic(ranks)


class TestRankingError:
    def test_perfect_topk_zero(self):
        scores = np.array([5.0, 4.0, 1.0, 0.5])
        spread = spread_of([9.0, 8.0, 1.0, 1.0])
        assert ranking_error(scores, spread, 2) == 0.0

    def test_tie_break_by_node_id(self):
        scores = np.array([1.0, 1.0])
        spread = spread_of([2.0, 1.0])
        assert ranking_error(scores, spread, 1) == 0.0

    def test_worst_pick(self):
        scores = np.array([0.0, 1.0])
        spread = spread_of([3.0, 1.0])
        assert ranking_error(scores, spread, 1) == pytest.approx(1 - 1 / 3)

    def test_bounded_by_one_and_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            scores = rng.random(n)
            spread = spread_of(1.0 + rng.random(n) * 9)
            k = int(rng.integers(1, n + 1))
            eps = ranking_error(scores, spread, k)
            assert 0.0 <= eps <= 1.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            scores = rng.integers(0, 5, n).astype(float)
            spread = 1.0 + rng.integers(0, 5, n).astype(float)
            k = int(rng.integers(1, n + 1))
            got = ranking_error(scores, spread_of(spread), k)
            assert got == bf_ranking_error(scores, spread, k)

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            ranking_error(np.ones(3), spread_of([1, 1, 1]), 4)

    def test_top_k_ordering(self):
        values = np.array([1.0, 3.0, 3.0, 2.0])
        assert top_k_nodes(values, 3).tolist() == [1, 2, 3]


class TestMonotonicity:
    def test_all_distinct_one(self):
        assert monotonicity(np.array([1.0, 2.0, 3.0])) == 1.0

    def test_all_tied_zero(self):
        assert monotonicity(np.array([2.0, 2.0, 2.0])) == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 50))
            values = rng.integers(0, 8, n).astype(float)
            assert monotonicity(values) == bf_monotonicity(values)

    def test_float_noise_grouped(self):
        values = np.array([0.1 + 1e-15, 0.1, 0.5])
        assert monotonicity(values) == monotonicity(np.array([0.1, 0.1, 0.5]))

    def test_monotone_transform_invariant(self):
        rng = np.random.default_rng(7)
        values = rng.integers(0, 5, 30).astype(float)
        assert monotonicity(values) == monotonicity(values * 2.0 + 1.0)

    def test_too_short(self):
        with pytest.raises(ValidationError):
            monotonicity(np.array([1.0]))

    def test_signed_zeros_are_tied(self):
        values = np.array([-0.0, 0.0, 1e-13, -1e-13, 1.0])
        assert monotonicity(values) == bf_monotonicity(values)
        assert monotonicity(values) == monotonicity(np.array([0.0, 0.0, 0.0, 0.0, 1.0]))

    def test_heavily_tied(self):
        values = np.random.default_rng(15).integers(0, 2, 500).astype(float)
        assert monotonicity(values) == bf_monotonicity(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            monotonicity(np.array([1.0, bad, 2.0, bad]))


def report_for(dataset, node_count=120, density=0.1, **measures):
    metrics = {mid: MeasureMetrics(tau=None, tau_norm=vals[0], epsilon=None,
                                   epsilon_norm=vals[1], monotonicity=vals[2])
               for mid, vals in measures.items()}
    return EvaluationReport(dataset, node_count, density, metrics)


class TestAggregate:
    def test_single_dataset_identity(self):
        report = report_for("one", m=(1.25, 0.5, 0.9))
        agg = aggregate([report])
        assert agg.metrics["m"].tau_norm == pytest.approx(1.25)
        assert agg.metrics["m"].epsilon_norm == pytest.approx(0.5)
        assert agg.metrics["m"].monotonicity == pytest.approx(0.9)

    def test_geometric_mean_of_reciprocal_pair(self):
        reports = [report_for("a", m=(2.0, 2.0, 1.0)), report_for("b", m=(0.5, 0.5, 1.0))]
        agg = aggregate(reports)
        assert agg.metrics["m"].tau_norm == pytest.approx(1.0)
        assert agg.metrics["m"].epsilon_norm == pytest.approx(1.0)

    def test_absolute_values_used(self):
        reports = [report_for("a", m=(-2.0, 1.0, 1.0)), report_for("b", m=(0.5, 1.0, 1.0))]
        assert aggregate(reports).metrics["m"].tau_norm == pytest.approx(1.0)

    def test_small_datasets_excluded_from_epsilon(self):
        big = report_for("big", node_count=150, m=(1.0, 0.25, 1.0))
        small = report_for("small", node_count=40, m=(1.0, 0.9, 1.0))
        agg = aggregate([big, small])
        assert agg.metrics["m"].epsilon_norm == pytest.approx(0.25)

    def test_idempotent_on_identical_reports(self):
        report = report_for("x", m=(1.1, 0.4, 0.8))
        agg = aggregate([report, report, report])
        assert agg.metrics["m"].tau_norm == pytest.approx(1.1)

    def test_zero_value_collapses_mean(self):
        reports = [report_for("a", m=(1.0, 1.0, 0.0)), report_for("b", m=(1.0, 1.0, 0.9))]
        assert aggregate(reports).metrics["m"].monotonicity == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate([])

    def test_reference_column_geomean(self):
        # 50 out-strength correlation ratios with a known published
        # geometric mean of absolute values
        ratios = [
            1.07219, 0.94924, 1.84211, 1.16988, 1.5771, 1.28397, 1.22785,
            1.31375, 1.85412, 1.28085, 1.28252, 1.27881, 1.80561, 1.27496,
            1.29699, 1.25598, 0.91424, 1.35408, 1.22492, 1.37423, 1.31528,
            1.27759, 1.30586, 1.27992, 1.32182, 1.32177, 1.34677, 1.28519,
            1.41447, 1.26233, 1.57412, 1.31767, 1.28138, 1.28599, 1.39533,
            0.76081, 1.35247, 1.00791, 1.3052, 1.38879, 1.36419, 1.1923,
            1.29742, 1.28638, 1.35853, 1.37173, 1.34588, 1.30968, 1.29675,
            1.37833,
        ]
        reports = [report_for(f"d{i}", m=(value, 1.0, 1.0))
                   for i, value in enumerate(ratios)]
        agg = aggregate(reports)
        assert agg.metrics["m"].tau_norm == pytest.approx(1.29864, abs=5e-6)


class TestEvaluateMeasures:
    def _scores(self, n, rng):
        return {
            "c_od": rng.integers(0, 6, n).astype(float),
            "c_os": rng.random(n),
            "probe": rng.random(n),
        }

    def test_measure_equal_to_spread_scores_perfectly(self):
        rng = np.random.default_rng(8)
        n = 60
        spread_values = 1.0 + rng.random(n) * 5
        scores = self._scores(n, rng)
        scores["probe"] = spread_values.copy()
        report = evaluate_measures("d", n, 0.1, scores, spread_of(spread_values), k=10)
        assert report.metrics["probe"].tau == pytest.approx(1.0)
        assert report.metrics["probe"].epsilon == 0.0

    def test_constant_measure_reported_as_none(self):
        rng = np.random.default_rng(9)
        n = 30
        scores = self._scores(n, rng)
        scores["probe"] = np.full(n, 2.5)
        report = evaluate_measures("d", n, 0.1, scores, spread_of(1 + rng.random(n)), k=5)
        assert report.metrics["probe"].tau is None
        assert report.metrics["probe"].monotonicity == 0.0

    def test_normalization_against_baselines(self):
        rng = np.random.default_rng(10)
        n = 50
        spread_values = 1.0 + rng.random(n)
        scores = self._scores(n, rng)
        report = evaluate_measures("d", n, 0.1, scores, spread_of(spread_values), k=10)
        m = report.metrics
        assert m["c_od"].tau_norm == pytest.approx(1.0)
        assert m["c_os"].epsilon_norm is None or m["c_os"].epsilon_norm == pytest.approx(1.0)
        probe = m["probe"]
        assert probe.tau_norm == pytest.approx(probe.tau / m["c_od"].tau)

    def test_each_metric_computed_once_per_measure(self, monkeypatch):
        from spreadrank import ranking
        rng = np.random.default_rng(12)
        n = 40
        scores = self._scores(n, rng)
        spread = spread_of(1 + rng.random(n))
        expected = evaluate_measures("d", n, 0.1, scores, spread, k=10)
        calls = {"kendall_tau": [], "ranking_error": []}
        ids = {id(values): measure_id for measure_id, values in scores.items()}
        for name, seen in calls.items():
            def counted(values, *rest, _original=getattr(ranking, name), _seen=seen):
                _seen.append(ids[id(values)])
                return _original(values, *rest)
            monkeypatch.setattr(ranking, name, counted)
        report = evaluate_measures("d", n, 0.1, scores, spread, k=10)
        assert report == expected
        assert calls == {"kendall_tau": list(scores), "ranking_error": list(scores)}

    def test_requires_baselines(self):
        with pytest.raises(ValidationError):
            evaluate_measures("d", 3, 0.1, {"x": np.ones(3)},
                              spread_of([1, 1, 1]), k=1)

    def test_topk_larger_than_graph_skips_epsilon(self):
        rng = np.random.default_rng(11)
        n = 20
        scores = self._scores(n, rng)
        report = evaluate_measures("d", n, 0.1, scores, spread_of(1 + rng.random(n)), k=50)
        assert report.metrics["c_os"].epsilon is None
