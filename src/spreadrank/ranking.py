"""Ranking performance measures and their aggregation across datasets.

Three per-measure statistics are produced against the simulated spread:
tie-corrected Kendall correlation, top-k ranking error (spread mass missed
by a measure's top-k versus the true top-k), and ranking monotonicity (a
squared fraction-of-non-ties statistic).  Dataset-level values are
normalized against baselines (out-degree for correlation, out-strength for
error) and aggregated with geometric means of absolute values.

Tied pairs are counted from the group sizes ``np.unique`` returns; discordant
pairs are the inversions of integer ranks, counted bit by bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedCorrelationError, ValidationError
from .propagation import SpreadEstimate

EPSILON_AGG_MIN_NODES = 100  # datasets below this are excluded from error aggregation
RANK_DECIMALS = 12
AGGREGATE = "__geomean__"  # the dataset name of the aggregate's rows; no dataset may take it


def _pairs(counts: np.ndarray) -> int:
    """Pairs inside groups of the given sizes: the sum of c(c-1)/2."""
    return int(np.sum(counts * (counts - 1) // 2))


def _inversions(ranks: np.ndarray) -> int:
    """Count pairs (i, j), i < j, with ranks[i] > ranks[j], for ranks >= 0.

    Such a pair first differs at a bit where ranks[i] holds the 1.  So per
    bit, a stable sort groups positions by the bits above it, in order, and
    each 0 counts the 1s before it in its group.
    """
    inversions = 0
    for b in range(int(ranks.max(initial=0)).bit_length()):
        high = ranks >> (b + 1)
        order = np.argsort(high, kind="stable")
        group = high[order]
        ones = (ranks[order] >> b) & 1
        before = np.cumsum(ones) - ones  # 1s before each position, over all groups
        head = np.concatenate(([True], group[1:] != group[:-1]))
        before -= np.maximum.accumulate(np.where(head, before, 0))
        inversions += int(before[ones == 0].sum())
    return inversions


def kendall_tau(x: np.ndarray, y: np.ndarray) -> float:
    """Tie-corrected Kendall correlation between two score vectors.

    Tied pairs come from the group sizes of x, of y and of the joint (x, y)
    key; discordant pairs are the inversions of y's integer ranks in (x, y)
    order.  Raises :class:`UndefinedCorrelationError` when either input is
    all ties, and :class:`ValidationError` on non-finite input.
    """
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError("kendall_tau inputs must be equal-length vectors")
    n = x.size
    if n < 2:
        raise ValidationError("kendall_tau needs at least two observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("kendall_tau inputs must be finite")
    _, rx, cx = np.unique(x, return_inverse=True, return_counts=True)
    _, ry, cy = np.unique(y, return_inverse=True, return_counts=True)
    n0 = n * (n - 1) // 2
    n1, n2 = _pairs(cx), _pairs(cy)
    n3 = _pairs(np.unique(rx * cy.size + ry, return_counts=True)[1])
    if n0 == n1 or n0 == n2:
        raise UndefinedCorrelationError("correlation undefined: an input is constant")
    discordant = _inversions(ry[np.lexsort((ry, rx))])
    concordant_minus_discordant = n0 - n1 - n2 + n3 - 2 * discordant
    return concordant_minus_discordant / math.sqrt((n0 - n1) * (n0 - n2))


def top_k_nodes(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values; ties break toward smaller node ids."""
    n = values.size
    order = np.lexsort((np.arange(n), -values))
    return order[:k]


def ranking_error(scores: np.ndarray, spread: SpreadEstimate, k: int) -> float:
    """One minus the spread mass captured by the measure's top-k.

    The reference set is the spread-optimal top-k, so the result is always
    at most 1 and non-negative.
    """
    f = spread.values
    n = f.size
    if scores.size != n:
        raise ValidationError("scores and spread must cover the same node set")
    if not 1 <= k <= n:
        raise ValidationError(f"top-k size {k} out of range for {n} nodes")
    chosen = top_k_nodes(scores, k)
    optimal = top_k_nodes(f, k)
    return 1.0 - float(f[chosen].sum()) / float(f[optimal].sum())


def monotonicity(scores: np.ndarray) -> float:
    """Squared fraction of distinguishable pairs in a ranking, in [0, 1].

    Scores equal after rounding to 12 decimals share a rank; tied pairs
    are counted from the sizes of those groups.  Non-finite scores raise
    :class:`ValidationError`.
    """
    n = scores.size
    if n < 2:
        raise ValidationError("monotonicity needs at least two nodes")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("monotonicity needs finite scores")
    tied = float(2 * _pairs(np.unique(np.round(scores, RANK_DECIMALS), return_counts=True)[1]))
    return (1.0 - tied / (n * (n - 1))) ** 2


@dataclass(frozen=True)
class MeasureMetrics:
    """Evaluation metrics of one measure on one dataset; None marks undefined."""

    tau: float | None
    tau_norm: float | None
    epsilon: float | None
    epsilon_norm: float | None
    monotonicity: float | None


@dataclass(frozen=True)
class EvaluationReport:
    """Per-measure metrics for one dataset (or an aggregate of datasets)."""

    dataset: str
    node_count: int
    density: float
    metrics: dict[str, MeasureMetrics] = field(default_factory=dict)


def evaluate_measures(dataset: str, node_count: int, density: float,
                      scores: dict[str, np.ndarray], spread: SpreadEstimate,
                      k: int) -> EvaluationReport:
    """Compute tau / error / monotonicity per measure, normalized by baselines.

    ``scores`` must contain the baselines ``c_od`` and ``c_os``.  Kendall
    values are divided by the out-degree baseline, error values by the
    out-strength baseline; undefined entries become None.
    """
    for baseline in ("c_od", "c_os"):
        if baseline not in scores:
            raise ValidationError(f"evaluation needs baseline measure {baseline!r}")

    def tau_or_none(values: np.ndarray) -> float | None:
        try:
            return kendall_tau(values, spread.values)
        except UndefinedCorrelationError:
            return None

    use_epsilon = k <= node_count
    taus = {measure_id: tau_or_none(values) for measure_id, values in scores.items()}
    epsilons = {measure_id: ranking_error(values, spread, k) if use_epsilon else None
                for measure_id, values in scores.items()}
    tau_base, eps_base = taus["c_od"], epsilons["c_os"]

    metrics: dict[str, MeasureMetrics] = {}
    for measure_id, values in scores.items():
        tau, epsilon = taus[measure_id], epsilons[measure_id]
        # a baseline of None or 0.0 leaves the normalized value undefined
        tau_norm = tau / tau_base if tau is not None and tau_base else None
        epsilon_norm = epsilon / eps_base if epsilon is not None and eps_base else None
        metrics[measure_id] = MeasureMetrics(
            tau=tau, tau_norm=tau_norm, epsilon=epsilon, epsilon_norm=epsilon_norm,
            monotonicity=monotonicity(values) if node_count >= 2 else None)
    return EvaluationReport(dataset, node_count, density, metrics)


def _geometric_mean(values: list[float]) -> float | None:
    if not values:
        return None
    if any(v == 0.0 for v in values):
        return 0.0
    return float(np.exp(np.mean(np.log(np.abs(values)))))


def aggregate(reports: list[EvaluationReport]) -> EvaluationReport:
    """Geometric means of absolute normalized metrics across datasets.

    Datasets with fewer than :data:`EPSILON_AGG_MIN_NODES` nodes are left
    out of the error aggregation; monotonicity aggregates unnormalized.
    """
    if not reports:
        raise ValidationError("nothing to aggregate")
    measure_ids = list(dict.fromkeys(m for report in reports for m in report.metrics))
    combined: dict[str, MeasureMetrics] = {}
    for measure_id in measure_ids:
        taus = [r.metrics[measure_id].tau_norm for r in reports
                if measure_id in r.metrics and r.metrics[measure_id].tau_norm is not None]
        epsilons = [r.metrics[measure_id].epsilon_norm for r in reports
                    if measure_id in r.metrics
                    and r.node_count >= EPSILON_AGG_MIN_NODES
                    and r.metrics[measure_id].epsilon_norm is not None]
        monos = [r.metrics[measure_id].monotonicity for r in reports
                 if measure_id in r.metrics and r.metrics[measure_id].monotonicity is not None]
        combined[measure_id] = MeasureMetrics(
            tau=None, tau_norm=_geometric_mean(taus),
            epsilon=None, epsilon_norm=_geometric_mean(epsilons),
            monotonicity=_geometric_mean(monos))
    total_nodes = sum(r.node_count for r in reports)
    return EvaluationReport(AGGREGATE, total_nodes, 0.0, combined)
