"""Ranking performance measures and their aggregation across datasets.

Three per-measure statistics are produced against the simulated spread:
tie-corrected Kendall correlation, top-k ranking error (spread mass missed
by a measure's top-k versus the true top-k), and ranking monotonicity (a
squared fraction-of-non-ties statistic).  Dataset-level values are
normalized against baselines (out-degree for correlation, out-strength for
error) and aggregated with geometric means of absolute values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UndefinedCorrelationError, ValidationError
from .propagation import SpreadEstimate
from .scores import ScoreVector

EPSILON_AGG_MIN_NODES = 100  # datasets below this are excluded from error aggregation
RANK_DECIMALS = 12


def _tie_term(sorted_values: np.ndarray) -> int:
    """Sum of t*(t-1)/2 over runs of equal values in a sorted array."""
    if sorted_values.size == 0:
        return 0
    boundaries = np.flatnonzero(np.diff(sorted_values) != 0)
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.concatenate([boundaries + 1, [sorted_values.size]])
    runs = ends - starts
    return int(np.sum(runs * (runs - 1) // 2))


def _merge_count(values: list[float]) -> int:
    """Count pairs (i, j), i < j, with values[i] > values[j] via merge sort."""
    n = len(values)
    if n < 2:
        return 0
    buffer = values[:]
    scratch = [0.0] * n
    inversions = 0
    width = 1
    while width < n:
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j, k = lo, mid, lo
            while i < mid and j < hi:
                if buffer[j] < buffer[i]:
                    inversions += mid - i
                    scratch[k] = buffer[j]
                    j += 1
                else:
                    scratch[k] = buffer[i]
                    i += 1
                k += 1
            scratch[k:hi] = buffer[i:mid] if i < mid else buffer[j:hi]
            buffer[lo:hi] = scratch[lo:hi]
        width *= 2
    return inversions


def kendall_tau(x: ScoreVector | np.ndarray, y: ScoreVector | np.ndarray) -> float:
    """Tie-corrected Kendall correlation between two score vectors.

    Runs in O(n log n): pairs are sorted by (x, y) and discordances are
    counted as strict descents of y under merge sort.  Raises
    :class:`UndefinedCorrelationError` when either input is all ties.
    """
    xv = x.values if isinstance(x, ScoreVector) else np.asarray(x, np.float64)
    yv = y.values if isinstance(y, ScoreVector) else np.asarray(y, np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ValidationError("kendall_tau inputs must be equal-length vectors")
    n = xv.size
    if n < 2:
        raise ValidationError("kendall_tau needs at least two observations")
    order = np.lexsort((yv, xv))
    xs = xv[order]
    ys = yv[order]
    n0 = n * (n - 1) // 2
    n1 = _tie_term(xs)
    n2 = _tie_term(np.sort(yv))
    n3 = _joint_tie_term(xs, ys)
    if n0 == n1 or n0 == n2:
        raise UndefinedCorrelationError("correlation undefined: an input is constant")
    discordant = _merge_count(list(ys))
    concordant_minus_discordant = n0 - n1 - n2 + n3 - 2 * discordant
    return concordant_minus_discordant / math.sqrt((n0 - n1) * (n0 - n2))


def _joint_tie_term(xs: np.ndarray, ys: np.ndarray) -> int:
    """Tie term over joint (x, y) runs; inputs already sorted by (x, y)."""
    if xs.size == 0:
        return 0
    change = (np.diff(xs) != 0) | (np.diff(ys) != 0)
    boundaries = np.flatnonzero(change)
    starts = np.concatenate([[0], boundaries + 1])
    ends = np.concatenate([boundaries + 1, [xs.size]])
    runs = ends - starts
    return int(np.sum(runs * (runs - 1) // 2))


def top_k_nodes(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest values; ties break toward smaller node ids."""
    n = values.size
    order = np.lexsort((np.arange(n), -values))
    return order[:k]


def ranking_error(scores: ScoreVector, spread: SpreadEstimate, k: int) -> float:
    """One minus the spread mass captured by the measure's top-k.

    The reference set is the spread-optimal top-k, so the result is always
    at most 1 and non-negative.
    """
    f = spread.values
    n = f.size
    if len(scores) != n:
        raise ValidationError("scores and spread must cover the same node set")
    if not 1 <= k <= n:
        raise ValidationError(f"top-k size {k} out of range for {n} nodes")
    chosen = top_k_nodes(scores.values, k)
    optimal = top_k_nodes(f, k)
    return 1.0 - float(f[chosen].sum()) / float(f[optimal].sum())


def monotonicity(scores: ScoreVector | np.ndarray) -> float:
    """Squared fraction of distinguishable pairs in a ranking, in [0, 1].

    Scores equal after rounding to 12 decimals share a rank.
    """
    values = scores.values if isinstance(scores, ScoreVector) else np.asarray(scores, np.float64)
    n = values.size
    if n < 2:
        raise ValidationError("monotonicity needs at least two nodes")
    rounded = np.round(values, RANK_DECIMALS)
    _, counts = np.unique(rounded, return_counts=True)
    tied = float(np.sum(counts * (counts - 1)))
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
                      scores: dict[str, ScoreVector], spread: SpreadEstimate,
                      k: int) -> EvaluationReport:
    """Compute tau / error / monotonicity per measure, normalized by baselines.

    ``scores`` must contain the baselines ``c_od`` and ``c_os``.  Kendall
    values are divided by the out-degree baseline, error values by the
    out-strength baseline; undefined entries become None.
    """
    for baseline in ("c_od", "c_os"):
        if baseline not in scores:
            raise ValidationError(f"evaluation needs baseline measure {baseline!r}")

    def tau_or_none(vec: ScoreVector) -> float | None:
        try:
            return kendall_tau(vec, spread.values)
        except UndefinedCorrelationError:
            return None

    use_epsilon = k <= node_count
    taus = {measure_id: tau_or_none(vec) for measure_id, vec in scores.items()}
    epsilons = {measure_id: ranking_error(vec, spread, k) if use_epsilon else None
                for measure_id, vec in scores.items()}
    tau_base, eps_base = taus["c_od"], epsilons["c_os"]

    metrics: dict[str, MeasureMetrics] = {}
    for measure_id, vec in scores.items():
        tau, epsilon = taus[measure_id], epsilons[measure_id]
        tau_norm = None
        if tau is not None and tau_base is not None and tau_base != 0.0:
            tau_norm = tau / tau_base
        epsilon_norm = None
        if epsilon is not None and eps_base is not None and eps_base != 0.0:
            epsilon_norm = epsilon / eps_base
        metrics[measure_id] = MeasureMetrics(
            tau=tau, tau_norm=tau_norm, epsilon=epsilon, epsilon_norm=epsilon_norm,
            monotonicity=monotonicity(vec) if node_count >= 2 else None)
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
    measure_ids: list[str] = []
    for report in reports:
        for measure_id in report.metrics:
            if measure_id not in measure_ids:
                measure_ids.append(measure_id)
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
    return EvaluationReport("__geomean__", total_nodes, 0.0, combined)
