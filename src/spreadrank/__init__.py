"""Centrality measures and independent-cascade spread evaluation."""

__version__ = "0.1.0"

from .config import RunConfig
from .graph import Network, GraphView, ViewKind, WeightMode, view, orient_undirected, \
    apply_wcs
from .propagation import SpreadEstimate, spread_all
from .measures import measure_ids, MeasureContext
from .ranking import kendall_tau, ranking_error, monotonicity, aggregate, \
    evaluate_measures, EvaluationReport
from .storage import load_edge_list

__all__ = [
    "RunConfig", "Network", "GraphView", "ViewKind", "WeightMode", "view",
    "load_edge_list", "orient_undirected", "apply_wcs",
    "SpreadEstimate", "spread_all",
    "measure_ids", "MeasureContext",
    "kendall_tau", "ranking_error", "monotonicity", "aggregate",
    "evaluate_measures", "EvaluationReport",
]
