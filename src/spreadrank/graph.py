"""Graph container, preprocessing, and derived views; no file I/O.

Every network is a directed weighted simple graph over dense integer node
ids.  Ingest turns an undirected input into one by pointing every edge
from the smaller to the larger node id (:func:`orient_undirected`);
unweighted graphs receive cascade probabilities of
``1 / in-degree(target)`` (:func:`apply_wcs`).  Files are read and
written by :mod:`spreadrank.storage`.

The undirected readings come only from a :class:`GraphView`, which
reinterprets the same edge set in one of four ways (directed or not,
weighted or not) and optionally substitutes inverted (``1/w``) weights,
which distance-based measures use so that a strong tie reads as a short
distance.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError


class ViewKind(Enum):
    UU = "uu"  # undirected unweighted
    UW = "uw"  # undirected weighted
    DU = "du"  # directed unweighted
    DW = "dw"  # directed weighted


class WeightMode(Enum):
    AS_IS = "as_is"
    INVERTED = "inverted"


@dataclass(frozen=True, eq=False)
class Network:
    """Immutable directed weighted simple graph with dense node ids.

    Invariants enforced on construction: no self-loops, no duplicate
    (source, target) pairs, strictly positive weights, ids in
    ``0..node_count-1``.
    """

    node_count: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    labels: tuple[str, ...] = ()
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0

    def __post_init__(self):
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        weight = np.ascontiguousarray(self.weight, dtype=np.float64)
        n = self.node_count
        if n < 0:
            raise ValidationError("node_count must be non-negative")
        if not (src.shape == dst.shape == weight.shape) or src.ndim != 1:
            raise ValidationError("edge arrays must be equal-length 1-d arrays")
        if src.size:
            if src.min() < 0 or dst.min() < 0 or src.max() >= n or dst.max() >= n:
                raise ValidationError("edge endpoint outside 0..node_count-1")
            if np.any(src == dst):
                raise ValidationError("self-loops are not allowed")
            pairs = np.sort(src * n + dst)
            if np.any(pairs[1:] == pairs[:-1]):
                raise ValidationError("duplicate (source, target) pairs")
            if not np.all(weight > 0):
                raise ValidationError("edge weights must be strictly positive")
        if self.labels and len(self.labels) != n:
            raise ValidationError("labels length must equal node_count")
        for arr in (src, dst, weight):
            arr.setflags(write=False)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weight", weight)

    @property
    def edge_count(self) -> int:
        return int(self.src.size)

    def out_degree(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.node_count)

    def in_degree(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.node_count)

    def out_strength(self) -> np.ndarray:
        return np.bincount(self.src, weights=self.weight, minlength=self.node_count)

    def edges(self) -> Iterator[tuple[int, int, float]]:
        return zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist())

    def density(self) -> float:
        if self.node_count < 2:
            return 0.0
        return self.edge_count / (self.node_count * (self.node_count - 1))

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: Sequence[tuple[int, int, float]] | Sequence[tuple[int, int]],
    ) -> "Network":
        """Build a network from (u, v) or (u, v, w) tuples; missing weights are 1."""
        src, dst, w = [], [], []
        for edge in edges:
            src.append(edge[0])
            dst.append(edge[1])
            w.append(edge[2] if len(edge) == 3 else 1.0)
        return cls(node_count, np.array(src, np.int64), np.array(dst, np.int64),
                   np.array(w, np.float64))


def dedup_keep_first(src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
                     n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Collapse duplicate (source, target) pairs, keeping the first occurrence."""
    if src.size == 0:
        return src, dst, weight, 0
    key = src * max(n, 1) + dst
    _, first = np.unique(key, return_index=True)
    first.sort()
    dropped = src.size - first.size
    return src[first], dst[first], weight[first], dropped


def _low_to_high(net: Network) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Each edge as (smaller id, larger id, weight), a reciprocal pair kept at its first edge."""
    return dedup_keep_first(np.minimum(net.src, net.dst), np.maximum(net.src, net.dst),
                            net.weight, net.node_count)


def orient_undirected(net: Network) -> Network:
    """Make an undirected edge set directed: each edge points from the smaller to the larger id.

    Ingest calls this for input that does not declare directions.  Edges
    that become parallel after reorientation (a reciprocal pair) collapse
    onto the first occurrence.  The operation is idempotent; an already
    oriented network passes through unchanged.
    """
    src, dst, weight, dup = _low_to_high(net)
    return Network(net.node_count, src, dst, weight, labels=net.labels,
                   self_loops_dropped=net.self_loops_dropped,
                   duplicates_dropped=net.duplicates_dropped + dup)


def apply_wcs(net: Network) -> Network:
    """Assign every edge (u, v) the cascade probability ``1 / in-degree(v)``."""
    indeg = net.in_degree()
    weight = 1.0 / indeg[net.dst] if net.edge_count else net.weight
    return Network(net.node_count, net.src, net.dst, np.asarray(weight, np.float64),
                   labels=net.labels, self_loops_dropped=net.self_loops_dropped,
                   duplicates_dropped=net.duplicates_dropped)


@dataclass(frozen=True, eq=False)
class GraphView:
    """A deterministic reinterpretation of a network's edge set.

    Undirected kinds collapse reciprocal pairs (first occurrence wins) and
    expose each surviving edge in both directions; unweighted kinds carry
    weight 1.  ``weight_mode`` INVERTED replaces the kind's weights by ``1/w``.
    """

    kind: ViewKind
    base: Network
    weight_mode: WeightMode = WeightMode.AS_IS

    def __post_init__(self):
        net = self.base
        if self.kind in (ViewKind.DU, ViewKind.DW):
            src, dst = net.src, net.dst
            w = net.weight if self.kind is ViewKind.DW else np.ones(net.edge_count)
        else:
            lo, hi, kept_w, _ = _low_to_high(net)
            if self.kind is ViewKind.UU:
                kept_w = np.ones(lo.size)
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
            w = np.concatenate([kept_w, kept_w])
        if self.weight_mode is WeightMode.INVERTED:
            w = 1.0 / w
        by_target = np.argsort(dst, kind="stable")
        for arr in (src, dst, w, by_target):
            arr.setflags(write=False)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weight", w)
        # edge positions grouped by target, the order the distance kernel relaxes them in
        object.__setattr__(self, "_by_target", by_target)

    @property
    def n(self) -> int:
        return self.base.node_count

    @property
    def edge_count(self) -> int:
        return int(self.src.size)

    @property
    def undirected(self) -> bool:
        return self.kind in (ViewKind.UU, ViewKind.UW)


def view(net: Network, kind: ViewKind, weight_mode: WeightMode = WeightMode.AS_IS) -> GraphView:
    """Construct the requested view of ``net``."""
    return GraphView(kind, net, weight_mode)
