"""Graph container, edge-list ingestion, preprocessing, and derived views.

Networks are directed weighted simple graphs over dense integer node ids.
Undirected input files are canonicalized by pointing every edge from the
smaller to the larger node id; unweighted graphs receive cascade
probabilities of ``1 / in-degree(target)`` (:func:`apply_wcs`).

A :class:`GraphView` reinterprets the same edge set in one of four ways
(directed or not, weighted or not) and optionally substitutes unit or
inverted (``1/w``) weights, which distance-based measures use so that a
strong tie reads as a short distance.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ParseError, ValidationError

COMMENT_PREFIXES = ("#", "%")


class ViewKind(Enum):
    UU = "uu"  # undirected unweighted
    UW = "uw"  # undirected weighted
    DU = "du"  # directed unweighted
    DW = "dw"  # directed weighted


class WeightMode(Enum):
    AS_IS = "as_is"
    UNIT = "unit"
    INVERTED = "inverted"


def _csr(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (indptr, order) grouping edge positions by ``index`` value."""
    order = np.argsort(index, kind="stable")
    counts = np.bincount(index, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, order


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
    directed: bool
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
            if np.unique(src * n + dst).size != src.size:
                raise ValidationError("duplicate (source, target) pairs")
            if not np.all(weight > 0):
                raise ValidationError("edge weights must be strictly positive")
        if self.labels and len(self.labels) != n:
            raise ValidationError("labels length must equal node_count")
        for arr in (src, dst, weight):
            arr.setflags(write=False)
        in_indptr, in_order = _csr(dst, n) if n else (np.zeros(1, np.int64), np.zeros(0, np.int64))
        for arr in (in_indptr, in_order):
            arr.setflags(write=False)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "_in_indptr", in_indptr)
        object.__setattr__(self, "_in_order", in_order)

    @property
    def edge_count(self) -> int:
        return int(self.src.size)

    @property
    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only in-edge CSR: edges entering ``v`` are ``order[indptr[v]:indptr[v + 1]]``."""
        return self._in_indptr, self._in_order

    def out_degree(self) -> np.ndarray:
        return np.bincount(self.src, minlength=self.node_count)

    def in_degree(self) -> np.ndarray:
        return np.bincount(self.dst, minlength=self.node_count)

    def out_strength(self) -> np.ndarray:
        return np.bincount(self.src, weights=self.weight, minlength=self.node_count)

    def in_strength(self) -> np.ndarray:
        return np.bincount(self.dst, weights=self.weight, minlength=self.node_count)

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
        directed: bool = True,
    ) -> "Network":
        """Build a network from (u, v) or (u, v, w) tuples; missing weights are 1."""
        src, dst, w = [], [], []
        for edge in edges:
            src.append(edge[0])
            dst.append(edge[1])
            w.append(edge[2] if len(edge) == 3 else 1.0)
        return cls(node_count, np.array(src, np.int64), np.array(dst, np.int64),
                   np.array(w, np.float64), directed=directed)


def _dedup_keep_first(src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
                      n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Collapse duplicate (source, target) pairs, keeping the first occurrence."""
    if src.size == 0:
        return src, dst, weight, 0
    key = src * max(n, 1) + dst
    _, first = np.unique(key, return_index=True)
    first.sort()
    dropped = src.size - first.size
    return src[first], dst[first], weight[first], dropped


def load_edge_list(path: str | Path, declared_directed: bool,
                   declared_weighted: bool) -> Network:
    """Parse a whitespace-separated edge list into a :class:`Network`.

    Lines are ``u v`` or ``u v w``; lines starting with ``#`` or ``%`` and
    blank lines are skipped.  Node labels are remapped to dense ids in
    first-seen order (the original labels are kept on the network).
    Self-loops are dropped and duplicate (source, target) pairs collapse
    onto the first occurrence; both are counted on the result.
    """
    path = Path(path)
    label_to_id: dict[str, int] = {}
    labels: list[str] = []
    src: list[int] = []
    dst: list[int] = []
    weight: list[float] = []
    self_loops = 0

    def node_id(label: str) -> int:
        nid = label_to_id.get(label)
        if nid is None:
            nid = len(labels)
            label_to_id[label] = nid
            labels.append(label)
        return nid

    with path.open("r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith(COMMENT_PREFIXES):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError(f"expected 'u v' or 'u v w', got {line!r}", lineno)
            u = node_id(parts[0])
            v = node_id(parts[1])
            if declared_weighted and len(parts) == 3:
                try:
                    w = float(parts[2])
                except ValueError:
                    raise ParseError(f"bad weight {parts[2]!r}", lineno) from None
                if not np.isfinite(w) or w <= 0:
                    raise ValidationError(f"line {lineno}: non-positive weight {w}")
            else:
                w = 1.0
            if u == v:
                self_loops += 1
                continue
            src.append(u)
            dst.append(v)
            weight.append(w)

    n = len(labels)
    s, d, w = (np.array(src, np.int64), np.array(dst, np.int64),
               np.array(weight, np.float64))
    s, d, w, dup = _dedup_keep_first(s, d, w, n)
    return Network(n, s, d, w, directed=declared_directed, labels=tuple(labels),
                   self_loops_dropped=self_loops, duplicates_dropped=dup)


def orient_undirected(net: Network) -> Network:
    """Point every edge from the smaller to the larger node id.

    Edges that become parallel after reorientation collapse onto the first
    occurrence.  The operation is idempotent; an already oriented network
    passes through unchanged apart from the ``directed`` flag.
    """
    src = np.minimum(net.src, net.dst)
    dst = np.maximum(net.src, net.dst)
    src, dst, weight, dup = _dedup_keep_first(src, dst, net.weight, net.node_count)
    return Network(net.node_count, src, dst, weight, directed=True,
                   labels=net.labels, self_loops_dropped=net.self_loops_dropped,
                   duplicates_dropped=net.duplicates_dropped + dup)


def apply_wcs(net: Network) -> Network:
    """Assign every edge (u, v) the cascade probability ``1 / in-degree(v)``."""
    if not net.directed:
        raise ValidationError("weighted-cascade probabilities need a directed network")
    indeg = net.in_degree()
    weight = 1.0 / indeg[net.dst] if net.edge_count else net.weight
    return Network(net.node_count, net.src, net.dst, np.asarray(weight, np.float64),
                   directed=True, labels=net.labels,
                   self_loops_dropped=net.self_loops_dropped,
                   duplicates_dropped=net.duplicates_dropped)


@dataclass(frozen=True, eq=False)
class GraphView:
    """A deterministic reinterpretation of a network's edge set.

    Undirected kinds collapse reciprocal pairs (first occurrence wins) and
    expose each surviving edge in both directions.  ``weight_mode`` is
    applied on top of the kind's weights: UNIT replaces them with 1,
    INVERTED with ``1/w``.
    """

    kind: ViewKind
    base: Network
    weight_mode: WeightMode = WeightMode.AS_IS

    def __post_init__(self):
        net = self.base
        n = net.node_count
        if self.kind in (ViewKind.DU, ViewKind.DW):
            src, dst = net.src, net.dst
            w = net.weight if self.kind is ViewKind.DW else np.ones(net.edge_count)
        else:
            lo = np.minimum(net.src, net.dst)
            hi = np.maximum(net.src, net.dst)
            lo, hi, kept_w, _ = _dedup_keep_first(lo, hi, net.weight, n)
            if self.kind is ViewKind.UU:
                kept_w = np.ones(lo.size)
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
            w = np.concatenate([kept_w, kept_w])
        if self.weight_mode is WeightMode.UNIT:
            w = np.ones(src.size)
        elif self.weight_mode is WeightMode.INVERTED:
            w = 1.0 / w
        indptr, order = _csr(src, n) if n else (np.zeros(1, np.int64), np.zeros(0, np.int64))
        w = np.asarray(w, np.float64)
        for arr in (src, dst, w):
            arr.setflags(write=False)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "_indptr", indptr)
        object.__setattr__(self, "_adj_dst", dst[order])
        object.__setattr__(self, "_adj_w", w[order])
        object.__setattr__(self, "_unit_weights",
                           bool(np.all(w == 1.0)) if w.size else True)

    @property
    def n(self) -> int:
        return self.base.node_count

    @property
    def edge_count(self) -> int:
        return int(self.src.size)

    @property
    def undirected(self) -> bool:
        return self.kind in (ViewKind.UU, ViewKind.UW)

    @property
    def unit_weights(self) -> bool:
        return self._unit_weights

    def neighbors(self, u: int) -> tuple[np.ndarray, np.ndarray]:
        """Targets and weights of the edges leaving ``u`` in this view."""
        lo, hi = self._indptr[u], self._indptr[u + 1]
        return self._adj_dst[lo:hi], self._adj_w[lo:hi]


def view(net: Network, kind: ViewKind, weight_mode: WeightMode = WeightMode.AS_IS) -> GraphView:
    """Construct the requested view of ``net``."""
    return GraphView(kind, net, weight_mode)
