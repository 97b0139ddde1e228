"""Degree, strength, betweenness, closeness, eigenvector, Katz, and
k-shell style centralities.

All functions are pure: they take an immutable :class:`GraphView` (or the
network itself where the measure is inherently directed and weighted) and
return a :class:`ScoreVector`.  Distance-based measures expect the caller
to hand them the appropriate view; by convention weighted distances use
inverted weights so that a high cascade probability reads as proximity.
"""
from __future__ import annotations

import heapq
import math
from enum import Enum

import numpy as np

from .errors import ConvergenceError, ParameterError, ValidationError
from .graph import GraphView, Network, ViewKind
from .scores import ScoreVector

EIGEN_TOL = 1e-9
EIGEN_MAX_ITERS = 10_000
KATZ_TOL = 1e-12
KATZ_MAX_ITERS = 10_000
KATZ_ALPHA_FRACTION = 0.85


class Direction(Enum):
    IN = "in"
    OUT = "out"


def degree(view: GraphView) -> ScoreVector:
    """Count of edges leaving each node.

    Undirected views list every edge in both directions, so this is the degree.
    """
    return ScoreVector("out_degree", np.bincount(view.src, minlength=view.n))


def strength(view: GraphView) -> ScoreVector:
    """Sum of the weights of edges leaving each node."""
    return ScoreVector("out_strength",
                       np.bincount(view.src, weights=view.weight, minlength=view.n))


def _sssp(view: GraphView, source: int, hops: int | None = None,
          allowed: np.ndarray | None = None) -> tuple[list[int], np.ndarray]:
    """Distances and settle order from ``source``.

    Unit-weight views, and every search with a ``hops`` limit, use
    breadth-first search, which counts edges and ignores weights; others
    use Dijkstra over the view's weights.  ``hops`` stops the search after
    that many edges; ``allowed`` is a boolean node mask outside which the
    search never steps (the source itself is always entered).
    """
    dist = [math.inf] * view.n
    dist[source] = 0.0
    order: list[int] = []
    if view.unit_weights or hops is not None:
        limit = math.inf if hops is None else hops
        frontier = [source]
        order.append(source)
        d = 0.0
        while frontier and d < limit:
            d += 1.0
            nxt = []
            for u in frontier:
                for v in view.neighbors(u)[0].tolist():
                    if dist[v] == math.inf and (allowed is None or allowed[v]):
                        dist[v] = d
                        nxt.append(v)
            order += nxt
            frontier = nxt
        return order, np.array(dist)
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled = [False] * view.n
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        order.append(u)
        targets, weights = view.neighbors(u)
        for v, w in zip(targets.tolist(), weights.tolist()):
            nd = d + w
            if nd < dist[v] and (allowed is None or allowed[v]):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return order, np.array(dist)


def betweenness(view: GraphView) -> ScoreVector:
    """Fraction of shortest paths passing through each node as intermediate.

    Pair accumulation follows the standard dependency scheme: ordered
    source/target pairs on directed views, each unordered pair once on
    undirected views.  Disconnected pairs contribute nothing.
    """
    n = view.n
    bc = np.zeros(n)
    for s in range(n):
        order, dist = _sssp(view, s)
        # tight edges (u, v) with dist[u] + w == dist[v] form the shortest-path DAG
        sigma = np.zeros(n)
        sigma[s] = 1.0
        preds: list[list[int]] = [[] for _ in range(n)]
        for u in order:
            targets, weights = view.neighbors(u)
            for v, w in zip(targets, weights):
                if dist[u] + w == dist[v]:
                    preds[v].append(u)
        for u in order[1:]:
            sigma[u] = sum(sigma[p] for p in preds[u])
        delta = np.zeros(n)
        for u in reversed(order):
            if u != s:
                coeff = (1.0 + delta[u]) / sigma[u]
                for p in preds[u]:
                    delta[p] += sigma[p] * coeff
        delta[s] = 0.0
        bc += delta
    if view.undirected:
        bc *= 0.5
    return ScoreVector("betweenness", bc)


def closeness(view: GraphView) -> ScoreVector:
    """Reciprocal average outbound distance, scaled to the reachable set.

    For a node reaching ``r`` others with total distance ``t`` the score is
    ``(r / (n - 1)) * (r / t)``; nodes reaching nothing score 0.
    """
    n = view.n
    values = np.zeros(n)
    if n < 2:
        return ScoreVector("closeness", values)
    for u in range(n):
        _, dist = _sssp(view, u)
        finite = np.isfinite(dist)
        finite[u] = False
        reached = int(finite.sum())
        if reached == 0:
            continue
        total = float(dist[finite].sum())
        values[u] = (reached / (n - 1)) * (reached / total)
    return ScoreVector("closeness", values)


def _multiply_adjacency(view: GraphView, x: np.ndarray, incoming: bool) -> np.ndarray:
    """``y[u] = sum_v A[v,u] x[v]`` when incoming, else ``sum_v A[u,v] x[v]``."""
    if incoming:
        return np.bincount(view.dst, weights=view.weight * x[view.src], minlength=view.n)
    return np.bincount(view.src, weights=view.weight * x[view.dst], minlength=view.n)


def eigenvector(view: GraphView, tol: float = EIGEN_TOL,
                max_iters: int = EIGEN_MAX_ITERS) -> ScoreVector:
    """Leading eigenvector of the undirected unweighted adjacency matrix.

    Power iteration with an identity shift, which keeps bipartite graphs
    from oscillating; the result is non-negative with unit L2 norm.
    """
    if view.kind is not ViewKind.UU:
        raise ValidationError("eigenvector centrality runs on the undirected unweighted view")
    n = view.n
    if n == 0:
        return ScoreVector("eigenvector", np.zeros(0))
    x = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iters):
        y = _multiply_adjacency(view, x, incoming=False) + x
        y /= np.linalg.norm(y)
        if np.linalg.norm(y - x) < tol:
            return ScoreVector("eigenvector", y)
        x = y
    ax = _multiply_adjacency(view, x, incoming=False)
    rayleigh = float(x @ ax)
    raise ConvergenceError("eigenvector power iteration did not converge",
                           residual=float(np.linalg.norm(ax - rayleigh * x)))


def spectral_radius_estimate(view: GraphView, iterations: int = 200) -> float:
    """Power-iteration estimate of the adjacency spectral radius."""
    n = view.n
    if n == 0 or view.edge_count == 0:
        return 0.0
    x = np.full(n, 1.0 / math.sqrt(n))
    estimate = 0.0
    for _ in range(iterations):
        y = _multiply_adjacency(view, x, incoming=False)
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        estimate = norm
        x = y / norm
    return estimate


def _katz_alpha(radius: float) -> float:
    """Attenuation guaranteeing convergence: 0.85 over the spectral radius."""
    if radius <= 1e-12:
        return KATZ_ALPHA_FRACTION
    return KATZ_ALPHA_FRACTION / radius


def katz(view: GraphView, direction: Direction = Direction.IN,
         alpha: float | None = None) -> ScoreVector:
    """Attenuated count of walks ending at (IN) or leaving (OUT) each node.

    Walk counts of length k are damped by ``alpha**k``; the empty walk is
    excluded, so sources (IN) respectively sinks (OUT) score 0.
    """
    radius = spectral_radius_estimate(view)
    if alpha is None:
        alpha = _katz_alpha(radius)
    if radius > 0 and alpha * radius >= 1.0:
        raise ParameterError(
            f"katz alpha {alpha} >= 1/spectral_radius ({1.0 / radius:.6g}); series diverges")
    incoming = direction is Direction.IN
    n = view.n
    c = np.zeros(n)
    ones = np.ones(n)
    diff = math.inf
    for _ in range(KATZ_MAX_ITERS):
        c_next = alpha * _multiply_adjacency(view, c + ones, incoming=incoming)
        diff = float(np.max(np.abs(c_next - c))) if n else 0.0
        c = c_next
        if diff < KATZ_TOL:
            return ScoreVector(f"katz_{direction.value}", c)
        if not np.all(np.isfinite(c)) or float(np.max(np.abs(c), initial=0.0)) > 1e15:
            raise ConvergenceError("katz iteration diverged; alpha too large")
    raise ConvergenceError("katz iteration did not converge", residual=diff)


def kshell(view: GraphView) -> ScoreVector:
    """Iterative-peeling shell index on the undirected unweighted view."""
    if view.kind is not ViewKind.UU:
        raise ValidationError("k-shell decomposition runs on the undirected unweighted view")
    n = view.n
    deg = np.bincount(view.src, minlength=n).astype(np.int64)
    alive = np.ones(n, dtype=bool)
    shell = np.zeros(n, dtype=np.int64)
    k = 0
    remaining = n
    while remaining:
        candidates = np.flatnonzero(alive & (deg <= k))
        if candidates.size == 0:
            k += 1
            continue
        for u in candidates:
            if not alive[u]:
                continue
            alive[u] = False
            shell[u] = k
            remaining -= 1
            targets, _ = view.neighbors(u)
            for v in targets:
                if alive[v]:
                    deg[v] -= 1
    return ScoreVector("kshell", shell.astype(np.float64))


def weighted_kshell(net: Network) -> ScoreVector:
    """Shell decomposition driven by the partially weighted out-degree.

    Each node's mass is ``sqrt(out_degree * out_strength)``, recomputed on
    the remaining subgraph while peeling.  Masses are quantized to integer
    levels ``floor(n * mass / initial_max_mass)`` so the peeling thresholds
    are discrete; out-strength 0 nodes sit in the lowest shell.
    """
    n = net.node_count
    if n == 0:
        return ScoreVector("wks", np.zeros(0))
    out_deg = net.out_degree().astype(np.float64)
    out_str = net.out_strength()
    kprime = np.sqrt(out_deg * out_str)
    peak = float(kprime.max())
    if peak == 0.0:
        return ScoreVector("wks", np.zeros(n))
    scale = n / peak

    cur_deg = out_deg.copy()
    cur_str = out_str.copy()
    alive = np.ones(n, dtype=bool)
    shell = np.zeros(n, dtype=np.int64)
    in_indptr, in_order = net.in_csr

    def level(u: int) -> int:
        mass = max(cur_deg[u] * cur_str[u], 0.0)  # float drift guard
        return int(math.floor(scale * math.sqrt(mass)))

    remaining = n
    k = 0
    while remaining:
        levels = np.array([level(u) if alive[u] else np.iinfo(np.int64).max
                           for u in range(n)])
        candidates = np.flatnonzero(alive & (levels <= k))
        if candidates.size == 0:
            k += 1
            continue
        queue = list(candidates)
        while queue:
            u = queue.pop()
            if not alive[u]:
                continue
            if level(u) > k:
                continue
            alive[u] = False
            shell[u] = k
            remaining -= 1
            # removing u deletes its incoming edges, shrinking the sources' mass
            for eid in in_order[in_indptr[u]:in_indptr[u + 1]]:
                s = int(net.src[eid])
                if alive[s]:
                    cur_deg[s] -= 1
                    cur_str[s] -= net.weight[eid]
                    if level(s) <= k:
                        queue.append(s)
    return ScoreVector("wks", shell.astype(np.float64))
