"""Betweenness, closeness, eigenvector, Katz, and k-shell style centralities.

All functions are pure: they take an immutable :class:`GraphView` (or the
network itself where the measure is inherently directed and weighted) and
return a :class:`ScoreVector`.  Distance-based measures expect the caller
to hand them the appropriate view; by convention weighted distances use
inverted weights so that a high cascade probability reads as proximity.

Betweenness, closeness and gravity take their distances from one kernel,
:func:`_distances`.  It needs every candidate ``d + w`` to exceed ``d``, as
unit weights and inverted probabilities (at least 1) do; then its result is
unique and equals a one-source Dijkstra search's bit for bit.

Both shell indices take their peeling from one kernel, :func:`_peel`: each
round removes every live node whose level is at most the current shell,
and two ``np.bincount`` calls take the edges into those nodes off their
sources' live out-edge count and weight sum.  ``ks`` uses the degree on
the undirected unweighted view as the level, ``wks`` the quantized
``sqrt(count * sum)`` on the network's own edges.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Iterator

import numpy as np

from .errors import ConvergenceError, ParameterError, ValidationError
from .graph import GraphView, Network, ViewKind
from .scores import ScoreVector

EIGEN_TOL = 1e-9
EIGEN_MAX_ITERS = 10_000
KATZ_TOL = 1e-12
KATZ_MAX_ITERS = 10_000
KATZ_ALPHA_FRACTION = 0.85
_SPECTRAL_ITERATIONS = 200
_BLOCK = 16  # sources per distance pass


class Direction(Enum):
    IN = "in"
    OUT = "out"


def _blocks(nodes: np.ndarray) -> Iterator[np.ndarray]:
    """``nodes`` in consecutive blocks of ``_BLOCK``, one distance pass each."""
    return (nodes[i:i + _BLOCK] for i in range(0, nodes.size, _BLOCK))


def _distances(view: GraphView, sources: np.ndarray, hops: int | None = None,
               allowed: np.ndarray | None = None) -> np.ndarray:
    """Shortest distances from each of ``sources``: one row per source, ``inf`` if unreached.

    A synchronous label-correcting pass: every round relaxes the edges whose
    source improved in the round before, with one gather, one add and one
    ``np.minimum.reduceat`` over those edges grouped by target.  ``hops``
    counts every edge as 1 and stops after that many rounds.  ``allowed`` is
    a (sources x n) node mask outside which a row never steps (its source is
    always entered).
    """
    order = view._by_target
    src, dst = view.src[order], view.dst[order]
    weight = np.ones(order.size) if hops is not None else view.weight[order]
    # node-major, so that the gather reads one contiguous row per edge
    dist = np.full((view.n, sources.size), np.inf)
    dist[sources, np.arange(sources.size)] = 0.0
    improved = np.zeros(view.n, dtype=bool)
    improved[sources] = True
    # a shortest path has fewer than n edges, so n rounds always settle every row
    for _ in range(view.n if hops is None else hops):
        live = np.flatnonzero(improved[src])
        if not live.size:
            break
        targets = dst[live]
        first = np.flatnonzero(np.concatenate(([True], targets[1:] != targets[:-1])))
        nodes = targets[first]
        best = np.minimum.reduceat(dist[src[live]] + weight[live, None], first, axis=0)
        if allowed is not None:
            best[~allowed.T[nodes]] = np.inf
        current = dist[nodes]
        dist[nodes] = np.minimum(best, current)
        improved[:] = False
        improved[nodes] = (best < current).any(axis=1)
    return dist.T


def betweenness(view: GraphView) -> ScoreVector:
    """Fraction of shortest paths passing through each node as intermediate.

    Pair accumulation follows the standard dependency scheme: ordered
    source/target pairs on directed views, each unordered pair once on
    undirected views.  Disconnected pairs contribute nothing.  A block of
    sources is one batched Brandes pass: path counts flow forward over the
    shortest-path DAGs in Kahn rounds, dependencies back over the same rounds.
    """
    n = view.n
    bc = np.zeros(n)
    for sources in _blocks(np.arange(n)):
        k = sources.size
        dist = _distances(view, sources).T
        # tight edges (u, v) with dist[u] + w == dist[v] form each source's shortest-path DAG;
        # (node, row) pairs are flattened to node * k + row
        reach = dist[view.src] + view.weight[:, None]
        edge, row = np.nonzero((reach == dist[view.dst]) & np.isfinite(reach))
        # a node adds its children's dependencies in reverse settle order, as Brandes does
        later = np.lexsort((-view.dst[edge], -dist[view.dst[edge], row]))
        edge, row = edge[later], row[later]
        tail = view.src[edge] * k + row
        head = view.dst[edge] * k + row
        waiting = np.bincount(head, minlength=n * k)
        sigma = np.zeros(n * k)
        sigma[sources * k + np.arange(k)] = 1.0
        rounds = []
        pending = np.arange(edge.size)
        while pending.size:
            ready = waiting[tail[pending]] == 0
            batch = pending[ready]
            sigma += np.bincount(head[batch], weights=sigma[tail[batch]], minlength=n * k)
            waiting -= np.bincount(head[batch], minlength=n * k)
            rounds.append(batch)
            pending = pending[~ready]
        delta = np.zeros(n * k)
        for batch in reversed(rounds):
            u, v = tail[batch], head[batch]
            delta += np.bincount(u, weights=sigma[u] * ((1.0 + delta[v]) / sigma[v]),
                                 minlength=n * k)
        delta[sources * k + np.arange(k)] = 0.0
        for from_source in delta.reshape(n, k).T:
            bc += from_source
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
    for sources in _blocks(np.arange(n)):
        for u, dist in zip(sources.tolist(), _distances(view, sources)):
            finite = np.isfinite(dist)
            finite[u] = False
            reached = int(finite.sum())
            if reached:
                values[u] = (reached / (n - 1)) * (reached / float(dist[finite].sum()))
    return ScoreVector("closeness", values)


def _multiply_adjacency(view: GraphView, x: np.ndarray, incoming: bool) -> np.ndarray:
    """``y[u] = sum_v A[v,u] x[v]`` when incoming, else ``sum_v A[u,v] x[v]``."""
    if incoming:
        return np.bincount(view.dst, weights=view.weight * x[view.src], minlength=view.n)
    return np.bincount(view.src, weights=view.weight * x[view.dst], minlength=view.n)


def eigenvector(view: GraphView, tol: float = EIGEN_TOL) -> ScoreVector:
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
    for _ in range(EIGEN_MAX_ITERS):
        y = _multiply_adjacency(view, x, incoming=False) + x
        y /= np.linalg.norm(y)
        if np.linalg.norm(y - x) < tol:
            return ScoreVector("eigenvector", y)
        x = y
    ax = _multiply_adjacency(view, x, incoming=False)
    rayleigh = float(x @ ax)
    raise ConvergenceError("eigenvector power iteration did not converge",
                           residual=float(np.linalg.norm(ax - rayleigh * x)))


def spectral_radius_estimate(view: GraphView) -> float:
    """Power-iteration estimate of the adjacency spectral radius."""
    n = view.n
    if n == 0 or view.edge_count == 0:
        return 0.0
    x = np.full(n, 1.0 / math.sqrt(n))
    estimate = 0.0
    for _ in range(_SPECTRAL_ITERATIONS):
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


def _peel(src: np.ndarray, dst: np.ndarray, weight: np.ndarray, n: int,
          level: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Shell index of every node, peeling the edges ``src -> dst`` in rounds.

    ``level(count, total)`` maps each node's count and weight sum of live
    out-edges to an integer level.  Each round peels every live node whose
    level is at most ``k = max(k, lowest live level)`` into shell ``k``, then
    takes the edges into the peeled nodes off their sources' counts and sums.
    """
    count = np.bincount(src, minlength=n)
    total = np.bincount(src, weights=weight, minlength=n)
    alive = np.ones(n, dtype=bool)
    shell = np.zeros(n)
    k = 0
    while alive.any():
        levels = level(count, total)
        k = max(k, int(levels[alive].min()))
        peel = alive & (levels <= k)
        shell[peel] = k
        alive &= ~peel
        into = np.flatnonzero(peel[dst])
        tails = src[into]
        count -= np.bincount(tails, minlength=n)
        total -= np.bincount(tails, weights=weight[into], minlength=n)
    return shell


def kshell(view: GraphView) -> ScoreVector:
    """Iterative-peeling shell index on the undirected unweighted view, by degree."""
    if view.kind is not ViewKind.UU:
        raise ValidationError("k-shell decomposition runs on the undirected unweighted view")
    return ScoreVector("kshell", _peel(view.src, view.dst, view.weight, view.n,
                                       lambda count, _: count))


def weighted_kshell(net: Network) -> ScoreVector:
    """Shell decomposition driven by the partially weighted out-degree.

    Each node's mass is ``sqrt(out_degree * out_strength)``, recomputed on
    the remaining subgraph while peeling.  Masses are quantized to integer
    levels ``floor(n * mass / initial_max_mass)`` so the peeling thresholds
    are discrete; out-strength 0 nodes sit in the lowest shell.
    """
    n = net.node_count
    peak = float(np.sqrt(net.out_degree() * net.out_strength()).max(initial=0.0))
    if peak == 0.0:
        return ScoreVector("wks", np.zeros(n))
    scale = n / peak
    # np.maximum guards the product against float drift in the weight sums
    return ScoreVector("wks", _peel(net.src, net.dst, net.weight, n, lambda count, total:
                                    np.floor(scale * np.sqrt(np.maximum(count * total, 0.0)))))
