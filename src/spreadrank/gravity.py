"""Gravity-style centralities: node masses attract over short distances.

A node's score sums ``mass(u) * mass(v) / dist(u, v)**2`` over the
nodes ``v`` it can reach within a hop radius.  Membership in the
neighborhood is counted in hops (edges traversed), while the distance in
the denominator is the weighted shortest path restricted to that
neighborhood; on weighted views callers pass inverted weights.  Both come
from :func:`.centrality._distances` (``hops=radius``, then ``allowed=members``);
the pipeline's views meet its precondition, every candidate ``d + w`` above ``d``.
"""
from __future__ import annotations

import numpy as np

from .centrality import _blocks, _distances
from .errors import ValidationError
from .graph import GraphView, Network


def gravity(distance_view: GraphView, mass: np.ndarray, radius: int) -> np.ndarray:
    """Mass-product-over-squared-distance sum across each hop neighborhood."""
    n = distance_view.n
    if mass.size != n:
        raise ValidationError("mass vector must cover every node")
    if radius < 1:
        raise ValidationError("gravity radius must be >= 1")
    scores = np.zeros(n)
    for sources in _blocks(np.flatnonzero(mass)):
        members = np.isfinite(_distances(distance_view, sources, hops=radius))
        members[np.arange(sources.size), sources] = False
        # hop-reachable implies weight-reachable inside the induced search
        dist = _distances(distance_view, sources, allowed=members)
        for u, inside, row in zip(sources.tolist(), members, dist):
            if inside.any():
                scores[u] = mass[u] * np.sum(mass[inside] / row[inside] ** 2)
    return scores


def mass_ods(net: Network) -> np.ndarray:
    """Out-degree times out-strength."""
    return net.out_degree().astype(np.float64) * net.out_strength()


def mass_wk(net: Network, katz_out_dw: np.ndarray) -> np.ndarray:
    """ods times outgoing Katz on the weighted graph."""
    if katz_out_dw.size != net.node_count:
        raise ValidationError("katz vector must cover every node")
    return mass_ods(net) * katz_out_dw
