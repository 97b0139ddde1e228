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
from .scores import ScoreVector


def gravity(distance_view: GraphView, mass: ScoreVector | np.ndarray,
            radius: int) -> ScoreVector:
    """Mass-product-over-squared-distance sum across each hop neighborhood."""
    masses = mass.values if isinstance(mass, ScoreVector) else np.asarray(mass, np.float64)
    n = distance_view.n
    if masses.size != n:
        raise ValidationError("mass vector must cover every node")
    if radius < 1:
        raise ValidationError("gravity radius must be >= 1")
    scores = np.zeros(n)
    for sources in _blocks(np.flatnonzero(masses)):
        members = np.isfinite(_distances(distance_view, sources, hops=radius))
        members[np.arange(sources.size), sources] = False
        # hop-reachable implies weight-reachable inside the induced search
        dist = _distances(distance_view, sources, allowed=members)
        for u, inside, row in zip(sources.tolist(), members, dist):
            if inside.any():
                scores[u] = masses[u] * np.sum(masses[inside] / row[inside] ** 2)
    return ScoreVector("gravity", scores)


def mass_ods(net: Network) -> ScoreVector:
    """Out-degree times out-strength."""
    values = net.out_degree().astype(np.float64) * net.out_strength()
    return ScoreVector("ods", values)


def mass_wk(net: Network, katz_out_dw: ScoreVector) -> ScoreVector:
    """ods times outgoing Katz on the weighted graph."""
    if len(katz_out_dw) != net.node_count:
        raise ValidationError("katz vector must cover every node")
    values = mass_ods(net).values * katz_out_dw.values
    return ScoreVector("wk", values)
