"""Measure registry: maps measure ids to views, dependencies, and code.

The canonical input is a directed weighted network whose weights are
cascade probabilities.  Each id encodes which view a measure runs on,
e.g. ``c_b_uw`` is betweenness on the undirected weighted view with
inverted distances, ``c_katz_du`` is incoming Katz on the directed
unweighted view; ``c_od`` and ``c_os`` are the out-degree and
out-strength that :class:`Network` counts.  Combination measures
(``sc1``, ``sk*``) consume max-normalized inputs and use the fixed
constants of :mod:`.combined`.  Only the Katz attenuation and the
gravity radius come from the :class:`RunConfig`, which range-checks them;
every other input comes checked from :meth:`MeasureContext.get`.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import combined
from .centrality import betweenness, closeness, eigenvector, gravity, katz, kshell, weighted_kshell
from .config import RunConfig
from .errors import ValidationError
from .graph import Network, ViewKind, WeightMode, view

# tag of the measures' values, part of centrality's cache key: bump it
# whenever a score could change, as ENGINE and INGEST are bumped
MEASURES = "measures-1"


class MeasureContext:
    """Per-network cache so dependency chains compute each vector once."""

    def __init__(self, net: Network, cfg: RunConfig):
        self.net = net
        self.cfg = cfg
        self._cache: dict[str, np.ndarray] = {}

    def get(self, measure_id: str) -> np.ndarray:
        """``measure_id``'s values: one finite float64 per node, read-only, computed once.

        An unknown id, or values of another shape or not finite, raise
        :class:`ValidationError` naming the id.
        """
        if measure_id not in self._cache:
            try:
                builder = _BUILDERS[measure_id]
            except KeyError:
                raise ValidationError(
                    f"unknown measure {measure_id!r}; valid ids: {', '.join(measure_ids())}"
                ) from None
            values = np.array(builder(self), dtype=np.float64)
            if values.shape != (self.net.node_count,) or not np.all(np.isfinite(values)):
                raise ValidationError(f"measure {measure_id!r} must give one finite score "
                                      "per node")
            values.setflags(write=False)
            self._cache[measure_id] = values
        return self._cache[measure_id]


def measure_ids() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def _peak_scaled(values: np.ndarray) -> np.ndarray:
    """``values`` over their largest absolute value; all zeros pass through."""
    peak = float(np.max(np.abs(values), initial=0.0))
    return values / peak if peak else values


def _ods(net: Network) -> np.ndarray:
    """Out-degree times out-strength: the mass of ``mgc_ods``, and of ``mgc_wk`` with Katz."""
    return net.out_degree().astype(np.float64) * net.out_strength()


def _c_od(ctx: MeasureContext) -> np.ndarray:
    return ctx.net.out_degree()


def _c_os(ctx: MeasureContext) -> np.ndarray:
    return ctx.net.out_strength()


def _c_b_uu(ctx: MeasureContext) -> np.ndarray:
    return betweenness(view(ctx.net, ViewKind.UU))


def _c_b_uw(ctx: MeasureContext) -> np.ndarray:
    return betweenness(view(ctx.net, ViewKind.UW, WeightMode.INVERTED))


def _c_c_du(ctx: MeasureContext) -> np.ndarray:
    return closeness(view(ctx.net, ViewKind.DU))


def _c_c_dw(ctx: MeasureContext) -> np.ndarray:
    return closeness(view(ctx.net, ViewKind.DW, WeightMode.INVERTED))


def _c_c_dw_mod(ctx: MeasureContext) -> np.ndarray:
    return combined.modified_closeness(ctx.get("c_c_dw"))


def _c_e_uu(ctx: MeasureContext) -> np.ndarray:
    return eigenvector(ctx.net)


def _c_katz_du(ctx: MeasureContext) -> np.ndarray:
    return katz(view(ctx.net, ViewKind.DU), incoming=True, alpha=ctx.cfg.katz_alpha)


def _c_katz_dw_out(ctx: MeasureContext) -> np.ndarray:
    return katz(view(ctx.net, ViewKind.DW), incoming=False, alpha=ctx.cfg.katz_alpha)


def _ks(ctx: MeasureContext) -> np.ndarray:
    return kshell(ctx.net)


def _wks(ctx: MeasureContext) -> np.ndarray:
    return weighted_kshell(ctx.net)


def _gc(ctx: MeasureContext) -> np.ndarray:
    """Classic gravity: k-shell masses over undirected hop distances."""
    return gravity(view(ctx.net, ViewKind.UU), ctx.get("ks"), ctx.cfg.gravity_radius)


def _sc1(ctx: MeasureContext) -> np.ndarray:
    return combined.sc1(_peak_scaled(ctx.get("c_os")),
                        _peak_scaled(ctx.get("c_c_dw_mod")))


def _sk(combine: Callable[..., np.ndarray]) -> Callable[[MeasureContext], np.ndarray]:
    """``combine`` of peak-scaled out-strength and incoming Katz."""
    def build(ctx: MeasureContext) -> np.ndarray:
        return combine(_peak_scaled(ctx.get("c_os")), _peak_scaled(ctx.get("c_katz_du")))
    return build


def _mgc(mass: Callable[[MeasureContext], np.ndarray]
         ) -> Callable[[MeasureContext], np.ndarray]:
    """Gravity over inverted weighted distances with the mass ``mass`` builds."""
    def build(ctx: MeasureContext) -> np.ndarray:
        return gravity(view(ctx.net, ViewKind.DW, WeightMode.INVERTED), mass(ctx),
                       ctx.cfg.gravity_radius)
    return build


_BUILDERS: dict[str, Callable[[MeasureContext], np.ndarray]] = {
    "c_od": _c_od,
    "c_os": _c_os,
    "c_b_uu": _c_b_uu,
    "c_b_uw": _c_b_uw,
    "c_c_du": _c_c_du,
    "c_c_dw": _c_c_dw,
    "c_c_dw_mod": _c_c_dw_mod,
    "c_e_uu": _c_e_uu,
    "c_katz_du": _c_katz_du,
    "c_katz_dw_out": _c_katz_dw_out,
    "ks": _ks,
    "wks": _wks,
    "gc": _gc,
    "gc_w": _mgc(lambda ctx: ctx.get("wks")),
    "sc1": _sc1,
    "sk1": _sk(combined.sk1),
    "sk2": _sk(combined.sk2),
    "sk3": _sk(combined.sk3),
    "mgc_ods": _mgc(lambda ctx: _ods(ctx.net)),
    "mgc_s": _mgc(lambda ctx: ctx.get("c_os")),
    "mgc_sc": _mgc(lambda ctx: ctx.get("sc1")),
    "mgc_sk": _mgc(lambda ctx: ctx.get("sk3")),
    "mgc_wk": _mgc(lambda ctx: _ods(ctx.net) * ctx.get("c_katz_dw_out")),
}
