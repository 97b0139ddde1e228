"""Measure registry: maps measure ids to views, dependencies, and code.

The canonical input is a directed weighted network whose weights are
cascade probabilities.  Each id encodes which view a measure runs on,
e.g. ``c_b_uw`` is betweenness on the undirected weighted view with
inverted distances, ``c_katz_du`` is incoming Katz on the directed
unweighted view.  Combination measures (``sc1``, ``sk*``) consume
max-normalized inputs and use the fixed constants of :mod:`.combined`.
Only the Katz attenuation and the gravity radius come from the
:class:`RunConfig`.
"""
from __future__ import annotations

from typing import Callable

from . import combined, gravity
from .centrality import (Direction, betweenness, closeness, degree, eigenvector,
                         katz, strength, weighted_kshell, kshell)
from .config import RunConfig
from .errors import ValidationError
from .graph import Network, ViewKind, WeightMode, view
from .scores import ScoreVector

# tag of the measures' values, part of centrality's cache key: bump it
# whenever a score could change, as ENGINE and INGEST are bumped
MEASURES = "measures-1"


class MeasureContext:
    """Per-network cache so dependency chains compute each vector once."""

    def __init__(self, net: Network, cfg: RunConfig | None = None):
        self.net = net
        self.cfg = cfg or RunConfig()
        self._cache: dict[str, ScoreVector] = {}

    def get(self, measure_id: str) -> ScoreVector:
        if measure_id not in self._cache:
            try:
                builder = _BUILDERS[measure_id]
            except KeyError:
                raise ValidationError(
                    f"unknown measure {measure_id!r}; valid ids: {', '.join(measure_ids())}"
                ) from None
            self._cache[measure_id] = builder(self).with_measure(measure_id)
        return self._cache[measure_id]


def measure_ids() -> tuple[str, ...]:
    return tuple(_BUILDERS)


def _c_od(ctx: MeasureContext) -> ScoreVector:
    return degree(view(ctx.net, ViewKind.DU))


def _c_os(ctx: MeasureContext) -> ScoreVector:
    return strength(view(ctx.net, ViewKind.DW))


def _c_b_uu(ctx: MeasureContext) -> ScoreVector:
    return betweenness(view(ctx.net, ViewKind.UU))


def _c_b_uw(ctx: MeasureContext) -> ScoreVector:
    return betweenness(view(ctx.net, ViewKind.UW, WeightMode.INVERTED))


def _c_c_du(ctx: MeasureContext) -> ScoreVector:
    return closeness(view(ctx.net, ViewKind.DU))


def _c_c_dw(ctx: MeasureContext) -> ScoreVector:
    return closeness(view(ctx.net, ViewKind.DW, WeightMode.INVERTED))


def _c_c_dw_mod(ctx: MeasureContext) -> ScoreVector:
    return combined.modified_closeness(ctx.get("c_c_dw"))


def _c_e_uu(ctx: MeasureContext) -> ScoreVector:
    return eigenvector(view(ctx.net, ViewKind.UU))


def _c_katz_du(ctx: MeasureContext) -> ScoreVector:
    return katz(view(ctx.net, ViewKind.DU), Direction.IN, ctx.cfg.katz_alpha)


def _c_katz_dw_out(ctx: MeasureContext) -> ScoreVector:
    return katz(view(ctx.net, ViewKind.DW), Direction.OUT, ctx.cfg.katz_alpha)


def _ks(ctx: MeasureContext) -> ScoreVector:
    return kshell(view(ctx.net, ViewKind.UU))


def _wks(ctx: MeasureContext) -> ScoreVector:
    return weighted_kshell(ctx.net)


def _gc(ctx: MeasureContext) -> ScoreVector:
    """Classic gravity: k-shell masses over undirected hop distances."""
    return gravity.gravity(view(ctx.net, ViewKind.UU), ctx.get("ks"), ctx.cfg.gravity_radius)


def _sc1(ctx: MeasureContext) -> ScoreVector:
    return combined.sc1(ctx.get("c_os").normalize(), ctx.get("c_c_dw_mod").normalize())


def _sk(variant: str) -> Callable[[MeasureContext], ScoreVector]:
    def build(ctx: MeasureContext) -> ScoreVector:
        return combined.sk_family(ctx.get("c_os").normalize(),
                                  ctx.get("c_katz_du").normalize(), variant)
    return build


def _mgc(mass: Callable[[MeasureContext], ScoreVector]
         ) -> Callable[[MeasureContext], ScoreVector]:
    """Gravity over inverted weighted distances with the mass ``mass`` builds."""
    def build(ctx: MeasureContext) -> ScoreVector:
        return gravity.gravity(view(ctx.net, ViewKind.DW, WeightMode.INVERTED), mass(ctx),
                               ctx.cfg.gravity_radius)
    return build


_BUILDERS: dict[str, Callable[[MeasureContext], ScoreVector]] = {
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
    "sk1": _sk("sk1"),
    "sk2": _sk("sk2"),
    "sk3": _sk("sk3"),
    "mgc_ods": _mgc(lambda ctx: gravity.mass_ods(ctx.net)),
    "mgc_s": _mgc(lambda ctx: ctx.get("c_os")),
    "mgc_sc": _mgc(lambda ctx: ctx.get("sc1")),
    "mgc_sk": _mgc(lambda ctx: ctx.get("sk3")),
    "mgc_wk": _mgc(lambda ctx: gravity.mass_wk(ctx.net, ctx.get("c_katz_dw_out"))),
}
