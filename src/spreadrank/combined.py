"""Combined centrality measures built from one local and one global score.

``sc1`` blends out-strength with a folded closeness; the ``sk`` family
combines out-strength with Katz centrality, whose values drop where
spread rises, so Katz lands in the denominator.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .scores import ScoreVector

# Fixed by the paper: the closeness fold point, sc1's weights (the published
# correlation strengths split over a unit budget), and sk's zero-Katz stand-in.
DEFAULT_CLOSENESS_THRESHOLD = 0.04
DEFAULT_GAMMA = 0.64
DEFAULT_DELTA = 0.36
DEFAULT_EPS = 1e-12

SK_VARIANTS = ("sk1", "sk2", "sk3")


def modified_closeness(c: ScoreVector) -> ScoreVector:
    """Fold raw closeness so that values at or below ``t = DEFAULT_CLOSENESS_THRESHOLD``
    score highest.

    value <= t  ->  value + 1 - t
    value >  t  ->  1 - value + t
    """
    v, t = c.values, DEFAULT_CLOSENESS_THRESHOLD
    out = np.where(v <= t, v + 1.0 - t, 1.0 - v + t)
    return ScoreVector("closeness_mod", out)


def sc1(c_os: ScoreVector, c_mod_closeness: ScoreVector) -> ScoreVector:
    """Convex combination ``gamma * out_strength + delta * folded_closeness``.

    Both inputs are expected max-normalized over the same node set.
    """
    if len(c_os) != len(c_mod_closeness):
        raise ValidationError("sc1 inputs must cover the same node set")
    values = DEFAULT_GAMMA * c_os.values + DEFAULT_DELTA * c_mod_closeness.values
    return ScoreVector("sc1", values)


def sk_family(c_os: ScoreVector, c_katz: ScoreVector, variant: str) -> ScoreVector:
    """Strength/Katz combinations; ``DEFAULT_EPS`` replaces zero Katz values.

    sk1 = s + s/z      sk2 = s - z/(s+z)      sk3 = s/z
    """
    if variant not in SK_VARIANTS:
        raise ValidationError(f"unknown sk variant {variant!r}")
    if len(c_os) != len(c_katz):
        raise ValidationError("sk inputs must cover the same node set")
    s = c_os.values
    z = np.where(c_katz.values == 0.0, DEFAULT_EPS, c_katz.values)
    if variant == "sk1":
        values = s + s / z
    elif variant == "sk2":
        denom = np.where(s + z == 0.0, DEFAULT_EPS, s + z)
        values = s - z / denom
    else:
        values = s / z
    return ScoreVector(variant, values)
