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


def modified_closeness(c: ScoreVector, threshold: float = DEFAULT_CLOSENESS_THRESHOLD) -> ScoreVector:
    """Fold raw closeness so that values at or below ``threshold`` score highest.

    value <= threshold  ->  value + 1 - threshold
    value >  threshold  ->  1 - value + threshold
    """
    v = c.values
    out = np.where(v <= threshold, v + 1.0 - threshold, 1.0 - v + threshold)
    return ScoreVector("closeness_mod", out)


def sc1(c_os: ScoreVector, c_mod_closeness: ScoreVector,
        gamma: float = DEFAULT_GAMMA, delta: float = DEFAULT_DELTA) -> ScoreVector:
    """Convex combination ``gamma * out_strength + delta * folded_closeness``.

    Both inputs are expected max-normalized over the same node set.
    """
    if len(c_os) != len(c_mod_closeness):
        raise ValidationError("sc1 inputs must cover the same node set")
    values = gamma * c_os.values + delta * c_mod_closeness.values
    return ScoreVector("sc1", values)


def sk_family(c_os: ScoreVector, c_katz: ScoreVector, variant: str,
              eps: float = DEFAULT_EPS) -> ScoreVector:
    """Strength/Katz combinations; ``eps`` replaces zero Katz values.

    sk1 = s + s/z      sk2 = s - z/(s+z)      sk3 = s/z
    """
    if variant not in SK_VARIANTS:
        raise ValidationError(f"unknown sk variant {variant!r}")
    if len(c_os) != len(c_katz):
        raise ValidationError("sk inputs must cover the same node set")
    if eps <= 0:
        raise ValidationError("eps must be > 0")
    s = c_os.values
    z = np.where(c_katz.values == 0.0, eps, c_katz.values)
    if variant == "sk1":
        values = s + s / z
    elif variant == "sk2":
        denom = np.where(s + z == 0.0, eps, s + z)
        values = s - z / denom
    else:
        values = s / z
    return ScoreVector(variant, values)
