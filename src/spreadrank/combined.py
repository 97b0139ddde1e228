"""Combined centrality measures built from one local and one global score.

``sc1`` blends out-strength with a folded closeness; the ``sk`` family
combines out-strength with Katz centrality, whose values drop where
spread rises, so Katz lands in the denominator.
"""
from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Fixed by the paper: the closeness fold point, sc1's weights (the published
# correlation strengths split over a unit budget), and sk's zero-Katz stand-in.
DEFAULT_CLOSENESS_THRESHOLD = 0.04
DEFAULT_GAMMA = 0.64
DEFAULT_DELTA = 0.36
DEFAULT_EPS = 1e-12

SK_VARIANTS = ("sk1", "sk2", "sk3")


def modified_closeness(c: np.ndarray) -> np.ndarray:
    """Fold raw closeness so that values at or below ``t = DEFAULT_CLOSENESS_THRESHOLD``
    score highest.

    value <= t  ->  value + 1 - t
    value >  t  ->  1 - value + t
    """
    t = DEFAULT_CLOSENESS_THRESHOLD
    return np.where(c <= t, c + 1.0 - t, 1.0 - c + t)


def sc1(c_os: np.ndarray, c_mod_closeness: np.ndarray) -> np.ndarray:
    """Convex combination ``gamma * out_strength + delta * folded_closeness``.

    Both inputs are expected max-normalized over the same node set.
    """
    if c_os.shape != c_mod_closeness.shape:
        raise ValidationError("sc1 inputs must cover the same node set")
    return DEFAULT_GAMMA * c_os + DEFAULT_DELTA * c_mod_closeness


def sk_family(c_os: np.ndarray, c_katz: np.ndarray, variant: str) -> np.ndarray:
    """Strength/Katz combinations; ``DEFAULT_EPS`` replaces zero Katz values.

    sk1 = s + s/z      sk2 = s - z/(s+z)      sk3 = s/z
    """
    if variant not in SK_VARIANTS:
        raise ValidationError(f"unknown sk variant {variant!r}")
    if c_os.shape != c_katz.shape:
        raise ValidationError("sk inputs must cover the same node set")
    s, z = c_os, np.where(c_katz == 0.0, DEFAULT_EPS, c_katz)
    if variant == "sk1":
        return s + s / z
    if variant == "sk2":
        return s - z / np.where(s + z == 0.0, DEFAULT_EPS, s + z)
    return s / z
