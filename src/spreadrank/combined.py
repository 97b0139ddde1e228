"""Combined centrality measures built from one local and one global score.

``sc1`` blends out-strength with a folded closeness; the ``sk`` family
combines out-strength with Katz centrality, whose values drop where
spread rises, so Katz lands in the denominator.  Inputs come checked from
:meth:`.measures.MeasureContext.get`: one finite float64 per node each.
"""
from __future__ import annotations

import numpy as np

# Fixed by the paper: the closeness fold point, sc1's weights (the published
# correlation strengths split over a unit budget), and sk's zero-Katz stand-in.
DEFAULT_CLOSENESS_THRESHOLD = 0.04
DEFAULT_GAMMA = 0.64
DEFAULT_DELTA = 0.36
DEFAULT_EPS = 1e-12


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

    Both inputs are expected max-normalized.
    """
    return DEFAULT_GAMMA * c_os + DEFAULT_DELTA * c_mod_closeness


def _nonzero(values: np.ndarray) -> np.ndarray:
    """``values`` with ``DEFAULT_EPS`` in place of each zero: sk's Katz and sk2's ``s + z``."""
    return np.where(values == 0.0, DEFAULT_EPS, values)


def sk1(s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``s + s/z`` of out-strength ``s`` and Katz ``z``."""
    return s + s / _nonzero(z)


def sk2(s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``s - z/(s+z)`` of out-strength ``s`` and Katz ``z``."""
    z = _nonzero(z)
    return s - z / _nonzero(s + z)


def sk3(s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``s/z`` of out-strength ``s`` and Katz ``z``."""
    return s / _nonzero(z)
