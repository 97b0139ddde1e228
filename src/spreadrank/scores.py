"""Per-node score vectors produced by the centrality measures."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True, eq=False)
class ScoreVector:
    """One centrality measure's value for every node of a network.

    ``values[i]`` is the score of the node with dense id ``i``.
    """

    measure: str
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise ValidationError("score vector must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"non-finite scores in measure {self.measure!r}")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size

    def normalize(self) -> "ScoreVector":
        """Divide by the maximum absolute value; all-zero vectors pass through."""
        peak = float(np.max(np.abs(self.values))) if len(self) else 0.0
        if peak == 0.0:
            return self
        return ScoreVector(self.measure, self.values / peak)

    def with_measure(self, measure: str) -> "ScoreVector":
        return ScoreVector(measure, self.values)
