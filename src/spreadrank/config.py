"""Run configuration shared by simulation, measures, and evaluation."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

DEFAULT_MEASURES = (
    "c_od", "c_os", "c_b_uu", "c_b_uw", "c_c_du", "c_c_dw", "c_c_dw_mod",
    "c_e_uu", "c_katz_du", "c_katz_dw_out", "wks", "gc", "gc_w",
    "sc1", "sk1", "sk2", "sk3",
    "mgc_ods", "mgc_s", "mgc_sc", "mgc_sk", "mgc_wk",
)


@dataclass(frozen=True)
class RunConfig:
    """All tunable parameters of a pipeline run; the CLI's defaults are these.

    ``katz_alpha`` of ``None`` selects the spectral default
    ``0.85 / lambda_max`` per adjacency operator; a finite positive float
    fixes it.  The combined measures' constants (fold threshold 0.04, sc1
    weights 0.64/0.36) are fixed by the paper and live in :mod:`.combined`.
    """

    runs: int = 20000
    master_seed: int = 1
    top_k: int = 50
    katz_alpha: float | None = None
    gravity_radius: int = 3
    measures: tuple[str, ...] = DEFAULT_MEASURES

    def __post_init__(self):
        if self.runs < 2:
            raise ParameterError("runs must be >= 2 for error reporting")
        if self.top_k < 1:
            raise ParameterError("top_k must be >= 1")
        if self.gravity_radius < 1:
            raise ParameterError("gravity radius must be >= 1")
        if self.katz_alpha is not None and not 0 < self.katz_alpha < math.inf:
            raise ParameterError("katz alpha must be a finite number > 0")
        # a spread file holds the seed as a signed 64-bit integer
        if not -2**63 <= self.master_seed < 2**63:
            raise ParameterError("master seed must be in [-2**63, 2**63)")
