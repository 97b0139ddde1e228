import math

import numpy as np
import pytest

from spreadrank.combined import (DEFAULT_DELTA, DEFAULT_GAMMA, modified_closeness, sc1,
                                 sk_family)
from spreadrank.errors import ValidationError
from spreadrank.scores import ScoreVector


def vec(*values):
    return ScoreVector("test", np.array(values, dtype=float))


class TestModifiedCloseness:
    def test_boundary_maps_to_one(self):
        assert modified_closeness(vec(0.04)).values[0] == 1.0

    def test_zero_maps_to_low_branch_top(self):
        assert modified_closeness(vec(0.0)).values[0] == 0.96

    def test_half_maps_to_folded(self):
        assert math.isclose(modified_closeness(vec(0.5)).values[0], 0.54, abs_tol=1e-15)

    def test_order_preserving_below_reversing_above(self):
        below = modified_closeness(vec(0.01, 0.03)).values
        above = modified_closeness(vec(0.5, 0.9)).values
        assert below[0] < below[1]
        assert above[0] > above[1]

    def test_fold_is_injective_per_branch(self):
        values = np.linspace(0, 1, 101)
        folded = modified_closeness(ScoreVector("c", values)).values
        low = folded[values <= 0.04]
        high = folded[values > 0.04]
        assert len(set(low.tolist())) == low.size
        assert len(set(high.tolist())) == high.size


class TestDeriveCoefficients:
    def test_published_strengths_round_to_64_36(self):
        # the sc1 defaults split a unit budget in proportion to the published strengths
        k_local, k_global = 1.29864, 0.725396
        gamma, delta = k_local / (k_local + k_global), k_global / (k_local + k_global)
        assert math.isclose(gamma, 0.6417, abs_tol=5e-4)
        assert round(gamma, 2) == DEFAULT_GAMMA
        assert round(delta, 2) == DEFAULT_DELTA
        assert math.isclose(gamma + delta, 1.0, abs_tol=1e-15)


class TestSC1:
    def test_equal_inputs_fixed_point(self):
        out = sc1(vec(1.0), vec(1.0))
        assert math.isclose(out.values[0], 1.0, abs_tol=1e-15)

    def test_strength_only(self):
        assert math.isclose(sc1(vec(0.5), vec(0.0)).values[0], 0.32, abs_tol=1e-15)

    def test_closeness_only(self):
        assert math.isclose(sc1(vec(0.0), vec(1.0)).values[0], 0.36, abs_tol=1e-15)

    def test_joint_scaling_preserves_ranking(self):
        rng = np.random.default_rng(1)
        s = rng.random(20)
        c = rng.random(20)
        base = sc1(ScoreVector("s", s), ScoreVector("c", c)).values
        scaled = sc1(ScoreVector("s", 3.5 * s), ScoreVector("c", 3.5 * c)).values
        np.testing.assert_allclose(scaled, 3.5 * base, rtol=1e-12)
        assert np.array_equal(np.argsort(base), np.argsort(scaled))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            sc1(vec(1.0), vec(1.0, 2.0))


class TestSKFamily:
    def test_unit_inputs(self):
        s, z = vec(1.0), vec(1.0)
        assert sk_family(s, z, "sk1").values[0] == 2.0
        assert sk_family(s, z, "sk2").values[0] == 0.5
        assert sk_family(s, z, "sk3").values[0] == 1.0

    def test_zero_strength(self):
        s, z = vec(0.0), vec(1.0)
        assert sk_family(s, z, "sk1").values[0] == 0.0
        assert sk_family(s, z, "sk2").values[0] == -1.0
        assert sk_family(s, z, "sk3").values[0] == 0.0

    def test_zero_katz_guarded(self):
        s, z = vec(1.0), vec(0.0)
        for variant in ("sk1", "sk2", "sk3"):
            out = sk_family(s, z, variant).values
            assert np.all(np.isfinite(out))
        assert sk_family(s, z, "sk3").values[0] == 1e12

    def test_sk3_scale_free(self):
        rng = np.random.default_rng(2)
        s = rng.random(30)
        z = rng.random(30) + 0.1
        a = sk_family(ScoreVector("s", s), ScoreVector("z", z), "sk3").values
        b = sk_family(ScoreVector("s", 7 * s), ScoreVector("z", 7 * z), "sk3").values
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_finite_for_any_nonnegative_inputs(self):
        rng = np.random.default_rng(3)
        s = np.where(rng.random(50) < 0.3, 0.0, rng.random(50))
        z = np.where(rng.random(50) < 0.3, 0.0, rng.random(50))
        for variant in ("sk1", "sk2", "sk3"):
            out = sk_family(ScoreVector("s", s), ScoreVector("z", z), variant).values
            assert np.all(np.isfinite(out))

    def test_unknown_variant(self):
        with pytest.raises(ValidationError):
            sk_family(vec(1.0), vec(1.0), "sk9")
