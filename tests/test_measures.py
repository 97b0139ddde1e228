import sys
from collections import Counter

import numpy as np
import pytest

from spreadrank import centrality, measures
from spreadrank.centrality import gravity, weighted_kshell
from spreadrank.config import DEFAULT_MEASURES, RunConfig
from spreadrank.errors import ValidationError
from spreadrank.graph import Network, ViewKind, WeightMode, apply_wcs, view
from spreadrank.measures import MeasureContext, _ods, measure_ids

from oracles import random_digraph


@pytest.fixture(scope="module")
def net():
    rng = np.random.default_rng(99)
    n, edges = random_digraph(rng, max_n=9, p=0.35)
    return apply_wcs(Network.from_edges(n, edges))


def test_all_ids_compute(net):
    ctx = MeasureContext(net, RunConfig())
    for measure_id in measure_ids():
        scores = ctx.get(measure_id)
        assert scores.shape == (net.node_count,)
        assert scores.dtype == np.float64
        assert not scores.flags.writeable


def test_default_measures_are_known():
    assert DEFAULT_MEASURES == tuple(m for m in measure_ids() if m != "ks")


def test_unknown_id_lists_valid_ones(net):
    with pytest.raises(ValidationError, match="c_od"):
        MeasureContext(net, RunConfig()).get("nope")


def test_cache_returns_same_object(net):
    ctx = MeasureContext(net, RunConfig())
    assert ctx.get("c_os") is ctx.get("c_os")


@pytest.mark.parametrize("values", [
    lambda n: np.full(n, np.nan), lambda n: np.r_[np.inf, np.zeros(n - 1)],
    lambda n: np.zeros(n + 1), lambda n: np.zeros((n, 1))],
    ids=["nan", "inf", "one_too_many", "column"])
def test_values_not_one_finite_float_per_node_are_refused(net, monkeypatch, values):
    monkeypatch.setitem(measures._BUILDERS, "c_os", lambda ctx: values(ctx.net.node_count))
    ctx = MeasureContext(net, RunConfig())
    with pytest.raises(ValidationError, match="'c_os'"):
        ctx.get("c_os")
    # nothing was cached: the next call checks again
    with pytest.raises(ValidationError, match="'c_os'"):
        ctx.get("c_os")


def test_c_od_is_out_degree(net):
    values = MeasureContext(net, RunConfig()).get("c_od")
    assert np.array_equal(values, net.out_degree().astype(float))


def test_c_os_is_wcs_out_strength(net):
    values = MeasureContext(net, RunConfig()).get("c_os")
    np.testing.assert_allclose(values, net.out_strength())


def test_modified_closeness_chain(net):
    ctx = MeasureContext(net, RunConfig())
    raw = ctx.get("c_c_dw")
    folded = ctx.get("c_c_dw_mod")
    expected = np.where(raw <= 0.04, raw + 0.96, 1.04 - raw)
    np.testing.assert_allclose(folded, expected)


def peak_scaled(values):
    return values / np.max(np.abs(values))


def test_sc1_uses_normalized_inputs(net):
    ctx = MeasureContext(net, RunConfig())
    s = peak_scaled(ctx.get("c_os"))
    c = peak_scaled(ctx.get("c_c_dw_mod"))
    np.testing.assert_allclose(ctx.get("sc1"), 0.64 * s + 0.36 * c)


def test_sk3_ratio_of_normalized(net):
    ctx = MeasureContext(net, RunConfig())
    s = peak_scaled(ctx.get("c_os"))
    z = peak_scaled(ctx.get("c_katz_du"))
    z = np.where(z == 0.0, 1e-12, z)
    np.testing.assert_allclose(ctx.get("sk3"), s / z)


def test_mgc_wk_chain_matches_manual_assembly(net):
    ctx = MeasureContext(net, RunConfig())
    mass = _ods(net) * ctx.get("c_katz_dw_out")
    manual = gravity(view(net, ViewKind.DW, WeightMode.INVERTED), mass, 3)
    np.testing.assert_allclose(ctx.get("mgc_wk"), manual)


def test_gc_w_uses_weighted_shells(net):
    ctx = MeasureContext(net, RunConfig())
    manual = gravity(view(net, ViewKind.DW, WeightMode.INVERTED),
                     weighted_kshell(net), 3)
    np.testing.assert_allclose(ctx.get("gc_w"), manual)


def test_shells_computed_once_per_context(net, monkeypatch):
    # gc and gc_w take their masses from the context's ks and wks
    calls = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("kshell", "weighted_kshell"):
        original = getattr(centrality, name)
        for module in [m for key, m in sys.modules.items() if key.startswith("spreadrank")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted(name, original))
    ctx = MeasureContext(net, RunConfig())
    for measure_id in ("wks", "gc_w", "ks", "gc"):
        ctx.get(measure_id)
    assert calls == {"kshell": 1, "weighted_kshell": 1}


def test_radius_config_respected(net):
    wide = MeasureContext(net, RunConfig(gravity_radius=4)).get("mgc_s")
    narrow = MeasureContext(net, RunConfig(gravity_radius=1)).get("mgc_s")
    assert np.all(wide >= narrow - 1e-12)


def test_fixed_katz_alpha_used(net):
    from spreadrank.centrality import katz
    cfg = RunConfig(katz_alpha=0.05)
    got = MeasureContext(net, cfg).get("c_katz_du")
    expected = katz(view(net, ViewKind.DU), True, 0.05)
    np.testing.assert_allclose(got, expected)
