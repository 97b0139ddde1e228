"""Frozen measure outputs: every measure id must reproduce its recorded values.

The fixture holds, per network, the SHA-256 of ``values.tobytes()`` for
every measure id at the default settings.  The networks are the four
bundled synthetic sets, ingested as ``data/manifest.json`` declares them,
and a generated n = 300 ladder graph
(``social_digraph(default_rng(7), 300, 6.0, 0.3)`` plus ``apply_wcs``).
Betweenness sums its dependencies in an order that is not part of its
definition, so its values are stored instead of a digest and are matched
to a relative 1e-12 with an identical stable ranking.

Regenerate (only at a commit whose measures are known to be right) with
``PYTHONPATH=src python tests/test_measure_digests.py``, then bump
``measures.MEASURES`` and add the new sections' SHA-256 under it to
``FROZEN_UNDER``.
"""
import functools
import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from spreadrank.config import RunConfig
from spreadrank.graph import Network, apply_wcs
from spreadrank.measures import MEASURES, MeasureContext, measure_ids

from test_cascade_digests import bundled_networks

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "measure_digests.json"
BETWEENNESS = ("c_b_uu", "c_b_uw")
# per MEASURES tag, the SHA-256 of the fixture's frozen sections under that tag: a
# re-recorded fixture needs a new tag, so that cached scores are recomputed
FROZEN_UNDER = {
    "measures-1": "a2065905bfad56719daaabe592daf9faa6e2a4be1cbfa59081a9aa8684366fad",
}


def ladder_network(n: int) -> Network:
    spec = importlib.util.spec_from_file_location(
        "make_synthetic_data", ROOT / "scripts" / "make_synthetic_data.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    edges = module.social_digraph(np.random.default_rng(7), n, 6.0, 0.3)
    return apply_wcs(Network.from_edges(n, edges))


NETWORKS = {**dict(bundled_networks()), "ladder_300": ladder_network(300)}


@functools.cache
def measures(name: str) -> dict[str, np.ndarray]:
    ctx = MeasureContext(NETWORKS[name], RunConfig())
    return {measure_id: ctx.get(measure_id) for measure_id in measure_ids()}


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()


def test_measures_tag_names_the_frozen_values():
    recorded = json.loads(FIXTURE.read_text())
    sections = {key: recorded[key] for key in ("digests", "betweenness")}
    text = json.dumps(sections, sort_keys=True).encode()
    assert FROZEN_UNDER.get(MEASURES) == hashlib.sha256(text).hexdigest(), \
        "the frozen measures changed: bump measures.MEASURES and record it in FROZEN_UNDER"


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_measures_match_frozen_digests(name):
    recorded = json.loads(FIXTURE.read_text())
    got = measures(name)
    assert set(recorded["digests"][name]) | set(BETWEENNESS) == set(got)
    mismatched = [m for m, expected in recorded["digests"][name].items()
                  if digest(got[m]) != expected]
    assert not mismatched, f"{name}: {mismatched} differ"


@pytest.mark.parametrize("measure_id", BETWEENNESS)
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_betweenness_matches_frozen_values(name, measure_id):
    expected = np.array(json.loads(FIXTURE.read_text())["betweenness"][name][measure_id])
    got = measures(name)[measure_id]
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
    assert np.array_equal(np.argsort(got, kind="stable"),
                          np.argsort(expected, kind="stable"))


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    payload = {
        "digests": {name: {m: digest(v) for m, v in measures(name).items()
                           if m not in BETWEENNESS} for name in NETWORKS},
        "betweenness": {name: {m: measures(name)[m].tolist() for m in BETWEENNESS}
                        for name in NETWORKS},
    }
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
