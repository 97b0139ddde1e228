"""Frozen cascade counts: ``cascade_sizes`` must reproduce recorded digests.

The fixture holds the SHA-256 of ``cascade_sizes(net, u, runs, MASTER_SEED)
.tobytes()`` for every seed node ``u`` of the four bundled synthetic sets,
ingested as ``data/manifest.json`` declares them, at run counts around the
64-run word and the 4096-run block boundaries.  Any change to the engine
that keeps the randomness contract must keep every digest.

Regenerate (only at a commit whose counts are known to be right) with
``PYTHONPATH=src python tests/test_cascade_digests.py``.
"""
import hashlib
import json
from pathlib import Path

import pytest

from spreadrank.graph import apply_wcs, orient_undirected
from spreadrank.propagation import cascade_sizes
from spreadrank.storage import load_edge_list

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "cascade_digests.json"
MASTER_SEED = 2020
RUNS = (2, 63, 64, 65, 100, 4097, 4160)


def bundled_networks():
    entries = json.loads((DATA_DIR / "manifest.json").read_text())["datasets"]
    for entry in entries:
        if not entry["synthetic"]:
            continue
        net = load_edge_list(DATA_DIR / entry["file"], entry["weighted"])
        if not entry["directed"]:
            net = orient_undirected(net)
        yield entry["name"], apply_wcs(net)


def digests(net, runs: int) -> list[str]:
    return [hashlib.sha256(cascade_sizes(net, u, runs, MASTER_SEED).tobytes()).hexdigest()
            for u in range(net.node_count)]


NETWORKS = dict(bundled_networks())


@pytest.mark.parametrize("runs", RUNS)
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_counts_match_frozen_digests(name, runs):
    recorded = json.loads(FIXTURE.read_text())
    assert recorded["master_seed"] == MASTER_SEED
    expected = recorded["digests"][name][str(runs)]
    got = digests(NETWORKS[name], runs)
    mismatched = [u for u, (a, b) in enumerate(zip(got, expected)) if a != b]
    assert len(got) == len(expected)
    assert not mismatched, f"{name} runs={runs}: seed nodes {mismatched[:10]} differ"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    payload = {"master_seed": MASTER_SEED,
               "digests": {name: {str(runs): digests(net, runs) for runs in RUNS}
                           for name, net in NETWORKS.items()}}
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
