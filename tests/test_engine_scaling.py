"""Smoke test of ``scripts/engine_scaling.py``, the engine's timing script."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_ladder_graph_is_the_roadmaps(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    from engine_scaling import ladder_network
    net = ladder_network(300)
    assert (net.node_count, net.edge_count) == (300, 2295)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_ladder_run_prints_its_timings():
    path = os.pathsep.join([str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "engine_scaling.py"), "--ladder", "30", "--runs", "64",
         "--repeats", "1"], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "spread_all over ladder_30 at 64 runs, best of 1"
    assert lines[1].split() == ["cpus", "engine_s", "draws_s", "engine/draws"]
