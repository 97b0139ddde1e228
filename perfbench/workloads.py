"""The benchmark's workloads: set-up, one timed operation, and output checks.

Every operation returns its outputs as named float arrays.  Names starting
with ``spread.`` must match exactly (the identical-counts contract); all
others are score vectors or evaluation metrics and match within the
tolerance recorded in ``perfbench/spec.json``.  Outputs are compared as
parsed numbers, never as file bytes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import time
from pathlib import Path

import numpy as np

import spreadrank.cli as cli
import spreadrank.propagation as propagation
import spreadrank.storage as storage
from spreadrank.config import RunConfig

import oracle

BUNDLED = ("synth_club", "synth_forum", "synth_campus", "synth_collab")
ORACLE_NODES = 4  # seed nodes per dataset that the oracle re-simulates


class OpFailure(Exception):
    """An operation finished but did not do what it must (exit code, cache miss)."""


def digest(outputs: dict[str, np.ndarray]) -> dict:
    """Exact outputs become a SHA-256; approximate ones a small numeric sketch."""
    out = {}
    for key, values in outputs.items():
        values = np.asarray(values, dtype=np.float64)
        if key.startswith("spread."):
            out[key] = hashlib.sha256(values.tobytes()).hexdigest()
            continue
        finite = np.where(np.isnan(values), 0.0, values)
        weights = np.random.default_rng(values.size).random(values.size)
        out[key] = [values.size, int(np.isnan(values).sum()), float(np.abs(finite).sum()),
                    float(finite.sum()), float(finite @ weights)]
    return out


def mismatches(got: dict, want: dict, rtol: float) -> list[str]:
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"{key}: present in only one of output and reference")
        elif isinstance(want[key], str):
            if got[key] != want[key]:
                problems.append(f"{key}: exact digest differs")
        else:
            size, nans, scale = want[key][:3]
            if got[key][:2] != [size, nans] or any(
                    abs(a - b) > rtol * max(scale, 1.0)
                    for a, b in zip(got[key][2:], want[key][2:])):
                problems.append(f"{key}: sketch {got[key]} != reference {want[key]}")
    return problems


def _numbers(path: Path, columns: slice = slice(None), header: bool = True) -> np.ndarray:
    """Numeric cells of a CSV or edge list written by spreadrank, ``NA`` as NaN."""
    rows = [line for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]
    cells = [cell for row in rows[1 if header else 0:]
             for cell in row.replace(",", " ").split()[columns]]
    return np.array([np.nan if cell == "NA" else float(cell) for cell in cells])


def _spread_array(estimate) -> np.ndarray:
    return np.concatenate([estimate.values, estimate.std_error])


def _sample(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.sort(rng.choice(n, size=min(ORACLE_NODES, n), replace=False))


class Workload:
    """Base: ``setup`` builds inputs (repeatable), ``op`` is the timed unit.

    ``op`` returns a callable that yields the operation's outputs; it is
    called after the timer stops, so parsing outputs is never timed.  An
    operation may time its parts into ``parts`` (name -> seconds); the run
    reports the sum of the parts' medians, so that a slow spell of the
    machine during one part of one operation moves the result less.
    """

    def __init__(self, root: Path, seed: int, workdir: Path, tracer=None):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.first = None  # raw outputs of the first operation, for the oracle
        self.parts: dict[str, float] = {}

    def laps(self, prefix: str):
        """A ``spread_all`` progress callback that times each seed node as a part."""
        last = time.perf_counter()

        def progress(done: int, total: int) -> None:
            nonlocal last
            now = time.perf_counter()
            self.parts[f"{prefix}.{done}"] = now - last
            last = now
        return progress

    def cli(self, *argv: str) -> str:
        """One ``spreadrank`` command in this process; returns its standard output."""
        out, err = io.StringIO(), io.StringIO()
        with self.span(f"cli.{argv[0]}") as attrs, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main([str(a) for a in argv])
            attrs["hit"] = int("cache hit" in out.getvalue())
        if code != 0:
            raise OpFailure(f"spreadrank {argv[0]} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def span(self, name: str):
        """A span of the benchmark's own when a trace is being recorded."""
        if self.tracer is not None and self.tracer.active:
            return self.tracer.span(name)
        return contextlib.nullcontext({})

    def ingest(self, entry: dict, out_dir: Path) -> Path:
        """``spreadrank ingest`` of a manifest-style entry; returns the canonical graph."""
        flags = ["--directed"] * entry["directed"] + ["--weighted"] * entry["weighted"]
        self.cli("ingest", entry["path"], "--name", entry["name"], *flags,
                 "--out-dir", out_dir, "--no-timestamps")
        return out_dir / f"{entry['name']}.edges"

    def load(self, entry: dict, out_dir: Path):
        """Ingest, then read the canonical graph back as the program's network."""
        net = storage.read_canonical_network(self.ingest(entry, out_dir))
        if self.tracer:
            self.tracer.labels[id(net)] = entry["name"]
        return net

    def bundled(self) -> list[dict]:
        manifest = json.loads((self.root / "data" / "manifest.json").read_text())
        entries = {e["name"]: dict(e, path=self.root / "data" / e["file"])
                   for e in manifest["datasets"]}
        return [entries[name] for name in BUNDLED]

    def fresh_dir(self, name: str) -> Path:
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def simulated(self):
        """(dataset, network, runs, master_seed) of every simulation an op runs."""
        return []


class SimBundled(Workload):
    """spread_all over the four bundled sets at a run count that spans two blocks."""

    RUNS = 4160  # BLOCK + 64: the second block holds one full 64-run word

    def setup(self):
        out = self.fresh_dir("ingested")
        self.nets = {e["name"]: self.load(e, out) for e in self.bundled()}
        self.cfg = RunConfig(runs=self.RUNS, master_seed=self.seed)

    def op(self):
        estimates = {name: propagation.spread_all(net, self.cfg, progress=self.laps(name))
                     for name, net in self.nets.items()}
        if self.first is None:
            self.first = estimates
        return lambda: {f"spread.{name}": _spread_array(e) for name, e in estimates.items()}

    def oracle_check(self):
        rng = np.random.default_rng(self.seed)
        return [problem for name, net in self.nets.items()
                for problem in oracle.spread_mismatches(
                    net, self.first[name], _sample(rng, net.node_count), name)]

    def simulated(self):
        return [(name, net, self.RUNS, self.seed) for name, net in self.nets.items()]


class RerunCached(Workload):
    """One CLI pass over the bundled sets whose spread caches are already warm."""

    RUNS = 100
    TOP_K = 10

    def setup(self):
        self.out = self.fresh_dir("rerun")
        self.entries = self.bundled()
        self.nets = {e["name"]: self.load(e, self.out) for e in self.entries}
        for name in self.nets:
            self.simulate(name)

    def simulate(self, name: str) -> str:
        return self.cli("simulate", self.out / f"{name}.edges", "--runs", self.RUNS,
                        "--seed", self.seed, "--quiet", "--out-dir", self.out,
                        "--no-timestamps")

    def op(self):
        out = self.out
        for e in self.entries:
            name = e["name"]
            graph = self.ingest(e, out)
            if "cache hit" not in self.simulate(name):
                raise OpFailure(f"simulate missed the warm cache for {name}")
            self.cli("centrality", graph, "--measure", "c_os", "--out-dir", out,
                     "--no-timestamps")
            self.cli("evaluate", graph, out / f"{name}.spread.csv", "--measures", "c_os",
                     "--top-k", self.TOP_K, "--out-dir", out, "--no-timestamps")
        self.cli("report", *(out / f"{e['name']}.evaluation.csv" for e in self.entries),
                 "--out-dir", out, "--no-timestamps")
        return self.outputs

    def outputs(self):
        """Parse the pass's artifacts; called after the timer stops."""
        out = self.out
        outputs = {}
        for e in self.entries:
            name = e["name"]
            graph = out / f"{name}.edges"
            outputs[f"graph.{name}"] = _numbers(graph, header=False)
            outputs[f"spread.{name}"] = _numbers(out / f"{name}.spread.csv")
            outputs[f"scores.{name}.c_os"] = _numbers(out / f"{name}.c_os.csv")
            outputs[f"evaluation.{name}"] = _numbers(out / f"{name}.evaluation.csv",
                                                     slice(2, None))
        outputs["report"] = _numbers(out / "report.csv", slice(2, None))
        outputs["scatter"] = _numbers(out / "scatter.csv", slice(1, None, 3))
        if self.first is None:
            self.first = outputs
        return outputs

    def oracle_check(self):
        rng = np.random.default_rng(self.seed)
        problems = []
        for name, net in self.nets.items():
            estimate, _ = storage.read_spread(self.out / f"{name}.spread.csv")
            problems += oracle.spread_mismatches(net, estimate,
                                                 _sample(rng, net.node_count), name)
            strength = np.bincount(net.src, weights=net.weight, minlength=net.node_count)
            scores = self.first[f"scores.{name}.c_os"].reshape(-1, 2)
            if not np.allclose(scores[:, 1], strength, rtol=1e-12, atol=0.0):
                problems.append(f"{name}: c_os scores differ from the out-strength")
        return problems


WORKLOADS = {"sim_bundled": SimBundled, "rerun_cached": RerunCached}
