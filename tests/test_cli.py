import argparse
import builtins
import datetime
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spreadrank import cli, storage
from spreadrank.cli import main
from spreadrank.config import RunConfig
from spreadrank.measures import MEASURES, MeasureContext, measure_ids
from spreadrank.propagation import ENGINE
from spreadrank.ranking import AGGREGATE
from spreadrank.storage import INGEST, simulation_hash

DATA = Path(__file__).resolve().parent.parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def digests(directory, *names):
    """The SHA-256 of each named file in ``directory``, as a run file records them."""
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
            for name in names}


def python(*argv):
    """A fresh interpreter that imports spreadrank from this checkout."""
    path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, *map(str, argv)], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.fixture
def toy_edges(tmp_path):
    path = tmp_path / "toy.txt"
    path.write_text("a b\nb c\n")
    return path


@pytest.fixture
def ingested(tmp_path, toy_edges, capsys):
    code, out, _ = run(capsys, "ingest", toy_edges, "--directed",
                       "--out-dir", tmp_path, "--no-timestamps")
    assert code == 0
    return tmp_path / "toy.edges"


class TestIngest:
    def test_density_printed(self, tmp_path, toy_edges, capsys):
        code, out, _ = run(capsys, "ingest", toy_edges, "--directed",
                           "--out-dir", tmp_path)
        assert code == 0
        assert "nodes=3" in out and "edges=2" in out
        assert "density=0.3333" in out

    def test_hit_says_so(self, tmp_path, toy_edges, capsys):
        argv = ("ingest", toy_edges, "--directed", "--out-dir", tmp_path)
        code, cold, _ = run(capsys, *argv)
        assert code == 0 and cold.startswith("dataset=toy nodes=3 ")
        assert run(capsys, *argv) == (0, f"cache hit: {cold}", "")

    def test_empty_file_is_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        code, _, err = run(capsys, "ingest", empty, "--directed", "--out-dir", tmp_path)
        assert code == 3
        assert "no edges" in err

    def test_wcs_weights_applied(self, ingested):
        net = storage.read_canonical_network(ingested)
        assert np.all(net.weight == 1.0)  # chain: every target has in-degree 1

    def test_undirected_input_oriented(self, tmp_path, capsys):
        raw = tmp_path / "und.txt"
        raw.write_text("5 2\n2 1\n")
        code, _, _ = run(capsys, "ingest", raw, "--out-dir", tmp_path, "--no-timestamps")
        assert code == 0
        net = storage.read_canonical_network(tmp_path / "und.edges")
        assert np.all(net.src < net.dst)

    def test_keep_weights(self, tmp_path, capsys):
        raw = tmp_path / "w.txt"
        raw.write_text("0 1 0.75\n1 2 0.5\n")
        code, _, _ = run(capsys, "ingest", raw, "--directed", "--weighted",
                         "--keep-weights", "--out-dir", tmp_path, "--no-timestamps")
        assert code == 0
        net = storage.read_canonical_network(tmp_path / "w.edges")
        assert net.weight.tolist() == [0.75, 0.5]

    def test_keep_weights_without_weighted_is_usage_error(self, tmp_path, capsys):
        raw = tmp_path / "w.txt"
        raw.write_text("0 1 0.75\n")
        for given in (raw, tmp_path / "missing.txt"):  # checked before the input is read
            code, _, err = run(capsys, "ingest", given, "--directed", "--keep-weights",
                               "--out-dir", tmp_path)
            assert code == 2
            assert "error: --keep-weights needs --weighted" in err
        assert not (tmp_path / "w.edges").exists()

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        raw = tmp_path / "latin.txt"
        raw.write_bytes(b"0 1\n\xff 2\n")
        code, _, err = run(capsys, "ingest", raw, "--directed", "--out-dir", tmp_path)
        assert code == 3
        assert err.startswith(f"error: {raw}: ")
        assert not (tmp_path / "latin.edges").exists()

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        raw = tmp_path / "bom.txt"
        raw.write_bytes(b"\xef\xbb\xbf% sym unweighted\n1 2\n2 3\n")
        code, out, _ = run(capsys, "ingest", raw, "--directed", "--out-dir", tmp_path,
                           "--no-timestamps")
        assert code == 0
        assert "nodes=3 edges=2 " in out
        assert (tmp_path / "bom.idmap.csv").read_text() == \
            "original_label,dense_id\n1,0\n2,1\n3,2\n"

    @pytest.mark.parametrize("rows, flags, message", [
        ("0 1\n0 1 2 3\n", [], "line 2: expected 'u v' or 'u v w', got '0 1 2 3'"),
        ("0 1 0.5\n1 2 x\n", ["--weighted"], "line 2: bad weight 'x'"),
        ("0 1 0.5\n1 2 -1\n", ["--weighted"], "line 2: weight -1.0 must be finite and positive"),
        ("0 1 0.5\n1 2 x\n0 1 2 3\n", ["--weighted"], "line 2: bad weight 'x'"),
        ("0\t1\t2\t3\n", [], "line 1: expected 'u v' or 'u v w', got '0\\t1\\t2\\t3'"),
        ("0 1 0.5\n1 2 nan\n", ["--weighted"], "line 2: weight nan must be finite and positive"),
        ("0 1 inf\n", ["--weighted"], "line 1: weight inf must be finite and positive")],
        ids=["bad_row", "bad_weight", "non_positive_weight", "bad_weight_before_bad_row",
             "tab_separated_bad_row", "nan_weight", "inf_weight"])
    def test_row_error_names_the_file(self, tmp_path, capsys, rows, flags, message):
        raw = tmp_path / "bad.txt"
        raw.write_text(rows)
        code, _, err = run(capsys, "ingest", raw, "--directed", *flags, "--out-dir", tmp_path)
        assert code == 3
        assert err.startswith(f"error: {raw}: {message}")
        assert not (tmp_path / "bad.edges").exists()

    def test_id_map_written(self, tmp_path, toy_edges, capsys):
        run(capsys, "ingest", toy_edges, "--directed", "--out-dir", tmp_path)
        lines = (tmp_path / "toy.idmap.csv").read_text().splitlines()
        assert lines[1] == "a,0"

    def test_node_only_in_a_self_loop_keeps_its_id(self, tmp_path, capsys):
        raw = tmp_path / "loop.txt"
        raw.write_text("a a\nb c\nc d\n")
        code, out, _ = run(capsys, "ingest", raw, "--directed", "--out-dir", tmp_path,
                           "--no-timestamps")
        assert code == 0 and "nodes=4" in out
        code, _, _ = run(capsys, "simulate", tmp_path / "loop.edges", "--runs", "10",
                         "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        assert code == 0
        ids = dict(line.split(",") for line in
                   (tmp_path / "loop.idmap.csv").read_text().splitlines()[1:])
        spread, _ = storage.read_spread(tmp_path / "loop.spread.csv")
        assert spread.values.size == 4
        assert {label: spread.values[int(i)] for label, i in ids.items()} == \
            {"a": 1.0, "b": 3.0, "c": 2.0, "d": 1.0}


def _append(path):
    """Change the file's bytes, not what it holds: a graph stays a valid graph."""
    with open(path, "a") as handle:
        handle.write("\n")


def sealed(record):
    """``record`` with the ``record_sha256`` a run file seals its fields with."""
    text = json.dumps(record, sort_keys=True).encode()
    return {**record, "record_sha256": hashlib.sha256(text).hexdigest()}


def _edit_run(run_file, name, value, reseal=False):
    """Set a run file's field ``name`` to ``value``, or drop it for ``None``.

    With ``reseal`` the record's seal is recomputed, as a forger would.
    """
    record = json.loads(run_file.read_text())
    del record[name]
    if value is not None:
        record[name] = value
    if reseal:
        del record["record_sha256"]
        record = sealed(record)
    run_file.write_text(json.dumps(record))


def _stamps(directory):
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in directory.iterdir()}


def spread_record(graph, out, runs, master_seed):
    """The run file ``simulate --no-timestamps`` writes for ``graph``'s spread in ``out``."""
    graph_sha256 = storage.sha256_of(graph)
    return sealed({"runs": runs, "master_seed": master_seed, "engine": ENGINE,
                   "graph_sha256": graph_sha256,
                   "config_hash": simulation_hash(graph_sha256, runs, master_seed),
                   "sha256": digests(out, f"{graph.stem}.spread.csv")})


def scores_record(graph, out, measure, gravity_radius=3):
    """The run file ``centrality --no-timestamps`` writes for ``graph``'s scores in ``out``."""
    return sealed({"format": MEASURES, "measure": measure,
                   "graph_sha256": storage.sha256_of(graph), "katz_alpha": None,
                   "gravity_radius": gravity_radius,
                   "sha256": digests(out, f"{graph.stem}.{measure}.csv")})


class TestIngestCache:
    """A warm ingest of unchanged input and outputs parses, formats and writes nothing."""

    SOURCE = "a b 0.5\nb c 0.25\nc a 1\nb a 0.75\na a 0.5\nc a 0.5\n"
    FLAGS = ("--directed", "--weighted", "--no-timestamps")

    @staticmethod
    def ingest(capsys, source, out, flags):
        code, stdout, err = run(capsys, "ingest", source, *flags, "--out-dir", out)
        assert code == 0, err
        return stdout

    # the flags of the first ingest and of the second: no output byte depends on
    # --no-timestamps, so adding or dropping it is a hit too
    @pytest.mark.parametrize("before, after", [(FLAGS, FLAGS), (FLAGS[:2], FLAGS[:2]),
                                               (FLAGS[:2], FLAGS), (FLAGS, FLAGS[:2])],
                             ids=["no_timestamps", "timestamps", "adds_flag", "drops_flag"])
    def test_hit_reads_no_edges_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                   before, after):
        source = tmp_path / "toy.txt"
        source.write_text(self.SOURCE)
        out = tmp_path / "out"
        first = self.ingest(capsys, source, out, before)
        stamps = _stamps(out)
        contents = {name: (out / name).read_bytes() for name in stamps}
        assert sorted(stamps) == ["toy.edges", "toy.idmap.csv", "toy.ingest.run.json"]

        def refuse(*args, **kwargs):
            raise AssertionError("a cache hit parsed its input")

        monkeypatch.setattr(cli, "load_edge_list", refuse)
        assert self.ingest(capsys, source, out, after) == f"cache hit: {first}"
        # a hit keeps the run file it found, and with it the time of the cold run
        assert _stamps(out) == stamps
        assert {name: (out / name).read_bytes() for name in stamps} == contents

    def test_run_file_apart_from_another_commands(self, tmp_path, capsys, monkeypatch):
        # a dataset named toy.c_os and the c_os scores of toy keep their own run files
        source = tmp_path / "toy.txt"
        source.write_text(self.SOURCE)
        out = tmp_path / "out"
        dotted = self.FLAGS + ("--name", "toy.c_os")
        first = self.ingest(capsys, source, out, dotted)
        self.ingest(capsys, source, out, self.FLAGS)
        code, _, err = run(capsys, "centrality", out / "toy.edges", "--measure", "c_os",
                           "--out-dir", out, "--no-timestamps")
        assert code == 0, err
        assert "ingest" not in measure_ids()
        stamps = _stamps(out)

        def refuse(*args, **kwargs):
            raise AssertionError("a cache hit parsed its input")

        monkeypatch.setattr(cli, "load_edge_list", refuse)
        assert self.ingest(capsys, source, out, dotted) == f"cache hit: {first}"
        assert _stamps(out) == stamps
        assert json.loads((out / "toy.c_os.run.json").read_text()) == \
            scores_record(out / "toy.edges", out, "c_os")

    # change -> (flags of the first ingest, flags of the second, edit between the two)
    CHANGES = {
        "input_bytes": (FLAGS, FLAGS, lambda source, out, mp: source.write_text("a b 0.5\n")),
        "directed": (FLAGS, FLAGS[1:], None),
        "weighted": (FLAGS, ("--directed", "--no-timestamps"), None),
        "keep_weights": (FLAGS, FLAGS + ("--keep-weights",), None),
        "name": (FLAGS, FLAGS + ("--name", "other"), None),
        "edges_edited": (FLAGS, FLAGS, lambda source, out, mp: _append(out / "toy.edges")),
        "edges_deleted": (FLAGS, FLAGS, lambda source, out, mp: (out / "toy.edges").unlink()),
        "idmap_edited": (FLAGS, FLAGS, lambda source, out, mp: _append(out / "toy.idmap.csv")),
        "idmap_deleted": (FLAGS, FLAGS,
                          lambda source, out, mp: (out / "toy.idmap.csv").unlink()),
        "run_file_missing": (FLAGS, FLAGS,
                             lambda source, out, mp: (out / "toy.ingest.run.json").unlink()),
        "run_file_garbled": (FLAGS, FLAGS, lambda source, out, mp: (
            out / "toy.ingest.run.json").write_bytes(b'{"format": \xff')),
        "run_file_not_an_object": (FLAGS, FLAGS, lambda source, out, mp: (
            out / "toy.ingest.run.json").write_text("[1, 2]\n")),
        "run_file_lost_a_count": (FLAGS, FLAGS, lambda source, out, mp: _edit_run(
            out / "toy.ingest.run.json", "density", None)),
        "run_file_count_not_a_number": (FLAGS, FLAGS, lambda source, out, mp: _edit_run(
            out / "toy.ingest.run.json", "density", "x")),
        "run_file_count_edited": (FLAGS, FLAGS, lambda source, out, mp: _edit_run(
            out / "toy.ingest.run.json", "nodes", 30)),
        "run_file_resealed_without_a_count": (FLAGS, FLAGS, lambda source, out, mp: _edit_run(
            out / "toy.ingest.run.json", "density", None, reseal=True)),
        "format_bumped": (FLAGS, FLAGS,
                          lambda source, out, mp: mp.setattr(cli, "INGEST", INGEST + "-next")),
    }

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_miss_ingests_like_a_cold_run(self, tmp_path, capsys, monkeypatch, change):
        before, after, edit = self.CHANGES[change]
        source = tmp_path / "toy.txt"
        source.write_text(self.SOURCE)
        out = tmp_path / "out"
        self.ingest(capsys, source, out, before)
        if edit is not None:
            edit(source, out, monkeypatch)
        calls = []
        load = cli.load_edge_list
        monkeypatch.setattr(cli, "load_edge_list",
                            lambda *args, **kwargs: calls.append(args) or load(*args, **kwargs))
        warm = self.ingest(capsys, source, out, after)
        assert len(calls) == 1
        # a cold ingest of the same input with the same flags, into a fresh directory
        cold_dir = tmp_path / "cold"
        assert self.ingest(capsys, source, cold_dir, after) == warm
        cold = {p.name: p.read_bytes() for p in cold_dir.iterdir()}
        assert len(cold) == 3
        assert {name: (out / name).read_bytes() for name in cold} == cold


class TestSimulate:
    def test_writes_cache_and_hits_on_rerun(self, tmp_path, ingested, capsys):
        code, out, _ = run(capsys, "simulate", ingested, "--runs", "50", "--seed", "3",
                           "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        assert code == 0 and "wrote" in out
        cache = tmp_path / "toy.spread.csv"
        first = cache.read_bytes()
        code, out, _ = run(capsys, "simulate", ingested, "--runs", "50", "--seed", "3",
                           "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        assert code == 0 and "cache hit" in out
        assert cache.read_bytes() == first

    def test_changed_runs_recomputes(self, tmp_path, ingested, capsys):
        run(capsys, "simulate", ingested, "--runs", "50", "--out-dir", tmp_path,
            "--no-timestamps", "--quiet")
        code, out, err = run(capsys, "simulate", ingested, "--runs", "60",
                             "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        assert code == 0
        assert "wrote" in out
        assert "mismatch" in err
        spread, _ = storage.read_spread(tmp_path / "toy.spread.csv")
        assert spread.runs == 60

    def test_deterministic_chain_values(self, tmp_path, ingested, capsys):
        run(capsys, "simulate", ingested, "--runs", "10", "--out-dir", tmp_path,
            "--no-timestamps", "--quiet")
        spread, _ = storage.read_spread(tmp_path / "toy.spread.csv")
        assert spread.values.tolist() == [3.0, 2.0, 1.0]

    def test_corrupted_cache_recomputed(self, tmp_path, ingested, capsys):
        run(capsys, "simulate", ingested, "--runs", "50", "--out-dir", tmp_path,
            "--no-timestamps", "--quiet")
        cache = tmp_path / "toy.spread.csv"
        cache.write_text("# config_hash=zzz\nnode,expected_spread\ngarbage\n")
        code, out, err = run(capsys, "simulate", ingested, "--runs", "50",
                             "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        assert code == 0
        assert "wrote" in out
        spread, _ = storage.read_spread(cache)
        assert spread.runs == 50

    @pytest.mark.parametrize("damage", [
        lambda lines: lines[:-1],
        lambda lines: lines[:-1] + [lines[-1].replace("1.0,", "x,", 1)],
        lambda lines: lines[:-1] + [lines[-1].replace("1.0,", "nan,", 1)],
        lambda lines: [line.replace("0,3.0,", "0,2.5,", 1) for line in lines],
    ], ids=["truncated", "non_numeric", "nan", "edited_value"])
    def test_damaged_cache_recomputed(self, tmp_path, ingested, capsys, damage):
        argv = ("simulate", ingested, "--runs", "50", "--out-dir", tmp_path,
                "--no-timestamps", "--quiet")
        run(capsys, *argv)
        cache = tmp_path / "toy.spread.csv"
        first = cache.read_text()
        cache.write_text("\n".join(damage(first.splitlines())) + "\n")
        assert cache.read_text() != first
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert "cache hit" not in out and "mismatch" in err
        assert cache.read_text() == first

    def test_nonprobability_weights_rejected_at_simulate(self, tmp_path, capsys):
        raw = tmp_path / "ratings.txt"
        raw.write_text("0 1 3\n1 2 2\n")
        run(capsys, "ingest", raw, "--directed", "--weighted", "--keep-weights",
            "--out-dir", tmp_path, "--no-timestamps")
        code, _, err = run(capsys, "simulate", tmp_path / "ratings.edges",
                           "--runs", "10", "--out-dir", tmp_path, "--quiet")
        assert code == 3
        assert "probabilities" in err


class TestCentrality:
    def test_known_measure(self, tmp_path, ingested, capsys):
        code, out, _ = run(capsys, "centrality", ingested, "--measure", "c_os",
                           "--out-dir", tmp_path, "--no-timestamps")
        assert code == 0
        measure, scores = storage.read_scores(tmp_path / "toy.c_os.csv")
        assert measure == "c_os"
        assert scores.tolist() == [1.0, 1.0, 0.0]

    def test_hit_says_so(self, tmp_path, ingested, capsys):
        argv = ("centrality", ingested, "--measure", "c_os", "--out-dir", tmp_path)
        scores = tmp_path / "toy.c_os.csv"
        assert run(capsys, *argv) == (0, f"wrote {scores}\n", "")
        assert run(capsys, *argv) == (0, f"cache hit: {scores}\n", "")

    def test_unknown_measure_usage_error(self, tmp_path, ingested, capsys):
        code, _, err = run(capsys, "centrality", ingested, "--measure", "bogus",
                           "--out-dir", tmp_path)
        assert code == 2
        assert "valid ids" in err

    def test_dependency_chain_measure(self, tmp_path, ingested, capsys):
        code, _, _ = run(capsys, "centrality", ingested, "--measure", "mgc_wk",
                         "--out-dir", tmp_path, "--no-timestamps")
        assert code == 0
        measure, scores = storage.read_scores(tmp_path / "toy.mgc_wk.csv")
        assert (measure, scores.size) == ("mgc_wk", 3)


def _fingerprint_config_hash(graph, runs, master_seed):
    """The config hash ``simulate`` wrote while it hashed the parsed arrays, not the file."""
    net = storage.read_canonical_network(graph)
    arrays = hashlib.sha256(f"n={net.node_count};directed=True;".encode())
    for column in (net.src, net.dst, net.weight):
        arrays.update(np.ascontiguousarray(column).tobytes())
    text = f"{arrays.hexdigest()[:16]};runs={runs};master_seed={master_seed};engine={ENGINE}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _older_run_file(run_file, kept, seal):
    """Rewrite a run file as the previous release wrote it: only the fields ``kept``,
    sealed if ``seal``."""
    record = {name: value for name, value in json.loads(run_file.read_text()).items()
              if name in kept}
    run_file.write_text(json.dumps(sealed(record) if seal else record))


class TestCommandCache:
    """A warm ``simulate`` or ``centrality`` of unchanged inputs parses, measures and
    writes nothing; any change to what its output depends on recomputes it."""

    GRAPH = "# nodes=4\n0 1 0.5\n1 2 0.5\n2 0 1.0\n1 0 0.5\n2 3 1.0\n3 1 0.5\n"
    SIMULATE = ("simulate", "--runs", "20", "--seed", "9", "--quiet", "--no-timestamps")
    CENTRALITY = ("centrality", "--measure", "mgc_wk", "--no-timestamps")

    @pytest.fixture
    def graph(self, tmp_path):
        path = tmp_path / "in" / "toy.edges"
        path.parent.mkdir()
        path.write_text(self.GRAPH)
        return path

    @staticmethod
    def command(capsys, graph, out, argv):
        code, stdout, err = run(capsys, argv[0], graph, *argv[1:], "--out-dir", out)
        assert code == 0, err
        return stdout

    # whether the first run and the second pass --no-timestamps: no output byte
    # depends on it, so adding or dropping it is a hit too
    @pytest.mark.parametrize("flags", [(True, True), (False, False), (False, True),
                                       (True, False)],
                             ids=["no_timestamps", "timestamps", "adds_flag", "drops_flag"])
    @pytest.mark.parametrize("argv", [SIMULATE, CENTRALITY], ids=["simulate", "centrality"])
    def test_hit_reads_no_graph_and_writes_nothing(self, tmp_path, capsys, monkeypatch, graph,
                                                   argv, flags):
        before, after = (argv if flag else argv[:-1] for flag in flags)
        out = tmp_path / "out"
        first = self.command(capsys, graph, out, before)
        stamps = _stamps(out)
        contents = {name: (out / name).read_bytes() for name in stamps}
        assert len(stamps) == 2

        def refuse(*args, **kwargs):
            raise AssertionError("a cache hit read its graph or computed a measure")

        monkeypatch.setattr(cli.storage, "read_canonical_network", refuse)
        monkeypatch.setattr(MeasureContext, "get", refuse)
        # simulate's hit prints the config hash the cold run printed
        assert self.command(capsys, graph, out, after) == first.replace("wrote ", "cache hit: ")
        # a hit keeps the run file it found, and with it the time of the cold run
        assert _stamps(out) == stamps
        assert {name: (out / name).read_bytes() for name in stamps} == contents

    # change -> (argv of the first run, argv of the second, edit between the two)
    CHANGES = {
        "simulate-graph_bytes": (SIMULATE, SIMULATE, lambda graph, out, mp: _append(graph)),
        "simulate-graph_edges": (SIMULATE, SIMULATE, lambda graph, out, mp: graph.write_text(
            graph.read_text().replace("1 2 0.5", "1 2 0.25"))),
        "simulate-runs": (SIMULATE, SIMULATE[:2] + ("30",) + SIMULATE[3:], None),
        "simulate-seed": (SIMULATE, SIMULATE[:4] + ("10",) + SIMULATE[5:], None),
        "simulate-engine_bumped": (SIMULATE, SIMULATE, lambda graph, out, mp: mp.setattr(
            cli, "ENGINE", ENGINE + "-next")),
        "simulate-output_edited": (SIMULATE, SIMULATE,
                                   lambda graph, out, mp: _append(out / "toy.spread.csv")),
        "simulate-output_deleted": (SIMULATE, SIMULATE,
                                    lambda graph, out, mp: (out / "toy.spread.csv").unlink()),
        "simulate-run_file_missing": (SIMULATE, SIMULATE, lambda graph, out, mp: (
            out / "toy.spread.run.json").unlink()),
        "simulate-run_file_garbled": (SIMULATE, SIMULATE, lambda graph, out, mp: (
            out / "toy.spread.run.json").write_bytes(b'{"runs": \xff')),
        "simulate-run_file_a_list": (SIMULATE, SIMULATE, lambda graph, out, mp: (
            out / "toy.spread.run.json").write_text("[1, 2]\n")),
        "simulate-run_file_unsealed": (SIMULATE, SIMULATE, lambda graph, out, mp: _edit_run(
            out / "toy.spread.run.json", "record_sha256", None)),
        "simulate-run_file_resealed_without_config_hash": (
            SIMULATE, SIMULATE, lambda graph, out, mp: _edit_run(
                out / "toy.spread.run.json", "config_hash", None, reseal=True)),
        "simulate-run_file_of_an_older_config_hash": (
            SIMULATE, SIMULATE, lambda graph, out, mp: _edit_run(
                out / "toy.spread.run.json", "config_hash",
                _fingerprint_config_hash(graph, 20, 9), reseal=True)),
        "simulate-run_file_of_the_previous_format": (
            SIMULATE, SIMULATE, lambda graph, out, mp: _older_run_file(
                out / "toy.spread.run.json", ("runs", "master_seed", "sha256"), seal=True)),
        "centrality-graph_bytes": (CENTRALITY, CENTRALITY,
                                   lambda graph, out, mp: _append(graph)),
        "centrality-graph_edges": (CENTRALITY, CENTRALITY,
                                   lambda graph, out, mp: graph.write_text(
                                       graph.read_text().replace("1 2 0.5", "1 2 0.25"))),
        "centrality-measure": (CENTRALITY, ("centrality", "--measure", "gc_w",
                                            "--no-timestamps"), None),
        "centrality-katz_alpha": (CENTRALITY, CENTRALITY + ("--katz-alpha", "0.05"), None),
        "centrality-radius": (CENTRALITY, CENTRALITY + ("--radius", "1"), None),
        "centrality-measures_bumped": (CENTRALITY, CENTRALITY, lambda graph, out, mp: mp.setattr(
            cli, "MEASURES", MEASURES + "-next")),
        "centrality-output_edited": (CENTRALITY, CENTRALITY,
                                     lambda graph, out, mp: _append(out / "toy.mgc_wk.csv")),
        "centrality-output_deleted": (CENTRALITY, CENTRALITY,
                                      lambda graph, out, mp: (out / "toy.mgc_wk.csv").unlink()),
        "centrality-run_file_missing": (CENTRALITY, CENTRALITY, lambda graph, out, mp: (
            out / "toy.mgc_wk.run.json").unlink()),
        "centrality-run_file_garbled": (CENTRALITY, CENTRALITY, lambda graph, out, mp: (
            out / "toy.mgc_wk.run.json").write_bytes(b'{"format": \xff')),
        "centrality-run_file_a_list": (CENTRALITY, CENTRALITY, lambda graph, out, mp: (
            out / "toy.mgc_wk.run.json").write_text("[1, 2]\n")),
        "centrality-run_file_unsealed": (CENTRALITY, CENTRALITY, lambda graph, out, mp: _edit_run(
            out / "toy.mgc_wk.run.json", "record_sha256", None)),
        "centrality-run_file_of_the_previous_format": (
            CENTRALITY, CENTRALITY, lambda graph, out, mp: _older_run_file(
                out / "toy.mgc_wk.run.json", ("katz_alpha", "gravity_radius"), seal=False)),
    }

    @pytest.mark.parametrize("change", sorted(CHANGES))
    def test_miss_recomputes_like_a_cold_run(self, tmp_path, capsys, monkeypatch, graph,
                                             change):
        before, after, edit = self.CHANGES[change]
        out = tmp_path / "out"
        self.command(capsys, graph, out, before)
        if edit is not None:
            edit(graph, out, monkeypatch)
        calls = []
        read = storage.read_canonical_network
        monkeypatch.setattr(cli.storage, "read_canonical_network",
                            lambda path: calls.append(path) or read(path))
        warm = self.command(capsys, graph, out, after)
        assert calls == [graph]
        monkeypatch.setattr(cli.storage, "read_canonical_network", read)
        # a cold run of the same command on the same graph, into a fresh directory
        cold_dir = tmp_path / "cold"
        assert self.command(capsys, graph, cold_dir, after) == \
            warm.replace(str(out), str(cold_dir))
        cold = {p.name: p.read_bytes() for p in cold_dir.iterdir()}
        assert len(cold) == 2
        assert {name: (out / name).read_bytes() for name in cold} == cold


class TestEvaluate:
    def _prepare(self, tmp_path, capsys, runs="200"):
        raw = tmp_path / "raw.txt"
        rng = np.random.default_rng(1)
        lines = [f"{u} {v}" for u in range(12) for v in range(12)
                 if u != v and rng.random() < 0.3]
        raw.write_text("\n".join(lines) + "\n")
        run(capsys, "ingest", raw, "--directed", "--out-dir", tmp_path, "--no-timestamps")
        graph = tmp_path / "raw.edges"
        run(capsys, "simulate", graph, "--runs", runs, "--seed", "5",
            "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        return graph, tmp_path / "raw.spread.csv"

    def test_report_written(self, tmp_path, capsys):
        graph, spread = self._prepare(tmp_path, capsys)
        code, out, _ = run(capsys, "evaluate", graph, spread,
                           "--measures", "c_os,sk3,mgc_wk", "--top-k", "5",
                           "--out-dir", tmp_path, "--no-timestamps")
        assert code == 0
        report = storage.read_evaluation(tmp_path / "raw.evaluation.csv")
        assert set(report.metrics) == {"c_od", "c_os", "sk3", "mgc_wk"}
        assert report.metrics["c_od"].tau_norm == pytest.approx(1.0)

    def test_non_numeric_spread_is_data_error(self, tmp_path, capsys):
        graph, spread = self._prepare(tmp_path, capsys)
        lines = spread.read_text().splitlines()
        lines[-1] = lines[-1].replace(",", ",?", 1)
        spread.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "evaluate", graph, spread, "--out-dir", tmp_path)
        assert code == 3
        assert "could not convert" in err

    def test_unknown_measure_is_usage_error(self, tmp_path, capsys):
        graph, spread = self._prepare(tmp_path, capsys)
        code, _, err = run(capsys, "evaluate", graph, spread, "--measures", "c_os,bogus",
                           "--out-dir", tmp_path)
        assert code == 2
        assert "'bogus'" in err and "valid ids" in err

    def test_comma_in_dataset_is_usage_error(self, tmp_path, capsys):
        graph, spread = self._prepare(tmp_path, capsys)
        # checked before any input is read: the second pair of inputs is missing
        for name, message in (("club,2020", "comma"), (AGGREGATE, "reserved")):
            for inputs in ((graph, spread), (tmp_path / "no.edges", tmp_path / "no.csv")):
                code, _, err = run(capsys, "evaluate", *inputs, "--dataset", name,
                                   "--measures", "c_os", "--out-dir", tmp_path)
                assert code == 2
                assert message in err
        assert not list(tmp_path.glob("*.evaluation.*"))

    def test_spread_edited_after_simulate_is_data_error(self, tmp_path, ingested, capsys):
        common = ("--out-dir", tmp_path, "--no-timestamps")
        run(capsys, "simulate", ingested, "--runs", "50", "--quiet", *common)
        spread = tmp_path / "toy.spread.csv"
        text = spread.read_text()
        assert "0,3.0," in text
        spread.write_text(text.replace("0,3.0,", "0,2.5,", 1))
        code, out, err = run(capsys, "evaluate", ingested, spread, "--measures", "c_os",
                             "--top-k", "2", *common)
        assert code == 3
        assert err.startswith("error: ") and str(spread) in err
        assert out == ""
        assert not list(tmp_path.glob("*.evaluation.csv"))

    def test_spread_without_run_file_is_accepted(self, tmp_path, ingested, capsys):
        common = ("--out-dir", tmp_path, "--no-timestamps")
        run(capsys, "simulate", ingested, "--runs", "50", "--quiet", *common)
        (tmp_path / "toy.spread.run.json").unlink()
        code, out, err = run(capsys, "evaluate", ingested, tmp_path / "toy.spread.csv",
                             "--measures", "c_os", "--top-k", "2", *common)
        assert code == 0, err
        assert out.startswith("wrote ")

    def test_spread_without_config_hash_is_data_error(self, tmp_path, ingested, capsys):
        # without its hash and its run file, nothing ties the spread to a graph
        common = ("--out-dir", tmp_path, "--no-timestamps")
        run(capsys, "simulate", ingested, "--runs", "50", "--quiet", *common)
        spread = tmp_path / "toy.spread.csv"
        lines = spread.read_text().splitlines(keepends=True)
        assert lines[0].startswith("# config_hash=")
        spread.write_text("".join(lines[1:]))
        storage.run_path(spread).unlink()
        other = tmp_path / "other.txt"
        other.write_text("a b\nc b\n")  # another graph of three nodes
        run(capsys, "ingest", other, "--directed", *common)
        code, out, err = run(capsys, "evaluate", tmp_path / "other.edges", spread,
                             "--measures", "c_os", "--top-k", "2", *common)
        assert code == 3
        assert err.startswith("error: ") and f"{spread}: no '# config_hash=' line" in err
        assert out == ""
        assert not list(tmp_path.glob("*.evaluation.csv"))

    def test_mismatched_spread_rejected(self, tmp_path, capsys):
        graph, spread = self._prepare(tmp_path, capsys)
        other_raw = tmp_path / "other.txt"
        other_raw.write_text("0 1\n1 2\n")
        run(capsys, "ingest", other_raw, "--directed", "--out-dir", tmp_path,
            "--no-timestamps")
        code, _, err = run(capsys, "evaluate", tmp_path / "other.edges", spread,
                           "--out-dir", tmp_path)
        assert code == 3
        assert "does not match" in err


# dataset names that would leave --out-dir or not read back as written
BAD_NAMES = {"parent_dir": "../escaped", "sub_dir": "sub/dir", "backslash": "sub\\dir",
             "leading_space": " x", "trailing_tab": "x\t", "line_feed": "a\nb",
             "carriage_return": "a\rb", "line_separator": "a\u2028b", "dot": ".",
             "dot_dot": "..", "empty": ""}


class TestDatasetName:
    @staticmethod
    def _files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*"))

    @pytest.mark.parametrize("name", BAD_NAMES.values(), ids=BAD_NAMES)
    def test_ingest_refuses_name(self, tmp_path, toy_edges, capsys, name):
        before = self._files(tmp_path)
        code, out, err = run(capsys, "ingest", toy_edges, "--directed", "--name", name,
                             "--out-dir", tmp_path / "out" / "deep")
        assert code == 2
        assert err.startswith(f"error: dataset name {name!r} must not")
        assert out == ""
        assert self._files(tmp_path) == before

    @pytest.mark.parametrize("name", BAD_NAMES.values(), ids=BAD_NAMES)
    def test_evaluate_refuses_dataset(self, tmp_path, ingested, capsys, name):
        run(capsys, "simulate", ingested, "--runs", "20", "--quiet", "--out-dir", tmp_path)
        before = self._files(tmp_path)
        code, out, err = run(capsys, "evaluate", ingested, tmp_path / "toy.spread.csv",
                             "--dataset", name, "--measures", "c_os", "--top-k", "2",
                             "--out-dir", tmp_path / "out" / "deep")
        assert code == 2
        assert err.startswith(f"error: dataset name {name!r} must not")
        assert out == ""
        assert self._files(tmp_path) == before

    def test_names_that_read_back_are_accepted(self, tmp_path, ingested, capsys):
        run(capsys, "simulate", ingested, "--runs", "20", "--quiet", "--out-dir", tmp_path)
        for name in ("my set", "...", "a.b"):
            code, _, err = run(capsys, "ingest", tmp_path / "toy.txt", "--directed",
                               "--name", name, "--out-dir", tmp_path / "named")
            assert code == 0, err
            code, _, err = run(capsys, "evaluate", ingested, tmp_path / "toy.spread.csv",
                               "--dataset", name, "--measures", "c_os", "--top-k", "2",
                               "--out-dir", tmp_path / "named")
            assert code == 0, err
            report = storage.read_evaluation(tmp_path / "named" / f"{name}.evaluation.csv")
            assert report.dataset == name
        assert sorted(p.name for p in (tmp_path / "named").glob("*.edges")) == \
            ["....edges", "a.b.edges", "my set.edges"]


def _edit_tau(evaluation):
    """Set the c_os tau of synth_club's evaluation file to 0.99."""
    lines = evaluation.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("synth_club,c_os,"))
    cells = lines[row].split(",")
    assert cells[2] != "0.99"
    lines[row] = ",".join(cells[:2] + ["0.99"] + cells[3:])
    evaluation.write_text("\n".join(lines) + "\n")


def _unseal(evaluation):
    """Drop the seal of the evaluation file's run file, as evaluate wrote it before."""
    _edit_run(storage.run_path(evaluation), "record_sha256", None)


class TestReport:
    def test_aggregate_row_and_scatter(self, tmp_path, capsys):
        graph_dir = tmp_path
        for name, seed in (("d1", 1), ("d2", 2)):
            raw = tmp_path / f"{name}.txt"
            rng = np.random.default_rng(seed)
            lines = [f"{u} {v}" for u in range(10) for v in range(10)
                     if u != v and rng.random() < 0.35]
            raw.write_text("\n".join(lines) + "\n")
            run(capsys, "ingest", raw, "--directed", "--out-dir", graph_dir,
                "--no-timestamps")
            run(capsys, "simulate", graph_dir / f"{name}.edges", "--runs", "100",
                "--seed", "7", "--out-dir", graph_dir, "--no-timestamps", "--quiet")
            run(capsys, "evaluate", graph_dir / f"{name}.edges",
                graph_dir / f"{name}.spread.csv", "--measures", "c_os,sk3",
                "--top-k", "3", "--out-dir", graph_dir, "--no-timestamps")
        code, out, _ = run(capsys, "report", graph_dir / "d1.evaluation.csv",
                           graph_dir / "d2.evaluation.csv",
                           "--out-dir", graph_dir, "--no-timestamps")
        assert code == 0
        text = (graph_dir / "report.csv").read_text()
        assert "__geomean__" in text
        assert (graph_dir / "scatter.csv").exists()

    @staticmethod
    def club_evaluation(tmp_path, capsys):
        """synth_club's evaluation file, from ingest, simulate and evaluate."""
        common = ("--out-dir", tmp_path, "--no-timestamps")
        graph = tmp_path / "synth_club.edges"
        for argv in (("ingest", DATA / "synth_club.tsv", "--directed"),
                     ("simulate", graph, "--runs", "100", "--quiet"),
                     ("evaluate", graph, tmp_path / "synth_club.spread.csv",
                      "--measures", "c_os,sk3", "--top-k", "3")):
            code, _, err = run(capsys, *argv, *common)
            assert code == 0, err
        return tmp_path / "synth_club.evaluation.csv"

    @pytest.mark.parametrize("damage", [_edit_tau, _unseal],
                             ids=["tau_edited", "run_file_unsealed"])
    def test_evaluation_unlike_its_run_file_is_data_error(self, tmp_path, capsys, damage):
        evaluation = self.club_evaluation(tmp_path, capsys)
        damage(evaluation)
        code, out, err = run(capsys, "report", evaluation, "--out-dir", tmp_path,
                             "--no-timestamps")
        assert code == 3
        assert err.startswith("error: ") and out == ""
        assert str(evaluation) in err and str(storage.run_path(evaluation)) in err
        assert not (tmp_path / "report.csv").exists()

    def test_evaluation_without_run_file_is_read(self, tmp_path, capsys):
        evaluation = self.club_evaluation(tmp_path, capsys)
        storage.run_path(evaluation).unlink()
        code, _, err = run(capsys, "report", evaluation, "--out-dir", tmp_path,
                           "--no-timestamps")
        assert code == 0, err
        assert (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("damage", ["no_node_count", "no_density", "comment_row"])
    def test_evaluation_without_a_required_line_is_data_error(self, tmp_path, capsys, damage):
        # with no run file, the file's own lines are all that is checked
        evaluation = self.club_evaluation(tmp_path, capsys)
        storage.run_path(evaluation).unlink()
        lines = evaluation.read_text().splitlines()
        if damage == "comment_row":
            row = next(i for i, line in enumerate(lines) if line.startswith("synth_club,sk3,"))
            lines[row] = "# " + lines[row]
            expected = str(evaluation)
        else:
            key = damage[3:]
            lines.remove(next(line for line in lines if line.startswith(f"# {key}=")))
            expected = f"{evaluation}: no '# {key}=' line"
        evaluation.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "report", evaluation, "--out-dir", tmp_path,
                             "--no-timestamps")
        assert code == 3
        assert err.startswith("error: ") and expected in err and out == ""
        assert not (tmp_path / "report.csv").exists()

    def test_evaluation_of_the_previous_format_is_reported(self, tmp_path, capsys):
        # evaluate wrote the spread's config hash into the file before; nothing read it
        evaluation = self.club_evaluation(tmp_path, capsys)
        common = ("--out-dir", tmp_path, "--no-timestamps")
        assert run(capsys, "report", evaluation, *common)[0] == 0
        names = ("report.csv", "scatter.csv")
        outputs = {name: (tmp_path / name).read_bytes() for name in names}
        spread_hash = storage.read_spread(tmp_path / "synth_club.spread.csv")[1]
        evaluation.write_text(f"# config_hash={spread_hash}\n" + evaluation.read_text())
        run_file = storage.run_path(evaluation)
        record = json.loads(run_file.read_text())
        del record["sha256"], record["record_sha256"]
        # as evaluate sealed it then
        storage.write_run(run_file, record, {evaluation: storage.sha256_of(evaluation)},
                          timestamps=False)
        for name in outputs:
            (tmp_path / name).unlink()
        code, _, err = run(capsys, "report", evaluation, *common)
        assert code == 0, err
        assert {name: (tmp_path / name).read_bytes() for name in outputs} == outputs

    def test_dataset_starting_with_hash_is_reported(self, tmp_path, ingested, capsys):
        common = ("--out-dir", tmp_path, "--no-timestamps")
        run(capsys, "simulate", ingested, "--runs", "50", "--quiet", *common)
        code, _, err = run(capsys, "evaluate", ingested, tmp_path / "toy.spread.csv",
                           "--dataset", "#campus", "--measures", "c_os", "--top-k", "2",
                           *common)
        assert code == 0, err
        code, _, err = run(capsys, "report", tmp_path / "#campus.evaluation.csv", *common)
        assert code == 0, err
        rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [
            ["#campus", "c_od"], ["#campus", "c_os"], [AGGREGATE, "c_od"], [AGGREGATE, "c_os"]]
        scatter = (tmp_path / "scatter.csv").read_text().splitlines()[1:]
        assert scatter and {row.split(",")[0] for row in scatter} == {"#campus"}

    def test_evaluation_of_the_aggregate_dataset_is_data_error(self, tmp_path, ingested,
                                                              capsys):
        # evaluate refuses the name, so only a file without a run file can hold it
        common = ("--out-dir", tmp_path, "--no-timestamps")
        run(capsys, "simulate", ingested, "--runs", "50", "--quiet", *common)
        run(capsys, "evaluate", ingested, tmp_path / "toy.spread.csv", "--measures", "c_os",
            "--top-k", "2", *common)
        evaluation = tmp_path / "toy.evaluation.csv"
        storage.run_path(evaluation).unlink()
        evaluation.write_text(evaluation.read_text().replace("\ntoy,", f"\n{AGGREGATE},"))
        code, out, err = run(capsys, "report", evaluation, *common)
        assert code == 3
        assert err.startswith("error: ") and out == ""
        assert str(evaluation) in err and repr(AGGREGATE) in err
        assert not (tmp_path / "report.csv").exists()

    def test_duplicate_dataset_rejected(self, tmp_path, capsys):
        raw = tmp_path / "x.txt"
        raw.write_text("0 1\n1 2\n2 0\n")
        run(capsys, "ingest", raw, "--directed", "--out-dir", tmp_path, "--no-timestamps")
        run(capsys, "simulate", tmp_path / "x.edges", "--runs", "50",
            "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        run(capsys, "evaluate", tmp_path / "x.edges", tmp_path / "x.spread.csv",
            "--measures", "c_os", "--top-k", "2", "--out-dir", tmp_path,
            "--no-timestamps")
        eval_csv = tmp_path / "x.evaluation.csv"
        code, _, err = run(capsys, "report", eval_csv, eval_csv, "--out-dir", tmp_path)
        assert code == 3
        assert "duplicate" in err


class TestDamagedCanonicalGraph:
    """A canonical graph that is not as ``ingest`` writes it exits 3, never repaired."""

    @pytest.mark.parametrize("old, new", [
        ("0 1 1.0", "0 1.5 1.0"),
        ("0 1 1.0", "x 1 1.0"),
        ("0 1 1.0", "-1 1 1.0"),
        ("1 2 1.0", "1 3 1.0"),
        ("1 2 1.0", "1 2"),
        ("1 2 1.0", "1 2 1.0 1.0"),
        ("1 2 1.0", "1 2 nan"),
        ("1 2 1.0", "1 2 inf"),
        ("1 2 1.0", "1 2 0.0"),
        ("1 2 1.0", "1 2 -1.0"),
        ("1 2 1.0", "1 2 1.0\n0 1 1.0"),
        ("1 2 1.0", "1 2 1.0\n1 1 1.0"),
        ("# nodes=3", "# nodes=three"),
        ("# nodes=3\n", ""),
        ("1 2 1.0", "#1 2 1.0"),
    ], ids=["non_integer_id", "label_id", "negative_id", "out_of_range_id", "two_cells",
            "four_cells", "nan_weight", "infinite_weight", "zero_weight",
            "negative_weight", "duplicate_row", "self_loop", "non_integer_node_count",
            "no_node_count", "comment_row"])
    @pytest.mark.parametrize("command", ["simulate", "centrality", "evaluate"])
    def test_rejected_with_exit_3(self, tmp_path, ingested, capsys, command, old, new):
        code, _, _ = run(capsys, "simulate", ingested, "--runs", "10",
                         "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        assert code == 0
        spread = tmp_path / "toy.spread.csv"
        before = spread.read_bytes()
        text = ingested.read_text()
        assert old in text
        ingested.write_text(text.replace(old, new))
        # an edited graph is a simulate cache miss, so it is parsed
        rest = {"simulate": ["--runs", "10", "--quiet"],
                "centrality": ["--measure", "c_os"],
                "evaluate": [spread]}[command]
        code, out, err = run(capsys, command, ingested, *rest, "--out-dir", tmp_path,
                             "--no-timestamps")
        assert code == 3
        assert err.startswith("error: ") and str(ingested) in err
        assert out == ""
        assert spread.read_bytes() == before
        assert not list(tmp_path.glob("toy.c_os.csv")) + list(tmp_path.glob("*.evaluation.csv"))


class TestCachedParser:
    """``main`` reuses one parser; no call may see another call's options."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """argv and parsed options of every command ``main`` runs."""
        calls = []
        for name, command in list(cli._COMMANDS.items()):
            def recording(args, command=command):
                calls.append(dict(vars(args)))
                return command(args)
            monkeypatch.setitem(cli._COMMANDS, name, recording)
        return calls

    @staticmethod
    def fresh(*argv):
        return vars(cli.build_parser().parse_args([str(a) for a in argv]))

    def test_store_true_flag_is_not_carried_over(self, tmp_path, toy_edges, capsys, parsed):
        argv = ["ingest", toy_edges, "--out-dir", tmp_path, "--no-timestamps"]
        assert run(capsys, *argv, "--directed")[0] == 0
        assert run(capsys, *argv)[0] == 0
        assert parsed == [self.fresh(*argv, "--directed"), self.fresh(*argv)]
        assert [call["directed"] for call in parsed] == [True, False]
        assert json.loads((tmp_path / "toy.ingest.run.json").read_text())["directed"] is False

    def test_dataset_is_not_carried_over(self, tmp_path, ingested, capsys, parsed):
        run(capsys, "simulate", ingested, "--runs", "20", "--out-dir", tmp_path,
            "--no-timestamps", "--quiet")
        argv = ["evaluate", ingested, tmp_path / "toy.spread.csv", "--measures", "c_os",
                "--top-k", "2", "--out-dir", tmp_path, "--no-timestamps"]
        assert run(capsys, *argv, "--dataset", "club")[0] == 0
        assert run(capsys, *argv)[0] == 0
        assert parsed[1:] == [self.fresh(*argv, "--dataset", "club"), self.fresh(*argv)]
        club = storage.read_evaluation(tmp_path / "club.evaluation.csv")
        toy = storage.read_evaluation(tmp_path / "toy.evaluation.csv")
        assert (club.dataset, toy.dataset) == ("club", "toy")
        assert club.metrics == toy.metrics

    def test_usage_error_after_a_successful_call(self, tmp_path, ingested, capsys, parsed):
        argv = ["centrality", ingested, "--measure", "c_os", "--out-dir", tmp_path,
                "--no-timestamps"]
        assert run(capsys, *argv)[0] == 0
        first = (tmp_path / "toy.c_os.csv").read_bytes()
        with pytest.raises(SystemExit) as exc:
            main(["centrality", str(ingested), "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--measure" in capsys.readouterr().err
        assert run(capsys, *argv)[0] == 0
        assert (tmp_path / "toy.c_os.csv").read_bytes() == first
        assert parsed == [self.fresh(*argv)] * 2

    def test_build_parser_runs_once_per_process(self, tmp_path, toy_edges):
        script = (
            "import sys\n"
            "import spreadrank.cli as cli\n"
            "build, built = cli.build_parser, []\n"
            "cli.build_parser = lambda: built.append(1) or build()\n"
            "for name in ('a', 'b', 'c'):\n"
            "    cli.main(['ingest', sys.argv[1], '--name', name, '--directed',\n"
            "              '--out-dir', sys.argv[2]])\n"
            "print(len(built))\n")
        done = python("-c", script, toy_edges, tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "1"
        assert sorted(p.name for p in tmp_path.glob("*.edges")) == ["a.edges", "b.edges",
                                                                     "c.edges"]


def test_python_dash_m_runs_the_cli():
    done = python("-m", "spreadrank", "--version")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == f"spreadrank {cli.__version__}"


class TestConfigProvenance:
    def test_config_serialized(self, tmp_path, ingested, capsys):
        run(capsys, "simulate", ingested, "--runs", "20", "--seed", "9",
            "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        payload = json.loads((tmp_path / "toy.spread.run.json").read_text())
        assert payload["runs"] == 20
        assert payload["master_seed"] == 9

    @pytest.mark.parametrize("argv", [["simulate", "g.edges"],
                                      ["centrality", "g.edges", "--measure", "c_os"],
                                      ["evaluate", "g.edges", "s.csv"]],
                             ids=["simulate", "centrality", "evaluate"])
    def test_defaults_are_run_config_defaults(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli._config_from_args(args)[0] == RunConfig()

    @pytest.mark.parametrize("argv, run_file, expected, hashed", [
        (["simulate", "--runs", "30", "--seed", "4", "--quiet"], "toy.spread.run.json",
         {"runs": 30, "master_seed": 4, "engine": ENGINE},
         ["toy.spread.csv"]),
        (["centrality", "--measure", "c_os", "--radius", "2"], "toy.c_os.run.json",
         {"format": MEASURES, "measure": "c_os", "katz_alpha": None, "gravity_radius": 2},
         ["toy.c_os.csv"]),
        (["evaluate", "toy.spread.csv", "--top-k", "2", "--measures", "c_os"],
         "toy.evaluation.run.json",
         {"format": MEASURES, "dataset": "toy", "top_k": 2, "measures": ["c_os"],
          "katz_alpha": None, "gravity_radius": 3}, ["toy.evaluation.csv"])],
        ids=["simulate", "centrality", "evaluate"])
    def test_config_holds_the_fields_the_command_read(self, tmp_path, ingested, capsys,
                                                      argv, run_file, expected, hashed):
        # each also records the graph's digest and that of the output it wrote,
        # simulate the config hash of its spread cache, evaluate the spread's digest
        run(capsys, "simulate", ingested, "--runs", "20", "--seed", "9",
            "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        command, *rest = argv
        rest = [tmp_path / a if a.endswith(".csv") else a for a in rest]
        code, _, _ = run(capsys, command, ingested, *rest, "--out-dir", tmp_path,
                         "--no-timestamps")
        assert code == 0
        inputs = {"graph_sha256": storage.sha256_of(ingested)}
        if command == "simulate":
            inputs["config_hash"] = storage.read_spread(tmp_path / hashed[0])[1]
        if command == "evaluate":
            inputs["spread_sha256"] = storage.sha256_of(tmp_path / "toy.spread.csv")
        expected = sealed({**expected, **inputs, "sha256": digests(tmp_path, *hashed)})
        assert json.loads((tmp_path / run_file).read_text()) == expected

    def test_cached_simulate_writes_its_config(self, tmp_path, ingested, capsys):
        simulate = ("simulate", ingested, "--runs", "20", "--seed", "9",
                    "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        run(capsys, *simulate)
        run(capsys, "centrality", ingested, "--measure", "c_os", "--out-dir", tmp_path,
            "--no-timestamps")
        code, out, _ = run(capsys, *simulate)
        assert code == 0
        assert "cache hit" in out
        assert json.loads((tmp_path / "toy.spread.run.json").read_text()) == \
            spread_record(ingested, tmp_path, 20, 9)

    def test_each_run_file_holds_only_its_own_command(self, tmp_path, ingested, capsys):
        run(capsys, "simulate", ingested, "--runs", "20", "--seed", "9",
            "--out-dir", tmp_path, "--no-timestamps", "--quiet")
        run(capsys, "centrality", ingested, "--measure", "c_os", "--radius", "2",
            "--out-dir", tmp_path, "--no-timestamps")
        code, _, _ = run(capsys, "evaluate", ingested, tmp_path / "toy.spread.csv",
                         "--top-k", "2", "--measures", "c_os", "--out-dir", tmp_path,
                         "--no-timestamps")
        assert code == 0
        input_digest = {"input_sha256": digests(tmp_path, "toy.txt")["toy.txt"]}
        assert {p.name: json.loads(p.read_text()) for p in tmp_path.glob("*.run.json")} == {
            "toy.ingest.run.json": sealed({
                "format": INGEST, **input_digest, "dataset": "toy", "directed": True,
                "weighted": False, "keep_weights": False,
                "nodes": 3, "edges": 2, "density": 2 / 6,
                "self_loops_dropped": 0, "duplicates_dropped": 0,
                "sha256": digests(tmp_path, "toy.edges", "toy.idmap.csv")}),
            "toy.spread.run.json": spread_record(ingested, tmp_path, 20, 9),
            "toy.c_os.run.json": scores_record(ingested, tmp_path, "c_os", gravity_radius=2),
            "toy.evaluation.run.json": sealed({
                "format": MEASURES, "graph_sha256": storage.sha256_of(ingested),
                "spread_sha256": digests(tmp_path, "toy.spread.csv")["toy.spread.csv"],
                "dataset": "toy", "top_k": 2, "measures": ["c_os"], "katz_alpha": None,
                "gravity_radius": 3, "sha256": digests(tmp_path, "toy.evaluation.csv")})}
        assert not (tmp_path / "config.json").exists()


def test_warm_rerun_leaves_every_output_untouched(tmp_path, toy_edges, capsys):
    out = tmp_path / "out"
    graph = out / "toy.edges"
    passes = [("ingest", toy_edges, "--directed"),
              ("simulate", graph, "--runs", "20", "--quiet"),
              ("centrality", graph, "--measure", "c_os"),
              ("evaluate", graph, out / "toy.spread.csv", "--top-k", "2",
               "--measures", "c_os"),
              ("report", out / "toy.evaluation.csv")]

    def run_pipeline():
        for argv in passes:
            code, _, err = run(capsys, *argv, "--out-dir", out, "--no-timestamps")
            assert code == 0, err
        return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns) for p in out.iterdir()}

    first = run_pipeline()
    assert run_pipeline() == first
    assert not [*out.glob(".*.tmp")]
    # every run file is sealed and its outputs hash to what it records
    run_files = sorted(out.glob("*.run.json"))
    assert len(run_files) == 5
    for run_file in run_files:
        outputs = [out / name for name in json.loads(run_file.read_text())["sha256"]]
        assert outputs and storage.current_run(run_file, {}, outputs) is not None


@pytest.fixture
def opened(monkeypatch):
    """How often each path is opened from now on, by ``open`` or ``io.open``."""
    counts = Counter()
    real_open = io.open

    def counting(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            counts[Path(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting)
    monkeypatch.setattr(builtins, "open", counting)
    return counts


def test_evaluate_and_report_open_each_input_twice(tmp_path, ingested, capsys, opened):
    # one parse and one hash: the run-file check hands its verified digest to the key
    common = ("--out-dir", tmp_path, "--no-timestamps")
    run(capsys, "simulate", ingested, "--runs", "20", "--quiet", *common)
    spread, evaluation = tmp_path / "toy.spread.csv", tmp_path / "toy.evaluation.csv"
    opened.clear()
    code, _, err = run(capsys, "evaluate", ingested, spread, "--measures", "c_os",
                       "--top-k", "2", *common)
    assert code == 0, err
    assert opened[spread] == 2
    opened.clear()
    code, _, err = run(capsys, "report", evaluation, *common)
    assert code == 0, err
    assert opened[evaluation] == 2
    key = json.loads(storage.run_path(tmp_path / "report.csv").read_text())["evaluations"]
    assert key == [{"name": evaluation.name, "sha256": storage.sha256_of(evaluation)}]
    record = json.loads(storage.run_path(evaluation).read_text())
    assert record["spread_sha256"] == storage.sha256_of(spread)


def test_cold_evaluate_never_reads_its_evaluation_file(tmp_path, ingested, capsys, opened):
    # the run file seals the digest of the bytes evaluate wrote, not a reread of them
    common = ("--out-dir", tmp_path, "--no-timestamps")
    run(capsys, "simulate", ingested, "--runs", "20", "--quiet", *common)
    evaluation = tmp_path / "toy.evaluation.csv"
    opened.clear()
    code, _, err = run(capsys, "evaluate", ingested, tmp_path / "toy.spread.csv",
                       "--measures", "c_os", "--top-k", "2", *common)
    assert code == 0, err
    assert opened[evaluation] == 0
    assert storage.current_run(storage.run_path(evaluation), {}, [evaluation]) is not None


def _pipeline(capsys, raw, out, *flags):
    """ingest, simulate, centrality, evaluate as toy and as club, then report both."""
    graph = out / "toy.edges"
    evaluate = ("evaluate", graph, out / "toy.spread.csv", "--top-k", "2", "--measures", "c_os")
    for argv in (("ingest", raw, "--directed"),
                 ("simulate", graph, "--runs", "20", "--quiet"),
                 ("centrality", graph, "--measure", "c_os"),
                 evaluate, evaluate + ("--dataset", "club"),
                 ("report", out / "toy.evaluation.csv", out / "club.evaluation.csv")):
        code, _, err = run(capsys, *argv, "--out-dir", out, *flags)
        assert code == 0, err


def _tables(out):
    """Every output but the run files, by name: its bytes, inode and mtime."""
    return {p.name: (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns)
            for p in out.iterdir() if not p.name.endswith(".run.json")}


def _clock_at(monkeypatch, when):
    """Make storage's clock read ``when``."""
    class Clock(datetime.datetime):
        @classmethod
        def now(cls, tz=None):
            return when
    monkeypatch.setattr(storage, "_dt", SimpleNamespace(datetime=Clock))


def test_default_warm_rerun_writes_no_table(tmp_path, toy_edges, capsys, monkeypatch):
    out = tmp_path / "out"
    first, second = datetime.datetime(2020, 1, 2, 3, 4, 5), datetime.datetime(2020, 1, 2, 4, 0)
    _clock_at(monkeypatch, first)
    _pipeline(capsys, toy_edges, out)
    tables = _tables(out)
    assert sorted(tables) == ["club.evaluation.csv", "report.csv", "scatter.csv",
                              "toy.c_os.csv", "toy.edges", "toy.evaluation.csv",
                              "toy.idmap.csv", "toy.spread.csv"]
    _clock_at(monkeypatch, second)
    _pipeline(capsys, toy_edges, out)
    assert _tables(out) == tables
    # a hit keeps the run file it found; evaluate and report always run
    assert {p.name: json.loads(p.read_text())["generated"] for p in out.glob("*.run.json")} == {
        **dict.fromkeys(["toy.ingest.run.json", "toy.spread.run.json", "toy.c_os.run.json"],
                        first.isoformat()),
        **dict.fromkeys(["toy.evaluation.run.json", "club.evaluation.run.json",
                         "report.run.json"], second.isoformat())}


def test_no_timestamps_touches_only_run_files(tmp_path, toy_edges, capsys):
    timed, untimed = tmp_path / "timed", tmp_path / "untimed"
    _pipeline(capsys, toy_edges, timed)
    _pipeline(capsys, toy_edges, untimed, "--no-timestamps")
    assert {name: data for name, (data, *_) in _tables(timed).items()} == \
        {name: data for name, (data, *_) in _tables(untimed).items()}
    runs = {}
    for out in (timed, untimed):
        runs[out] = {p.name: json.loads(p.read_text()) for p in out.glob("*.run.json")}
        assert len(runs[out]) == 6
    for name, record in runs[timed].items():
        assert "generated" in record
        drop = ("generated", "record_sha256")
        assert {k: v for k, v in record.items() if k not in drop} == \
            {k: v for k, v in runs[untimed][name].items() if k not in drop}
        assert "generated" not in runs[untimed][name]
    for out in (timed, untimed):
        evaluations = [{"name": name, "sha256": storage.sha256_of(out / name)}
                       for name in ("toy.evaluation.csv", "club.evaluation.csv")]
        assert storage.current_run(out / "report.run.json", {"evaluations": evaluations},
                                   [out / "report.csv", out / "scatter.csv"]) is not None


def _readme_options():
    """Command -> the arguments and options README's table lists for it."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| command | arguments and options |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        command, cells = line.strip("|").split("|")
        table[command.strip().strip("`")] = set(re.findall(r"`([^`]+)`", cells))
    return table


def test_readme_options_table_matches_the_parser():
    subcommands = next(action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    common = {"--out-dir", "--no-timestamps", "-h", "--help"}
    parsed = {command: {name for action in parser._actions
                        for name in action.option_strings or [action.dest]} - common
              for command, parser in subcommands.items()}
    assert _readme_options() == parsed


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", tmp_path / "nope.edges",
                           "--out-dir", tmp_path, "--quiet")
        assert code == 3

    def test_input_that_is_a_directory(self, tmp_path):
        done = python("-m", "spreadrank", "ingest", tmp_path, "--out-dir", tmp_path)
        assert done.returncode == 3
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr

    def test_spread_cache_that_is_a_directory(self, tmp_path, ingested):
        (tmp_path / "toy.spread.csv").mkdir()
        done = python("-m", "spreadrank", "simulate", ingested, "--runs", "10",
                      "--out-dir", tmp_path, "--quiet")
        assert done.returncode == 3
        assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr

    @pytest.mark.parametrize("flag, value", [("--top-k", "0"), ("--radius", "0")])
    def test_out_of_range_setting_is_usage_error(self, tmp_path, ingested, capsys,
                                                 flag, value):
        run(capsys, "simulate", ingested, "--runs", "10", "--out-dir", tmp_path,
            "--no-timestamps", "--quiet")
        readers = {"--top-k": ["evaluate"], "--radius": ["centrality", "evaluate"]}[flag]
        for command in readers:
            rest = {"centrality": ["--measure", "c_os"],
                    "evaluate": [tmp_path / "toy.spread.csv"]}[command]
            code, _, err = run(capsys, command, ingested, *rest, flag, value,
                               "--out-dir", tmp_path)
            assert code == 2
            assert "must be >= 1" in err
        assert not list(tmp_path.glob("toy.c_os.csv")) + list(tmp_path.glob("*.evaluation.csv"))

    @pytest.mark.parametrize("setting, message", [
        (["--radius", "0"], "error: gravity radius must be >= 1"),
        (["--top-k", "0"], "error: top_k must be >= 1"),
        (["--katz-alpha", "0"], "error: katz alpha must be a finite number > 0"),
        (["--measures", "bogus"], "error: unknown measure 'bogus'"),
    ], ids=["radius", "top_k", "katz_alpha", "measures"])
    def test_evaluate_checks_settings_before_reading_inputs(self, tmp_path, ingested, capsys,
                                                            setting, message):
        # the spread file is missing, and the graph too in the second run
        for graph in (ingested, tmp_path / "missing.edges"):
            code, _, err = run(capsys, "evaluate", graph, tmp_path / "missing.csv", *setting,
                               "--out-dir", tmp_path)
            assert code == 2
            assert message in err
        assert not list(tmp_path.glob("*.evaluation.csv"))

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
    def test_katz_alpha_checked_without_katz_measure(self, tmp_path, ingested, capsys, alpha):
        code, _, err = run(capsys, "centrality", ingested, "--measure", "c_os",
                           "--katz-alpha", alpha, "--out-dir", tmp_path)
        assert code == 2
        assert "error: katz alpha must be a finite number > 0" in err
        assert not (tmp_path / "toy.c_os.csv").exists()

    @pytest.mark.parametrize("seed", [2**63, 2**64 - 1, 2**70, -2**63 - 1])
    def test_seed_a_spread_file_cannot_hold_is_usage_error(self, tmp_path, capsys, seed):
        # checked before the graph, which is missing, is read
        code, _, err = run(capsys, "simulate", tmp_path / "missing.edges", "--seed", seed,
                           "--out-dir", tmp_path, "--quiet")
        assert code == 2
        assert "error: master seed must be in [-2**63, 2**63)" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("seed", [-2**63, 2**63 - 1])
    def test_seed_at_either_bound_is_evaluated(self, tmp_path, ingested, capsys, seed):
        common = ("--out-dir", tmp_path, "--no-timestamps")
        run(capsys, "simulate", ingested, "--runs", "10", "--seed", seed, "--quiet", *common)
        code, _, err = run(capsys, "evaluate", ingested, tmp_path / "toy.spread.csv",
                           "--measures", "c_os", "--top-k", "2", *common)
        assert code == 0, err
        assert storage.read_spread(tmp_path / "toy.spread.csv")[0].master_seed == seed

    @pytest.mark.parametrize("runs", ["0", "1"])
    def test_single_run_is_usage_error(self, tmp_path, ingested, capsys, runs):
        # a standard error needs two runs; fewer get the one message
        code, _, err = run(capsys, "simulate", ingested, "--runs", runs,
                           "--out-dir", tmp_path, "--quiet")
        assert code == 2
        assert "error: runs must be >= 2 for error reporting" in err
        assert not (tmp_path / f"{ingested.stem}.spread.csv").exists()

    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--top-k"), ("simulate", "--measures"), ("simulate", "--katz-alpha"),
        ("simulate", "--radius"),
        ("centrality", "--runs"), ("centrality", "--seed"), ("centrality", "--top-k"),
        ("centrality", "--measures"), ("evaluate", "--runs"), ("evaluate", "--seed")])
    def test_option_the_command_does_not_read_is_rejected(self, tmp_path, ingested,
                                                          capsys, command, flag):
        rest = {"simulate": [], "centrality": ["--measure", "c_os"],
                "evaluate": [str(tmp_path / "s.csv")]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, str(ingested), *rest, flag, "5", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["centrality"])  # missing required args
        assert exc.value.code == 2
