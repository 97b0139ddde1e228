import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spreadrank import cli, storage
from spreadrank.cli import main
from spreadrank.config import RunConfig

DATA = Path(__file__).resolve().parent.parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    ], ids=["truncated", "non_numeric", "nan"])
    def test_damaged_cache_recomputed(self, tmp_path, ingested, capsys, damage):
        argv = ("simulate", ingested, "--runs", "50", "--out-dir", tmp_path,
                "--no-timestamps", "--quiet")
        run(capsys, *argv)
        cache = tmp_path / "toy.spread.csv"
        first = cache.read_text()
        cache.write_text("\n".join(damage(first.splitlines())) + "\n")
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
        scores, _ = storage.read_scores(tmp_path / "toy.c_os.csv")
        assert scores.measure == "c_os"
        assert scores.values.tolist() == [1.0, 1.0, 0.0]

    def test_unknown_measure_usage_error(self, tmp_path, ingested, capsys):
        code, _, err = run(capsys, "centrality", ingested, "--measure", "bogus",
                           "--out-dir", tmp_path)
        assert code == 2
        assert "valid ids" in err

    def test_dependency_chain_measure(self, tmp_path, ingested, capsys):
        code, _, _ = run(capsys, "centrality", ingested, "--measure", "mgc_wk",
                         "--out-dir", tmp_path, "--no-timestamps")
        assert code == 0
        scores, _ = storage.read_scores(tmp_path / "toy.mgc_wk.csv")
        assert len(scores) == 3


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
        report, _ = storage.read_evaluation(tmp_path / "raw.evaluation.csv")
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
        code, _, err = run(capsys, "evaluate", graph, spread, "--dataset", "club,2020",
                           "--measures", "c_os", "--out-dir", tmp_path)
        assert code == 2
        assert "comma" in err
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
    ], ids=["non_integer_id", "label_id", "negative_id", "out_of_range_id", "two_cells",
            "four_cells", "nan_weight", "infinite_weight", "zero_weight",
            "negative_weight", "duplicate_row", "self_loop", "non_integer_node_count"])
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
        rest = {"simulate": ["--runs", "10", "--force", "--quiet"],
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

    def test_force_is_not_carried_over(self, tmp_path, ingested, capsys, parsed):
        argv = ["simulate", ingested, "--runs", "20", "--out-dir", tmp_path,
                "--no-timestamps", "--quiet"]
        code, out, _ = run(capsys, *argv, "--force")
        assert code == 0 and "wrote" in out
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "cache hit" in out
        assert parsed == [self.fresh(*argv, "--force"), self.fresh(*argv)]
        assert [call["force"] for call in parsed] == [True, False]

    def test_dataset_is_not_carried_over(self, tmp_path, ingested, capsys, parsed):
        run(capsys, "simulate", ingested, "--runs", "20", "--out-dir", tmp_path,
            "--no-timestamps", "--quiet")
        argv = ["evaluate", ingested, tmp_path / "toy.spread.csv", "--measures", "c_os",
                "--top-k", "2", "--out-dir", tmp_path, "--no-timestamps"]
        assert run(capsys, *argv, "--dataset", "club")[0] == 0
        assert run(capsys, *argv)[0] == 0
        assert parsed[1:] == [self.fresh(*argv, "--dataset", "club"), self.fresh(*argv)]
        club, _ = storage.read_evaluation(tmp_path / "club.evaluation.csv")
        toy, _ = storage.read_evaluation(tmp_path / "toy.evaluation.csv")
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
        payload = json.loads((tmp_path / "config.json").read_text())
        assert payload["runs"] == 20
        assert payload["master_seed"] == 9

    @pytest.mark.parametrize("argv", [["simulate", "g.edges"],
                                      ["centrality", "g.edges", "--measure", "c_os"],
                                      ["evaluate", "g.edges", "s.csv"]],
                             ids=["simulate", "centrality", "evaluate"])
    def test_defaults_are_run_config_defaults(self, argv):
        args = cli.build_parser().parse_args(argv)
        assert cli._config_from_args(args) == RunConfig()


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", tmp_path / "nope.edges",
                           "--out-dir", tmp_path, "--quiet")
        assert code == 3

    @pytest.mark.parametrize("flag, value", [("--top-k", "0"), ("--radius", "0")])
    def test_out_of_range_setting_is_usage_error(self, tmp_path, ingested, capsys,
                                                 flag, value):
        code, _, err = run(capsys, "simulate", ingested, flag, value,
                           "--out-dir", tmp_path, "--quiet")
        assert code == 2
        assert "must be >= 1" in err

    @pytest.mark.parametrize("alpha", ["0", "-1", "nan", "inf"])
    def test_katz_alpha_checked_without_katz_measure(self, tmp_path, ingested, capsys, alpha):
        code, _, err = run(capsys, "centrality", ingested, "--measure", "c_os",
                           "--katz-alpha", alpha, "--out-dir", tmp_path)
        assert code == 2
        assert "error: katz alpha must be a finite number > 0" in err
        assert not (tmp_path / "toy.c_os.csv").exists()

    @pytest.mark.parametrize("runs", ["0", "1"])
    def test_single_run_is_usage_error(self, tmp_path, ingested, capsys, runs):
        # a standard error needs two runs; fewer get the one message
        code, _, err = run(capsys, "simulate", ingested, "--runs", runs,
                           "--out-dir", tmp_path, "--quiet")
        assert code == 2
        assert "error: runs must be >= 2 for error reporting" in err
        assert not (tmp_path / f"{ingested.stem}.spread.csv").exists()

    @pytest.mark.parametrize("command, flag", [
        ("centrality", "--runs"), ("centrality", "--seed"), ("centrality", "--top-k"),
        ("centrality", "--measures"), ("evaluate", "--runs"), ("evaluate", "--seed")])
    def test_option_the_command_does_not_read_is_rejected(self, tmp_path, ingested,
                                                          capsys, command, flag):
        rest = ["--measure", "c_os"] if command == "centrality" else [str(tmp_path / "s.csv")]
        with pytest.raises(SystemExit) as exc:
            main([command, str(ingested), *rest, flag, "5", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 5" in capsys.readouterr().err

    def test_usage_error_from_argparse(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["centrality"])  # missing required args
        assert exc.value.code == 2
