import builtins
import errno
import io
import json
import os
import re

import numpy as np
import pytest

from spreadrank.config import RunConfig, graph_fingerprint, simulation_hash
from spreadrank.errors import DataError, ParseError
from spreadrank.graph import Network
from spreadrank.propagation import SpreadEstimate
from spreadrank.ranking import EvaluationReport, MeasureMetrics
from spreadrank.scores import ScoreVector
from spreadrank import propagation, storage


@pytest.fixture
def net():
    return Network.from_edges(3, [(0, 1, 0.5), (1, 2, 0.25), (2, 0, 1.0)])


def test_edge_list_roundtrip(net, tmp_path):
    path = tmp_path / "g.edges"
    storage.write_edge_list(net, path, comments={"dataset": "g"}, timestamps=False)
    back = storage.read_canonical_network(path)
    assert np.array_equal(back.src, net.src)
    assert np.array_equal(back.weight, net.weight)
    assert path.read_text().startswith("# dataset=g\n")


def test_node_count_survives_nodes_without_edges(tmp_path):
    path = tmp_path / "g.edges"
    for net in (Network.from_edges(5, [(1, 2, 0.5), (2, 3, 1.0)]), Network.from_edges(2, [])):
        storage.write_edge_list(net, path, comments={"dataset": "g"}, timestamps=False)
        assert f"\n# nodes={net.node_count}\n" in path.read_text()
        back = storage.read_canonical_network(path)
        assert back.node_count == net.node_count
        assert graph_fingerprint(back) == graph_fingerprint(net)


def test_canonical_file_without_node_count_counts_to_the_largest_id(tmp_path):
    path = tmp_path / "old.edges"
    path.write_text("# dataset=old\n# graph_fingerprint=0\n0 3 0.5\n\n2 1 0.25\n")
    back = storage.read_canonical_network(path)
    assert back.node_count == 4
    assert (back.src.tolist(), back.dst.tolist(), back.weight.tolist()) == \
        ([0, 2], [3, 1], [0.5, 0.25])


def test_id_map(net, tmp_path):
    path = tmp_path / "g.idmap.csv"
    storage.write_id_map(net, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "original_label,dense_id"
    assert len(lines) == 4


def test_id_map_uses_lf_line_endings(tmp_path):
    labeled = Network(3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 1.0]),
                      directed=True, labels=("a", "b,c", 'd"e'))
    path = tmp_path / "g.idmap.csv"
    storage.write_id_map(labeled, path)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data == b'original_label,dense_id\na,0\n"b,c",1\n"d""e",2\n'


def test_scores_roundtrip(tmp_path):
    scores = ScoreVector("c_os", np.array([0.5, 1.25, 0.0]))
    path = tmp_path / "scores.csv"
    storage.write_scores(scores, path, config_hash="abc123", timestamps=False)
    back, stored_hash = storage.read_scores(path)
    assert stored_hash == "abc123"
    assert back.measure == "c_os"
    np.testing.assert_array_equal(back.values, scores.values)


def test_spread_roundtrip(tmp_path):
    est = SpreadEstimate(np.array([2.5, 1.0]), np.array([0.01, 0.0]),
                         runs=100, master_seed=7)
    path = tmp_path / "spread.csv"
    storage.write_spread(est, path, config_hash="h1", timestamps=False)
    back, stored_hash = storage.read_spread(path)
    assert stored_hash == "h1"
    assert back.runs == 100
    assert back.master_seed == 7
    np.testing.assert_array_equal(back.values, est.values)
    np.testing.assert_array_equal(back.std_error, est.std_error)


def test_evaluation_roundtrip_with_na(tmp_path):
    report = EvaluationReport("ds", 120, 0.05, {
        "c_os": MeasureMetrics(0.9, 1.1, 0.2, 1.0, 0.99),
        "wks": MeasureMetrics(None, None, None, None, 0.0),
    })
    path = tmp_path / "eval.csv"
    storage.write_evaluation(report, path, config_hash="h2", timestamps=False)
    back, stored_hash = storage.read_evaluation(path)
    assert stored_hash == "h2"
    assert back.dataset == "ds"
    assert back.node_count == 120
    assert back.metrics["wks"].tau is None
    assert back.metrics["c_os"].tau_norm == 1.1


def test_scatter_rows(tmp_path):
    report = EvaluationReport("ds", 120, 0.05, {
        "c_os": MeasureMetrics(0.9, 1.1, 0.2, 0.8, 0.99),
    })
    path = tmp_path / "scatter.csv"
    storage.write_scatter([report], path, timestamps=False)
    text = path.read_text()
    assert "ds,0.05,c_os,tau_norm,1.1" in text
    assert "ds,0.05,c_os,epsilon_norm,0.8" in text


def test_timestamps_toggle(net, tmp_path):
    a = tmp_path / "a.edges"
    b = tmp_path / "b.edges"
    storage.write_edge_list(net, a, timestamps=True)
    storage.write_edge_list(net, b, timestamps=False)
    assert "generated=" in a.read_text()
    assert "generated=" not in b.read_text()


def test_fingerprint_sensitivity(net, monkeypatch):
    other = Network.from_edges(3, [(0, 1, 0.5), (1, 2, 0.25), (2, 0, 0.9)])
    assert graph_fingerprint(net) != graph_fingerprint(other)
    assert simulation_hash(net, 100, 1) != simulation_hash(net, 100, 2)
    assert simulation_hash(net, 100, 1) != simulation_hash(net, 200, 1)
    assert simulation_hash(net, 100, 1) == simulation_hash(net, 100, 1)
    before = simulation_hash(net, 100, 1)
    monkeypatch.setattr(propagation, "ENGINE", propagation.ENGINE + "-next")
    assert simulation_hash(net, 100, 1) != before


def test_config_json_roundtrip():
    # config.json holds every field, so the run's configuration can be rebuilt from it
    cfg = RunConfig(runs=500, master_seed=9, measures=("c_os", "sk3"))
    payload = json.loads(cfg.to_json())
    assert RunConfig(**{**payload, "measures": tuple(payload["measures"])}) == cfg


def _spread_file(tmp_path):
    est = SpreadEstimate(np.array([2.5, 1.0, 1.5]), np.array([0.01, 0.0, 0.02]),
                         runs=100, master_seed=7)
    path = tmp_path / "spread.csv"
    storage.write_spread(est, path, config_hash="h1", timestamps=False)
    return path


@pytest.mark.parametrize("old, new", [
    ("1,1.0,", "1,one,"),
    ("2,1.5,0.02,100,7", "2,1.5,0.02,100"),
    ("2,1.5,", "3,1.5,"),
    ("2,1.5,0.02,100,", "2,1.5,0.02,101,"),
    ("node,expected_spread", "node,spread"),
    ("2,1.5,0.02,100,7", "2,1.5,0.02,100,7,0"),
    (",100,7\n", ",100,7,0\n"),
], ids=["non_numeric", "missing_cell", "node_gap", "runs_vary", "header", "extra_cell",
        "extra_cell_every_row"])
def test_damaged_spread_is_parse_error(tmp_path, old, new):
    path = _spread_file(tmp_path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    with pytest.raises(ParseError, match=re.escape(str(path))):
        storage.read_spread(path)


def _scores_file(tmp_path):
    path = tmp_path / "scores.csv"
    storage.write_scores(ScoreVector("c_os", np.array([0.5, 1.25, 0.0])), path, "h1",
                         timestamps=False)
    return path


def _evaluation_file(tmp_path):
    report = EvaluationReport("ds", 120, 0.05, {
        "c_os": MeasureMetrics(0.9, 1.1, 0.2, 1.0, 0.99),
        "sk3": MeasureMetrics(0.8, 1.0, 0.3, 1.5, 0.97),
        "wks": MeasureMetrics(None, None, None, None, 0.0),
    })
    path = tmp_path / "eval.csv"
    storage.write_evaluation(report, path, "h1", timestamps=False)
    return path


# each writes a three-row table
_TABLES = {"scores": (_scores_file, storage.read_scores),
           "spread": (_spread_file, storage.read_spread),
           "evaluation": (_evaluation_file, storage.read_evaluation)}


def _plain(table):
    """A reader's result as comparable Python values."""
    content, stored_hash = table
    return stored_hash, {key: value.tolist() if isinstance(value, np.ndarray) else value
                         for key, value in vars(content).items()}


@pytest.mark.parametrize("rows", [slice(-2, -1), slice(-3, None)],
                         ids=["one_row", "every_row"])
@pytest.mark.parametrize("kind", ["scores", "evaluation"])
def test_extra_cell_is_parse_error(tmp_path, kind, rows):
    write, read = _TABLES[kind]
    path = write(tmp_path)
    lines = path.read_text().splitlines()
    lines[rows] = [line + ",0" for line in lines[rows]]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(str(path))):
        read(path)


@pytest.mark.parametrize("body", ["", "# no rows\n\n"], ids=["empty", "only_comments"])
@pytest.mark.parametrize("kind", _TABLES)
def test_table_without_rows(tmp_path, kind, body):
    write, read = _TABLES[kind]
    path = write(tmp_path)
    head = path.read_text().splitlines()[:-3]  # the comments and the header
    path.write_text("\n".join(head) + "\n" + body)
    if kind == "spread":
        with pytest.raises(DataError, match="holds no rows"):
            read(path)
    else:
        content, _ = read(path)
        assert len(content.values if kind == "scores" else content.metrics) == 0


@pytest.mark.parametrize("kind", _TABLES)
def test_comment_and_blank_lines_between_rows_are_skipped(tmp_path, kind):
    write, read = _TABLES[kind]
    path = write(tmp_path)
    expected = _plain(read(path))
    lines = path.read_text().splitlines()
    lines[-2:-2] = ["# between rows", ""]
    lines[-1:-1] = ["   ", "  # indented"]
    path.write_text("\n".join(lines) + "\n")
    assert _plain(read(path)) == expected


def test_spread_row_count_checked_against_graph(tmp_path):
    path = _spread_file(tmp_path)
    storage.read_spread(path, 3)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(DataError, match="2 rows for 3 nodes"):
        storage.read_spread(path, 3)


def test_non_numeric_score_and_metric_are_parse_errors(tmp_path):
    scores = tmp_path / "scores.csv"
    storage.write_scores(ScoreVector("c_os", np.array([0.5, 1.25])), scores, "h",
                         timestamps=False)
    scores.write_text(scores.read_text().replace("1.25", "1.2.5"))
    with pytest.raises(ParseError, match=re.escape(str(scores))):
        storage.read_scores(scores)
    report = EvaluationReport("ds", 120, 0.05,
                              {"c_os": MeasureMetrics(0.9, 1.1, 0.2, 1.0, 0.99)})
    evaluation = tmp_path / "eval.csv"
    storage.write_evaluation(report, evaluation, "h", timestamps=False)
    evaluation.write_text(evaluation.read_text().replace("0.99", "high"))
    with pytest.raises(ParseError, match=re.escape(str(evaluation))):
        storage.read_evaluation(evaluation)


class _FailsMidway:
    """A text file whose first write stores half its text, then reports a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def write(self, text):
        self.handle.write(text[:len(text) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = _spread_file(tmp_path)
    before = path.read_bytes()
    real_open = io.open

    def open_failing(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        return _FailsMidway(handle) if "w" in mode else handle

    monkeypatch.setattr(io, "open", open_failing)
    monkeypatch.setattr(builtins, "open", open_failing)
    other = SpreadEstimate(np.array([9.0, 8.0, 7.0]), np.array([0.5, 0.5, 0.5]),
                           runs=200, master_seed=8)
    with pytest.raises(OSError):
        storage.write_spread(other, path, config_hash="h2", timestamps=False)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spread.csv"]


def test_successful_write_unlinks_nothing(net, tmp_path, monkeypatch):
    unlinked = []
    monkeypatch.setattr(os, "unlink", lambda path, *args, **kwargs: unlinked.append(path))
    storage.write_edge_list(net, tmp_path / "g.edges", timestamps=False)
    storage.write_spread(SpreadEstimate(np.ones(3), np.zeros(3), runs=2, master_seed=1),
                         tmp_path / "spread.csv", config_hash="h", timestamps=False)
    monkeypatch.undo()
    assert unlinked == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.edges", "spread.csv"]


def test_combined_report_is_not_an_evaluation(tmp_path):
    metrics = {"c_os": MeasureMetrics(0.9, 1.1, 0.2, 1.0, 0.99)}
    reports = [EvaluationReport(name, 120, 0.05, metrics) for name in ("d1", "d2")]
    path = tmp_path / "report.csv"
    storage.write_combined_report(reports[:1], reports[1], path, timestamps=False)
    with pytest.raises(DataError, match="mixes datasets"):
        storage.read_evaluation(path)
