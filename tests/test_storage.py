import builtins
import csv
import dataclasses
import errno
import io
import os
import re

import numpy as np
import pytest

from spreadrank.config import RunConfig
from spreadrank.errors import DataError, ParseError
from spreadrank.graph import Network
from spreadrank.propagation import SpreadEstimate
from spreadrank.ranking import EvaluationReport, MeasureMetrics
from spreadrank import propagation, storage
from spreadrank.storage import simulation_hash


@pytest.fixture
def net():
    return Network.from_edges(3, [(0, 1, 0.5), (1, 2, 0.25), (2, 0, 1.0)])


def test_edge_list_roundtrip(net, tmp_path):
    path = tmp_path / "g.edges"
    storage.write_edge_list(net, path, comments={"dataset": "g"})
    back = storage.read_canonical_network(path)
    assert np.array_equal(back.src, net.src)
    assert np.array_equal(back.weight, net.weight)
    assert path.read_text().startswith("# dataset=g\n")


def test_node_count_survives_nodes_without_edges(tmp_path):
    path = tmp_path / "g.edges"
    for net in (Network.from_edges(5, [(1, 2, 0.5), (2, 3, 1.0)]), Network.from_edges(2, [])):
        storage.write_edge_list(net, path, comments={"dataset": "g"})
        assert f"\n# nodes={net.node_count}\n" in path.read_text()
        back = storage.read_canonical_network(path)
        assert back.node_count == net.node_count
        assert [back.src.tolist(), back.dst.tolist(), back.weight.tolist()] == \
            [net.src.tolist(), net.dst.tolist(), net.weight.tolist()]


def test_canonical_file_without_node_count_is_parse_error(tmp_path):
    # the node count is never guessed from the largest id
    path = tmp_path / "old.edges"
    path.write_text("# dataset=old\n# graph_fingerprint=0\n0 3 0.5\n\n2 1 0.25\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}: no '# nodes=' line")):
        storage.read_canonical_network(path)


def test_id_map(net, tmp_path):
    path = tmp_path / "g.idmap.csv"
    storage.write_id_map(net, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "original_label,dense_id"
    assert len(lines) == 4


def test_id_map_uses_lf_line_endings(tmp_path):
    labeled = Network(3, np.array([0, 1]), np.array([1, 2]), np.array([1.0, 1.0]),
                      labels=("a", "b,c", 'd"e'))
    path = tmp_path / "g.idmap.csv"
    storage.write_id_map(labeled, path)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data == b'original_label,dense_id\na,0\n"b,c",1\n"d""e",2\n'


@pytest.mark.parametrize("label", ["a,b", 'q"x', '"c"', ",", "", "x\ny", " x ", "Zoë"])
def test_id_map_quotes_a_label_as_csv_writer_does(tmp_path, label):
    labeled = Network(2, np.array([0]), np.array([1]), np.array([1.0]), labels=(label, "z"))
    path = tmp_path / "g.idmap.csv"
    storage.write_id_map(labeled, path)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(
        [["original_label", "dense_id"], [label, 0], ["z", 1]])
    assert path.read_bytes() == buffer.getvalue().encode()


def test_scores_roundtrip(tmp_path):
    scores = np.array([0.5, 1.25, 0.0])
    path = tmp_path / "scores.csv"
    storage.write_scores("c_os", scores, path)
    assert path.read_text().splitlines()[:2] == ["# measure=c_os", "node,score"]
    measure, back = storage.read_scores(path)
    assert measure == "c_os"
    np.testing.assert_array_equal(back, scores)


def test_spread_roundtrip(tmp_path):
    est = SpreadEstimate(np.array([2.5, 1.0]), np.array([0.01, 0.0]),
                         runs=100, master_seed=7)
    path = tmp_path / "spread.csv"
    storage.write_spread(est, path, config_hash="h1")
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
    storage.write_evaluation(report, path)
    assert path.read_text().splitlines()[:2] == ["# node_count=120", "# density=0.05"]
    back = storage.read_evaluation(path)
    assert back.dataset == "ds"
    assert (back.node_count, back.density) == (120, 0.05)
    assert back.metrics["wks"].tau is None
    assert back.metrics["c_os"].tau_norm == 1.1


def test_scatter_rows(tmp_path):
    report = EvaluationReport("ds", 120, 0.05, {
        "c_os": MeasureMetrics(0.9, 1.1, 0.2, 0.8, 0.99),
    })
    path = tmp_path / "scatter.csv"
    storage.write_scatter([report], path)
    text = path.read_text()
    assert "ds,0.05,c_os,tau_norm,1.1" in text
    assert "ds,0.05,c_os,epsilon_norm,0.8" in text


def test_timestamps_toggle(net, tmp_path):
    # the time goes into the run file only; the table is the same either way
    graph = tmp_path / "g.edges"
    storage.write_edge_list(net, graph, comments={})
    assert "generated" not in graph.read_text()
    runs = {}
    for timestamps in (True, False):
        run_file = tmp_path / f"{timestamps}.run.json"
        storage.write_run(run_file, {"dataset": "g"}, {graph: storage.sha256_of(graph)},
                          timestamps=timestamps)
        runs[timestamps] = storage.current_run(run_file, {"dataset": "g"}, [graph])
    stamp = runs[True].pop("generated")
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d", stamp)
    assert runs[True] == runs[False] == {"dataset": "g", "sha256": {
        "g.edges": storage.sha256_of(graph)}}


def test_simulation_hash_sensitivity(monkeypatch):
    graph, other = "ab" * 32, "ab" * 31 + "ac"
    before = simulation_hash(graph, 100, 1)
    assert before == simulation_hash(graph, 100, 1)
    assert len(before) == 16
    assert before != simulation_hash(other, 100, 1)
    assert before != simulation_hash(graph, 100, 2)
    assert before != simulation_hash(graph, 200, 1)
    monkeypatch.setattr(propagation, "ENGINE", propagation.ENGINE + "-next")
    assert simulation_hash(graph, 100, 1) != before


def test_config_json_roundtrip(tmp_path):
    # a sealed run file of every field rebuilds the run's configuration
    cfg = RunConfig(runs=500, master_seed=9, measures=("c_os", "sk3"))
    output = tmp_path / "d.evaluation.csv"
    output.write_text("x\n")
    storage.write_run(storage.run_path(output),
                      dataclasses.asdict(cfg),
                      {output: storage.sha256_of(output)}, timestamps=False)
    payload = storage.current_run(tmp_path / "d.evaluation.run.json", {}, [output])
    assert payload.pop("sha256") == {output.name: storage.sha256_of(output)}
    assert RunConfig(**{**payload, "measures": tuple(payload["measures"])}) == cfg


def test_current_run_key_survives_json(tmp_path):
    # a tuple setting is stored as a JSON list and must still match itself
    output = tmp_path / "d.evaluation.csv"
    output.write_text("x\n")
    run_file = storage.run_path(output)
    key = {"measures": ("c_os", "sk3"), "katz_alpha": 0.1, "gravity_radius": 3}
    storage.write_run(run_file, key, {output: storage.sha256_of(output)}, timestamps=False)
    assert storage.current_run(run_file, key, [output]) == {
        "measures": ["c_os", "sk3"], "katz_alpha": 0.1, "gravity_radius": 3,
        "sha256": {output.name: storage.sha256_of(output)}}
    assert storage.current_run(run_file, {**key, "measures": ("c_os",)}, [output]) is None
    assert storage.current_run(run_file, {**key, "katz_alpha": 0.2}, [output]) is None


def test_scores_format_each_value_as_its_own_repr(tmp_path):
    values = [-0.0, 0.0, 1 / 3, 1 / 3, -0.0, 2.5, 0.0, 5e-324, 1 / 3, 1e300]
    path = tmp_path / "s.csv"
    storage.write_scores("m", np.array(values), path)
    assert path.read_text().splitlines()[2:] == \
        [f"{node},{value!r}" for node, value in enumerate(values)]


def _spread_file(tmp_path):
    est = SpreadEstimate(np.array([2.5, 1.0, 1.5]), np.array([0.01, 0.0, 0.02]),
                         runs=100, master_seed=7)
    path = tmp_path / "spread.csv"
    storage.write_spread(est, path, config_hash="h1")
    return path


@pytest.mark.parametrize("old, new", [
    ("1,1.0,", "1,one,"),
    ("2,1.5,0.02,100,7", "2,1.5,0.02,100"),
    ("2,1.5,", "3,1.5,"),
    ("2,1.5,0.02,100,", "2,1.5,0.02,101,"),
    ("node,expected_spread", "node,spread"),
    ("2,1.5,0.02,100,7", "2,1.5,0.02,100,7,0"),
    (",100,7\n", ",100,7,0\n"),
    ("# config_hash=h1\n", ""),
    ("2,1.5,", "#2,1.5,"),
], ids=["non_numeric", "missing_cell", "node_gap", "runs_vary", "header", "extra_cell",
        "extra_cell_every_row", "no_config_hash", "comment_row"])
def test_damaged_spread_is_parse_error(tmp_path, old, new):
    path = _spread_file(tmp_path)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    with pytest.raises(ParseError, match=re.escape(str(path))):
        storage.read_spread(path)


def _scores_file(tmp_path):
    path = tmp_path / "scores.csv"
    storage.write_scores("c_os", np.array([0.5, 1.25, 0.0]), path)
    return path


def _evaluation_file(tmp_path):
    report = EvaluationReport("ds", 120, 0.05, {
        "c_os": MeasureMetrics(0.9, 1.1, 0.2, 1.0, 0.99),
        "sk3": MeasureMetrics(0.8, 1.0, 0.3, 1.5, 0.97),
        "wks": MeasureMetrics(None, None, None, None, 0.0),
    })
    path = tmp_path / "eval.csv"
    storage.write_evaluation(report, path)
    return path


def _edges_file(tmp_path):
    path = tmp_path / "g.edges"
    storage.write_edge_list(Network.from_edges(3, [(0, 1, 0.5), (1, 2, 0.25), (2, 0, 1.0)]),
                            path, comments={})
    return path


# each writes a three-row table
_TABLES = {"scores": (_scores_file, storage.read_scores),
           "spread": (_spread_file, storage.read_spread),
           "evaluation": (_evaluation_file, storage.read_evaluation)}


# each table as its writer writes it, and the reader
_WRITTEN = {**_TABLES, "edges": (_edges_file, storage.read_canonical_network)}
# the ``# key=`` lines each writes, in order; its reader requires every one
_KEYS = {"scores": ("measure",), "spread": ("config_hash",),
         "evaluation": ("node_count", "density"), "edges": ("nodes",)}
# (kind, damage): each key line removed in turn, a line that is not ``# key=value``
# before the rows, a ``#``-led line among them, and a CSV table left without rows
_DAMAGES = [*((kind, f"no_{key}") for kind, keys in _KEYS.items() for key in keys),
            *((kind, "bare_comment") for kind in _WRITTEN),
            *((kind, "comment_row") for kind in _WRITTEN),
            *((kind, "no_rows") for kind in _TABLES)]


@pytest.mark.parametrize("kind, damage", _DAMAGES, ids=[f"{k}-{d}" for k, d in _DAMAGES])
def test_damaged_table_is_parse_error_naming_the_file(tmp_path, kind, damage):
    write, read = _WRITTEN[kind]
    path = write(tmp_path)
    lines = path.read_text().splitlines()
    keys = len(_KEYS[kind])
    # the writer's key lines, then the header or the first row
    assert [line.partition("=")[0] for line in lines[:keys]] == [f"# {k}" for k in _KEYS[kind]]
    assert not lines[keys].startswith("#")
    message = str(path)
    if damage.startswith("no_") and damage != "no_rows":
        key = damage[3:]
        lines.remove(next(line for line in lines if line.startswith(f"# {key}=")))
        message = f"{path}: no '# {key}=' line"
    elif damage == "bare_comment":
        lines.insert(keys, "# edited")
    elif damage == "comment_row":
        lines.insert(-1, "# edited")
    else:
        del lines[keys + 1:]  # the key lines and the header
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(message)):
        read(path)


def _plain(value):
    """A reader's result as comparable Python values."""
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    if isinstance(value, np.ndarray):
        return value.tolist()
    if hasattr(value, "__dict__"):
        return {key: _plain(item) for key, item in vars(value).items()}
    return value


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
    # every CSV table holds a row, and a ``#`` line under the header is one
    write, read = _TABLES[kind]
    path = write(tmp_path)
    head = path.read_text().splitlines()[:-3]  # the comments and the header
    path.write_text("\n".join(head) + "\n" + body)
    with pytest.raises(ParseError, match=re.escape(str(path))):
        read(path)


@pytest.mark.parametrize("kind", _TABLES)
def test_blank_lines_are_skipped_and_comment_lines_are_rows(tmp_path, kind):
    write, read = _TABLES[kind]
    path = write(tmp_path)
    expected = _plain(read(path))
    lines = path.read_text().splitlines()
    lines[-2:-2] = [""]
    lines[-1:-1] = ["   ", ""]
    path.write_text("\n".join(lines) + "\n")
    assert _plain(read(path)) == expected
    lines[-1:-1] = ["  # indented"]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=re.escape(str(path))):
        read(path)


def test_spread_row_count_checked_against_graph(tmp_path):
    path = _spread_file(tmp_path)
    storage.read_spread(path, 3)
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(DataError, match="2 rows for 3 nodes"):
        storage.read_spread(path, 3)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_score_is_parse_error(tmp_path, value):
    scores = tmp_path / "scores.csv"
    storage.write_scores("c_os", np.array([0.5, 1.25]), scores)
    scores.write_text(scores.read_text().replace("1.25", value))
    with pytest.raises(ParseError, match=re.escape(f"{scores}: non-finite score")):
        storage.read_scores(scores)


def test_non_numeric_score_and_metric_are_parse_errors(tmp_path):
    scores = tmp_path / "scores.csv"
    storage.write_scores("c_os", np.array([0.5, 1.25]), scores)
    scores.write_text(scores.read_text().replace("1.25", "1.2.5"))
    with pytest.raises(ParseError, match=re.escape(str(scores))):
        storage.read_scores(scores)
    report = EvaluationReport("ds", 120, 0.05,
                              {"c_os": MeasureMetrics(0.9, 1.1, 0.2, 1.0, 0.99)})
    evaluation = tmp_path / "eval.csv"
    storage.write_evaluation(report, evaluation)
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
        storage.write_spread(other, path, config_hash="h2")
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spread.csv"]


def test_successful_write_unlinks_nothing(net, tmp_path, monkeypatch):
    unlinked = []
    monkeypatch.setattr(os, "unlink", lambda path, *args, **kwargs: unlinked.append(path))
    storage.write_edge_list(net, tmp_path / "g.edges", comments={})
    storage.write_spread(SpreadEstimate(np.ones(3), np.zeros(3), runs=2, master_seed=1),
                         tmp_path / "spread.csv", config_hash="h")
    monkeypatch.undo()
    assert unlinked == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.edges", "spread.csv"]


def test_combined_report_is_not_an_evaluation(tmp_path):
    metrics = {"c_os": MeasureMetrics(0.9, 1.1, 0.2, 1.0, 0.99)}
    reports = [EvaluationReport(name, 120, 0.05, metrics) for name in ("d1", "d2")]
    path = tmp_path / "report.csv"
    storage.write_combined_report(reports[:1], reports[1], path)
    with pytest.raises(ParseError, match=re.escape(f"{path}: no '# node_count=' line")):
        storage.read_evaluation(path)
    path.write_text("# node_count=120\n# density=0.05\n" + path.read_text())
    with pytest.raises(DataError, match="mixes datasets"):
        storage.read_evaluation(path)


def _spy_replace(monkeypatch, fail: bool):
    """Record every ``os.replace``; with ``fail``, make it raise instead."""
    calls = []
    real_replace = os.replace

    def replace(src, dst):
        calls.append(dst)
        if fail:
            raise AssertionError(f"os.replace({src}, {dst}) on an identical rewrite")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return calls


def test_identical_rewrite_leaves_the_file_untouched(tmp_path, monkeypatch):
    path = _spread_file(tmp_path)
    est, config_hash = storage.read_spread(path)
    before = path.stat()
    _spy_replace(monkeypatch, fail=True)
    digest = storage.write_spread(est, path, config_hash=config_hash)
    monkeypatch.undo()
    after = path.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
    assert digest == storage.sha256_of(path)  # of the bytes left in place
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spread.csv"]


@pytest.mark.parametrize("old", [lambda text: text + "\n", lambda text: text[:-2] + "X\n",
                                 None], ids=["longer_same_prefix", "same_size_one_byte",
                                             "missing"])
def test_rewrite_that_changes_bytes_replaces_the_file(tmp_path, monkeypatch, old):
    path = _spread_file(tmp_path)
    est, config_hash = storage.read_spread(path)
    want = path.read_text()
    if old is None:
        path.unlink()
    else:
        path.write_text(old(want))
    calls = _spy_replace(monkeypatch, fail=False)
    digest = storage.write_spread(est, path, config_hash=config_hash)
    monkeypatch.undo()
    assert calls == [path]
    assert path.read_text() == want
    assert digest == storage.sha256_of(path)  # of the bytes written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spread.csv"]
