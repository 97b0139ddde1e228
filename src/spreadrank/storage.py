"""File formats: canonical edge lists, id maps, score/spread/report CSVs.

Every artifact embeds the config hash it was produced under as a comment
line, so downstream commands can refuse mixed inputs.  Timestamp comments
are optional to allow byte-identical reruns.

Every file is written to a temporary sibling and renamed over its target,
so a write that fails midway leaves the previous file as it was.  The
readers check each table's header, cell count, numbers and node ids and
raise :class:`ParseError` (or :class:`DataError` for a table that parses
but does not fit) instead of passing a damaged file on.  A canonical graph
is read back with the ids it was written with; it is never repaired.
"""
from __future__ import annotations

import csv
import datetime as _dt
import io
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

import numpy as np

from .config import RunConfig
from .errors import DataError, ParseError, ValidationError
# load_edge_list is not called here; perfbench's tracer rebinds it in this module
from .graph import Network, load_edge_list  # noqa: F401
from .propagation import SpreadEstimate
from .ranking import EvaluationReport, MeasureMetrics
from .scores import ScoreVector

NA = "NA"
_SCORES_HEADER = "node,score"
_SPREAD_HEADER = "node,expected_spread,std_error,runs,master_seed"
_REPORT_HEADER = "dataset,measure,tau,tau_norm,epsilon,epsilon_norm,monotonicity"
_SCATTER_HEADER = "dataset,density,measure,metric,value"
_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: str | Path, text: str) -> None:
    """Replace ``path`` by ``text`` through a temporary file and a rename."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_table(path: str | Path, comments: dict[str, str], header: str | None,
                 rows: Iterable[str], timestamps: bool) -> None:
    """``# key=value`` comment lines, the header line if any, then the rows."""
    lines = [f"# {key}={value}" for key, value in comments.items()]
    if timestamps:
        lines.append(f"# generated={_dt.datetime.now().isoformat(timespec='seconds')}")
    if header is not None:
        lines.append(header)
    lines.extend(rows)
    _write_text(path, "\n".join(lines) + "\n")


@contextmanager
def _parsing(path: str | Path):
    """Report a cell that is no number, or a file that is no text, as a ParseError."""
    try:
        yield
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise ParseError(f"{path}: {exc}") from None


def _take_comment(line: str, comments: dict[str, str]) -> None:
    """Record a ``# key=value`` line; a comment without ``=`` carries nothing."""
    key, sep, value = line[1:].partition("=")
    if sep:
        comments[key.strip()] = value.strip()


def _read_table(path: str | Path, header: str) -> tuple[dict[str, str], list[list[str]]]:
    """Leading ``# key=value`` comments and the comma-split rows under ``header``.

    Blank lines and later comment lines are skipped.  The first other line
    must be ``header`` and every row must have as many cells as it.
    """
    comments: dict[str, str] = {}
    rows: list[list[str]] = []
    width = header.count(",") + 1
    in_body = False
    with _parsing(path), Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if line.startswith("#"):
                if not in_body:
                    _take_comment(line, comments)
            elif not line:
                continue
            elif not in_body:
                if line != header:
                    raise ParseError(f"{path}: expected header {header!r}, got {line!r}",
                                     number)
                in_body = True
            else:
                cells = line.split(",")
                if len(cells) != width:
                    raise ParseError(f"{path}: expected {width} cells, got {line!r}", number)
                rows.append(cells)
    if not in_body:
        raise ParseError(f"{path}: missing header {header!r}")
    return comments, rows


def _node_rows(path: str | Path, rows: list[list[str]]) -> list[list[str]]:
    """The cells after the node id of rows whose ids count 0, 1, 2, ..."""
    if [int(cells[0]) for cells in rows] != list(range(len(rows))):
        raise ParseError(f"non-contiguous node ids in {path}")
    return [cells[1:] for cells in rows]


def write_edge_list(net: Network, path: str | Path, comments: dict[str, str] | None = None,
                    timestamps: bool = True) -> None:
    """Canonical whitespace edge list ``u v w`` over dense ids.

    A ``# nodes=N`` comment follows ``comments``, so that a node without
    edges keeps its id when the file is read back.
    """
    _write_table(path, {**(comments or {}), "nodes": str(net.node_count)}, None,
                 (f"{u} {v} {_fmt(w)}" for u, v, w in net.edges()), timestamps)


def read_canonical_network(path: str | Path) -> Network:
    """A canonical (directed, weighted) edge list written by :func:`write_edge_list`.

    Ids are taken as written.  The node count is the ``# nodes=`` comment's,
    or the largest id plus one in a file written before that comment was
    added.  A row that is not ``u v w`` with integer ids in range and a
    finite positive weight, a self-loop or a repeated ``(u, v)`` pair raises
    :class:`ParseError`: a damaged graph is rejected, never repaired.
    """
    with _parsing(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        comments: dict[str, str] = {}
        body = len(lines)
        for index, line in enumerate(lines):
            line = line.strip()
            if line.startswith("#"):
                _take_comment(line, comments)
            elif line:
                body = index
                break
        rows = (np.loadtxt(lines[body:], dtype=_EDGE_ROW, comments="#", ndmin=1)
                if body < len(lines) else np.zeros(0, _EDGE_ROW))
        src, dst, weight = rows["u"], rows["v"], rows["w"]
        if "nodes" in comments:
            node_count = int(comments["nodes"])
        else:
            node_count = int(max(src.max(), dst.max())) + 1 if rows.size else 0
    if not np.all(np.isfinite(weight)):
        raise ParseError(f"{path}: edge weights must be finite")
    try:
        return Network(node_count, src, dst, weight, directed=True)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_id_map(net: Network, path: str | Path) -> None:
    """CSV mapping original labels to dense ids."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["original_label", "dense_id"])
    labels = net.labels or tuple(str(i) for i in range(net.node_count))
    for dense_id, label in enumerate(labels):
        writer.writerow([label, dense_id])
    _write_text(path, buffer.getvalue())


def write_config(cfg: RunConfig, path: str | Path) -> None:
    """The run configuration as JSON, for provenance."""
    _write_text(path, cfg.to_json())


def write_scores(scores: ScoreVector, path: str | Path, config_hash: str,
                 timestamps: bool = True) -> None:
    _write_table(path, {"measure": scores.measure, "config_hash": config_hash},
                 _SCORES_HEADER,
                 (f"{node},{_fmt(value)}" for node, value in enumerate(scores.values.tolist())),
                 timestamps)


def read_scores(path: str | Path) -> tuple[ScoreVector, str]:
    comments, rows = _read_table(path, _SCORES_HEADER)
    with _parsing(path):
        values = [float(value) for value, in _node_rows(path, rows)]
    measure = comments.get("measure", Path(path).stem)
    return ScoreVector(measure, np.array(values)), comments.get("config_hash", "")


def write_spread(spread: SpreadEstimate, path: str | Path, config_hash: str,
                 timestamps: bool = True) -> None:
    _write_table(path, {"config_hash": config_hash}, _SPREAD_HEADER,
                 (f"{node},{_fmt(spread.values[node])},{_fmt(spread.std_error[node])},"
                  f"{spread.runs},{spread.master_seed}" for node in range(spread.values.size)),
                 timestamps)


def read_spread(path: str | Path, node_count: int | None = None) -> tuple[SpreadEstimate, str]:
    """A spread table and its config hash; ``node_count`` is the graph's, when known."""
    comments, rows = _read_table(path, _SPREAD_HEADER)
    if not rows:
        raise DataError(f"spread file {path} holds no rows")
    if node_count is not None and len(rows) != node_count:
        raise DataError(f"spread file {path} does not match the graph: "
                        f"{len(rows)} rows for {node_count} nodes")
    with _parsing(path):
        cells = _node_rows(path, rows)
        values = np.array([float(c[0]) for c in cells])
        errors = np.array([float(c[1]) for c in cells])
        runs, master_seed = int(cells[0][2]), int(cells[0][3])
    if len({(runs, seed) for _, _, runs, seed in cells}) != 1:
        raise ParseError(f"runs or master_seed differ between the rows of {path}")
    estimate = SpreadEstimate(values, errors, runs, master_seed)
    return estimate, comments.get("config_hash", "")


def _metric_cell(value: float | None) -> str:
    return NA if value is None else _fmt(value)


def write_evaluation(report: EvaluationReport, path: str | Path, config_hash: str,
                     timestamps: bool = True) -> None:
    comments = {
        "config_hash": config_hash,
        "node_count": str(report.node_count),
        "density": _fmt(report.density),
    }
    _write_table(path, comments, _REPORT_HEADER, _report_rows(report), timestamps)


def _report_rows(report: EvaluationReport) -> list[str]:
    rows = []
    for measure_id, m in report.metrics.items():
        rows.append(",".join([report.dataset, measure_id,
                              _metric_cell(m.tau), _metric_cell(m.tau_norm),
                              _metric_cell(m.epsilon), _metric_cell(m.epsilon_norm),
                              _metric_cell(m.monotonicity)]))
    return rows


def read_evaluation(path: str | Path) -> tuple[EvaluationReport, str]:
    comments, rows = _read_table(path, _REPORT_HEADER)
    datasets = {cells[0] for cells in rows}
    if len(datasets) > 1:
        raise DataError(f"evaluation file {path} mixes datasets {sorted(datasets)}")
    with _parsing(path):
        metrics = {cells[1]: MeasureMetrics(*(None if c == NA else float(c) for c in cells[2:]))
                   for cells in rows}
        node_count = int(comments.get("node_count", "0"))
        density = float(comments.get("density", "0") or 0.0)
    report = EvaluationReport(datasets.pop() if datasets else "", node_count, density, metrics)
    return report, comments.get("config_hash", "")


def write_combined_report(reports: list[EvaluationReport], aggregate_report: EvaluationReport,
                          path: str | Path, timestamps: bool = True) -> None:
    rows = [row for report in reports for row in _report_rows(report)]
    _write_table(path, {}, _REPORT_HEADER, rows + _report_rows(aggregate_report), timestamps)


def write_scatter(reports: list[EvaluationReport], path: str | Path,
                  timestamps: bool = True) -> None:
    """Rows for density-versus-metric plots across datasets."""
    rows = []
    for report in sorted(reports, key=lambda r: (r.density, r.dataset)):
        for measure_id, m in report.metrics.items():
            for metric_name, value in (("tau_norm", m.tau_norm),
                                       ("epsilon_norm", m.epsilon_norm)):
                if value is not None:
                    rows.append(f"{report.dataset},{_fmt(report.density)},"
                                f"{measure_id},{metric_name},{_fmt(value)}")
    _write_table(path, {}, _SCATTER_HEADER, rows, timestamps)
