"""File formats: canonical edge lists, id maps, score/spread/report CSVs.

Every artifact embeds the config hash it was produced under as a comment
line, so downstream commands can refuse mixed inputs.  Timestamp comments
are optional to allow byte-identical reruns.

Every file is written to a temporary sibling and renamed over its target,
so a write that fails midway leaves the previous file as it was.  Each
table format is a row dtype whose field names are the CSV's header; one
reader, :func:`_read_table`, parses every table with ``np.loadtxt``
against its dtype.  The readers raise :class:`ParseError` (or
:class:`DataError` for a table that parses but does not fit) instead of
passing a damaged file on.  A canonical graph is read back with the ids it
was written with; it is never repaired.
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
_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
_SCORE_ROW = np.dtype([("node", np.int64), ("score", np.float64)])
_SPREAD_ROW = np.dtype([("node", np.int64), ("expected_spread", np.float64),
                        ("std_error", np.float64), ("runs", np.int64),
                        ("master_seed", np.int64)])
# text cells stay Python strings: numpy's str dtype parses slowly, its
# fixed-width U dtypes truncate long dataset names
_REPORT_ROW = np.dtype([(name, object) for name in (
    "dataset", "measure", "tau", "tau_norm", "epsilon", "epsilon_norm", "monotonicity")])
_SCATTER_HEADER = "dataset,density,measure,metric,value"


def _header(row: np.dtype) -> str:
    return ",".join(row.names)


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
    """Report a cell or row that does not fit, or a file that is no text, as a ParseError."""
    try:
        yield
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise ParseError(f"{path}: {exc}") from None


def _read_table(path: str | Path, row: np.dtype,
                header: bool = True) -> tuple[dict[str, str], np.ndarray]:
    """Leading ``# key=value`` comments and the table's rows as ``row`` records.

    With ``header``, the first line that is neither blank nor a comment must
    be the header and the cells under it are comma-separated; without, every
    such line is a row of whitespace-separated cells.  Blank lines and later
    comment lines are skipped.  Every row must have one cell per field of
    ``row``, each parsing as that field's type.
    """
    with _parsing(path):
        text = Path(path).read_text(encoding="utf-8")
    lines = [*filter(None, map(str.strip, text.splitlines()))]
    comments: dict[str, str] = {}
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        key, sep, value = lines[start][1:].partition("=")
        if sep:  # a comment without ``=`` carries nothing
            comments[key.strip()] = value.strip()
        start += 1
    if header:
        got = lines[start] if start < len(lines) else None
        if got != _header(row):
            raise ParseError(f"{path}: expected header {_header(row)!r}, got {got!r}")
        start += 1
    body = lines[start:]
    if all(line.startswith("#") for line in body):  # np.loadtxt would warn of no data
        return comments, np.zeros(0, row)
    with _parsing(path):
        rows = np.loadtxt(body, dtype=row, comments="#", delimiter="," if header else None,
                          ndmin=1)
    return comments, rows


def _check_node_ids(path: str | Path, rows: np.ndarray) -> None:
    """Reject a table whose ``node`` column does not count 0, 1, 2, ..."""
    if not np.array_equal(rows["node"], np.arange(rows.size)):
        raise ParseError(f"non-contiguous node ids in {path}")


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
    comments, rows = _read_table(path, _EDGE_ROW, header=False)
    src, dst, weight = rows["u"], rows["v"], rows["w"]
    with _parsing(path):
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
                 _header(_SCORE_ROW),
                 (f"{node},{_fmt(value)}" for node, value in enumerate(scores.values.tolist())),
                 timestamps)


def read_scores(path: str | Path) -> tuple[ScoreVector, str]:
    comments, rows = _read_table(path, _SCORE_ROW)
    _check_node_ids(path, rows)
    measure = comments.get("measure", Path(path).stem)
    return ScoreVector(measure, rows["score"]), comments.get("config_hash", "")


def write_spread(spread: SpreadEstimate, path: str | Path, config_hash: str,
                 timestamps: bool = True) -> None:
    _write_table(path, {"config_hash": config_hash}, _header(_SPREAD_ROW),
                 (f"{node},{_fmt(spread.values[node])},{_fmt(spread.std_error[node])},"
                  f"{spread.runs},{spread.master_seed}" for node in range(spread.values.size)),
                 timestamps)


def read_spread(path: str | Path, node_count: int | None = None) -> tuple[SpreadEstimate, str]:
    """A spread table and its config hash; ``node_count`` is the graph's, when known."""
    comments, rows = _read_table(path, _SPREAD_ROW)
    if not rows.size:
        raise DataError(f"spread file {path} holds no rows")
    if node_count is not None and rows.size != node_count:
        raise DataError(f"spread file {path} does not match the graph: "
                        f"{rows.size} rows for {node_count} nodes")
    _check_node_ids(path, rows)
    simulation = rows[["runs", "master_seed"]]
    if np.any(simulation != simulation[0]):
        raise ParseError(f"runs or master_seed differ between the rows of {path}")
    estimate = SpreadEstimate(rows["expected_spread"], rows["std_error"],
                              int(rows["runs"][0]), int(rows["master_seed"][0]))
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
    _write_table(path, comments, _header(_REPORT_ROW), _report_rows(report), timestamps)


def _report_rows(report: EvaluationReport) -> list[str]:
    rows = []
    for measure_id, m in report.metrics.items():
        rows.append(",".join([report.dataset, measure_id,
                              _metric_cell(m.tau), _metric_cell(m.tau_norm),
                              _metric_cell(m.epsilon), _metric_cell(m.epsilon_norm),
                              _metric_cell(m.monotonicity)]))
    return rows


def read_evaluation(path: str | Path) -> tuple[EvaluationReport, str]:
    comments, rows = _read_table(path, _REPORT_ROW)
    datasets = set(rows["dataset"].tolist())
    if len(datasets) > 1:
        raise DataError(f"evaluation file {path} mixes datasets {sorted(datasets)}")
    with _parsing(path):
        metrics = {measure: MeasureMetrics(*(None if c == NA else float(c) for c in cells))
                   for _, measure, *cells in rows.tolist()}
        node_count = int(comments.get("node_count", "0"))
        density = float(comments.get("density", "0") or 0.0)
    report = EvaluationReport(datasets.pop() if datasets else "", node_count, density, metrics)
    return report, comments.get("config_hash", "")


def write_combined_report(reports: list[EvaluationReport], aggregate_report: EvaluationReport,
                          path: str | Path, timestamps: bool = True) -> None:
    rows = [row for report in reports for row in _report_rows(report)]
    _write_table(path, {}, _header(_REPORT_ROW), rows + _report_rows(aggregate_report), timestamps)


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
