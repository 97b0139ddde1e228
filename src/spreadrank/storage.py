"""File formats: raw and canonical edge lists, id maps, score/spread/report CSVs, run files.

A raw edge list, ingest's input, has one ``u v`` or ``u v w`` row per
edge: cells separated by any whitespace, node labels any strings, and
lines starting with ``#`` or ``%`` (KONECT's header) skipped, as is a
leading UTF-8 byte-order mark.  :func:`load_edge_list` reads it in one
pass of its own: its rows are ragged and carry string labels, which the
table reader below does not read.

A spread file embeds, as a comment line, the config hash of the
simulation it comes from (:func:`simulation_hash`), so that a spread file
simulated on another graph is refused.  No table holds the time it was
written, so a table's bytes depend only on what it was computed from.  A
run file records what a command read, when it ran (its ``generated``
field, unless left out), the SHA-256 of each output's bytes and that of
the record itself: :func:`current_run` takes the outputs as current only
while the run file is unedited, holds the same key, and every output
still hashes to its recorded digest.

Every file is written to a temporary sibling and renamed over its target,
so a write that fails midway leaves the previous file as it was.  A target
that already holds exactly the bytes to be written is left untouched (no
temporary file, no rename, same inode and mtime), so a warm rerun writes
no table.  Each table format is a row dtype whose field names are the
CSV's header, and the ``# key=`` lines it requires; one reader,
:func:`_read_table`, takes exactly what :func:`_write_table` writes.
The readers raise :class:`ParseError` (or :class:`DataError` for a table
that parses but does not fit) instead of passing a damaged file on, and
fill in no missing value.  A canonical graph is read back with the ids
it was written with; it is never repaired.
"""
from __future__ import annotations

import datetime as _dt
import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import DataError, ParseError, ValidationError
from . import propagation
from .graph import Network, dedup_keep_first
from .ranking import AGGREGATE, EvaluationReport, MeasureMetrics

NA = "NA"
COMMENT_PREFIXES = ("#", "%")
# ingest's output format: bump whenever the bytes ingest writes for an input could change,
# so that no earlier ingest's outputs are taken as current
INGEST = "ingest-2"
_EDGE_ROW = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])
_SCORE_ROW = np.dtype([("node", np.int64), ("score", np.float64)])
_SPREAD_ROW = np.dtype([("node", np.int64), ("expected_spread", np.float64),
                        ("std_error", np.float64), ("runs", np.int64),
                        ("master_seed", np.int64)])
# text cells stay Python strings: numpy's str dtype parses slowly, its
# fixed-width U dtypes truncate long dataset names
_REPORT_ROW = np.dtype([(name, object) for name in (
    "dataset", "measure", "tau", "tau_norm", "epsilon", "epsilon_norm", "monotonicity")])
_ID_MAP_ROW = np.dtype([("original_label", object), ("dense_id", np.int64)])
_SCATTER_ROW = np.dtype([("dataset", object), ("density", np.float64), ("measure", object),
                         ("metric", object), ("value", np.float64)])


def _header(row: np.dtype) -> str:
    return ",".join(row.names)


def _fmt(x: float) -> str:
    return repr(float(x))


def _holds(path: Path, data: bytes) -> bool:
    """Whether the file at ``path`` holds exactly ``data``: its size, then its bytes."""
    try:
        if path.stat().st_size != len(data):
            return False
        with open(path, "rb") as handle:
            return handle.read(len(data) + 1) == data
    except OSError:  # missing, a directory, unreadable: the write reports what is wrong
        return False


def _write_text(path: str | Path, text: str) -> str:
    """Replace ``path`` by ``text`` through a temporary file and a rename.

    A file that already holds ``text`` is left as it is.  Returns the hex
    SHA-256 of the file's bytes, which are then ``text``'s.
    """
    path = Path(path)
    data = text.encode("utf-8")
    digest = hashlib.sha256(data).hexdigest()
    if _holds(path, data):
        return digest
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return digest


def _write_table(path: str | Path, comments: dict[str, str], header: str | None,
                 rows: Iterable[str]) -> str:
    """``# key=value`` comment lines, the header line if any, then the rows; their SHA-256."""
    lines = [f"# {key}={value}" for key, value in comments.items()]
    if header is not None:
        lines.append(header)
    lines.extend(rows)
    return _write_text(path, "\n".join(lines) + "\n")


@contextmanager
def _parsing(path: str | Path):
    """Report a cell or row that does not fit, or a file that is no text, as a ParseError."""
    try:
        yield
    except ValueError as exc:  # UnicodeDecodeError is one too
        raise ParseError(f"{path}: {exc}") from None


def _read_table(path: str | Path, row: np.dtype, keys: tuple[str, ...],
                header: bool = True) -> tuple[dict[str, str], np.ndarray]:
    """The leading ``# key=value`` lines, which must hold ``keys``, and the ``row`` records.

    With ``header``, the header line follows the key lines, at least one row
    follows it, and cells are comma-separated; without, rows follow the key
    lines and cells are whitespace-separated.  Blank lines are skipped; every
    other line after those is a row, one starting with ``#`` too, and must
    have one cell per field of ``row``, each parsing as that field's type.
    """
    with _parsing(path):
        text = Path(path).read_text(encoding="utf-8")
    lines = [*filter(None, map(str.strip, text.splitlines()))]
    comments: dict[str, str] = {}
    start = 0
    while start < len(lines) and lines[start].startswith("#"):
        key, sep, value = lines[start][1:].partition("=")
        if not sep:
            raise ParseError(f"{path}: expected a '# key=value' line, got {lines[start]!r}")
        comments[key.strip()] = value.strip()
        start += 1
    for key in keys:
        if key not in comments:
            raise ParseError(f"{path}: no '# {key}=' line")
    if header:
        got = lines[start] if start < len(lines) else None
        if got != _header(row):
            raise ParseError(f"{path}: expected header {_header(row)!r}, got {got!r}")
        start += 1
        if start == len(lines):
            raise ParseError(f"{path}: no rows under the header")
    elif start == len(lines):  # a graph without edges; np.loadtxt would warn of no data
        return comments, np.zeros(0, row)
    with _parsing(path):
        rows = np.loadtxt(lines[start:], dtype=row, comments=None,
                          delimiter="," if header else None, ndmin=1)
    return comments, rows


def _check_node_ids(path: str | Path, rows: np.ndarray) -> None:
    """Reject a table whose ``node`` column does not count 0, 1, 2, ..."""
    if not np.array_equal(rows["node"], np.arange(rows.size)):
        raise ParseError(f"non-contiguous node ids in {path}")


def load_edge_list(path: str | Path, declared_weighted: bool) -> Network:
    """Parse a raw edge list into a :class:`Network`.

    Node labels are remapped to dense ids in first-seen order (the original
    labels are kept on the network).  A third cell is the weight only when
    ``declared_weighted``; every other edge weighs 1.  Self-loops are
    dropped and duplicate (source, target) pairs collapse onto the first
    occurrence; both are counted on the result.  A file that is not UTF-8
    text or a row that does not parse raises :class:`ParseError`, and a
    weight that is not finite and positive :class:`ValidationError`; each
    names the path and the first such line.
    """
    ids: dict[str, int] = {}
    src: list[int] = []
    dst: list[int] = []
    weight: list[float] = []
    with _parsing(path):
        text = Path(path).read_text(encoding="utf-8-sig")
    # newlines are already universal, so these are the lines a file iteration gives
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith(COMMENT_PREFIXES):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"{path}: line {lineno}: expected 'u v' or 'u v w', got {line!r}")
        src.append(ids.setdefault(parts[0], len(ids)))
        dst.append(ids.setdefault(parts[1], len(ids)))
        if declared_weighted and len(parts) == 3:
            try:
                w = float(parts[2])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad weight {parts[2]!r}") from None
            if not 0 < w < np.inf:
                raise ValidationError(
                    f"{path}: line {lineno}: weight {w} must be finite and positive")
        else:
            w = 1.0
        weight.append(w)
    s, d, w = np.array(src, np.int64), np.array(dst, np.int64), np.array(weight, np.float64)
    loop = s == d
    s, d, w, duplicates = dedup_keep_first(s[~loop], d[~loop], w[~loop], len(ids))
    return Network(len(ids), s, d, w, labels=tuple(ids),
                   self_loops_dropped=int(loop.sum()), duplicates_dropped=duplicates)


def write_edge_list(net: Network, path: str | Path, comments: dict[str, str]) -> str:
    """Canonical whitespace edge list ``u v w`` over dense ids.

    A ``# nodes=N`` comment follows ``comments``, so that a node without
    edges keeps its id when the file is read back.
    """
    return _write_table(path, {**comments, "nodes": str(net.node_count)}, None,
                        (f"{u} {v} {_fmt(w)}" for u, v, w in net.edges()))


def read_canonical_network(path: str | Path) -> Network:
    """A canonical (directed, weighted) edge list written by :func:`write_edge_list`.

    Ids are taken as written and the node count is the ``# nodes=`` line's.
    A missing ``# nodes=`` line, a row that is not ``u v w`` with integer
    ids in range and a finite positive weight, a self-loop or a repeated
    ``(u, v)`` pair raises :class:`ParseError`: a damaged graph is rejected,
    never repaired.
    """
    comments, rows = _read_table(path, _EDGE_ROW, ("nodes",), header=False)
    src, dst, weight = rows["u"], rows["v"], rows["w"]
    with _parsing(path):
        node_count = int(comments["nodes"])
    if not np.all(np.isfinite(weight)):
        raise ParseError(f"{path}: edge weights must be finite")
    try:
        return Network(node_count, src, dst, weight)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _quoted(cell: str) -> str:
    """``cell`` as ``csv.writer`` quotes it: when it holds ``,``, ``"`` or a line feed."""
    if any(c in cell for c in ',"\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_id_map(net: Network, path: str | Path) -> str:
    """CSV mapping original labels to dense ids."""
    labels = net.labels or tuple(str(i) for i in range(net.node_count))
    return _write_table(path, {}, _header(_ID_MAP_ROW),
                        (f"{_quoted(label)},{dense_id}"
                         for dense_id, label in enumerate(labels)))


def sha256_of(path: str | Path) -> str:
    """Hex SHA-256 of the file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_path(artifact: str | Path) -> Path:
    """The run file beside ``artifact``: its last suffix replaced by ``.run.json``."""
    return Path(artifact).with_suffix(".run.json")


def _seal(record: dict) -> str:
    """Hex SHA-256 of ``record`` as canonical JSON."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def write_run(path: str | Path, record: dict, outputs: dict[Path, str],
              timestamps: bool) -> None:
    """``record`` as JSON in the run file at ``path``, sealed.

    ``outputs`` maps each output, written before, to the SHA-256 of its
    bytes, as its writer returned it; the digests go under ``sha256``,
    keyed by file name.  With ``timestamps``, the local time to the second
    goes under ``generated``.  The record then gets the SHA-256 of its own
    fields under ``record_sha256``.
    """
    record = {**record, "sha256": {p.name: digest for p, digest in outputs.items()}}
    if timestamps:
        record["generated"] = _dt.datetime.now().isoformat(timespec="seconds")
    record["record_sha256"] = _seal(record)
    _write_text(path, json.dumps(record, sort_keys=True, indent=2) + "\n")


def current_run(path: str | Path, key: dict, outputs: Iterable[Path]) -> dict | None:
    """The run file at ``path`` if it and ``outputs`` are what :func:`write_run` wrote.

    The run file must be a JSON object whose fields still hash to its
    ``record_sha256``, holding every item of ``key`` and, under
    ``sha256``, the digest each output's bytes have now.  ``key``'s values
    are compared as JSON gives them back, so a tuple matches the list it
    was stored as.  A missing or unreadable run file or output, text that
    is not a JSON object, and any difference all give ``None``.
    """
    key = json.loads(json.dumps(key))
    try:
        record = json.loads(Path(path).read_bytes())
        if not isinstance(record, dict) or record.pop("record_sha256", None) != _seal(record):
            return None
        if any(name not in record or record[name] != value for name, value in key.items()):
            return None
        if record.get("sha256") != {p.name: sha256_of(p) for p in outputs}:
            return None
    except (OSError, ValueError):  # a JSON or UTF-8 decoding error is a ValueError
        return None
    return record


def write_scores(measure: str, scores: np.ndarray, path: str | Path) -> str:
    return _write_table(path, {"measure": measure}, _header(_SCORE_ROW),
                        (f"{node},{_fmt(value)}" for node, value in enumerate(scores.tolist())))


def read_scores(path: str | Path) -> tuple[str, np.ndarray]:
    """A scores table's measure id and its score per node, every one finite."""
    comments, rows = _read_table(path, _SCORE_ROW, ("measure",))
    _check_node_ids(path, rows)
    if not np.all(np.isfinite(rows["score"])):
        raise ParseError(f"{path}: non-finite score")
    return comments["measure"], rows["score"]


def simulation_hash(graph_sha256: str, runs: int, master_seed: int) -> str:
    """A spread file's config hash: the canonical graph file's SHA-256, runs, seed, engine."""
    text = f"graph_sha256={graph_sha256};runs={runs};master_seed={master_seed}"
    return hashlib.sha256(f"{text};engine={propagation.ENGINE}".encode()).hexdigest()[:16]


def write_spread(spread: propagation.SpreadEstimate, path: str | Path, config_hash: str) -> str:
    return _write_table(path, {"config_hash": config_hash}, _header(_SPREAD_ROW),
                        (f"{node},{_fmt(spread.values[node])},{_fmt(spread.std_error[node])},"
                         f"{spread.runs},{spread.master_seed}"
                         for node in range(spread.values.size)))


def read_spread(path: str | Path,
                node_count: int | None = None) -> tuple[propagation.SpreadEstimate, str]:
    """A spread table and its config hash; ``node_count`` is the graph's, when known."""
    comments, rows = _read_table(path, _SPREAD_ROW, ("config_hash",))
    if node_count is not None and rows.size != node_count:
        raise DataError(f"spread file {path} does not match the graph: "
                        f"{rows.size} rows for {node_count} nodes")
    _check_node_ids(path, rows)
    simulation = rows[["runs", "master_seed"]]
    if np.any(simulation != simulation[0]):
        raise ParseError(f"runs or master_seed differ between the rows of {path}")
    estimate = propagation.SpreadEstimate(rows["expected_spread"], rows["std_error"],
                                          int(rows["runs"][0]), int(rows["master_seed"][0]))
    return estimate, comments["config_hash"]


def _metric_cell(value: float | None) -> str:
    return NA if value is None else _fmt(value)


def write_evaluation(report: EvaluationReport, path: str | Path) -> str:
    comments = {"node_count": str(report.node_count), "density": _fmt(report.density)}
    return _write_table(path, comments, _header(_REPORT_ROW), _report_rows(report))


def _report_rows(report: EvaluationReport) -> list[str]:
    rows = []
    for measure_id, m in report.metrics.items():
        rows.append(",".join([report.dataset, measure_id,
                              _metric_cell(m.tau), _metric_cell(m.tau_norm),
                              _metric_cell(m.epsilon), _metric_cell(m.epsilon_norm),
                              _metric_cell(m.monotonicity)]))
    return rows


def read_evaluation(path: str | Path) -> EvaluationReport:
    comments, rows = _read_table(path, _REPORT_ROW, ("node_count", "density"))
    datasets = set(rows["dataset"].tolist())
    if len(datasets) > 1:
        raise DataError(f"evaluation file {path} mixes datasets {sorted(datasets)}")
    if AGGREGATE in datasets:
        raise DataError(f"evaluation file {path} names its dataset {AGGREGATE!r}, "
                        "which is reserved for report's aggregate rows")
    with _parsing(path):
        metrics = {measure: MeasureMetrics(*(None if c == NA else float(c) for c in cells))
                   for _, measure, *cells in rows.tolist()}
        node_count = int(comments["node_count"])
        density = float(comments["density"])
    return EvaluationReport(datasets.pop(), node_count, density, metrics)


def write_combined_report(reports: list[EvaluationReport], aggregate_report: EvaluationReport,
                          path: str | Path) -> str:
    rows = [row for report in reports for row in _report_rows(report)]
    return _write_table(path, {}, _header(_REPORT_ROW), rows + _report_rows(aggregate_report))


def write_scatter(reports: list[EvaluationReport], path: str | Path) -> str:
    """Rows for density-versus-metric plots across datasets."""
    rows = []
    for report in sorted(reports, key=lambda r: (r.density, r.dataset)):
        for measure_id, m in report.metrics.items():
            for metric_name, value in (("tau_norm", m.tau_norm),
                                       ("epsilon_norm", m.epsilon_norm)):
                if value is not None:
                    rows.append(f"{report.dataset},{_fmt(report.density)},"
                                f"{measure_id},{metric_name},{_fmt(value)}")
    return _write_table(path, {}, _header(_SCATTER_ROW), rows)
