"""Command-line front end.

Subcommands: ingest, simulate, centrality, evaluate, report.  Exit codes:
0 success, 2 usage or parameter problems, 3 data problems (an
unreadable file among them), 4 convergence failures.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .config import RunConfig
from .errors import ConvergenceError, DataError, ParameterError, SpreadrankError
from .graph import apply_wcs, orient_undirected
from .measures import MEASURES, MeasureContext, measure_ids
from .propagation import ENGINE, spread_all
from .ranking import AGGREGATE, aggregate, evaluate_measures
from . import storage
from .storage import INGEST, load_edge_list

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for output files")
    parser.add_argument("--no-timestamps", action="store_true",
                        help="omit generated-at comments for reproducible bytes")


# every RunConfig field's option: its flag and argparse keywords; the field gives the default
_CONFIG_OPTIONS = {
    "runs": ("--runs", {"type": int, "help": "cascades per seed node"}),
    "master_seed": ("--seed", {"type": int, "help": "master RNG seed"}),
    "top_k": ("--top-k", {"type": int, "help": "top-k size for ranking error"}),
    "measures": ("--measures", {
        "type": lambda ids: tuple(m.strip() for m in ids.split(",") if m.strip()),
        "help": "comma-separated measure ids (default: all)"}),
    "katz_alpha": ("--katz-alpha", {
        "type": float, "help": "fixed Katz attenuation (default: 0.85/spectral radius)"}),
    "gravity_radius": ("--radius", {"type": int, "help": "gravity hop radius"}),
}


def _add_config(parser: argparse.ArgumentParser, *names: str) -> None:
    """Options for the :class:`RunConfig` fields ``names``, those the command reads."""
    for name in names:
        flag, keywords = _CONFIG_OPTIONS[name]
        parser.add_argument(flag, dest=name, default=getattr(RunConfig, name), **keywords)


def _config_from_args(args: argparse.Namespace) -> tuple[RunConfig, tuple[str, ...]]:
    """The configuration a command's options give, and the names of the fields it read.

    Fields the command has no option for keep their defaults.
    """
    read = {name: getattr(args, name) for name in _CONFIG_OPTIONS if hasattr(args, name)}
    cfg = RunConfig(**read)
    unknown = [m for m in (*cfg.measures, getattr(args, "measure", None))
               if m is not None and m not in measure_ids()]
    if unknown:
        raise ParameterError(f"unknown measure {', '.join(map(repr, unknown))}; "
                             f"valid ids: {', '.join(measure_ids())}")
    return cfg, tuple(read)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spreadrank",
                                     description="Centrality measures versus cascade spread")
    parser.add_argument("--version", action="version", version=f"spreadrank {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="canonicalize an edge list")
    p_ingest.add_argument("input", type=Path, help="raw edge list file")
    p_ingest.add_argument("--name", type=str, default=None, help="dataset name (default: file stem)")
    p_ingest.add_argument("--directed", action="store_true",
                          help="input declares edge directions")
    p_ingest.add_argument("--weighted", action="store_true",
                          help="input carries edge weights")
    p_ingest.add_argument("--keep-weights", action="store_true",
                          help="keep declared weights as cascade probabilities "
                               "instead of assigning 1/in-degree")
    _add_common(p_ingest)

    p_sim = sub.add_parser("simulate", help="estimate expected spread per seed node")
    p_sim.add_argument("graph", type=Path, help="canonical edge list from ingest")
    p_sim.add_argument("--quiet", action="store_true", help="suppress progress output")
    _add_common(p_sim)
    _add_config(p_sim, "runs", "master_seed")

    p_cent = sub.add_parser("centrality", help="compute one centrality measure")
    p_cent.add_argument("graph", type=Path)
    p_cent.add_argument("--measure", type=str, required=True,
                        help=f"one of: {', '.join(measure_ids())}")
    _add_common(p_cent)
    _add_config(p_cent, "katz_alpha", "gravity_radius")

    p_eval = sub.add_parser("evaluate", help="score measures against simulated spread")
    p_eval.add_argument("graph", type=Path)
    p_eval.add_argument("spread", type=Path, help="spread CSV from simulate")
    p_eval.add_argument("--dataset", type=str, default=None,
                        help="dataset name for report rows (default: graph stem)")
    _add_common(p_eval)
    # runs and seed come from the spread file
    _add_config(p_eval, "top_k", "measures", "katz_alpha", "gravity_radius")

    p_rep = sub.add_parser("report", help="aggregate evaluation reports")
    p_rep.add_argument("evaluations", type=Path, nargs="+", help="evaluation CSV files")
    _add_common(p_rep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """This process's parser, built on first use and shared by every :func:`main` call."""
    return build_parser()


def _summary(record: dict) -> str:
    """Ingest's summary line, from the counts its run file records."""
    return (f"dataset={record['dataset']} nodes={record['nodes']} edges={record['edges']} "
            f"density={record['density']:.4f} "
            f"self_loops_dropped={record['self_loops_dropped']} "
            f"duplicates_dropped={record['duplicates_dropped']}")


def _dataset_name(name: str) -> str:
    """``name`` if it can name files in ``--out-dir`` and a table cell that reads back as written.

    Either platform's path separator, a line break (any that ``str.splitlines``
    breaks at), leading or trailing whitespace, ``.`` and ``..`` are refused.
    """
    if (any(sep in name for sep in "/\\") or name.splitlines() != [name]
            or name != name.strip() or name in (".", "..")):
        raise ParameterError(f"dataset name {name!r} must not hold a path separator or a line "
                             "break, start or end with whitespace, or be '.' or '..'")
    return name


def cmd_ingest(args: argparse.Namespace) -> int:
    if args.keep_weights and not args.weighted:
        raise ParameterError("--keep-weights needs --weighted: "
                             "an input without weights has none to keep")
    name = _dataset_name(args.name or args.input.stem)
    graph_path = args.out_dir / f"{name}.edges"
    outputs = (graph_path, args.out_dir / f"{name}.idmap.csv")
    # no measure id is "ingest", so no other command's run file has this name
    run_file = args.out_dir / f"{name}.ingest.run.json"
    # everything the two outputs' bytes depend on
    key = {"format": INGEST, "input_sha256": storage.sha256_of(args.input), "dataset": name,
           "directed": args.directed, "weighted": args.weighted,
           "keep_weights": args.keep_weights, "timestamps": not args.no_timestamps}
    record = storage.current_run(run_file, key, outputs)
    if record is not None:
        try:
            print(_summary(record))
            return 0
        except (KeyError, TypeError, ValueError):  # sealed without its counts: not current
            pass
    net = load_edge_list(args.input, declared_weighted=args.weighted)
    if net.edge_count == 0:
        raise DataError(f"no edges in {args.input}")
    if not args.directed:
        net = orient_undirected(net)
    if not args.keep_weights:
        net = apply_wcs(net)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    storage.write_edge_list(net, graph_path, comments={"dataset": name},
                            timestamps=not args.no_timestamps)
    storage.write_id_map(net, outputs[1])
    record = {**key, "nodes": net.node_count, "edges": net.edge_count,
              "density": net.density(), "self_loops_dropped": net.self_loops_dropped,
              "duplicates_dropped": net.duplicates_dropped}
    # written last, so a failure before it leaves a run file the outputs do not match
    storage.write_run(run_file, record, outputs)
    print(_summary(record))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg, read = _config_from_args(args)
    cache_path = args.out_dir / f"{args.graph.stem}.spread.csv"
    run_file = storage.run_path(cache_path)
    graph_sha256 = storage.sha256_of(args.graph)
    config_hash = storage.simulation_hash(graph_sha256, cfg.runs, cfg.master_seed)
    # everything the spread file's bytes depend on
    key = {**cfg.fields(read), "engine": ENGINE, "graph_sha256": graph_sha256,
           "config_hash": config_hash, "timestamps": not args.no_timestamps}
    if storage.current_run(run_file, key, [cache_path]) is not None:
        print(f"cache hit: {cache_path} (config_hash={config_hash})")
        return 0
    net = storage.read_canonical_network(args.graph)
    if cache_path.is_file():
        print(f"cache mismatch, recomputing: {cache_path}", file=sys.stderr)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    def progress(done: int, total: int) -> None:
        step = max(1, total // 100)
        if done % step == 0 or done == total:
            print(f"simulated {done}/{total} seeds", file=sys.stderr)

    spread = spread_all(net, cfg, progress=None if args.quiet else progress)
    storage.write_spread(spread, cache_path, config_hash, timestamps=not args.no_timestamps)
    storage.write_run(run_file, key, [cache_path])
    print(f"wrote {cache_path} (config_hash={config_hash})")
    return 0


def cmd_centrality(args: argparse.Namespace) -> int:
    cfg, read = _config_from_args(args)
    out_path = args.out_dir / f"{args.graph.stem}.{args.measure}.csv"
    run_file = storage.run_path(out_path)
    # everything the scores file's bytes depend on
    key = {"format": MEASURES, "measure": args.measure,
           "graph_sha256": storage.sha256_of(args.graph), **cfg.fields(read),
           "timestamps": not args.no_timestamps}
    if storage.current_run(run_file, key, [out_path]) is None:
        net = storage.read_canonical_network(args.graph)
        scores = MeasureContext(net, cfg).get(args.measure)
        args.out_dir.mkdir(parents=True, exist_ok=True)
        storage.write_scores(scores, out_path, timestamps=not args.no_timestamps)
        storage.write_run(run_file, key, [out_path])
    print(f"wrote {out_path}")
    return 0


def _check_unedited(path: Path, command: str) -> None:
    """Reject ``path`` if a run file beside it does not record the SHA-256 it has now.

    Called after the parse, so a damaged file gets the parser's message;
    a file with no run file is taken as it is.
    """
    run_file = storage.run_path(path)
    if run_file.exists() and storage.current_run(run_file, {}, [path]) is None:
        raise DataError(f"{path} does not match its run file {run_file}: "
                        f"edited after {command} wrote it; run {command} again")


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = _dataset_name(args.dataset or args.graph.stem)
    if "," in dataset:
        raise ParameterError(f"dataset name {dataset!r} contains a comma, "
                             "which would split its report rows")
    if dataset == AGGREGATE:
        raise ParameterError(f"dataset name {dataset!r} is reserved for report's aggregate rows")
    cfg, read = _config_from_args(args)  # a bad setting fails before any input is read
    net = storage.read_canonical_network(args.graph)
    spread, stored_hash = storage.read_spread(args.spread, net.node_count)
    _check_unedited(args.spread, "simulate")
    graph_sha256 = storage.sha256_of(args.graph)
    expected_hash = storage.simulation_hash(graph_sha256, spread.runs, spread.master_seed)
    if stored_hash != expected_hash:
        raise DataError(f"spread cache {args.spread} does not match graph {args.graph} "
                        f"(hash {stored_hash} != {expected_hash})")
    ctx = MeasureContext(net, cfg)
    wanted = list(dict.fromkeys(("c_od", "c_os") + cfg.measures))
    scores = {measure_id: ctx.get(measure_id) for measure_id in wanted}
    report = evaluate_measures(dataset, net.node_count, net.density(), scores,
                               spread, cfg.top_k)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.out_dir / f"{dataset}.evaluation.csv"
    storage.write_evaluation(report, out_path, timestamps=not args.no_timestamps)
    # what the evaluation file was computed from
    key = {"format": MEASURES, "graph_sha256": graph_sha256,
           "spread_sha256": storage.sha256_of(args.spread),
           "dataset": dataset, **cfg.fields(read), "timestamps": not args.no_timestamps}
    storage.write_run(storage.run_path(out_path), key, [out_path])
    print(f"wrote {out_path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    reports = [storage.read_evaluation(path) for path in args.evaluations]
    for path in args.evaluations:
        _check_unedited(path, "evaluate")
    if len(args.evaluations) != len({r.dataset for r in reports}):
        raise DataError("duplicate dataset names across evaluation files")
    combined = aggregate(reports)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    report_path = args.out_dir / "report.csv"
    scatter_path = args.out_dir / "scatter.csv"
    storage.write_combined_report(reports, combined, report_path,
                                  timestamps=not args.no_timestamps)
    storage.write_scatter(reports, scatter_path, timestamps=not args.no_timestamps)
    print(f"wrote {report_path} and {scatter_path}")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "simulate": cmd_simulate,
    "centrality": cmd_centrality,
    "evaluate": cmd_evaluate,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpreadrankError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParameterError):
            return EXIT_USAGE
        if isinstance(exc, ConvergenceError):
            return EXIT_CONVERGENCE
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
