"""Command-line front end.

Subcommands: ingest, simulate, centrality, evaluate, report.  Exit codes:
0 success, 2 usage or parameter problems, 3 data problems, 4 convergence
failures.
"""
from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .config import RunConfig, graph_fingerprint, simulation_hash
from .errors import (ConvergenceError, DataError, ParameterError, ParseError,
                     SpreadrankError, ValidationError)
from .graph import apply_wcs, load_edge_list, orient_undirected
from .measures import MeasureContext, measure_ids
from .propagation import spread_all
from .ranking import aggregate, evaluate_measures
from . import storage

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_CONVERGENCE = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for output files")
    parser.add_argument("--no-timestamps", action="store_true",
                        help="omit generated-at comments for reproducible bytes")


def _add_config(parser: argparse.ArgumentParser, simulation: bool = True,
                scoring: bool = True) -> None:
    """Options named by their :class:`RunConfig` field, which also gives their defaults."""
    if simulation:
        parser.add_argument("--runs", type=int, default=RunConfig.runs,
                            help="cascades per seed node")
        parser.add_argument("--seed", dest="master_seed", type=int,
                            default=RunConfig.master_seed, help="master RNG seed")
    if scoring:
        parser.add_argument("--top-k", type=int, default=RunConfig.top_k,
                            help="top-k size for ranking error")
        parser.add_argument("--measures", default=RunConfig.measures,
                            type=lambda ids: tuple(m.strip() for m in ids.split(",") if m.strip()),
                            help="comma-separated measure ids (default: all)")
    parser.add_argument("--katz-alpha", type=float, default=RunConfig.katz_alpha,
                        help="fixed Katz attenuation (default: 0.85/spectral radius)")
    parser.add_argument("--radius", dest="gravity_radius", type=int,
                        default=RunConfig.gravity_radius, help="gravity hop radius")


def _config_from_args(args: argparse.Namespace, **known) -> RunConfig:
    """The configuration a command's options give; ``known`` sets fields it has no option for."""
    cfg = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)
                       if hasattr(args, f.name)}, **known)
    unknown = [m for m in (*cfg.measures, getattr(args, "measure", None))
               if m is not None and m not in measure_ids()]
    if unknown:
        raise ParameterError(f"unknown measure {', '.join(map(repr, unknown))}; "
                             f"valid ids: {', '.join(measure_ids())}")
    return cfg


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
    p_sim.add_argument("--force", action="store_true", help="ignore an existing cache")
    p_sim.add_argument("--quiet", action="store_true", help="suppress progress output")
    _add_common(p_sim)
    _add_config(p_sim)

    p_cent = sub.add_parser("centrality", help="compute one centrality measure")
    p_cent.add_argument("graph", type=Path)
    p_cent.add_argument("--measure", type=str, required=True,
                        help=f"one of: {', '.join(measure_ids())}")
    _add_common(p_cent)
    _add_config(p_cent, simulation=False, scoring=False)

    p_eval = sub.add_parser("evaluate", help="score measures against simulated spread")
    p_eval.add_argument("graph", type=Path)
    p_eval.add_argument("spread", type=Path, help="spread CSV from simulate")
    p_eval.add_argument("--dataset", type=str, default=None,
                        help="dataset name for report rows (default: graph stem)")
    _add_common(p_eval)
    _add_config(p_eval, simulation=False)  # runs and seed come from the spread file

    p_rep = sub.add_parser("report", help="aggregate evaluation reports")
    p_rep.add_argument("evaluations", type=Path, nargs="+", help="evaluation CSV files")
    _add_common(p_rep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """This process's parser, built on first use and shared by every :func:`main` call."""
    return build_parser()


def cmd_ingest(args: argparse.Namespace) -> int:
    net = load_edge_list(args.input, declared_directed=args.directed,
                         declared_weighted=args.weighted)
    if net.edge_count == 0:
        raise DataError(f"no edges in {args.input}")
    if not net.directed:
        net = orient_undirected(net)
    if not (args.weighted and args.keep_weights):
        net = apply_wcs(net)
    name = args.name or args.input.stem
    args.out_dir.mkdir(parents=True, exist_ok=True)
    graph_path = args.out_dir / f"{name}.edges"
    storage.write_edge_list(net, graph_path,
                            comments={"dataset": name,
                                      "graph_fingerprint": graph_fingerprint(net)},
                            timestamps=not args.no_timestamps)
    storage.write_id_map(net, args.out_dir / f"{name}.idmap.csv")
    print(f"dataset={name} nodes={net.node_count} edges={net.edge_count} "
          f"density={net.density():.4f} self_loops_dropped={net.self_loops_dropped} "
          f"duplicates_dropped={net.duplicates_dropped}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    net = storage.read_canonical_network(args.graph)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    cache_path = args.out_dir / f"{args.graph.stem}.spread.csv"
    expected_hash = simulation_hash(net, cfg.runs, cfg.master_seed)
    if cache_path.exists() and not args.force:
        try:
            _, stored_hash = storage.read_spread(cache_path, net.node_count)
        except (ParseError, DataError, ValidationError):
            stored_hash = ""
        if stored_hash == expected_hash:
            print(f"cache hit: {cache_path} (config_hash={expected_hash})")
            return 0
        print(f"cache mismatch, recomputing: {cache_path}", file=sys.stderr)

    def progress(done: int, total: int) -> None:
        step = max(1, total // 100)
        if done % step == 0 or done == total:
            print(f"simulated {done}/{total} seeds", file=sys.stderr)

    spread = spread_all(net, cfg, progress=None if args.quiet else progress)
    storage.write_spread(spread, cache_path, expected_hash,
                         timestamps=not args.no_timestamps)
    storage.write_config(cfg, args.out_dir / "config.json")
    print(f"wrote {cache_path} (config_hash={expected_hash})")
    return 0


def cmd_centrality(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    net = storage.read_canonical_network(args.graph)
    ctx = MeasureContext(net, cfg)
    scores = ctx.get(args.measure)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.out_dir / f"{args.graph.stem}.{args.measure}.csv"
    storage.write_scores(scores, out_path, graph_fingerprint(net),
                         timestamps=not args.no_timestamps)
    storage.write_config(cfg, args.out_dir / "config.json")
    print(f"wrote {out_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = args.dataset or args.graph.stem
    if "," in dataset:
        raise ParameterError(f"dataset name {dataset!r} contains a comma, "
                             "which would split its report rows")
    net = storage.read_canonical_network(args.graph)
    spread, stored_hash = storage.read_spread(args.spread, net.node_count)
    # provenance records the simulation knobs the spread file was built with
    cfg = _config_from_args(args, runs=spread.runs, master_seed=spread.master_seed)
    expected_hash = simulation_hash(net, spread.runs, spread.master_seed)
    if stored_hash and stored_hash != expected_hash:
        raise DataError(f"spread cache {args.spread} does not match graph {args.graph} "
                        f"(hash {stored_hash} != {expected_hash})")
    ctx = MeasureContext(net, cfg)
    wanted = list(dict.fromkeys(("c_od", "c_os") + cfg.measures))
    scores = {measure_id: ctx.get(measure_id) for measure_id in wanted}
    report = evaluate_measures(dataset, net.node_count, net.density(), scores,
                               spread, cfg.top_k)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = args.out_dir / f"{dataset}.evaluation.csv"
    storage.write_evaluation(report, out_path, expected_hash,
                             timestamps=not args.no_timestamps)
    storage.write_config(cfg, args.out_dir / "config.json")
    print(f"wrote {out_path}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    reports = []
    hashes = set()
    for path in args.evaluations:
        report, stored_hash = storage.read_evaluation(path)
        reports.append(report)
        hashes.add(stored_hash)
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
    except (SpreadrankError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParameterError):
            return EXIT_USAGE
        if isinstance(exc, ConvergenceError):
            return EXIT_CONVERGENCE
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
