"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's own files: the tracer rebinds the
*public* names of spreadrank's layers in the modules that call them
(``spreadrank.cli.load_edge_list``, ``spreadrank.storage.load_edge_list``,
``MeasureContext.get``, ...) and restores them afterwards.  Nothing under
``src/`` is edited and no private name is wrapped, so a change to a
layer's internals cannot silently move a span.

Each span holds a name, start, end, parent span and the unit (one timed
operation or one set-up) it belongs to.  Per-layer metrics are self times
(duration minus the time covered by child spans), except ``cli.*`` and the
simulate spans, which report the whole call.
"""
from __future__ import annotations

import functools
import inspect
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

_STORAGE_READERS = ("read_canonical_network", "read_scores", "read_spread", "read_evaluation")
_STORAGE_WRITERS = ("write_edge_list", "write_id_map", "write_scores", "write_spread",
                    "write_evaluation", "write_combined_report", "write_scatter")


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


class Tracer:
    """Records spans; ``install`` rebinds the traced names, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, unit, attrs]
        self.unit: str | None = None
        self.active = False
        self.labels: dict[int, str] = {}  # id(Network) -> dataset name
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else None,
                  self.unit, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield attrs
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def in_unit(self, unit: str):
        self.unit = unit
        try:
            yield
        finally:
            self.unit = None

    def _rebind(self, owner, attr: str, name, attrs_of=None) -> None:
        original = getattr(owner, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            with self.span(span_name) as attrs:
                result = original(*args, **kwargs)
                if attrs_of is not None:
                    attrs.update(attrs_of(signature.bind(*args, **kwargs).arguments, result))
                return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        import spreadrank.cli as cli
        import spreadrank.propagation as propagation
        import spreadrank.ranking as ranking
        import spreadrank.storage as storage
        from spreadrank.measures import MeasureContext

        def loaded(arguments, net):
            return {"edges": net.edge_count + net.self_loops_dropped + net.duplicates_dropped,
                    "bytes": _file_size(arguments["path"])}

        def simulated(arguments, estimate):
            net = arguments["net"]
            return {"dataset": self.labels.get(id(net), "unlabelled"),
                    "cascades": net.node_count * estimate.runs,
                    "uniforms": net.node_count * estimate.runs * net.edge_count}

        self._rebind(cli, "orient_undirected", "graph.orient")
        self._rebind(cli, "apply_wcs", "graph.wcs")
        for module in (cli, storage):
            self._rebind(module, "load_edge_list", "graph.load", loaded)
        for module in (propagation, cli):
            self._rebind(module, "spread_all", "propagation.spread_all", simulated)
        for module in (ranking, cli):
            self._rebind(module, "evaluate_measures", "ranking.evaluate",
                         lambda arguments, _: {"scored": len(arguments["scores"])})
            self._rebind(module, "aggregate", "ranking.aggregate")
        for attr in _STORAGE_READERS:
            self._rebind(storage, attr, "storage.read",
                         lambda arguments, _: {"bytes": _file_size(arguments["path"])})
        for attr in _STORAGE_WRITERS:
            self._rebind(storage, attr, "storage.write",
                         lambda arguments, _: {"bytes": _file_size(arguments["path"])})
        self._rebind(MeasureContext, "get", lambda args: f"measures.{args[1]}")
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def unit_totals(self) -> dict[str, dict[str, float]]:
        """Per-layer metric totals of every unit, keyed by unit name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, unit, attrs in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent, unit, attrs) in enumerate(self.spans):
            if unit is None:
                continue
            out = totals.setdefault(unit, {"trace.spans": 0.0})
            duration = end - start
            own = duration - covered[index]
            out["trace.spans"] += 1

            def add(key, value):
                out[key] = out.get(key, 0.0) + value

            layer, _, detail = name.partition(".")
            if layer == "graph":
                add(f"graph.{detail}_s", own)
                if detail == "load":
                    add("graph.edges_parsed", attrs["edges"])
                    add("graph.input_bytes", attrs["bytes"])
            elif layer == "propagation":
                add(f"propagation.simulate_s.{attrs['dataset']}", duration)
                add("propagation.cascades", attrs["cascades"])
                add("propagation.uniforms", attrs["uniforms"])
                add("propagation.uniform_bytes", 8 * attrs["uniforms"])
            elif layer == "measures":
                add(f"measures.{detail}_s", own)
            elif layer == "ranking":
                add(f"ranking.{detail}_s", own)
                if detail == "evaluate":
                    add("ranking.measures_scored", attrs["scored"])
            elif layer == "storage":
                add(f"storage.{detail}_s", own)
                add(f"storage.bytes_{'read' if detail == 'read' else 'written'}", attrs["bytes"])
            elif layer == "cli":
                add(f"cli.{detail}_s", duration)
                if detail == "simulate":
                    add("cli.simulate_calls", 1)
                    add("cli.cache_hits", attrs["hit"])
        return totals

    def dump(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end, "parent": parent, "unit": unit,
                 "attrs": attrs}
                for name, start, end, parent, unit, attrs in self.spans]


def median_over(units: list[dict[str, float]], key: str) -> float:
    return statistics.median(u.get(key, 0.0) for u in units) if units else 0.0
