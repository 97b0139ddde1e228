"""The benchmark's tracer, ``perfbench/spans.py``, still records every layer.

The tracer rebinds spreadrank's public names by name and reads their ``path``
and ``scores`` arguments, so a renamed reader or a dropped parameter shows up
here, not only in a traced benchmark run.  The file is loaded as it is, and
no bytecode is written beside it.
"""
import importlib.util
import sys
from pathlib import Path

from spreadrank import storage
from spreadrank.cli import main
from spreadrank.measures import MeasureContext

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_pass_records_storage_measure_and_ranking_spans(tmp_path, monkeypatch, capsys):
    raw = tmp_path / "toy.txt"
    raw.write_text("a b\nb c\nc a\na c\n")
    graph, spread = tmp_path / "toy.edges", tmp_path / "toy.spread.csv"
    originals = (storage.read_scores, storage.write_scores, MeasureContext.get)
    tracer = load_spans(monkeypatch).Tracer()
    tracer.install()
    try:
        for argv in (["ingest", raw, "--directed"],
                     ["simulate", graph, "--runs", "20", "--quiet"],
                     ["centrality", graph, "--measure", "c_os"],
                     ["evaluate", graph, spread, "--measures", "c_os", "--top-k", "2"],
                     ["report", tmp_path / "toy.evaluation.csv"]):
            code = main([str(a) for a in argv + ["--out-dir", tmp_path]])
            assert code == 0, capsys.readouterr().err
    finally:
        tracer.uninstall()
    assert (storage.read_scores, storage.write_scores, MeasureContext.get) == originals
    spans = {}
    for name, _, _, _, _, attrs in tracer.spans:
        spans.setdefault(name, []).append(attrs)
    for name in ("storage.read", "storage.write"):
        assert spans[name] and all(attrs["bytes"] > 0 for attrs in spans[name])
    assert spans["measures.c_os"]
    assert spans["ranking.evaluate"] == [{"scored": 2}]  # c_od and c_os
