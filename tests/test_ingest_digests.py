"""Frozen ingest bytes: ``spreadrank ingest`` must reproduce recorded digests.

The fixture holds, per input, ingest's exit code and the SHA-256 of its
stdout (the summary line), its stderr (with the input's path written as
``<input>``), ``<name>.edges`` and ``<name>.idmap.csv`` (``null`` when
not written), all with ``--no-timestamps``.  The inputs are the four
bundled synthetic sets, ingested as ``data/manifest.json`` declares them,
and the small raw files in ``CASES``: the edge cases of the raw ``u v [w]``
format and rows that ingest must refuse.

Regenerate (only at a commit whose ingest is known to be right) with
``PYTHONPATH=src python tests/test_ingest_digests.py``.
"""
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from spreadrank.cli import main

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
FIXTURE = Path(__file__).resolve().parent / "fixtures" / "ingest_digests.json"

DIRECTED = ("--directed",)
WEIGHTED = ("--directed", "--weighted")
KEEP = ("--directed", "--weighted", "--keep-weights")

# name -> (file name, bytes, ingest flags)
CASES = {
    "bom_and_percent_comment": ("bom.txt", b"\xef\xbb\xbf% sym unweighted\n# two\n1 2\n2 3\n3 1\n",
                                DIRECTED),
    "tabs_and_space_runs": ("tabs.txt", b"a\tb\n  b   c  \n\tc\t\ta\n", DIRECTED),
    "crlf": ("crlf.txt", b"a b 2\r\nb c 3\r\n\r\nc a 1\r\n", KEEP),
    "non_ascii_labels": ("utf8.txt", "Zoë Ångström\nÅngström 東京\n東京 Zoë\n".encode(),
                         DIRECTED),
    "first_seen_as_target": ("target.txt", b"1 2\n3 2\n2 4\n4 1\n", ()),
    "self_loop_only_label": ("loop.txt", b"a a\nb c\nc d\n", DIRECTED),
    "duplicates_directed": ("dup.txt", b"a b 0.5\na b 0.7\nb a 0.2\nb c 1\nb c 2\n", KEEP),
    "duplicates_undirected": ("dupu.txt", b"a b 0.5\na b 0.7\nb a 0.2\nb c 1\nc b 2\n",
                              ("--weighted", "--keep-weights")),
    "three_cells_unweighted": ("three.txt", b"a b 5\nb c 0.5\nc a 2\n", DIRECTED),
    "mixed_cells_weighted": ("mixed.txt", b"a b 0.5\nb c\nc a 2\na c\n", WEIGHTED),
    "keep_weights": ("keep.txt", b"a b 0.25\nb c 4\nc a 1e-3\na c 0.1\n", KEEP),
    "error_four_cells": ("bad.txt", b"0 1\n0 1 2 3\n", DIRECTED),
    "error_bad_weight_before_four_cells": ("bad.txt", b"0 1 0.5\n1 2 x\n0 1 2 3\n", WEIGHTED),
    "error_tab_four_cells": ("bad.txt", b"0\t1\t2\t3\n", DIRECTED),
    "error_nan_weight": ("bad.txt", b"0 1 0.5\n1 2 nan\n", WEIGHTED),
    "error_infinite_weight": ("bad.txt", b"0 1 inf\n", WEIGHTED),
    "error_zero_weight": ("bad.txt", b"0 1 0\n", WEIGHTED),
    "error_not_utf8": ("bad.txt", b"0 1\n\xff 2\n", DIRECTED),
    "error_no_edges": ("bad.txt", b"# nothing\n% here\n\n", DIRECTED),
    "error_only_self_loops": ("bad.txt", b"a a\nb b\n", DIRECTED),
}


def bundled_inputs():
    entries = json.loads((DATA_DIR / "manifest.json").read_text())["datasets"]
    for entry in entries:
        if entry["synthetic"]:
            flags = ("--directed",) * entry["directed"] + ("--weighted",) * entry["weighted"]
            yield entry["name"], (entry["file"], (DATA_DIR / entry["file"]).read_bytes(), flags)


INPUTS = {**dict(bundled_inputs()), **CASES}


def _sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


def ingest_digests(name: str, workdir: Path) -> dict:
    """Exit code and digests of one ingest of ``INPUTS[name]`` into ``workdir``."""
    file_name, data, flags = INPUTS[name]
    raw = workdir / file_name
    raw.write_bytes(data)
    out_dir = workdir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["ingest", str(raw), *flags, "--out-dir", str(out_dir), "--no-timestamps"])

    def output(suffix):
        path = out_dir / f"{raw.stem}{suffix}"
        return path.read_bytes() if path.exists() else None

    return {"exit": code, "stdout": _sha(stdout.getvalue().encode()),
            "stderr": _sha(stderr.getvalue().replace(str(raw), "<input>").encode()),
            "edges": _sha(output(".edges")), "idmap": _sha(output(".idmap.csv"))}


def test_fixture_covers_every_input():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(INPUTS)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_ingest_matches_frozen_digests(tmp_path, name):
    assert ingest_digests(name, tmp_path) == json.loads(FIXTURE.read_text())[name]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    payload = {}
    for name in INPUTS:
        with tempfile.TemporaryDirectory() as workdir:
            payload[name] = ingest_digests(name, Path(workdir))
    FIXTURE.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
