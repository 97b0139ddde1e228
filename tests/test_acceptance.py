"""Acceptance suite: one test per exit criterion, printing a PASS/FAIL line.

Criteria 4 and 5 consume the datasets listed in data/manifest.json.  The
real-world sets are not redistributed here; the tests run against every
listed file that exists and skip loudly otherwise (see data/README.md for
how to supply them).
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spreadrank.centrality import (betweenness, closeness, eigenvector, gravity,
                                   katz, kshell, spectral_radius_estimate)
from spreadrank.combined import modified_closeness
from spreadrank.config import RunConfig
from spreadrank.graph import Network, ViewKind, WeightMode, apply_wcs, orient_undirected, view
from spreadrank.measures import MeasureContext
from spreadrank.propagation import spread_all
from spreadrank.ranking import (aggregate, evaluate_measures, kendall_tau,
                                monotonicity, ranking_error)
from spreadrank.storage import load_edge_list
from spreadrank.cli import main as cli_main

from oracles import (bf_betweenness, bf_closeness, bf_core_numbers, bf_eigenvector,
                     bf_exact_spread, bf_katz,
                     bf_gravity, bf_kendall, bf_monotonicity, bf_ranking_error,
                     random_connected_undirected, random_digraph,
                     random_sparse_digraph, random_undirected)
from test_propagation import simulate_one

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
MASTER_SEED = 12345


def report(criterion: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")


def fmt(value: float | None) -> str:
    return "NA" if value is None else f"{value:.4f}"


def load_manifest() -> list[dict]:
    return json.loads((DATA_DIR / "manifest.json").read_text())["datasets"]


def prepare_dataset(entry: dict) -> Network:
    net = load_edge_list(DATA_DIR / entry["file"], entry["weighted"])
    if not entry["directed"]:
        net = orient_undirected(net)
    return apply_wcs(net)


# ---------------------------------------------------------------------------
# criterion 1: Monte Carlo propagation agrees with exhaustive enumeration
# ---------------------------------------------------------------------------

def test_criterion_1_propagation_oracle():
    start = time.time()
    rng = np.random.default_rng(101)
    cases = 200
    agreements = 0
    for index in range(cases):
        n, edges = random_sparse_digraph(rng, max_edges=14, max_n=10)
        net = apply_wcs(Network.from_edges(n, edges))
        seed_node = int(rng.integers(0, n))
        cfg = RunConfig(runs=20000, master_seed=MASTER_SEED + index)
        mean, std_error = simulate_one(net, seed_node, cfg)
        exact = bf_exact_spread(n, list(net.edges()), seed_node)
        # the 1e-9 slack only absorbs float dust in deterministic cascades
        if abs(mean - exact) <= 4.0 * std_error + 1e-9:
            agreements += 1
    elapsed = time.time() - start
    ok = agreements >= math.ceil(0.99 * cases) and elapsed < 120.0
    report(f"1 propagation-oracle ({agreements}/{cases} within 4 sigma, {elapsed:.1f}s)", ok)
    assert agreements >= math.ceil(0.99 * cases)
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# criterion 2: ranking metrics agree with quadratic / direct-formula oracles
# ---------------------------------------------------------------------------

def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(202)
    worst_tau = 0.0
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 201))
        levels = int(rng.integers(2, 12))
        x = rng.integers(0, levels, n).astype(float)
        y = rng.integers(0, levels, n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        worst_tau = max(worst_tau, abs(kendall_tau(x, y) - bf_kendall(x, y)))
        checked += 1
    exact_matches = True
    for _ in range(100):
        n = int(rng.integers(2, 60))
        values = rng.integers(0, 7, n).astype(float)
        exact_matches &= monotonicity(values) == bf_monotonicity(values)
        scores = rng.integers(0, 7, n).astype(float)
        spread_values = 1.0 + rng.integers(0, 9, n).astype(float)
        k = int(rng.integers(1, n + 1))
        est = _spread_of(spread_values)
        exact_matches &= (ranking_error(scores, est, k)
                          == bf_ranking_error(scores, spread_values, k))
    ok = worst_tau <= 1e-12 and exact_matches
    report(f"2 metric-oracles (max tau gap {worst_tau:.2e})", ok)
    assert worst_tau <= 1e-12
    assert exact_matches


def _spread_of(values):
    from spreadrank.propagation import SpreadEstimate
    arr = np.asarray(values, dtype=float)
    return SpreadEstimate(arr, np.zeros_like(arr), runs=2, master_seed=0)


# ---------------------------------------------------------------------------
# criterion 3: centralities agree with brute-force oracles on 100 graphs each
# ---------------------------------------------------------------------------

def test_criterion_3_centrality_oracles():
    rng = np.random.default_rng(303)
    failures = []

    for index in range(100):
        directed = index % 2 == 0
        n, edges = random_digraph(rng, max_n=8, p=0.35, weights="dyadic")
        net = Network.from_edges(n, edges)
        g = view(net, ViewKind.DW if directed else ViewKind.UW)
        if directed:
            oracle_edges = edges
        else:
            half = g.edge_count // 2
            oracle_edges = [(int(u), int(v), float(w)) for u, v, w
                            in zip(g.src[:half], g.dst[:half], g.weight[:half])]
        expected = bf_betweenness(n, oracle_edges, directed)
        if not np.allclose(betweenness(g), expected, atol=1e-8):
            failures.append(f"betweenness[{index}]")

    for index in range(100):
        n, edges = random_digraph(rng, max_n=8, p=0.35, weights="dyadic")
        net = Network.from_edges(n, edges)
        got = closeness(view(net, ViewKind.DW))
        if not np.allclose(got, bf_closeness(n, edges, directed=True), atol=1e-8):
            failures.append(f"closeness[{index}]")

    count = 0
    while count < 100:
        n, edges = random_connected_undirected(rng, max_n=8)
        expected = bf_eigenvector(n, edges)
        a = np.zeros((n, n))
        for u, v in edges:
            a[u, v] = a[v, u] = 1.0
        eigenvalues = np.linalg.eigvalsh(a)
        if n > 1 and eigenvalues[-1] - eigenvalues[-2] < 1e-3:
            continue  # near-degenerate leading pair: comparison target not unique
        net = Network.from_edges(n, edges)
        got = eigenvector(net, tol=1e-13)
        if not np.allclose(got, expected, atol=1e-8):
            failures.append(f"eigenvector[{count}]")
        count += 1

    for index in range(100):
        n, edges = random_digraph(rng, max_n=8, p=0.35, weights="dyadic")
        if not edges:
            continue
        net = Network.from_edges(n, edges)
        g = view(net, ViewKind.DW)
        alpha = 0.4 / max(spectral_radius_estimate(g), 1.0)
        for outgoing in (False, True):
            got = katz(g, not outgoing, alpha)
            if not np.allclose(got, bf_katz(n, edges, alpha, outgoing), atol=1e-8):
                failures.append(f"katz[{index},{'out' if outgoing else 'in'}]")

    for index in range(100):
        n, edges = random_undirected(rng, max_n=8)
        net = Network.from_edges(n, edges)
        got = kshell(net)
        if not np.array_equal(got, bf_core_numbers(n, edges).astype(float)):
            failures.append(f"kshell[{index}]")

    for index in range(100):
        n, edges = random_digraph(rng, max_n=8, p=0.35, weights="dyadic")
        if not edges:
            continue
        net = Network.from_edges(n, edges)
        mass = np.round(rng.random(n) * 4, 3)
        radius = int(rng.integers(1, 4))
        got = gravity(view(net, ViewKind.DW), mass, radius)
        expected = bf_gravity(n, edges, mass, radius, directed=True)
        if not np.allclose(got, expected, atol=1e-8, rtol=1e-9):
            failures.append(f"gravity[{index}]")

    ok = not failures
    report(f"3 centrality-oracles ({'clean' if ok else ','.join(failures[:5])})", ok)
    assert not failures


# ---------------------------------------------------------------------------
# criterion 4: published-value reproduction on the Moreno seventh grader set
# ---------------------------------------------------------------------------

MORENO_TAU_TARGETS = {
    "c_os": 1.07219,
    "sk1": 1.12895,
    "gc_w": 0.73459,
    "mgc_wk": 1.09111,
}
REPRODUCTION_MEASURES = ["c_od", "c_os", "sk1", "sk2", "sk3", "gc_w", "mgc_wk",
                         "wks", "c_katz_dw_out"]


def run_reproduction_pipeline(entry: dict):
    """Full pipeline used by the reproduction criterion; returns the report."""
    start = time.time()
    net = prepare_dataset(entry)
    cfg = RunConfig(runs=20000, master_seed=MASTER_SEED)
    spread = spread_all(net, cfg)
    ctx = MeasureContext(net, cfg)
    scores = {m: ctx.get(m) for m in REPRODUCTION_MEASURES}
    rep = evaluate_measures(entry["name"], net.node_count, net.density(),
                            scores, spread, k=min(50, net.node_count))
    return net, rep, time.time() - start


def test_reproduction_pipeline_runs_on_bundled_data():
    # keeps the dataset-gated criterion path exercised even without real data
    entry = next(e for e in load_manifest() if e["name"] == "synth_club")
    net, rep, _ = run_reproduction_pipeline(entry)
    for measure_id in MORENO_TAU_TARGETS:
        value = rep.metrics[measure_id].tau_norm
        assert value is not None and np.isfinite(value)
    assert rep.metrics["c_os"].monotonicity is not None


def test_criterion_4_moreno_seventh_reproduction():
    entry = next(e for e in load_manifest() if e["name"] == "moreno_seventh")
    path = DATA_DIR / entry["file"]
    if not path.exists():
        print("\nACCEPTANCE 4 moreno-seventh-reproduction: SKIPPED "
              "(dataset not supplied, see data/README.md)")
        pytest.skip(f"dataset file {path} not supplied; place the seventh-grader "
                    "edge list there to run this criterion")
    net, rep, elapsed = run_reproduction_pipeline(entry)
    assert net.node_count == entry["expected_nodes"]
    assert net.edge_count == entry["expected_edges"]
    deltas = {m: (math.inf if rep.metrics[m].tau_norm is None
                  else abs(rep.metrics[m].tau_norm - target))
              for m, target in MORENO_TAU_TARGETS.items()}
    katz_out = rep.metrics["c_katz_dw_out"].tau_norm
    sk3 = rep.metrics["sk3"].tau_norm
    ok = all(d <= 0.05 for d in deltas.values())
    ok &= rep.metrics["c_os"].monotonicity == 1.0
    # katz-dependent columns: direction of correlation only
    ok &= katz_out is not None and katz_out > 0
    ok &= sk3 is not None and sk3 > 0
    ok &= elapsed < 60.0
    detail = ", ".join(f"{m}:{fmt(rep.metrics[m].tau_norm)} (target {t})"
                       for m, t in MORENO_TAU_TARGETS.items())
    detail += (f", wks tau_norm {fmt(rep.metrics['wks'].tau_norm)}, "
               f"wks M(R) {fmt(rep.metrics['wks'].monotonicity)}")
    report(f"4 moreno-seventh-reproduction ({detail}, {elapsed:.1f}s)", ok)
    for measure_id, delta in deltas.items():
        assert delta <= 0.05, f"{measure_id} off by {delta:.4f}"
    assert rep.metrics["c_os"].monotonicity == 1.0
    assert katz_out is not None and katz_out > 0
    assert sk3 is not None and sk3 > 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 5: gravity with the wk mass beats the weighted-shell mass
# ---------------------------------------------------------------------------

def test_criterion_5_mgc_wk_dominates_gc_w():
    entries = [e for e in load_manifest()
               if (DATA_DIR / e["file"]).exists()
               and e.get("expected_nodes", 0) <= 250]
    if not entries:
        print("\nACCEPTANCE 5 mgc-wk-vs-gc-w: SKIPPED (no datasets available)")
        pytest.skip("no bundled datasets found")
    reports = []
    cfg = RunConfig(runs=20000, master_seed=MASTER_SEED)
    for entry in entries:
        net = prepare_dataset(entry)
        spread = spread_all(net, cfg)
        ctx = MeasureContext(net, cfg)
        scores = {m: ctx.get(m) for m in ("c_od", "c_os", "gc_w", "mgc_wk")}
        reports.append(evaluate_measures(entry["name"], net.node_count, net.density(),
                                         scores, spread, k=min(50, net.node_count)))
    combined = aggregate(reports)
    wk = combined.metrics["mgc_wk"].tau_norm
    shell = combined.metrics["gc_w"].tau_norm
    shell_value = -np.inf if shell is None else shell
    ok = wk is not None and wk >= shell_value
    names = ",".join(e["name"] for e in entries)
    report(f"5 mgc-wk-vs-gc-w (geomean tau {fmt(wk)} vs {fmt(shell)} on {names})", ok)
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: closeness fold branch values
# ---------------------------------------------------------------------------

def test_criterion_6_closeness_fold_branches():
    got = modified_closeness(np.array([0.0, 0.04, 0.5]))
    ok = got.tolist() == [0.96, 1.0, 0.54]
    report(f"6 closeness-fold-branches ({got.tolist()})", ok)
    assert got.tolist() == [0.96, 1.0, 0.54]


# ---------------------------------------------------------------------------
# criterion 7: byte-identical pipeline reruns
# ---------------------------------------------------------------------------

def test_criterion_7_pipeline_determinism(tmp_path, capsys):
    source = DATA_DIR / "synth_club.tsv"

    def run_pipeline(out_dir: Path) -> dict[str, bytes]:
        out_dir.mkdir()
        args = ["--out-dir", str(out_dir), "--no-timestamps"]
        assert cli_main(["ingest", str(source), "--directed"] + args) == 0
        graph = str(out_dir / "synth_club.edges")
        assert cli_main(["simulate", graph, "--runs", "2000", "--seed", "77",
                         "--quiet"] + args) == 0
        assert cli_main(["centrality", graph, "--measure", "mgc_wk"] + args) == 0
        assert cli_main(["evaluate", graph, str(out_dir / "synth_club.spread.csv"),
                         "--measures", "c_os,sk3,gc_w,mgc_wk", "--top-k", "10"]
                        + args) == 0
        assert cli_main(["report", str(out_dir / "synth_club.evaluation.csv")]
                        + args) == 0
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    capsys.readouterr()
    same_names = sorted(first) == sorted(second)
    same_bytes = same_names and all(first[name] == second[name] for name in first)
    report(f"7 pipeline-determinism ({len(first)} files byte-identical)", same_bytes)
    assert same_names
    assert same_bytes


# ---------------------------------------------------------------------------
# criterion 8: property suites, 500 cases each
# ---------------------------------------------------------------------------

SUITE_SETTINGS = settings(max_examples=500, deadline=None,
                          suppress_health_check=[HealthCheck.too_slow,
                                                 HealthCheck.data_too_large,
                                                 HealthCheck.filter_too_much])


def _edge_sets(max_n=7):
    return st.integers(2, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                    .filter(lambda e: e[0] != e[1]),
                    min_size=1, max_size=min(16, n * (n - 1)))))


@SUITE_SETTINGS
@given(_edge_sets())
def _check_wcs_sums(data):
    n, edges = data
    net = apply_wcs(Network.from_edges(n, sorted(edges)))
    sums = np.bincount(net.dst, weights=net.weight, minlength=n)
    indeg = net.in_degree()
    assert np.all(np.abs(sums[indeg > 0] - 1.0) <= 1e-12)
    assert np.all(sums[indeg == 0] == 0.0)


@SUITE_SETTINGS
@given(st.lists(st.integers(0, 6), min_size=2, max_size=40).filter(
           lambda xs: len(set(xs)) > 1),
       st.lists(st.integers(0, 6), min_size=2, max_size=40).filter(
           lambda ys: len(set(ys)) > 1),
       st.sampled_from(["affine", "exp", "cubic"]))
def _check_tau_monotone_invariance(xs, ys, transform):
    n = min(len(xs), len(ys))
    x = np.array(xs[:n], dtype=float)
    y = np.array(ys[:n], dtype=float)
    if len(set(x.tolist())) < 2 or len(set(y.tolist())) < 2:
        return
    base = kendall_tau(x, y)
    if transform == "affine":
        tx = 2.5 * x + 3.0
    elif transform == "exp":
        tx = np.exp(x / 2.0)
    else:
        tx = x ** 3 + x
    assert abs(kendall_tau(tx, y) - base) <= 1e-12


@SUITE_SETTINGS
@given(st.lists(st.integers(0, 5), min_size=2, max_size=60))
def _check_monotonicity_bounds(levels):
    values = np.array(levels, dtype=float)
    m = monotonicity(values)
    assert 0.0 <= m <= 1.0
    if len(set(levels)) == 1:
        assert m == 0.0
    if len(set(levels)) == len(levels):
        assert m == 1.0


@SUITE_SETTINGS
@given(_edge_sets(max_n=6), st.integers(0, 2 ** 31 - 1))
def _check_gravity_radius_monotone(data, mass_seed):
    n, edges = data
    net = apply_wcs(Network.from_edges(n, sorted(edges)))
    g = view(net, ViewKind.DW, WeightMode.INVERTED)
    mass = np.random.default_rng(mass_seed).random(n)
    previous = gravity(g, mass, 1)
    for radius in (2, 3):
        current = gravity(g, mass, radius)
        assert np.all(current >= previous - 1e-12)
        previous = current


def test_criterion_8_property_suites():
    suites = [
        ("wcs-incoming-sums", _check_wcs_sums),
        ("tau-monotone-invariance", _check_tau_monotone_invariance),
        ("monotonicity-bounds", _check_monotonicity_bounds),
        ("gravity-radius-monotone", _check_gravity_radius_monotone),
    ]
    failures = []
    for name, suite in suites:
        try:
            suite()
            print(f"\nACCEPTANCE 8 property-{name}: PASS")
        except Exception as exc:  # re-reported below with the suite name
            print(f"\nACCEPTANCE 8 property-{name}: FAIL")
            failures.append((name, exc))
    if failures:
        name, exc = failures[0]
        raise AssertionError(f"property suite {name} failed: {exc!r}") from exc
