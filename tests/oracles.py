"""Independent brute-force oracles used to verify the package algorithms.

Everything here works on plain python/numpy structures and deliberately
avoids the package's algorithm code; only trivially-correct techniques are
used (path enumeration, subset enumeration, dense linear algebra,
Floyd-Warshall, quadratic pair counting).
"""
from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

INF = float("inf")


# ---------------------------------------------------------------------------
# random graph generation (dyadic weights keep float sums exact)
# ---------------------------------------------------------------------------

def dyadic_weight(rng: np.random.Generator) -> float:
    return int(rng.integers(1, 129)) / 64.0


def random_digraph(rng: np.random.Generator, max_n: int = 8, p: float = 0.35,
                   weights: str = "dyadic") -> tuple[int, list[tuple[int, int, float]]]:
    n = int(rng.integers(2, max_n + 1))
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                if weights == "dyadic":
                    w = dyadic_weight(rng)
                elif weights == "unit":
                    w = 1.0
                else:
                    w = float(rng.uniform(0.05, 1.0))
                edges.append((u, v, w))
    return n, edges


def random_undirected(rng: np.random.Generator, max_n: int = 8,
                      p: float = 0.4) -> tuple[int, list[tuple[int, int]]]:
    n = int(rng.integers(2, max_n + 1))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return n, edges


def random_connected_undirected(rng: np.random.Generator, max_n: int = 8,
                                extra_p: float = 0.3) -> tuple[int, list[tuple[int, int]]]:
    """Random tree plus extra edges, guaranteeing one component."""
    n = int(rng.integers(2, max_n + 1))
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_p:
                edges.add((u, v))
    return n, sorted(edges)


def random_sparse_digraph(rng: np.random.Generator, max_edges: int = 14,
                          max_n: int = 10) -> tuple[int, list[tuple[int, int]]]:
    """Directed graph with a bounded edge count, for exhaustive enumeration."""
    n = int(rng.integers(2, max_n + 1))
    possible = [(u, v) for u in range(n) for v in range(n) if u != v]
    m = int(rng.integers(1, min(max_edges, len(possible)) + 1))
    chosen = rng.choice(len(possible), size=m, replace=False)
    return n, [possible[i] for i in chosen]


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

def bf_exact_spread(n: int, edges: list[tuple[int, int, float]], seed: int) -> float:
    """Expected cascade size by explicit outcome enumeration with set BFS."""
    m = len(edges)
    total = 0.0
    for mask in range(1 << m):
        prob = 1.0
        adj = defaultdict(list)
        for j, (u, v, p) in enumerate(edges):
            if mask >> j & 1:
                prob *= p
                adj[u].append(v)
            else:
                prob *= 1.0 - p
        reached = {seed}
        stack = [seed]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in reached:
                    reached.add(v)
                    stack.append(v)
        total += prob * len(reached)
    return total


CONTRACT_BLOCK = 4096  # runs per generator in the documented randomness contract


def bf_cascade_sizes(n: int, edges: list[tuple[int, int, float]], seed_node: int,
                     runs: int, master_seed: int) -> np.ndarray:
    """Cascade size of every run: replayed contract draws, then one plain BFS per run.

    The uniforms of runs ``b*4096 .. b*4096+4095`` come from
    ``default_rng(SeedSequence([master_seed mod 2**64, seed_node, b]))``, one
    row per run and one column per edge; an edge is live when its uniform is
    below its probability.
    """
    rows = []
    for block in range(math.ceil(runs / CONTRACT_BLOCK)):
        seq = np.random.SeedSequence([master_seed % 2**64, seed_node, block])
        count = min(CONTRACT_BLOCK, runs - block * CONTRACT_BLOCK)
        rows.extend(np.random.default_rng(seq).random((count, len(edges))).tolist())
    sizes = []
    for draws in rows:
        adj = defaultdict(list)
        for (u, v, p), r in zip(edges, draws):
            if r < p:
                adj[u].append(v)
        reached = {seed_node}
        queue = [seed_node]
        while queue:
            u = queue.pop()
            for v in adj[u]:
                if v not in reached:
                    reached.add(v)
                    queue.append(v)
        sizes.append(len(reached))
    return np.array(sizes, dtype=np.int64)


# ---------------------------------------------------------------------------
# shortest-path centralities
# ---------------------------------------------------------------------------

def _adjacency(n: int, edges, directed: bool) -> dict[int, list[tuple[int, float]]]:
    adj: dict[int, list[tuple[int, float]]] = {u: [] for u in range(n)}
    for u, v, w in edges:
        adj[u].append((v, w))
        if not directed:
            adj[v].append((u, w))
    return adj


def bf_betweenness(n: int, edges: list[tuple[int, int, float]], directed: bool) -> np.ndarray:
    """Dependency accumulation by enumerating every simple path."""
    adj = _adjacency(n, edges, directed)
    bc = np.zeros(n)
    pairs = [(s, t) for s in range(n) for t in range(n) if s != t]
    if not directed:
        pairs = [(s, t) for s, t in pairs if s < t]
    for s, t in pairs:
        paths: list[tuple[tuple[int, ...], float]] = []

        def dfs(node: int, visited: list[int], length: float) -> None:
            if node == t:
                paths.append((tuple(visited), length))
                return
            for nxt, w in adj[node]:
                if nxt not in visited:
                    visited.append(nxt)
                    dfs(nxt, visited, length + w)
                    visited.pop()

        dfs(s, [s], 0.0)
        if not paths:
            continue
        dmin = min(length for _, length in paths)
        shortest = [p for p, length in paths if length == dmin]
        sigma = len(shortest)
        through = defaultdict(int)
        for p in shortest:
            for node in p[1:-1]:
                through[node] += 1
        for node, cnt in through.items():
            bc[node] += cnt / sigma
    return bc


def floyd_warshall(n: int, edges, directed: bool) -> np.ndarray:
    dist = np.full((n, n), INF)
    np.fill_diagonal(dist, 0.0)
    for u, v, w in edges:
        dist[u, v] = min(dist[u, v], w)
        if not directed:
            dist[v, u] = min(dist[v, u], w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                alt = dist[i, k] + dist[k, j]
                if alt < dist[i, j]:
                    dist[i, j] = alt
    return dist


def bf_closeness(n: int, edges: list[tuple[int, int, float]], directed: bool = True) -> np.ndarray:
    """Component-scaled outbound closeness from Floyd-Warshall distances."""
    dist = floyd_warshall(n, edges, directed)
    values = np.zeros(n)
    if n < 2:
        return values
    for u in range(n):
        finite = np.isfinite(dist[u])
        finite[u] = False
        reached = int(finite.sum())
        if reached:
            values[u] = (reached / (n - 1)) * (reached / dist[u, finite].sum())
    return values


# ---------------------------------------------------------------------------
# spectral measures
# ---------------------------------------------------------------------------

def bf_eigenvector(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    lead = eigenvectors[:, -1]
    if lead.sum() < 0:
        lead = -lead
    return np.abs(lead)  # Perron vector of a connected graph is sign-definite


def dense_adjacency(n: int, edges) -> np.ndarray:
    """Weighted adjacency matrix of (u, v, w) edges."""
    a = np.zeros((n, n))
    for u, v, w in edges:
        a[u, v] = w
    return a


def bf_katz(n: int, edges: list[tuple[int, int, float]], alpha: float,
            outgoing: bool, terms: int = 80) -> np.ndarray:
    a = dense_adjacency(n, edges)
    result = np.zeros(n)
    power = np.eye(n)
    for k in range(1, terms + 1):
        power = power @ a
        contribution = power.sum(axis=1) if outgoing else power.sum(axis=0)
        result += alpha ** k * contribution
    return result


# ---------------------------------------------------------------------------
# cores
# ---------------------------------------------------------------------------

def bf_core_numbers(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """ks(u) = max k with u inside some subset of minimum induced degree k.

    The k-core is the union of all such subsets, found by enumerating all
    2^n node subsets (n <= ~12).
    """
    neighbor_sets = [set() for _ in range(n)]
    for u, v in edges:
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    ks = np.zeros(n, dtype=np.int64)
    for mask in range(1, 1 << n):
        members = [u for u in range(n) if mask >> u & 1]
        member_set = set(members)
        min_deg = min(len(neighbor_sets[u] & member_set) for u in members)
        for u in members:
            ks[u] = max(ks[u], min_deg)
    return ks


# ---------------------------------------------------------------------------
# gravity
# ---------------------------------------------------------------------------

def bf_hop_set(n: int, edges, u: int, r: int, directed: bool = True) -> set[int]:
    adj = _adjacency(n, [(a, b, 1.0) for a, b, *_ in edges], directed)
    seen = {u}
    frontier = [u]
    for _ in range(r):
        nxt = []
        for a in frontier:
            for b, _ in adj[a]:
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    seen.discard(u)
    return seen


def bf_gravity(n: int, edges: list[tuple[int, int, float]], mass: np.ndarray,
               r: int, directed: bool = True) -> np.ndarray:
    """Double loop over (u, v) with hop filter; distances by Floyd-Warshall
    on the subgraph induced by the hop neighborhood."""
    scores = np.zeros(n)
    for u in range(n):
        members = bf_hop_set(n, edges, u, r, directed)
        if not members or mass[u] == 0:
            continue
        allowed = members | {u}
        sub_edges = [(a, b, w) for a, b, w in edges if a in allowed and b in allowed]
        index = {node: i for i, node in enumerate(sorted(allowed))}
        dist = floyd_warshall(len(allowed),
                              [(index[a], index[b], w) for a, b, w in sub_edges],
                              directed)
        total = 0.0
        for v in members:
            d = dist[index[u], index[v]]
            total += mass[v] / d ** 2
        scores[u] = mass[u] * total
    return scores


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------

def bf_kendall(x: np.ndarray, y: np.ndarray) -> float:
    n = len(x)
    nc = nd = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            prod = dx * dy
            if prod > 0:
                nc += 1
            elif prod < 0:
                nd += 1
    n0 = n * (n - 1) // 2
    n1 = sum(t * (t - 1) // 2 for t in _tie_sizes(x))
    n2 = sum(t * (t - 1) // 2 for t in _tie_sizes(y))
    return (nc - nd) / math.sqrt((n0 - n1) * (n0 - n2))


def _tie_sizes(values: np.ndarray) -> list[int]:
    _, counts = np.unique(values, return_counts=True)
    return [int(c) for c in counts]


def bf_ranking_error(scores: np.ndarray, spread: np.ndarray, k: int) -> float:
    by_score = sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:k]
    by_spread = sorted(range(len(spread)), key=lambda i: (-spread[i], i))[:k]
    return 1.0 - sum(spread[i] for i in by_score) / sum(spread[j] for j in by_spread)


def bf_monotonicity(values: np.ndarray) -> float:
    n = len(values)
    rounded = [round(float(v), 12) for v in values]
    counts = defaultdict(int)
    for v in rounded:
        counts[v] += 1
    tied = sum(c * (c - 1) for c in counts.values())
    return (1.0 - tied / (n * (n - 1))) ** 2
