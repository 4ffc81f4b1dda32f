"""Seeded workload inputs, written as edge-list text by the benchmark itself.

Only the standard library's ``random`` is used, never the package's own
generators, so the same seed gives byte-identical inputs on every commit
of the package under test.
"""

from __future__ import annotations

import hashlib
import random

SPARSE_N = 3000
SPARSE_M = 15000
CORPUS_ORDERS = tuple(range(30, 171, 20))  # random corpus graphs, m = 3n


def edge_list_text(n: int, edges) -> str:
    """The package's edge-list format; the header comment records n."""
    lines = [f"# n={n} m={len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def uniform_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    """A uniform random simple graph with m edges and no isolated vertex.

    Draws are repeated until every vertex has an edge: the edge-list format
    cannot name an isolated top vertex, and an isolated vertex would pin
    every output's minimum degree at 0.
    """
    if m > n * (n - 1) // 2:
        raise ValueError(f"m={m} exceeds C({n},2)")
    while True:
        edges: set[tuple[int, int]] = set()
        while len(edges) < m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                edges.add((u, v) if u < v else (v, u))
        touched = {u for e in edges for u in e}
        if len(touched) == n:
            return sorted(edges)


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def complete_bipartite_edges(a: int, b: int) -> list[tuple[int, int]]:
    return [(i, a + j) for i in range(a) for j in range(b)]


def clique_apex_edges(delta: int, apex_degree: int) -> list[tuple[int, int]]:
    """``apex_degree`` disjoint K_{delta+1} plus an apex (vertex 0) joined to
    one vertex of each clique."""
    size = delta + 1
    edges = []
    for c in range(apex_degree):
        base = 1 + c * size
        edges.append((0, base))
        edges.extend(
            (base + i, base + j) for i in range(size) for j in range(i + 1, size)
        )
    return sorted(edges)


def sparse_text(seed: int) -> str:
    """Input of the two CLI workloads: n = 3000, m = 15000 (max degree ~22)."""
    rng = random.Random(seed)
    return edge_list_text(SPARSE_N, uniform_edges(SPARSE_N, SPARSE_M, rng))


def corpus_texts(seed: int) -> list[tuple[str, str]]:
    """The 11 named graphs of the library workload, as edge-list text."""
    rng = random.Random(seed)
    named = [
        (f"gnm-{n}", n, uniform_edges(n, 3 * n, rng)) for n in CORPUS_ORDERS
    ]
    named.append(("clique-apex-3-20", 1 + 20 * 4, clique_apex_edges(3, 20)))
    named.append(("k10x10", 20, complete_bipartite_edges(10, 10)))
    named.append(("k20", 20, complete_edges(20)))
    return [(name, edge_list_text(n, edges)) for name, n, edges in named]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
