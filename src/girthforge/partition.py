"""Greedy local-search (k-1)-partition with a per-vertex degree guarantee.

Used standalone for families of chromatic number k and as the bipartization
step inside the even-cycle-free edge extractor (k = 3).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from .graph import Graph, edge_subgraph


@dataclass(frozen=True)
class Partition:
    """Vertex -> part index in 0..k-2 for a (k-1)-partition."""

    parts: tuple[int, ...]
    k: int

    def __post_init__(self):
        if any(not (0 <= p < self.k - 1) for p in self.parts):
            raise ValueError("part index outside 0..k-2")


def max_kpartite(g: Graph, k: int, seed: int) -> tuple[Partition, Graph]:
    """Local-search partition into k-1 parts; returns it with the cross-part
    spanning subgraph.

    Starting from a seeded uniform assignment, the lowest-index vertex with
    more than d(v)/(k-1) neighbors in its own part moves to the part
    holding fewest of its neighbors (lowest index on ties), until no vertex
    violates.  A move changes only the mover's state, which it leaves
    satisfied, and its neighbors' states, so violating vertices wait in a
    min-heap that is revalidated lazily when popped.  Every move raises the
    cut by at least one, so at most m moves happen, and at termination
    every vertex keeps at least (1 - 1/(k-1)) * d(v) cross edges (exact
    integer comparison).
    """
    if k < 3:
        raise ValueError("k must be >= 3")
    p = k - 1
    rng = random.Random(seed)
    part = [rng.randrange(p) for _ in range(g.n)]
    # cnt[v][j] = neighbors of v currently in part j
    cnt = [[0] * p for _ in range(g.n)]
    for u, v in g.edges:
        cnt[u][part[v]] += 1
        cnt[v][part[u]] += 1

    def violates(v: int) -> bool:
        return cnt[v][part[v]] * p > len(g.adjacency[v])

    heap = [v for v in range(g.n) if violates(v)]  # ascending, so a heap
    moves = 0
    while heap:
        v = heapq.heappop(heap)
        if not violates(v):
            continue  # stale entry
        row = cnt[v]
        target = min(range(p), key=lambda j: (row[j], j))
        old = part[v]
        part[v] = target
        for w in g.adjacency[v]:
            cnt[w][old] -= 1
            cnt[w][target] += 1
            if violates(w):
                heapq.heappush(heap, w)
        moves += 1
        if moves > g.m:
            raise AssertionError("local search exceeded its move bound")
    partition = Partition(tuple(part), k)
    cross = edge_subgraph(g, lambda e: part[e[0]] != part[e[1]])
    return partition, cross
