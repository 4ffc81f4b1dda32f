"""Independent ground truth at desk scale.

Exact family-constrained Turán numbers by branch and bound, and the
cherry (common-neighbor) bound for C4-free bipartite graphs.  Used to
validate extractor outputs, never to produce them.  The branch and bound
decides each edge with :func:`graph.closes_forbidden_cycle`, the test
that decides every edge of the greedy extractor, so the oracle is
independent of the extractors' pipelines but not of that test.  It also
removes edges, so it keeps no two-step sets and passes none: its even
queries go to the test's path search, never to the C4 and C6 set rule
that the greedy's kept sets feed.  ``tests/bruteforce.py`` checks the
test itself.  The witness is re-certified by
:func:`graph.check_family_free`, which does not use that test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import (
    CycleWitness,
    ForbiddenFamily,
    Graph,
    check_family_free,
    check_parts,
    closes_forbidden_cycle,
)

EXACT_EDGE_CAP = 30


@dataclass(frozen=True)
class ExactResult:
    """Certified maximum: ``witness`` achieves ``value`` and no family-free
    subgraph does better (exhaustive search with sound pruning)."""

    value: int
    witness: tuple[tuple[int, int], ...]
    explored: int


def exact_ex(g: Graph, fam: ForbiddenFamily) -> ExactResult:
    """Exact ex(g, fam) by branch and bound over edge inclusion.

    Edges are tried in degree-sum-descending order (constrain early); a
    branch is cut when even keeping every remaining edge cannot beat the
    incumbent.  Deterministic value; the witness is one maximizer.
    """
    if g.m > EXACT_EDGE_CAP:
        raise ValueError(
            f"exact search capped at {EXACT_EDGE_CAP} edges, got m={g.m}"
        )
    order = sorted(
        g.edges, key=lambda e: (-(g.degree(e[0]) + g.degree(e[1])), e)
    )
    total = len(order)
    adj: list[set] = [set() for _ in range(g.n)]
    chosen: list[tuple[int, int]] = []
    best_value = -1
    best_witness: tuple[tuple[int, int], ...] = ()
    explored = 0

    def dfs(i: int, count: int) -> None:
        nonlocal best_value, best_witness, explored
        explored += 1
        if count > best_value:
            best_value = count
            best_witness = tuple(chosen)
        if i == total or count + (total - i) <= best_value:
            return
        u, v = order[i]
        if not closes_forbidden_cycle(adj, u, v, fam):
            adj[u].add(v)
            adj[v].add(u)
            chosen.append((u, v))
            dfs(i + 1, count + 1)
            chosen.pop()
            adj[u].remove(v)
            adj[v].remove(u)
        dfs(i + 1, count)

    dfs(0, 0)
    witness_graph = Graph.from_edges(g.n, best_witness)
    verdict = check_family_free(witness_graph, fam)
    if not verdict.free:
        raise AssertionError("oracle witness failed re-certification")
    return ExactResult(best_value, best_witness, explored)


@dataclass(frozen=True)
class CherryVerdict:
    """Outcome of the cherry double count on a bipartite graph."""

    holds: bool
    cherries: int
    capacity: int
    violation: Optional[CycleWitness] = None


def cherry_check(
    h: Graph, parts: tuple[tuple[int, ...], tuple[int, ...]]
) -> CherryVerdict:
    """Double-count cherries at part-A vertices against C(|B|, 2).

    ``parts`` must pass :func:`graph.check_parts`.  A violation witness is
    a B-pair with two common A-neighbors, i.e. a C4.  When no B-pair
    repeats, the count inequality follows and the verdict holds.
    """
    check_parts(h, parts)
    part_a, part_b = parts
    cherries = sum(
        h.degree(a) * (h.degree(a) - 1) // 2 for a in part_a
    )
    capacity = len(part_b) * (len(part_b) - 1) // 2
    seen: dict[tuple[int, int], int] = {}
    for a in part_a:
        nbrs = h.adjacency[a]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                key = (nbrs[i], nbrs[j])
                other = seen.get(key)
                if other is not None:
                    witness = CycleWitness((other, key[0], a, key[1]))
                    witness.validate(h)
                    return CherryVerdict(False, cherries, capacity, witness)
                seen[key] = a
    if cherries > capacity:
        raise AssertionError(
            "cherry count exceeds capacity without a repeated pair"
        )
    return CherryVerdict(True, cherries, capacity)
