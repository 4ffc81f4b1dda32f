"""Extremal host graphs and input-graph generators.

Hosts are the fixed graphs that vertex labelings embed into; every host
carries a verified certificate (forbidden-family freeness, exact girth,
minimum degree).  Construction aborts if verification fails.  The three
host constructors are the only memoized functions, each by a bounded cache.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from dataclasses import dataclass, replace
from typing import Optional

from .graph import (
    CertificationError,
    CycleWitness,
    ForbiddenFamily,
    Graph,
    GirthValue,
    certify,
    check_family_free,
    closes_forbidden_cycle,
    girth,
    induced_subgraph,
    pair_from_index,
)

GREEDY_ORDER_CAP = 3000  # all-pairs permutation kept in memory
MAX_PLANE_ORDER = 101  # largest prime q of a PG(2,q) host


@dataclass(frozen=True)
class HostGraph:
    """A graph plus its verified certificate.

    ``parts`` carries a bipartition when the construction is bipartite;
    ``degraded`` marks best-effort outputs whose requested guarantee could
    not be met (the achieved values are still verified).
    """

    graph: Graph
    certified_family: Optional[ForbiddenFamily]
    certified_girth: GirthValue
    min_degree: int
    label: str
    parts: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    degraded: bool = False

    @property
    def order(self) -> int:
        return self.graph.n

    def metadata_block(self) -> str:
        """Human-readable side-car record for exported hosts."""
        fam = self.certified_family.describe() if self.certified_family else "none"
        lines = [
            f"label: {self.label}",
            f"order: {self.graph.n}",
            f"edges: {self.graph.m}",
            f"certified_family: {fam}",
            f"certified_girth: {self.certified_girth!r}",
            f"min_degree: {self.min_degree}",
            f"degraded: {str(self.degraded).lower()}",
        ]
        return "\n".join(lines) + "\n"


def certify_host(
    graph: Graph,
    family: Optional[ForbiddenFamily],
    label: str,
    parts=None,
    degraded: bool = False,
    known_girth: Optional[GirthValue] = None,
) -> HostGraph:
    """Certify ``graph`` and assemble its HostGraph; raises
    CertificationError on failure.

    The only place a host is certified.  The family check and the girth
    come from one :func:`graph.certify` call (or :func:`girth` alone when
    nothing is forbidden).  A construction that proves its girth by other
    means passes ``known_girth``, and only the family is checked.
    """
    what = f"host {label!r}"
    if known_girth is not None:
        if family is not None and not check_family_free(graph, family).free:
            raise CertificationError(f"{what} contains a cycle of {family.describe()}")
        g_val = known_girth
    elif family is not None:
        g_val = certify(graph, family, what)
    else:
        g_val = girth(graph)
    return HostGraph(
        graph=graph,
        certified_family=family,
        certified_girth=g_val,
        min_degree=graph.min_degree(),
        label=label,
        parts=parts,
        degraded=degraded,
    )


# ---------------------------------------------------------------------------
# primes and projective-plane machinery
# ---------------------------------------------------------------------------


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def smallest_prime_with_plane_order(size: int) -> int:
    """Smallest prime q with q*q + q + 1 >= size (trial division)."""
    q = 2
    while q * q + q + 1 < size:
        q += 1
    while not is_prime(q):
        q += 1
    return q


def _pg2_points(q: int) -> list[tuple[int, int, int]]:
    """Normalized homogeneous triples: one representative per projective point."""
    pts = [(1, a, b) for a in range(q) for b in range(q)]
    pts.extend((0, 1, a) for a in range(q))
    pts.append((0, 0, 1))
    return pts


def _pg2_orthogonal_pairs(q: int):
    """Index arrays (i, j) of the pairs of projective points with
    x_i . x_j == 0 (mod q), in row-major order (i, then j).

    Each point x has exactly q + 1 such y, found in closed form with
    modular inverses, in increasing index order: first the y = (1, a, b)
    (index a q + b), then the y = (0, 1, a) (q^2 + a) or (0, 0, 1)
    (q^2 + q).  By the form of x:

    - x2 != 0: b = -(x0 + x1 a) / x2 for each a, then a = -x1 / x2.
    - x2 == 0, x1 != 0: a = -x0 / x1 with every b, then (0, 0, 1).
    - x = (1, 0, 0): every (0, 1, a), then (0, 0, 1).

    The work and memory are O(n q) for the n = q^2 + q + 1 points, not the
    n^2 products of the definition.
    """
    import numpy as np

    x0, x1, x2 = np.array(_pg2_points(q), dtype=np.int64).T
    inv = np.array([0] + [pow(v, -1, q) for v in range(1, q)], dtype=np.int64)
    free = np.arange(q, dtype=np.int64)
    ys = np.empty((len(x0), q + 1), dtype=np.int64)  # row i: the j of point i
    s = np.flatnonzero(x2)
    ys[s, :q] = free * q + -(x0[s, None] + x1[s, None] * free) * inv[x2[s], None] % q
    ys[s, q] = q * q + -x1[s] * inv[x2[s]] % q
    s = np.flatnonzero((x2 == 0) & (x1 != 0))
    ys[s, :q] = (-x0[s, None] * inv[x1[s], None] % q) * q + free
    ys[s, q] = q * q + q
    s = np.flatnonzero((x2 == 0) & (x1 == 0))
    ys[s, :q] = q * q + free
    ys[s, q] = q * q + q
    return np.repeat(np.arange(len(x0)), q + 1), ys.ravel()


@functools.lru_cache(maxsize=4)
def polarity_graph(q: int) -> HostGraph:
    """C4-free polarity graph of the projective plane of order q.

    Vertices are the q^2+q+1 projective points; x ~ y iff x . y == 0 (mod q)
    and x != y.  Degrees are q+1, except q at the q+1 absolute points.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if not (2 <= q <= MAX_PLANE_ORDER):
        raise ValueError(f"q outside the supported range 2..{MAX_PLANE_ORDER}")
    n = q * q + q + 1
    rows, cols = _pg2_orthogonal_pairs(q)
    upper = rows < cols
    graph = Graph.from_edges(n, zip(rows[upper].tolist(), cols[upper].tolist()))
    host = certify_host(
        graph,
        ForbiddenFamily.even_cycles_up_to(4),
        label=f"polarity(q={q})",
    )
    expected_m = q * (q + 1) ** 2 // 2
    if graph.m != expected_m:
        raise CertificationError(
            f"polarity(q={q}) edge count {graph.m} != {expected_m}"
        )
    return host


@functools.lru_cache(maxsize=4)
def incidence_graph_pg2(q: int) -> HostGraph:
    """Point-line incidence graph of PG(2,q): bipartite, (q+1)-regular, girth 6.

    Point i is joined to line n + j (n = q^2+q+1, lines dual to points)
    when x_i . x_j == 0 (mod q).  The exact girth is certified without a
    girth scan: every edge is checked to join the two parts, the one C4
    check (the even:4 family in :func:`certify_host`) rules out 4-cycles,
    and an exhibited 6-cycle pins the girth at 6.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if not (2 <= q <= MAX_PLANE_ORDER):
        raise ValueError(f"q outside the supported range 2..{MAX_PLANE_ORDER}")
    n = q * q + q + 1
    rows, cols = _pg2_orthogonal_pairs(q)
    graph = Graph.from_edges(2 * n, zip(rows.tolist(), (cols + n).tolist()))
    parts = (tuple(range(n)), tuple(range(n, 2 * n)))
    for v in range(2 * n):
        if graph.degree(v) != q + 1:
            raise CertificationError(f"incidence(q={q}): vertex {v} not (q+1)-regular")
    return certify_host(
        graph,
        ForbiddenFamily.even_cycles_up_to(4),
        label=f"incidence_pg2(q={q})",
        parts=parts,
        known_girth=_bipartite_girth_six(graph, parts),
    )


def _bipartite_girth_six(graph: Graph, parts) -> int:
    """Girth exactly 6 for a C4-free graph with the bipartition ``parts``.

    ``parts`` is checked to partition the vertices, and no vertex to have
    a neighbor on its own side, in O(n + m); so every edge joins the two
    sides and the graph has no odd cycle.  A 6-cycle is then built from
    vertex 0: its two smallest neighbors l1 < l2, the smallest other
    neighbor p1 of l1 and p2 of l2, and the smallest common neighbor of p1
    and p2.  It is checked by :meth:`CycleWitness.validate`, and any
    failure raises CertificationError.

    C4-freeness is not checked here.  The caller passes the result to
    :func:`certify_host` with the even:4 family, and that check raises before
    any host is returned if the graph has a C4.
    """
    sides = [frozenset(part) for part in parts]
    if sides[0] | sides[1] != frozenset(range(graph.n)) or sum(map(len, parts)) != graph.n:
        raise CertificationError("parts do not partition the vertex set")
    adj = graph.adjacency
    if any(not side.isdisjoint(adj[v]) for side in sides for v in side):
        raise CertificationError("an edge lies inside one part")
    try:
        l1, l2 = adj[0][:2]
        p1 = next(p for p in adj[l1] if p != 0)
        p2 = next(p for p in adj[l2] if p != 0)
        l3 = min(graph.adjacency_sets[p1] & graph.adjacency_sets[p2])
    except (IndexError, StopIteration, ValueError):
        raise CertificationError("no 6-cycle exhibited from vertex 0") from None
    CycleWitness((0, l1, p1, l3, p2, l2)).validate(graph)
    return 6


# ---------------------------------------------------------------------------
# greedy high-girth construction
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def greedy_high_girth(n: int, min_girth: int, seed: int) -> HostGraph:
    """Maximal girth->=min_girth graph from one seeded pass over all pairs.

    Scans a seeded uniform permutation of the vertex pairs, adding an edge
    iff it closes no cycle shorter than ``min_girth``; certified per run.
    The result depends only on the arguments, so the last few are cached.
    """
    if not (n >= min_girth >= 3):
        raise ValueError("need n >= min_girth >= 3")
    if n > GREEDY_ORDER_CAP:
        raise ValueError(f"greedy construction capped at {GREEDY_ORDER_CAP} vertices")
    total = n * (n - 1) // 2
    order = list(range(total))
    random.Random(seed).shuffle(order)
    adj: list[set] = [set() for _ in range(n)]
    edges: list[tuple[int, int]] = []
    # cycles shorter than min_girth; with min_girth 3 nothing is forbidden
    family = (
        ForbiddenFamily.all_cycles_up_to(min_girth - 1) if min_girth >= 4 else None
    )
    for idx in order:
        u, v = pair_from_index(n, idx)
        if family is None or not closes_forbidden_cycle(adj, u, v, family):
            adj[u].add(v)
            adj[v].add(u)
            edges.append((u, v))
    graph = Graph.from_edges(n, edges)
    # certifying all:(min_girth - 1) proves girth >= min_girth
    label = f"greedy(n={n},girth>={min_girth},seed={seed})"
    return certify_host(graph, family, label=label)


# ---------------------------------------------------------------------------
# dense sub-hosts and trimming
# ---------------------------------------------------------------------------


def dense_subhost(g_prime: HostGraph, k: int) -> HostGraph:
    """Subgraph of order in (k, 2k] and large min degree via low-degree pruning.

    The degree threshold is the construction's own edge count over 4k.  If
    pruning would drop the order to <= k, the last iterate with order > k is
    returned with its achieved min degree and flagged degraded; if the input
    order already exceeds 2k the (possibly pruned) result is flagged too.

    When nothing can be pruned (order <= k + 1, or the parent's min degree
    meets the threshold) the parent is returned under the new label with
    its certificate; a pruned subgraph is certified against the parent's
    family by one :func:`certify_host` call (one girth search for all:L).
    """
    if k < 1:
        raise ValueError("target size must be >= 1")
    g = g_prime.graph
    threshold = -(-g.m // (4 * k))  # ceil(m / 4k)
    label = f"dense_subhost(k={k}) of {g_prime.label}"
    if g.n <= k + 1 or g_prime.min_degree >= threshold:
        degraded = g.n > 2 * k or g_prime.min_degree < threshold
        return replace(g_prime, label=label, degraded=degraded)
    degraded = g.n > 2 * k
    alive = [True] * g.n
    deg = list(g.degrees())
    order = g.n
    # lowest-index victim first; lazily revalidated heap
    candidates = [v for v in range(g.n) if deg[v] < threshold]
    heapq.heapify(candidates)
    while order > k + 1 and candidates:
        victim = heapq.heappop(candidates)
        if not alive[victim] or deg[victim] >= threshold:
            continue
        alive[victim] = False
        order -= 1
        for w in g.adjacency[victim]:
            if alive[w]:
                deg[w] -= 1
                if deg[w] < threshold:
                    heapq.heappush(candidates, w)
    if any(alive[v] and deg[v] < threshold for v in range(g.n)):
        degraded = True
    keep = [v for v in range(g.n) if alive[v]]
    sub, _ = induced_subgraph(g, keep)
    return certify_host(sub, g_prime.certified_family, label=label, degraded=degraded)


def bipartite_trim(
    g: Graph,
    parts: tuple[tuple[int, ...], tuple[int, ...]],
    k: int,
) -> tuple[Graph, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Induced subgraph on the top-k part-A vertices (by degree, ties by
    lower index) plus all of part B; relabeled compactly."""
    part_a, part_b = parts
    if k > len(part_a):
        raise ValueError(f"k={k} exceeds |A|={len(part_a)}")
    set_a = set(part_a)
    if len(set_a | set(part_b)) != g.n or len(set_a) + len(part_b) != g.n:
        raise ValueError("parts do not partition the vertex set")
    for u, v in g.edges:
        if (u in set_a) == (v in set_a):
            raise ValueError("graph is not bipartite with the given parts")
    ranked = sorted(part_a, key=lambda v: (-g.degree(v), v))[:k]
    keep = sorted(ranked) + sorted(part_b)
    sub, mapping = induced_subgraph(g, keep)
    pos = {old: new for new, old in enumerate(mapping)}
    new_a = tuple(sorted(pos[v] for v in ranked))
    new_b = tuple(sorted(pos[v] for v in part_b))
    return sub, (new_a, new_b)


# ---------------------------------------------------------------------------
# input-graph generators
# ---------------------------------------------------------------------------


def star(n: int) -> Graph:
    """Star with n leaves (n+1 vertices), center 0."""
    if n < 0:
        raise ValueError("leaf count must be >= 0")
    return Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)])


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("order must be >= 0")
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b}: part A = 0..a-1, part B = a..a+b-1."""
    if a < 0 or b < 0:
        raise ValueError("part sizes must be >= 0")
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def clique_apex(delta: int, Delta: int) -> Graph:
    """Delta disjoint copies of K_{delta+1} plus an apex joined to one vertex
    per clique; min degree delta, apex degree Delta."""
    if delta < 1 or Delta < 1:
        raise ValueError("need delta >= 1 and Delta >= 1")
    edges = []
    size = delta + 1
    for c in range(Delta):
        base = 1 + c * size
        edges.extend(
            (base + i, base + j) for i in range(size) for j in range(i + 1, size)
        )
        edges.append((0, base))
    return Graph.from_edges(1 + Delta * size, edges)


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform graph with exactly m edges, deterministic given seed."""
    total = n * (n - 1) // 2
    if m > total:
        raise ValueError(f"m={m} exceeds C({n},2)={total}")
    rng = random.Random(seed)
    chosen = rng.sample(range(total), m)
    return Graph.from_edges(n, [pair_from_index(n, idx) for idx in chosen])

