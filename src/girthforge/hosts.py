"""Extremal host graphs and input-graph generators.

Hosts are the fixed graphs that vertex labelings embed into; every host
carries a verified certificate (forbidden-family freeness, exact girth,
minimum degree).  Every host, the PG(2,q) incidence graph included, is
certified by the same :func:`graph.certify` search as every output, and
construction aborts if it fails.  The three host constructors are the only
memoized functions, each by a bounded cache.  The PG(2,q) orders this module
builds are one table, :data:`PLANE_ORDERS`, and every caller picks its order
from it through :func:`smallest_prime_with_plane_order`.  Both PG(2,q) hosts
are built in plain Python from one closed form, :func:`_pg2_orthogonal_rows`,
whose sorted rows :meth:`graph.Graph._from_upper_rows` assembles with no
set, sort or pair list.
"""

from __future__ import annotations

import array
import bisect
import functools
import itertools
import operator
import random
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Optional

from .graph import (
    CertificationError,
    ForbiddenFamily,
    Graph,
    certify,
    check_parts,
    girth,
    girth_json,
    pair_from_index,
)

GREEDY_ORDER_CAP = 3000  # all-pairs permutation kept in memory
DESK_GREEDY_ORDER = 400  # largest greedy host built for a desk-scale step
MAX_PLANE_ORDER = 101  # largest order q of a PG(2,q) host
# the supported plane orders, ascending: the primes up to MAX_PLANE_ORDER
PLANE_ORDERS = tuple(
    q for q in range(2, MAX_PLANE_ORDER + 1) if all(q % d for d in range(2, q))
)


@dataclass(frozen=True)
class HostGraph:
    """A graph plus its verified certificate.

    ``parts`` carries a bipartition when the construction is bipartite.
    """

    graph: Graph
    certified_family: Optional[ForbiddenFamily]
    certified_girth: float
    min_degree: int
    label: str
    parts: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None

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
            f"certified_girth: {girth_json(self.certified_girth)}",
            f"min_degree: {self.min_degree}",
            "degraded: false",
        ]
        return "\n".join(lines) + "\n"


def certify_host(
    graph: Graph,
    family: Optional[ForbiddenFamily],
    label: str,
    parts=None,
) -> HostGraph:
    """Certify ``graph`` and assemble its HostGraph; raises
    CertificationError on failure.

    The only place a host is certified.  The family check and the exact
    girth come from one :func:`graph.certify` call (or :func:`girth` alone
    when nothing is forbidden), the same search every output goes through.
    """
    if family is None:
        g_val = girth(graph)
    else:
        g_val = certify(graph, family, f"host {label!r}")
    return HostGraph(
        graph=graph,
        certified_family=family,
        certified_girth=g_val,
        min_degree=graph.min_degree(),
        label=label,
        parts=parts,
    )


# ---------------------------------------------------------------------------
# projective-plane machinery
# ---------------------------------------------------------------------------


def smallest_prime_with_plane_order(size: int) -> int:
    """Smallest q of :data:`PLANE_ORDERS` with q*q + q + 1 >= size, or
    MAX_PLANE_ORDER when there is none; every PG(2,q) host choice uses it."""
    return next((q for q in PLANE_ORDERS if q * q + q + 1 >= size), MAX_PLANE_ORDER)


def _pg2_points(q: int) -> list[tuple[int, int, int]]:
    """Normalized homogeneous triples: one representative per projective point."""
    pts = [(1, a, b) for a in range(q) for b in range(q)]
    pts.extend((0, 1, a) for a in range(q))
    pts.append((0, 0, 1))
    return pts


def _pg2_orthogonal_rows(q: int) -> Iterator[list[int]]:
    """Row i lists the q + 1 indices j of the projective points with
    x_i . x_j == 0 (mod q), in increasing order; the rows come lazily, in
    the order of :func:`_pg2_points`.

    Each row is found in closed form with modular inverses: first the
    y = (1, a, b) (index a q + b), then the y = (0, 1, a) (q^2 + a) or
    (0, 0, 1) (q^2 + q).  By the form of x:

    - x2 != 0: b = s + t a (mod q) for each a, with s = -x0 / x2 and
      t = -x1 / x2, then a = t.  For t != 0 the b's are the progression
      t a rotated by s / t places, one slice of a table; for t == 0 they
      are all s.
    - x2 == 0, x1 != 0: a = -x0 / x1 with every b, then (0, 0, 1).
    - x = (1, 0, 0): every (0, 1, a), then (0, 0, 1).

    Each row is a few list operations, O(q), for the n = q^2 + q + 1
    points, not the n^2 products of the definition.  This is the one check
    of the plane order for both PG(2,q) hosts: q must be in
    :data:`PLANE_ORDERS`, and the check runs at the call, before anything
    is sized by q.
    """
    if q not in PLANE_ORDERS:
        if q > MAX_PLANE_ORDER:
            raise ValueError(f"q outside the supported range 2..{MAX_PLANE_ORDER}")
        raise ValueError(f"q must be prime, got {q}")
    inv = [0] + [pow(v, -1, q) for v in range(1, q)]
    # progression[t][k:k + q] lists t (a + k) mod q for a = 0..q-1
    progression = [[t * a % q for a in range(q)] * 2 for t in range(q)]
    square = q * q  # the index of (0, 1, 0)
    starts = range(0, square, q)  # a q for each a

    def row(x0: int, x1: int, x2: int) -> list[int]:
        if x2:
            c = inv[x2]
            s, t = -x0 * c % q, -x1 * c % q
            if not t:
                return [*range(s, square, q), square]
            k = s * inv[t] % q
            return [*map(operator.add, starts, progression[t][k:k + q]), square + t]
        if x1:
            base = -x0 * inv[x1] % q * q
            return [*range(base, base + q), square + q]
        return list(range(square, square + q + 1))

    return itertools.starmap(row, _pg2_points(q))


@functools.lru_cache(maxsize=4)
def polarity_graph(q: int) -> HostGraph:
    """C4-free polarity graph of the projective plane of order q.

    Vertices are the q^2+q+1 projective points; x ~ y iff x . y == 0 (mod q)
    and x != y.  Degrees are q+1, except q at the q+1 absolute points.  The
    graph is assembled from each point's orthogonal indices above its own
    (:meth:`Graph._from_upper_rows`), with one int object per vertex id.
    """
    n = q * q + q + 1
    rows = _pg2_orthogonal_rows(q)  # checks q before anything is sized by it
    graph = Graph._from_upper_rows(
        list(range(n)), (row[bisect.bisect_right(row, i):] for i, row in enumerate(rows))
    )
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
    when x_i . x_j == 0 (mod q): a point's row, shifted by n, is its upper
    row for :meth:`Graph._from_upper_rows`, and a line has none.  The
    regularity is checked here, and the even:4 family and the exact girth
    come from the one :func:`certify_host` call that every host makes: the
    graph two-colors, has no C4, and the first 6-cycle found fixes the
    girth at 6.  The edges and the two parts hold one int object per
    vertex id, the one ``ids`` keeps.
    """
    n = q * q + q + 1
    rows = _pg2_orthogonal_rows(q)  # checks q before anything is sized by it
    ids = list(range(2 * n))
    lines = ids[n:]  # line j is vertex n + j
    upper = (list(map(lines.__getitem__, row)) for row in rows)
    graph = Graph._from_upper_rows(ids, itertools.chain(upper, [[]] * n))
    parts = (tuple(ids[:n]), tuple(lines))
    for v in range(2 * n):
        if graph.degree(v) != q + 1:
            raise CertificationError(f"incidence(q={q}): vertex {v} not (q+1)-regular")
    return certify_host(
        graph,
        ForbiddenFamily.even_cycles_up_to(4),
        label=f"incidence_pg2(q={q})",
        parts=parts,
    )


# ---------------------------------------------------------------------------
# greedy high-girth construction
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def greedy_high_girth(n: int, min_girth: int, seed: int) -> HostGraph:
    """Maximal girth->=min_girth graph from one seeded pass over all pairs.

    Scans a seeded uniform permutation of the vertex pairs, adding an edge
    iff it closes no cycle shorter than ``min_girth``; certified per run.
    The result depends only on the arguments, so the last few are cached.

    For ``min_girth >= 4`` a pair uv closes such a cycle exactly when
    dist(u, v) <= R = min_girth - 2.  :func:`_greedy_ball_pass` decides
    each pair by one AND of two stored bitsets, no search: with
    a = ceil(R / 2) and b = R - a it keeps, for every vertex x, ``top[x]``
    (the vertices within distance a of x) and ``low[x]`` (within distance
    b), and dist(u, v) <= R exactly when ``top[u] & low[v]`` is nonzero.
    That state is two n-bit ints per vertex whatever ``min_girth`` is.
    ``min_girth == 3`` forbids nothing and keeps every pair.  Nothing
    trusts the bitsets: the host is certified like every other.
    """
    if not (n >= min_girth >= 3):
        raise ValueError("need n >= min_girth >= 3")
    if n > GREEDY_ORDER_CAP:
        raise ValueError(f"greedy construction capped at {GREEDY_ORDER_CAP} vertices")
    total = n * (n - 1) // 2
    # 4 bytes per pair, not a list of ints; GREEDY_ORDER_CAP keeps every
    # index below 2**31, and shuffle permutes it as it would the list
    order = array.array("i", range(total))
    random.Random(seed).shuffle(order)
    # cycles shorter than min_girth; with min_girth 3 nothing is forbidden
    if min_girth >= 4:
        family = ForbiddenFamily.all_cycles_up_to(min_girth - 1)
        edges = _greedy_ball_pass(n, order, min_girth - 2)
    else:
        family = None
        edges = [pair_from_index(n, idx) for idx in order]
    graph = Graph.from_edges(n, edges)
    # certifying all:(min_girth - 1) proves girth >= min_girth
    label = f"greedy(n={n},girth>={min_girth},seed={seed})"
    return certify_host(graph, family, label=label)


def _greedy_ball_pass(n: int, order: Iterable[int], reach: int) -> list[tuple[int, int]]:
    """The pairs of ``order`` (indices as in :func:`pair_from_index`) kept
    by a greedy pass that adds uv iff dist(u, v) > ``reach`` in the graph
    built so far, in the order they are kept.

    ``top`` and ``low`` hold the balls of radius a and b described in
    :func:`greedy_high_girth` (a + b = ``reach``).  An accepted edge uv
    lies at most once on a new shortest path, so a vertex x at old
    distance i from u gains the old ball of radius a - 1 - i around v in
    ``top[x]`` (and of radius b - 1 - i in ``low[x]``), and the same with
    u and v swapped.  One truncated BFS from each endpoint, to depth
    a - 1 in the old graph, gives those distances and balls; its layers
    and a ints of n bits live only for that edge.
    """
    top_r = (reach + 1) // 2
    low_r = reach - top_r
    top = [1 << x for x in range(n)]
    low = top[:]
    adj: list[list[int]] = [[] for _ in range(n)]
    edges: list[tuple[int, int]] = []
    for idx in order:
        u, v = pair_from_index(n, idx)
        if top[u] & low[v]:
            continue
        layers_u, balls_u = _ball_layers(adj, u, top_r - 1)
        layers_v, balls_v = _ball_layers(adj, v, top_r - 1)
        for layers, balls in ((layers_u, balls_v), (layers_v, balls_u)):
            last = len(balls) - 1
            for i, layer in enumerate(layers):
                grow_top = balls[min(top_r - 1 - i, last)]
                for x in layer:
                    top[x] |= grow_top
                if i < low_r:
                    grow_low = balls[min(low_r - 1 - i, last)]
                    for x in layer:
                        low[x] |= grow_low
        adj[u].append(v)
        adj[v].append(u)
        edges.append((u, v))
    return edges


def _ball_layers(
    adj: list[list[int]], root: int, depth: int
) -> tuple[list[list[int]], list[int]]:
    """BFS layers of ``root`` to ``depth`` (``layers[i]`` at distance i)
    and the cumulative ball bitsets (``balls[i]``: within distance i),
    stopping early when the component is exhausted."""
    layers = [[root]]
    ball = 1 << root
    balls = [ball]
    for _ in range(depth):
        nxt = []
        for x in layers[-1]:
            for y in adj[x]:
                if not ball >> y & 1:
                    ball |= 1 << y
                    nxt.append(y)
        if not nxt:
            break
        layers.append(nxt)
        balls.append(ball)
    return layers, balls


# ---------------------------------------------------------------------------
# dense sub-hosts and trimming
# ---------------------------------------------------------------------------


def dense_subhost(g_prime: HostGraph, k: int) -> HostGraph:
    """The parent host, graph and certificate unchanged, under a
    ``dense_subhost(k=...)`` label.

    Low-degree pruning is never needed for the hosts
    :func:`degree_extract._degree_host` passes: at r = 2 the PG(2,q)
    incidence graph has degree q + 1 = 3-102 against a threshold
    ceil(m / 4k) of 2-29 for every kq from 2 to 16384, and order <= kq + 1
    from 32768 on; at r >= 3 the greedy hosts (at most 400 vertices,
    kq >= 4) have threshold 1 and, being maximal, minimum degree >= 1.
    ``TestDegreeHost`` in the degree extractor's tests re-checks both.
    """
    if k < 1:
        raise ValueError("target size must be >= 1")
    return replace(g_prime, label=f"dense_subhost(k={k}) of {g_prime.label}")


def bipartite_trim(
    g: Graph,
    parts: tuple[tuple[int, ...], tuple[int, ...]],
    ka: int,
    kb: int,
) -> tuple[Graph, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Induced subgraph on the top ``ka`` part-A vertices by degree, then
    the top ``kb`` part-B vertices by their degree into the kept A ones.

    Ties go to the lower index.  The kept vertices are relabeled in index
    order; returns the subgraph and its two parts.  Raises ValueError when
    a size exceeds its part or ``parts`` fail :func:`graph.check_parts`.
    """
    part_a, part_b = parts
    if ka > len(part_a) or kb > len(part_b):
        raise ValueError(f"sizes {(ka, kb)} exceed the parts {(len(part_a), len(part_b))}")
    check_parts(g, parts)
    keep_a = sorted(sorted(part_a, key=lambda v: (-g.degree(v), v))[:ka])
    set_a = set(keep_a)
    into_a = {v: len(set_a.intersection(g.adjacency[v])) for v in part_b}
    keep_b = sorted(sorted(part_b, key=lambda v: (-into_a[v], v))[:kb])
    pos = {v: i for i, v in enumerate(sorted(keep_a + keep_b))}
    edges = [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos]
    sub = Graph.from_edges(len(pos), edges)
    return sub, (tuple(pos[v] for v in keep_a), tuple(pos[v] for v in keep_b))


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

