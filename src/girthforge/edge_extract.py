"""Even-cycle-free subgraph extraction with many edges.

Pipeline: split vertices at degree 2*sqrt(m), bucket the high-degree side
dyadically, then label either the chosen bucket and the low side into a
bipartite host (case 1) or the low side alone into a bipartized host
(case 2); both cases keep the :func:`h_star` edges, those whose color pair
is a host edge and whose colors are unique at both ends.  Fallbacks (spanning forest,
star, matching, greedy) guarantee the best-of result, :func:`report.pick`
by edges, never loses to the trivial answer.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

from .graph import (
    ForbiddenFamily,
    Graph,
    VertexColoring,
    certify,
    closes_forbidden_cycle,
    edge_subgraph,
    family_girth,
)
from .hosts import (
    DESK_GREEDY_ORDER,
    GREEDY_ORDER_CAP,
    HostGraph,
    bipartite_trim,
    certify_host,
    greedy_high_girth,
    incidence_graph_pg2,
    polarity_graph,
    smallest_prime_with_plane_order,
)
from .partition import max_kpartite
from .report import ExtractionReport, pick
from .seeds import mix

# internal salts for sub-seed derivation
_SALT_PARTITION = 101
_SALT_COLORING = 202
_SALT_GREEDY = 303
_SALT_ODDFREE = 404


@dataclass(frozen=True)
class DegreeSplit:
    """Degree split at 2*sqrt(m) plus dyadic buckets of the high side.

    ``buckets[p]`` holds the high-degree vertices whose degree into the low
    side lies in [2^p, 2^{p+1}); ``chosen_q`` indexes the bucket carrying
    the most edges toward the low side (None when no bucket is nonempty).
    """

    v1: tuple[int, ...]
    v2: tuple[int, ...]
    buckets: tuple[tuple[int, ...], ...]
    chosen_q: Optional[int]
    edges_v1_v2: int


def split_and_bucket(g: Graph) -> DegreeSplit:
    """Split at threshold d(v)^2 >= 4m (exact integer comparison)."""
    m = g.m
    if m < 1:
        raise ValueError("graph must have at least one edge")
    v1 = tuple(v for v in range(g.n) if g.degree(v) ** 2 >= 4 * m)
    in_v1 = set(v1)
    v2 = tuple(v for v in range(g.n) if v not in in_v1)
    deg_into_v2 = {
        v: sum(1 for w in g.adjacency[v] if w not in in_v1) for v in v1
    }
    s = m.bit_length()  # buckets 0..floor(log2 m); s <= floor(log2 m) + 1
    buckets: list[list[int]] = [[] for _ in range(s)]
    for v in v1:
        d = deg_into_v2[v]
        if d >= 1:
            buckets[d.bit_length() - 1].append(v)
    weights = [sum(deg_into_v2[v] for v in b) for b in buckets]
    chosen = None
    if any(weights):
        chosen = max(range(s), key=lambda p: (weights[p], -p))
    return DegreeSplit(
        v1=v1,
        v2=v2,
        buckets=tuple(tuple(b) for b in buckets),
        chosen_q=chosen,
        edges_v1_v2=sum(weights),
    )


# ---------------------------------------------------------------------------
# host-labeled subgraphs
# ---------------------------------------------------------------------------


def _labeling(g: Graph, chi: VertexColoring, host: HostGraph):
    """The colors of ``chi`` and the host's neighbor sets, once the
    coloring is checked to label ``g`` into ``host``."""
    if len(chi.colors) != g.n:
        raise ValueError("coloring does not cover the vertex set")
    if chi.ell > host.graph.n:
        raise ValueError("coloring uses more colors than the host has vertices")
    return chi.colors, host.graph.adjacency_sets


def h_prime(g: Graph, chi: VertexColoring, host: HostGraph) -> Graph:
    """Spanning subgraph keeping edges whose color pair is a host edge."""
    colors, host_adj = _labeling(g, chi, host)
    return edge_subgraph(g, lambda e: colors[e[1]] in host_adj[colors[e[0]]])


def h_star(g: Graph, chi: VertexColoring, host: HostGraph) -> Graph:
    """As h_prime, but an edge survives only if each endpoint is the unique
    neighbor of the other carrying its color (1-frugal along kept edges)."""
    colors, host_adj = _labeling(g, chi, host)

    # a vertex's neighbor-color count, built when an edge at it first
    # passes the host test
    @functools.cache
    def seen(v):
        return Counter(colors[w] for w in g.adjacency[v])

    def keep(e):
        u, v = e
        return (
            colors[v] in host_adj[colors[u]]
            and seen(u)[colors[v]] == 1
            and seen(v)[colors[u]] == 1
        )

    return edge_subgraph(g, keep)


# ---------------------------------------------------------------------------
# case 1: high-degree bucket against a bipartite host
# ---------------------------------------------------------------------------


def _case1_host(k: int, b: int, r: int) -> HostGraph:
    """Bipartite even-cycle-free host with parts sized exactly (k, b).

    Best by edge count of: the star host (one part-A center joined to all
    of B), and one bipartite base trimmed by one :func:`bipartite_trim`
    call to the top k of its first side by degree and the top b of its
    second by degree into those k.  The base is for r = 2 the smallest
    projective incidence graph with max(k, b) points (skipped when no
    supported plane has that many), for r >= 3 the bipartite double cover
    of a greedy girth-(2r + 1) graph (skipped when the needed side is below
    2r + 1 or above DESK_GREEDY_ORDER).  Built once per extractor call from
    the cached hosts of :mod:`hosts`.
    """
    fam = ForbiddenFamily.even_cycles_up_to(2 * r)
    candidates: list[tuple[Graph, tuple, str]] = []

    star_edges = [(0, k + j) for j in range(b)]
    star_graph = Graph.from_edges(k + b, star_edges)
    candidates.append(
        (star_graph, (tuple(range(k)), tuple(range(k, k + b))), "star-host")
    )

    side = max(k, b)
    base = None
    if r == 2:
        q = smallest_prime_with_plane_order(side)
        if q * q + q + 1 >= side:
            inc = incidence_graph_pg2(q)
            base, parts, name = inc.graph, inc.parts, f"incidence-trim(q={q})"
    elif 2 * r + 1 <= side <= DESK_GREEDY_ORDER:
        edges = greedy_high_girth(side, 2 * r + 1, 0).graph.edges
        cover = [(u, side + v) for u, v in edges] + [(v, side + u) for u, v in edges]
        base = Graph.from_edges(2 * side, cover)
        parts = (tuple(range(side)), tuple(range(side, 2 * side)))
        name = f"cover-trim(n={side})"
    if base is not None:
        trimmed, parts = bipartite_trim(base, parts, k, b)
        candidates.append((trimmed, parts, name))

    graph, parts, name = max(candidates, key=lambda c: (c[0].m, c[2] == "star-host"))
    label = f"case1:{name}(k={k},b={b},r={r})"
    return certify_host(graph, fam, label=label, parts=parts)


def case1_extract(g: Graph, split: DegreeSplit, host: HostGraph, seed: int) -> Graph:
    """:func:`h_star` of the edges between the chosen bucket and the low
    side.

    Bucket vertex i gets part-A color i and the low side uniform part-B
    colors, drawn in ``split.v2`` order; the rest of V1 has no edge in
    that subgraph and gets part-A color 0.  An edge (u_i, v) survives iff
    the host has the color pair and chi(v) occurs once among u_i's low
    neighbors: the bucket colors are distinct, so the test at v always
    holds.  The result is bipartite and inherits the host's even-cycle
    freeness (certified by the caller regardless).
    """
    if host.parts is None:
        raise ValueError("case-1 host must carry a bipartition")
    if split.chosen_q is None:
        raise ValueError("degree split has no usable bucket")
    if 4 * split.edges_v1_v2 < g.m:
        raise ValueError("case 1 requires e(V1,V2) >= m/4")
    bucket = sorted(split.buckets[split.chosen_q])
    k = len(bucket)
    b = -(-g.m // k)
    part_a, part_b = host.parts
    if len(part_a) != k or len(part_b) != b:
        raise ValueError(
            f"host part sizes {(len(part_a), len(part_b))} != required {(k, b)}"
        )
    rng = random.Random(seed)
    colors = [part_a[0]] * g.n
    for i, u in enumerate(bucket):
        colors[u] = part_a[i]
    for v in split.v2:
        colors[v] = part_b[rng.randrange(b)]
    in_bucket = set(bucket)
    in_v2 = set(split.v2)
    cross = edge_subgraph(
        g,
        lambda e: (e[0] in in_bucket and e[1] in in_v2)
        or (e[0] in in_v2 and e[1] in in_bucket),
    )
    return h_star(cross, VertexColoring(tuple(colors), host.graph.n), host)


# ---------------------------------------------------------------------------
# case 2: low-degree side against a bipartized dense host
# ---------------------------------------------------------------------------


def _case2_base_host(target: int, r: int) -> HostGraph:
    """Even-cycle-free base host on roughly ``target`` vertices, capped at
    the largest supported plane (r = 2) or GREEDY_ORDER_CAP (r >= 3); both
    constructors cache their hosts."""
    if r == 2:
        q = smallest_prime_with_plane_order(target)
        return polarity_graph(q)
    n = max(target, 2 * r + 2)
    if n > GREEDY_ORDER_CAP:
        n = GREEDY_ORDER_CAP
    return greedy_high_girth(n, 2 * r + 1, 0)


def case2_extract(g2: Graph, r: int, seed: int, edge_budget: int) -> Graph:
    """Random labeling of the low-degree side into a bipartized host.

    Builds a host on about 2*sqrt(m) vertices (fewer when that exceeds
    the largest host :func:`_case2_base_host` builds), m = ``edge_budget``
    being the edge count of the graph whose low-degree side ``g2`` is,
    bipartizes it by the k=3 local search (keeping at least half its edges
    and making it free of all cycles up to 2r+1), samples a uniform
    labeling, and returns the doubly-color-unique subgraph.
    """
    m = max(edge_budget, 1)
    threshold_sq = 4 * m
    if any(d * d >= threshold_sq for d in g2.degrees()):
        raise ValueError("case 2 requires all degrees below 2*sqrt(m)")
    target = math.isqrt(4 * m - 1) + 1  # ceil(2*sqrt(m))
    base = _case2_base_host(target, r)
    _, bip = max_kpartite(base.graph, 3, mix(seed, _SALT_PARTITION))
    host = certify_host(
        bip,
        ForbiddenFamily.all_cycles_up_to(2 * r + 1),
        label=f"case2:{base.label}|bipartized",
    )
    rng = random.Random(mix(seed, _SALT_COLORING))
    chi = VertexColoring.uniform(g2.n, host.graph.n, rng)
    return h_star(g2, chi, host)


# ---------------------------------------------------------------------------
# certified fallbacks
# ---------------------------------------------------------------------------


def spanning_forest(g: Graph) -> Graph:
    """BFS spanning forest; cycle-free, hence free for every family."""
    visited = [False] * g.n
    edges = []
    for s in range(g.n):
        if visited[s]:
            continue
        visited[s] = True
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.adjacency[x]:
                if not visited[y]:
                    visited[y] = True
                    edges.append((x, y))
                    queue.append(y)
    return Graph.from_edges(g.n, edges)


def star_fallback(g: Graph) -> Graph:
    """All edges at a maximum-degree vertex."""
    if g.m == 0:
        return g
    center = max(range(g.n), key=lambda v: (g.degree(v), -v))
    return edge_subgraph(g, lambda e: center in e)


def matching_fallback(g: Graph) -> Graph:
    """Greedy maximal matching by edge index."""
    used = [False] * g.n
    kept = set()
    for u, v in g.edges:
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            kept.add((u, v))
    return edge_subgraph(g, kept.__contains__)


def greedy_family_free(g: Graph, fam: ForbiddenFamily, seed: int) -> Graph:
    """Maximal family-free subgraph from one seeded pass over the edges.

    Keeps an edge iff it closes no forbidden cycle with the edges already
    kept (:func:`graph.closes_forbidden_cycle`).  ``adj`` holds the kept
    graph's neighbor sets, and for ``even:4`` and ``even:6`` ``reach2``
    its two-step sets (``reach2[x]`` is the union of N(y) over y in N(x)),
    which that test reads to answer C4 and C6 with set operations.  Edges
    are only ever added, so keeping uv adds v to ``reach2[a]`` for each a
    already in N(u), u to ``reach2[d]`` for each d already in N(v), and
    the new N(v) and N(u) to ``reach2[u]`` and ``reach2[v]``.  Both hold a
    set only for the vertices with a neighbor in ``g``, the only possible
    endpoints, so an input of sparse ids costs nothing per unused id.  The
    output is read from ``adj``.  Maximality makes this the strongest
    deterministic fallback on dense inputs.
    """
    order = list(g.edges)
    random.Random(seed).shuffle(order)
    ends = list(itertools.compress(range(g.n), g.adjacency))
    adj = {x: set() for x in ends}
    reach2 = None
    if fam.kind == "even" and fam.bound <= 6:
        reach2 = {x: set() for x in ends}
    for u, v in order:
        if closes_forbidden_cycle(adj, u, v, fam, reach2):
            continue
        nbrs_u, nbrs_v = adj[u], adj[v]
        if reach2 is not None:
            for a in nbrs_u:
                reach2[a].add(v)
            for d in nbrs_v:
                reach2[d].add(u)
        nbrs_u.add(v)
        nbrs_v.add(u)
        if reach2 is not None:
            reach2[u] |= nbrs_v
            reach2[v] |= nbrs_u
    del reach2  # the largest sets; freed before the output graph is built
    return edge_subgraph(g, lambda e: e[1] in adj[e[0]])


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------


def extract_even_cycle_free(
    g: Graph,
    r: int,
    trials: int,
    seed: int,
    odd_free: bool = False,
) -> tuple[Graph, ExtractionReport]:
    """Best certified family-free subgraph over trials plus fallbacks.

    With ``odd_free`` the input is first bipartized (k = 3), upgrading the
    target family from even cycles up to 2r to all cycles up to 2r+1.
    More trials can only improve the result (best-of semantics; ties break
    toward the earlier candidate).
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if odd_free:
        fam = ForbiddenFamily.all_cycles_up_to(2 * r + 1)
        _, work = max_kpartite(g, 3, mix(seed, _SALT_ODDFREE))
    else:
        fam = ForbiddenFamily.even_cycles_up_to(2 * r)
        work = g

    # (graph, certified girth or None when not yet certified, fields)
    candidates: list[tuple[Graph, Optional[float], dict]] = []
    value, witness = family_girth(work, fam)
    if witness is None:
        candidates.append((work, value, {"method": "identity"}))
    candidates.append((spanning_forest(work), None, {"method": "forest"}))
    candidates.append((star_fallback(work), None, {"method": "star"}))
    candidates.append((matching_fallback(work), None, {"method": "matching"}))

    # the split, the case and that case's input depend on the input alone;
    # case 2 is skipped at r >= 3 when girth 2r + 1 exceeds the greedy cap
    # or its target host order ceil(2 sqrt(m)) (exactly when m <= r^2)
    extract = None
    if work.m >= 1:
        split = split_and_bucket(work)
        if 4 * split.edges_v1_v2 >= work.m and split.chosen_q is not None:
            k = len(split.buckets[split.chosen_q])
            host = _case1_host(k, -(-work.m // k), r)
            method, extract = "case1", lambda s: case1_extract(work, split, host, s)
        elif r == 2 or (r * r < work.m and 2 * r + 1 <= GREEDY_ORDER_CAP):
            in_v2 = set(split.v2)
            g2 = edge_subgraph(work, lambda e: e[0] in in_v2 and e[1] in in_v2)
            method, extract = "case2", lambda s: case2_extract(g2, r, s, work.m)

    for t in range(trials):
        trial_seed = mix(seed, t)
        if extract is not None:
            out = extract(trial_seed)
            value = certify(out, fam, f"{method} output")
            candidates.append((out, value, {"method": method}))
        gout = greedy_family_free(work, fam, mix(trial_seed, _SALT_GREEDY))
        candidates.append((gout, None, {"method": "greedy"}))

    case_edges = [
        out.m for out, _, f in candidates if f["method"] in ("case1", "case2")
    ]
    extras = {
        "odd_free": odd_free,
        "trial_mean_edges": sum(case_edges) / len(case_edges) if case_edges else None,
    }
    return pick(g, fam, candidates, lambda out: out.m, r, trials, seed, extras)
