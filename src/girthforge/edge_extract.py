"""Even-cycle-free subgraph extraction with many edges.

Pipeline: split vertices at degree 2*sqrt(m), bucket the high-degree side
dyadically, then either embed the chosen bucket against a bipartite host
(case 1) or randomly label the low-degree side into a bipartized host and
keep doubly color-unique edges (case 2).  Certified fallbacks (spanning
forest, star, matching, greedy) guarantee the best-of result never loses
to the trivial answer.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

from .graph import (
    ForbiddenFamily,
    GirthValue,
    Graph,
    VertexColoring,
    certify,
    closes_forbidden_cycle,
    edge_subgraph,
    family_girth,
)
from .hosts import (
    GREEDY_ORDER_CAP,
    MAX_PLANE_ORDER,
    HostGraph,
    bipartite_trim,
    certify_host,
    greedy_high_girth,
    incidence_graph_pg2,
    polarity_graph,
    smallest_prime_with_plane_order,
)
from .partition import max_kpartite
from .report import ExtractionReport
from .seeds import mix

# internal salts for sub-seed derivation
_SALT_PARTITION = 101
_SALT_COLORING = 202
_SALT_GREEDY = 303
_SALT_ODDFREE = 404

# greedy bipartite hosts beyond this side size fall back to the star host
_COVER_SIDE_CAP = 400


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
    seen_counts = [Counter(colors[w] for w in g.adjacency[v]) for v in range(g.n)]

    def keep(e):
        u, v = e
        return (
            colors[v] in host_adj[colors[u]]
            and seen_counts[u][colors[v]] == 1
            and seen_counts[v][colors[u]] == 1
        )

    return edge_subgraph(g, keep)


# ---------------------------------------------------------------------------
# case 1: high-degree bucket against a bipartite host
# ---------------------------------------------------------------------------


def _case1_host(k: int, b: int, r: int) -> HostGraph:
    """Bipartite even-cycle-free host with parts sized exactly (k, b).

    Best by edge count of: the star host (one part-A center joined to all
    of B); for r = 2 a doubly trimmed projective incidence graph (skipped
    above plane order MAX_PLANE_ORDER); for r >= 3 a doubly trimmed
    bipartite double cover of a greedy high-girth graph (skipped when the
    needed side is below the girth 2r + 1 or above the greedy cap).  Built
    once per extractor call from the cached hosts of :mod:`hosts`.
    """
    fam = ForbiddenFamily.even_cycles_up_to(2 * r)
    candidates: list[tuple[Graph, tuple, str]] = []

    star_edges = [(0, k + j) for j in range(b)]
    star_graph = Graph.from_edges(k + b, star_edges)
    candidates.append(
        (star_graph, (tuple(range(k)), tuple(range(k, k + b))), "star-host")
    )

    side = max(k, b)
    if r == 2:
        q = smallest_prime_with_plane_order(side)
        if q <= MAX_PLANE_ORDER:
            inc = incidence_graph_pg2(q)
            trimmed, parts = bipartite_trim(inc.graph, inc.parts, k)
            # trim the second side too: swap parts and keep the top b
            trimmed, (pb, pa) = bipartite_trim(trimmed, (parts[1], parts[0]), b)
            candidates.append((trimmed, (pa, pb), f"incidence-trim(q={q})"))
    elif r >= 3 and 2 * r + 1 <= side <= _COVER_SIDE_CAP:
        base = greedy_high_girth(side, 2 * r + 1, 0).graph
        cover_edges = [
            (u, side + v) for u, v in base.edges
        ] + [(v, side + u) for u, v in base.edges]
        cover = Graph.from_edges(2 * side, cover_edges)
        parts = (tuple(range(side)), tuple(range(side, 2 * side)))
        trimmed, parts = bipartite_trim(cover, parts, k)
        trimmed, (pb, pa) = bipartite_trim(trimmed, (parts[1], parts[0]), b)
        candidates.append((trimmed, (pa, pb), f"cover-trim(n={side})"))

    graph, parts, name = max(candidates, key=lambda c: (c[0].m, c[2] == "star-host"))
    label = f"case1:{name}(k={k},b={b},r={r})"
    return certify_host(graph, fam, label=label, parts=parts)


def case1_extract(
    g: Graph, split: DegreeSplit, host: HostGraph, r: int, seed: int
) -> Graph:
    """Keep bucket-to-low-side edges whose low endpoint got a good color.

    Bucket vertices get fixed distinct part-A colors; the low side is
    colored uniformly from part B; edge (u_i, v) survives iff the host has
    the color pair and chi(v) appears exactly once among all neighbors of
    u_i.  The result is bipartite and inherits the host's even-cycle
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
    color: dict[int, int] = {}
    for i, u in enumerate(bucket):
        color[u] = part_a[i]
    for v in split.v2:
        color[v] = part_b[rng.randrange(b)]
    host_adj = host.graph.adjacency_sets
    in_bucket = set(bucket)
    in_v2 = set(split.v2)
    # how many colored G-neighbors of u carry each color
    neighbor_color_count = {
        u: Counter(color[w] for w in g.adjacency[u] if w in color)
        for u in bucket
    }

    def keep(e):
        u, v = e
        if u in in_v2 and v in in_bucket:
            u, v = v, u
        if u not in in_bucket or v not in in_v2:
            return False
        cv = color[v]
        return cv in host_adj[color[u]] and neighbor_color_count[u][cv] == 1

    return edge_subgraph(g, keep)


# ---------------------------------------------------------------------------
# case 2: low-degree side against a bipartized dense host
# ---------------------------------------------------------------------------


def _case2_base_host(target: int, r: int) -> HostGraph:
    """Even-cycle-free base host on roughly ``target`` vertices; both
    constructors cache their hosts."""
    if r == 2:
        q = smallest_prime_with_plane_order(target)
        return polarity_graph(q)
    n = max(target, 2 * r + 2)
    if n > GREEDY_ORDER_CAP:
        n = GREEDY_ORDER_CAP
    return greedy_high_girth(n, 2 * r + 1, 0)


def case2_extract(
    g2: Graph, r: int, seed: int, edge_budget: Optional[int] = None
) -> Graph:
    """Random labeling of the low-degree side into a bipartized host.

    Builds a host on about 2*sqrt(m) vertices, bipartizes it by the k=3
    local search (keeping at least half its edges and making it free of
    all cycles up to 2r+1), samples a uniform labeling, and returns the
    doubly-color-unique subgraph.
    """
    m = edge_budget if edge_budget is not None else g2.m
    m = max(m, 1)
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
    kept = []
    for i, (u, v) in enumerate(g.edges):
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            kept.append(i)
    return edge_subgraph(g, kept)


def greedy_family_free(g: Graph, fam: ForbiddenFamily, seed: int) -> Graph:
    """Maximal family-free subgraph from one seeded pass over the edges.

    Keeps an edge iff it closes no forbidden cycle with the edges already
    kept (:func:`graph.closes_forbidden_cycle`).  Maximality makes this
    the strongest deterministic fallback on dense inputs.
    """
    order = list(range(g.m))
    random.Random(seed).shuffle(order)
    adj: list[set] = [set() for _ in range(g.n)]
    kept = []
    for i in order:
        u, v = g.edges[i]
        if not closes_forbidden_cycle(adj, u, v, fam):
            adj[u].add(v)
            adj[v].add(u)
            kept.append(i)
    return edge_subgraph(g, kept)


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

    # (graph, method, certified girth or None when not yet certified)
    candidates: list[tuple[Graph, str, Optional[GirthValue]]] = []
    value, witness = family_girth(work, fam)
    if witness is None:
        candidates.append((work, "identity", value))
    candidates.append((spanning_forest(work), "forest", None))
    candidates.append((star_fallback(work), "star", None))
    candidates.append((matching_fallback(work), "matching", None))

    # the split, the case and that case's input depend on the input alone
    extract = None
    if work.m >= 1:
        split = split_and_bucket(work)
        if 4 * split.edges_v1_v2 >= work.m and split.chosen_q is not None:
            k = len(split.buckets[split.chosen_q])
            host = _case1_host(k, -(-work.m // k), r)
            method, extract = "case1", lambda s: case1_extract(work, split, host, r, s)
        else:
            in_v2 = set(split.v2)
            g2 = edge_subgraph(work, lambda e: e[0] in in_v2 and e[1] in in_v2)
            method, extract = "case2", lambda s: case2_extract(g2, r, s, work.m)

    trial_edge_counts = []
    for t in range(trials):
        trial_seed = mix(seed, t)
        if extract is not None:
            out = extract(trial_seed)
            candidates.append((out, method, certify(out, fam, f"{method} output")))
            trial_edge_counts.append(out.m)
        gout = greedy_family_free(work, fam, mix(trial_seed, _SALT_GREEDY))
        candidates.append((gout, "greedy", None))

    # max keeps the earliest of equal candidates
    best, method, best_girth = max(candidates, key=lambda c: c[0].m)
    if best_girth is None:
        best_girth = certify(best, fam, f"selected {method} output")
    report = ExtractionReport(
        input_n=g.n,
        input_m=g.m,
        method=method,
        r=r,
        trials=trials,
        seed=seed,
        output_edges=best.m,
        output_min_degree=best.min_degree(),
        output_girth=best_girth,
        family=fam,
        extras={
            "odd_free": odd_free,
            "trial_mean_edges": (
                sum(trial_edge_counts) / len(trial_edge_counts)
                if trial_edge_counts
                else None
            ),
        },
    )
    return best, report
