"""Independent brute-force oracles for the test suite.

Everything here recomputes ground truth from first principles (exhaustive
enumeration), sharing no code paths with the library's certified
algorithms beyond the Graph container itself.  The ``reference_*``
functions are the plain forms of optimised library routines, kept to
check that the optimised forms decide the same way; the greedy host's
reference also calls the library's per-edge test, and the greedy
extractor's reference calls that test's path search alone, both of which
:func:`cycle_lengths_through` checks from first principles.
"""

from __future__ import annotations

import itertools
import random

from girthforge.graph import (
    CycleWitness,
    ForbiddenFamily,
    Graph,
    _odd_path_dfs,
    closes_forbidden_cycle,
    pair_from_index,
)


def all_cycles(g: Graph, max_len=None):
    """Every simple cycle (of length <= max_len when given) as a vertex
    tuple, each found once per rotation class (anchored at its minimum
    vertex, smaller second neighbor first)."""
    adj = [set(a) for a in g.adjacency]
    cap = g.n if max_len is None else max_len
    cycles = []
    for start in range(g.n):
        # DFS over simple paths from start using only vertices >= start
        stack = [(start, (start,))]
        while stack:
            cur, path = stack.pop()
            for nxt in adj[cur]:
                if nxt == start and len(path) >= 3:
                    if path[1] < path[-1]:
                        cycles.append(path)
                    continue
                if nxt > start and nxt not in path and len(path) < cap:
                    stack.append((nxt, path + (nxt,)))
    return cycles


def brute_girth(g: Graph, max_len=None):
    """Shortest cycle length by exhaustive bounded enumeration; None if no
    cycle (of length <= max_len when given) exists."""
    lengths = [len(c) for c in all_cycles(g, max_len)]
    return min(lengths) if lengths else None


def brute_shortest_even(g: Graph, bound: int):
    """Shortest even cycle length <= bound, or None."""
    lengths = [len(c) for c in all_cycles(g, bound) if len(c) % 2 == 0]
    return min(lengths) if lengths else None


def has_forbidden(g: Graph, kind: str, bound: int) -> bool:
    for c in all_cycles(g, bound):
        length = len(c)
        if length > bound:
            continue
        if kind == "all" or length % 2 == 0:
            return True
    return False


def cycle_lengths_through(g: Graph, u: int, v: int, max_len: int) -> set:
    """Lengths (<= max_len) of the simple cycles of g + uv that use the new
    edge uv, by enumerating every cycle of g + uv."""
    g_plus = Graph.from_edges(g.n, list(g.edges) + [(u, v)])
    lengths = set()
    for c in all_cycles(g_plus, max_len):
        steps = zip(c, c[1:] + c[:1])
        if any({a, b} == {u, v} for a, b in steps):
            lengths.add(len(c))
    return lengths


def brute_ex(g: Graph, kind: str, bound: int) -> int:
    """Maximum family-free subgraph size by subset enumeration, largest
    subsets first."""
    edges = g.edges
    for size in range(g.m, -1, -1):
        for subset in itertools.combinations(range(g.m), size):
            sub = Graph.from_edges(g.n, [edges[i] for i in subset])
            if not has_forbidden(sub, kind, bound):
                return size
    return 0


def brute_max_cut_parts(g: Graph, p: int) -> int:
    """Maximum cross-edge count over all assignments into p parts."""
    best = 0
    for assign in itertools.product(range(p), repeat=g.n):
        cut = sum(1 for u, v in g.edges if assign[u] != assign[v])
        best = max(best, cut)
    return best


def projective_degree_counts(q: int):
    """Degrees in the orthogonality graph on projective points over GF(q),
    recomputed from scratch: normalized nonzero triples, adjacency by dot
    product zero.  Returns {degree: count}."""
    points = []
    seen = set()
    for x in range(q):
        for y in range(q):
            for z in range(q):
                if x == y == z == 0:
                    continue
                for lam in range(1, q):
                    key = (lam * x % q, lam * y % q, lam * z % q)
                    if key in seen:
                        break
                else:
                    seen.add((x, y, z))
                    points.append((x, y, z))
    counts: dict[int, int] = {}
    for i, p1 in enumerate(points):
        deg = 0
        for j, p2 in enumerate(points):
            if i != j and sum(a * b for a, b in zip(p1, p2)) % q == 0:
                deg += 1
        counts[deg] = counts.get(deg, 0) + 1
    return counts


def brute_bad_events(g: Graph, colors, host_graph: Graph, q: int, t: int):
    """Bad events of a coloring against a host, recomputed from their
    definitions, in resampling order: ("A", v, 0, ()) when v (not isolated)
    has at most q*d(v)/(2*ell) neighbors whose colors are host-adjacent to
    its own; ("B", v, c, witness) when more than t neighbors of v have
    color c, witness being the t+1 smallest of them."""
    ell = host_graph.n
    events = []
    for v in range(g.n):
        nbrs = g.adjacency[v]
        if not nbrs:
            continue
        d_prime = sum(1 for w in nbrs if host_graph.has_edge(colors[v], colors[w]))
        if 2 * ell * d_prime <= q * len(nbrs):
            events.append(("A", v, 0, ()))
        for c in set(colors[w] for w in nbrs):
            group = sorted(w for w in nbrs if colors[w] == c)
            if len(group) > t:
                events.append(("B", v, c, tuple(group[: t + 1])))
    events.sort(key=lambda e: (e[0], e[1], e[2]))
    return events


def reference_resample_events(g: Graph, host_graph: Graph, q: int, t: int,
                              seed: int, max_rounds: int):
    """The resampling loop with a full rescan of every vertex each round.

    Colors are drawn uniformly in vertex order from random.Random(seed);
    each round redraws, in order, the first event's vertex and neighbors
    (type A) or its witness (type B).  Returns (colors, the event lists
    read before each round and after the last one)."""
    ell = host_graph.n
    rng = random.Random(seed)
    colors = [rng.randrange(ell) for _ in range(g.n)]
    history = []
    while True:
        events = brute_bad_events(g, colors, host_graph, q, t)
        history.append(events)
        if not events or len(history) > max_rounds:
            return tuple(colors), history
        tag, v, _, witness = events[0]
        targets = (v,) + g.adjacency[v] if tag == "A" else witness
        for x in targets:
            colors[x] = rng.randrange(ell)


def reference_resample(g: Graph, host_graph: Graph, q: int, t: int, seed: int,
                       max_rounds: int):
    """:func:`reference_resample_events` as (colors, rounds, degraded,
    residual event count)."""
    colors, history = reference_resample_events(g, host_graph, q, t, seed, max_rounds)
    last = history[-1]
    return colors, len(history) - 1, bool(last), len(last)


def reference_max_kpartite(g: Graph, k: int, seed: int):
    """The local search with a full rescan from vertex 0 after every move.

    Parts are drawn uniformly in vertex order from random.Random(seed);
    the first vertex with more than d(v)/(k-1) neighbors in its own part
    moves to the part holding fewest of them (lowest index on ties).
    Returns (parts, cross-part edges)."""
    p = k - 1
    rng = random.Random(seed)
    part = [rng.randrange(p) for _ in range(g.n)]
    while True:
        for v in range(g.n):
            row = [0] * p
            for w in g.adjacency[v]:
                row[part[w]] += 1
            if row[part[v]] * p > len(g.adjacency[v]):
                part[v] = min(range(p), key=lambda j: (row[j], j))
                break
        else:
            break
    cross = tuple(e for e in g.edges if part[e[0]] != part[e[1]])
    return tuple(part), cross


def reference_dict_c4(g: Graph):
    """The C4 witness of a neighbor-pair dict: vertices u in increasing
    order, each one's neighbor pairs (a, b), a < b, in order; the first
    pair met again, at u, after it was met at w gives (w, a, u, b).  None
    when no pair repeats."""
    first_at: dict = {}
    for u in range(g.n):
        for a, b in itertools.combinations(g.adjacency[u], 2):
            if (a, b) in first_at:
                return CycleWitness((first_at[(a, b)], a, u, b))
            first_at[(a, b)] = u
    return None


def brute_smallest_shared_pair(g: Graph):
    """Smallest pair a < b (lexicographically) with two or more common
    neighbors, or None."""
    for a, b in itertools.combinations(range(g.n), 2):
        if len(set(g.adjacency[a]) & set(g.adjacency[b])) >= 2:
            return a, b
    return None


def brute_orthogonal_pairs(q: int):
    """Index pairs (i, j) of projective points with x_i . x_j == 0 (mod q),
    in row-major order, from the dot products of every pair of points.
    Points are indexed (1, a, b) -> a q + b, (0, 1, a) -> q^2 + a and
    (0, 0, 1) -> q^2 + q."""
    pts = [(1, a, b) for a in range(q) for b in range(q)]
    pts += [(0, 1, a) for a in range(q)] + [(0, 0, 1)]
    rows: list[int] = []
    cols: list[int] = []
    for i, (x, y, z) in enumerate(pts):
        row = [j for j, (u, v, w) in enumerate(pts) if (x * u + y * v + z * w) % q == 0]
        rows.extend([i] * len(row))
        cols.extend(row)
    return rows, cols


def reference_plane_graphs(q: int) -> tuple[Graph, Graph]:
    """The polarity graph and the point-line incidence graph of PG(2,q),
    each built by :meth:`Graph.from_edges` from the pairs of
    :func:`brute_orthogonal_pairs`: i ~ j for i < j, and point i ~ line
    n + j (n = q^2 + q + 1)."""
    n = q * q + q + 1
    pairs = list(zip(*brute_orthogonal_pairs(q)))
    polarity = Graph.from_edges(n, [(i, j) for i, j in pairs if i < j])
    incidence = Graph.from_edges(2 * n, [(i, n + j) for i, j in pairs])
    return polarity, incidence


def reference_two_coloring(g: Graph):
    """``(even, components)`` as :func:`graph._two_coloring` defines them,
    from a plain BFS out of the smallest unvisited vertex of each
    component; None when an edge joins two vertices of one parity."""
    dist: dict[int, int] = {}
    components = 0
    for s in range(g.n):
        if s in dist:
            continue
        components += 1
        dist[s] = 0
        queue = [s]
        for x in queue:
            for y in g.adjacency[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
    if any(dist[u] % 2 == dist[v] % 2 for u, v in g.edges):
        return None
    return {v for v in range(g.n) if dist[v] % 2 == 0}, components


def reference_from_edges(n: int, edges) -> Graph:
    """Graph construction one edge at a time, raising ValueError at the
    first self-loop, out-of-range endpoint or parallel edge in input
    order."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    seen: set = set()
    norm: list = []
    adj: list = [[] for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"parallel edge ({e[0]},{e[1]})")
        seen.add(e)
        norm.append(e)
        adj[e[0]].append(e[1])
        adj[e[1]].append(e[0])
    return Graph(n=n, edges=tuple(norm), adjacency=tuple(tuple(sorted(a)) for a in adj))


def brute_induced_subgraph(g: Graph, vertices) -> tuple[Graph, tuple[int, ...]]:
    """The subgraph induced on ``vertices``, relabeled 0..k-1 in index order
    with ``g.edges`` order kept, and the tuple of old labels."""
    labels = sorted(set(vertices))
    edges = [
        (labels.index(u), labels.index(v))
        for u, v in g.edges
        if u in labels and v in labels
    ]
    return Graph.from_edges(len(labels), edges), tuple(labels)


def reference_bipartite_trim(g: Graph, parts, ka: int, kb: int):
    """The two-sided trim as two one-sided passes: keep the top ``ka`` of
    part A by degree (ties to the lower index) with all of part B, relabel,
    then do the same to part B with ``kb`` and the parts swapped."""

    def one_side(g, first, second, k):
        ranked = sorted(first, key=lambda v: (-g.degree(v), v))[:k]
        sub, labels = brute_induced_subgraph(g, list(ranked) + list(second))
        new = tuple(labels.index(v) for v in sorted(ranked))
        return sub, new, tuple(labels.index(v) for v in sorted(second))

    part_a, part_b = parts
    sub, new_a, new_b = one_side(g, part_a, part_b, ka)
    sub, new_b, new_a = one_side(sub, new_b, new_a, kb)
    return sub, (new_a, new_b)


def reference_greedy_high_girth(n: int, min_girth: int, seed: int):
    """The greedy high-girth pass with one :func:`closes_forbidden_cycle`
    search per pair: a seeded permutation of the pairs, each added iff it
    closes no cycle shorter than ``min_girth``.  Returns the kept edges in
    the order they were added."""
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
    return edges


def reference_greedy_family_free(g: Graph, fam: ForbiddenFamily, seed: int):
    """The greedy extractor's pass for an ``even:2r`` family with every edge
    decided by the path search alone (no set-operation shortcut): the same
    seeded shuffle of ``g.edges``, each edge kept iff no simple path of odd
    length 3..2r-1 joins its ends in the kept graph.  Returns the kept
    edges in ``g.edges`` order."""
    order = list(g.edges)
    random.Random(seed).shuffle(order)
    adj: list[set] = [set() for _ in range(g.n)]
    kept = set()
    for u, v in order:
        if not _odd_path_dfs(adj, u, v, fam.bound - 1):
            adj[u].add(v)
            adj[v].add(u)
            kept.add((u, v))
    return tuple(e for e in g.edges if e in kept)


def reference_even_cycle_meet_in_middle(g: Graph, half: int):
    """A C_{2*half} as two internally disjoint length-``half`` paths, by a
    DFS that pushes a new path tuple and interior frozenset for every
    step; the first witness found, or None."""
    adj = g.adjacency
    for v in range(g.n):
        paths_to: dict[int, list[tuple[tuple[int, ...], frozenset]]] = {}
        stack = [(v, (v,), frozenset())]
        while stack:
            cur, path, interior = stack.pop()
            if len(path) == half + 1:
                w = cur
                inter = interior - {w}
                for other_path, other_inter in paths_to.get(w, ()):
                    if not (inter & other_inter):
                        cycle = path[:-1] + tuple(reversed(other_path[1:]))
                        witness = CycleWitness(cycle)
                        witness.validate(g)
                        return witness
                paths_to.setdefault(w, []).append((path, inter))
                continue
            for nxt in adj[cur]:
                if nxt <= v or nxt in interior:
                    continue
                stack.append((nxt, path + (nxt,), interior | {nxt}))
    return None


def reference_case1(g: Graph, split, host_graph: Graph, parts, seed: int):
    """The case-1 rule written out on its own: bucket vertex i gets part-A
    color i, the low side gets uniform part-B colors in ``split.v2``
    order, and a bucket-to-low-side edge (u_i, v) is kept iff the host has
    the color pair and chi(v) occurs exactly once among the colored
    neighbors of u_i.  Returns the kept edges in ``g.edges`` order."""
    bucket = sorted(split.buckets[split.chosen_q])
    in_bucket, low = set(bucket), set(split.v2)
    part_a, part_b = parts
    rng = random.Random(seed)
    color = {u: part_a[i] for i, u in enumerate(bucket)}
    for v in split.v2:
        color[v] = part_b[rng.randrange(len(part_b))]
    kept = []
    for e in g.edges:
        u, v = e if e[0] in in_bucket else (e[1], e[0])
        if u not in in_bucket or v not in low:
            continue
        same = sum(1 for w in g.adjacency[u] if color.get(w) == color[v])
        if host_graph.has_edge(color[u], color[v]) and same == 1:
            kept.append(e)
    return tuple(kept)
