"""Immutable simple-graph core: construction, girth, short-cycle certification.

Every other module builds on :class:`Graph`.  :func:`family_girth` is the
one search behind every certificate: it tells whether a graph is free of
a forbidden family, with its exact girth when it is and a witness when it
is not.  :func:`certify` is its raising form, the certification step for
hosts and outputs.  :func:`check_family_free` answers the yes/no question
alone, stopping at the first witness.  :func:`closes_forbidden_cycle` is
the per-edge test that every greedy builder uses to decide which edges to
keep.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Optional, Sequence, Union


class EdgeListParseError(ValueError):
    """Malformed edge-list input; message carries the offending line number."""


class CertificationError(RuntimeError):
    """An output that must be certificate-clean failed verification."""


class _InfiniteGirth:
    """Sentinel for the girth of an acyclic graph.

    Compares greater than every integer so that bounds like
    ``girth(g) >= 2 * r + 2`` read naturally.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Infinite"

    def __eq__(self, other) -> bool:
        return isinstance(other, _InfiniteGirth)

    def __hash__(self) -> int:
        return hash("girthforge-infinite")

    def __gt__(self, other) -> bool:
        return not isinstance(other, _InfiniteGirth)

    def __ge__(self, other) -> bool:
        return True

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, _InfiniteGirth)


INFINITE = _InfiniteGirth()

GirthValue = Union[int, _InfiniteGirth]


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``edges`` holds unordered pairs normalized to ``u < v``; ``adjacency``
    holds one sorted neighbor tuple per vertex.  No self-loops, no parallel
    edges.  Instances are safe to share across concurrent readers.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on ``0..n-1`` from (u, v) pairs in either orientation.

        Raises ValueError on a self-loop, an endpoint outside ``0..n-1`` or
        a parallel edge.  The pairs are normalised in one pass, reusing
        tuples already ordered u < v, and validated in bulk by one
        ``all()`` and one ``set()``.  Only when that check fails (or a pair
        is not a hashable 2-tuple) are they scanned one by one, which
        raises the first error in input order.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        edges = list(edges)
        try:
            norm = [e if u < v else (v, u) for e in edges for u, v in (e,)]
            valid = all(0 <= u < v < n for u, v in norm) and len(set(norm)) == len(norm)
        except (TypeError, ValueError):
            valid = False
        adj: list[list[int]] = [[] for _ in range(n)]
        if valid:
            for u, v in norm:
                adj[u].append(v)
                adj[v].append(u)
        else:
            norm = _scan_edges(n, edges, adj)
        return Graph(
            n=n,
            edges=tuple(norm),
            adjacency=tuple(tuple(sorted(a)) for a in adj),
        )

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    @functools.cached_property
    def adjacency_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(a) for a in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency_sets[u]


def _scan_edges(
    n: int, edges: Iterable[tuple[int, int]], adj: list[list[int]]
) -> list[tuple[int, int]]:
    """Normalise and check the edges one at a time, in input order, filling
    ``adj``; raises at the first self-loop, out-of-range endpoint or
    parallel edge."""
    seen: set[tuple[int, int]] = set()
    norm: list[tuple[int, int]] = []
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
    return norm


@dataclass(frozen=True)
class CycleWitness:
    """A concrete short cycle certifying non-freeness.

    ``vertices`` is the cyclic sequence; consecutive pairs (wrapping) must
    be edges of the graph under test and all vertices must be distinct.
    """

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def validate(self, g: Graph) -> None:
        vs = self.vertices
        if len(vs) < 3:
            raise CertificationError("cycle witness shorter than 3")
        if len(set(vs)) != len(vs):
            raise CertificationError("cycle witness repeats a vertex")
        for i, u in enumerate(vs):
            v = vs[(i + 1) % len(vs)]
            if not g.has_edge(u, v):
                raise CertificationError(f"witness pair ({u},{v}) is not an edge")


@dataclass(frozen=True)
class ForbiddenFamily:
    """Family of forbidden cycles: all even cycles up to ``bound`` or all
    cycles up to ``bound``."""

    kind: str  # "even" or "all"
    bound: int

    def __post_init__(self):
        if self.kind == "even":
            if self.bound < 4 or self.bound % 2 != 0:
                raise ValueError("even-cycle bound must be an even integer >= 4")
        elif self.kind == "all":
            if self.bound < 3:
                raise ValueError("all-cycle bound must be >= 3")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

    @staticmethod
    def even_cycles_up_to(bound: int) -> "ForbiddenFamily":
        return ForbiddenFamily("even", bound)

    @staticmethod
    def all_cycles_up_to(bound: int) -> "ForbiddenFamily":
        return ForbiddenFamily("all", bound)

    @staticmethod
    def parse(text: str) -> "ForbiddenFamily":
        """Parse 'even:2r' / 'all:L' as used on the command line."""
        try:
            kind, bound_s = text.split(":")
            return ForbiddenFamily(kind, int(bound_s))
        except ValueError as exc:
            raise ValueError(f"bad family spec {text!r}: {exc}") from exc

    def describe(self) -> str:
        return f"{self.kind}:{self.bound}"

    def matches(self, length: int) -> bool:
        if self.kind == "even":
            return length % 2 == 0 and 4 <= length <= self.bound
        return 3 <= length <= self.bound


@dataclass(frozen=True)
class Verdict:
    """Result of a family-freeness check."""

    free: bool
    witness: Optional[CycleWitness] = None

    def __bool__(self) -> bool:
        return self.free


@dataclass(frozen=True)
class VertexColoring:
    """Total coloring of vertices with colors in ``0..ell-1``."""

    colors: tuple[int, ...]
    ell: int

    def __post_init__(self):
        if self.ell < 1:
            raise ValueError("color count must be >= 1")
        for c in self.colors:
            if not (0 <= c < self.ell):
                raise ValueError(f"color {c} outside 0..{self.ell - 1}")

    @staticmethod
    def uniform(n: int, ell: int, rng) -> "VertexColoring":
        return VertexColoring(tuple(rng.randrange(ell) for _ in range(n)), ell)

    def is_proper_on(self, g: Graph) -> bool:
        return all(self.colors[u] != self.colors[v] for u, v in g.edges)


def pair_from_index(n: int, index: int) -> tuple[int, int]:
    """The ``index``-th pair (u, v), u < v, of ``0..n-1`` in row-major order
    over the strict upper triangle: (0,1), (0,2), ..., (0,n-1), (1,2), ...

    Closed form: counted from the last pair, the rows hold 1, 2, 3, ...
    pairs, so the row follows from an integer square root.
    """
    back = n * (n - 1) // 2 - 1 - index
    k = (math.isqrt(8 * back + 1) - 1) // 2  # row u = n-2-k holds k+1 pairs
    u = n - 2 - k
    return u, n - 1 - back + k * (k + 1) // 2


# ---------------------------------------------------------------------------
# subgraph operations
# ---------------------------------------------------------------------------


def edge_subgraph(
    g: Graph, keep: Union[Callable[[tuple[int, int]], bool], Iterable[int]]
) -> Graph:
    """Spanning subgraph with the selected edges.

    ``keep`` is either a predicate over edge pairs or an iterable of edge
    indices into ``g.edges``; an unknown index is rejected.
    """
    if callable(keep):
        kept = [e for e in g.edges if keep(e)]
    else:
        idx = sorted(set(keep))
        for i in idx:
            if not (0 <= i < g.m):
                raise ValueError(f"unknown edge index {i}")
        kept = [g.edges[i] for i in idx]
    return Graph.from_edges(g.n, kept)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices`` (relabeled 0..k-1).

    Returns the subgraph and the tuple mapping new labels to old ones.
    """
    keep = sorted(set(vertices))
    pos = {v: i for i, v in enumerate(keep)}
    edges = [
        (pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos
    ]
    return Graph.from_edges(len(keep), edges), tuple(keep)


def bipartition(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Two-color ``g`` if bipartite, else return None."""
    side = [-1] * g.n
    for s in range(g.n):
        if side[s] != -1:
            continue
        side[s] = 0
        queue = deque([s])
        while queue:
            x = queue.popleft()
            for y in g.adjacency[x]:
                if side[y] == -1:
                    side[y] = 1 - side[x]
                    queue.append(y)
                elif side[y] == side[x]:
                    return None
    part0 = tuple(v for v in range(g.n) if side[v] == 0)
    part1 = tuple(v for v in range(g.n) if side[v] == 1)
    return part0, part1


# ---------------------------------------------------------------------------
# girth and short-cycle detection
# ---------------------------------------------------------------------------


def _bfs_detect(g: Graph, root: int, depth_cap: int):
    """Truncated BFS from ``root`` reporting the best non-tree detection.

    Returns ``(value, x, y, parent, depth)`` where value is
    ``depth[x] + depth[y] + 1`` minimized over non-tree edges (x, y) scanned
    while expanding vertices of depth < depth_cap, or None if none found.
    A detection value bounds the length of a genuine simple cycle from above.
    """
    parent = {root: -1}
    depth = {root: 0}
    queue = deque([root])
    best = None
    adj = g.adjacency
    while queue:
        x = queue.popleft()
        dx = depth[x]
        if dx >= depth_cap:
            break
        if best is not None and 2 * dx >= best[0]:
            break
        for y in adj[x]:
            dy = depth.get(y)
            if dy is None:
                depth[y] = dx + 1
                parent[y] = x
                queue.append(y)
            elif y != parent[x]:
                value = dx + dy + 1
                if best is None or value < best[0]:
                    best = (value, x, y)
    if best is None:
        return None
    return best[0], best[1], best[2], parent, depth


def _witness_from_detection(x: int, y: int, parent: dict) -> CycleWitness:
    """Build a simple cycle from two BFS parent chains plus the edge xy."""
    chain_x = []
    v = x
    while v != -1:
        chain_x.append(v)
        v = parent[v]
    on_x = set(chain_x)
    chain_y = []
    v = y
    while v not in on_x:
        chain_y.append(v)
        v = parent[v]
    meet = v
    cut = chain_x.index(meet)
    cycle = chain_x[: cut + 1] + list(reversed(chain_y))
    return CycleWitness(tuple(cycle))


def _component_count(g: Graph) -> int:
    seen = [False] * g.n
    count = 0
    for s in range(g.n):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        stack = [s]
        while stack:
            for y in g.adjacency[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return count


def _is_forest(g: Graph) -> bool:
    """O(n + m): a graph is a forest exactly when m = n minus the number of
    components (m is never smaller)."""
    return g.m <= g.n - _component_count(g)


def girth_with_witness(
    g: Graph, stop_at: int = 3
) -> tuple[GirthValue, Optional[CycleWitness]]:
    """Girth with a shortest-cycle witness (BFS from every vertex).

    Per root, BFS is truncated at half the current best bound; the minimum
    detection over all roots equals the girth.  A forest is answered in
    O(n + m) by :func:`_is_forest`, without the BFS.

    The scan stops once a cycle of length <= ``stop_at`` is found.  With
    the default 3 nothing shorter exists, so the girth is always exact.
    With ``stop_at`` = L a result above L is the exact girth, and a result
    of at most L is the length of the witness, a cycle of that length,
    which need not be a shortest one.
    """
    if _is_forest(g):
        return INFINITE, None
    best: GirthValue = INFINITE
    best_witness: Optional[CycleWitness] = None
    for root in range(g.n):
        cap = g.n if isinstance(best, _InfiniteGirth) else (best + 1) // 2
        hit = _bfs_detect(g, root, cap)
        if hit is None:
            continue
        value, x, y, parent, _ = hit
        if isinstance(best, _InfiniteGirth) or value < best:
            witness = _witness_from_detection(x, y, parent)
            witness.validate(g)
            # The trimmed cycle can only be shorter than the detection value.
            best = min(value, witness.length)
            best_witness = witness
        if best <= stop_at:
            break
    return best, best_witness


def girth(g: Graph) -> GirthValue:
    """Length of a shortest cycle of ``g``; :data:`INFINITE` for forests."""
    return girth_with_witness(g)[0]


def find_cycle_up_to(g: Graph, bound: int) -> Optional[CycleWitness]:
    """Any simple cycle of length <= bound, or None.

    Complete: a cycle of length c <= bound is detected from any of its
    vertices by a BFS truncated at depth ceil(c/2).  A forest is answered
    in O(n + m) by :func:`_is_forest`, without the BFS.
    """
    if bound < 3:
        raise ValueError("cycle bound must be >= 3")
    if _is_forest(g):
        return None
    cap = (bound + 1) // 2
    for root in range(g.n):
        hit = _bfs_detect(g, root, cap)
        if hit is None:
            continue
        value, x, y, parent, _ = hit
        if value <= bound:
            witness = _witness_from_detection(x, y, parent)
            witness.validate(g)
            if witness.length <= bound:
                return witness
    return None


def _find_c4(g: Graph) -> Optional[CycleWitness]:
    """C4 search by common-neighbor pair counting, O(sum C(d,2)).

    A C4 is two vertices with two common neighbors.  Up to a workload of
    400,000 neighbor pairs a dict returns the first repeated pair met;
    beyond it :func:`_smallest_shared_pair` returns the smallest such pair
    in bounded memory, and the witness is that pair with its two smallest
    common neighbors.
    """
    workload = sum(d * (d - 1) // 2 for d in g.degrees())
    if workload > 400_000:
        pair = _smallest_shared_pair(g)
        if pair is None:
            return None
        a, b = pair
        mids = sorted(g.adjacency_sets[a] & g.adjacency_sets[b])
        return CycleWitness((mids[0], a, mids[1], b))
    seen: dict[tuple[int, int], int] = {}
    for u in range(g.n):
        nbrs = g.adjacency[u]
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                key = (nbrs[i], nbrs[j])
                other = seen.get(key)
                if other is not None:
                    return CycleWitness((other, key[0], u, key[1]))
                seen[key] = u
    return None


_PAIR_WALKS = 1 << 20  # neighbor pairs listed per block
_PAIR_SLOTS = 1 << 22  # (row, column) slots per block, rows x n


def _smallest_shared_pair(g: Graph) -> Optional[tuple[int, int]]:
    """Lexicographically smallest pair a < b with two or more common
    neighbors, or None when ``g`` is C4-free.

    Rows a are walked in increasing order, in blocks.  A block lists every
    walk a - u - b with a < u and a < b (for each edge au with u > a, the
    part of u's sorted neighbor list after a), so each neighbor pair
    {a, b} of u is listed at most once, from its smaller end.  A pair
    listed twice in one block has two common neighbors, and the first
    block holding one holds the smallest.

    Dropping the walks with u < a loses no answer.  Let (a, b) be the
    smallest shared pair.  If a common neighbor u of it were below a, then
    u and any other common neighbor w would form a smaller shared pair
    {u, w}, with common neighbors a and b.  So every common neighbor of
    (a, b) exceeds a, and the pair is still listed twice from row a.  On a
    bipartite point-line graph this drops every walk that starts at a line.

    The work is O(n + sum C(d,2)); memory is O(n + m) plus one block of
    ``_PAIR_WALKS`` walks and ``_PAIR_SLOTS`` slots, on any input.
    """
    import numpy as np

    n = g.n
    deg = np.fromiter(map(len, g.adjacency), dtype=np.intp, count=n)
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(deg, out=indptr[1:])
    indices = np.fromiter(
        itertools.chain.from_iterable(g.adjacency), dtype=np.intp, count=int(indptr[-1])
    )
    # entry p is the edge a -> u = indices[p]; rank[p] is where a sits in
    # u's neighbor list (entries reach u in increasing a, as rows do)
    order = np.argsort(indices, kind="stable")
    rank = np.empty_like(indices)
    rank[order] = np.arange(indices.size) - indptr[indices[order]]
    first = indptr[indices] + rank + 1  # the first b > a in u's list
    # walks a - u - b with u < a are dropped: see the docstring
    lens = np.where(indices > np.repeat(np.arange(n), deg), deg[indices] - rank - 1, 0)
    walks = np.zeros(indices.size + 1, dtype=np.intp)
    np.cumsum(lens, out=walks[1:])
    row_walks = walks[indptr]  # walks from rows < a
    rows_cap = max(1, _PAIR_SLOTS // max(n, 1))
    # slot[key] holds the index of a walk with that key; only slots written
    # in the current block are read, so the array is never cleared
    slot = np.empty(min(rows_cap, n) * n, dtype=np.intp)
    a0 = 0
    while a0 < n:
        a1 = int(np.searchsorted(row_walks, row_walks[a0] + _PAIR_WALKS, "right")) - 1
        a1 = min(max(a1, a0 + 1), a0 + rows_cap, n)
        lo, hi = indptr[a0], indptr[a1]
        total = int(walks[hi] - walks[lo])
        if total:
            ids = np.arange(total)
            pos = np.repeat(first[lo:hi] - (walks[lo:hi] - walks[lo]), lens[lo:hi])
            pos += ids
            keys = indices[pos]  # b, then (a - a0) * n + b
            keys += np.repeat(
                np.arange(0, (a1 - a0) * n, n), np.diff(row_walks[a0 : a1 + 1])
            )
            slot[keys] = ids
            repeated = keys[slot[keys] != ids]
            if repeated.size:
                key = int(repeated.min())
                return a0 + key // n, key % n
        a0 = a1
    return None


def _even_cycle_meet_in_middle(g: Graph, half: int) -> Optional[CycleWitness]:
    """Find a C_{2*half} as two internally disjoint length-``half`` paths.

    Enumerates simple paths rooted at the minimum vertex of the candidate
    cycle; sound for any graph, intended for bounds where shorter even
    cycles are already excluded.
    """
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


def find_short_even_cycle(g: Graph, bound: int) -> Optional[CycleWitness]:
    """Any even cycle of length <= ``bound`` (even, >= 4), or None."""
    if bound < 4 or bound % 2 != 0:
        raise ValueError("even-cycle bound must be an even integer >= 4")
    witness = _find_c4(g)
    if witness is not None:
        return witness
    if bound == 4:
        return None
    if bipartition(g) is not None:
        # every cycle is even; plain short-cycle BFS covers lengths 6..bound
        return find_cycle_up_to(g, bound)
    for half in range(3, bound // 2 + 1):
        witness = _even_cycle_meet_in_middle(g, half)
        if witness is not None:
            return witness
    return None


def check_family_free(g: Graph, fam: ForbiddenFamily) -> Verdict:
    """Whether ``g`` is free of ``fam``, with a validated witness if not.

    The search stops at the first forbidden cycle and computes no girth;
    :func:`family_girth` adds the girth of a free graph.
    """
    if fam.kind == "all":
        witness = find_cycle_up_to(g, fam.bound)
    else:
        witness = find_short_even_cycle(g, fam.bound)
    if witness is None:
        return Verdict(free=True)
    witness.validate(g)
    if not fam.matches(witness.length):
        raise CertificationError(
            f"internal: witness of length {witness.length} outside family "
            f"{fam.describe()}"
        )
    return Verdict(free=False, witness=witness)


def family_girth(
    g: Graph, fam: ForbiddenFamily
) -> tuple[Optional[GirthValue], Optional[CycleWitness]]:
    """``(girth, None)`` when ``g`` is free of ``fam``, else ``(None,
    witness)`` with a validated witness in ``fam``.

    One search gives both answers.  For ``all:L`` it is one
    :func:`girth_with_witness` search that stops at the first cycle of
    length <= L: ``g`` is free exactly when its girth exceeds L, and a
    graph that fails costs no more than the roots up to that cycle.  For
    ``even:2r`` :func:`check_family_free` runs first, then :func:`girth`
    on a free graph.
    """
    if fam.kind == "all":
        value, witness = girth_with_witness(g, stop_at=fam.bound)
        if value > fam.bound:
            return value, None
    else:
        witness = check_family_free(g, fam).witness
        if witness is None:
            return girth(g), None
    return None, witness


def certify(g: Graph, fam: ForbiddenFamily, what: str) -> GirthValue:
    """Certify that ``g`` is free of ``fam`` and return its exact girth.

    The raising form of :func:`family_girth`, and the certification step
    for hosts and outputs: raises CertificationError naming ``what`` when
    ``g`` has a cycle in ``fam``.
    """
    value, witness = family_girth(g, fam)
    if witness is None:
        return value
    raise CertificationError(
        f"{what} contains a forbidden cycle of length {witness.length} "
        f"({fam.describe()})"
    )


# ---------------------------------------------------------------------------
# edge-level test for incremental (greedy and branch-and-bound) builders
# ---------------------------------------------------------------------------


def closes_forbidden_cycle(
    adj: Sequence[Collection[int]], u: int, v: int, fam: ForbiddenFamily
) -> bool:
    """Would adding the edge uv to the graph ``adj`` close a cycle in ``fam``?

    ``adj[x]`` holds the neighbors of x; uv must not be an edge yet.  A
    cycle through the new edge is uv plus a simple u-v path of length l in
    ``adj``, so the answer is whether such a path exists with l + 1 in
    ``fam`` (l <= bound - 1).

    - ``all:L``: a shortest path is simple, so this is exactly
      dist(u, v) <= L - 1.  Balls around u and v grow one level at a time,
      always on the side with the smaller frontier, until they meet or
      their radii sum to L - 1.
    - ``even:2r``: l must be odd.  A BFS from v to radius
      R = floor((bound - 1) / 2) gives dist(x, v) for the vertices near v;
      a backtracking DFS from u over simple paths, with one mutable
      on-path set, drops a branch once its remaining length budget is at
      most R and v is not within that budget.  The BFS distance is a lower
      bound on the length of every x-v path, so the pruning is exact.

    This one test decides every edge of the greedy extractor, the greedy
    high-girth host and the exact oracle's branch and bound.
    """
    if u == v or v in adj[u]:
        raise ValueError(f"({u},{v}) is a loop or already an edge")
    max_len = fam.bound - 1
    if fam.kind == "all":
        # balls around u and v whose radii sum to the steps taken so far
        ball, other = {u}, {v}
        frontier, other_frontier = {u}, {v}
        for _ in range(max_len):
            if len(frontier) > len(other_frontier):
                ball, other = other, ball
                frontier, other_frontier = other_frontier, frontier
            frontier = {y for x in frontier for y in adj[x]} - ball
            if not frontier.isdisjoint(other):
                return True
            if not frontier:
                return False
            ball |= frontier
        return False

    radius = max_len // 2
    dist_v = {v: 0}
    frontier = [v]
    for d in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist_v:
                    dist_v[y] = d
                    nxt.append(y)
        frontier = nxt

    # stack[i] iterates the neighbors of path[i]; stepping from path[-1]
    # gives a path of len(stack) edges
    path = [u]
    on_path = {u}
    stack = [iter(adj[u])]
    while stack:
        length = len(stack)
        budget = max_len - length  # edges left after this step
        for y in stack[-1]:
            if y == v:
                if length & 1 and length >= 3:
                    return True
                continue
            if y in on_path:
                continue
            if budget <= radius:
                d = dist_v.get(y)
                if d is None or d > budget:
                    continue
                if budget == 1:
                    return True  # y ~ v: a path of max_len edges, and max_len is odd
            path.append(y)
            on_path.add(y)
            stack.append(iter(adj[y]))
            break
        else:
            stack.pop()
            on_path.discard(path.pop())
    return False


# ---------------------------------------------------------------------------
# edge-list text format
# ---------------------------------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the one-edge-per-line format.

    Two whitespace-separated 0-based vertex ids per line; '#' starts a
    comment line; blank lines ignored; loops and duplicates rejected with
    the offending line number.
    """
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    max_v = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListParseError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListParseError(f"line {lineno}: non-integer vertex in {raw!r}")
        if u < 0 or v < 0:
            raise EdgeListParseError(f"line {lineno}: negative vertex id")
        if u == v:
            raise EdgeListParseError(f"line {lineno}: self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListParseError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add(key)
        edges.append(key)
        max_v = max(max_v, u, v)
    return Graph.from_edges(max_v + 1, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"# girthforge edge list: n={g.n} m={g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
