"""Immutable simple-graph core: construction, girth, short-cycle certification.

Every other module builds on :class:`Graph`.  Edges are checked once,
where they enter.  :meth:`Graph.from_edges` and :func:`parse_edge_list`
check an edge list pair by pair, in input order, and :func:`_assemble`
stores the pairs in that order.  :meth:`Graph._from_upper_rows` checks
the sorted upper rows of the PG(2,q) hosts and builds the edge tuple
from the adjacency rows only when it is first read.  A cut
(:func:`edge_subgraph`) keeps some of a built graph's edges, which are
distinct ordered pairs already, and is not checked again.
:func:`family_girth` is the
one search behind every certificate: it tells whether a graph is free of
a forbidden family, with its exact girth when it is and a witness when it
is not.  :func:`certify` is its raising form, the certification step for
every host and output.  The search, :func:`girth_with_witness`, two-colors
the graph first: a bipartite graph is certified by a C4 check and at most
one 6-cycle instead of a BFS from every root.  :func:`check_family_free`
answers the yes/no question alone, stopping at the first witness.  Its
C4 check and witness come from the neighbor-bitset scan
(:func:`_smallest_shared_pair`) at every size, and its C6 search
(:func:`_even_cycle_meet_in_middle`) clears most roots with one count of
set sizes before any path search.
:func:`closes_forbidden_cycle` is the per-edge test with which the greedy
extractor (``greedy_family_free``) and the oracle's branch and bound
decide which edges to keep.  It answers C4 and C6 with set operations on
the kept graph's neighbor sets and two-step sets, which the greedy keeps
as it adds edges, and searches paths only for longer cycles or when u
and v share a neighbor.  No certificate relies on it.

A girth is a plain number: an int, or :data:`INFINITE` (``math.inf``) for
a forest.  :func:`girth_json` is its one text form.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from collections import deque
from dataclasses import FrozenInstanceError, dataclass
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, Sequence


class EdgeListParseError(ValueError):
    """Malformed edge-list input; message carries the offending line number."""


class CertificationError(RuntimeError):
    """An output that must be certificate-clean failed verification."""


# The girth of an acyclic graph.  Girths are plain numbers (an int, or this
# float), so bounds like ``girth(g) >= 2 * r + 2`` read naturally.
INFINITE = math.inf


def girth_json(value: float):
    """The one text form of a girth: an int as itself, :data:`INFINITE` as
    'Infinite'.  JSON has no infinity, so every report, CSV row and host
    record prints girths through this."""
    return "Infinite" if value == INFINITE else value


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``adjacency`` holds one sorted neighbor tuple per vertex, and ``m``
    the edge count, counted once when the graph is built.  ``edges`` holds
    the unordered pairs normalized to ``u < v``.  A graph built from an edge
    list (:meth:`from_edges`, :func:`parse_edge_list`) stores them in input
    order.  A graph built from sorted rows (:meth:`_from_upper_rows`)
    stores none: ``edges`` is built on first read, in lexicographic order,
    from the upper part of each adjacency row, and cached.  Two graphs are
    equal when their n, adjacency and edges are.  No self-loops, no
    parallel edges.  Instances are safe to share across concurrent readers.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]
    m: int
    edges: tuple[tuple[int, int], ...]

    def __init__(
        self,
        n: int,
        edges: tuple[tuple[int, int], ...],
        adjacency: tuple[tuple[int, ...], ...],
    ) -> None:
        # set one by one, as a frozen dataclass does: the instance keeps its
        # attributes inline, which the interpreter reads fastest
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "m", len(edges))
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.adjacency == other.adjacency
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        # equal graphs have equal adjacency: no edge tuple is built
        return hash((self.n, self.adjacency))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r}, adjacency={self.adjacency!r})"

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Graph on ``0..n-1`` from (u, v) pairs in either orientation.

        The pairs are checked and normalised one at a time, in input order,
        so the first self-loop, endpoint outside ``0..n-1`` or parallel
        edge raises ValueError.  A tuple already ordered u < v is stored as
        given.  :func:`_assemble` builds the graph.
        """
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen: set[tuple[int, int]] = set()
        pairs: list[tuple[int, int]] = []
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if v < u:
                e = (v, u)
            elif type(e) is not tuple:
                e = (u, v)
            if e in seen:
                raise ValueError(f"parallel edge ({e[0]},{e[1]})")
            seen.add(e)
            pairs.append(e)
        return _assemble(n, pairs)

    @staticmethod
    def _from_upper_rows(ids: list[int], upper: Iterable[Sequence[int]]) -> "Graph":
        """Graph on ``0..n-1`` from its upper rows: ``upper[u]`` lists the
        neighbors v > u of u in increasing order, one row per vertex.

        ``ids`` is ``list(range(n))``, and every endpoint of id v in the
        graph is the int object ``ids[v]``, which a caller may share.
        Raises ValueError unless there are n rows and each is strictly
        increasing within ``u+1..n-1``, an O(m) check made by C-level
        comparisons.  The rows may come lazily.  One transposition gives the
        lower rows, with no set, sort or pair list, and no edge tuple is
        built: :attr:`edges` builds it on first read.
        """
        n = len(ids)
        lower: list[list[int]] = [[] for _ in ids]
        rows: list[list[int]] = []
        for u, row in zip(ids, upper, strict=True):
            if row and not (
                u < row[0] and row[-1] < n and all(map(operator.lt, row, row[1:]))
            ):
                raise ValueError(f"upper row {u} is not increasing within {u + 1}..{n - 1}")
            row = list(map(ids.__getitem__, row))
            for v in row:
                lower[v].append(u)
            rows.append(row)
        adjacency = tuple(map(tuple, map(operator.add, lower, rows)))
        return _SortedRowGraph(ids, adjacency, sum(map(len, rows)))

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
        """One frozenset of neighbors per vertex, built on first use: the
        host lookups of a labeling and of the resampler read it."""
        return tuple(frozenset(a) for a in self.adjacency)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge, by a binary search of the sorted
        ``adjacency[u]``; it never builds :attr:`adjacency_sets`."""
        row = self.adjacency[u]
        i = bisect.bisect_left(row, v)
        return i < len(row) and row[i] == v


class _SortedRowGraph(Graph):
    """A graph from :meth:`Graph._from_upper_rows`, which stores no edge
    tuple.  Only this class has a class attribute ``edges``; on
    :class:`Graph` it is a plain instance attribute, which the interpreter
    reads faster than one that a class attribute of the same name shadows.
    """

    def __init__(
        self, ids: list[int], adjacency: tuple[tuple[int, ...], ...], m: int
    ) -> None:
        object.__setattr__(self, "n", len(ids))
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_ids", ids)

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Built on first read from :meth:`upper_pairs`.  Each endpoint is
        the adjacency rows' own int object for its id, and the pairs go
        straight into the tuple, with no list of all the edges beside it."""
        return tuple(self.upper_pairs())

    def upper_pairs(self) -> Iterator[tuple[int, int]]:
        """The edges in :attr:`edges` order, made one at a time from the
        rows: row u's neighbors above u, paired with u, row after row."""
        ids, adjacency = self._ids, self.adjacency
        starts = map(bisect.bisect_right, adjacency, ids)
        uppers = map(itertools.islice, adjacency, starts, itertools.repeat(None))
        pairs = map(zip, map(itertools.repeat, ids), uppers)
        return itertools.chain.from_iterable(pairs)


def _assemble(n: int, pairs: list[tuple[int, int]]) -> Graph:
    """The graph on ``0..n-1`` with the checked ``pairs`` (distinct, each
    ``0 <= u < v < n``) as its edges in order.  It checks nothing: it is
    the adjacency fill of :meth:`Graph.from_edges` and
    :func:`parse_edge_list`, which check the pairs first, and of
    :func:`edge_subgraph`, whose pairs a built graph holds."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n=n, edges=tuple(pairs), adjacency=tuple(tuple(sorted(a)) for a in adj))


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


def edge_subgraph(g: Graph, keep: Callable[[tuple[int, int]], bool]) -> Graph:
    """Spanning subgraph with the edges that satisfy ``keep``, in
    ``g.edges`` order, each ``g``'s own tuple.  The kept pairs go straight
    to :func:`_assemble`: as a subsequence of ``g.edges`` they are
    distinct pairs ``0 <= u < v < n``, checked when ``g`` was built."""
    return _assemble(g.n, [e for e in g.edges if keep(e)])


def check_parts(g: Graph, parts: tuple[Sequence[int], Sequence[int]]) -> None:
    """Raise ValueError unless the two parts hold each vertex ``0..n-1``
    exactly once between them and every edge has one end in each."""
    part_a, part_b = parts
    if sorted(itertools.chain(part_a, part_b)) != list(range(g.n)):
        raise ValueError("parts do not partition the vertex set")
    set_a = set(part_a)
    if any((u in set_a) == (v in set_a) for u, v in g.edges):
        raise ValueError("graph is not bipartite with the given parts")


def bipartition(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Two-color ``g`` if bipartite, else return None."""
    coloring = _two_coloring(g)
    if coloring is None:
        return None
    even = coloring[0]
    part0 = tuple(v for v in range(g.n) if v in even)
    part1 = tuple(v for v in range(g.n) if v not in even)
    return part0, part1


def _two_coloring(g: Graph) -> Optional[tuple[set, int]]:
    """``(even, components)`` when ``g`` is bipartite, else None.

    ``even`` holds the vertices at an even distance from the smallest vertex
    of their component.  A level-synchronous BFS runs from each unseen
    vertex with a neighbor, with one set union per level for all its
    neighbors.  An edge inside a level (the union meets the level) closes
    an odd cycle; otherwise every edge joins consecutive levels, and level
    parity is a proper two-coloring.  An isolated vertex is a component of
    its own, at distance 0 from itself: once no odd cycle is found, all of
    them join ``even`` in bulk, so a graph of sparse ids costs no Python
    step per unused id.  O(n + m).
    """
    adj = g.adjacency
    seen: set[int] = set()
    even: set[int] = set()
    components = 0
    for s in itertools.compress(range(g.n), adj):
        if s in seen:
            continue
        components += 1
        level, parity = {s}, 0
        while level:
            seen |= level
            if not parity:
                even |= level
            reach = set().union(*map(adj.__getitem__, level))
            if not reach.isdisjoint(level):
                return None
            level = reach - seen
            parity ^= 1
    reached = len(even)
    even.update(itertools.compress(range(g.n), map(operator.not_, adj)))
    return even, components + len(even) - reached


# ---------------------------------------------------------------------------
# girth and short-cycle detection
# ---------------------------------------------------------------------------


def _bfs_detect(g: Graph, root: int, depth_cap: int, stop_at: int = 0):
    """Truncated BFS from ``root`` reporting the best non-tree detection.

    Returns ``(value, x, y, parent)`` where value is
    ``depth[x] + depth[y] + 1`` minimized over non-tree edges (x, y) scanned
    while expanding vertices of depth < depth_cap, and ``parent`` is the
    BFS tree, or None if none found.
    A detection value bounds the length of a genuine simple cycle from above.
    The first detection of value <= ``stop_at`` is returned at once.
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
                if value <= stop_at:
                    return value, x, y, parent
                if best is None or value < best[0]:
                    best = (value, x, y)
    if best is None:
        return None
    return best[0], best[1], best[2], parent


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


def girth_with_witness(
    g: Graph, stop_at: int = 3
) -> tuple[float, Optional[CycleWitness]]:
    """Girth with a shortest-cycle witness.

    One two-coloring pass (:func:`_two_coloring`) comes first.  A
    bipartite graph is a forest exactly when m <= n - components, and is
    answered in O(n + m).  A bipartite graph has no odd cycle, so a C4 from
    :func:`_find_c4` is a shortest cycle, and without one every cycle has
    length >= 6, so a 6-cycle is shortest too: ``stop_at`` is raised to 6.

    Then a BFS runs from every vertex with a neighbor in turn, truncated
    at half the current best bound; the minimum detection over all roots
    equals the girth.
    The scan stops at the first cycle of length <= ``stop_at``.  With the
    default 3 nothing shorter exists, so the girth is always exact.  With
    ``stop_at`` = L a result above L is the exact girth, and a result of at
    most L is the length of the witness, a cycle of that length, which need
    not be a shortest one.
    """
    coloring = _two_coloring(g)
    if coloring is not None:
        if g.m <= g.n - coloring[1]:
            return INFINITE, None
        witness = _find_c4(g)
        if witness is not None:
            witness.validate(g)
            return 4, witness
        stop_at = max(stop_at, 6)
    best: float = INFINITE
    best_witness: Optional[CycleWitness] = None
    for root in itertools.compress(range(g.n), g.adjacency):
        # math.inf // 2 is nan, so an unbounded search is capped at n
        cap = g.n if best == INFINITE else (best + 1) // 2
        hit = _bfs_detect(g, root, cap, stop_at)
        if hit is None:
            continue
        value, x, y, parent = hit
        if value < best:
            witness = _witness_from_detection(x, y, parent)
            witness.validate(g)
            # The trimmed cycle can only be shorter than the detection value.
            best = min(value, witness.length)
            best_witness = witness
        if best <= stop_at:
            break
    return best, best_witness


def girth(g: Graph) -> float:
    """Length of a shortest cycle of ``g``; :data:`INFINITE` for forests."""
    return girth_with_witness(g)[0]


def find_cycle_up_to(g: Graph, bound: int) -> Optional[CycleWitness]:
    """Any simple cycle of length <= bound, or None.

    Complete: a cycle of length c <= bound is detected from any of its
    vertices by a BFS truncated at depth ceil(c/2).  A forest (bipartite
    with m <= n - components) is answered in O(n + m), without the BFS.
    """
    if bound < 3:
        raise ValueError("cycle bound must be >= 3")
    coloring = _two_coloring(g)
    if coloring is not None and g.m <= g.n - coloring[1]:
        return None
    cap = (bound + 1) // 2
    for root in itertools.compress(range(g.n), g.adjacency):
        hit = _bfs_detect(g, root, cap)
        if hit is None:
            continue
        value, x, y, parent = hit
        if value <= bound:
            witness = _witness_from_detection(x, y, parent)
            witness.validate(g)
            if witness.length <= bound:
                return witness
    return None


def _find_c4(g: Graph) -> Optional[CycleWitness]:
    """A C4, or None when ``g`` is C4-free.

    A C4 is two vertices with two common neighbors.  The witness is
    (c1, a, c2, b): the smallest shared pair (a, b) from
    :func:`_smallest_shared_pair` and its two smallest common neighbors
    c1 < c2, at every size.
    """
    pair = _smallest_shared_pair(g)
    if pair is None:
        return None
    a, b = pair
    mids = sorted(set(g.adjacency[a]).intersection(g.adjacency[b]))
    return CycleWitness((mids[0], a, mids[1], b))


_MASK_BUDGET = 1 << 25  # bytes of neighbor bitsets the scan may hold


def _smallest_shared_pair(g: Graph) -> Optional[tuple[int, int]]:
    """Lexicographically smallest pair a < b with two or more common
    neighbors, or None when ``g`` is C4-free.

    Rows a are walked in increasing order.  Row a follows every walk
    a - u - b with a < u and a < b: its middles are the neighbors u > a,
    and each middle lists the part of its sorted neighbor list after a.
    A b listed by two middles of one row has two common neighbors with a,
    so the first row with such a b holds the smallest pair, and its
    smallest b completes it.

    Dropping the walks with u < a loses no answer.  Let (a, b) be the
    smallest shared pair.  If a common neighbor u of it were below a, then
    u and any other common neighbor w would form a smaller shared pair
    {u, w}, with common neighbors a and b.  So every common neighbor of
    (a, b) exceeds a, and the pair is still listed twice from row a.  On a
    bipartite point-line graph this drops every walk that starts at a line.

    Each middle u is a Python-int bitset of N(u), built from a bytearray
    on first use and cached.  Most rows are cleared by one OR per middle:
    the middles all hold bit a, so the popcount of their OR is
    sum(deg(u)) - (k - 1) for k middles exactly when no other bit is held
    twice.  Otherwise the row runs ``dup |= seen & mask``,
    ``seen |= mask`` over its middles, and the lowest bit of ``dup`` above
    a is b.  Only the first row with a shared pair gets there: a bit b < a
    held twice would make (b, a) a shared pair, found at an earlier row.
    That is O(m) big-int steps of at most n bits each.  A bitset costs
    about max(N(u))/8 bytes, so on sparse ids the masks of all middles
    could pass :data:`_MASK_BUDGET`.  Then each row takes the list tails
    after a instead: their union is as large as their total length exactly
    when no b is listed twice, and only a row where it is smaller
    intersects Python sets of the tails.  The answer is the same, in
    O(n + sum C(d,2)) and one row's sets of memory.
    """
    adj = g.adjacency
    # the middles are the vertices with a lower neighbor
    mask_bytes = sum(row[-1] for u, row in enumerate(adj) if row and row[0] < u) // 8
    use_masks = mask_bytes <= _MASK_BUDGET
    masks: dict[int, int] = {}
    degree: dict[int, int] = {}  # of each middle with a mask
    for a, row in enumerate(adj):
        if len(row) < 2 or row[-2] < a:
            continue  # fewer than two middles
        mids = row[bisect.bisect_right(row, a):]
        if use_masks:
            for u in itertools.filterfalse(masks.__contains__, mids):
                buf = bytearray(adj[u][-1] // 8 + 1)
                for b in adj[u]:
                    buf[b >> 3] |= 1 << (b & 7)
                masks[u] = int.from_bytes(buf, "little")
                degree[u] = len(adj[u])
            bits = list(map(masks.__getitem__, mids))
            union = functools.reduce(operator.or_, bits)
            if union.bit_count() == sum(map(degree.__getitem__, mids)) - len(mids) + 1:
                continue
            seen = dup = 0
            for mask in bits:
                dup |= seen & mask
                seen |= mask
            dup >>= a + 1
            if dup:
                return a, a + (dup & -dup).bit_length()
        else:
            tails = [adj[u][bisect.bisect_right(adj[u], a):] for u in mids]
            if len(set().union(*tails)) == sum(map(len, tails)):
                continue
            seen_set: set[int] = set()
            dups: set[int] = set()
            for tail in tails:
                dups.update(seen_set.intersection(tail))
                seen_set.update(tail)
            return a, min(dups)
    return None


def _even_cycle_meet_in_middle(g: Graph, half: int) -> Optional[CycleWitness]:
    """Find a C_{2*half} as two internally disjoint length-``half`` paths.

    Enumerates simple paths rooted at the minimum vertex of the candidate
    cycle; sound for any graph, intended for bounds where shorter even
    cycles are already excluded.  The DFS keeps one mutable path and
    on-path set, and stores a tuple only for each length-``half`` path.

    A root v yields a cycle only when two of its paths end at one vertex.
    At half = 3 most roots are cleared by one count first.  The paths
    are v-a-b-x with a, b, x > v and x != a.  For each 2-path v-a-b take
    the tail of N(b) above v: it holds a once, and the ends of the paths
    through v-a-b are the rest of it.  Let c_a be the number of 2-paths
    through a, T the tails' total length and U their union.  Then
    T - |U| is sum(c_a - 1), plus the number of paths that end at some
    a, plus how often each other end is reached more than once.  So when
    T - |U| = sum(c_a - 1), no end is reached twice and the DFS, which
    would find nothing, is skipped.  Otherwise the DFS runs as at every
    other half, so the witness is the same.  The count reads only this
    graph, never the greedy's test.  (On a C4-free graph no path ends at
    an a, so there it clears exactly the roots where no end repeats.)
    """
    adj = g.adjacency
    for v in itertools.compress(range(g.n), adj):
        if half == 3:
            tails = []
            excess = 0  # sum(c_a - 1) over the a with c_a >= 1
            row = adj[v]
            for a in row[bisect.bisect_right(row, v):]:
                row_a = adj[a]
                bs = row_a[bisect.bisect_right(row_a, v):]
                if bs:
                    excess += len(bs) - 1
                    tails += [adj[b][bisect.bisect_right(adj[b], v):] for b in bs]
            if sum(map(len, tails)) - len(set().union(*tails)) == excess:
                continue
        # w -> the paths v..x (w excluded) of the length-half paths v..x w
        paths_to: dict[int, list[tuple[int, ...]]] = {}
        # stack[i] walks the neighbors of path[i], last first; stepping
        # from path[-1] gives a path of len(stack) edges
        path = [v]
        interior: set[int] = set()  # path[1:]
        stack = [reversed(adj[v])]
        while stack:
            for nxt in stack[-1]:
                if nxt <= v or nxt in interior:
                    continue
                if len(stack) < half:
                    path.append(nxt)
                    interior.add(nxt)
                    stack.append(reversed(adj[nxt]))
                    break
                # v is in no interior, so comparing whole stored paths works
                for other in paths_to.get(nxt, ()):
                    if interior.isdisjoint(other):
                        cycle = tuple(path) + (nxt,) + tuple(reversed(other[1:]))
                        witness = CycleWitness(cycle)
                        witness.validate(g)
                        return witness
                paths_to.setdefault(nxt, []).append(tuple(path))
            else:
                stack.pop()
                interior.discard(path.pop())
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
    if _two_coloring(g) is not None:
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
    :func:`family_girth` adds the girth of a free graph.  ``all:L`` with
    L <= 5 is answered free at once for a bipartite graph without a C4
    (no odd cycle, and no even cycle shorter than 6).  Every other case,
    and every graph that fails, runs :func:`find_cycle_up_to` (``all:L``)
    or :func:`find_short_even_cycle` (``even:2r``), whose witness is
    reported.
    """
    if fam.kind == "all":
        if fam.bound <= 5 and _two_coloring(g) is not None and _find_c4(g) is None:
            return Verdict(free=True)
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
) -> tuple[Optional[float], Optional[CycleWitness]]:
    """``(girth, None)`` when ``g`` is free of ``fam``, else ``(None,
    witness)`` with a validated witness in ``fam``.

    One search gives both answers: :func:`girth_with_witness` stopping at
    the first cycle of length <= the family's bound.  ``g`` is free exactly
    when its girth exceeds the bound, and a cycle it stops at is in the
    family unless it is odd under ``even:2r``.  Only then, which needs an
    odd cycle and so a non-bipartite graph, :func:`check_family_free` runs,
    and :func:`girth` on a free graph.
    """
    value, witness = girth_with_witness(g, stop_at=fam.bound)
    if value > fam.bound:
        return value, None
    if not fam.matches(witness.length):
        witness = check_family_free(g, fam).witness
        if witness is None:
            return girth(g), None
    return None, witness


def certify(g: Graph, fam: ForbiddenFamily, what: str) -> float:
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
    adj: Sequence[AbstractSet[int]],
    u: int,
    v: int,
    fam: ForbiddenFamily,
    reach2: Optional[Sequence[AbstractSet[int]]] = None,
) -> bool:
    """Would adding the edge uv to the graph ``adj`` close a cycle in ``fam``?

    ``adj[x]`` is the set of neighbors of x (set-like: the C4 and C6
    answers call ``isdisjoint``); uv must not be an edge yet.  A cycle
    through the new edge is uv plus a simple u-v path of length l in
    ``adj``, so the answer is whether such a path exists with l + 1 in
    ``fam`` (l <= bound - 1).

    - ``all:L``: a shortest path is simple, so this is exactly
      dist(u, v) <= L - 1.  Balls around u and v grow one level at a time,
      always on the side with the smaller frontier (of two single
      vertices, the one with fewer neighbors, so a hub is expanded only
      when the other side needs as much), until they meet or their radii
      sum to L - 1.
    - ``even:4`` and ``even:6`` with ``reach2``: the caller keeps the
      two-step sets W_x, the union of N(a) over a in N(x), for every x
      the query can reach (u, v and their neighbors), and passes them as
      ``reach2[x]``.  No set is built here.
    - ``even:4``: l must be 3.  A 3-walk u-a-b-v is always a simple path:
      a != v and b != u because uv is not an edge.  So the answer is
      whether W_u meets N(v).
    - ``even:6``: l is 3 or 5.  If W_u meets N(v), there is a 3-path.
      Otherwise, when v is not in W_u (u and v share no neighbor), a
      5-path exists iff some b in W_u is adjacent to some c in W_v, that
      is iff W_a meets W_v for some a in N(u), or W_d meets W_u for some
      d in N(v): the side with fewer neighbors is scanned.  Proof: take
      the walk u-a-b-c-d-v.  If a = c, b = d, b = u or c = v, it holds a
      3-walk, so a 3-path, which the first check ruled out.  If u = c,
      a = d or b = v, then u and v share a neighbor.  Every other
      coincidence needs uv to be an edge.  When u and v do share a
      neighbor, the path search decides.
    - ``even:2r`` otherwise, and every even query without ``reach2``
      (:func:`_odd_path_dfs`): l must be odd, and a path search decides.

    This one test decides every edge of the greedy extractor, which
    passes the ``reach2`` it keeps, and of the exact oracle's branch and
    bound, which removes edges and passes none, so the path search alone
    decides the oracle's even queries.  The greedy high-girth
    host decides its pairs from stored distance balls instead
    (:func:`hosts.greedy_high_girth`).
    """
    if u == v or v in adj[u]:
        raise ValueError(f"({u},{v}) is a loop or already an edge")
    max_len = fam.bound - 1
    if fam.kind == "all":
        # balls around u and v whose radii sum to the steps taken so far
        ball, other = {u}, {v}
        frontier, other_frontier = {u}, {v}
        for _ in range(max_len):
            if len(frontier) > len(other_frontier) or (
                len(frontier) == len(other_frontier) == 1
                and len(adj[min(frontier)]) > len(adj[min(other_frontier)])
            ):
                ball, other = other, ball
                frontier, other_frontier = other_frontier, frontier
            frontier = {y for x in frontier for y in adj[x]} - ball
            if not frontier.isdisjoint(other):
                return True
            if not frontier:
                return False
            ball |= frontier
        return False

    if max_len <= 5 and reach2 is not None:
        nbrs_u, nbrs_v = adj[u], adj[v]
        reach_u = reach2[u]
        if not reach_u.isdisjoint(nbrs_v):
            return True
        if max_len == 3:
            return False
        if v not in reach_u:
            if len(nbrs_u) <= len(nbrs_v):
                near, far = nbrs_u, reach2[v]
            else:
                near, far = nbrs_v, reach_u
            return any(not reach2[a].isdisjoint(far) for a in near)
    return _odd_path_dfs(adj, u, v, max_len)


def _odd_path_dfs(
    adj: Sequence[AbstractSet[int]], u: int, v: int, max_len: int
) -> bool:
    """Is there a simple u-v path of odd length l, 3 <= l <= ``max_len``?

    ``max_len`` is odd and uv is not an edge.  An endpoint with no
    neighbor ends no such path.  The search walks from the endpoint with
    fewer neighbors (named u below; the paths are the same, reversed), so
    a hub is not the root whose every branch it walks.  At ``max_len`` 3
    every 3-walk u-a-b-v is a path (a != v and b != u), so one scan of
    N(u) decides.  Otherwise a BFS from v to radius R = floor(max_len / 2)
    gives dist(x, v) for the vertices near v; a backtracking DFS from u
    over simple paths, with one mutable on-path set, drops a branch once
    its remaining length budget is at most R and v is not within that
    budget.  The BFS distance is a lower bound on the length of every
    x-v path, so the pruning is exact.
    """
    if not adj[u] or not adj[v]:
        return False
    if len(adj[v]) < len(adj[u]):
        u, v = v, u  # the same paths, reversed
    if max_len == 3:
        return any(not adj[a].isdisjoint(adj[v]) for a in adj[u])
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


# The largest vertex id an edge list may use.  The graph gets one adjacency
# row per id up to the largest one, used or not, so a single huge id would
# otherwise allocate without bound.
MAX_VERTEX_ID = 2**22 - 1


def parse_edge_list(text: str) -> Graph:
    """Parse the one-edge-per-line format.

    Two whitespace-separated 0-based vertex ids per line, each the ASCII
    digits 0-9 (no ``+``, ``_`` or other digits) and at most
    :data:`MAX_VERTEX_ID`; '#' starts a comment line; blank lines ignored;
    loops, duplicates and ids beyond the cap rejected with the offending
    line number.  Ids are kept as given: unused ids below the largest one
    are isolated vertices.  Checked here once, the pairs go straight to
    :func:`_assemble`, not through :meth:`Graph.from_edges`.
    """
    width = len(str(MAX_VERTEX_ID))
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
        a, b = parts
        if not (a + b).isascii() or not (
            a.removeprefix("-").isdigit() and b.removeprefix("-").isdigit()
        ):
            raise EdgeListParseError(f"line {lineno}: non-integer vertex in {raw!r}")
        if len(a) > width or len(b) > width:
            a, b = _short_id(a, lineno), _short_id(b, lineno)
        u, v = int(a), int(b)
        if u < 0 or v < 0:
            raise EdgeListParseError(f"line {lineno}: negative vertex id")
        if u > MAX_VERTEX_ID or v > MAX_VERTEX_ID:
            raise EdgeListParseError(
                f"line {lineno}: vertex id {max(u, v)} exceeds MAX_VERTEX_ID"
            )
        if u == v:
            raise EdgeListParseError(f"line {lineno}: self-loop at {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise EdgeListParseError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add(key)
        edges.append(key)
        max_v = max(max_v, u, v)
    return _assemble(max_v + 1, edges)


def _short_id(token: str, lineno: int) -> str:
    """The id ``token`` (ASCII digits after at most one '-') without its
    leading zeros, which int() counts against its limit of 4300 digits:
    "-007" is "-7".  An id with more digits left than :data:`MAX_VERTEX_ID`
    has is rejected here, by that count, and never reaches int()."""
    sign = "-" if token.startswith("-") else ""
    digits = token.removeprefix("-").lstrip("0")
    if len(digits) > len(str(MAX_VERTEX_ID)):
        if sign:
            raise EdgeListParseError(f"line {lineno}: negative vertex id")
        raise EdgeListParseError(f"line {lineno}: vertex id {digits} exceeds MAX_VERTEX_ID")
    return sign + (digits or "0")


def edge_list_lines(g: Graph) -> Iterator[str]:
    """The edge-list text of ``g`` line by line, for writing it unjoined.
    A sorted-row graph's lines come straight from its rows, so writing a
    plane host builds no edge tuple."""
    yield f"# girthforge edge list: n={g.n} m={g.m}\n"
    pairs = g.upper_pairs() if isinstance(g, _SortedRowGraph) else g.edges
    for u, v in pairs:
        yield f"{u} {v}\n"


def format_edge_list(g: Graph) -> str:
    return "".join(edge_list_lines(g))
