"""Spanning subgraphs of girth >= 2r+2 with large minimum degree.

A uniform coloring against a high-girth host induces the host-edge
subgraph; resampling clears degree-deficiency and frugality violations
(a constructive stand-in for a local-lemma existence argument); a
random-weight local-minimum rule then thins each color-class pair to a
matching, which forces high girth.  The resampler keeps type-A
(degree-deficiency) events exactly and incrementally, since it reads
them every round; it looks up the first type-B (frugality) event only
when no type-A event is left, and :func:`find_bad_events` counts the
residual at the round cap.  Every candidate is certified when made,
and :func:`report.pick` ranks them by (minimum degree, edges).
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .graph import (
    ForbiddenFamily,
    Graph,
    VertexColoring,
    certify,
    edge_subgraph,
    family_girth,
    girth_json,
)
from .edge_extract import h_prime, spanning_forest
from .hosts import (
    DESK_GREEDY_ORDER,
    HostGraph,
    dense_subhost,
    greedy_high_girth,
    incidence_graph_pg2,
    smallest_prime_with_plane_order,
)
from .report import ExtractionReport, pick
from .seeds import mix

_SALT_WEIGHTS = 515

DEFAULT_MAX_ROUNDS = 64  # resampling rounds per trial before it is degraded


@dataclass(frozen=True)
class BadEvent:
    """Degree deficiency (type A) or frugality violation (type B).

    Type A at v: the host-edge subgraph degree of v fell to at most
    q*d(v)/(2*ell).  Type B at (v, color): t+1 neighbors of v share the
    color; ``witness`` lists them.
    """

    tag: str  # "A" or "B"
    vertex: int
    color: Optional[int] = None
    witness: tuple[int, ...] = ()


@dataclass(frozen=True)
class EdgeWeights:
    """Per-edge weights in (0,1); comparison is (value, index) so the order
    is strict even under float collisions."""

    values: tuple[float, ...]

    @staticmethod
    def random(m: int, seed: int) -> "EdgeWeights":
        rng = random.Random(seed)
        return EdgeWeights(tuple(rng.random() for _ in range(m)))

    def key(self, index: int) -> tuple[float, int]:
        return (self.values[index], index)


@dataclass(frozen=True)
class ResampleResult:
    coloring: VertexColoring
    rounds: int
    degraded: bool
    residual_events: int


def _crowded_colors(seen: list[int], t: int) -> list[int]:
    """The colors that occur more than t times in ``seen``, ascending."""
    if len(set(seen)) > len(seen) - t:
        return []  # too few repeated colors for one to exceed t
    return sorted(c for c, k in Counter(seen).items() if k > t)


def find_bad_events(
    g: Graph, chi: VertexColoring, host: HostGraph, q: int, t: int
) -> list[BadEvent]:
    """All type-A violations plus one type-B event per over-represented
    (vertex, color); empty means the coloring is accepted.  Type A comes
    first, by vertex, then type B by (vertex, color).

    The type-A comparison 2*ell*d' <= q*d is exact integer arithmetic;
    isolated vertices are skipped (the event is vacuous for them).  A
    type-B witness is the t+1 smallest neighbors of its color.
    """
    if chi.ell != host.graph.n:
        raise ValueError("coloring color count must equal the host order")
    if q < 1 or t < 1:
        raise ValueError("need q >= 1 and t >= 1")
    host_adj = host.graph.adjacency_sets
    colors = chi.colors
    events: list[BadEvent] = []
    type_b: list[BadEvent] = []
    for v, nbrs in enumerate(g.adjacency):
        if not nbrs:
            continue
        seen = [colors[w] for w in nbrs]
        d_prime = sum(map(host_adj[colors[v]].__contains__, seen))
        if 2 * chi.ell * d_prime <= q * len(nbrs):
            events.append(BadEvent("A", v))
        for c in _crowded_colors(seen, t):
            group = [w for w, cw in zip(nbrs, seen) if cw == c]  # ascending
            type_b.append(BadEvent("B", v, c, tuple(group[: t + 1])))
    events.extend(type_b)
    return events


def resample_until_clear(
    g: Graph,
    host: HostGraph,
    q: int,
    t: int,
    seed: int,
    max_rounds: int,
) -> ResampleResult:
    """Resample the first bad event's dependency set until none remain.

    The first event (the lowest type-A vertex, else the lowest
    (vertex, color) type-B event) is resampled: type A redraws
    the vertex and its whole neighborhood, type B only the witness set.
    As in Moser and Tardos's algorithm, a redraw changes only the events
    at the redrawn vertices and their neighbors.  Type A is read every
    round, so it is kept exactly and incrementally:

    * d'(v), the number of neighbors of v whose colors are host-adjacent
      to v's, is an exact counter.  A recolored vertex x moves it by
      [new in H(color y)] - [old in H(color y)] at each neighbor y that
      was not redrawn, and each redrawn vertex recounts its own, so the
      type-A set is exact after every round at O(sum of the redrawn
      vertices' degrees).
    * Type B (colors held by more than t neighbors) is read only when no
      type-A event is left: the first one is looked up then, the lowest
      vertex with such a color and its lowest one.  Its witness is the
      t+1 smallest neighbors of that color.

    Hitting ``max_rounds`` returns the final coloring flagged degraded
    together with its residual event count, the length of one
    :func:`find_bad_events` scan (never silent).
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    if q < 1 or t < 1:
        raise ValueError("need q >= 1 and t >= 1")
    ell = host.graph.n
    rng = random.Random(seed)
    adj = g.adjacency
    host_adj = host.graph.adjacency_sets
    colors = list(VertexColoring.uniform(g.n, ell, rng).colors)
    d_prime = [
        sum(map(host_adj[colors[v]].__contains__, map(colors.__getitem__, nbrs)))
        for v, nbrs in enumerate(adj)
    ]
    # v has a type-A event exactly when d'(v) <= cap[v] (2*ell*d' <= q*d)
    cap = [q * len(nbrs) // (2 * ell) if nbrs else -1 for nbrs in adj]
    type_a = {v for v, d in enumerate(d_prime) if d <= cap[v]}

    def first_crowded() -> Optional[tuple[int, int]]:
        """The lowest vertex with a color held by more than t neighbors,
        and its lowest such color; None when there is none."""
        for v, nbrs in enumerate(adj):
            over = _crowded_colors([colors[w] for w in nbrs], t)
            if over:
                return v, over[0]
        return None

    rounds = 0
    while type_a or (crowded := first_crowded()) is not None:
        if rounds >= max_rounds:
            chi = VertexColoring(tuple(colors), ell)
            residual = len(find_bad_events(g, chi, host, q, t))
            return ResampleResult(chi, rounds, True, residual)
        if type_a:
            v = min(type_a)
            targets = (v,) + adj[v]
        else:
            v, color = crowded
            targets = tuple(w for w in adj[v] if colors[w] == color)[: t + 1]
        rounds += 1
        redrawn = set(targets)
        for x in targets:
            co = colors[x]
            cn = colors[x] = rng.randrange(ell)
            if cn == co:
                continue
            for y in adj[x]:
                if y in redrawn:
                    continue  # recounted below
                own = host_adj[colors[y]]
                delta = (cn in own) - (co in own)
                if delta:
                    d = d_prime[y] = d_prime[y] + delta
                    if d <= cap[y]:
                        type_a.add(y)
                    else:
                        type_a.discard(y)
        for x in targets:  # a plain loop: cheaper than map() at these degrees
            own = host_adj[colors[x]]
            d = 0
            for w in adj[x]:
                if colors[w] in own:
                    d += 1
            d_prime[x] = d
            if d <= cap[x]:
                type_a.add(x)
            else:
                type_a.discard(x)
    return ResampleResult(VertexColoring(tuple(colors), ell), rounds, False, 0)


def edge_retention(
    h_prime_graph: Graph, chi: VertexColoring, weights: EdgeWeights
) -> Graph:
    """Keep, per color-class pair, the locally weight-minimal edges.

    An edge uv belongs to two groups: the edges at u, and those at v,
    between the same two color classes.  :meth:`EdgeWeights.key` is a
    strict order, so an edge beats every rival exactly when it is the
    lightest of both groups; one pass finds each group's lightest edge.

    Requires chi proper on the input.  The output restricted to any two
    color classes is a matching; combined with a host of girth >= 2r+2
    upstream this forces output girth >= 2r+2 (certified by the caller).
    """
    if len(weights.values) != h_prime_graph.m:
        raise ValueError("weight vector length must equal the edge count")
    if not chi.is_proper_on(h_prime_graph):
        raise ValueError("coloring is not proper on the input graph")
    colors = chi.colors
    groups = []  # per edge, its (vertex, class pair) group at each end
    lightest: dict[tuple[int, int, int], int] = {}
    for i, (u, v) in enumerate(h_prime_graph.edges):
        cu, cv = colors[u], colors[v]
        pair = (cu, cv) if cu < cv else (cv, cu)
        ends = ((u,) + pair, (v,) + pair)
        groups.append(ends)
        for group in ends:
            j = lightest.get(group)
            if j is None or weights.key(i) < weights.key(j):
                lightest[group] = i
    kept = {
        h_prime_graph.edges[i]
        for i, (a, b) in enumerate(groups)
        if lightest[a] == i == lightest[b]
    }
    return edge_subgraph(h_prime_graph, kept.__contains__)


# ---------------------------------------------------------------------------
# host supply
# ---------------------------------------------------------------------------


def _quantize(k: int) -> int:
    """Round the host-size parameter up to a power of two so runs on similar
    inputs share one base host from the caches of :mod:`hosts`."""
    return 1 << (k - 1).bit_length()


def _degree_host(k_quantized: int, r: int) -> Optional[HostGraph]:
    """Girth >= 2r+2 host of order near 2k via dense_subhost, or None when
    no such host fits the order.

    r = 2 uses the smallest projective incidence graph (girth exactly 6)
    with k_quantized points, or the largest supported one, PG(2,101), when
    none has that many (from k_quantized = 16384 on); r >= 3 the greedy
    construction of order 2 k_quantized, capped at DESK_GREEDY_ORDER, which
    has no girth-(2r+2) graph below 2r + 2 vertices.  The caller flags a
    host below 2 k_quantized as size_capped.
    """
    if r == 2:
        q = smallest_prime_with_plane_order(k_quantized)
        base = incidence_graph_pg2(q)
    else:
        n = min(2 * k_quantized, DESK_GREEDY_ORDER)
        if n < 2 * r + 2:
            return None
        base = greedy_high_girth(n, 2 * r + 2, 0)
    return dense_subhost(base, k_quantized)


def extract_spanning_high_girth(
    g: Graph, r: int, seed: int, trials: int, max_rounds: int = DEFAULT_MAX_ROUNDS
) -> tuple[Graph, ExtractionReport]:
    """Best certified girth >= 2r+2 spanning subgraph by minimum degree.

    The host is sized by kq, Delta + 1 (a closed neighborhood's size)
    rounded up to a power of two, not by the paper's 2 ceil(2 e^4 Delta),
    which serves only its local-lemma count: retention makes each
    color-class pair a matching, so any host of girth >= 2r+2 will do.
    Frugality is t = max(1, ceil(ln Delta)).  Each trial resamples a
    coloring, takes the host-edge subgraph, and thins it by edge
    retention; the identity (when already certified) and a spanning forest
    always compete, so a certified candidate exists for every input.  With
    no edges, or no host of girth 2r+2 at the chosen order, no trial runs
    and the report has no host fields.  Every candidate is recorded once,
    with its method, degraded flag and rounds, and ``degraded_trials``
    counts the degraded ones in that list.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    fam = ForbiddenFamily.all_cycles_up_to(2 * r + 1)
    delta_max = g.max_degree()

    # (graph, certified girth, fields)
    candidates: list[tuple[Graph, float, dict]] = []

    def add(graph, method, degraded=False, rounds=0, value=None) -> None:
        if value is None:
            value = certify(graph, fam, f"{method} candidate")
        fields = {"method": method, "degraded": degraded, "rounds_used": rounds}
        candidates.append((graph, value, fields))

    value, witness = family_girth(g, fam)
    if witness is None:
        add(g, "identity", value=value)
    add(spanning_forest(g), "forest")

    host_meta: dict = {}
    kq = _quantize(delta_max + 1)
    host = _degree_host(kq, r) if g.m > 0 else None
    if host is not None:
        capped = host.order < 2 * kq
        t = max(1, math.ceil(math.log(delta_max)))
        q = max(1, host.min_degree)
        ell = host.order
        host_meta = {
            "host": {
                "label": host.label,
                "order": ell,
                "min_degree": host.min_degree,
                "girth": girth_json(host.certified_girth),
            },
            "t": t,
            "size_capped": capped,
            # informational (false unless Delta is tiny): whether the paper's
            # precondition (host supply vs Delta^2 log^4 Delta) plausibly held
            "precondition_plausible": bool(
                not capped
                and q * 2 * kq * g.min_degree()
                >= delta_max**2 * max(1.0, math.log(delta_max)) ** 4
            ),
        }
        for trial in range(trials):
            trial_seed = mix(seed, trial)
            res = resample_until_clear(g, host, q, t, trial_seed, max_rounds)
            hp = h_prime(g, res.coloring, host)
            weights = EdgeWeights.random(hp.m, mix(trial_seed, _SALT_WEIGHTS))
            thin = edge_retention(hp, res.coloring, weights)
            add(thin, "resample", res.degraded, res.rounds)

    degraded_trials = sum(fields["degraded"] for _, _, fields in candidates)
    extras = {"degraded_trials": degraded_trials, **host_meta}
    return pick(
        g, fam, candidates, lambda out: (out.min_degree(), out.m),
        r, trials, seed, extras,
    )
