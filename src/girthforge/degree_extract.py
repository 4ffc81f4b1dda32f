"""Spanning subgraphs of girth >= 2r+2 with large minimum degree.

A uniform coloring against a high-girth host induces the host-edge
subgraph; resampling clears degree-deficiency and frugality violations
(a constructive stand-in for a local-lemma existence argument); a
random-weight local-minimum rule then thins each color-class pair to a
matching, which forces high girth.  Every output is certified directly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .graph import (
    ForbiddenFamily,
    GirthValue,
    Graph,
    VertexColoring,
    certify,
    edge_subgraph,
    family_girth,
)
from .edge_extract import h_prime, spanning_forest
from .hosts import (
    MAX_PLANE_ORDER,
    HostGraph,
    dense_subhost,
    greedy_high_girth,
    incidence_graph_pg2,
    smallest_prime_with_plane_order,
)
from .report import ExtractionReport, girth_json
from .seeds import mix

_SALT_WEIGHTS = 515

HOST_ORDER_CAP = 50_000  # hard cap on host order
GREEDY_HOST_ORDER = 400  # desk-scale cap for the greedy girth>=2r+2 host


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

    def sort_key(self):
        return (0 if self.tag == "A" else 1, self.vertex, self.color or 0)


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


def _vertex_events(
    v: int,
    nbrs: tuple[int, ...],
    colors,
    host_adj,
    ell: int,
    q: int,
    t: int,
) -> tuple[bool, list[BadEvent]]:
    """Whether v has a type-A event, and its type-B events by color.

    Both depend only on the colors of v and of its neighbors ``nbrs``.
    """
    d = len(nbrs)
    if d == 0:
        return False, []
    own = host_adj[colors[v]]
    d_prime = sum(1 for w in nbrs if colors[w] in own)
    groups: dict[int, list[int]] = {}
    for w in nbrs:
        groups.setdefault(colors[w], []).append(w)
    type_b = [
        BadEvent("B", v, c, tuple(sorted(groups[c])[: t + 1]))
        for c in sorted(groups)
        if len(groups[c]) > t
    ]
    return 2 * ell * d_prime <= q * d, type_b


def find_bad_events(
    g: Graph, chi: VertexColoring, host: HostGraph, q: int, t: int
) -> list[BadEvent]:
    """All type-A violations plus one type-B event per over-represented
    (vertex, color); empty means the coloring is accepted.

    The type-A comparison 2*ell*d' <= q*d is exact integer arithmetic;
    isolated vertices are skipped (the event is vacuous for them).
    """
    if chi.ell != host.graph.n:
        raise ValueError("coloring color count must equal the host order")
    if q < 1 or t < 1:
        raise ValueError("need q >= 1 and t >= 1")
    host_adj = host.graph.adjacency_sets
    events: list[BadEvent] = []
    type_b: list[BadEvent] = []
    for v in range(g.n):
        bad_a, bad_b = _vertex_events(
            v, g.adjacency[v], chi.colors, host_adj, chi.ell, q, t
        )
        if bad_a:
            events.append(BadEvent("A", v))
        type_b.extend(bad_b)
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

    The first event by :meth:`BadEvent.sort_key` (lowest type-A vertex,
    else lowest (vertex, color) type-B event) is resampled: type A redraws
    the vertex and its whole neighborhood, type B only the witness set.
    As in Moser and Tardos's algorithm, a redraw can change only the
    events at the redrawn vertices and their neighbors, so after one full
    :func:`find_bad_events` scan the event sets are updated there alone.
    Hitting ``max_rounds`` returns the final coloring flagged degraded
    together with its residual event count (never silent).
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    ell = host.graph.n
    rng = random.Random(seed)
    chi = VertexColoring.uniform(g.n, ell, rng)
    type_a: set[int] = set()
    type_b: dict[int, list[BadEvent]] = {}  # vertex -> its events by color
    for event in find_bad_events(g, chi, host, q, t):
        if event.tag == "A":
            type_a.add(event.vertex)
        else:
            type_b.setdefault(event.vertex, []).append(event)
    adj = g.adjacency
    host_adj = host.graph.adjacency_sets
    colors = list(chi.colors)
    rounds = 0
    while type_a or type_b:
        if rounds >= max_rounds:
            residual = len(type_a) + sum(map(len, type_b.values()))
            chi = VertexColoring(tuple(colors), ell)
            return ResampleResult(chi, rounds, True, residual)
        if type_a:
            v = min(type_a)
            targets = (v,) + adj[v]
        else:
            targets = type_b[min(type_b)][0].witness
        for v in targets:
            colors[v] = rng.randrange(ell)
        rounds += 1
        touched = set(targets)
        for v in targets:
            touched.update(adj[v])
        for v in touched:
            bad_a, bad_b = _vertex_events(v, adj[v], colors, host_adj, ell, q, t)
            if bad_a:
                type_a.add(v)
            else:
                type_a.discard(v)
            if bad_b:
                type_b[v] = bad_b
            else:
                type_b.pop(v, None)
    return ResampleResult(VertexColoring(tuple(colors), ell), rounds, False, 0)


def edge_retention(
    h_prime_graph: Graph, chi: VertexColoring, weights: EdgeWeights
) -> Graph:
    """Keep, per color-class pair, the locally weight-minimal edges.

    Requires chi proper on the input.  The output restricted to any two
    color classes is a matching; combined with a host of girth >= 2r+2
    upstream this forces output girth >= 2r+2 (certified by the caller).
    """
    if len(weights.values) != h_prime_graph.m:
        raise ValueError("weight vector length must equal the edge count")
    if not chi.is_proper_on(h_prime_graph):
        raise ValueError("coloring is not proper on the input graph")
    colors = chi.colors
    edges = h_prime_graph.edges

    def pair_key(i: int):
        u, v = edges[i]
        cu, cv = colors[u], colors[v]
        return (cu, cv) if cu < cv else (cv, cu)

    # edge index lists per (vertex, class pair)
    incident: dict[tuple[int, tuple[int, int]], list[int]] = {}
    for i, (u, v) in enumerate(edges):
        pk = pair_key(i)
        incident.setdefault((u, pk), []).append(i)
        incident.setdefault((v, pk), []).append(i)
    kept = []
    for i, (u, v) in enumerate(edges):
        pk = pair_key(i)
        my = weights.key(i)
        rivals = incident[(u, pk)] + incident[(v, pk)]
        if all(j == i or weights.key(j) > my for j in rivals):
            kept.append(i)
    return edge_subgraph(h_prime_graph, kept)


# ---------------------------------------------------------------------------
# host supply
# ---------------------------------------------------------------------------


def _quantize(k: int) -> int:
    """Round the host-size parameter up to a power of two so runs on similar
    inputs share one base host from the caches of :mod:`hosts`."""
    return 1 << max(4, (k - 1).bit_length())


def _degree_host(k_quantized: int, r: int) -> HostGraph:
    """Girth >= 2r+2 host of order near 2k via dense_subhost.

    r = 2 uses a projective incidence graph (girth exactly 6) of plane order
    at most MAX_PLANE_ORDER; r >= 3 the greedy construction, capped at a
    desk-scale order.  The caller flags either cap binding as size_capped.
    """
    if r == 2:
        q = min(smallest_prime_with_plane_order(k_quantized), MAX_PLANE_ORDER)
        base = incidence_graph_pg2(q)
    else:
        n = min(2 * k_quantized, GREEDY_HOST_ORDER)
        base = greedy_high_girth(n, 2 * r + 2, 0)
    return dense_subhost(base, k_quantized)


def extract_spanning_high_girth(
    g: Graph, r: int, seed: int, trials: int, max_rounds: int = 64
) -> tuple[Graph, ExtractionReport]:
    """Best certified girth >= 2r+2 spanning subgraph by minimum degree.

    Host order targets 2 * ceil(2 e^4 Delta) (quantized and capped);
    frugality is t = max(1, ceil(ln Delta)).  Each trial resamples a
    coloring, takes the host-edge subgraph, and thins it by edge
    retention; the identity (when already certified) and a spanning forest
    always compete, so a certified candidate exists for every input.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    fam = ForbiddenFamily.all_cycles_up_to(2 * r + 1)
    delta_max = g.max_degree()

    # (min degree, edges, graph, meta, certified girth)
    candidates: list[tuple[int, int, Graph, dict, GirthValue]] = []

    def add(graph: Graph, meta: dict) -> None:
        value = certify(graph, fam, f"{meta['method']} candidate")
        candidates.append((graph.min_degree(), graph.m, graph, meta, value))

    value, witness = family_girth(g, fam)
    if witness is None:
        meta = {"method": "identity", "degraded": False, "rounds_used": 0}
        candidates.append((g.min_degree(), g.m, g, meta, value))
    add(
        spanning_forest(g),
        {"method": "forest", "degraded": False, "rounds_used": 0},
    )

    host_meta: dict = {}
    degraded_trials = 0
    if g.m > 0 and delta_max >= 1:
        k_raw = math.ceil(2 * math.e**4 * delta_max)
        k = min(k_raw, HOST_ORDER_CAP // 2)
        kq = _quantize(k)
        host = _degree_host(kq, r)
        capped = k < k_raw or host.order < 2 * kq
        t = max(1, math.ceil(math.log(delta_max))) if delta_max > 1 else 1
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
            # informational only: whether the asymptotic guarantee's
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
            if res.degraded:
                degraded_trials += 1
            hp = h_prime(g, res.coloring, host)
            weights = EdgeWeights.random(hp.m, mix(trial_seed, _SALT_WEIGHTS))
            thin = edge_retention(hp, res.coloring, weights)
            add(
                thin,
                {
                    "method": "resample",
                    "degraded": res.degraded,
                    "rounds_used": res.rounds,
                },
            )

    # max keeps the earliest of equal candidates
    min_deg, edges_m, best, meta, best_girth = max(candidates, key=lambda c: c[:2])
    extras = {
        "degraded": meta["degraded"],
        "rounds_used": meta["rounds_used"],
        "degraded_trials": degraded_trials,
    }
    extras.update(host_meta)
    report = ExtractionReport(
        input_n=g.n,
        input_m=g.m,
        method=meta["method"],
        r=r,
        trials=trials,
        seed=seed,
        output_edges=edges_m,
        output_min_degree=min_deg,
        output_girth=best_girth,
        family=fam,
        extras=extras,
    )
    return best, report
