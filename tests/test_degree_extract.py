import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthforge.graph import (
    Graph,
    INFINITE,
    VertexColoring,
    girth,
)
from girthforge.hosts import (
    PLANE_ORDERS,
    clique_apex,
    complete,
    complete_bipartite,
    incidence_graph_pg2,
    random_gnm,
)
from girthforge import degree_extract as degree_mod
from girthforge.degree_extract import (
    EdgeWeights,
    edge_retention,
    extract_spanning_high_girth,
    find_bad_events,
    resample_until_clear,
)
from bruteforce import brute_bad_events, reference_resample, reference_resample_events
from conftest import each_graph_searched_once, small_graphs


def _host():
    return incidence_graph_pg2(2)  # 14 vertices, 3-regular, girth 6


class TestEdgeWeights:
    def test_random_reproducible(self):
        a = EdgeWeights.random(10, 5)
        b = EdgeWeights.random(10, 5)
        assert a.values == b.values
        assert all(0.0 <= w < 1.0 for w in a.values)

    def test_keys_are_strict(self):
        w = EdgeWeights((0.5, 0.5, 0.1))
        keys = sorted(w.key(i) for i in range(3))
        assert len(set(keys)) == 3
        assert keys[0] == (0.1, 2)


class TestFindBadEvents:
    def test_clean_coloring_has_none(self):
        host = _host()
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        a, b = host.graph.edges[0]
        c = next(x for x in host.graph.adjacency[b] if x != a)
        chi = VertexColoring((a, b, c), host.graph.n)
        assert find_bad_events(g, chi, host, 1, 2) == []

    def test_type_a_when_no_host_edges(self):
        host = _host()
        g = Graph.from_edges(2, [(0, 1)])
        chi = VertexColoring((0, 0), host.graph.n)  # same color: no host edge
        events = find_bad_events(g, chi, host, 1, 2)
        assert [e.tag for e in events] == ["A", "A"]

    def test_type_b_witness(self):
        host = _host()
        # vertex 0 sees color c three times; t = 2 flags it
        c = host.graph.edges[0][1]
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        chi = VertexColoring((host.graph.edges[0][0], c, c, c), host.graph.n)
        events = find_bad_events(g, chi, host, 1, 2)
        bs = [e for e in events if e.tag == "B"]
        assert len(bs) == 1
        assert bs[0].vertex == 0 and bs[0].color == c
        assert bs[0].witness == (1, 2, 3)

    def test_isolated_vertex_skipped(self):
        host = _host()
        g = Graph.from_edges(2, [])
        chi = VertexColoring((0, 0), host.graph.n)
        assert find_bad_events(g, chi, host, 3, 1) == []

    def test_exact_threshold(self):
        host = _host()
        g = Graph.from_edges(2, [(0, 1)])
        e0 = host.graph.edges[0]
        chi = VertexColoring((e0[0], e0[1]), host.graph.n)
        ell = host.graph.n
        # d' = d = 1: bad iff 2*ell <= q
        assert find_bad_events(g, chi, host, 2 * ell, 1) != []
        assert find_bad_events(g, chi, host, 2 * ell - 1, 1) == []

    def test_rejects_bad_params(self):
        host = _host()
        g = Graph.from_edges(2, [(0, 1)])
        chi = VertexColoring((0, 1), host.graph.n)
        with pytest.raises(ValueError, match="color count must equal the host order"):
            find_bad_events(g, VertexColoring((0, 1), 2), host, 1, 1)
        for q, t in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="need q >= 1 and t >= 1"):
                find_bad_events(g, chi, host, q, t)


class TestResample:
    def test_clears_on_easy_instance(self):
        # dense enough that every vertex easily finds a host-adjacent
        # neighbor color; sparse graphs are expected to hit the cap
        host = _host()
        g = random_gnm(20, 80, 3)
        res = resample_until_clear(g, host, 1, 3, seed=7, max_rounds=200)
        assert not res.degraded
        assert find_bad_events(g, res.coloring, host, 1, 3) == []

    def test_degraded_flag_when_capped(self):
        host = _host()
        # t = 1 with a high-degree star is hard; a tiny cap must degrade
        g = complete_bipartite(1, 30)
        res = resample_until_clear(g, host, 1, 1, seed=1, max_rounds=1)
        assert res.degraded and res.residual_events > 0

    def test_rejects_bad_params(self):
        host = _host()
        g = random_gnm(15, 20, 2)
        with pytest.raises(ValueError, match="max_rounds must be >= 1"):
            resample_until_clear(g, host, 1, 1, 0, 0)
        # edgeless, so the run would clear at once without the check
        empty = Graph.from_edges(3, [])
        for q, t in ((0, 1), (1, 0)):
            with pytest.raises(ValueError, match="need q >= 1 and t >= 1"):
                resample_until_clear(empty, host, q, t, 0, 10)

    def test_deterministic(self):
        host = _host()
        g = random_gnm(15, 20, 2)
        a = resample_until_clear(g, host, 1, 3, seed=9, max_rounds=100)
        b = resample_until_clear(g, host, 1, 3, seed=9, max_rounds=100)
        assert a.coloring == b.coloring and a.rounds == b.rounds

    @settings(max_examples=120, deadline=None)
    @given(
        g=small_graphs(max_n=12),
        pg_order=st.sampled_from([2, 3]),
        q=st.integers(min_value=1, max_value=5),
        t=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        max_rounds=st.integers(min_value=1, max_value=50),
    )
    def test_matches_full_rescan(self, g, pg_order, q, t, seed, max_rounds):
        host = incidence_graph_pg2(pg_order)
        res = resample_until_clear(g, host, q, t, seed, max_rounds)
        got = (res.coloring.colors, res.rounds, res.degraded, res.residual_events)
        assert got == reference_resample(g, host.graph, q, t, seed, max_rounds)
        assert res.coloring.ell == host.order

    def test_matches_full_rescan_clearing_and_capped(self):
        outcomes = set()
        configs = ((2, 1, 3, 50), (3, 2, 2, 20), (2, 3, 1, 5))
        for n, m in ((6, 8), (12, 30), (20, 80), (40, 60)):
            g = random_gnm(n, m, n)
            for pg_order, q, t, cap in configs:
                host = incidence_graph_pg2(pg_order)
                for seed in range(6):
                    res = resample_until_clear(g, host, q, t, seed, cap)
                    got = (res.coloring.colors, res.rounds, res.degraded,
                           res.residual_events)
                    assert got == reference_resample(g, host.graph, q, t, seed, cap)
                    outcomes.add((res.degraded, res.rounds > 0))
        # runs that clear after resampling and runs that hit the cap
        assert {(False, True), (True, True)} <= outcomes

    @pytest.mark.parametrize("pg_order", [2, 3, 5, 7])
    @pytest.mark.parametrize(
        "g",
        [complete(20), clique_apex(3, 20), complete_bipartite(10, 10)],
        ids=["K20", "apex3,20", "K10,10"],
    )
    def test_matches_full_rescan_on_dense_inputs(self, g, pg_order):
        # a type-A round redraws v and all its neighbors, which here are
        # adjacent to one another: most counter updates meet a vertex that
        # was redrawn in the same round and must recount instead
        host = incidence_graph_pg2(pg_order)
        t_paper = max(1, math.ceil(math.log(g.max_degree())))
        for q, t in ((host.min_degree, t_paper), (1, 1)):
            for seed in range(2):
                res = resample_until_clear(g, host, q, t, seed, 24)
                got = (res.coloring.colors, res.rounds, res.degraded,
                       res.residual_events)
                assert got == reference_resample(g, host.graph, q, t, seed, 24)

    @pytest.mark.parametrize("seed", [0, 2, 4])
    def test_matches_full_rescan_through_type_b_phase(self, seed):
        # K8 against PG(2,2) with q = t = 1: type-A rounds leave the type-B
        # state stale, then a round with only type-B events reads it, with
        # two or more over-represented colors at one vertex
        g, host = complete(8), _host()
        colors, history = reference_resample_events(g, host.graph, 1, 1, seed, 64)
        phase = [
            i
            for i, events in enumerate(history)
            if events
            and all(e[0] == "B" for e in events)
            and any(h and h[0][0] == "A" for h in history[:i])
            and max(Counter(e[1] for e in events).values()) >= 2
        ]
        assert phase
        res = resample_until_clear(g, host, 1, 1, seed, 64)
        assert (res.coloring.colors, res.rounds) == (colors, len(history) - 1)
        assert not res.degraded

    def test_capped_residual_mixes_both_types(self):
        host = _host()
        g = random_gnm(30, 90, 3)
        res = resample_until_clear(g, host, 1, 1, 0, 60)
        left = brute_bad_events(g, res.coloring.colors, host.graph, 1, 1)
        assert res.degraded and res.rounds == 60
        assert Counter(e[0] for e in left) == {"A": 2, "B": 23}
        assert res.residual_events == len(left)
        got = (res.coloring.colors, res.rounds, res.degraded, res.residual_events)
        assert got == reference_resample(g, host.graph, 1, 1, 0, 60)

    def test_scans_once_at_the_cap_only(self, monkeypatch):
        # the residual count is the only find_bad_events call: one per
        # capped run, on its final coloring, and none for a run that clears
        calls = []
        scan = degree_mod.find_bad_events

        def counted(*args):
            calls.append(args)
            return scan(*args)

        monkeypatch.setattr(degree_mod, "find_bad_events", counted)
        host = _host()
        runs = [
            (random_gnm(20, 80, 3), 1, 3, 7, 200),  # clears
            (complete_bipartite(1, 30), 1, 1, 1, 1),  # capped at once
            (random_gnm(30, 90, 3), 1, 1, 0, 60),  # capped, both types left
            (complete(8), 1, 1, 0, 64),  # clears after a type-B phase
        ]
        capped = []
        for g, q, t, seed, cap in runs:
            before = len(calls)
            res = resample_until_clear(g, host, q, t, seed, cap)
            assert res.rounds > 0
            assert len(calls) - before == res.degraded
            if res.degraded:
                assert res.rounds == cap
                assert calls[-1][0] is g and calls[-1][1] == res.coloring
            capped.append(res.degraded)
        assert capped == [False, True, True, False]

    @settings(max_examples=80, deadline=None)
    @given(
        g=small_graphs(max_n=10),
        q=st.integers(min_value=1, max_value=5),
        t=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_find_bad_events_matches_definition(self, g, q, t, seed):
        host = _host()
        chi = VertexColoring.uniform(g.n, host.order, random.Random(seed))
        got = [
            (e.tag, e.vertex, e.color or 0, e.witness)
            for e in find_bad_events(g, chi, host, q, t)
        ]
        assert got == brute_bad_events(g, chi.colors, host.graph, q, t)


class TestEdgeRetention:
    def test_rejects_improper(self):
        g = Graph.from_edges(2, [(0, 1)])
        chi = VertexColoring((3, 3), 5)
        with pytest.raises(ValueError):
            edge_retention(g, chi, EdgeWeights.random(1, 0))

    def test_rejects_wrong_weight_count(self):
        g = Graph.from_edges(2, [(0, 1)])
        chi = VertexColoring((0, 1), 2)
        with pytest.raises(ValueError, match="weight vector length"):
            edge_retention(g, chi, EdgeWeights.random(2, 0))

    def test_single_edge_always_kept(self):
        g = Graph.from_edges(2, [(0, 1)])
        chi = VertexColoring((0, 1), 2)
        assert edge_retention(g, chi, EdgeWeights.random(1, 4)).m == 1

    def test_star_keeps_exactly_one(self):
        # all leaves share a color: one class pair, center-incident edges
        # compete, precisely the minimum survives
        g = complete_bipartite(1, 5)
        chi = VertexColoring((0,) + (1,) * 5, 2)
        for seed in range(10):
            out = edge_retention(g, chi, EdgeWeights.random(5, seed))
            assert out.m == 1

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=9), st.integers(min_value=0, max_value=2**30))
    def test_class_pairs_become_matchings(self, g, seed):
        rng = random.Random(seed)
        # random proper coloring via fresh colors on conflict
        colors = []
        for v in range(g.n):
            taken = {colors[w] for w in g.adjacency[v] if w < v}
            options = [c for c in range(g.n + 1) if c not in taken]
            colors.append(rng.choice(options))
        chi = VertexColoring(tuple(colors), g.n + 1)
        out = edge_retention(g, chi, EdgeWeights.random(g.m, seed))
        per_pair_degree = {}
        for u, v in out.edges:
            pk = tuple(sorted((colors[u], colors[v])))
            for x in (u, v):
                key = (x, pk)
                per_pair_degree[key] = per_pair_degree.get(key, 0) + 1
                assert per_pair_degree[key] == 1

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(max_n=9), st.integers(min_value=0, max_value=2**30))
    def test_kept_set_is_exactly_the_local_minima(self, g, seed):
        rng = random.Random(seed)
        # a proper coloring from few colors, so class pairs often meet at a
        # vertex, and weights from three values, so the index breaks ties
        colors = []
        for v in range(g.n):
            taken = {colors[w] for w in g.adjacency[v] if w < v}
            colors.append(rng.choice([c for c in range(g.n) if c not in taken][:3]))
        chi = VertexColoring(tuple(colors), g.n)
        w = EdgeWeights(tuple(rng.choice((0.25, 0.5, 0.75)) for _ in range(g.m)))

        def pair(e):
            return sorted((colors[e[0]], colors[e[1]]))

        expected = {
            e
            for i, e in enumerate(g.edges)
            if all(
                w.key(j) > w.key(i)
                for j, f in enumerate(g.edges)
                if j != i and set(e) & set(f) and pair(f) == pair(e)
            )
        }
        assert set(edge_retention(g, chi, w).edges) == expected

    def test_kept_edges_are_local_minima(self):
        g = complete_bipartite(3, 3)
        chi = VertexColoring((0, 0, 0, 1, 1, 1), 2)
        w = EdgeWeights.random(g.m, 13)
        out = edge_retention(g, chi, w)
        idx = {e: i for i, e in enumerate(g.edges)}
        kept = set(out.edges)
        for e in kept:
            i = idx[e]
            for f in g.edges:
                if f != e and (f[0] in e or f[1] in e):
                    assert w.key(idx[f]) > w.key(i)


class TestExtractor:
    @pytest.mark.parametrize("r", [2, 3])
    def test_girth_guarantee(self, r):
        for g in (complete(10), random_gnm(40, 90, 5), clique_apex(3, 6)):
            out, report = extract_spanning_high_girth(g, r, 21, 2)
            gv = girth(out)
            assert gv == INFINITE or gv >= 2 * r + 2
            assert report.to_dict()["certificate"]["status"] == "pass"
            assert out.n == g.n
            assert set(out.edges) <= set(g.edges)

    @pytest.mark.parametrize(
        "g",
        [
            complete(10),
            random_gnm(40, 90, 5),
            Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]),  # C8
        ],
        ids=["K10", "gnm", "C8"],
    )
    def test_certifies_each_graph_once(self, g):
        trials = 3
        with each_graph_searched_once(degree_mod) as seen:
            out, report = extract_spanning_high_girth(g, 2, 21, trials)
        assert any(x is out for x in seen["family_girth"])
        assert (report.method == "identity") == (g.m == 8)
        # one search per candidate: the identity decision, forest, trials
        assert sum(x.n == g.n for x in seen["family_girth"]) == 2 + trials

    def test_forest_floor(self):
        # connected input: any candidate must match the forest's min degree
        g = complete(8)
        out, _ = extract_spanning_high_girth(g, 2, 3, 2)
        assert out.min_degree() >= 1

    def test_identity_when_already_sparse(self):
        g = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)])  # C8
        out, report = extract_spanning_high_girth(g, 2, 0, 1)
        assert report.method == "identity"
        assert out.m == 8

    def test_deterministic(self):
        g = random_gnm(30, 60, 6)
        a, ra = extract_spanning_high_girth(g, 2, 33, 2)
        b, rb = extract_spanning_high_girth(g, 2, 33, 2)
        assert a.edges == b.edges
        assert ra.to_json() == rb.to_json()

    def test_report_fields(self):
        g = random_gnm(25, 50, 1)
        _, report = extract_spanning_high_girth(g, 2, 5, 2)
        assert "host" in report.extras
        assert report.extras["host"]["girth"] >= 6
        assert report.extras["t"] >= 1
        assert isinstance(report.extras["degraded"], bool)

    def test_small_host_is_size_capped_at_r2(self, monkeypatch):
        # the PG(2,101) clamp leaves the r = 2 host below 2 kq once
        # kq >= 16384; a small host stands in for it here, and K10's
        # kq = 16 puts its 26 vertices below 2 kq
        monkeypatch.setattr(
            degree_mod, "_degree_host", lambda kq, r: incidence_graph_pg2(3)
        )
        _, report = extract_spanning_high_girth(complete(10), 2, 5, 1)
        assert report.extras["host"]["order"] == 26
        assert report.extras["size_capped"] is True
        assert report.extras["precondition_plausible"] is False

    def test_host_is_sized_by_max_degree(self):
        # the smallest plane with Delta + 1 points, rounded up to a power
        # of two: kq = 64 on K40, so PG(2,11), not the PG(2,97) that
        # 2 e^4 Delta points would take
        _, report = extract_spanning_high_girth(complete(40), 2, 7, 4)
        assert report.extras["host"]["order"] == 266
        assert report.extras["host"]["label"].endswith("incidence_pg2(q=11)")
        assert report.extras["size_capped"] is False

    def test_resample_beats_forest_on_k20(self):
        # with PG(2,7) as host a resample trial clears and, after
        # retention, keeps more edges than the forest at the same minimum
        # degree
        out, report = extract_spanning_high_girth(complete(20), 2, 1, 2)
        assert report.method == "resample"
        assert (out.min_degree(), out.m) == (1, 22)

    def test_resample_winner_digests(self, monkeypatch):
        # a certified paper-pipeline candidate that wins the race: on K20
        # against the PG(2,3) incidence host a resample trial beats the
        # forest on minimum degree
        monkeypatch.setattr(
            degree_mod, "_degree_host", lambda kq, r: incidence_graph_pg2(3)
        )
        out, report = extract_spanning_high_girth(complete(20), 2, 4, 4)
        assert report.method == "resample"
        assert (out.m, out.min_degree()) == (28, 1)
        assert report.extras["rounds_used"] == 21
        assert report.extras["size_capped"] is True
        edge_text = "".join(f"{u} {v}\n" for u, v in out.edges)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            "a126815e03d543a05d519f8647a2a48a955ac5a9d56758b8012796911686f964"
        )
        assert hashlib.sha256(edge_text.encode()).hexdigest() == (
            "2036e3ef13575fbe5ba599b5cd08390a015fa9881f8dc6c007b8d17ceada8305"
        )

    @pytest.mark.parametrize(
        "max_rounds, all_capped", [(1, True), (degree_mod.DEFAULT_MAX_ROUNDS, False)], ids=["capped", "clears"]
    )
    def test_degraded_trials_counts_degraded_results(
        self, monkeypatch, max_rounds, all_capped
    ):
        # the PG(2,3) host on K20 of test_resample_winner_digests: every
        # trial caps at one round, and a trial clears under the default cap
        monkeypatch.setattr(
            degree_mod, "_degree_host", lambda kq, r: incidence_graph_pg2(3)
        )
        results = []

        def recording(*args):
            results.append(resample_until_clear(*args))
            return results[-1]

        monkeypatch.setattr(degree_mod, "resample_until_clear", recording)
        trials = 4
        _, report = extract_spanning_high_girth(complete(20), 2, 4, trials, max_rounds)
        assert len(results) == trials
        degraded = sum(res.degraded for res in results)
        assert report.extras["degraded_trials"] == degraded
        assert (degraded == trials) == all_capped

    def test_host_edge_tuple_never_built(self, monkeypatch):
        # the r = 2 path reads the plane host's adjacency and m, never its
        # edges, so a freshly built host ends the run with none
        hosts = []

        def recording(q):
            hosts.append(incidence_graph_pg2(q))
            return hosts[-1]

        monkeypatch.setattr(degree_mod, "incidence_graph_pg2", recording)
        incidence_graph_pg2.cache_clear()
        try:
            extract_spanning_high_girth(random_gnm(25, 50, 1), 2, 5, 2)
        finally:
            incidence_graph_pg2.cache_clear()
        assert hosts and all("edges" not in vars(host.graph) for host in hosts)

    def test_rejects_bad_params(self):
        g = complete(5)
        with pytest.raises(ValueError):
            extract_spanning_high_girth(g, 1, 0, 1)
        with pytest.raises(ValueError):
            extract_spanning_high_girth(g, 2, 0, 0)


class TestDegreeHost:
    """No host that ``_degree_host`` hands to ``dense_subhost`` has a vertex
    that low-degree pruning would remove: its order is at most kq + 1, or
    its minimum degree reaches ceil(m / 4kq)."""

    @staticmethod
    def _needs_no_pruning(order, m, min_degree, kq):
        return order <= kq + 1 or min_degree >= -(-m // (4 * kq))

    def test_incidence_rungs(self, monkeypatch):
        # every kq the extractor reaches at r = 2, from Delta = 1 up to
        # 16384; from 32768 on, PG(2,101)'s 20,606 vertices are at most
        # kq + 1.  Each plane's numbers come from the (q+1)-regularity that
        # incidence_graph_pg2 checks, since PG(2,101) takes seconds to build
        planes = []
        monkeypatch.setattr(degree_mod, "incidence_graph_pg2", planes.append)
        monkeypatch.setattr(degree_mod, "dense_subhost", lambda base, k: base)
        kq = degree_mod._quantize(1 + 1)
        kqs = []
        while kq <= 16384:
            degree_mod._degree_host(kq, 2)
            kqs.append(kq)
            kq *= 2
        assert (kqs[0], len(planes)) == (2, len(kqs))
        assert set(planes) <= set(PLANE_ORDERS)
        for kq, q in zip(kqs, planes):
            n = q * q + q + 1
            assert self._needs_no_pruning(2 * n, (q + 1) * n, q + 1, kq), (kq, q)

    @pytest.mark.parametrize("r", range(3, 9))
    def test_greedy_rungs(self, monkeypatch, r):
        # kq = 2..512; from 256 on the order is DESK_GREEDY_ORDER, and a
        # kq whose 2 kq is below 2r + 2 gets no host
        bases = []
        monkeypatch.setattr(
            degree_mod, "dense_subhost", lambda base, k: bases.append((base, k))
        )
        kqs = [1 << i for i in range(1, 10)]
        built = [kq for kq in kqs if 2 * kq >= 2 * r + 2]
        for kq in kqs:
            degree_mod._degree_host(kq, r)
        assert [kq for _, kq in bases] == built
        for base, kq in bases:
            assert self._needs_no_pruning(
                base.order, base.graph.m, base.min_degree, kq
            ), (base.label, kq)
