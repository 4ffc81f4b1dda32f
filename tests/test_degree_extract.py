import random

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
    clique_apex,
    complete,
    complete_bipartite,
    incidence_graph_pg2,
    random_gnm,
)
from girthforge import degree_extract as degree_mod
from girthforge.degree_extract import (
    BadEvent,
    EdgeWeights,
    edge_retention,
    extract_spanning_high_girth,
    find_bad_events,
    resample_until_clear,
)
from bruteforce import brute_bad_events, reference_resample
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
            for e in sorted(find_bad_events(g, chi, host, q, t), key=BadEvent.sort_key)
        ]
        assert got == brute_bad_events(g, chi.colors, host.graph, q, t)


class TestEdgeRetention:
    def test_rejects_improper(self):
        g = Graph.from_edges(2, [(0, 1)])
        chi = VertexColoring((3, 3), 5)
        with pytest.raises(ValueError):
            edge_retention(g, chi, EdgeWeights.random(1, 0))

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
        # the PG(2,101) clamp leaves the r = 2 host below 2 kq for
        # 76 <= Delta <= 228; a small host stands in for it here
        monkeypatch.setattr(
            degree_mod, "_degree_host", lambda kq, r: incidence_graph_pg2(3)
        )
        _, report = extract_spanning_high_girth(complete(6), 2, 5, 1)
        assert report.extras["host"]["order"] == 26
        assert report.extras["size_capped"] is True
        assert report.extras["precondition_plausible"] is False

    def test_rejects_bad_params(self):
        g = complete(5)
        with pytest.raises(ValueError):
            extract_spanning_high_girth(g, 1, 0, 1)
        with pytest.raises(ValueError):
            extract_spanning_high_girth(g, 2, 0, 0)
