import hashlib
import random
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthforge.graph import (
    ForbiddenFamily,
    Graph,
    VertexColoring,
    certify,
    check_family_free,
    girth,
)
from girthforge import edge_extract as edge_mod
from girthforge import hosts as hosts_mod
from girthforge.hosts import (
    clique_apex,
    complete,
    complete_bipartite,
    incidence_graph_pg2,
    random_gnm,
    star,
)
from girthforge.edge_extract import (
    case1_extract,
    case2_extract,
    _case1_host,
    extract_even_cycle_free,
    greedy_family_free,
    h_prime,
    h_star,
    matching_fallback,
    spanning_forest,
    split_and_bucket,
    star_fallback,
)
from bruteforce import has_forbidden, reference_case1, reference_greedy_family_free
from conftest import dense_graphs, each_graph_searched_once, small_graphs

EVEN4 = ForbiddenFamily("even", 4)


@pytest.fixture()
def planes_up_to_5(monkeypatch):
    """Shrink the supported plane orders to 2, 3 and 5, so that PG(2,5)
    (31 points) is the largest plane and going past it stays fast."""
    monkeypatch.setattr(hosts_mod, "PLANE_ORDERS", (2, 3, 5))
    monkeypatch.setattr(hosts_mod, "MAX_PLANE_ORDER", 5)


def _spy(monkeypatch, name):
    """The plane orders ``edge_extract.<name>`` is called with."""
    build, seen = getattr(edge_mod, name), []
    monkeypatch.setattr(edge_mod, name, lambda q: seen.append(q) or build(q))
    return seen


def _hub_graph(hubs: int, low: int, moves: int, seed: int) -> Graph:
    """K_{hubs,low} (low >= 4 hubs) after ``moves`` random pair toggles,
    each kept only while every hub h has d(h)^2 >= 4m and the hub-to-low
    edges are at least m/4; vertices are relabeled at random.  The hubs
    stay on the high side, so case 1 applies."""
    rng = random.Random(seed)
    n = hubs + low
    edges = {(h, v) for h in range(hubs) for v in range(hubs, n)}
    deg = [low] * hubs + [hubs] * low
    cross = len(edges)
    for _ in range(moves):
        u, v = e = tuple(sorted(rng.sample(range(n), 2)))
        step = -1 if e in edges else 1
        deg[u] += step
        deg[v] += step
        m = len(edges) + step
        hub_low = cross + step * (u < hubs <= v)
        if min(deg[:hubs]) ** 2 >= 4 * m and 4 * hub_low >= m:
            edges ^= {e}
            cross = hub_low
        else:
            deg[u] -= step
            deg[v] -= step
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in sorted(edges)])


class TestSplitAndBucket:
    def test_threshold_exact(self):
        # star K_{1,9}: m=9, center degree 9, 81 >= 36 -> high side
        g = complete_bipartite(1, 9)
        split = split_and_bucket(g)
        assert split.v1 == (0,)
        assert len(split.v2) == 9
        assert split.edges_v1_v2 == 9

    def test_buckets_dyadic(self):
        g = complete_bipartite(1, 9)
        split = split_and_bucket(g)
        # degree into V2 is 9, so bucket index is 3 ([8,16))
        assert split.chosen_q == 3
        assert split.buckets[3] == (0,)

    def test_low_degree_graph_has_empty_v1(self):
        g = Graph.from_edges(6, [(i, i + 1) for i in range(5)])
        split = split_and_bucket(g)
        assert split.v1 == ()
        assert split.chosen_q is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            split_and_bucket(Graph.from_edges(3, []))

    @settings(max_examples=50, deadline=None)
    @given(small_graphs(max_n=10))
    def test_partition_invariants(self, g):
        if g.m == 0:
            return
        split = split_and_bucket(g)
        assert sorted(split.v1 + split.v2) == list(range(g.n))
        assert all(g.degree(v) ** 2 >= 4 * g.m for v in split.v1)
        assert all(g.degree(v) ** 2 < 4 * g.m for v in split.v2)
        assert sum(len(b) for b in split.buckets) <= len(split.v1)


class TestHostLabeledSubgraphs:
    @settings(max_examples=50, deadline=None)
    @given(small_graphs(max_n=10), st.integers(min_value=0, max_value=2**30))
    def test_h_star_subset_of_h_prime(self, g, seed):
        host = incidence_graph_pg2(2)
        chi = VertexColoring.uniform(g.n, host.graph.n, random.Random(seed))
        hp = h_prime(g, chi, host)
        hs = h_star(g, chi, host)
        assert set(hs.edges) <= set(hp.edges)

    def test_h_prime_definition(self):
        host = incidence_graph_pg2(2)
        g = complete(5)
        chi = VertexColoring.uniform(5, host.graph.n, random.Random(3))
        hp = h_prime(g, chi, host)
        hadj = host.graph.adjacency_sets
        for u, v in g.edges:
            expected = chi.colors[v] in hadj[chi.colors[u]]
            assert ((u, v) in set(hp.edges)) == expected

    @pytest.mark.parametrize("label", [h_prime, h_star])
    def test_rejects_coloring_that_does_not_fit(self, label):
        host = incidence_graph_pg2(2)
        g = complete(3)
        with pytest.raises(ValueError, match="does not cover the vertex set"):
            label(g, VertexColoring((0, 1), host.graph.n), host)
        with pytest.raises(ValueError, match="more colors than the host"):
            label(g, VertexColoring((0, 1, 2), host.graph.n + 1), host)

    def test_h_star_frugality(self):
        # two neighbors of 0 share a color: both their edges must vanish
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        host = incidence_graph_pg2(2)
        c0 = host.graph.edges[0]
        chi = VertexColoring((c0[0], c0[1], c0[1]), host.graph.n)
        assert h_prime(g, chi, host).m == 2
        assert h_star(g, chi, host).m == 0


# (k, b, r) -> sha256 of the case-1 host's label, edges and parts: the star
# host, the trimmed incidence graph (r = 2) and the trimmed double cover
# (r >= 3), each recorded before their two trims became one
CASE1_HOST_DIGESTS = {
    (1, 9, 2): "d582e8f1f77249b805fff0d204d4e7be3b2370369f7523067c32433b0fe6e949",
    (5, 20, 2): "3752d03269b4753b160176ca9fe6b28fb6f6aa86c23d29b110a4b7e49184e162",
    (12, 150, 2): "9166cd2b3f07c31b9fdf9bb21d149695b4b3e3c89b749fc48ec8be65f408d535",
    (40, 10, 2): "e40ea33afe7b1b0e2fadeff879d14c39dfe7c428a58d634f884dc8e9aedf0381",
    (5, 20, 3): "8d7aee2cf2db70ae35388e8d90a9e523f758e68e94e472d9125461b58f31fe77",
    (20, 80, 3): "efddcf4e6a23f62b16e181f97cb31fdeaa3a7f96426fcc1ab5a6d3d2f350719a",
    (30, 150, 3): "30c54b7976356db446bc2c395daa526673707614eedfdee02881483c0da2d641",
    (25, 100, 4): "41279e79a85da9008a8753e31026824a047a462cfa407c8492173292b2d2bb13",
    (2, 8, 5): "7ea2c4fc66a203c758883f6fc0ed43cd720de690c98f3c351d2a4cd50393f989",
}


class TestCase1:
    def test_host_parts_sized(self):
        host = _case1_host(3, 20, 2)
        a, b = host.parts
        assert len(a) == 3 and len(b) == 20
        assert check_family_free(host.graph, EVEN4).free

    def test_extract_certified_and_bipartite(self):
        g = clique_apex(2, 20)  # apex degree 20, 400 >= 4*m = 320
        split = split_and_bucket(g)
        assert split.chosen_q is not None
        k = len(split.buckets[split.chosen_q])
        b = -(-g.m // k)
        host = _case1_host(k, b, 2)
        out = case1_extract(g, split, host, 5)
        assert check_family_free(out, EVEN4).free
        bucket = set(split.buckets[split.chosen_q])
        assert all((u in bucket) != (v in bucket) for u, v in out.edges)

    def test_extract_preconditions(self):
        g = complete_bipartite(1, 9)
        split = split_and_bucket(g)
        host = _case1_host(1, 9, 2)
        wrong = _case1_host(2, 9, 2)
        with pytest.raises(ValueError):
            case1_extract(g, split, wrong, 0)
        with pytest.raises(ValueError, match="must carry a bipartition"):
            case1_extract(g, split, replace(host, parts=None), 0)
        with pytest.raises(ValueError, match="no usable bucket"):
            case1_extract(g, replace(split, chosen_q=None), host, 0)
        with pytest.raises(ValueError, match=r"requires e\(V1,V2\) >= m/4"):
            case1_extract(g, replace(split, edges_v1_v2=1), host, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        hubs=st.integers(1, 24),
        slack=st.integers(0, 40),
        moves=st.integers(0, 300),
        graph_seed=st.integers(0, 2**32 - 1),
        r=st.sampled_from([2, 3, 4]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_rule(self, hubs, slack, moves, graph_seed, r, seed):
        g = _hub_graph(hubs, 4 * hubs + slack, moves, graph_seed)
        split = split_and_bucket(g)
        assert split.chosen_q is not None and 4 * split.edges_v1_v2 >= g.m
        k = len(split.buckets[split.chosen_q])
        host = _case1_host(k, -(-g.m // k), r)
        out = case1_extract(g, split, host, seed)
        assert out.edges == reference_case1(g, split, host.graph, host.parts, seed)

    @pytest.mark.parametrize("side, planes", [(31, [5]), (32, [])])
    def test_base_only_when_the_largest_plane_fits(
        self, planes_up_to_5, monkeypatch, side, planes
    ):
        seen = _spy(monkeypatch, "incidence_graph_pg2")
        host = _case1_host(3, side, 2)
        assert seen == planes
        assert len(host.parts[1]) == side

    @pytest.mark.parametrize("k, b, r", sorted(CASE1_HOST_DIGESTS))
    def test_host_digests(self, k, b, r):
        host = _case1_host(k, b, r)
        blob = repr((host.label, host.graph.edges, host.parts)).encode()
        assert hashlib.sha256(blob).hexdigest() == CASE1_HOST_DIGESTS[(k, b, r)]


class TestCase2:
    def test_rejects_high_degree(self):
        g = complete_bipartite(1, 9)
        with pytest.raises(ValueError):
            case2_extract(g, 2, 0, g.m)

    def test_output_certified(self):
        g = random_gnm(40, 60, 3)  # max degree stays below 2*sqrt(60)
        assert all(d * d < 4 * g.m for d in g.degrees())
        out = case2_extract(g, 2, 11, g.m)
        assert check_family_free(out, EVEN4).free

    def test_r3_output_certified(self):
        g = random_gnm(40, 60, 4)
        out = case2_extract(g, 3, 11, g.m)
        assert check_family_free(out, ForbiddenFamily("even", 6)).free

    def test_host_above_the_largest_plane_is_capped(self, planes_up_to_5, monkeypatch):
        # a budget of 1000 edges asks for ceil(2 sqrt(1000)) = 64 > 31 points
        seen = _spy(monkeypatch, "polarity_graph")
        g = random_gnm(40, 60, 3)
        out = case2_extract(g, 2, 11, 1000)
        assert seen == [5]
        certify(out, EVEN4, "case 2 output")
        assert set(out.edges) <= set(g.edges)

    def test_largest_plane_at_full_scale(self, monkeypatch):
        # 27,100,000 edges ask for 10,412 points, beyond PG(2,101)'s 10,303;
        # the host itself is not built here
        seen = []
        monkeypatch.setattr(edge_mod, "polarity_graph", seen.append)
        edge_mod._case2_base_host(10_412, 2)
        assert seen == [101]


class TestFallbacks:
    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=10))
    def test_spanning_forest(self, g):
        f = spanning_forest(g)
        assert girth(f) > g.n  # infinite sentinel compares above any int
        # connectivity preserved: same number of reachable pairs as g
        assert f.m == g.n - _component_count(g)

    def test_star_fallback(self):
        g = complete(5)
        out = star_fallback(g)
        assert out.m == 4

    def test_matching_fallback(self):
        g = complete(6)
        out = matching_fallback(g)
        assert out.m == 3 and out.max_degree() == 1

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=8), st.integers(min_value=0, max_value=2**30))
    def test_greedy_is_free_and_maximal(self, g, seed):
        out = greedy_family_free(g, EVEN4, seed)
        assert not has_forbidden(out, "even", 4)
        kept = set(out.edges)
        for e in g.edges:
            if e in kept:
                continue
            larger = Graph.from_edges(g.n, list(kept) + [e])
            assert has_forbidden(larger, "even", 4)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(small_graphs(max_n=10), dense_graphs()),
        st.sampled_from([4, 6]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=2**30),
    )
    def test_greedy_matches_the_reference_on_random_graphs(self, g, bound, spread, seed):
        # spread > 1 leaves isolated ids between the used ones
        g = Graph.from_edges(
            (g.n - 1) * spread + 1, [(u * spread, v * spread) for u, v in g.edges]
        )
        fam = ForbiddenFamily("even", bound)
        assert greedy_family_free(g, fam, seed).edges == reference_greedy_family_free(
            g, fam, seed
        )

    @pytest.mark.parametrize(
        "g",
        [random_gnm(300, 3000, s) for s in (0, 1)] + [complete(40), clique_apex(3, 20)],
        ids=["gnm-300-3000-s0", "gnm-300-3000-s1", "K40", "clique-apex-3-20"],
    )
    @pytest.mark.parametrize("bound", [4, 6])
    def test_greedy_matches_the_path_search_reference(self, g, bound):
        fam = ForbiddenFamily("even", bound)
        for seed in (0, 7):
            out = greedy_family_free(g, fam, seed)
            assert out.edges == reference_greedy_family_free(g, fam, seed)


def _component_count(g):
    seen = [False] * g.n
    comps = 0
    for s in range(g.n):
        if seen[s]:
            continue
        comps += 1
        stack = [s]
        seen[s] = True
        while stack:
            x = stack.pop()
            for y in g.adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    return comps


class TestExtractor:
    @pytest.mark.parametrize("r", [2, 3])
    def test_certified_on_mixed_inputs(self, r):
        fam = ForbiddenFamily.even_cycles_up_to(2 * r)
        inputs = [
            complete(12),
            complete_bipartite(4, 9),
            clique_apex(3, 8),
            random_gnm(30, 70, 1),
        ]
        for g in inputs:
            out, report = extract_even_cycle_free(g, r, 3, 17)
            assert check_family_free(out, fam).free
            assert report.to_dict()["certificate"]["status"] == "pass"
            assert out.n == g.n
            assert set(out.edges) <= set(g.edges)

    def test_beats_spanning_tree(self):
        g = complete(12)
        out, _ = extract_even_cycle_free(g, 2, 4, 9)
        assert out.m >= g.n  # strictly above any spanning tree

    def test_odd_free(self):
        g = complete(10)
        out, report = extract_even_cycle_free(g, 2, 3, 5, odd_free=True)
        assert check_family_free(out, ForbiddenFamily("all", 5)).free
        assert report.extras["odd_free"] is True
        assert girth(out) >= 6

    def test_deterministic(self):
        g = random_gnm(25, 50, 8)
        a, ra = extract_even_cycle_free(g, 2, 3, 42)
        b, rb = extract_even_cycle_free(g, 2, 3, 42)
        assert a.edges == b.edges
        assert ra.to_json() == rb.to_json()

    def test_more_trials_never_worse(self):
        g = random_gnm(25, 60, 2)
        few, _ = extract_even_cycle_free(g, 2, 1, 7)
        many, _ = extract_even_cycle_free(g, 2, 6, 7)
        assert many.m >= few.m

    def test_dominated_by_oracle(self):
        from girthforge.oracle import exact_ex

        g = random_gnm(8, 14, 3)
        out, _ = extract_even_cycle_free(g, 2, 4, 1)
        assert out.m <= exact_ex(g, EVEN4).value

    @pytest.mark.parametrize("odd_free", [False, True], ids=["even", "odd_free"])
    @pytest.mark.parametrize(
        "g",
        [
            complete(10),
            random_gnm(40, 90, 5),
            Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)]),  # C8
            incidence_graph_pg2(3).graph,
        ],
        ids=["K10", "gnm", "C8", "PG23"],
    )
    def test_certifies_each_graph_once(self, g, odd_free):
        with each_graph_searched_once(edge_mod) as seen:
            out, report = extract_even_cycle_free(g, 2, 3, 13, odd_free=odd_free)
        # the winner is searched once, when it is made or, for a winner not
        # certified yet, after it is picked
        assert sum(x is out for x in seen["family_girth"]) == 1
        assert report.output_girth == girth(out)

    def test_case_chosen_once_per_call(self):
        # the split and the case-1 host depend on the input alone, so the
        # trial loop reuses them instead of asking again per trial
        with mock.patch.object(
            edge_mod, "split_and_bucket", wraps=split_and_bucket
        ) as split, mock.patch.object(
            edge_mod, "_case1_host", wraps=_case1_host
        ) as host:
            extract_even_cycle_free(complete_bipartite(5, 20), 2, 4, 5)
        assert (split.call_count, host.call_count) == (1, 1)

    @pytest.mark.parametrize(
        "n, r, runs", [(9, 3, False), (10, 3, True), (3, 1499, False)]
    )
    def test_case2_needs_target_order_above_girth(self, n, r, runs):
        # on C_n case 2 aims at a host of order ceil(2 sqrt(n)); at r >= 3 it
        # runs only when that order reaches the girth 2r + 1 (n > r^2)
        cycle = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        with mock.patch.object(edge_mod, "case2_extract", wraps=case2_extract) as case2:
            _, report = extract_even_cycle_free(cycle, r, 2, 0)
        assert case2.call_count == (2 if runs else 0)
        assert (report.extras["trial_mean_edges"] is not None) == runs

    @pytest.mark.parametrize(
        "g, r, case",
        [
            (complete_bipartite(5, 20), 2, "case1_extract"),
            (random_gnm(40, 90, 5), 2, "case2_extract"),
            (random_gnm(60, 200, 5), 3, "case2_extract"),
        ],
        ids=["case1", "case2", "case2-r3"],
    )
    def test_trial_mean_edges_is_the_mean_case_output(self, g, r, case):
        outputs = {"case1_extract": [], "case2_extract": []}

        def recording(name):
            fn = getattr(edge_mod, name)

            def wrapped(*args):
                outputs[name].append(fn(*args))
                return outputs[name][-1]

            return wrapped

        trials = 3
        with mock.patch.object(
            edge_mod, "case1_extract", recording("case1_extract")
        ), mock.patch.object(edge_mod, "case2_extract", recording("case2_extract")):
            _, report = extract_even_cycle_free(g, r, trials, 17)
        assert [len(v) for v in outputs.values()] == [
            trials if name == case else 0 for name in outputs
        ]
        edges = [out.m for out in outputs[case]]
        assert report.extras["trial_mean_edges"] == sum(edges) / trials

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_small_star_is_identity(self, r):
        # stars too small for the girth-(2r+1) cover host keep the star host
        for leaves in range(4, 2 * r + 1):
            out, report = extract_even_cycle_free(star(leaves), r, 2, 0)
            assert report.method == "identity"
            assert out.m == leaves

    def test_rejects_bad_params(self):
        g = complete(5)
        with pytest.raises(ValueError):
            extract_even_cycle_free(g, 1, 3, 0)
        with pytest.raises(ValueError):
            extract_even_cycle_free(g, 2, 0, 0)
