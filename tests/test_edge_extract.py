import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthforge.graph import (
    ForbiddenFamily,
    Graph,
    VertexColoring,
    check_family_free,
    girth,
)
from girthforge import edge_extract as edge_mod
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
from bruteforce import has_forbidden
from conftest import each_graph_searched_once, small_graphs

EVEN4 = ForbiddenFamily("even", 4)


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

    def test_h_star_frugality(self):
        # two neighbors of 0 share a color: both their edges must vanish
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        host = incidence_graph_pg2(2)
        c0 = host.graph.edges[0]
        chi = VertexColoring((c0[0], c0[1], c0[1]), host.graph.n)
        assert h_prime(g, chi, host).m == 2
        assert h_star(g, chi, host).m == 0


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
        out = case1_extract(g, split, host, 2, 5)
        assert check_family_free(out, EVEN4).free
        bucket = set(split.buckets[split.chosen_q])
        assert all((u in bucket) != (v in bucket) for u, v in out.edges)

    def test_extract_preconditions(self):
        g = complete_bipartite(1, 9)
        split = split_and_bucket(g)
        host = _case1_host(1, 9, 2)
        wrong = _case1_host(2, 9, 2)
        with pytest.raises(ValueError):
            case1_extract(g, split, wrong, 2, 0)


class TestCase2:
    def test_rejects_high_degree(self):
        g = complete_bipartite(1, 9)
        with pytest.raises(ValueError):
            case2_extract(g, 2, 0)

    def test_output_certified(self):
        g = random_gnm(40, 60, 3)  # max degree stays below 2*sqrt(60)
        assert all(d * d < 4 * g.m for d in g.degrees())
        out = case2_extract(g, 2, 11)
        assert check_family_free(out, EVEN4).free

    def test_r3_output_certified(self):
        g = random_gnm(40, 60, 4)
        out = case2_extract(g, 3, 11)
        assert check_family_free(out, ForbiddenFamily("even", 6)).free


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
