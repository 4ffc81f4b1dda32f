import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthforge.graph import Graph
from girthforge.hosts import complete, random_gnm
from girthforge.partition import Partition, max_kpartite
from bruteforce import brute_max_cut_parts, reference_max_kpartite
from conftest import small_graphs


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestPartitionType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Partition((0, 2), 3)


class TestMaxKPartite:
    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            max_kpartite(cycle_graph(4), 2, 0)

    @settings(max_examples=80, deadline=None)
    @given(small_graphs(max_n=10))
    def test_per_vertex_guarantee(self, g):
        for k in (3, 4, 5):
            part, cross = max_kpartite(g, k, 11)
            p = part.parts
            for v in range(g.n):
                d = g.degree(v)
                d_out = sum(1 for w in g.adjacency[v] if p[w] != p[v])
                assert (k - 1) * d_out >= (k - 2) * d
            assert (k - 1) * cross.m >= (k - 2) * g.m

    def test_cross_edges_match_partition(self):
        g = random_gnm(30, 80, 5)
        part, cross = max_kpartite(g, 4, 2)
        p = part.parts
        assert cross.edges == tuple(e for e in g.edges if p[e[0]] != p[e[1]])

    def test_c5_bipartization_is_optimal(self):
        # exhaustive 2-part max cut of C5 is 4; local search must match it
        g = cycle_graph(5)
        assert brute_max_cut_parts(g, 2) == 4
        _, cross = max_kpartite(g, 3, 0)
        assert cross.m == 4

    def test_deterministic(self):
        g = random_gnm(25, 60, 9)
        a, _ = max_kpartite(g, 3, 4)
        b, _ = max_kpartite(g, 3, 4)
        assert a.parts == b.parts

    def test_complete_graph_balance(self):
        # K9 into 3 parts: every vertex has degree 8, so it may keep at
        # most 8 - ceil(8*1/2) = 4 same-part neighbors; guarantee is exact
        g = complete(9)
        part, cross = max_kpartite(g, 4, 1)
        assert (4 - 1 - 1) * g.m <= (4 - 1) * cross.m

    @settings(max_examples=150, deadline=None)
    @given(
        g=small_graphs(max_n=12),
        k=st.integers(min_value=3, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_full_rescan(self, g, k, seed):
        part, cross = max_kpartite(g, k, seed)
        assert (part.parts, cross.edges) == reference_max_kpartite(g, k, seed)

    def test_matches_full_rescan_with_many_moves(self):
        # dense inputs make long move sequences, where a stale heap entry
        # or a missed neighbor push would show
        for g in (complete(12), random_gnm(40, 300, 4), random_gnm(60, 200, 8)):
            for k in (3, 4):
                for seed in range(5):
                    part, cross = max_kpartite(g, k, seed)
                    expected = reference_max_kpartite(g, k, seed)
                    assert (part.parts, cross.edges) == expected
