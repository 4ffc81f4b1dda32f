import pytest
from hypothesis import given, settings

from girthforge.graph import ForbiddenFamily, Graph, check_family_free
from girthforge.hosts import complete, complete_bipartite, random_gnm
from girthforge.oracle import EXACT_EDGE_CAP, cherry_check, exact_ex
from bruteforce import brute_ex
from conftest import small_graphs

EVEN4 = ForbiddenFamily("even", 4)


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


class TestExactEx:
    def test_anchor_k4(self):
        # hand-verifiable: K4 minus two adjacent edges is C4-free with 4
        assert exact_ex(complete(4), EVEN4).value == 4

    def test_anchor_c5(self):
        assert exact_ex(cycle_graph(5), EVEN4).value == 5

    def test_anchor_k33(self):
        assert exact_ex(complete_bipartite(3, 3), EVEN4).value == 6

    def test_anchor_k5(self):
        # frozen from subset enumeration
        assert brute_ex(complete(5), "even", 4) == 6
        assert exact_ex(complete(5), EVEN4).value == 6

    def test_all_family_triangle(self):
        assert exact_ex(complete(4), ForbiddenFamily("all", 3)).value == 4

    def test_witness_is_certified_and_sized(self):
        res = exact_ex(complete(5), EVEN4)
        assert len(res.witness) == res.value
        g = Graph.from_edges(5, res.witness)
        assert check_family_free(g, EVEN4).free

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            exact_ex(random_gnm(12, EXACT_EDGE_CAP + 1, 0), EVEN4)

    @settings(max_examples=30, deadline=None)
    @given(small_graphs(max_n=6, max_m=10))
    def test_matches_subset_enumeration(self, g):
        for kind, bound in (("even", 4), ("all", 4)):
            fam = ForbiddenFamily(kind, bound)
            assert exact_ex(g, fam).value == brute_ex(g, kind, bound)


class TestCherryCheck:
    def test_star_holds(self):
        # star from one A-vertex: cherries = C(3,2) = 3 = capacity
        g = complete_bipartite(1, 3)
        verdict = cherry_check(g, ((0,), (1, 2, 3)))
        assert verdict.holds
        assert verdict.cherries == 3 and verdict.capacity == 3

    def test_c4_detected(self):
        g = complete_bipartite(2, 2)
        verdict = cherry_check(g, ((0, 1), (2, 3)))
        assert not verdict.holds
        verdict.violation.validate(g)
        assert verdict.violation.length == 4

    def test_c6_is_fine(self):
        g = cycle_graph(6)
        verdict = cherry_check(g, ((0, 2, 4), (1, 3, 5)))
        assert verdict.holds

    def test_bad_parts_rejected(self):
        g = complete_bipartite(2, 2)
        with pytest.raises(ValueError):
            cherry_check(g, ((0, 2), (1, 3)))
        with pytest.raises(ValueError):
            cherry_check(g, ((0,), (2, 3)))
        # vertex 5 does not exist and vertex 3 is in neither part
        with pytest.raises(ValueError, match="parts do not partition the vertex set"):
            cherry_check(g, ((0, 1), (2, 5)))
