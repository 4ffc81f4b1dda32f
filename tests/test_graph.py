import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from girthforge.graph import (
    CertificationError,
    CycleWitness,
    EdgeListParseError,
    ForbiddenFamily,
    Graph,
    INFINITE,
    MAX_VERTEX_ID,
    Verdict,
    VertexColoring,
    bipartition,
    certify,
    check_family_free,
    check_parts,
    closes_forbidden_cycle,
    edge_list_lines,
    edge_subgraph,
    family_girth,
    find_cycle_up_to,
    find_short_even_cycle,
    format_edge_list,
    girth,
    girth_json,
    girth_with_witness,
    pair_from_index,
    parse_edge_list,
)
from girthforge import graph as graph_mod
from girthforge.hosts import clique_apex, complete, incidence_graph_pg2, random_gnm
from bruteforce import (
    brute_girth,
    brute_smallest_shared_pair,
    brute_shortest_even,
    cycle_lengths_through,
    has_forbidden,
    reference_even_cycle_meet_in_middle,
    reference_from_edges,
    reference_two_coloring,
)
from conftest import bipartite_graphs, heawood, small_graphs


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


class TestGraphBasics:
    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_parallel(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(3, [(0, 3)])
        with pytest.raises(ValueError, match="vertex count must be non-negative"):
            Graph.from_edges(-1, [])

    def test_cycle_witness_rejections(self):
        g = cycle_graph(5)
        CycleWitness((0, 1, 2, 3, 4)).validate(g)
        for vertices, message in (
            ((0, 1), "shorter than 3"),
            ((0, 1, 2, 1), "repeats a vertex"),
            ((0, 1, 2), r"pair \(2,0\) is not an edge"),
        ):
            with pytest.raises(CertificationError, match=message):
                CycleWitness(vertices).validate(g)

    def test_witness_checks_build_no_adjacency_sets(self):
        # a triangle witness on a graph with a star, and the large C4 path
        g = Graph.from_edges(60, [(0, i) for i in range(3, 60)] + [(1, 2), (0, 1), (0, 2)])
        CycleWitness((0, 1, 2)).validate(g)
        with pytest.raises(CertificationError):
            CycleWitness((0, 3, 4)).validate(g)
        assert family_girth(g, ForbiddenFamily("even", 4)) == (3, None)
        k = Graph.from_edges(300, [(i, 200 + j) for i in range(200) for j in range(100)])
        find_short_even_cycle(k, 4).validate(k)
        assert "adjacency_sets" not in g.__dict__ and "adjacency_sets" not in k.__dict__

    @settings(max_examples=100, deadline=None)
    @given(g=small_graphs(max_n=12))
    def test_has_edge_matches_bruteforce(self, g):
        # every u, isolated ones included, against v = -1..n: both row ends
        # and the ids just past them
        edges = set(g.edges)
        for u in range(g.n):
            for v in range(-1, g.n + 1):
                assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in edges)
        assert "adjacency_sets" not in g.__dict__

    def test_edges_normalized(self):
        g = Graph.from_edges(4, [(3, 1), (2, 0)])
        assert set(g.edges) == {(0, 2), (1, 3)}
        assert g.degree(3) == 1

    def test_degrees(self):
        g = cycle_graph(5)
        assert g.degrees() == (2,) * 5
        assert g.min_degree() == g.max_degree() == 2


@st.composite
def edge_inputs(draw):
    """(n, edges): a simple graph's edges in random orientations, with
    loops, duplicates in either orientation, negative and out-of-range ids
    injected at random positions, and some pairs given as lists."""
    n = draw(st.integers(min_value=0, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    kinds = ["loop", "dup", "flipped", "negative", "high"]
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=3)):
        vertex = draw(st.integers(min_value=0, max_value=max(n - 1, 0)))
        if kind == "loop":
            bad = (vertex, vertex)
        elif kind in ("dup", "flipped") and edges:
            u, v = draw(st.sampled_from(edges))
            bad = (v, u) if kind == "flipped" else (u, v)
        elif kind == "negative":
            bad = (draw(st.integers(min_value=-3, max_value=-1)), vertex)
        else:
            bad = (vertex, draw(st.integers(min_value=n, max_value=n + 3)))
        if draw(st.booleans()):
            bad = bad[::-1]
        edges.insert(draw(st.integers(min_value=0, max_value=len(edges))), bad)
    return n, [list(e) if draw(st.booleans()) else e for e in edges]


def _build_or_error(build, n, edges):
    try:
        return build(n, edges)
    except ValueError as exc:
        return type(exc), str(exc)


class TestFromEdges:
    @settings(max_examples=300, deadline=None)
    @given(edge_inputs(), st.booleans())
    def test_matches_reference(self, case, as_generator):
        n, edges = case

        def feed():
            return (e for e in edges) if as_generator else list(edges)

        got = _build_or_error(Graph.from_edges, n, feed())
        assert got == _build_or_error(reference_from_edges, n, feed())

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 1), (3, 3), (0, 5), (1, 0)],  # first error is the loop
            [(0, 1), (0, 5), (1, 0)],  # then the range
            [(2, 1), (0, 1), [1, 2]],  # a list-valued duplicate
            [(1, 1), (0, 1, 2)],  # a loop before a malformed pair
            [(0, 1, 2), (1, 1)],  # a malformed pair first
            [[0, 1], [2, 1]],  # valid, list-valued
        ],
    )
    def test_first_error_in_input_order(self, edges):
        ref = _build_or_error(reference_from_edges, 4, iter(edges))
        assert _build_or_error(Graph.from_edges, 4, iter(edges)) == ref

    def test_ordered_tuples_reused(self):
        edges = [(0, 1), (2, 1)]
        g = Graph.from_edges(3, edges)
        assert g.edges == ((0, 1), (1, 2)) and g.edges[0] is edges[0]


class TestFromUpperRows:
    @settings(max_examples=150, deadline=None)
    @given(g=small_graphs(max_n=12), lazy=st.booleans())
    def test_matches_from_edges(self, g, lazy):
        upper = [[v for v in row if v > u] for u, row in enumerate(g.adjacency)]
        built = Graph._from_upper_rows(list(range(g.n)), iter(upper) if lazy else upper)
        assert built == Graph.from_edges(g.n, sorted(g.edges))
        assert list(built.edges) == sorted(built.edges)

    @pytest.mark.parametrize(
        "upper",
        [[[2, 1], [], []], [[1, 1], [], []], [[], [1], []], [[], [2], [0]], [[1, 3], [], []]],
        ids=["unsorted", "repeated", "equal-to-u", "below-u", "at-n"],
    )
    def test_rejects_a_bad_row(self, upper):
        with pytest.raises(ValueError, match=r"upper row \d is not increasing within"):
            Graph._from_upper_rows([0, 1, 2], upper)

    @pytest.mark.parametrize("upper", [[[1], []], [[1], [], [], []]])
    def test_rejects_a_wrong_row_count(self, upper):
        with pytest.raises(ValueError):
            Graph._from_upper_rows([0, 1, 2], upper)

    def test_one_int_object_per_vertex_id(self):
        # rows of fresh ints above 256, which the interpreter does not cache
        n = 700
        upper = ([v for v in range(u + 1, n) if (u + v) % 97 == 0] for u in range(n))
        g = Graph._from_upper_rows(list(range(n)), upper)
        endpoints = [v for e in g.edges for v in e] + [v for a in g.adjacency for v in a]
        assert len({id(v) for v in endpoints}) == len(set(endpoints))


class TestInfiniteSentinel:
    def test_comparisons(self):
        assert INFINITE > 10**9
        assert not (INFINITE < 3)
        assert INFINITE >= INFINITE
        assert INFINITE == INFINITE
        assert INFINITE != 7

    def test_is_math_inf(self):
        import girthforge

        assert girthforge.INFINITE is math.inf

    def test_one_text_form(self):
        assert girth_json(INFINITE) == "Infinite"
        assert girth_json(girth(cycle_graph(5))) == 5


class TestGirth:
    def test_triangle(self):
        assert girth(cycle_graph(3)) == 3

    def test_forest_is_infinite(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
        assert girth(g) == INFINITE

    def test_petersen_is_five(self):
        # frozen from exhaustive cycle enumeration
        assert brute_girth(petersen()) == 5
        assert girth(petersen()) == 5

    def test_witness_is_shortest(self):
        value, witness = girth_with_witness(petersen())
        assert value == 5
        witness.validate(petersen())
        assert witness.length == 5

    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_matches_bruteforce(self, g):
        expected = brute_girth(g)
        got = girth(g)
        if expected is None:
            assert got == INFINITE
        else:
            assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_bounded_search_agrees(self, g):
        expected = brute_girth(g)
        for bound in (3, 4, 6):
            w = find_cycle_up_to(g, bound)
            if expected is not None and expected <= bound:
                assert w is not None and w.length <= bound
                w.validate(g)
            else:
                assert w is None

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        isolated=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_forests_with_isolated_vertices(self, n, isolated, seed):
        # a random forest (each vertex joins an earlier one or starts a
        # new tree) plus isolated vertices
        rng = random.Random(seed)
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        g = Graph.from_edges(n + isolated, edges)
        assert brute_girth(g) is None
        assert girth_with_witness(g) == (INFINITE, None)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        isolated=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        bound=st.integers(min_value=3, max_value=9),
    )
    def test_bounded_search_skips_bfs_on_forests(self, n, isolated, seed, bound):
        rng = random.Random(seed)
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        g = Graph.from_edges(n + isolated, edges)
        with mock.patch.object(graph_mod, "_bfs_detect", side_effect=AssertionError):
            assert find_cycle_up_to(g, bound) is None

    def test_bounded_search_still_runs_on_one_cycle(self):
        # one extra edge on a forest: m = n - components + 1
        edges = [(i, i + 1) for i in range(30)] + [(10, 16), (40, 41)]
        g = Graph.from_edges(42, edges)
        with mock.patch.object(
            graph_mod, "_bfs_detect", wraps=graph_mod._bfs_detect
        ) as bfs:
            assert find_cycle_up_to(g, 6) is None
            assert find_cycle_up_to(g, 7).length == 7
        assert bfs.call_count > 0

    def test_isolated_vertices_only(self):
        assert girth_with_witness(Graph.from_edges(7, [])) == (INFINITE, None)
        assert girth_with_witness(Graph.from_edges(0, [])) == (INFINITE, None)

    @pytest.mark.parametrize("cycle_len", [3, 4, 5, 8])
    def test_long_tree_with_one_short_cycle(self, cycle_len):
        # a 300-vertex path with a chord closing one cycle far from vertex 0,
        # plus a second tree component
        edges = [(i, i + 1) for i in range(299)]
        edges.append((200, 200 + cycle_len - 1))
        edges += [(300, 301), (301, 302)]
        g = Graph.from_edges(303, edges)
        value, witness = girth_with_witness(g)
        assert value == cycle_len == brute_girth(g)
        witness.validate(g)
        assert witness.length == cycle_len


def shared_pair_both_paths(g):
    """``_smallest_shared_pair`` on the bitset path and on the set path
    (a mask budget of 0 bytes)."""
    found = []
    for budget in (graph_mod._MASK_BUDGET, 0):
        with mock.patch.object(graph_mod, "_MASK_BUDGET", budget):
            found.append(graph_mod._smallest_shared_pair(g))
    return found


@st.composite
def graphs_with_a_late_c4(draw):
    """A random tree on 0..n-1, up to two random extra edges, and a C4 on
    four vertices of the top half: the rows before its smallest pair are
    cleared by the one-OR count, unless an extra edge closed an earlier
    C4."""
    n = draw(st.integers(min_value=8, max_value=40))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    a, b, c, d = rng.sample(range(n // 2, n), 4)
    edges |= {(min(e), max(e)) for e in ((a, b), (b, c), (c, d), (d, a))}
    return Graph.from_edges(n, sorted(edges))


class TestSmallestSharedPair:
    @settings(max_examples=200, deadline=None)
    @given(g=small_graphs(max_n=14))
    def test_matches_bruteforce(self, g):
        expected = brute_smallest_shared_pair(g)
        assert shared_pair_both_paths(g) == [expected, expected]

    @pytest.mark.parametrize(
        "n, edges",
        [
            # (4, 5) shares 0 and 1, both below 4; the answer is (0, 1)
            (6, [(0, 4), (0, 5), (1, 4), (1, 5), (2, 3), (3, 4)]),
            # the only C4 is 8-10-9-11, below it a tree over 0..7
            (12, [(i, i + 1) for i in range(8)] + [(0, 5), (3, 9)]
             + [(8, 10), (8, 11), (9, 10), (9, 11)]),
            # the only C4 is 5-7-6-8, hanging from lower vertices
            (9, [(0, 5), (1, 6), (2, 7), (3, 8), (4, 7),
                 (5, 7), (5, 8), (6, 7), (6, 8)]),
        ],
        ids=["common-neighbor-below", "high-minimum", "high-minimum-pendant"],
    )
    def test_walks_from_the_minimum_vertex(self, n, edges):
        g = Graph.from_edges(n, edges)
        expected = brute_smallest_shared_pair(g)
        assert expected is not None
        assert shared_pair_both_paths(g) == [expected, expected]

    def test_c4_free_host_and_complete_bipartite(self):
        assert shared_pair_both_paths(petersen()) == [None, None]
        k = Graph.from_edges(7, [(i, 3 + j) for i in range(3) for j in range(4)])
        assert shared_pair_both_paths(k) == [(0, 1), (0, 1)]

    def test_rows_above_the_block_one_row_at_a_time(self):
        # 2**18 + 5 ids, almost all isolated; the only C4 is
        # n-4 - n-3 - n-2 - n-1 on the four highest ids, below it a path:
        # n-4 and n-2 share n-3 and n-1, and no lower pair shares two
        n = (1 << 18) + 5
        edges = [(i, i + 1) for i in range(300)] + [(n - 5, n - 4)]
        edges += [(n - 4, n - 3), (n - 3, n - 2), (n - 2, n - 1), (n - 1, n - 4)]
        g = Graph.from_edges(n, edges)
        assert shared_pair_both_paths(g) == [(n - 4, n - 2)] * 2

    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            # K2,6: row 0 has six middles, each listing 1: the pair (0, 1)
            (8, [(a, u) for a in (0, 1) for u in range(2, 8)], (0, 1)),
            # a tree of depth two under 0 (four children, four leaves each),
            # so row 0 lists 16 walks and no pair twice, and the C4
            # 21-22-23-24 apart from it: 21 and 23 share 22 and 24
            (25, [(0, c) for c in range(1, 5)]
             + [(c, 1 + 4 * c + i) for c in range(1, 5) for i in range(4)]
             + [(21, 22), (22, 23), (23, 24), (24, 21)], (21, 23)),
        ],
        ids=["repeat-in-first-row", "c4-after-a-long-first-row"],
    )
    def test_first_row_past_the_block(self, n, edges, expected):
        # the first row either holds the answer or lists no pair twice
        g = Graph.from_edges(n, edges)
        assert shared_pair_both_paths(g) == [expected, expected]

    @settings(max_examples=150, deadline=None)
    @given(g=graphs_with_a_late_c4())
    def test_c4_planted_late(self, g):
        expected = brute_smallest_shared_pair(g)
        assert expected is not None
        assert shared_pair_both_paths(g) == [expected, expected]

    def test_large_workload_witness(self):
        # sum C(d,2) past the dict path's limit: the witness is the smallest
        # shared pair with its two smallest common neighbors
        edges = [(i, 200 + j) for i in range(200) for j in range(100)]
        edges = [e for e in edges if e not in {(0, 200), (1, 201)}]
        g = Graph.from_edges(300, edges)
        w = find_short_even_cycle(g, 4)
        assert w.vertices == (202, 0, 203, 1)
        w.validate(g)


class TestEvenCycleSearch:
    def test_c4_found(self):
        w = find_short_even_cycle(cycle_graph(4), 4)
        assert w is not None and w.length == 4

    def test_rejects_bad_bounds(self):
        g = cycle_graph(4)
        with pytest.raises(ValueError, match="cycle bound must be >= 3"):
            find_cycle_up_to(g, 2)
        with pytest.raises(ValueError, match="even integer >= 4"):
            find_short_even_cycle(g, 5)

    def test_c5_is_even_free(self):
        assert find_short_even_cycle(cycle_graph(5), 10) is None

    def test_c6_found_at_bound(self):
        w = find_short_even_cycle(cycle_graph(6), 6)
        assert w is not None and w.length == 6
        assert find_short_even_cycle(cycle_graph(6), 4) is None

    def test_petersen_even_girth(self):
        # shortest even cycle in the Petersen graph is 6 (frozen from
        # exhaustive enumeration)
        assert brute_shortest_even(petersen(), 10) == 6
        w = find_short_even_cycle(petersen(), 6)
        assert w is not None and w.length == 6

    @settings(max_examples=120, deadline=None)
    @given(small_graphs())
    def test_matches_bruteforce(self, g):
        for bound in (4, 6, 8):
            expected = brute_shortest_even(g, bound)
            w = find_short_even_cycle(g, bound)
            if expected is None:
                assert w is None
            else:
                assert w is not None
                assert w.length % 2 == 0 and w.length <= bound
                w.validate(g)
                # search ascends by length, so the witness is shortest
                assert w.length == expected

    @pytest.mark.parametrize("half", [2, 3, 4])
    def test_meet_in_middle_matches_reference(self, half):
        # same DFS leaf order, so the same first witness (or none)
        rng = random.Random(half)
        for _ in range(400):
            n = rng.randint(2 * half, 14)
            total = n * (n - 1) // 2
            m = rng.randint(0, min(total, 2 * n))
            g = Graph.from_edges(
                n, [pair_from_index(n, i) for i in rng.sample(range(total), m)]
            )
            expected = reference_even_cycle_meet_in_middle(g, half)
            got = graph_mod._even_cycle_meet_in_middle(g, half)
            assert (got and got.vertices) == (expected and expected.vertices)


def _assert_check_matches_bruteforce(g, fam):
    verdict = check_family_free(g, fam)
    assert verdict.free == (not has_forbidden(g, fam.kind, fam.bound))
    if not verdict.free:
        verdict.witness.validate(g)
        assert fam.matches(verdict.witness.length)


class TestFamily:
    def test_parse(self):
        fam = ForbiddenFamily.parse("even:4")
        assert fam.kind == "even" and fam.bound == 4
        assert ForbiddenFamily.parse("all:7").bound == 7

    def test_parse_rejects(self):
        for bad in ("even:5", "all:2", "odd:4", "even", "even:x"):
            with pytest.raises(ValueError):
                ForbiddenFamily.parse(bad)

    def test_matches(self):
        fam = ForbiddenFamily.even_cycles_up_to(6)
        assert fam.matches(4) and fam.matches(6)
        assert not fam.matches(5) and not fam.matches(8)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs())
    def test_check_matches_bruteforce(self, g):
        for kind, bound in (("even", 4), ("even", 6), ("all", 5)):
            _assert_check_matches_bruteforce(g, ForbiddenFamily(kind, bound))

    @settings(max_examples=60, deadline=None)
    @given(bipartite_graphs())
    def test_check_matches_bruteforce_on_bipartite_graphs(self, g):
        for fam in EDGE_TEST_FAMILIES:
            _assert_check_matches_bruteforce(g, fam)

    def test_bipartite_c4_free_graph_is_all5_free_without_bfs(self):
        g = incidence_graph_pg2(3).graph
        with mock.patch.object(graph_mod, "find_cycle_up_to", side_effect=AssertionError):
            assert check_family_free(g, ForbiddenFamily("all", 5)) == Verdict(free=True)


EDGE_TEST_FAMILIES = [ForbiddenFamily("even", b) for b in (4, 6, 8, 10)] + [
    ForbiddenFamily("all", b) for b in range(3, 10)
]



def _assert_certify_matches_bruteforce(g):
    expected_girth = brute_girth(g)
    if expected_girth is None:
        expected_girth = INFINITE
    assert girth(g) == expected_girth
    for fam in EDGE_TEST_FAMILIES:
        value, witness = family_girth(g, fam)
        if has_forbidden(g, fam.kind, fam.bound):
            witness.validate(g)
            assert fam.matches(witness.length)
            with pytest.raises(CertificationError, match="subject"):
                certify(g, fam, "subject")
        else:
            assert (value, witness) == (expected_girth, None)
            assert certify(g, fam, "subject") == expected_girth


class TestCertify:
    @settings(max_examples=150, deadline=None)
    @given(small_graphs())
    def test_matches_bruteforce(self, g):
        _assert_certify_matches_bruteforce(g)

    @settings(max_examples=100, deadline=None)
    @given(bipartite_graphs())
    def test_matches_bruteforce_on_bipartite_graphs(self, g):
        assert bipartition(g) is not None
        _assert_certify_matches_bruteforce(g)

    @pytest.mark.parametrize(
        "g, bound, expected",
        [
            (heawood(), 4, 6),
            (cycle_graph(8), 6, 8),
            # C8 and C6 apart: the first root meets the 8-cycle, not the girth
            (Graph.from_edges(14, [(i, (i + 1) % 8) for i in range(8)]
                              + [(8 + i, 8 + (i + 1) % 6) for i in range(6)]), 4, 6),
        ],
        ids=["heawood-even4", "C8-even6", "C8+C6-even4"],
    )
    def test_bipartite_even_family_runs_one_girth_search(self, g, bound, expected):
        # no even-cycle search and no second girth search on a bipartite graph
        with mock.patch.object(
            graph_mod, "girth_with_witness", wraps=graph_mod.girth_with_witness
        ) as search, mock.patch.object(
            graph_mod, "find_short_even_cycle", side_effect=AssertionError
        ):
            assert certify(g, ForbiddenFamily("even", bound), "bipartite") == expected
        assert search.call_count == 1

    def test_all_family_runs_one_girth_search(self):
        # the family check and the girth come from the same search
        with mock.patch.object(
            graph_mod, "girth_with_witness", wraps=graph_mod.girth_with_witness
        ) as search, mock.patch.object(
            graph_mod, "find_cycle_up_to", side_effect=AssertionError
        ):
            assert certify(petersen(), ForbiddenFamily("all", 4), "petersen") == 5
        assert search.call_count == 1

    def test_all_family_stops_at_first_short_cycle(self):
        # the first root already closes a 4-cycle of K30,30; scanning the
        # other 59 roots could only find more
        k30 = Graph.from_edges(60, [(i, 30 + j) for i in range(30) for j in range(30)])
        with mock.patch.object(
            graph_mod, "_bfs_detect", wraps=graph_mod._bfs_detect
        ) as bfs:
            with pytest.raises(CertificationError, match="length 4"):
                certify(k30, ForbiddenFamily("all", 5), "K30,30")
        assert bfs.call_count <= 2

    def test_names_the_subject_and_the_witness(self):
        with pytest.raises(CertificationError, match=r"C6 .* length 6 \(even:6\)"):
            certify(cycle_graph(6), ForbiddenFamily("even", 6), "C6")


def _adjacency_sets(g):
    return [set(a) for a in g.adjacency]


class TestClosesForbiddenCycle:
    @given(small_graphs(max_n=10, max_m=18), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce(self, g, data):
        non_edges = [
            (a, b) for a in range(g.n) for b in range(a + 1, g.n)
            if not g.has_edge(a, b)
        ]
        assume(non_edges)
        u, v = data.draw(st.sampled_from(non_edges))
        if data.draw(st.booleans()):
            u, v = v, u
        lengths = cycle_lengths_through(g, u, v, 10)
        adj = _adjacency_sets(g)
        for fam in EDGE_TEST_FAMILIES:
            expected = any(fam.matches(c) for c in lengths)
            assert closes_forbidden_cycle(adj, u, v, fam) == expected, fam

    def test_different_components(self):
        # two 5-cycles, u and v on different ones
        g = Graph.from_edges(
            10, [(i, (i + 1) % 5) for i in range(5)]
            + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
        )
        for fam in EDGE_TEST_FAMILIES:
            assert not closes_forbidden_cycle(_adjacency_sets(g), 0, 7, fam)

    @pytest.mark.parametrize("u, v", [(6, 0), (0, 6)])
    def test_isolated_endpoint(self, u, v):
        g = Graph.from_edges(7, [(i, (i + 1) % 6) for i in range(6)])
        for fam in EDGE_TEST_FAMILIES:
            assert not closes_forbidden_cycle(_adjacency_sets(g), u, v, fam)

    def test_rejects_existing_edge_and_loop(self):
        adj = _adjacency_sets(cycle_graph(5))
        fam = ForbiddenFamily("even", 4)
        with pytest.raises(ValueError):
            closes_forbidden_cycle(adj, 0, 1, fam)
        with pytest.raises(ValueError):
            closes_forbidden_cycle(adj, 2, 2, fam)


# the families whose per-edge test has a set-operation form (4, 6) and the
# first one decided by the path search alone (8)
SET_PATH_FAMILIES = [ForbiddenFamily("even", b) for b in (4, 6, 8)]


@st.composite
def dense_graphs(draw):
    """Graphs on 4..10 vertices with n <= m <= 30 edges and at least one
    non-edge: dense enough that walks between a non-edge's ends revisit
    vertices."""
    n = draw(st.integers(min_value=4, max_value=10))
    total = n * (n - 1) // 2
    m = draw(st.integers(min_value=min(n, total - 1), max_value=min(30, total - 1)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    chosen = rng.sample(range(total), m)
    return Graph.from_edges(n, [pair_from_index(n, idx) for idx in chosen])


# Each graph holds the walk u-a-b-c-d-v (u = 0, v = 9) with the named pair
# of its vertices equal; the walk is listed with the coincidence applied.
# With a = c, b = d, b = u or c = v the walk holds a 3-path; with u = c,
# a = d or b = v, u and v share a neighbor and no odd u-v path of length
# 3..5 exists, so the even:6 rule without its common-neighbor check would
# answer True.  The a = d graph is u-w, w-b, b-c, c-w, w-v (w = a): the
# only u-v path is u-w-v, yet u-w-b-c-w-v never backtracks.
COINCIDENCE_WALKS = {
    "a=c": (0, 1, 2, 1, 3, 9),
    "b=d": (0, 1, 2, 3, 2, 9),
    "b=u": (0, 1, 0, 3, 4, 9),
    "c=v": (0, 1, 2, 9, 4, 9),
    "u=c": (0, 1, 2, 0, 3, 9),
    "a=d": (0, 1, 2, 3, 1, 9),
    "b=v": (0, 1, 9, 3, 4, 9),
}


class TestSetOperationPaths:
    @given(dense_graphs(), st.data())
    @settings(max_examples=120, deadline=None)
    def test_dense_graphs_match_bruteforce(self, g, data):
        non_edges = [
            (a, b) for a in range(g.n) for b in range(a + 1, g.n)
            if not g.has_edge(a, b)
        ]
        u, v = data.draw(st.sampled_from(non_edges))
        if data.draw(st.booleans()):
            u, v = v, u
        lengths = cycle_lengths_through(g, u, v, 8)
        adj = _adjacency_sets(g)
        for fam in SET_PATH_FAMILIES:
            expected = any(fam.matches(c) for c in lengths)
            assert closes_forbidden_cycle(adj, u, v, fam) == expected, fam

    @pytest.mark.parametrize("name", sorted(COINCIDENCE_WALKS))
    @pytest.mark.parametrize("flip", [False, True])
    def test_walk_coincidences(self, name, flip):
        walk = COINCIDENCE_WALKS[name]
        g = Graph.from_edges(10, {tuple(sorted(e)) for e in zip(walk, walk[1:])})
        u, v = (9, 0) if flip else (0, 9)
        three_path = name in ("a=c", "b=d", "b=u", "c=v")
        lengths = cycle_lengths_through(g, u, v, 8)
        assert any(c % 2 == 0 for c in lengths) == three_path
        adj = _adjacency_sets(g)
        with mock.patch.object(
            graph_mod, "_odd_path_dfs", wraps=graph_mod._odd_path_dfs
        ) as dfs:
            for fam in SET_PATH_FAMILIES[:2]:
                assert closes_forbidden_cycle(adj, u, v, fam) == three_path, fam
        # only the shared-neighbor cases reach the path search
        assert dfs.call_count == (0 if three_path else 1)

    @pytest.mark.parametrize(
        "g",
        [random_gnm(300, 3000, s) for s in (0, 1, 2)]
        + [complete(40), clique_apex(3, 20)],
        ids=["gnm-300-3000-s0", "gnm-300-3000-s1", "gnm-300-3000-s2", "K40",
             "clique-apex-3-20"],
    )
    @pytest.mark.parametrize("bound", [4, 6])
    def test_matches_the_path_search_on_every_greedy_query(self, g, bound):
        # one greedy pass; each query is decided by both forms
        fam = ForbiddenFamily("even", bound)
        order = list(g.edges)
        random.Random(bound).shuffle(order)
        adj = [set() for _ in range(g.n)]
        verdicts = set()
        for u, v in order:
            closes = closes_forbidden_cycle(adj, u, v, fam)
            assert closes == graph_mod._odd_path_dfs(adj, u, v, bound - 1), (u, v)
            verdicts.add(closes)
            if not closes:
                adj[u].add(v)
                adj[v].add(u)
        assert verdicts == {False, True}


def _pair_by_row_walk(n, index):
    u, rem = 0, index
    while rem >= n - 1 - u:
        rem -= n - 1 - u
        u += 1
    return u, u + 1 + rem


class TestPairFromIndex:
    def test_row_major_order(self):
        for n in range(2, 70):
            expected = [(a, b) for a in range(n) for b in range(a + 1, n)]
            assert [
                pair_from_index(n, i) for i in range(len(expected))
            ] == expected

    @given(st.integers(min_value=2, max_value=5000), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_walk(self, n, data):
        index = data.draw(st.integers(min_value=0, max_value=n * (n - 1) // 2 - 1))
        assert pair_from_index(n, index) == _pair_by_row_walk(n, index)


class TestSubgraphs:
    def test_edge_subgraph_predicate(self):
        g = cycle_graph(4)
        sub = edge_subgraph(g, lambda e: e[0] == 0)
        assert sub.n == 4 and sub.m == 2

    def test_check_parts(self):
        k22 = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        check_parts(k22, ((0, 1), (2, 3)))
        check_parts(k22, ((3, 2), (1, 0)))
        # a vertex the graph lacks, one left out, one twice in a part, one in both
        bad = [((0, 1), (2, 5)), ((0, 1), (2,)), ((0, 1), (2, 3, 3)), ((0, 1, 2), (2, 3))]
        for parts in bad:
            with pytest.raises(ValueError, match="parts do not partition the vertex set"):
                check_parts(k22, parts)
        with pytest.raises(ValueError, match="graph is not bipartite with the given parts"):
            check_parts(k22, ((0, 2), (1, 3)))

    @settings(max_examples=150, deadline=None)
    @given(
        g=st.one_of(small_graphs(max_n=10), bipartite_graphs()),
        spread=st.integers(min_value=1, max_value=4),
    )
    def test_two_coloring_with_isolated_ids(self, g, spread):
        # every id times spread: the ids between, and any isolated vertex
        # of g, take the bulk step
        sparse = Graph.from_edges(
            g.n * spread, [(u * spread, v * spread) for u, v in g.edges]
        )
        assert graph_mod._two_coloring(sparse) == reference_two_coloring(sparse)

    def test_bipartition(self):
        assert bipartition(cycle_graph(5)) is None
        parts = bipartition(cycle_graph(6))
        assert parts is not None
        a, b = parts
        sa = set(a)
        assert all((u in sa) != (v in sa) for u, v in cycle_graph(6).edges)


class TestColoring:
    def test_uniform_range(self):
        import random

        chi = VertexColoring.uniform(10, 4, random.Random(1))
        assert len(chi.colors) == 10
        assert all(0 <= c < 4 for c in chi.colors)

    def test_proper(self):
        g = cycle_graph(4)
        assert VertexColoring((0, 1, 0, 1), 2).is_proper_on(g)
        assert not VertexColoring((0, 0, 1, 1), 2).is_proper_on(g)

    def test_rejects_bad_colors(self):
        with pytest.raises(ValueError, match="color count must be >= 1"):
            VertexColoring((), 0)
        for color in (-1, 2):
            with pytest.raises(ValueError, match=r"outside 0\.\.1"):
                VertexColoring((0, color), 2)


class TestEdgeListFormat:
    def test_roundtrip(self):
        g = petersen()
        assert parse_edge_list(format_edge_list(g)) == g
        pairs = [(3, 1), (0, 4), (2, 3), (1, 0)]
        text = "# c\n\n" + "".join(f"{u} {v}\n" for u, v in pairs)
        assert parse_edge_list(text) == reference_from_edges(5, pairs)

    def test_comments_and_blanks(self):
        g = parse_edge_list("# header\n\n0 1\n 1 2 \n")
        assert g.m == 2 and g.n == 3

    def test_line_numbered_errors(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            parse_edge_list("0 1\n1 1\n")
        with pytest.raises(EdgeListParseError, match="line 3"):
            parse_edge_list("0 1\n1 2\n0 1\n")
        with pytest.raises(EdgeListParseError, match="line 1"):
            parse_edge_list("0 one\n")

    @pytest.mark.parametrize(
        "token",
        ["1_0", "+3", "٣", "３", "1٠", "²", "-", "--1", "-+1", "0x1"],
    )
    def test_ids_are_ascii_decimal(self, token):
        # int() alone accepts the first five (underscores, a plus sign and
        # Arabic-Indic or fullwidth digits)
        for text in (f"0 1\n{token} 4\n", f"0 1\n4 {token}\n"):
            with pytest.raises(EdgeListParseError, match="line 2: non-integer vertex"):
                parse_edge_list(text)

    def test_leading_minus_is_a_negative_id(self):
        with pytest.raises(EdgeListParseError, match="line 1: negative vertex id"):
            parse_edge_list("-1 2\n")
        assert parse_edge_list("-0 007\n").edges == ((0, 7),)

    def test_vertex_id_beyond_cap_rejected(self):
        big = MAX_VERTEX_ID + 1
        with pytest.raises(
            EdgeListParseError, match=f"line 2: vertex id {big} exceeds MAX_VERTEX_ID"
        ):
            parse_edge_list(f"0 1\n{big} 3\n")
        with pytest.raises(EdgeListParseError, match="vertex id 100000000 exceeds"):
            parse_edge_list("100000000 0\n")

    def test_vertex_id_at_cap_accepted(self, monkeypatch):
        # the graph itself would hold 2**22 adjacency rows (about 3 s and
        # 340 MB), so only the request the parser makes is checked
        built = []
        monkeypatch.setattr(
            graph_mod, "_assemble", lambda n, pairs: built.append((n, pairs))
        )
        parse_edge_list(f"# ids kept as given\n{MAX_VERTEX_ID} 0\n")
        assert built == [(MAX_VERTEX_ID + 1, [(0, MAX_VERTEX_ID)])]

    def test_unused_ids_stay_isolated(self):
        g = parse_edge_list("2 5\n")
        assert g.n == 6 and g.edges == ((2, 5),)
        assert format_edge_list(g).splitlines()[1:] == ["2 5"]

    def test_lines_are_the_text(self):
        g = petersen()
        lines = list(edge_list_lines(g))
        assert lines[0] == "# girthforge edge list: n=10 m=15\n"
        assert lines[1:] == [f"{u} {v}\n" for u, v in g.edges]
        empty = Graph.from_edges(2, [])
        assert format_edge_list(empty) == "# girthforge edge list: n=2 m=0\n"
