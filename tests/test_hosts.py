import gc
import importlib
import os
import pkgutil
import random
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import girthforge
from girthforge import hosts as hosts_mod
from girthforge.graph import (
    CertificationError,
    ForbiddenFamily,
    Graph,
    INFINITE,
    bipartition,
    check_family_free,
    girth,
)
from girthforge.hosts import (
    MAX_PLANE_ORDER,
    PLANE_ORDERS,
    bipartite_trim,
    clique_apex,
    complete,
    complete_bipartite,
    dense_subhost,
    greedy_high_girth,
    incidence_graph_pg2,
    polarity_graph,
    random_gnm,
    smallest_prime_with_plane_order,
    star,
)
from bruteforce import (
    brute_girth,
    brute_orthogonal_pairs,
    projective_degree_counts,
    reference_bipartite_trim,
    reference_greedy_high_girth,
    reference_plane_graphs,
)
from conftest import bipartite_graphs


class TestPrimes:
    def test_plane_orders_are_the_primes(self):
        composite = {m for p in range(2, 11) for m in range(p * p, 102, p)}
        assert PLANE_ORDERS == tuple(p for p in range(2, 102) if p not in composite)
        assert PLANE_ORDERS[-1] == MAX_PLANE_ORDER == 101

    def test_smallest_plane_order(self):
        assert smallest_prime_with_plane_order(7) == 2
        assert smallest_prime_with_plane_order(8) == 3
        assert smallest_prime_with_plane_order(14) == 5
        assert smallest_prime_with_plane_order(183) == 13
        assert smallest_prime_with_plane_order(200) == 17

    @pytest.mark.parametrize("size", [10_303, 10_304, 10**9])
    def test_lookup_is_capped_at_the_largest_plane(self, size):
        # PG(2,101) has 10,303 points; no larger plane is supported
        assert smallest_prime_with_plane_order(size) == 101

    def test_each_order_fits_its_own_plane(self):
        for lower, q in zip((1,) + PLANE_ORDERS, PLANE_ORDERS):
            assert smallest_prime_with_plane_order(q * q + q + 1) == q
            assert smallest_prime_with_plane_order(lower * lower + lower + 2) == q


class TestPolarityGraph:
    @pytest.mark.parametrize("q", [2, 3, 5, 7])
    def test_counts(self, q):
        host = polarity_graph(q)
        n = q * q + q + 1
        assert host.order == n
        assert host.graph.m == q * (q + 1) ** 2 // 2
        # degree spectrum recomputed by independent orthogonality enumeration
        expected = projective_degree_counts(q)
        got: dict[int, int] = {}
        for d in host.graph.degrees():
            got[d] = got.get(d, 0) + 1
        assert got == expected
        assert got[q] == q + 1  # absolute points

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_c4_free_certified(self, q):
        host = polarity_graph(q)
        assert host.certified_family == ForbiddenFamily("even", 4)
        assert check_family_free(host.graph, ForbiddenFamily("even", 4)).free
        assert host.certified_girth == 3 == brute_girth(host.graph, 4)

    @pytest.mark.parametrize("build", [polarity_graph, incidence_graph_pg2])
    def test_rejects_nonprime(self, build):
        with pytest.raises(ValueError, match="q must be prime, got 4"):
            build(4)

    @pytest.mark.parametrize("build", [polarity_graph, incidence_graph_pg2])
    def test_rejects_prime_above_max_plane_order(self, build):
        with pytest.raises(ValueError, match="outside the supported range"):
            build(103)

    @pytest.mark.parametrize("build", [polarity_graph, incidence_graph_pg2])
    def test_range_is_checked_before_primality(self, build):
        # 10**18 + 3 is prime, yet the range message comes first
        with pytest.raises(ValueError, match=r"outside the supported range 2\.\.101"):
            build(10**18 + 3)

    @pytest.mark.parametrize("build", [polarity_graph, incidence_graph_pg2])
    def test_one_int_object_per_vertex_id(self, build):
        # every endpoint of a given id is one shared int (ids above 256 are
        # not cached by the interpreter), not a fresh int per endpoint
        g = build(23).graph
        endpoints = [v for e in g.edges for v in e] + [v for a in g.adjacency for v in a]
        assert len({id(v) for v in endpoints}) == len(set(endpoints)) == g.n


class TestIncidenceGraph:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_regular_girth_six(self, q):
        host = incidence_graph_pg2(q)
        n = q * q + q + 1
        assert host.order == 2 * n
        assert host.min_degree == q + 1
        assert all(d == q + 1 for d in host.graph.degrees())
        assert host.certified_girth == 6
        if q <= 3:
            assert brute_girth(host.graph, 7) == 6

    def test_parts_are_bipartition(self):
        host = incidence_graph_pg2(3)
        a, b = host.parts
        sa = set(a)
        assert all((u in sa) != (v in sa) for u, v in host.graph.edges)


class TestPlaneHostsRebuild:
    @pytest.mark.parametrize("q", [p for p in PLANE_ORDERS if p <= 31])
    def test_same_host_as_from_edges(self, q):
        # edges, adjacency, parts, label and certified girth all match a
        # host whose graph Graph.from_edges built from dot products
        polarity, incidence = reference_plane_graphs(q)
        fam = ForbiddenFamily("even", 4)
        n = q * q + q + 1
        parts = (tuple(range(n)), tuple(range(n, 2 * n)))
        assert polarity_graph(q) == hosts_mod.certify_host(polarity, fam, f"polarity(q={q})")
        assert incidence_graph_pg2(q) == hosts_mod.certify_host(
            incidence, fam, f"incidence_pg2(q={q})", parts=parts
        )

    def test_incidence_parts_share_the_graph_ints(self):
        g, parts = incidence_graph_pg2(23).graph, incidence_graph_pg2(23).parts
        endpoints = {id(v) for e in g.edges for v in e}
        assert {id(v) for part in parts for v in part} == endpoints


class TestGcPause:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("build", [polarity_graph, incidence_graph_pg2])
    def test_caller_state_restored(self, build, enabled):
        # paused while the host is built and certified, restored after a
        # build and after a build that raises
        inside = []
        real = hosts_mod.certify_host

        def spy(*args, **kwargs):
            inside.append(gc.isenabled())
            return real(*args, **kwargs)

        was = gc.isenabled()
        build.cache_clear()
        try:
            if enabled:
                gc.enable()
            else:
                gc.disable()
            with mock.patch.object(hosts_mod, "certify_host", spy):
                build(5)
                assert gc.isenabled() is enabled
                with pytest.raises(ValueError, match="q must be prime"):
                    build(4)
                assert gc.isenabled() is enabled
        finally:
            if was:
                gc.enable()
            else:
                gc.disable()
            build.cache_clear()
        assert inside == [False]


class TestOrthogonalPairs:
    @pytest.mark.parametrize("q", [p for p in PLANE_ORDERS if p < 32] + [67])
    def test_closed_form_matches_dot_products(self, q):
        rows = list(hosts_mod._pg2_orthogonal_rows(q))
        flat = [i for i, row in enumerate(rows) for _ in row], [j for row in rows for j in row]
        assert flat == brute_orthogonal_pairs(q)


class TestIncidenceCertificate:
    @pytest.mark.parametrize(
        "edges, expected",
        [
            ([(i, (i + 1) % 8) for i in range(8)], 8),  # C8
            ([(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)], INFINITE),  # a tree
            ([(i, 2 + j) for i in range(2) for j in range(3)], None),  # K_{2,3}
        ],
        ids=["C8", "tree", "K23"],
    )
    def test_bipartite_host_certified_by_the_common_search(self, edges, expected):
        # the incidence host's path: even:4 on a bipartite graph with parts
        graph = Graph.from_edges(1 + max(max(e) for e in edges), edges)
        fam = ForbiddenFamily("even", 4)
        if expected is None:
            with pytest.raises(CertificationError, match="length 4"):
                hosts_mod.certify_host(graph, fam, "K23", parts=bipartition(graph))
        else:
            host = hosts_mod.certify_host(graph, fam, "bip", parts=bipartition(graph))
            assert host.certified_girth == expected

    def test_dropped_pair_rejected(self):
        real = hosts_mod._pg2_orthogonal_rows

        def drop_one(q):
            rows = list(real(q))
            rows[0] = rows[0][1:]
            return rows

        incidence_graph_pg2.cache_clear()
        try:
            with mock.patch.object(hosts_mod, "_pg2_orthogonal_rows", drop_one):
                with pytest.raises(CertificationError):
                    incidence_graph_pg2(5)
        finally:
            incidence_graph_pg2.cache_clear()

    def test_pg67_build_peak_rss(self):
        # Peak RSS of a fresh process that builds the degree-sparse host.
        # A child's ru_maxrss also counts the RSS of the process it was
        # forked from, so the build runs under a small launcher process,
        # which reports the build process's own rusage from wait4.
        launcher = (
            "import os, subprocess, sys\n"
            "build = 'from girthforge.hosts import incidence_graph_pg2; "
            "incidence_graph_pg2(67)'\n"
            "proc = subprocess.Popen([sys.executable, '-c', build])\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        src = str(Path(girthforge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", launcher], env=env, capture_output=True,
            text=True, check=True, timeout=300,
        ).stdout
        code, maxrss_kib = map(int, out.split())  # ru_maxrss is in KiB on Linux
        assert code == 0
        assert maxrss_kib / 1024 < 57


class TestGreedyHighGirth:
    @pytest.mark.parametrize("min_girth", [4, 5, 6, 7])
    def test_girth_met(self, min_girth):
        host = greedy_high_girth(40, min_girth, 3)
        assert girth(host.graph) >= min_girth
        assert host.graph.m > 0

    def test_maximality_texture(self):
        # greedy output should beat a spanning tree comfortably
        host = greedy_high_girth(60, 5, 0)
        assert host.graph.m > 59

    def test_rejects_order_above_cap(self):
        with pytest.raises(ValueError, match="capped at 3000 vertices"):
            greedy_high_girth(3001, 5, 0)

    def test_deterministic(self):
        a = greedy_high_girth(30, 6, 9)
        b = greedy_high_girth(30, 6, 9)
        assert a.graph.edges == b.graph.edges

    def test_seed_changes_output(self):
        a = greedy_high_girth(30, 6, 1)
        b = greedy_high_girth(30, 6, 2)
        assert a.graph.edges != b.graph.edges

    @pytest.mark.parametrize("n", [8, 13, 25, 60])
    def test_matches_per_pair_search(self, n):
        # the ball bitsets keep exactly the edges a per-pair search keeps
        for min_girth in sorted({3, 4, 5, 6, 7, 8, n}):
            for seed in range(3):
                host = greedy_high_girth(n, min_girth, seed)
                expected = reference_greedy_high_girth(n, min_girth, seed)
                assert host.graph.edges == tuple(expected), (n, min_girth, seed)

    @pytest.mark.parametrize("n, min_girth, seed", [(150, 5, 0), (300, 7, 3), (400, 6, 11)])
    def test_array_order_keeps_the_list_order_edges(self, n, min_girth, seed):
        # the pair order is an array.array; shuffling a list of the same
        # indices with the same seed gives the same kept edges
        order = list(range(n * (n - 1) // 2))
        random.Random(seed).shuffle(order)
        expected = hosts_mod._greedy_ball_pass(n, order, min_girth - 2)
        assert greedy_high_girth(n, min_girth, seed).graph.edges == tuple(expected)

    def test_ball_state_does_not_grow_with_girth(self):
        # two n-bit ints per vertex whatever the girth, not one per radius
        peaks = []
        for min_girth in (7, 200):
            greedy_high_girth.cache_clear()
            tracemalloc.start()
            try:
                greedy_high_girth(200, min_girth, 4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0]


class TestPruneAndDense:
    def test_dense_subhost_keeps_certificate(self):
        base = incidence_graph_pg2(3)
        sub = dense_subhost(base, base.order // 2)
        assert sub.certified_girth >= 6
        assert check_family_free(sub.graph, ForbiddenFamily("even", 4)).free

    def test_dense_subhost_order_window(self):
        # the order is not trimmed: the host keeps its graph and certificate
        base = incidence_graph_pg2(5)
        sub = dense_subhost(base, 10)
        assert sub.label == f"dense_subhost(k=10) of {base.label}"
        assert sub == replace(base, label=sub.label)
        with pytest.raises(ValueError, match="target size must be >= 1"):
            dense_subhost(base, 0)

    def test_bipartite_trim(self):
        host = incidence_graph_pg2(3)
        trimmed, parts = bipartite_trim(host.graph, host.parts, 5, 7)
        assert len(parts[0]) == 5 and len(parts[1]) == 7
        assert trimmed.n == 12
        sa = set(parts[0])
        assert all((u in sa) != (v in sa) for u, v in trimmed.edges)
        for sizes in [(14, 1), (1, 14)]:
            message = re.escape(f"sizes {sizes} exceed the parts (13, 13)")
            with pytest.raises(ValueError, match=message):
                bipartite_trim(host.graph, host.parts, *sizes)

    def test_bipartite_trim_rejects_parts_that_miss_a_vertex(self):
        host = incidence_graph_pg2(2)
        a, b = host.parts
        with pytest.raises(ValueError, match="parts do not partition the vertex set"):
            bipartite_trim(host.graph, (a, b[:-1]), 1, 1)
        # vertex 5 does not exist and vertex 3 is in neither part
        with pytest.raises(ValueError, match="parts do not partition the vertex set"):
            bipartite_trim(complete_bipartite(2, 2), ((0, 1), (2, 5)), 2, 2)

    def test_bipartite_trim_rejects_edge_inside_a_part(self):
        host = incidence_graph_pg2(2)
        graph = Graph.from_edges(host.order, list(host.graph.edges) + [(0, 1)])
        with pytest.raises(ValueError, match="not bipartite with the given parts"):
            bipartite_trim(graph, host.parts, 1, 1)

    @given(bipartite_graphs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_bipartite_trim_matches_two_one_sided_trims(self, g, data):
        parts = bipartition(g)
        ka = data.draw(st.integers(min_value=0, max_value=len(parts[0])))
        kb = data.draw(st.integers(min_value=0, max_value=len(parts[1])))
        got = bipartite_trim(g, parts, ka, kb)
        assert got == reference_bipartite_trim(g, parts, ka, kb)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_bipartite_trim_matches_on_plane_hosts(self, q):
        host = incidence_graph_pg2(q)
        n = q * q + q + 1
        for ka, kb in [(1, n), (n, 1), (n // 2, n - 2), (n - 1, n // 3), (n, n)]:
            got = bipartite_trim(host.graph, host.parts, ka, kb)
            assert got == reference_bipartite_trim(host.graph, host.parts, ka, kb)

    @pytest.mark.parametrize("side, girth_bound", [(9, 7), (14, 7), (20, 9)])
    def test_bipartite_trim_matches_on_double_covers(self, side, girth_bound):
        # the r >= 3 case-1 base: the bipartite double cover of a greedy host
        edges = greedy_high_girth(side, girth_bound, 0).graph.edges
        cover = [(u, side + v) for u, v in edges] + [(v, side + u) for u, v in edges]
        base = Graph.from_edges(2 * side, cover)
        parts = (tuple(range(side)), tuple(range(side, 2 * side)))
        for ka, kb in [(side, side), (3, side - 2), (side - 1, 4), (side // 2, side // 2)]:
            got = bipartite_trim(base, parts, ka, kb)
            assert got == reference_bipartite_trim(base, parts, ka, kb)


class TestCaches:
    def test_only_host_constructors_are_memoized_and_bounded(self):
        cached = set()
        for info in pkgutil.walk_packages(girthforge.__path__, "girthforge."):
            mod = importlib.import_module(info.name)
            for value in vars(mod).values():
                members = vars(value).values() if isinstance(value, type) else ()
                for fn in (value, *members):
                    if callable(getattr(fn, "cache_parameters", None)):
                        assert fn.__module__ == "girthforge.hosts", fn
                        assert fn.cache_parameters()["maxsize"] is not None, fn
                        cached.add(fn.__name__)
        assert cached == {"polarity_graph", "incidence_graph_pg2", "greedy_high_girth"}


class TestGenerators:
    def test_star(self):
        g = star(5)
        assert g.n == 6 and g.m == 5 and g.degree(0) == 5

    def test_complete(self):
        g = complete(6)
        assert g.m == 15 and g.min_degree() == 5

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.n == 7 and g.m == 12
        assert girth(g) == 4

    def test_clique_apex(self):
        g = clique_apex(3, 5)
        assert g.min_degree() == 3
        assert g.degree(0) == 5
        assert g.n == 1 + 5 * 4

    def test_random_gnm(self):
        g = random_gnm(20, 40, 7)
        assert g.n == 20 and g.m == 40
        assert random_gnm(20, 40, 7).edges == g.edges

    def test_random_gnm_rejects_overfull(self):
        with pytest.raises(ValueError):
            random_gnm(4, 7, 0)

    @pytest.mark.parametrize(
        "build, args",
        [(star, (-1,)), (complete, (-1,)), (complete_bipartite, (2, -1)),
         (clique_apex, (0, 3)), (clique_apex, (3, 0))],
    )
    def test_generators_reject_negative_sizes(self, build, args):
        with pytest.raises(ValueError):
            build(*args)
