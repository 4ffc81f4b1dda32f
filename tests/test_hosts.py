import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

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
    bipartite_trim,
    clique_apex,
    complete,
    complete_bipartite,
    dense_subhost,
    greedy_high_girth,
    incidence_graph_pg2,
    is_prime,
    polarity_graph,
    random_gnm,
    smallest_prime_with_plane_order,
    star,
)
from bruteforce import brute_girth, brute_orthogonal_pairs, projective_degree_counts


class TestPrimes:
    def test_is_prime(self):
        primes = [p for p in range(60) if is_prime(p)]
        assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]

    def test_smallest_plane_order(self):
        assert smallest_prime_with_plane_order(7) == 2
        assert smallest_prime_with_plane_order(8) == 3
        assert smallest_prime_with_plane_order(14) == 5
        assert smallest_prime_with_plane_order(183) == 13
        assert smallest_prime_with_plane_order(200) == 17


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

    def test_rejects_nonprime(self):
        with pytest.raises(ValueError):
            polarity_graph(4)


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


class TestOrthogonalPairs:
    @pytest.mark.parametrize("q", [p for p in range(32) if is_prime(p)] + [67])
    def test_closed_form_matches_dot_products(self, q):
        rows, cols = hosts_mod._pg2_orthogonal_pairs(q)
        assert (rows.tolist(), cols.tolist()) == brute_orthogonal_pairs(q)


class TestIncidenceCertificate:
    def test_rejects_edge_inside_a_part(self):
        host = incidence_graph_pg2(2)
        graph = Graph.from_edges(host.order, list(host.graph.edges) + [(0, 1)])
        with pytest.raises(CertificationError, match="inside one part"):
            hosts_mod._bipartite_girth_six(graph, host.parts)

    def test_rejects_parts_that_miss_a_vertex(self):
        host = incidence_graph_pg2(2)
        a, b = host.parts
        with pytest.raises(CertificationError, match="partition"):
            hosts_mod._bipartite_girth_six(host.graph, (a, b[:-1]))

    @pytest.mark.parametrize(
        "edges",
        [
            [(i, (i + 1) % 8) for i in range(8)],  # C8
            [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)],  # a tree
            # K_{2,3}: the construction meets the same point twice, and the
            # witness check rejects it
            [(i, 2 + j) for i in range(2) for j in range(3)],
        ],
        ids=["C8", "tree", "K23"],
    )
    def test_no_six_cycle_raises(self, edges):
        graph = Graph.from_edges(1 + max(max(e) for e in edges), edges)
        with pytest.raises(CertificationError):
            hosts_mod._bipartite_girth_six(graph, bipartition(graph))

    def test_dropped_pair_rejected(self):
        real = hosts_mod._pg2_orthogonal_pairs

        def drop_one(q):
            rows, cols = real(q)
            return rows[1:], cols[1:]

        incidence_graph_pg2.cache_clear()
        try:
            with mock.patch.object(hosts_mod, "_pg2_orthogonal_pairs", drop_one):
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
        assert maxrss_kib / 1024 < 400


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

    def test_deterministic(self):
        a = greedy_high_girth(30, 6, 9)
        b = greedy_high_girth(30, 6, 9)
        assert a.graph.edges == b.graph.edges

    def test_seed_changes_output(self):
        a = greedy_high_girth(30, 6, 1)
        b = greedy_high_girth(30, 6, 2)
        assert a.graph.edges != b.graph.edges


class TestPruneAndDense:
    def test_dense_subhost_keeps_certificate(self):
        base = incidence_graph_pg2(3)
        sub = dense_subhost(base, base.order // 2)
        assert sub.certified_girth >= 6
        assert check_family_free(sub.graph, ForbiddenFamily("even", 4)).free

    @pytest.mark.parametrize(
        "n, min_girth, k, order, expected_girth",
        [(60, 5, 10, 11, INFINITE), (120, 7, 20, 114, 7)],
    )
    def test_dense_subhost_pruned(self, n, min_girth, k, order, expected_girth):
        # greedy parents have low-degree vertices, so these are pruned and
        # certified afresh against the parent's family
        base = greedy_high_girth(n, min_girth, 0)
        sub = dense_subhost(base, k)
        assert base.order == n and sub.order == order
        assert sub.certified_girth == girth(sub.graph) == expected_girth
        assert sub.certified_family == base.certified_family
        assert sub.degraded

    def test_dense_subhost_order_window(self):
        base = incidence_graph_pg2(5)
        k = 10
        sub = dense_subhost(base, k)
        assert sub.order <= 2 * k or sub.degraded

    def test_bipartite_trim(self):
        host = incidence_graph_pg2(3)
        trimmed, parts = bipartite_trim(host.graph, host.parts, 5)
        assert len(parts[0]) == 5 and len(parts[1]) == 13
        sa = set(parts[0])
        assert all((u in sa) != (v in sa) for u, v in trimmed.edges)


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
