"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
assertion carries the criterion's stated tolerance.
"""

import contextlib
import io
import math
import time

import conftest

from girthforge.cli import main as cli_main
from girthforge.graph import (
    ForbiddenFamily,
    Graph,
    INFINITE,
    check_family_free,
    format_edge_list,
    girth,
)
from girthforge.hosts import (
    clique_apex,
    complete,
    complete_bipartite,
    incidence_graph_pg2,
    polarity_graph,
    random_gnm,
)
from girthforge.edge_extract import extract_even_cycle_free
from girthforge.degree_extract import (
    EdgeWeights,
    edge_retention,
    extract_spanning_high_girth,
)
from girthforge.graph import VertexColoring
from girthforge.oracle import cherry_check, exact_ex
from girthforge.partition import max_kpartite
from bruteforce import projective_degree_counts


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    line = f"CRITERION {num} {name}: {status} ({detail}; {elapsed:.1f}s of {budget}s budget)"
    print(line, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)


def _corpus(seed_base):
    graphs = [
        complete(12),
        complete(25),
        complete(40),
        complete_bipartite(5, 20),
        complete_bipartite(10, 10),
        clique_apex(3, 20),
        clique_apex(4, 10),
    ]
    for i in range(8):
        n = 30 + 20 * i  # 30..170
        m = min(3 * n, n * (n - 1) // 2)
        graphs.append(random_gnm(n, m, seed_base + i))
    graphs.append(random_gnm(200, 500, seed_base + 99))
    return graphs


class TestAcceptance:
    def test_1_certification_soundness(self):
        budget, start = 120.0, time.monotonic()
        runs = violations = 0
        graphs = _corpus(100)
        for r in (2, 3):
            fam = ForbiddenFamily.even_cycles_up_to(2 * r)
            for gi, g in enumerate(graphs):
                for s in range(14):
                    out, rep = extract_even_cycle_free(g, r, 1, 1000 * gi + s)
                    runs += 1
                    if not check_family_free(out, fam).free:
                        violations += 1
        # odd-free mode on a lighter sample
        fam_odd = ForbiddenFamily.all_cycles_up_to(5)
        for gi, g in enumerate(graphs[:8]):
            for s in range(8):
                out, rep = extract_even_cycle_free(g, 2, 1, s, odd_free=True)
                runs += 1
                if not check_family_free(out, fam_odd).free:
                    violations += 1
        elapsed = time.monotonic() - start
        ok = runs >= 500 and violations == 0 and elapsed < budget
        _report(1, "certification-soundness", ok,
                f"{runs} runs, {violations} violations", elapsed, budget)
        assert runs >= 500 and violations == 0
        assert elapsed < budget

    def test_2_girth_guarantee(self):
        budget, start = 180.0, time.monotonic()
        runs = violations = degraded_trials = 0
        graphs = _corpus(200)
        for r in (2, 3):
            for gi, g in enumerate(graphs):
                for s in range(10):
                    out, rep = extract_spanning_high_girth(
                        g, r, 2000 * gi + s, 1, max_rounds=12
                    )
                    runs += 1
                    # one trial per run; a degraded output is checked too
                    degraded_trials += rep.extras["degraded_trials"]
                    gv = girth(out)
                    if not (gv == INFINITE or gv >= 2 * r + 2):
                        violations += 1
        elapsed = time.monotonic() - start
        ok = runs >= 300 and violations == 0 and elapsed < budget
        _report(2, "girth-guarantee", ok,
                f"{runs} runs, {violations} violations, "
                f"degraded trial rate {degraded_trials / runs:.2%}", elapsed, budget)
        assert runs >= 300 and violations == 0
        assert elapsed < budget

    def test_3_partition_guarantee(self):
        budget, start = 30.0, time.monotonic()
        checked = 0
        for i in range(100):
            n = 10 + (i * 140) // 99  # 10..150
            m = min((n * (n - 1)) // 4, 3 * n)
            g = random_gnm(n, m, 300 + i)
            for k in (3, 4, 5):
                part, cross = max_kpartite(g, k, i)
                p = part.parts
                for v in range(g.n):
                    d = g.degree(v)
                    d_out = sum(1 for w in g.adjacency[v] if p[w] != p[v])
                    assert d_out >= -(-(k - 2) * d // (k - 1)), (n, k, v)
                assert cross.m >= -(-(k - 2) * g.m // (k - 1))
                checked += 1
        elapsed = time.monotonic() - start
        _report(3, "partition-guarantee", elapsed < budget,
                f"{checked} partitions, exact bounds", elapsed, budget)
        assert elapsed < budget

    def test_4_host_certificates(self):
        budget, start = 10.0, time.monotonic()
        for q in (2, 3, 5, 7, 11, 13):
            host = polarity_graph(q)
            n = q * q + q + 1
            assert host.order == n
            assert host.graph.m == q * (q + 1) ** 2 // 2
            assert check_family_free(host.graph, ForbiddenFamily("even", 4)).free
            counts = {}
            for d in host.graph.degrees():
                counts[d] = counts.get(d, 0) + 1
            assert counts[q] == q + 1
            # independent orthogonality enumeration
            assert counts == projective_degree_counts(q)
            inc = incidence_graph_pg2(q)
            assert all(d == q + 1 for d in inc.graph.degrees())
            assert inc.certified_girth == 6
        elapsed = time.monotonic() - start
        _report(4, "host-certificates", elapsed < budget,
                "q in {2,3,5,7,11,13}", elapsed, budget)
        assert elapsed < budget

    def test_5_oracle_dominance(self):
        budget, start = 120.0, time.monotonic()
        fam = ForbiddenFamily("even", 4)
        cases = 0
        named = {
            "K4": (complete(4), 4),
            "K5": (complete(5), None),
            "K33": (complete_bipartite(3, 3), 6),
            "C5": (Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]), 5),
            "C6": (Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)]), None),
        }
        for name, (g, anchor) in named.items():
            value = exact_ex(g, fam).value
            if anchor is not None:
                assert value == anchor, name
            out, _ = extract_even_cycle_free(g, 2, 4, 7)
            assert out.m <= value, name
            cases += 1
        for i in range(50):
            n = 5 + i % 6
            m = min(20, n * (n - 1) // 2)
            g = random_gnm(n, m, 500 + i)
            value = exact_ex(g, fam).value
            out, _ = extract_even_cycle_free(g, 2, 4, i)
            assert out.m <= value
            cases += 1
        elapsed = time.monotonic() - start
        _report(5, "oracle-dominance", elapsed < budget,
                f"{cases} graphs, anchors ex(K4)=4 ex(C5)=5 ex(K33)=6",
                elapsed, budget)
        assert elapsed < budget

    def test_6_scaling_slope(self):
        budget, start = 300.0, time.monotonic()
        xs, ys = [], []
        for n in range(20, 81, 10):
            g = complete(n)
            out, _ = extract_even_cycle_free(g, 2, 32, 6)
            xs.append(math.log(g.m))
            ys.append(math.log(out.m))
        k = len(xs)
        mx, my = sum(xs) / k, sum(ys) / k
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )
        elapsed = time.monotonic() - start
        ok = slope >= 0.55 and k >= 6 and elapsed < budget
        _report(6, "scaling-slope", ok,
                f"slope {slope:.3f} over {k} points (need >= 0.55)",
                elapsed, budget)
        assert k >= 6 and slope >= 0.55
        assert elapsed < budget

    def test_7_cherry_bound(self):
        budget, start = 60.0, time.monotonic()
        runs = 0
        configs = [(9, 3), (16, 4), (16, 8), (25, 5), (25, 10), (36, 6),
                   (36, 12), (49, 7), (12, 4), (20, 5)]
        for big, small in configs:
            assert small * small >= big
            g = complete_bipartite(big, small)
            parts = (tuple(range(big)), tuple(range(big, big + small)))
            cap = int(2 * small / math.sqrt(big)) + 2
            for s in range(10):
                out, rep = extract_even_cycle_free(g, 2, 1, s)
                verdict = cherry_check(out, parts)
                assert verdict.holds, (big, small, s)
                assert out.min_degree() <= cap, (big, small, s, out.min_degree())
                runs += 1
        elapsed = time.monotonic() - start
        _report(7, "cherry-bound", elapsed < budget,
                f"{runs} runs, min-degree cap floor(2d/sqrt(D))+2",
                elapsed, budget)
        assert runs >= 100
        assert elapsed < budget

    def test_8_retention_floor(self):
        budget, start = 10.0, time.monotonic()
        # star fixture: 5 mutually incident edges in one class pair; each
        # is retained exactly when its weight is the minimum of the 5
        g = complete_bipartite(1, 5)
        chi = VertexColoring((0, 1, 1, 1, 1, 1), 2)
        competitors = 5
        trials = 2000
        hits = 0
        watched = g.edges[0]
        for s in range(trials):
            out = edge_retention(g, chi, EdgeWeights.random(g.m, s))
            assert out.m == 1
            if watched in out.edges:
                hits += 1
        p = 1 / competitors
        sigma = math.sqrt(p * (1 - p) / trials)
        freq = hits / trials
        elapsed = time.monotonic() - start
        ok = abs(freq - p) <= 3 * sigma and elapsed < budget
        _report(8, "retention-floor", ok,
                f"freq {freq:.4f} vs exact {p:.4f} (3 sigma = {3 * sigma:.4f})",
                elapsed, budget)
        assert abs(freq - p) <= 3 * sigma
        assert elapsed < budget

    def test_9_determinism(self, tmp_path):
        budget, start = 60.0, time.monotonic()
        k7 = tmp_path / "k7.edges"
        k7.write_text(format_edge_list(complete(7)))
        gnm = tmp_path / "g.edges"
        gnm.write_text(format_edge_list(random_gnm(25, 50, 4)))
        c5 = tmp_path / "c5.edges"
        c5.write_text(
            format_edge_list(Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
        )
        commands = [
            ["verify", "--family", "even:4", "--in", str(c5)],
            ["verify", "--family", "all:5", "--in", str(k7)],
            ["host", "build", "--kind", "polarity", "--q", "5"],
            ["host", "build", "--kind", "greedy", "--n", "40", "--girth", "6", "--seed", "3"],
            ["extract", "edges", "--in", str(k7), "--seed", "7", "--trials", "4"],
            ["extract", "edges", "--in", str(gnm), "--seed", "1", "--odd-free"],
            ["extract", "degree", "--in", str(gnm), "--seed", "2", "--trials", "2"],
            ["oracle", "--family", "even:4", "--in", str(c5)],
            ["sweep", "--mode", "f", "--n", "10:16:2", "--trials", "2", "--seed", "5"],
            ["sweep", "--mode", "h", "--n", "8:14:2", "--trials", "1", "--seed", "5"],
        ]
        for argv in commands:
            outs = []
            for _ in range(2):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    cli_main(argv)
                outs.append(buf.getvalue())
            assert outs[0] == outs[1], argv
        elapsed = time.monotonic() - start
        _report(9, "determinism", elapsed < budget,
                f"{len(commands)} commands byte-identical", elapsed, budget)
        assert elapsed < budget
