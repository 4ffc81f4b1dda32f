import json

import pytest

from girthforge import graph as graph_mod
from girthforge.graph import CertificationError, ForbiddenFamily, Graph, girth
from girthforge.hosts import complete, star
from girthforge.report import pick

ALL5 = ForbiddenFamily.all_cycles_up_to(5)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _pick(candidates, key=lambda out: out.m, extras=None):
    return pick(complete(6), ALL5, candidates, key, 2, 3, 7, extras or {})


def _count_searches(monkeypatch):
    searched = []
    family_girth = graph_mod.family_girth

    def wrapped(g, fam):
        searched.append(g)
        return family_girth(g, fam)

    monkeypatch.setattr(graph_mod, "family_girth", wrapped)
    return searched


class TestPick:
    def test_earliest_of_equal_keys_wins(self):
        a, b, c = path_graph(5), star(4), path_graph(3)  # 4, 4 and 2 edges
        candidates = [(c, None, {"method": "c"}), (a, None, {"method": "a"}),
                      (b, None, {"method": "b"})]
        out, report = _pick(candidates)
        assert out is a
        assert report.method == "a"

    def test_key_decides(self):
        # the star has more edges, the cycle the larger minimum degree
        s, c = star(6), cycle_graph(6)
        candidates = [(s, None, {"method": "star"}), (c, None, {"method": "cycle"})]
        assert _pick(candidates)[0] is s
        out, _ = _pick(candidates, key=lambda out: (out.min_degree(), out.m))
        assert out is c

    def test_uncertified_winner_is_certified_once(self, monkeypatch):
        searched = _count_searches(monkeypatch)
        win, lose = cycle_graph(7), path_graph(3)
        _, report = _pick([(lose, None, {"method": "lose"}),
                           (win, None, {"method": "win"})])
        assert len(searched) == 1 and searched[0] is win
        assert report.output_girth == girth(win) == 7

    def test_certified_winner_is_not_searched_again(self, monkeypatch):
        searched = _count_searches(monkeypatch)
        win = cycle_graph(7)
        _, report = _pick([(win, 7, {"method": "win"})])
        assert searched == []
        assert report.output_girth == 7

    def test_uncertified_winner_with_forbidden_cycle_raises(self):
        candidates = [(path_graph(3), None, {"method": "forest"}),
                      (cycle_graph(5), None, {"method": "greedy"})]
        with pytest.raises(CertificationError, match="selected greedy output"):
            _pick(candidates)

    def test_report_comes_from_the_winner(self):
        win = cycle_graph(8)
        candidates = [
            (path_graph(4), None, {"method": "forest", "degraded": False}),
            (win, 8, {"method": "resample", "degraded": True, "rounds_used": 5}),
        ]
        out, report = _pick(candidates, extras={"degraded_trials": 2})
        assert out is win
        assert report.method == "resample"
        assert (report.input_n, report.input_m) == (6, 15)
        assert (report.r, report.trials, report.seed) == (2, 3, 7)
        assert (report.output_edges, report.output_min_degree) == (8, 2)
        assert report.output_girth == 8
        assert report.family == ALL5
        # the winner's own fields, then the shared extras; never its method
        assert report.extras == {"degraded": True, "rounds_used": 5,
                                 "degraded_trials": 2}
        assert list(report.extras) == ["degraded", "rounds_used", "degraded_trials"]
        doc = json.loads(report.to_json())
        assert doc["method"] == "resample"
        assert doc["rounds_used"] == 5

    def test_fields_are_not_mutated(self):
        fields = {"method": "forest"}
        _pick([(path_graph(3), None, fields)])
        assert fields == {"method": "forest"}
