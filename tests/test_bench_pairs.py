import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _spread(runs):
    return bench_pairs.spread(list(runs))


def _entry(runs):
    """A one-metric BENCH_*.json workload entry."""
    return {
        "output_digests": ["x"],
        "failed": [0],
        "end_to_end": {"wall_s": {"unit": "s", **_spread(runs)}},
    }


class TestJudge:
    @pytest.mark.parametrize(
        "parent, change, better, bound, regression",
        [
            ([10.0] * 10, [12.4] * 10, "lower", 0.25, False),  # 24 % slower
            ([10.0] * 10, [12.6] * 10, "lower", 0.25, True),  # 26 % slower
            ([100.0] * 10, [96.0] * 10, "higher", 0.05, False),  # 4 % fewer
            ([100.0] * 10, [94.0] * 10, "higher", 0.05, True),  # 6 % fewer
            ([10.0] * 10, [5.0] * 10, "lower", 0.25, False),  # faster
            ([100.0] * 10, [200.0] * 10, "higher", 0.05, False),  # more
        ],
    )
    def test_regression_against_bound(self, parent, change, better, bound, regression):
        got = bench_pairs.judge(_spread(parent), _spread(change), better, bound)
        assert got[2] is regression

    def test_regression_uses_medians(self):
        # one slow outlier in the change does not move its median
        parent = _spread([10.0] * 10)
        change = _spread([10.0] * 9 + [100.0])
        assert bench_pairs.judge(parent, change, "lower", 0.25)[2] is False

    def test_gain_rule_needs_ten_pairs(self):
        parent, change = [10.0 + i / 10 for i in range(9)], [5.0] * 9
        wins, gain, _ = bench_pairs.judge(_spread(parent), _spread(change), "lower", 0.25)
        assert (wins, gain) == (9, False)
        parent.append(10.5)
        change.append(5.0)
        wins, gain, _ = bench_pairs.judge(_spread(parent), _spread(change), "lower", 0.25)
        assert (wins, gain) == (10, True)

    def test_compare_prints_each_verdict(self, capsys):
        metrics = {"wall_s": {"name": "wall_s", "better": "lower", "bound": 0.25}}
        bench_pairs.compare("w", _entry([1.0] * 10), _entry([1.3] * 10), metrics)
        line = capsys.readouterr().out.splitlines()[-1]
        assert "gain rule not met" in line and "REGRESSION (bound 25%)" in line


def test_main_creates_a_missing_work_dir(tmp_path, monkeypatch):
    def fake_export(commit, tree):
        tree.mkdir()
        return tree

    def fake_bench(tree, workload, seed, seconds, trace):
        assert out.is_dir()  # made before the first run, not when writing
        return {
            "metrics": {"wall_s": {"unit": "s", "value": 1.0}},
            "attempted": 1,
            "failed": 0,
            "output_digest": "x",
        }

    monkeypatch.setattr(bench_pairs, "git", lambda *args: "0123abc")
    monkeypatch.setattr(bench_pairs, "export", fake_export)
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    work, out = tmp_path / "not" / "yet", tmp_path / "out" / "here"
    argv = ["A", "B", "--workload", "edges-sparse", "--seed", "1", "--pairs", "1",
            "--out", str(out), "--work", str(work)]  # fmt: skip
    assert bench_pairs.main(argv) == 0
    assert work.is_dir() and not any(work.iterdir())
    assert (out / "BENCH_0123abc.json").exists()


class TestLayerMedians:
    def test_median_of_each_metric(self):
        traced = [
            {"metrics": {"graph.girth_s": {"unit": "s", "value": v}}}
            for v in (0.5, 0.3, 0.4)
        ]
        got = bench_pairs.layer_medians(traced)
        expected = {"unit": "s", "value": 0.4, "runs": [0.5, 0.3, 0.4]}
        assert got == {"graph.girth_s": expected}

    def test_absent_in_any_run_stays_absent(self):
        gone = {"unit": "s", "value": None, "absent": "not traced"}
        parse = ({"unit": "s", "value": 0.1}, gone, gone)
        builds = ({"unit": "count", "value": b} for b in (2, 4, 3))
        traced = [
            {"metrics": {"graph.parse_s": p, "hosts.builds": b}}
            for p, b in zip(parse, builds)
        ]
        got = bench_pairs.layer_medians(traced)
        assert got["graph.parse_s"] == gone
        assert got["hosts.builds"]["value"] == 3


def test_main_takes_three_traced_runs_per_side(tmp_path, monkeypatch):
    calls = []

    def fake_export(commit, tree):
        tree.mkdir()
        return tree

    def fake_bench(tree, workload, seed, seconds, trace):
        calls.append((tree.name, trace))
        name = "graph.parse_s" if trace else "wall_s"
        return {
            "metrics": {name: {"unit": "s", "value": float(len(calls))}},
            "attempted": 1,
            "failed": 0,
            "output_digest": "x",
        }

    shas = iter(["aaa", "bbb", "aaa", "bbb"])
    monkeypatch.setattr(bench_pairs, "git", lambda *args: next(shas))
    monkeypatch.setattr(bench_pairs, "export", fake_export)
    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    argv = ["A", "B", "--workload", "edges-sparse", "--seed", "1", "--pairs", "2",
            "--out", str(tmp_path), "--work", str(tmp_path / "work")]  # fmt: skip
    assert bench_pairs.main(argv) == 0
    # pairs (parent first, then change first), then the traced runs, alternating
    assert calls == [
        ("parent", 0), ("change", 0), ("change", 0), ("parent", 0),
        ("parent", 1), ("change", 1), ("change", 1), ("parent", 1),
        ("parent", 1), ("change", 1),
    ]  # fmt: skip
    assert bench_pairs.TRACED_RUNS == 3
    layers = {
        side: json.loads((tmp_path / f"BENCH_{side}.json").read_text())["workloads"][
            "edges-sparse"
        ]["per_layer"]["graph.parse_s"]
        for side in ("aaa", "bbb")
    }
    assert layers["aaa"] == {"unit": "s", "value": 8.0, "runs": [5.0, 8.0, 9.0]}
    assert layers["bbb"] == {"unit": "s", "value": 7.0, "runs": [6.0, 7.0, 10.0]}
