"""Self-check of the benchmark's tracer and output checks on tiny inputs.

    python3 -m pytest -q bench/selfcheck.py

Kept out of the package's test run on purpose: it pins the list of traced
functions to the package as it is, so a change that renames one of them
fails here (and is reported absent by the benchmark) without failing the
package's own suite.
"""

from __future__ import annotations

import random
import sys

import pytest

import inputs
from checks import check_output, has_cycle_shorter_than
from common import load_package
from tracer import COUNTED, SPANS, Tracer, layer_metrics, self_times

gf = load_package()
import girthforge.cli  # noqa: E402,F401  (the tracer wraps cli.main too)


def _girthforge_modules():
    return [
        mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "girthforge" or name.startswith("girthforge."))
    ]


def _tiny_calls(tmp_path):
    """Calls that reach every traced function at least once."""
    star = gf.parse_edge_list(inputs.edge_list_text(11, [(0, i) for i in range(1, 11)]))
    sparse = gf.parse_edge_list(
        inputs.edge_list_text(30, inputs.uniform_edges(30, 60, random.Random(0)))
    )
    ex = gf.edge_extract.extract_even_cycle_free
    ex(star, 2, 1, 0)  # case 1: incidence host, trimmed
    ex(sparse, 3, 1, 0)  # case 2: greedy host
    ex(sparse, 2, 1, 0, odd_free=True)  # case 2: polarity host, partition
    gf.degree_extract.extract_spanning_high_girth(sparse, 2, 0, 1)
    path = tmp_path / "sparse.edges"
    path.write_text(gf.graph.format_edge_list(sparse))
    assert girthforge.cli.main(["verify", "--family", "all:3", "--in", str(path)]) in (0, 2)


def test_every_wrapper_attaches_at_every_import_site(tmp_path, capsys):
    tracer = Tracer()
    tracer.install()
    restore = list(tracer._restore)
    try:
        originals = [orig for _, _, orig in restore]
        for mod in _girthforge_modules():
            for attr, value in vars(mod).items():
                assert not any(value is o for o in originals), f"{mod.__name__}.{attr}"
        assert "girthforge.cli.check_family_free" in tracer.sites["graph.check_family_free"]
        assert "girthforge.degree_extract.h_prime" in tracer.sites["edge_extract.h_prime"]
        _tiny_calls(tmp_path)
    finally:
        tracer.uninstall()
    doc = tracer.dump()
    assert doc["missing"] == {} and doc["broken"] == {}
    assert set(SPANS) <= {span[0] for span in doc["spans"]}
    assert all(doc["counters"][c] > 0 for _, _, c in COUNTED.values())
    metrics = layer_metrics(doc)
    assert all(m["value"] is not None for m in metrics.values())
    assert metrics["hosts.builds"]["value"] >= 3
    for owner, key, orig in restore:  # uninstall restores every site
        assert vars(owner)[key] is orig


def test_self_time_excludes_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0]]
    assert self_times(spans) == {"a": (7.0, 1), "b": (2.0, 1), "c": (1.0, 1)}


def test_missing_function_is_absent_not_zero(monkeypatch):
    monkeypatch.delattr(gf.edge_extract, "star_fallback")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    metrics = layer_metrics(tracer.dump())
    assert metrics["edge_extract.fallback_s"]["value"] is None
    assert "star_fallback" in metrics["edge_extract.fallback_s"]["absent"]
    assert metrics["edge_extract.greedy_s"]["value"] == 0.0


@pytest.mark.parametrize(
    "edges, limit, expected",
    [
        ([(0, 1), (1, 2), (2, 3)], 10, False),
        ([(0, 1), (1, 2), (2, 3), (3, 0)], 5, True),
        ([(0, 1), (1, 2), (2, 3), (3, 0)], 4, False),
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 6)], 7, True),
    ],
)
def test_short_cycle_search(edges, limit, expected):
    assert has_cycle_shorter_than(7, edges, limit) is expected


def test_check_output_flags_bad_outputs():
    c4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
    report = {"certificate": {"family": "even:4"}, "output": {"edges": 4, "min_degree": 2}}
    common = dict(kind="edges", r=2, odd_free=False, input_n=4, report=report, out_n=4)
    assert check_output(gf, input_edges=set(c4), out_edges=c4, **common) == [
        "verifier rejects the output under even:4"
    ]
    problems = check_output(gf, input_edges=set(c4[:3]), out_edges=c4, **common)
    assert problems == ["output edge (0, 3) is not an input edge"]
    path = c4[:3]
    report["output"] = {"edges": 3, "min_degree": 1}
    assert check_output(gf, input_edges=set(c4), out_edges=path, **common) == []
    report["output"]["min_degree"] = 0
    assert len(check_output(gf, input_edges=set(c4), out_edges=path, **common)) == 1
