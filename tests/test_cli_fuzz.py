"""Every CLI subcommand driven by hypothesis on small random inputs.

Whatever the input, a command exits 0-3.  Exit 1 prints an ``error:``
line on standard error.  Every other exit prints one JSON document (the
CSV for ``sweep``) with no ``Infinity`` or ``NaN`` in it, and an
``--out`` edge file of ``extract`` is a subgraph of the input.  The edge
list parser raises nothing but :class:`EdgeListParseError` on any text.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from girthforge.cli import SWEEP_HEADER, main
from girthforge.graph import (
    MAX_VERTEX_ID,
    EdgeListParseError,
    ForbiddenFamily,
    check_family_free,
    format_edge_list,
    girth,
    girth_json,
    parse_edge_list,
)
from conftest import small_graphs

FUZZ = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

GRAPHS = small_graphs(max_n=9, max_m=20)

# valid families and a few malformed ones, which must exit 1
FAMILIES = st.sampled_from(
    ["even:4", "even:6", "even:8", "all:3", "all:4", "all:5", "all:7",
     "even:5", "all:2", "odd:3"]
)


def _no_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def _run(argv, graph=None):
    """Run the CLI on ``graph``; return (exit code, stdout, --out text)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if graph is not None:
            (tmp / "in.edges").write_text(format_edge_list(graph))
            argv = argv + ["--in", str(tmp / "in.edges")]
        out_path = tmp / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out_path)])
        out = out_path.read_text() if out_path.exists() else None
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert any(line.startswith("error: ") for line in stderr.getvalue().splitlines())
    return code, stdout.getvalue(), out


def _check_json(argv, graph=None):
    """Run a JSON command; return (exit code, document or None, --out text)."""
    code, stdout, out = _run(argv, graph)
    doc = None
    if code != 1:
        doc = json.loads(stdout, parse_constant=_no_constant)
        assert doc["schema_version"] == 1
    return code, doc, out


@FUZZ
@given(GRAPHS, FAMILIES)
def test_verify(g, family):
    code, doc, out = _check_json(["verify", "--family", family], g)
    if code != 1:
        assert code == (0 if doc["free"] else 2) and json.loads(out) == doc
        assert doc["free"] == check_family_free(g, ForbiddenFamily.parse(family)).free
        assert doc["girth"] == girth_json(girth(g))


@FUZZ
@given(GRAPHS, FAMILIES)
def test_oracle(g, family):
    code, doc, out = _check_json(["oracle", "--family", family], g)
    if code != 1:
        assert code == 0 and json.loads(out) == doc


@FUZZ
@given(
    GRAPHS,
    st.sampled_from(["edges", "edges --odd-free", "degree"]),
    st.sampled_from([2, 3, 2, 3, 1]),  # r = 1 is a usage error
    st.integers(min_value=0, max_value=2**32),
)
def test_extract(g, command, r, seed):
    argv = ["extract", *command.split(), "--r", str(r), "--trials", "1",
            "--seed", str(seed)]
    if command == "degree":
        argv += ["--max-rounds", "4"]
    code, doc, out = _check_json(argv, g)
    if code != 1:
        kept = parse_edge_list(out)
        assert set(kept.edges) <= set(g.edges) and kept.m == doc["output"]["edges"]


@FUZZ
@given(
    st.sampled_from(["polarity", "incidence", "greedy"]),
    st.sampled_from(range(13)),
    st.sampled_from(range(13)),
    st.sampled_from(range(10)),
    st.integers(min_value=0, max_value=2**32),
)
def test_host_build(kind, q, n, girth, seed):
    argv = ["host", "build", "--kind", kind, "--q", str(q), "--n", str(n),
            "--girth", str(girth), "--seed", str(seed)]
    code, doc, out = _check_json(argv)
    if code != 1:
        assert parse_edge_list(out).m == doc["edges"]


@FUZZ
@given(
    st.sampled_from(["f", "h"]),
    st.sampled_from(
        ["complete", "star", "complete_bipartite", "clique_apex", "random_gnm"]
    ),
    st.sampled_from(range(15)),
    st.sampled_from(range(7)),
    st.sampled_from([1, 1, 2]),
    st.integers(min_value=0, max_value=2**32),
)
# all four random_gnm inputs have maximum degree 9: one x value, no slope
@example("h", "random_gnm", 18, 3, 1, 0)
def test_sweep(mode, family, start, span, step, seed):
    argv = ["sweep", "--mode", mode, "--family-input", family,
            "--n", f"{start}:{start + span}:{step}", "--trials", "1",
            "--max-rounds", "4", "--seed", str(seed)]
    code, stdout, out = _run(argv)
    if code != 1:
        assert code == 0 and out == stdout
        lines = stdout.splitlines()
        assert lines[0] == SWEEP_HEADER
        fields = set(re.split(r"[,\s=]", stdout))
        assert not fields & {"inf", "-inf", "nan", "Infinity", "-Infinity", "NaN"}
        slope = lines[-1].split()[1]
        assert slope.startswith("slope=") and math.isfinite(float(slope[6:]))


# edge-list lines built from tokens that reach every branch of the parser;
# MAX_VERTEX_ID itself is left out, as it would allocate 2**22 rows
TOKENS = st.one_of(
    st.integers(min_value=-3, max_value=12).map(str),
    st.sampled_from([str(MAX_VERTEX_ID + 1), "10" * 20, "9" * 4301, "#", "1.5", "0x3", "٣"]),
    st.text(max_size=3),
)
LINES = st.lists(st.lists(TOKENS, max_size=3).map(" ".join), max_size=8).map("\n".join)


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.text(), LINES))
@example("0 " + "9" * 4301)  # past int()'s 4300-digit limit
def test_parser_raises_only_parse_errors(text):
    try:
        g = parse_edge_list(text)
    except EdgeListParseError:
        return
    assert all(0 <= u < v < g.n for u, v in g.edges)
