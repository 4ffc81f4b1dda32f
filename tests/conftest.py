import contextlib
import random
from unittest import mock

from hypothesis import strategies as st

from girthforge import graph as graph_mod
from girthforge import hosts as hosts_mod
from girthforge import report as report_mod
from girthforge.graph import Graph, pair_from_index

# pass/fail lines recorded by the acceptance tests, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


@st.composite
def small_graphs(draw, max_n=8, max_m=None):
    """Random simple graphs on up to ``max_n`` vertices."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    total = n * (n - 1) // 2
    cap = total if max_m is None else min(total, max_m)
    m = draw(st.integers(min_value=0, max_value=cap))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    chosen = rng.sample(range(total), m)
    return Graph.from_edges(n, [pair_from_index(n, idx) for idx in chosen])


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


def heawood():
    """The Heawood graph, the point-line incidence graph of PG(2,2): cubic,
    bipartite (even and odd vertices), girth 6, from its LCF notation
    [5, -5]^7."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Graph.from_edges(14, edges)


@st.composite
def bipartite_graphs(draw):
    """Random edge subsets of K_{a,b} (a, b <= 4) or of the Heawood graph,
    the whole Heawood graph among them.  Unlike :func:`small_graphs` these
    often hold cycles and no C4."""
    if draw(st.booleans()):
        a = draw(st.integers(min_value=1, max_value=4))
        b = draw(st.integers(min_value=1, max_value=4))
        base = Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    else:
        base = heawood()
    keep = draw(st.sampled_from([0.5, 0.75, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return Graph.from_edges(base.n, [e for e in base.edges if rng.random() < keep])


@contextlib.contextmanager
def each_graph_searched_once(extractor_mod):
    """Record, by object, the graphs passed to ``check_family_free``,
    ``family_girth`` and ``certify`` at every site that binds them (the
    verifier, the hosts, the extractor and the race in :mod:`report`), and
    fail as soon as one graph reaches the same step twice.

    Yields the step name -> graphs seen mapping.
    """
    seen = {name: [] for name in ("check_family_free", "family_girth", "certify")}

    def recorder(name):
        fn = getattr(graph_mod, name)

        def wrapped(graph, *args):
            assert not any(x is graph for x in seen[name]), f"{name} twice"
            seen[name].append(graph)
            return fn(graph, *args)

        return wrapped

    with contextlib.ExitStack() as stack:
        for name in seen:
            wrapped = recorder(name)
            for mod in (graph_mod, hosts_mod, report_mod, extractor_mod):
                if hasattr(mod, name):
                    stack.enter_context(mock.patch.object(mod, name, wrapped))
        yield seen
