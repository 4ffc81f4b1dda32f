import random

from hypothesis import strategies as st

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
