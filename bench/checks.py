"""Output checks, run outside every timed region.

An operation fails when its output is not a spanning edge subset of its
input, when the package's verifier rejects it under the reported family
(or the report names a weaker family than the one asked for), when a
degree output has girth below 2r+2 by the benchmark's own search, or when
the report's ``output.edges`` / ``output.min_degree`` disagree with the
output itself.  CLI operations are also checked for their exit code and
for stdout being JSON (``check_cli``).
"""

from __future__ import annotations

import json
import re
from collections import deque

_HEADER_N = re.compile(r"\bn=(\d+)")


def expected_family(kind: str, r: int, odd_free: bool = False) -> str:
    if kind == "degree" or odd_free:
        return f"all:{2 * r + 1}"
    return f"even:{2 * r}"


def read_edge_file(text: str) -> tuple[int | None, list[tuple[int, int]]]:
    """Vertex count from the header comment (None without one) and the edges."""
    n = None
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            match = _HEADER_N.search(line)
            if n is None and match:
                n = int(match.group(1))
            continue
        u, v = line.split()
        edges.append((int(u), int(v)))
    return n, edges


def has_cycle_shorter_than(n: int, edges, limit: int) -> bool:
    """True when the graph has a cycle of length < ``limit``.

    A forest is settled by union-find; otherwise BFS from every vertex,
    expanding depths below limit // 2, reports the shortest detection,
    which equals the girth when the root lies on a shortest cycle.
    """
    comp = list(range(n))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            break
        comp[ru] = rv
    else:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    cap = limit // 2
    for root in range(n):
        depth = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            dx = depth[x]
            if dx >= cap:
                break
            for y in adj[x]:
                dy = depth.get(y)
                if dy is None:
                    depth[y] = dx + 1
                    parent[y] = x
                    queue.append(y)
                elif y != parent[x] and dx + dy + 1 < limit:
                    return True
    return False


def check_output(
    gf, *, kind, r, odd_free, input_n, input_edges, report, out_n, out_edges
) -> list[str]:
    """Problems with one operation's output; an empty list means it passed.

    ``gf`` is the imported package, whose verifier is applied; ``report``
    is the parsed JSON report; ``input_edges`` is a set of (u, v), u < v.
    """
    problems = []
    try:
        if out_n != input_n:
            problems.append(f"output has {out_n} vertices, input {input_n}")
        kept = set()
        for u, v in out_edges:
            e = (u, v) if u < v else (v, u)
            if e not in input_edges:
                problems.append(f"output edge {e} is not an input edge")
                break
            if e in kept:
                problems.append(f"output edge {e} repeats")
                break
            kept.add(e)
        want = expected_family(kind, r, odd_free)
        fam_text = report["certificate"]["family"]
        if fam_text != want:
            problems.append(f"report certifies {fam_text}, asked for {want}")
        if problems:
            return problems
        graph = gf.Graph.from_edges(out_n, sorted(kept))
        if not gf.check_family_free(graph, gf.ForbiddenFamily.parse(fam_text)).free:
            problems.append(f"verifier rejects the output under {fam_text}")
        if kind == "degree" and has_cycle_shorter_than(out_n, kept, 2 * r + 2):
            problems.append(f"output girth is below {2 * r + 2}")
        degrees = [0] * out_n
        for u, v in kept:
            degrees[u] += 1
            degrees[v] += 1
        if report["output"]["edges"] != len(kept):
            problems.append(
                f"report says {report['output']['edges']} edges, output has {len(kept)}"
            )
        if report["output"]["min_degree"] != min(degrees, default=0):
            problems.append(
                f"report says min degree {report['output']['min_degree']}, "
                f"output has {min(degrees, default=0)}"
            )
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report or output: {exc!r}")
    return problems


def check_cli(gf, *, kind, r, input_n, input_edges, exit_code, stdout, out_text):
    """Problems with one CLI invocation, and its parsed report (or None)."""
    if exit_code not in (0, 3):
        return [f"exit code {exit_code}"], None
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"], None
    if out_text is None:
        return ["no --out file"], report
    try:
        out_n, out_edges = read_edge_file(out_text)
    except ValueError as exc:
        return [f"unreadable --out file: {exc}"], report
    problems = check_output(
        gf,
        kind=kind,
        r=r,
        odd_free=False,
        input_n=input_n,
        input_edges=input_edges,
        report=report,
        out_n=out_n,
        out_edges=out_edges,
    )
    return problems, report
