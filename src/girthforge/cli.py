"""Command-line front door.

Subcommands: ``host build``, ``extract edges``, ``extract degree``,
``verify``, ``oracle``, ``sweep``.  JSON reports go to standard output,
diagnostics to standard error.  Exit codes: 0 success with certificate
pass, 1 usage error, 2 certificate failure, 3 degraded output.

Per-trial seeds are derived as splitmix64(seed, trial index), so a single
``--seed`` pins the whole run; wall-clock fields stay null unless
``--timing`` is passed, keeping repeated runs byte-identical.  ``--seed``
defaults to 0 and nothing else (no environment variable) feeds the run.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import degree_extract, edge_extract, hosts, oracle
from .graph import (
    CertificationError,
    ForbiddenFamily,
    check_family_free,
    edge_list_lines,
    girth,
    girth_json,
    parse_edge_list,
)
from .report import SCHEMA_VERSION, dumps

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERT_FAIL = 2
EXIT_DEGRADED = 3

SWEEP_HEADER = "# girthforge-sweep-v1"
SWEEP_COLUMNS = (
    "x,n,m,method,r,trials,best_edges,best_min_degree,girth,certificate,"
    "seed,wall_ms"
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here reserves 2 for
    certificate failures, so remap usage problems to exit 1."""

    def error(self, message):
        raise ValueError(message)


def _load_graph(path: str):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    return parse_edge_list(text)


def _emit(doc: dict, out_path) -> None:
    text = dumps(doc)
    print(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")


def _write_edges(graph, path: str) -> None:
    with open(path, "w") as fh:
        fh.writelines(edge_list_lines(graph))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_host_build(args) -> int:
    if args.kind == "polarity":
        host = hosts.polarity_graph(args.q)
    elif args.kind == "incidence":
        host = hosts.incidence_graph_pg2(args.q)
    else:
        host = hosts.greedy_high_girth(args.n, args.girth, args.seed)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "label": host.label,
        "order": host.order,
        "edges": host.graph.m,
        "min_degree": host.min_degree,
        "girth": girth_json(host.certified_girth),
        "family": host.certified_family.describe() if host.certified_family else None,
        "degraded": False,
    }
    _emit(doc, None)
    if args.out:
        _write_edges(host.graph, args.out)
        with open(args.out + ".meta", "w") as fh:
            fh.write(host.metadata_block())
    return EXIT_OK


def _extract(g, args):
    """The extractor of ``args.mode`` on ``g``: "f" for f(m, F) (``extract
    edges``), "h" for h(delta, Delta, F) (``extract degree``).  With
    ``--timing`` the report's ``timing_ms`` is the extractor's wall time."""
    start = time.monotonic()
    if args.mode == "f":
        graph, report = edge_extract.extract_even_cycle_free(
            g, args.r, args.trials, args.seed, odd_free=args.odd_free
        )
    else:
        graph, report = degree_extract.extract_spanning_high_girth(
            g, args.r, args.seed, args.trials, max_rounds=args.max_rounds
        )
    if args.timing:
        report.timing_ms = int((time.monotonic() - start) * 1000)
    return graph, report


def _cmd_extract(args) -> int:
    graph, report = _extract(_load_graph(args.infile), args)
    _emit(report.to_dict(), None)
    if args.out:
        _write_edges(graph, args.out)
    return EXIT_DEGRADED if report.extras.get("degraded") else EXIT_OK


def _cmd_verify(args) -> int:
    g = _load_graph(args.infile)
    fam = ForbiddenFamily.parse(args.family)
    value = girth(g)
    # a girth above the bound leaves no cycle in the family to witness
    witness = None if value > fam.bound else check_family_free(g, fam).witness
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input": {"n": g.n, "m": g.m},
        "family": fam.describe(),
        "free": witness is None,
        "witness": list(witness.vertices) if witness else None,
        "girth": girth_json(value),
    }
    _emit(doc, args.out)
    return EXIT_OK if witness is None else EXIT_CERT_FAIL


def _cmd_oracle(args) -> int:
    g = _load_graph(args.infile)
    fam = ForbiddenFamily.parse(args.family)
    result = oracle.exact_ex(g, fam)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input": {"n": g.n, "m": g.m},
        "family": fam.describe(),
        "value": result.value,
        "witness": [list(e) for e in result.witness],
        "explored": result.explored,
    }
    _emit(doc, args.out)
    return EXIT_OK


def _sweep_graph(kind: str, n: int, seed: int):
    if kind == "complete":
        return hosts.complete(n)
    if kind == "star":
        return hosts.star(n)
    if kind == "complete_bipartite":
        return hosts.complete_bipartite(n, n)
    if kind == "clique_apex":
        return hosts.clique_apex(max(1, n // 8), n)
    if kind == "random_gnm":
        total = n * (n - 1) // 2
        return hosts.random_gnm(n, min(3 * n, total), seed)
    raise ValueError(f"unknown sweep input family {kind!r}")


def _parse_range(text: str) -> list[int]:
    try:
        a, b, s = (int(p) for p in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"range must be A:B:S, got {text!r}") from exc
    if s < 1 or b < a:
        raise ValueError(f"empty or descending range {text!r}")
    return list(range(a, b + 1, s))


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(y) on log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(lx)
    mx, my = sum(lx) / n, sum(ly) / n
    denom = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / denom


def _cmd_sweep(args) -> int:
    points = _parse_range(args.n)
    if len(points) < 4:
        raise ValueError("sweep needs at least 4 points for slope fitting")
    rows = []
    xs: list[float] = []
    ys: list[float] = []
    for i, n in enumerate(points):
        g = _sweep_graph(args.family_input, n, args.seed)
        _, report = _extract(g, args)
        if args.mode == "f":
            x, best = g.m, report.output_edges
        else:
            x, best = g.max_degree(), report.output_min_degree
        wall = "" if report.timing_ms is None else str(report.timing_ms)
        rows.append(
            f"{x},{g.n},{g.m},{report.method},{args.r},{args.trials},"
            f"{report.output_edges},{report.output_min_degree},"
            f"{girth_json(report.output_girth)},pass,{args.seed},{wall}"
        )
        if x > 0 and best > 0:
            xs.append(float(x))
            ys.append(float(best))
        print(f"point {i + 1}/{len(points)}: n={n} best={best}", file=sys.stderr)
    if len(xs) < 4:
        raise ValueError("too few nonzero points for slope fitting")
    if len(set(xs)) < 2:
        raise ValueError(
            f"every point has x = {xs[0]:g}; slope fitting needs two distinct x"
        )
    slope = _slope(xs, ys)
    lines = [SWEEP_HEADER, "# " + SWEEP_COLUMNS.replace(",", " "), SWEEP_COLUMNS]
    lines.extend(rows)
    lines.append(f"# slope={slope:.6f} points={len(xs)} mode={args.mode}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_run_options(p, max_rounds: bool) -> None:
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--timing", action="store_true")
    if max_rounds:
        p.add_argument(
            "--max-rounds", type=int, default=degree_extract.DEFAULT_MAX_ROUNDS
        )


def _add_check_options(p) -> None:
    p.add_argument("--in", dest="infile", required=True, metavar="PATH")
    p.add_argument("--family", required=True, metavar="even:2r|all:L")
    p.add_argument("--out", metavar="PATH")


def build_parser() -> _Parser:
    parser = _Parser(prog="girthforge")
    sub = parser.add_subparsers(dest="command", required=True)

    host = sub.add_parser("host")
    host_sub = host.add_subparsers(dest="host_command", required=True)
    hb = host_sub.add_parser("build")
    hb.add_argument("--kind", required=True, choices=("polarity", "incidence", "greedy"))
    hb.add_argument("--q", type=int, default=3)
    hb.add_argument("--n", type=int, default=50)
    hb.add_argument("--girth", type=int, default=5)
    hb.add_argument("--seed", type=int, default=0)
    hb.add_argument("--out", metavar="PATH")
    hb.set_defaults(func=_cmd_host_build)

    extract = sub.add_parser("extract")
    ex_sub = extract.add_subparsers(dest="extract_command", required=True)
    ee = ex_sub.add_parser("edges")
    ed = ex_sub.add_parser("degree")
    for p, mode in ((ee, "f"), (ed, "h")):
        p.add_argument("--in", dest="infile", required=True, metavar="PATH")
        _add_run_options(p, max_rounds=mode == "h")
        p.set_defaults(func=_cmd_extract, mode=mode)
    ee.add_argument("--odd-free", action="store_true")

    for name, func in (("verify", _cmd_verify), ("oracle", _cmd_oracle)):
        p = sub.add_parser(name)
        _add_check_options(p)
        p.set_defaults(func=func)

    sw = sub.add_parser("sweep")
    sw.add_argument("--mode", required=True, choices=("f", "h"))
    sw.add_argument("--family-input", default="complete")
    sw.add_argument("--n", required=True, metavar="A:B:S")
    _add_run_options(sw, max_rounds=True)
    sw.set_defaults(func=_cmd_sweep, odd_free=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # EdgeListParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificationError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return EXIT_CERT_FAIL


if __name__ == "__main__":
    sys.exit(main())
