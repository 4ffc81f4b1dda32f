"""One worker process of the ``library-warm`` workload.

    python3 bench/library_child.py --seed S --seconds T --trace 0|1 --result PATH

Set-up imports the package, parses the benchmark's own corpus text with
``parse_edge_list`` and runs a warm-up pass (one seed per graph and
operation) that fills the host caches.  The worker then times passes of
220 operations (11 graphs x 5 operations x 4 seeds), at least one and
more while another fits in T seconds, and checks every output after the
timing.  With ``--trace 1`` it times one untraced and then one traced
pass instead.  The result, with per-operation latencies, goes to PATH as
JSON.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import time
import traceback

import inputs
from checks import check_output
from common import load_package

SEEDS_PER_PAIR = 4

# name -> (kind, r, trials, odd_free)
OPERATIONS = {
    "edges-r2": ("edges", 2, 4, False),
    "edges-r3": ("edges", 3, 4, False),
    "edges-odd-r2": ("edges", 2, 2, True),
    "degree-r2": ("degree", 2, 2, False),
    "degree-r3": ("degree", 3, 2, False),
}


def call(gf, op, graph, seed):
    """Run one operation.  The extractors are looked up on their modules at
    every call, so wrappers the tracer installs there are the ones called."""
    kind, r, trials, odd_free = OPERATIONS[op]
    if kind == "edges":
        return gf.edge_extract.extract_even_cycle_free(
            graph, r, trials, seed, odd_free=odd_free
        )
    return gf.degree_extract.extract_spanning_high_girth(graph, r, seed, trials)


def run_pass(gf, corpus, schedule, tracer=None):
    """Run (graph index, operation, seed) triples; time each call only."""
    done = []
    for op_id, (gi, op, seed) in enumerate(schedule):
        if tracer is not None:
            tracer.op = op_id
        start = time.perf_counter()
        try:
            out = call(gf, op, corpus[gi][1], seed)
            error = None
        except Exception:  # a failing operation is counted, not fatal
            out, error = None, traceback.format_exc()
        done.append((gi, op, seed, time.perf_counter() - start, out, error))
    return done


def check_pass(gf, corpus, done):
    """Per-operation records with their check results (outside timing)."""
    records = []
    for gi, op, seed, latency, out, error in done:
        kind, r, _, odd_free = OPERATIONS[op]
        rec = {"graph": corpus[gi][0], "op": op, "seed": seed, "latency_s": latency}
        if error is not None:
            rec.update(problems=[error.strip().splitlines()[-1]], edges=0, min_degree=0)
            records.append(rec)
            continue
        graph, report = out
        text = report.to_json()
        g_in = corpus[gi][1]
        rec["stdout_sha256"] = inputs.digest(text)
        rec["problems"] = check_output(
            gf,
            kind=kind,
            r=r,
            odd_free=odd_free,
            input_n=g_in.n,
            input_edges=set(g_in.edges),
            report=json.loads(text),
            out_n=graph.n,
            out_edges=graph.edges,
        )
        rec["edges"], rec["min_degree"] = graph.m, graph.min_degree()
        records.append(rec)
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    texts = inputs.corpus_texts(args.seed)
    rng = random.Random(f"library-warm-ops:{args.seed}")
    pairs = [(gi, op) for gi in range(len(texts)) for op in OPERATIONS]
    warm = [(gi, op, rng.getrandbits(32)) for gi, op in pairs]
    timed = [
        (gi, op, rng.getrandbits(32)) for gi, op in pairs for _ in range(SEEDS_PER_PAIR)
    ]

    start = time.perf_counter()
    gf = load_package()
    corpus = [(name, gf.parse_edge_list(text)) for name, text in texts]
    warm_done = run_pass(gf, corpus, warm)
    setup_s = time.perf_counter() - start

    result = {
        "setup_s": setup_s,
        "inputs": {name: inputs.digest(text) for name, text in texts},
        "warmup_failures": sum(1 for d in warm_done if d[5] is not None),
    }
    passes = []
    while True:
        t0 = time.perf_counter()
        done = run_pass(gf, corpus, timed)
        passes.append((time.perf_counter() - t0, done))
        walls = [p[0] for p in passes]
        if args.trace or sum(walls) + statistics.median(walls) > args.seconds:
            break
    result["passes"] = [
        {"wall_s": wall, "ops": check_pass(gf, corpus, done)} for wall, done in passes
    ]
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        t0 = time.perf_counter()
        done = run_pass(gf, corpus, timed, tracer)
        wall = time.perf_counter() - t0
        tracer.uninstall()
        result["traced_pass"] = {"wall_s": wall, "ops": check_pass(gf, corpus, done)}
        result["trace"] = tracer.dump()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
