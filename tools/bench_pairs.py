"""Paired benchmark runs of two commits, kept as BENCH_<short-sha>.json.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W ...]
        --seed S --pairs N [--out DIR] [--work DIR]

Each commit is exported with ``git archive`` into a fresh directory of its
own (under ``--work``, which is created if missing; the exports are removed
at the end), and the benchmark there runs unchanged:
``python3 bench/run.py --workload W --seed S --seconds T --trace 0``,
where T is ``run_seconds`` from ``BENCHMARK.json``.  Pairs alternate
which commit runs first; one run goes at a time.  After the pairs, each
commit gets ``TRACED_RUNS`` ``--trace 1`` runs, again alternating, and
each per-layer metric is their median (absent if any run lacks it).

For each commit, ``DIR/BENCH_<short-sha>.json`` (DIR defaults to the
repository root, and is created before the first run if missing) holds
per workload: every run's end-to-end metrics with their median and
quartiles, the attempted and failed operation counts, a digest of every
operation's stdout and ``--out`` sha256, and the traced per-layer
medians with their runs.  An existing file keeps its other workloads.  The
summary printed at the end compares the two commits metric by metric:
medians, quartiles, the pairs the change won, whether the gain rule
holds (at least 10 pairs, the change wins at least 9 of every 10, and
the medians differ by more than the parent's interquartile distance),
and whether the change regressed (its median is worse than the parent's
by more than the metric's ``bound`` in ``BENCHMARK.json``, as a fraction
of the parent's median).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_RUNS = 3  # per commit; one traced run cannot show whether a layer moved


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(commit: str, tree: Path) -> Path:
    """The committed files of ``commit`` in the new directory ``tree``."""
    tree.mkdir()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit],
        cwd=ROOT,
        check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    return tree


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in ``tree``: its final JSON line plus an output digest."""
    argv = [
        sys.executable, "bench/run.py",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (tree / ".bench_work" / f"record-{workload}-{seed}-{trace}.json").read_text()
    )
    outputs = sorted(
        {
            (
                str(op.get("graph", "")),
                str(op.get("op", "")),
                str(op.get("seed", "")),
                str(op.get("stdout_sha256")),
                str(op.get("out_sha256")),
            )
            for op in record["ops"]
        }
    )
    result["output_digest"] = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    return result


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one metric's runs."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def layer_medians(traced: list[dict]) -> dict:
    """Each per-layer metric of the traced runs as the median of its values,
    which are kept under ``runs``; a metric absent (value None) in any run
    stays absent, as the first such run reports it."""
    medians = {}
    for name, first in traced[0]["metrics"].items():
        metrics = [t["metrics"][name] for t in traced]
        absent = [m for m in metrics if m["value"] is None]
        if absent:
            medians[name] = absent[0]
            continue
        values = [m["value"] for m in metrics]
        median = statistics.median(values)
        medians[name] = {"unit": first["unit"], "value": median, "runs": values}
    return medians


def summarize(runs: list[dict], traced: list[dict]) -> dict:
    names = list(runs[0]["metrics"])
    return {
        "runs": len(runs),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "output_digests": sorted({r["output_digest"] for r in runs}),
        "end_to_end": {
            name: {
                "unit": runs[0]["metrics"][name]["unit"],
                **spread([r["metrics"][name]["value"] for r in runs]),
            }
            for name in names
        },
        "per_layer": layer_medians(traced),
    }


def write_bench(out_dir: Path, short: str, sha: str, workload: str, entry: dict) -> Path:
    path = out_dir / f"BENCH_{short}.json"
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update(commit=sha, short=short)
    doc.setdefault("workloads", {})[workload] = entry
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def judge(p: dict, c: dict, better: str, bound: float) -> tuple[int, bool, bool]:
    """``(pairs won, gain, regression)`` for one metric, from the parent's
    and the change's :func:`spread`.

    The gain rule holds when there are at least 10 pairs, the change wins at
    least 9 of every 10 (ties count for neither side), and the medians
    differ by more than the parent's interquartile distance.  A regression
    is a change median worse than the parent median by more than ``bound``
    times the parent median.
    """
    sign = -1 if better == "lower" else 1
    pairs = list(zip(p["runs"], c["runs"]))
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    gain = (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]
    )
    regression = sign * (p["median"] - c["median"]) > bound * abs(p["median"])
    return wins, gain, regression


def compare(workload: str, parent: dict, change: dict, metrics: dict) -> None:
    """Print each end-to-end metric: medians, quartiles, pairs won, the gain
    rule and the no-regression verdict against the metric's ``bound`` in
    ``metrics`` (BENCHMARK.json's end-to-end entries by name)."""
    print(f"\n{workload}: parent -> change, median [q1, q3], pairs won by the change")
    same = parent["output_digests"] == change["output_digests"]
    print(f"  outputs identical: {same}; failed {parent['failed']} -> {change['failed']}")
    for name, p in parent["end_to_end"].items():
        c = change["end_to_end"][name]
        spec = metrics[name]
        wins, gain, regression = judge(p, c, spec["better"], spec["bound"])
        ratio = c["median"] / p["median"] if p["median"] else float("nan")
        print(
            f"  {name:18s} {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] -> "
            f"{c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] {p['unit']}"
            f"  x{ratio:.3f}  won {wins}/{len(p['runs'])}"
            f"  gain rule {'met' if gain else 'not met'}"
            f"  {'REGRESSION' if regression else 'no regression'}"
            f" (bound {spec['bound']:.0%})"
        )


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]  # the benchmark's run length, same for both
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", choices=workloads, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, default=ROOT)
    ap.add_argument(
        "--work", type=Path, help="where the two trees are exported (default: a temp dir)"
    )
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    shas = [
        git("rev-parse", "--verify", f"{c}^{{commit}}") for c in (args.parent, args.change)
    ]
    shorts = [git("rev-parse", "--short", s) for s in shas]
    setting = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": seconds,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    if args.work:
        args.work.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.work))
    try:
        trees = [export(s, work / side) for s, side in zip(shas, ("parent", "change"))]
        for workload in args.workload:
            runs: list[list[dict]] = [[], []]
            for i in range(args.pairs):
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    result = bench(trees[side], workload, args.seed, seconds, 0)
                    runs[side].append(result)
                    wall = result["metrics"]["wall_s"]["value"]
                    print(f"{workload} pair {i + 1} {shorts[side]} wall_s {wall:.3f}",
                          flush=True)
            traced: list[list[dict]] = [[], []]
            for i in range(TRACED_RUNS):
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    result = bench(trees[side], workload, args.seed, seconds, 1)
                    traced[side].append(result)
            entries = []
            for side in (0, 1):
                entry = summarize(runs[side], traced[side])
                entry.update(
                    setting,
                    command=(
                        f"python3 tools/bench_pairs.py {shorts[0]} {shorts[1]}"
                        f" --workload {workload} --seed {args.seed}"
                        f" --pairs {args.pairs}"
                    ),
                    recorded=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                )
                entries.append(entry)
                path = write_bench(args.out, shorts[side], shas[side], workload, entry)
                print(f"wrote {path}", flush=True)
            compare(workload, *entries, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
