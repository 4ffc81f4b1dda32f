"""The girthforge benchmark: three workloads, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (bench/README.md says why each was chosen):

  edges-sparse   ``girthforge extract edges --r 3 --trials 1`` in a fresh
                 process on a uniform random graph, n = 3000, m = 15000
  degree-sparse  ``girthforge extract degree --r 2 --trials 4
                 --max-rounds 64`` in a fresh process on the same kind of input
  library-warm   220 API calls on an 11-graph corpus in a long-lived
                 process, after a warm-up pass; three such worker
                 processes run one after another

Each workload times whole units of work (one CLI invocation, one pass of
220 calls), at least one and more while another fits in S seconds (for
library-warm, in each worker's third of S), and reports medians.  With
``--trace 0`` the last stdout line is one JSON object with every
end-to-end metric; with ``--trace 1`` it holds the per-layer metrics of a
traced unit and the tracing overhead (traced minus untraced wall time of
the same unit).  The record of the run (input digests, per-operation
results and stdout digests) goes to ``.bench_work/``.  Workloads run one
at a time, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time

import inputs
from checks import check_cli, read_edge_file
from common import BENCH, WORK, PackageMissing, load_package
from tracer import layer_metrics

DEADLINE_S = 170.0  # whole run, set-up and checks included
SETUP_BATCH = 5  # CLI set-up: the median of three batch means of 5 processes
LIBRARY_WORKERS = 3  # each sets up once, so set-up is timed 3 times

# name -> (kind, r, arguments before --seed/--in/--out)
CLI_WORKLOADS = {
    "edges-sparse": ("edges", 3, ["extract", "edges", "--r", "3", "--trials", "1"]),
    "degree-sparse": (
        "degree",
        2,
        ["extract", "degree", "--r", "2", "--trials", "4", "--max-rounds", "64"],
    ),
}
WORKLOADS = (*CLI_WORKLOADS, "library-warm")

# end-to-end metric -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "output_edges": ("edges", "higher"),
    "output_min_degree": ("degree", "higher"),
}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def spawn(argv, stdout_path, stderr_path, timeout):
    """Run ``python3 ARGV`` to its exit, killing it after ``timeout`` s.

    Returns (wall s from spawn to exit, exit code, peak RSS in MB of this
    child alone, from its own rusage).
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    argv = [sys.executable, *map(str, argv)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
    previous = signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024


def another_unit_fits(walls, seconds, deadline) -> bool:
    """Whole units are timed while one more (at the median so far) keeps
    the timed total within ``seconds`` and the run within its deadline."""
    typical = statistics.median(walls)
    return (
        sum(walls) + typical <= seconds and deadline.left() > 2 * max(walls) + 10
    )


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


# ---------------------------------------------------------------------------
# CLI workloads: one fresh process per operation
# ---------------------------------------------------------------------------


def run_cli(gf, name, seed, seconds, trace, deadline, record):
    kind, r, cli_args = CLI_WORKLOADS[name]
    text = inputs.sparse_text(seed)
    in_path = WORK / f"{name}-{seed}.edges"
    in_path.write_text(text)
    record["inputs"] = {in_path.name: inputs.digest(text)}
    input_edges = set(read_edge_file(text)[1])
    out_path = WORK / f"{name}-{seed}.out.edges"
    stdout_path, stderr_path = WORK / f"{name}.stdout", WORK / f"{name}.stderr"

    def invoke(spans_path=None):
        if out_path.exists():
            out_path.unlink()
        argv = [BENCH / "cli_child.py"]
        if spans_path is not None:
            argv += ["--spans", spans_path]
        argv += ["--", *cli_args, "--seed", seed, "--in", in_path, "--out", out_path]
        wall, code, rss = spawn(argv, stdout_path, stderr_path, deadline.left())
        stdout = stdout_path.read_text()
        out_text = out_path.read_text() if out_path.exists() else None
        problems, report = check_cli(
            gf,
            kind=kind,
            r=r,
            input_n=inputs.SPARSE_N,
            input_edges=input_edges,
            exit_code=code,
            stdout=stdout,
            out_text=out_text,
        )
        if code not in (0, 3):
            problems.append(stderr_path.read_text()[-2000:])
        op = {
            "traced": spans_path is not None,
            "wall_s": wall,
            "exit_code": code,
            "peak_rss_mb": rss,
            "stdout_sha256": inputs.digest(stdout),
            "out_sha256": inputs.digest(out_text) if out_text is not None else None,
            "problems": problems,
            "edges": report["output"]["edges"] if not problems else 0,
            "min_degree": report["output"]["min_degree"] if not problems else 0,
        }
        record["ops"].append(op)
        return op

    record["ops"] = []
    if trace:
        plain = invoke()
        spans_path = WORK / f"spans-{name}-{seed}.json"
        traced = invoke(spans_path)
        metrics = layer_metrics(json.loads(spans_path.read_text()))
        metrics["trace.overhead_s"] = {
            "value": traced["wall_s"] - plain["wall_s"],
            "unit": "s",
        }
        return metrics

    def setup_batch():
        """Mean start-up-and-import time of SETUP_BATCH fresh processes."""
        times = []
        for _ in range(SETUP_BATCH):
            wall, code, _ = spawn(
                [BENCH / "cli_child.py", "--import-only"],
                stdout_path,
                stderr_path,
                deadline.left(),
            )
            if code != 0:
                raise RuntimeError(
                    f"import girthforge.cli failed:\n{stderr_path.read_text()}"
                )
            times.append(wall)
        record["setup_s"].append(times)
        return statistics.fmean(times)

    # set-up batches go before the first invocation, after it and after the
    # last, so their median spans the run rather than one moment of it
    record["setup_s"] = []
    batches = [setup_batch()]
    ops = []
    while True:
        ops.append(invoke())
        if len(ops) == 1:
            batches.append(setup_batch())
        walls = [op["wall_s"] for op in ops]
        if not another_unit_fits(walls, seconds, deadline):
            break
    batches.append(setup_batch())
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(batches),
        "peak_rss_mb": max(op["peak_rss_mb"] for op in ops),
        "op_p50_ms": 1000 * statistics.median(walls),
        "op_p90_ms": 1000 * p90(walls),
        "output_edges": ops[0]["edges"],
        "output_min_degree": ops[0]["min_degree"],
    }


# ---------------------------------------------------------------------------
# library workload: one warm process
# ---------------------------------------------------------------------------


def run_library_child(seed, seconds, trace, index, deadline):
    result_path = WORK / f"library-{seed}-{index}.json"
    argv = [
        BENCH / "library_child.py",
        "--seed", seed,
        "--seconds", seconds,
        "--trace", trace,
        "--result", result_path,
    ]  # fmt: skip
    stdout_path, stderr_path = WORK / "library.stdout", WORK / "library.stderr"
    _, code, rss = spawn(argv, stdout_path, stderr_path, deadline.left())
    if code != 0:
        raise RuntimeError(
            f"library worker exited {code}:\n{stderr_path.read_text()[-4000:]}"
        )
    return json.loads(result_path.read_text()), rss


def run_library(seed, seconds, trace, deadline, record):
    """Untraced: LIBRARY_WORKERS fresh workers, one after another, each
    setting up and timing passes within an equal share of ``seconds``.
    Traced: one worker timing one untraced and one traced pass."""
    workers = 1 if trace else LIBRARY_WORKERS
    results, rss = [], []
    for index in range(workers):
        result, peak = run_library_child(seed, seconds / workers, trace, index, deadline)
        results.append(result)
        rss.append(peak)
    record["inputs"] = results[0]["inputs"]
    record["setup_s"] = [r["setup_s"] for r in results]
    record["passes"] = [p for r in results for p in r["passes"]]
    record["ops"] = [op for p in record["passes"] for op in p["ops"]]
    record["peak_rss_mb"] = rss
    if trace:
        result = results[0]
        record["traced_pass"] = result["traced_pass"]
        record["ops"] += result["traced_pass"]["ops"]
        record["trace"] = result["trace"]
        metrics = layer_metrics(result["trace"])
        metrics["trace.overhead_s"] = {
            "value": result["traced_pass"]["wall_s"] - result["passes"][0]["wall_s"],
            "unit": "s",
        }
        return metrics
    first = record["passes"][0]["ops"]
    latencies = [op["latency_s"] for op in record["ops"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in record["passes"]),
        "setup_s": statistics.median(record["setup_s"]),
        "peak_rss_mb": max(rss),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * p90(latencies),
        "output_edges": sum(op["edges"] for op in first),
        "output_min_degree": sum(
            op["min_degree"] for op in first if op["op"].startswith("degree")
        ),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = Deadline(DEADLINE_S)
    try:
        gf = load_package()
    except (PackageMissing, ImportError) as exc:
        print(f"error: cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.workload == "library-warm":
        values = run_library(args.seed, args.seconds, args.trace, deadline, record)
    else:
        values = run_cli(
            gf, args.workload, args.seed, args.seconds, args.trace, deadline, record
        )
    if args.trace:
        metrics = values
    else:
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
    attempted = len(record["ops"])
    failed = sum(1 for op in record["ops"] if op["problems"])
    record.update(metrics=metrics, attempted=attempted, failed=failed)
    record_path = WORK / f"record-{args.workload}-{args.seed}-{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    for name, digest in record["inputs"].items():
        print(f"input {name} sha256 {digest}")
    for op in record["ops"]:
        for problem in op["problems"]:
            print(f"FAILED {op.get('graph', args.workload)} {op.get('op', '')}: {problem}")
    for name, metric in metrics.items():
        better = END_TO_END.get(name, (None, None))[1]
        note = f" ({better} is better)" if better else ""
        if metric["value"] is None:
            note = f" absent: {metric['absent']}"
        print(f"metric {name} = {metric['value']} {metric['unit']}{note}")
    print(f"failed_ratio = {failed}/{attempted} = {failed / attempted:.4f}")
    print(f"record {record_path.relative_to(WORK.parent)}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
