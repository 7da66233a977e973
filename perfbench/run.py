"""hfring benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload ring_axioms --seed 1 --seconds 40 --trace 0

Run from anywhere; the hfring sources are read from ``src/`` beside this
directory.  The run builds the workload's inputs from the seed, then makes
passes over them for about ``--seconds`` seconds in one thread.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics.  The
second-to-last stdout line stamps the run (git SHA, Python, nproc, seed);
the last line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_RUNS = 5
MIN_LATENCIES = 100
# builds one workload's inputs in a fresh interpreter; argv: src, here, name, seed, workdir
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), sys.argv[5])"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.startswith("formats.bytes_"):
        return "bytes"
    return "frac"


def setup_seconds(name: str, seed: int, workdir: str) -> float:
    """Median wall time of SETUP_RUNS fresh interpreters that import hfring
    and build the workload's inputs."""
    times = []
    for i in range(SETUP_RUNS):
        probe_dir = os.path.join(workdir, f"setup{i}")
        os.mkdir(probe_dir)
        argv = [sys.executable, "-c", SETUP_PROBE, SRC, HERE, name, str(seed), probe_dir]
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload, tally, seconds: float, tracer=None):
    """Passes for about `seconds`: (untraced pass times, ok operations per
    untraced pass, traced pass times).  With a tracer, passes alternate
    untraced and traced, starting untraced."""
    untraced, ok_ops, traced = [], [], []
    start = time.perf_counter()
    while True:
        with_trace = tracer is not None and len(traced) < len(untraced)
        ok_before = tally.attempted - tally.failed
        if with_trace:
            tracer.install()
        begin = time.perf_counter()
        try:
            workload.run_pass(tally)
        finally:
            took = time.perf_counter() - begin
            if with_trace:
                tracer.remove()
        if with_trace:
            traced.append(took)
        else:
            untraced.append(took)
            ok_ops.append(tally.attempted - tally.failed - ok_before)
        if tracer is None:
            # a p90 needs at least ten samples above it
            enough = len(tally.latencies_ns) >= MIN_LATENCIES
        else:
            enough = bool(traced)
        elapsed = time.perf_counter() - start
        if enough and elapsed + took > seconds:
            return untraced, ok_ops, traced


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("ring_axioms", "order_limit", "cli_io"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hfring", "__init__.py")):
        sys.stderr.write(f"error: no hfring sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from tracer import Tracer

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        tally = workloads.Tally()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        if args.trace:
            tracer = Tracer()
            untraced, _, traced = measure(workload, tally, args.seconds, tracer)
            metrics = tracer.metrics(len(traced))
            metrics["trace_overhead_frac"] = (
                statistics.median(traced) / statistics.median(untraced) - 1
            )
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            setup_s = setup_seconds(args.workload, args.seed, workdir)
            untraced, ok_ops, traced = measure(workload, tally, args.seconds)
            deciles = statistics.quantiles(tally.latencies_ns, n=10)
            metrics = {
                "setup_s": setup_s,
                "run_s": statistics.median(untraced),
                "ops_per_s": statistics.median(n / t for n, t in zip(ok_ops, untraced)),
                "op_p50_ms": statistics.median(tally.latencies_ns) / 1e6,
                "op_p90_ms": deciles[8] / 1e6,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1 - tally.failed / tally.attempted,
            }
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(untraced) + len(traced),
        "latency_samples": len(tally.latencies_ns),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
