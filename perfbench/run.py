"""Benchmark of jpegns: seeded workloads through the public API, every
output checked.

    python3 perfbench/run.py --workload iid128-embed --seed 9 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds ``src/jpegns``.  One run
starts ``PROCESSES`` worker processes one after another, each with a fresh
interpreter, so that set-up (``import jpegns`` and the first embedder) is
measured several times; the timed seconds are split among them.  Workers
run single-threaded: OpenBLAS is pinned to one thread and ``workers=1``.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` runs every call twice with the same key, untraced and traced, checks
that both outputs are bit-identical, and prints the per-layer metrics.
The last line of the output is one JSON object; the lines before it give
the environment and the metrics with their units.  See README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
PROCESSES = 3
# Key indices reserved per worker, so every timed call of a run has its own key.
CALLS_PER_PROCESS = 1 << 16
TIMEOUT_S = 170.0
# Times are reported at a fixed machine speed.  The shared machine the
# benchmark was built on drifts by up to 1.5x in speed within minutes, far
# beyond the bounds, and interpreted Python slows more than LAPACK does.
# A fixed two-part kernel (worker.SpeedReference) timed between calls
# drifts with it.  A run's slowdown is the geometric mean of the two parts'
# median times over their reference times, weighted by the workload's
# python_share, and the run's times are divided by it.  The reference
# times are the parts' medians on that machine (2 vCPUs, x86_64 with
# AVX-512, OpenBLAS 0.3.31 on one thread).
REFERENCE_LAPACK_S = 0.042
REFERENCE_PYTHON_S = 0.025


def run_worker(args, index, deadline):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"),
                                 os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), args.workload,
           str(args.seed), str(args.size), str(args.seconds / PROCESSES),
           str(args.trace), str(OUT_DIR), str(index * CALLS_PER_PROCESS)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {index} exited with {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples):
    """(percentile, value) of the highest whole percentile with at least ten
    samples beyond it, or None when no percentile above the median has."""
    n = len(samples)
    if n <= 20:
        return None
    pct = math.floor(100 * (1 - 10 / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, sorted(samples)[rank - 1]


def reduce_parts(parts, trace):
    """All metrics of one run from its workers' results.

    Returns the metrics, the scaled untraced call times and the slowdown
    (above 1 means a slow machine).  Per-layer busy times stay in raw wall
    seconds.
    """
    samples = [s for p in parts for s in p["reference_s"]]
    lapack = statistics.median(s[0] for s in samples) / REFERENCE_LAPACK_S
    python = statistics.median(s[1] for s in samples) / REFERENCE_PYTHON_S
    share = parts[0]["python_share"]
    slowdown = lapack ** (1 - share) * python**share

    def scaled(key):
        return [s / slowdown for p in parts for s in p[key]]

    untraced = scaled("untraced_s")
    metrics = {
        "call_s": statistics.median(untraced),
        "setup_s": statistics.median(p["setup_s"] for p in parts) / slowdown,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in parts),
    }
    if trace:
        traced = scaled("traced_s")
        totals = layertrace.merge_totals(p["totals"] for p in parts)
        metrics.update(layertrace.layer_metrics(totals, len(traced)))
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - metrics["call_s"])
    return metrics, untraced, slowdown


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=9)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=128,
                        help="image side in photo-sites, a multiple of 8")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jpegns" / "__init__.py").is_file():
        print(f"no jpegns sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.size < 16 or args.size % 8:
        parser.error("seed must be >= 0 and size a multiple of 8, >= 16")

    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + TIMEOUT_S
    try:
        parts = [run_worker(args, k, deadline) for k in range(PROCESSES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    metrics, untraced, slowdown = reduce_parts(parts, args.trace)
    section = spec["per_layer" if args.trace else "end_to_end"]
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced calls in {PROCESSES} processes")
    print("env " + json.dumps(parts[0]["env"], sort_keys=True))
    raw = statistics.median(s for p in parts for s in p["untraced_s"])
    print(f"slowdown {slowdown:.4g} against the speed reference; "
          f"raw median call {raw:.6g} s")
    absent = sorted({name for p in parts for name in p.get("absent", ())})
    if absent:
        print("absent layers (0 calls): " + ", ".join(absent))
    for p in parts:
        for problem in p["problems"]:
            print(f"failed check: {problem}")
    for m in section:
        print(f"{m['name']:36s} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"{'failed_ratio':36s} {failed / attempted:.6g} "
          f"({failed} of {attempted} calls)")
    pct = tail(untraced)
    print(f"{'call_s tail':36s} " + (
        f"p{pct[0]} {pct[1]:.6g} s of {len(untraced)} calls" if pct else
        f"none: no percentile has ten of {len(untraced)} calls beyond it"))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in section}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
