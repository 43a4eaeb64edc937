#!/usr/bin/env python3
"""tractionmap benchmark: one workload per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload three_soil_run --seed 1 \\
        --seconds 24 --trace 0

With ``--trace 0`` the workload is set up several times (the median set-up
time is reported), then passes run while another one is expected to end
within ``--seconds``, at least three of them.  The end-to-end metrics are
the median pass time (the time inside the pass's pipeline calls; digests
and output checks are not timed), the median set-up time and the peak
resident memory of this process.

With ``--trace 1`` the workload is set up once and the same untraced passes
run first; then the pipeline's layer boundaries are wrapped (see
``tracer.py``), the workload is set up once more and one traced pass runs.  The per-layer metrics come
from that traced set-up and pass; ``trace_overhead`` is the traced pass
time over the median untraced pass time.  Spans are written to
``.perfbench_out/`` when the run ends.

Every pass checks its outputs: the paper's tolerances on the nominal
stream, byte-identical outputs between passes, and the map checks of
``field_survey``.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit code 0 on a completed run, 2 when the
program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The workloads are single-threaded; pin BLAS before numpy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3


def _import_seconds() -> float:
    """Wall time of a fresh interpreter importing the pipeline."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tractionmap.cli"],
                   cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def _timed_setup(workload) -> float:
    t0 = time.perf_counter()
    workload.setup()
    return _import_seconds() + time.perf_counter() - t0


def _run_passes(workload, seconds: float):
    """Passes while another one is expected to end within ``seconds``; at
    least MIN_PASSES.  Returns the pipeline time of each pass and the
    results."""
    results = []
    start = time.perf_counter()
    while len(results) < MIN_PASSES or (
            (elapsed := time.perf_counter() - start)
            + elapsed / len(results) <= seconds):
        results.append(workload.run_pass())
    return [r.seconds for r in results], results


def _tally(results, reference_digests) -> tuple[int, int, list[str]]:
    """Attempted and failed ops; a pass whose outputs differ from the first
    pass's gets one more failed op."""
    attempted = failed = 0
    messages = []
    for index, result in enumerate(results):
        attempted += result.attempted
        failed_ops = set(result.failed_ops)
        messages += result.messages
        if result.digests != reference_digests:
            changed = sorted(k for k in set(result.digests) | set(reference_digests)
                             if result.digests.get(k) != reference_digests.get(k))
            failed_ops.add("byte-identical outputs")
            messages.append(f"pass {index + 1}: outputs differ from pass 1: "
                            f"{', '.join(changed)}")
        failed += min(len(failed_ops), result.attempted)
    return attempted, failed, messages


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("three_soil_run", "replay_sweep",
                                 "field_survey"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for the benchmark's "
                             "own tests")
    args = parser.parse_args(argv)

    if not (SRC / "tractionmap").is_dir():
        print(f"no tractionmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    from workloads import WORKLOADS

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](ROOT, work, args.seed, args.size)
        repeats = 1 if args.trace else workload.setup_repeats
        setup_times = [_timed_setup(workload) for _ in range(repeats)]
        walls, results = _run_passes(workload, args.seconds)
        reference = results[0].digests

        if args.trace:
            tracer = tracing.Tracer()
            tracing.install_pipeline(tracer)
            try:
                workload.setup()
                results.append(workload.run_pass())
            finally:
                tracer.uninstall()
            wrapped = tracer.wrapped_calls()
            metrics = tracing.per_layer_metrics(
                tracer, workload.plant_steps, workload.samples)
            metrics["trace_overhead"] = (
                results[-1].seconds / statistics.median(walls), "1")
            trace_path = (ROOT / ".perfbench_out"
                          / f"trace-{args.workload}-seed{args.seed}.json")
            tracer.dump(trace_path)
        else:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"wall_s": (statistics.median(walls), "s"),
                       "setup_s": (statistics.median(setup_times), "s"),
                       "peak_rss_mb": (peak_rss_mb, "MB")}
        attempted, failed, messages = _tally(results, reference)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in messages:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} size {args.size}: "
          f"{len(walls)} passes, pass times "
          + " ".join(_fmt(w) for w in walls) + " s; set-up times "
          + " ".join(_fmt(s) for s in setup_times) + " s")
    quality = {}
    for result in results:
        for name, value in result.quality.items():
            quality.setdefault(name, []).append(value)
    for name, values in quality.items():
        print(f"{name} = {_fmt(statistics.median(v for v, _ in values))} "
              f"{values[0][1]} (median of {len(values)} passes)")
    steps = sorted(lat for r in results[:len(walls)] for lat in r.step_latencies_ms)
    if steps:
        print(f"step_p50_ms = {_fmt(tracing.percentile(steps, 50))} ms, "
              f"step_p99_ms = {_fmt(tracing.percentile(steps, 99))} ms "
              f"({len(steps)} TractionEstimator.step calls; deadline 100 ms)")
    if args.trace:
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        for key, calls in sorted(wrapped.items()):
            print(f"wrapped {key}: {calls} calls")
    print(f"ops_failed / ops_attempted = {failed} / {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {_fmt(value)} {unit}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
