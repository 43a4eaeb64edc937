#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and write a BENCH_*.json record.

Usage (from the repository root):

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR \\
        --workload three_soil_run:951 --workload replay_sweep:961 \\
        --workload field_survey:971 --out BENCH_three_soil_run.json

Each directory is a checkout with ``perfbench/`` and ``src/``.  For each
``name:first_seed`` workload, pair k of ``PAIRS`` (10) runs
``perfbench/run.py --trace 0 --seconds 24`` with seed ``first_seed + k``
in both checkouts, the parent first on even k and the change first on
odd k.  Then ``TRACED_RUNS`` (3) traced runs per side on the first seed
(``--trace 1 --seconds 1``), in the same alternating order, give the
stage times of the plant (``sim.simulate``), the map and the four log
writers: the inclusive time of each traced span of that stage, summed
over the traced set-up and pass.  The same runs give the tracer's plant
numbers (``sim.simulate_s`` per call, ``sim.us_per_step`` per 1 ms plant
step), filter numbers (``ukf.predict_ms``, ``ukf.update_ms``,
``ukf.adapt_q_ms`` and ``estimator.process_model_ms`` per call,
``estimator.step_p50_ms`` and ``estimator.step_p99_ms`` per 10 Hz sample)
and map numbers (``mapping.grid_cells`` allocated by the map builds,
``mapping.interpolate_ns_per_cell`` per swept cell).  The record holds
each side's runs, median and quartiles of every end-to-end metric, the
pairs the change won, the failed and attempted operations, every traced
run's stage times and tracer numbers with their medians, and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
PAIRS = 10  # alternating pairs per workload
TRACED_RUNS = 3  # traced runs per side, in the pairs' alternating order
# Span names of the plant and map stages and of the log writers, as the
# tracer names them.
TRACED_STAGES = ("sim.simulate", "cli.build_map", "mapping.interpolate",
                 "cli.write.map_state", "cli.write.map_layers",
                 "cli.read.map_state", "cli.write.telemetry",
                 "cli.write.truth", "cli.write.estimates",
                 "cli.write.timeseries")
TRACED_METRICS = ("sim.simulate_s", "sim.us_per_step",
                  "ukf.predict_ms", "ukf.update_ms", "ukf.adapt_q_ms",
                  "estimator.process_model_ms",
                  "estimator.step_p50_ms", "estimator.step_p99_ms",
                  "mapping.grid_cells", "mapping.interpolate_ns_per_cell")


def _run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    seconds = "1" if trace else "24"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _order(k: int) -> tuple[str, ...]:
    """The sides in the order run k runs them: the parent first on even k."""
    return SIDES if k % 2 == 0 else SIDES[::-1]


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _medians(runs: list[dict]) -> dict:
    """Each name of the first run, with its value in every run and their
    median."""
    return {name: {"median": statistics.median(r[name] for r in runs),
                   "runs": [r[name] for r in runs]} for name in runs[0]}


def _stage_seconds(checkout: Path, workload: str, seed: int) -> dict:
    with open(checkout / ".perfbench_out" / f"trace-{workload}-seed{seed}.json") as fh:
        spans = json.load(fh)["spans"]
    totals = {}
    for name, _, start, end, *_ in spans:
        if name in TRACED_STAGES:
            totals[name] = totals.get(name, 0.0) + (end - start) / 1e9
    return totals


def _machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": model or platform.processor(), "cores": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "system": platform.platform()}


def bench_workload(dirs: dict[str, Path], workload: str, first_seed: int) -> dict:
    runs = {side: [] for side in SIDES}
    for k in range(PAIRS):
        for side in _order(k):
            result = _run(dirs[side], workload, first_seed + k, trace=0)
            runs[side].append(result)
            print(f"{workload} seed {first_seed + k} {side}: "
                  + ", ".join(f"{n}={m['value']:.4g}"
                              for n, m in result["metrics"].items()),
                  flush=True)
    metrics = {}
    for name, first in runs["parent"][0]["metrics"].items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]]
                  for side in SIDES}
        metrics[name] = {
            "unit": first["unit"],
            **{side: _summary(values[side]) for side in SIDES},
            "change_wins": sum(c < p for p, c in zip(values["parent"],
                                                     values["change"])),
            "pairs": PAIRS,
        }
    record = {
        "seeds": [first_seed, first_seed + PAIRS - 1],
        "metrics": metrics,
        "failed_over_attempted": {
            side: [sum(r["failed"] for r in runs[side]),
                   sum(r["attempted"] for r in runs[side])] for side in SIDES},
        "traced_seed": first_seed,
    }
    stages = {side: [] for side in SIDES}
    counts = {side: [] for side in SIDES}
    for k in range(TRACED_RUNS):
        for side in _order(k):
            traced = _run(dirs[side], workload, first_seed, trace=1)
            stages[side].append(_stage_seconds(dirs[side], workload,
                                               first_seed))
            counts[side].append({name: traced["metrics"][name]["value"]
                                 for name in TRACED_METRICS})
    record["traced_stage_s"] = {side: _medians(stages[side]) for side in SIDES}
    record["traced_counts"] = {side: _medians(counts[side]) for side in SIDES}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True,
                        help="name:first_seed, repeatable")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {
        "command": "python3 perfbench/run.py --workload W --seed S "
                   "--seconds 24 --trace 0",
        "pairing": "pair k: seed first_seed + k, parent first on even k",
        "machine": _machine(),
        "workloads": {},
    }
    for spec in args.workload:
        name, first_seed = spec.split(":")
        record["workloads"][name] = bench_workload(dirs, name, int(first_seed))
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
