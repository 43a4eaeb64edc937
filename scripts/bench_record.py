#!/usr/bin/env python3
"""Benchmark two checkouts in alternating pairs and write a BENCH_*.json record.

Usage (from the repository root):

    python3 scripts/bench_record.py PARENT_DIR CHANGE_DIR \\
        --workload field_survey:801 --workload three_soil_run:811 \\
        --out BENCH_field_survey.json

Each directory is a checkout with ``perfbench/`` and ``src/``.  For each
``name:first_seed`` workload, pair k of ``PAIRS`` (10) runs
``perfbench/run.py --trace 0 --seconds 24`` with seed ``first_seed + k``
in both checkouts, the parent first on even k and the change first on
odd k.  Then one traced run per side on the first seed (``--trace 1
--seconds 1``) gives the map-stage times: the inclusive time of each
traced span of that stage, summed over the traced set-up and pass.  The record holds each side's runs, median and
quartiles of every end-to-end metric, the pairs the change won, the failed
and attempted operations, the traced stage times and the machine.
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
# Span names of the map stages, as the tracer names them.
MAP_STAGES = ("cli.build_map", "mapping.interpolate", "cli.write.map_state",
              "cli.write.map_layers", "cli.read.map_state")
TRACED_METRICS = ("mapping.insert.calls", "mapping.insert_us",
                  "mapping.grow.count", "mapping.grow.cells_copied")


def _run(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    seconds = "1" if trace else "24"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _stage_seconds(checkout: Path, workload: str, seed: int) -> dict:
    with open(checkout / ".perfbench_out" / f"trace-{workload}-seed{seed}.json") as fh:
        spans = json.load(fh)["spans"]
    totals = {}
    for name, _, start, end, *_ in spans:
        if name in MAP_STAGES:
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
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for side in order:
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
        "traced_stage_s": {},
        "traced_counts": {},
    }
    for side in SIDES:
        traced = _run(dirs[side], workload, first_seed, trace=1)
        record["traced_stage_s"][side] = _stage_seconds(dirs[side], workload,
                                                        first_seed)
        record["traced_counts"][side] = {
            name: traced["metrics"][name]["value"] for name in TRACED_METRICS}
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
