#!/usr/bin/env python3
"""Measure the benchmark on several seeds and record the baseline.

Runs ``perfbench/run.py`` untraced once per seed 1-10 on every workload of
``BENCHMARK.json`` (seeds in the outer loop, so a slow spell of the machine
hits every workload alike), then one traced run per workload.  For each
end-to-end metric it prints the median, the quartiles and the spread, that
is (Q3 - Q1) / median with quartiles from ``statistics.quantiles(values,
n=4)``, next to the metric's bound from ``BENCHMARK.json``.  Everything,
with the machine it ran on, is written to ``perfbench/baseline.json``.

Usage (from the repository root):

    python3 perfbench/baseline.py

Exits 1 when a spread is not below a third of its metric's bound.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
OUT = HERE / "baseline.json"


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "elapsed_s": elapsed, "result": result,
            "report": proc.stdout.strip().splitlines()[:-1]}


def _machine() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def summarize(runs, end_to_end) -> dict:
    out = {}
    for metric in end_to_end:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "unit": metric["unit"], "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "bound": metric["bound"], "values": values}
    return out


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        config = json.load(fh)
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]

    untraced = {w: [] for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            run = _run(workload, seed, seconds, trace=0)
            untraced[workload].append(run)
            print(f"{workload} seed {seed}: {run['elapsed_s']:.1f} s "
                  + json.dumps(run["result"]), flush=True)
    traced = {}
    for workload in workloads:
        traced[workload] = _run(workload, SEEDS[0], seconds, trace=1)
        print(f"{workload} traced: {traced[workload]['elapsed_s']:.1f} s",
              flush=True)

    summary = {w: summarize(runs, config["end_to_end"])
               for w, runs in untraced.items()}
    steady = True
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            ok = s["spread"] < s["bound"] / 3
            steady &= ok
            print(f"{workload:15s} {name:12s} median {s['median']:.5g} "
                  f"{s['unit']} IQR [{s['q1']:.5g}, {s['q3']:.5g}] "
                  f"spread {s['spread']:.4f} bound {s['bound']}"
                  + ("" if ok else "  <-- above a third of the bound"))
    with open(OUT, "w") as fh:
        json.dump({"machine": _machine(), "run_seconds": seconds,
                   "seeds": list(SEEDS), "summary": summary,
                   "untraced": untraced, "traced": traced}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT.relative_to(ROOT)}; "
          + ("steady" if steady else "NOT steady"))
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
