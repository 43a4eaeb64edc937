"""The benchmark's own tests: every workload at a tiny size, untraced and traced.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("three_soil_run", "replay_sweep", "field_survey")


def _bench_config():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _run(workload, trace, root=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    _, result = _result(_run(workload, trace=0))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _bench_config()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


# Wrapped functions each workload must reach; a zero count means the
# wrapper sits on a name the pipeline does not look up.
REACHED = {
    "three_soil_run": {
        "TractionEstimator.step", "tractionmap.sim.simulate",
        "tractionmap.sim.slip", "tractionmap.sim.mu_curve",
        "tractionmap.estimator.slip", "tractionmap.cli.mu_curve",
        "tractionmap.estimator.process_model", "tractionmap.ukf.predict",
        "tractionmap.ukf.update", "tractionmap.ukf.adapt_q",
        "tractionmap.mapping.insert_auto",
        "tractionmap.mapping.grow_to_include",
        "tractionmap.mapping.interpolate", "tractionmap.cli.run",
        "tractionmap.cli.run_estimation", "tractionmap.cli.build_map",
        "tractionmap.cli.compute_metrics", "tractionmap.sim.load_scenario",
        "tractionmap.sim.write_telemetry_csv",
        "tractionmap.sim.write_truth_csv",
        "tractionmap.cli.write_estimates_csv",
        "tractionmap.cli.write_timeseries_csv",
        "tractionmap.mapping.export_layer_csv",
        "tractionmap.cli.save_map_state"},
    "replay_sweep": {
        "TractionEstimator.step", "tractionmap.sim.simulate",
        "tractionmap.cli.replay", "tractionmap.sim.read_telemetry_csv",
        "tractionmap.sim.read_truth_csv", "tractionmap.ukf.adapt_q"},
    "field_survey": {
        "tractionmap.cli.build_map", "tractionmap.mapping.insert_auto",
        "tractionmap.mapping.interpolate", "tractionmap.cli.save_map_state",
        "tractionmap.cli.load_map_state",
        "tractionmap.mapping.export_layer_csv"},
}


def test_traced_runs_reach_every_wrapper():
    per_layer = {m["name"] for m in _bench_config()["per_layer"]}
    seen = {}
    for workload in WORKLOADS:
        stdout, result = _result(_run(workload, trace=1))
        assert result["failed"] == 0
        assert set(result["metrics"]) == per_layer
        assert result["metrics"]["trace_overhead"]["value"] > 0
        calls = {}
        for line in stdout.splitlines():
            if line.startswith("wrapped "):
                name, count = line[len("wrapped "):].split(": ")
                calls[name] = int(count.split()[0])
        assert calls, stdout
        missing = {n for n in REACHED[workload] if calls.get(n, 0) == 0}
        assert not missing, f"{workload}: no calls through {sorted(missing)}"
        for name, count in calls.items():
            seen[name] = seen.get(name, 0) + count
    assert all(seen.values()), {n for n, c in seen.items() if c == 0}


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes())
    proc = _run("three_soil_run", trace=0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
