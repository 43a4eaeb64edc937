import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _canned_run(calls):
    """A stand-in for ``perfbench/run.py``: a traced run's tracer numbers
    and its ``sim.simulate`` span read 1, 2, 3, ... by call on each side,
    plus 100 on the change side; an untraced run reads its seed."""
    def run(checkout, workload, seed, trace):
        side = checkout.name
        calls.append((side, seed, trace))
        if not trace:
            return {"metrics": {"wall_s": {"value": float(seed), "unit": "s"}},
                    "failed": 0, "attempted": 1}
        value = sum(1 for c in calls if c[0] == side and c[2])
        value += 100.0 if side == "change" else 0.0
        out = checkout / ".perfbench_out"
        out.mkdir(exist_ok=True)
        spans = [["sim.simulate", 0, 0, int(value * 1e9)],
                 ["sim.simulate", 0, 0, int(value * 1e9)],
                 ["estimator.step", 0, 0, 5]]
        (out / f"trace-{workload}-seed{seed}.json").write_text(
            json.dumps({"spans": spans}))
        return {"metrics": {name: {"value": value, "unit": ""}
                            for name in bench_record.TRACED_METRICS}}
    return run


def test_traced_numbers_are_every_run_and_their_median(tmp_path, monkeypatch):
    dirs = {side: tmp_path / side for side in bench_record.SIDES}
    for path in dirs.values():
        path.mkdir()
    calls = []
    monkeypatch.setattr(bench_record, "_run", _canned_run(calls))
    record = bench_record.bench_workload(dirs, "three_soil_run", 7)

    traced = [(side, seed) for side, seed, trace in calls if trace]
    # three traced runs per side on the first seed, in alternating order
    assert traced == [("parent", 7), ("change", 7), ("change", 7),
                      ("parent", 7), ("parent", 7), ("change", 7)]
    assert record["traced_seed"] == 7
    for side, offset in (("parent", 0.0), ("change", 100.0)):
        runs = [1.0 + offset, 2.0 + offset, 3.0 + offset]
        counts = record["traced_counts"][side]
        assert list(counts) == list(bench_record.TRACED_METRICS)
        for name in bench_record.TRACED_METRICS:
            assert counts[name] == {"median": 2.0 + offset, "runs": runs}
        # spans of one stage add up within a run; other spans are left out
        assert record["traced_stage_s"][side] == {
            "sim.simulate": {"median": 2 * (2.0 + offset),
                             "runs": [2 * x for x in runs]}}
    wall = record["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == wall["change"]["runs"] == [
        float(7 + k) for k in range(bench_record.PAIRS)]
