"""Outside-in tracing of the tractionmap pipeline for the benchmark's traced run.

Timing wrappers are installed on the module attributes the pipeline looks
up at call time.  A name brought in with ``from x import f`` is a separate
attribute of the importing module, so it is patched there (``sim.slip``,
``estimator.process_model``, ...); the wrapper name says which layer the
time belongs to, not which module holds the attribute.

Two kinds of wrapper:

* span wrappers record one span per call (name, parent, start, end, plus
  the number of wrapped calls nested inside) and keep it in memory;
* hot wrappers, for kernels called millions of times per run, only add to
  a call count and a total time.

The cost each wrapper adds is measured on a no-op function when the tracer
is created and taken out of every reported time.
"""

from __future__ import annotations

import json
import os
import statistics
import time
import weakref
from collections import defaultdict

CLOCK = time.perf_counter_ns


def _noop(*args):
    return None


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list (q in [0, 100])."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class Tracer:
    """Installs wrappers, keeps spans and counters, computes layer numbers."""

    def __init__(self):
        # Span tuples: (name, parent index or -1, start ns, end ns,
        #               nested span count, nested hot calls, nested hot ns).
        self.spans: list[tuple] = []
        self.hot: dict[str, list[int]] = {}   # name -> [calls, total ns]
        self.counters: dict[str, float] = defaultdict(float)
        self.clamps_seen = weakref.WeakKeyDictionary()
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self.calibration = self._calibrate()

    # -- wrappers ---------------------------------------------------------

    def _hot_totals(self) -> tuple[int, int]:
        calls = ns = 0
        for cell in self.hot.values():
            calls += cell[0]
            ns += cell[1]
        return calls, ns

    def _make_hot(self, fn, name):
        cell = self.hot.setdefault(name, [0, 0])
        clock = CLOCK

        def wrapper(*args):
            t0 = clock()
            result = fn(*args)
            cell[1] += clock() - t0
            cell[0] += 1
            return result

        return wrapper

    def _make_span(self, fn, name, post=None):
        spans = self.spans
        stack = self._stack
        hot_totals = self._hot_totals
        clock = CLOCK

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            hot_calls, hot_ns = hot_totals()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                hot_calls_end, hot_ns_end = hot_totals()
                spans[index] = (name, parent, t0, t1, len(spans) - index - 1,
                                hot_calls_end - hot_calls, hot_ns_end - hot_ns)
            if post is not None:
                post(self, args, result)
            return result

        return wrapper

    def install(self, owner, attr, name, hot=False, post=None):
        """Replace ``owner.attr`` by a timing wrapper named ``name``."""
        original = getattr(owner, attr)
        if hot:
            wrapper = self._make_hot(original, name)
        else:
            wrapper = self._make_span(original, name, post)
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, original, name, hot))

    def uninstall(self) -> None:
        for owner, attr, original, _, _ in reversed(self._installed):
            setattr(owner, attr, original)

    def wrapped_calls(self) -> dict[str, int]:
        """Call count of every installed wrapper, keyed by owner.attr."""
        span_calls = defaultdict(int)
        for span in self.spans:
            if span is not None:
                span_calls[span[0]] += 1
        out = {}
        for owner, attr, _, name, hot in self._installed:
            key = f"{getattr(owner, '__name__', owner)}.{attr}"
            out[key] = self.hot[name][0] if hot else span_calls[name]
        return out

    # -- calibration ------------------------------------------------------

    def _calibrate(self, n_hot=200_000, n_span=20_000, repeats=5) -> dict:
        """Per-call wrapper costs, in ns, measured on a no-op function.

        ``hot_outer``/``span_outer``: time a wrapped call adds to the
        interval of whatever encloses it.  ``hot_inner``/``span_inner``:
        time a wrapper reports for a call that does nothing.
        """
        def per_call(fn, n):
            t0 = CLOCK()
            for _ in range(n):
                fn(1.0, 2.0)
            return (CLOCK() - t0) / n

        results = defaultdict(list)
        for _ in range(repeats):
            raw_hot = per_call(_noop, n_hot)
            # As many hot cells as install_pipeline makes, so the span
            # wrapper's scan over them costs what it does in a real run.
            probe = Tracer.__new__(Tracer)
            probe.hot = {f"probe{i}": [0, 0] for i in range(4)}
            cell = probe.hot["probe0"]
            wrapped = probe._make_hot(_noop, "probe0")
            results["hot_outer"].append(per_call(wrapped, n_hot) - raw_hot)
            results["hot_inner"].append(cell[1] / cell[0])

            raw_span = per_call(_noop, n_span)
            probe.spans, probe._stack = [], []
            wrapped = probe._make_span(_noop, "probe")
            results["span_outer"].append(per_call(wrapped, n_span) - raw_span)
            results["span_inner"].append(
                statistics.fmean(s[3] - s[2] for s in probe.spans))
        return {k: statistics.median(v) for k, v in results.items()}

    # -- aggregation ------------------------------------------------------

    def span_times(self) -> list[tuple[str, float, float]]:
        """(name, corrected inclusive ns, corrected self ns) for each span.

        Inclusive time drops the wrapper's own reading cost and the cost of
        every wrapper nested inside.  Self time further drops the inclusive
        time of direct child spans and the corrected time of hot calls made
        directly (not inside a child span).
        """
        cal = self.calibration
        hot_inner = cal["hot_inner"]
        spans = self.spans
        inclusive = []
        for name, _, t0, t1, n_spans, n_hot, _ in spans:
            inclusive.append(max(0.0, (t1 - t0) - cal["span_inner"]
                                 - n_spans * cal["span_outer"]
                                 - n_hot * cal["hot_outer"]))
        child_ns = [0.0] * len(spans)
        child_hot = [[0, 0] for _ in spans]
        for index, (_, parent, _, _, _, n_hot, hot_ns) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += inclusive[index]
                child_hot[parent][0] += n_hot
                child_hot[parent][1] += hot_ns
        out = []
        for index, (name, _, _, _, _, n_hot, hot_ns) in enumerate(spans):
            direct_calls = n_hot - child_hot[index][0]
            direct_ns = hot_ns - child_hot[index][1]
            direct_hot = max(0.0, direct_ns - direct_calls * hot_inner)
            out.append((name, inclusive[index],
                        max(0.0, inclusive[index] - child_ns[index] - direct_hot)))
        return out

    def hot_time_ns(self, name) -> float:
        calls, ns = self.hot.get(name, (0, 0))
        return max(0.0, ns - calls * self.calibration["hot_inner"])

    def hot_calls(self, name) -> int:
        return self.hot.get(name, (0, 0))[0]

    def dump(self, path) -> None:
        """Write spans, hot totals, counters and calibration as JSON."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        base = self.spans[0][2] if self.spans else 0
        with open(path, "w") as fh:
            json.dump({
                "clock": "perf_counter_ns",
                "calibration_ns": self.calibration,
                "span_fields": ["name", "parent", "start_ns", "end_ns",
                                "nested_spans", "nested_hot_calls",
                                "nested_hot_ns"],
                "spans": [[s[0], s[1], s[2] - base, s[3] - base, *s[4:]]
                          for s in self.spans],
                "hot": {k: {"calls": v[0], "ns": v[1]}
                        for k, v in self.hot.items()},
                "counters": dict(self.counters),
            }, fh)


# ---------------------------------------------------------------------------
# What is wrapped, and the per-layer numbers derived from it.

LAYERS = ("sim", "dynamics", "estimator", "ukf", "mapping", "cli")

WRITE_KINDS = ("telemetry", "truth", "estimates", "timeseries",
               "map_layers", "map_state")
READ_KINDS = ("telemetry", "truth", "map_state")


def _count_bytes(kind):
    def post(tracer, args, result):
        tracer.counters[f"bytes.{kind}"] += os.path.getsize(args[-1])
    return post


def _after_step(tracer, args, record):
    tracer.counters["records"] += 1
    if record.curve_scale is not None:
        tracer.counters["curve_scale_accepted"] += 1
    # The estimator keeps a running clamp total; count what this step added.
    est = args[0]
    seen = tracer.clamps_seen.get(est, 0)
    tracer.counters["clamp_violations"] += est.clamp_violations - seen
    tracer.clamps_seen[est] = est.clamp_violations


def _after_grow(tracer, args, result):
    w, l = args[0].shape
    tracer.counters["grow.cells_copied"] += w * l


def _after_build_map(tracer, args, gmap):
    if gmap is not None:
        tracer.counters["grid_cells"] += gmap.counts.size
        tracer.counters["filled_cells"] += int((gmap.counts > 0).sum())


def _after_interpolate(tracer, args, result):
    tracer.counters["interpolate.cells"] += args[0].counts.size


def install_pipeline(tracer: Tracer) -> None:
    """Wrap every layer boundary of the pipeline the workloads call."""
    from tractionmap import cli, estimator, mapping, sim, ukf

    tracer.install(estimator.TractionEstimator, "step", "estimator.step",
                   post=_after_step)
    tracer.install(sim, "simulate", "sim.simulate")
    tracer.install(sim, "slip", "dynamics.slip", hot=True)
    tracer.install(sim, "mu_curve", "dynamics.mu_curve", hot=True)
    tracer.install(estimator, "slip", "dynamics.slip.estimator", hot=True)
    tracer.install(cli, "mu_curve", "dynamics.mu_curve.metrics", hot=True)
    tracer.install(estimator, "process_model", "estimator.process_model")
    for attr in ("predict", "update", "adapt_q"):
        tracer.install(ukf, attr, f"ukf.{attr}")
    tracer.install(mapping, "insert_auto", "mapping.insert")
    tracer.install(mapping, "grow_to_include", "mapping.grow",
                   post=_after_grow)
    tracer.install(mapping, "interpolate", "mapping.interpolate",
                   post=_after_interpolate)
    tracer.install(cli, "run", "cli.run")
    tracer.install(cli, "replay", "cli.replay")
    tracer.install(cli, "run_estimation", "cli.run_estimation")
    tracer.install(cli, "build_map", "cli.build_map", post=_after_build_map)
    tracer.install(cli, "compute_metrics", "cli.compute_metrics")
    tracer.install(sim, "load_scenario", "cli.load_scenario")
    writers = ((sim, "write_telemetry_csv", "telemetry"),
               (sim, "write_truth_csv", "truth"),
               (cli, "write_estimates_csv", "estimates"),
               (cli, "write_timeseries_csv", "timeseries"),
               (mapping, "export_layer_csv", "map_layers"),
               (cli, "save_map_state", "map_state"))
    for owner, attr, kind in writers:
        tracer.install(owner, attr, f"cli.write.{kind}",
                       post=_count_bytes(kind))
    tracer.install(sim, "read_telemetry_csv", "cli.read.telemetry")
    tracer.install(sim, "read_truth_csv", "cli.read.truth")
    tracer.install(cli, "load_map_state", "cli.read.map_state")


def per_layer_metrics(tracer: Tracer, plant_steps: int,
                      samples: int) -> dict[str, tuple[float, str]]:
    """Per-layer numbers of one traced set-up plus one traced pass.

    Times named ``*_ms``/``*_us`` and ``sim.simulate_s`` and
    ``mapping.interpolate_s`` are per call; other ``*_s`` times and the
    counts are totals over the traced set-up and pass.

    ``plant_steps`` and ``samples`` are the 1 ms plant steps and 10 Hz
    samples of each ``simulate`` call, used to turn the slip call count
    into sub-steps per plant step (4 wheels x 4 RK stages per sub-step,
    plus 4 slip evaluations per emitted sample).
    """
    times = tracer.span_times()
    by_name = defaultdict(list)
    self_by_layer = defaultdict(float)
    for name, inclusive, self_ns in times:
        by_name[name].append(inclusive)
        self_by_layer[name.split(".")[0]] += self_ns
    for name in tracer.hot:
        self_by_layer[name.split(".")[0]] += tracer.hot_time_ns(name)

    def total_s(name):
        return sum(by_name[name]) / 1e9

    def mean(name, scale):
        values = by_name[name]
        return statistics.fmean(values) / scale if values else 0.0

    def calls(name):
        return len(by_name[name])

    c = tracer.counters
    m: dict[str, tuple[float, str]] = {}

    n_sim = calls("sim.simulate")
    sim_slips = tracer.hot_calls("dynamics.slip")
    m["sim.simulate_s"] = (mean("sim.simulate", 1e9), "s")
    m["sim.us_per_step"] = (mean("sim.simulate", 1e3) / plant_steps
                            if n_sim else 0.0, "us")
    m["sim.substeps_per_step"] = (
        (sim_slips / n_sim - 4 * samples) / (16 * plant_steps)
        if n_sim else 0.0, "1")

    slip_names = ("dynamics.slip", "dynamics.slip.estimator")
    mu_names = ("dynamics.mu_curve", "dynamics.mu_curve.metrics")
    m["dynamics.slip.calls"] = (sum(tracer.hot_calls(n) for n in slip_names),
                                "count")
    m["dynamics.slip_s"] = (sum(tracer.hot_time_ns(n) for n in slip_names)
                            / 1e9, "s")
    m["dynamics.mu_curve.calls"] = (sum(tracer.hot_calls(n) for n in mu_names),
                                    "count")
    m["dynamics.mu_curve_s"] = (sum(tracer.hot_time_ns(n) for n in mu_names)
                                / 1e9, "s")

    steps = sorted(v / 1e6 for v in by_name["estimator.step"])
    m["estimator.step.calls"] = (len(steps), "count")
    m["estimator.step_p50_ms"] = (percentile(steps, 50), "ms")
    m["estimator.step_p99_ms"] = (percentile(steps, 99), "ms")
    m["estimator.process_model.calls"] = (calls("estimator.process_model"),
                                          "count")
    m["estimator.process_model_ms"] = (mean("estimator.process_model", 1e6),
                                       "ms")
    m["estimator.curve_scale_accept_ratio"] = (
        c["curve_scale_accepted"] / c["records"] if c["records"] else 0.0, "1")
    m["estimator.clamp_violations"] = (c["clamp_violations"], "count")

    for op in ("predict", "update", "adapt_q"):
        m[f"ukf.{op}_ms"] = (mean(f"ukf.{op}", 1e6), "ms")
        m[f"ukf.{op}.calls"] = (calls(f"ukf.{op}"), "count")

    m["mapping.insert_us"] = (mean("mapping.insert", 1e3), "us")
    m["mapping.insert.calls"] = (calls("mapping.insert"), "count")
    m["mapping.grow.count"] = (calls("mapping.grow"), "count")
    m["mapping.grow.cells_copied"] = (c["grow.cells_copied"], "count")
    m["mapping.grid_cells"] = (c["grid_cells"], "count")
    m["mapping.fill_ratio"] = (
        c["filled_cells"] / c["grid_cells"] if c["grid_cells"] else 0.0, "1")
    m["mapping.interpolate_s"] = (mean("mapping.interpolate", 1e9), "s")
    m["mapping.interpolate_ns_per_cell"] = (
        sum(by_name["mapping.interpolate"]) / c["interpolate.cells"]
        if c["interpolate.cells"] else 0.0, "ns")

    for kind in WRITE_KINDS:
        m[f"cli.write_s.{kind}"] = (total_s(f"cli.write.{kind}"), "s")
        m[f"cli.bytes_written.{kind}"] = (c[f"bytes.{kind}"], "bytes")
    for kind in READ_KINDS:
        m[f"cli.read_s.{kind}"] = (total_s(f"cli.read.{kind}"), "s")
    m["cli.compute_metrics_s"] = (total_s("cli.compute_metrics"), "s")
    m["cli.load_scenario_s"] = (total_s("cli.load_scenario"), "s")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer[layer] / 1e9, "s")
    return m
