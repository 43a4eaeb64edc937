"""End-to-end runner: scenario -> simulate -> estimate -> map -> reports.

Subcommands:
  run <scenario.yaml>    full pipeline, writes logs, map CSVs and metrics
  replay <telemetry.csv> re-run estimation on recorded telemetry
  export-map <state.json> --layer <name>  write one layer CSV from a saved map

Exit codes: 0 success, 1 configuration error, 2 pipeline error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import mapping, sim
from .dynamics import VehicleParams, mu_curve, mu_curve_shape
from .estimator import (
    EstimateRecord,
    EstimatorConfig,
    TractionEstimator,
    TractionInput,
    TractionMeasurement,
)
from .mapping import GroundMap, InterpolationConfig
from .sim import STUBBLE_FAMILY, TelemetrySample, TruthRecord

BURN_IN_S = 2.0            # discard this much after the start
TRANSITION_EXCLUDE_S = 3.0  # and after each soil change
R2_SLIP_GRID = np.linspace(0.0, 0.5, 51)


class DegenerateVariance(ValueError):
    """R-squared undefined: the reference curve is constant."""


@dataclass(frozen=True)
class RunConfig:
    """Arguments of one pipeline run."""

    scenario_path: str
    out_dir: str = "out"
    seed: int | None = None
    interpolation: InterpolationConfig = InterpolationConfig()
    resolution: float = 1.0
    interpolate: bool = True


@dataclass(frozen=True)
class SoilMetrics:
    label: str
    true_a: float
    true_rho_s: float
    identified_a: float | None
    mu_error_pct: float
    r_squared: float | None
    samples: int


@dataclass(frozen=True)
class MetricsReport:
    per_soil: tuple[SoilMetrics, ...]
    rho_s_error_pct: float
    coverage: float
    coverage_interpolated: float | None
    runtime_s: float
    clamp_violations: int


def compute_r_squared(identified_curve, true_curve) -> float:
    """1 - SS_res/SS_tot of the identified curve against the true one."""
    identified = np.asarray(identified_curve, dtype=float)
    true = np.asarray(true_curve, dtype=float)
    if identified.shape != true.shape or identified.ndim != 1:
        raise ValueError("curves must be 1-D arrays on the same grid")
    if identified.size < 10:
        raise ValueError("need at least 10 grid points")
    ss_tot = float(np.sum((true - true.mean()) ** 2))
    if ss_tot < 1e-15:
        raise DegenerateVariance("true curve is constant over the grid")
    ss_res = float(np.sum((identified - true) ** 2))
    return 1.0 - ss_res / ss_tot


def run_estimation(samples: list[TelemetrySample],
                   vehicle,
                   curve_family=STUBBLE_FAMILY,
                   config=None) -> tuple[list[EstimateRecord], TractionEstimator]:
    """Feed a telemetry stream through a fresh estimator."""
    est = TractionEstimator(vehicle, curve_family,
                            config or EstimatorConfig())
    est.initialize(TractionMeasurement(omega_w=samples[0].omega_w,
                                       v=samples[0].v))
    records: list[EstimateRecord] = []
    prev = samples[0]
    for sample in samples[1:]:
        u = TractionInput(m_d=prev.m_d, f_zf=prev.f_zf, f_dx=prev.f_dx)
        y = TractionMeasurement(omega_w=sample.omega_w, v=sample.v)
        records.append(est.step(u, y, t=sample.t, position=sample.pos))
        prev = sample
    return records, est


def build_map(records: list[EstimateRecord],
              curve_family=STUBBLE_FAMILY,
              resolution: float = 1.0) -> GroundMap | None:
    """Raw ground map from the estimate stream; origin at the first insert.

    Only records with a successful curve-scale extraction are inserted,
    in stream order, by one bulk ``insert_auto``; the stored layers are
    (a, p, alpha1, alpha2, rho_s).
    """
    kept = [rec for rec in records if rec.curve_scale is not None]
    if not kept:
        return None
    positions = np.array([rec.position for rec in kept], dtype=float)
    values = np.empty((len(kept), mapping.NUM_LAYERS))
    values[:, 0] = [rec.curve_scale for rec in kept]
    values[:, 1:4] = curve_family
    values[:, 4] = [rec.rho_s for rec in kept]
    gmap = GroundMap.empty(origin=kept[0].position, resolution=resolution)
    return mapping.insert_auto(gmap, positions, values)


def _kept_indices(truth: list[TruthRecord]) -> list[int]:
    """Indices surviving burn-in and post-transition exclusion."""
    kept = []
    exclude_until = truth[0].t + BURN_IN_S
    prev_soil = truth[0].soil
    for i, rec in enumerate(truth):
        if rec.soil != prev_soil:
            exclude_until = max(exclude_until, rec.t + TRANSITION_EXCLUDE_S)
            prev_soil = rec.soil
        if rec.t >= exclude_until:
            kept.append(i)
    return kept


def compute_metrics(records: list[EstimateRecord],
                    truth: list[TruthRecord],
                    raw_map: GroundMap | None,
                    interp_map: GroundMap | None,
                    curve_family=STUBBLE_FAMILY,
                    runtime_s: float = 0.0,
                    clamp_violations: int = 0) -> MetricsReport:
    """Score the estimate stream against the aligned truth log.

    Estimation records start one sample after the truth log (the first
    sample only initializes the filter), so truth[i+1] pairs with
    records[i].
    """
    by_t = {round(r.t, 6): r for r in records}
    kept = [i for i in _kept_indices(truth) if round(truth[i].t, 6) in by_t]

    soils: list = []
    for rec in truth:
        if rec.soil not in soils:
            soils.append(rec.soil)

    p, alpha1, alpha2 = curve_family
    per_soil = []
    rho_err_sum = 0.0
    rho_true_sum = 0.0
    for soil in soils:
        idx = [i for i in kept if truth[i].soil == soil]
        if not idx:
            continue
        err_sum = 0.0
        true_sum = 0.0
        scales = []
        for i in idx:
            est = by_t[round(truth[i].t, 6)]
            for w in range(4):
                err_sum += abs(est.mu[w] - truth[i].mu[w])
                true_sum += abs(truth[i].mu[w])
            if est.curve_scale is not None:
                scales.append(est.curve_scale)
            rho_err_sum += abs(est.rho_s - soil.rho_s)
            rho_true_sum += soil.rho_s
        mu_error_pct = 100.0 * err_sum / true_sum if true_sum > 0 else float("nan")

        identified_a = float(np.mean(scales)) if scales else None
        if identified_a is not None:
            ident = [identified_a * mu_curve_shape(s, p, alpha1, alpha2)
                     for s in R2_SLIP_GRID]
            true_curve = [mu_curve(s, soil) for s in R2_SLIP_GRID]
            r2 = compute_r_squared(ident, true_curve)
        else:
            r2 = None
        per_soil.append(SoilMetrics(
            label=f"soil{len(per_soil) + 1}", true_a=soil.a,
            true_rho_s=soil.rho_s, identified_a=identified_a,
            mu_error_pct=mu_error_pct, r_squared=r2, samples=len(idx)))

    rho_s_error_pct = (100.0 * rho_err_sum / rho_true_sum
                       if rho_true_sum > 0 else float("nan"))
    return MetricsReport(
        per_soil=tuple(per_soil),
        rho_s_error_pct=rho_s_error_pct,
        coverage=raw_map.coverage() if raw_map is not None else 0.0,
        coverage_interpolated=(interp_map.coverage()
                               if interp_map is not None else None),
        runtime_s=runtime_s,
        clamp_violations=clamp_violations)


# ---------------------------------------------------------------------------
# File outputs

def write_timeseries_csv(records: list[EstimateRecord],
                         truth: list[TruthRecord], path) -> None:
    """Plot-ready aligned series: true vs estimated mu per wheel and rho_s."""
    by_t = {round(r.t, 6): r for r in records}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t"]
        for w in range(1, 5):
            header += [f"mu{w}_true", f"mu{w}_est"]
        header += ["rho_s_true", "rho_s_est"]
        writer.writerow(header)
        for tr in truth:
            rec = by_t.get(round(tr.t, 6))
            if rec is None:
                continue
            row = [tr.t]
            for w in range(4):
                row += [tr.mu[w], rec.mu[w]]
            row += [tr.soil.rho_s, rec.rho_s]
            writer.writerow([repr(float(x)) for x in row])


def write_estimates_csv(records: list[EstimateRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "mu1", "mu2", "mu3", "mu4", "rho_s",
                         "slip1", "slip2", "slip3", "slip4", "a"]
                        + [f"p{i}{i}" for i in range(10)])
        for r in records:
            row = [repr(float(x)) for x in
                   (r.t, *r.position, *r.mu, r.rho_s, *r.slip)]
            row.append("" if r.curve_scale is None else repr(float(r.curve_scale)))
            row.extend(repr(float(x)) for x in r.cov_diag)
            writer.writerow(row)


def save_map_state(gmap: GroundMap, path) -> None:
    """Write the recorded cells as JSON: one ``[i, j, count, *layers]``
    list per non-empty cell, in row-major order.

    Raises ValueError, and writes nothing, when the origin, the resolution
    or a recorded value is not finite, since ``load_map_state`` rejects
    those.
    """
    i, j = np.nonzero(gmap.counts > 0)
    values = gmap.values[i, j]
    if not (np.all(np.isfinite(values))
            and np.all(np.isfinite([*gmap.origin, gmap.resolution]))):
        raise ValueError("map origin, resolution and values must be finite "
                         "to be saved")
    cells = [[ci, cj, n, *v] for ci, cj, n, v in zip(
        i.tolist(), j.tolist(), gmap.counts[i, j].tolist(), values.tolist())]
    state = {"origin": list(gmap.origin), "resolution": gmap.resolution,
             "width": int(gmap.shape[0]), "length": int(gmap.shape[1]),
             "layers": list(mapping.LAYER_NAMES), "cells": cells}
    with open(path, "w") as fh:
        json.dump(state, fh, indent=1, allow_nan=False)


def _is_finite_number(x) -> bool:
    # int/float comparison is exact, so a huge JSON integer does not
    # overflow here
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and -math.inf < x < math.inf)


def load_map_state(path) -> GroundMap:
    """Read a map written by ``save_map_state``.

    Raises ValueError unless the state is a JSON object with an integer
    width and length of at least 1, a finite positive resolution, two
    finite origin numbers and the layers ``LAYER_NAMES``, and every cell
    is a row of finite numbers: an integer index inside the grid, an
    integer count of at least 1 and one value per layer, with no cell
    listed twice.
    """
    with open(path) as fh:
        state = json.load(fh)
    if not isinstance(state, dict):
        raise ValueError("map state must be a JSON object")
    for name in ("width", "length"):
        size = state[name]
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ValueError(f"map {name} must be an integer of at least 1")
    if not (_is_finite_number(state["resolution"]) and state["resolution"] > 0):
        raise ValueError("map resolution must be a finite positive number")
    origin = state["origin"]
    if not (isinstance(origin, list) and len(origin) == 2
            and all(map(_is_finite_number, origin))):
        raise ValueError("map origin must be two finite numbers")
    if state["layers"] != list(mapping.LAYER_NAMES):
        raise ValueError(f"map layers must be {list(mapping.LAYER_NAMES)}")
    gmap = GroundMap.empty(origin=tuple(origin),
                           resolution=state["resolution"],
                           width=state["width"], length=state["length"])
    row_len = 3 + mapping.NUM_LAYERS
    try:
        table = np.array(state["cells"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed map cells: {exc}") from exc
    if table.shape == (0,):
        table = table.reshape(0, row_len)
    if table.ndim != 2 or table.shape[1] != row_len:
        raise ValueError(f"a map cell must hold i, j, count and "
                         f"{mapping.NUM_LAYERS} layer values")
    if not np.all(np.isfinite(table)):
        raise ValueError("map cells must hold finite numbers")
    i, j, count = table[:, 0], table[:, 1], table[:, 2]
    if np.any(table[:, :3] != np.floor(table[:, :3])):
        raise ValueError("map cell index and count must be integers")
    w, l = gmap.shape
    if np.any((i < 0) | (i >= w) | (j < 0) | (j >= l)):
        raise ValueError(f"map cell index outside the {w} x {l} grid")
    if np.any(count < 1):
        raise ValueError("map cell count below 1")
    i, j = i.astype(np.int64), j.astype(np.int64)
    gmap.counts[i, j] = count
    # every count is at least 1, so fewer non-empty cells than rows means
    # a cell was listed twice
    if np.count_nonzero(gmap.counts) != len(table):
        raise ValueError("map cell listed twice")
    gmap.values[i, j] = table[:, 3:]
    return gmap


def _write_map_layers(gmap: GroundMap, out: Path, prefix: str) -> list[Path]:
    paths = []
    for layer in mapping.LAYER_NAMES:
        path = out / f"{prefix}{layer}.csv"
        mapping.export_layer_csv(gmap, layer, path)
        paths.append(path)
    return paths


def format_metrics(report: MetricsReport) -> str:
    lines = ["traction parameter identification metrics",
             "-" * 44]
    for s in report.per_soil:
        ident = "n/a" if s.identified_a is None else f"{s.identified_a:.4f}"
        r2 = "n/a" if s.r_squared is None else f"{s.r_squared:.4f}"
        lines.append(
            f"{s.label}: true a={s.true_a:.3f} identified a={ident} "
            f"mu error={s.mu_error_pct:.2f}% R^2={r2} ({s.samples} samples)")
    lines.append(f"rho_s error: {report.rho_s_error_pct:.2f}%")
    lines.append(f"map coverage: {report.coverage:.4f}")
    if report.coverage_interpolated is not None:
        lines.append(f"map coverage (interpolated): "
                     f"{report.coverage_interpolated:.4f}")
    lines.append(f"clamp violations: {report.clamp_violations}")
    lines.append(f"runtime: {report.runtime_s:.2f} s")
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> MetricsReport:
    """Execute the full pipeline and write all outputs to config.out_dir."""
    t0 = time.perf_counter()
    scenario = sim.load_scenario(config.scenario_path)
    if config.seed is not None:
        scenario = replace(scenario, seed=config.seed)

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    samples, truth = sim.simulate(scenario)
    records, est = run_estimation(samples, scenario.vehicle)
    raw_map = build_map(records, resolution=config.resolution)
    interp_map = None
    if raw_map is not None and config.interpolate:
        interp_map = mapping.interpolate(raw_map, config.interpolation)

    sim.write_telemetry_csv(samples, out / "telemetry.csv")
    sim.write_truth_csv(truth, out / "truth.csv")
    write_estimates_csv(records, out / "estimates.csv")
    write_timeseries_csv(records, truth, out / "timeseries.csv")
    if raw_map is not None:
        _write_map_layers(raw_map, out, "map_raw_")
        save_map_state(raw_map, out / "map_state.json")
    if interp_map is not None:
        _write_map_layers(interp_map, out, "map_")

    runtime = time.perf_counter() - t0
    report = compute_metrics(records, truth, raw_map, interp_map,
                             runtime_s=runtime,
                             clamp_violations=est.clamp_violations)
    with open(out / "metrics.json", "w") as fh:
        json.dump(asdict(report), fh, indent=1)
    with open(out / "metrics.txt", "w") as fh:
        fh.write(format_metrics(report))
    return report


def replay(telemetry_path, out_dir, truth_path=None,
           interpolation: InterpolationConfig = InterpolationConfig(),
           resolution: float = 1.0, do_interpolate: bool = True) -> MetricsReport | None:
    """Re-run estimation on a recorded telemetry CSV."""
    t0 = time.perf_counter()
    samples = sim.read_telemetry_csv(telemetry_path)
    if len(samples) < 2:
        raise ValueError("telemetry must contain at least two samples")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records, est = run_estimation(samples, VehicleParams())
    raw_map = build_map(records, resolution=resolution)
    interp_map = None
    if raw_map is not None and do_interpolate:
        interp_map = mapping.interpolate(raw_map, interpolation)

    write_estimates_csv(records, out / "estimates.csv")
    if raw_map is not None:
        _write_map_layers(raw_map, out, "map_raw_")
        save_map_state(raw_map, out / "map_state.json")
    if interp_map is not None:
        _write_map_layers(interp_map, out, "map_")

    if truth_path is None:
        return None
    truth = sim.read_truth_csv(truth_path)
    write_timeseries_csv(records, truth, out / "timeseries.csv")
    report = compute_metrics(records, truth, raw_map, interp_map,
                             runtime_s=time.perf_counter() - t0,
                             clamp_violations=est.clamp_violations)
    with open(out / "metrics.json", "w") as fh:
        json.dump(asdict(report), fh, indent=1)
    with open(out / "metrics.txt", "w") as fh:
        fh.write(format_metrics(report))
    return report


# ---------------------------------------------------------------------------
# Argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tractionmap",
        description="Traction-parameter identification and mapping simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate, estimate, map and score")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--eps-low", type=float, default=None)
    p_run.add_argument("--eps-mid", type=float, default=None)
    p_run.add_argument("--eps-high", type=float, default=None)
    p_run.add_argument("--w-low", type=float, default=None)
    p_run.add_argument("--w-mid", type=float, default=None)
    p_run.add_argument("--w-high", type=float, default=None)
    p_run.add_argument("--resolution", type=float, default=1.0)
    p_run.add_argument("--no-interpolate", action="store_true")

    p_rep = sub.add_parser("replay", help="re-run estimation on telemetry")
    p_rep.add_argument("telemetry", help="telemetry CSV file")
    p_rep.add_argument("--truth", default=None, help="aligned truth CSV")
    p_rep.add_argument("--out", default="out", help="output directory")
    p_rep.add_argument("--resolution", type=float, default=1.0)
    p_rep.add_argument("--no-interpolate", action="store_true")

    p_exp = sub.add_parser("export-map", help="export one layer of a saved map")
    p_exp.add_argument("state", help="map state JSON from a previous run")
    p_exp.add_argument("--layer", required=True,
                       choices=list(mapping.LAYER_NAMES))
    p_exp.add_argument("--out", default=None, help="output CSV path")
    return parser


def _interpolation_from_args(args) -> InterpolationConfig:
    base = InterpolationConfig()
    fields = {
        "eps_low": args.eps_low, "eps_mid": args.eps_mid,
        "eps_high": args.eps_high, "w_low": args.w_low,
        "w_mid": args.w_mid, "w_high": args.w_high}
    overrides = {k: v for k, v in fields.items() if v is not None}
    merged = {**{f: getattr(base, f) for f in fields}, **overrides}
    return InterpolationConfig(**merged)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in ("run", "replay"):
        try:
            mapping.check_resolution(args.resolution)
        except ValueError as exc:  # before any output is written
            print(f"configuration error: {exc}", file=sys.stderr)
            return 1

    if args.command == "run":
        try:
            interp = _interpolation_from_args(args)
            config = RunConfig(
                scenario_path=args.scenario, out_dir=args.out, seed=args.seed,
                interpolation=interp, resolution=args.resolution,
                interpolate=not args.no_interpolate)
            sim.load_scenario(args.scenario)  # validate before touching outputs
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 1
        try:
            report = run(config)
        except Exception as exc:  # pipeline errors surface verbatim
            print(f"pipeline error: {exc}", file=sys.stderr)
            return 2
        print(format_metrics(report), end="")
        return 0

    if args.command == "replay":
        if not Path(args.telemetry).is_file():
            print(f"configuration error: no such file {args.telemetry}",
                  file=sys.stderr)
            return 1
        if args.truth is not None and not Path(args.truth).is_file():
            print(f"configuration error: no such file {args.truth}",
                  file=sys.stderr)
            return 1
        try:
            report = replay(args.telemetry, args.out, truth_path=args.truth,
                            resolution=args.resolution,
                            do_interpolate=not args.no_interpolate)
        except Exception as exc:
            print(f"pipeline error: {exc}", file=sys.stderr)
            return 2
        if report is not None:
            print(format_metrics(report), end="")
        return 0

    if args.command == "export-map":
        try:
            gmap = load_map_state(args.state)
        except (OSError, ValueError, KeyError) as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return 1
        out = args.out or f"map_{args.layer}.csv"
        try:
            mapping.export_layer_csv(gmap, args.layer, out)
        except Exception as exc:
            print(f"pipeline error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {out}")
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())
