"""End-to-end runner: scenario -> simulate -> estimate -> map -> reports.

Subcommands:
  run <scenario.yaml>    full pipeline, writes logs, map CSVs and metrics
  replay <telemetry.csv> re-run estimation on recorded telemetry
  export-map <state.json> --layer <name>  write one layer CSV from a saved map

Exit codes: 0 success, 1 configuration error, 2 pipeline error.  ``run``
and ``replay`` raise ConfigurationError for an input they refuse, before
any stage runs; ``main`` maps that to exit 1 and any other error to exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import mapping, sim
from .dynamics import (SAMPLE_DT, VehicleParams, mu_curve, mu_curve_shape,
                       wheel_geometry)
from .estimator import (
    EstimateRecord,
    EstimatorConfig,
    TractionEstimator,
    TractionInput,
    TractionMeasurement,
)
from .mapping import GroundMap
from .sim import STUBBLE_FAMILY, TelemetrySample, TruthRecord

BURN_IN_S = 2.0            # discard this much after the start
TRANSITION_EXCLUDE_S = 3.0  # and after each soil change
R2_SLIP_GRID = np.linspace(0.0, 0.5, 51)
DEFAULT_RESOLUTION = 1.0   # map cell size in meters, unless one is given


class DegenerateVariance(ValueError):
    """R-squared undefined: the reference curve is constant."""


class ConfigurationError(ValueError):
    """An input refused before any stage runs or anything is written."""


@contextmanager
def _refused_input():
    """Raise what reading or checking an input raises as ConfigurationError:
    a missing file, a malformed or out-of-range value, a missing key, a
    wrong type or a malformed CSV."""
    try:
        yield
    except (OSError, ValueError, KeyError, TypeError, csv.Error) as exc:
        raise ConfigurationError(str(exc)) from exc


@dataclass(frozen=True)
class RunConfig:
    """One pipeline run's arguments."""

    scenario_path: str
    out_dir: str = "out"
    seed: int | None = None
    resolution: float = DEFAULT_RESOLUTION

    def __post_init__(self) -> None:
        with _refused_input():
            mapping.check_resolution(self.resolution)


@dataclass(frozen=True)
class SoilMetrics:
    label: str
    true_a: float
    true_rho_s: float
    identified_a: float | None
    mu_error_pct: float | None
    r_squared: float | None
    samples: int


@dataclass(frozen=True)
class MetricsReport:
    per_soil: tuple[SoilMetrics, ...]
    rho_s_error_pct: float | None
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


def run_estimation(samples: list[TelemetrySample], vehicle,
                   curve_family: tuple[float, float, float],
                   config: EstimatorConfig
                   ) -> tuple[list[EstimateRecord], TractionEstimator]:
    """Feed a telemetry stream through a fresh estimator."""
    est = TractionEstimator(vehicle, curve_family, config)
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
              resolution: float) -> GroundMap | None:
    """Raw ground map from the estimate stream, sized to its records.

    Only records with a successful curve-scale extraction are inserted,
    in stream order, by one bulk ``insert_auto`` into a 1 x 1 map at the
    first kept position.  The grid is allocated once as the box of the
    kept records' cells against that position, with its origin at the
    box's lower corner; the stored layers are (a, rho_s).
    """
    kept = [rec for rec in records if rec.curve_scale is not None]
    if not kept:
        return None
    positions = np.array([rec.position for rec in kept], dtype=float)
    values = np.empty((len(kept), mapping.NUM_LAYERS))
    values[:, 0] = [rec.curve_scale for rec in kept]
    values[:, 1] = [rec.rho_s for rec in kept]
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


def _aligned_truth(records: list[EstimateRecord],
                   truth: list[TruthRecord]) -> list[TruthRecord]:
    """``truth[1:]``, whose k-th entry pairs with ``records[k]``: the first
    sample only initializes the filter.  Raises ValueError unless the logs
    hold one truth sample more than records and the paired times agree."""
    paired = truth[1:]
    if (len(paired) != len(records)
            or any(r.t != tr.t for r, tr in zip(records, paired))):
        raise ValueError(
            f"{len(records)} estimates do not align with {len(truth)} truth "
            f"samples: records[k] must share the time of truth[k + 1]")
    return paired


def compute_metrics(records: list[EstimateRecord],
                    truth: list[TruthRecord],
                    raw_map: GroundMap | None,
                    interp_map: GroundMap | None,
                    curve_family: tuple[float, float, float],
                    runtime_s: float = 0.0,
                    clamp_violations: int = 0) -> MetricsReport:
    """Score the estimate stream against the aligned truth log.

    Estimation records start one sample after the truth log (the first
    sample only initializes the filter), so truth[i+1] pairs with
    records[i]; raises ValueError when the logs do not align that way.
    A percentage error whose truth sum is zero is None.
    """
    _aligned_truth(records, truth)
    # burn-in always drops truth[0], the sample without a record
    kept = _kept_indices(truth)

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
            est = records[i - 1]
            for w in range(4):
                err_sum += abs(est.mu[w] - truth[i].mu[w])
                true_sum += abs(truth[i].mu[w])
            if est.curve_scale is not None:
                scales.append(est.curve_scale)
            rho_err_sum += abs(est.rho_s - soil.rho_s)
            rho_true_sum += soil.rho_s
        mu_error_pct = 100.0 * err_sum / true_sum if true_sum > 0 else None

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
                       if rho_true_sum > 0 else None)
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
    paired = _aligned_truth(records, truth)
    header = ["t"]
    for w in range(1, 5):
        header += [f"mu{w}_true", f"mu{w}_est"]
    header += ["rho_s_true", "rho_s_est"]
    sim._write_log(path, header, (
        sim._fields((tr.t, *chain.from_iterable(zip(tr.mu, rec.mu)),
                     tr.soil.rho_s, rec.rho_s)) + "\r\n"
        for tr, rec in zip(paired, records)))


def write_estimates_csv(records: list[EstimateRecord], path) -> None:
    """One row per estimate; the curve scale ``a`` is an empty field when
    it is None."""
    header = ["t", "x", "y", "mu1", "mu2", "mu3", "mu4", "rho_s",
              "slip1", "slip2", "slip3", "slip4", "a"]
    sim._write_log(path, header + [f"p{i}{i}" for i in range(10)], (
        f"{sim._fields((r.t, *r.position, *r.mu, r.rho_s, *r.slip))},"
        f"{'' if r.curve_scale is None else repr(float(r.curve_scale))},"
        f"{sim._fields(r.cov_diag)}\r\n" for r in records))


def save_map_state(gmap: GroundMap, path) -> None:
    """Write the recorded cells as JSON: one ``[i, j, count, *layers]``
    list per non-empty cell, in row-major order.

    The bytes are those of ``json.dump(state, fh, indent=1)``: the header
    keys go through ``json.dumps`` and each cell is formatted in that
    layout directly, ints by ``str`` and floats by ``repr`` as ``json``
    writes them, since ``json``'s indenting encoder runs in pure Python.
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
    header = json.dumps({"origin": list(gmap.origin),
                         "resolution": gmap.resolution,
                         "width": int(gmap.shape[0]),
                         "length": int(gmap.shape[1]),
                         "layers": list(mapping.LAYER_NAMES), "cells": []},
                        indent=1, allow_nan=False)
    with open(path, "w") as fh:
        if not len(i):
            fh.write(header)
            return
        fh.write(header[:-len("]\n}")])
        fh.writelines(
            f"{',' if k else ''}\n  [\n   {ci},\n   {cj},\n   {n},"
            f"\n   {a!r},\n   {rho_s!r}\n  ]"
            for k, (ci, cj, n, (a, rho_s)) in enumerate(zip(
                i.tolist(), j.tolist(), gmap.counts[i, j].tolist(),
                values.tolist())))
        fh.write("\n ]\n}")


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
    listed twice, and when the grid the header describes cannot be
    allocated.
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


def _fmt(x: float | None, template: str) -> str:
    """``template.format(x)``, or ``n/a`` for a metric that is None."""
    return "n/a" if x is None else template.format(x)


def format_metrics(report: MetricsReport) -> str:
    lines = ["traction parameter identification metrics",
             "-" * 44]
    for s in report.per_soil:
        lines.append(
            f"{s.label}: true a={s.true_a:.3f} "
            f"identified a={_fmt(s.identified_a, '{:.4f}')} "
            f"mu error={_fmt(s.mu_error_pct, '{:.2f}%')} "
            f"R^2={_fmt(s.r_squared, '{:.4f}')} ({s.samples} samples)")
    lines.append(f"rho_s error: {_fmt(report.rho_s_error_pct, '{:.2f}%')}")
    lines.append(f"map coverage: {report.coverage:.4f}")
    if report.coverage_interpolated is not None:
        lines.append(f"map coverage (interpolated): "
                     f"{report.coverage_interpolated:.4f}")
    lines.append(f"clamp violations: {report.clamp_violations}")
    lines.append(f"runtime: {report.runtime_s:.2f} s")
    return "\n".join(lines) + "\n"


def _estimate_map_score(samples: list[TelemetrySample],
                        truth: list[TruthRecord] | None, vehicle,
                        curve_family, config: EstimatorConfig, out_dir,
                        t0: float, resolution: float) -> MetricsReport | None:
    """The stages ``run`` and ``replay`` share: estimate ``curve_family``'s
    scale with ``config``, map, interpolate, write, then score against
    ``truth`` when it is given.

    The output directory is created only once every result is in hand, so
    a failed stage leaves none behind.  ``runtime_s`` counts from ``t0``.
    """
    records, est = run_estimation(samples, vehicle, curve_family, config)
    raw_map = build_map(records, resolution=resolution)
    interp_map = None if raw_map is None else mapping.interpolate(raw_map)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_estimates_csv(records, out / "estimates.csv")
    if truth is not None:
        write_timeseries_csv(records, truth, out / "timeseries.csv")
    if raw_map is not None:
        _write_map_layers(raw_map, out, "map_raw_")
        save_map_state(raw_map, out / "map_state.json")
    if interp_map is not None:
        _write_map_layers(interp_map, out, "map_")
    if truth is None:
        return None

    report = compute_metrics(records, truth, raw_map, interp_map,
                             curve_family, runtime_s=time.perf_counter() - t0,
                             clamp_violations=est.clamp_violations)
    with open(out / "metrics.json", "w") as fh:
        json.dump(asdict(report), fh, indent=1, allow_nan=False)
    with open(out / "metrics.txt", "w") as fh:
        fh.write(format_metrics(report))
    return report


def estimator_setup(scenario: sim.ScenarioSpec
                    ) -> tuple[tuple[float, float, float], EstimatorConfig]:
    """The curve family and the filter config a scenario is estimated
    with: the adhesion-curve shape (p, alpha1, alpha2) that the default
    soil and every region's soil share, and R from the speed-sensor
    noise.  Raises ValueError when the soils disagree on the shape."""
    field = scenario.terrain
    families = {(soil.p, soil.alpha1, soil.alpha2) for soil in
                (field.default_soil, *(soil for _, soil in field.regions))}
    if len(families) != 1:
        raise ValueError(f"the field's soils disagree on (p, alpha1, "
                         f"alpha2): {sorted(families)}; one curve family "
                         f"is identified per run")
    config = EstimatorConfig(sigma_omega=scenario.noise.sigma_omega,
                             sigma_v=scenario.noise.sigma_v)
    return families.pop(), config


def run(config: RunConfig) -> MetricsReport:
    """Load the scenario of ``config`` and run the whole pipeline on it:
    simulate, the shared stages, then the telemetry and truth logs.  The
    filter's measurement noise R is the scenario's speed-sensor noise, and
    it identifies the curve family of the scenario's soils.

    Raises ConfigurationError, before any stage runs, when the scenario
    file or the seed override is refused, or when the soils disagree on
    the curve family.
    """
    t0 = time.perf_counter()
    with _refused_input():
        scenario = sim.load_scenario(config.scenario_path)
        if config.seed is not None:
            scenario = replace(scenario, seed=config.seed)
        curve_family, est_config = estimator_setup(scenario)
    samples, truth = sim.simulate(scenario)
    report = _estimate_map_score(samples, truth, scenario.vehicle,
                                 curve_family, est_config, config.out_dir, t0,
                                 config.resolution)
    out = Path(config.out_dir)
    sim.write_telemetry_csv(samples, out / "telemetry.csv")
    sim.write_truth_csv(truth, out / "truth.csv")
    return report


def replay(telemetry_path, out_dir, truth_path=None,
           resolution: float = DEFAULT_RESOLUTION) -> MetricsReport | None:
    """Re-run estimation on a recorded telemetry CSV; score it only when
    the truth CSV is given.  The telemetry does not record the vehicle,
    the curve family or the sensor noise, so the default vehicle,
    ``STUBBLE_FAMILY`` and ``EstimatorConfig()``'s noise are assumed.

    Raises ConfigurationError, before any stage runs, unless the
    resolution is valid, both files read, the telemetry holds at least two
    samples whose ``t`` steps all lie within 1e-9 s of ``SAMPLE_DT`` and
    whose front-axle loads the default vehicle can carry, and the truth's
    ``t`` column equals the telemetry's.
    """
    t0 = time.perf_counter()
    with _refused_input():
        mapping.check_resolution(resolution)
        samples = sim.read_telemetry_csv(telemetry_path)
        if len(samples) < 2:
            raise ValueError("telemetry must contain at least two samples")
        for prev, cur in zip(samples, samples[1:]):
            if not abs(cur.t - prev.t - SAMPLE_DT) <= 1e-9:  # NaN fails too
                raise ValueError(
                    f"telemetry t steps from {prev.t!r} to {cur.t!r}; replay "
                    f"needs one sample every {SAMPLE_DT} s")
        vehicle = VehicleParams()
        for f_zf in {sample.f_zf for sample in samples}:
            wheel_geometry(f_zf, vehicle)
        truth = None
        if truth_path is not None:
            truth = sim.read_truth_csv(truth_path)
            if [tr.t for tr in truth] != [s.t for s in samples]:
                raise ValueError(
                    "the truth log's t column is not the telemetry's")
    return _estimate_map_score(samples, truth, vehicle, STUBBLE_FAMILY,
                               EstimatorConfig(), out_dir, t0, resolution)


# ---------------------------------------------------------------------------
# Argument parsing

class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is a configuration error: exit 1, not argparse's 2,
    which is the pipeline-error code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: configuration error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="tractionmap",
        description="Traction-parameter identification and mapping simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate, estimate, map and score")
    p_run.add_argument("scenario", help="scenario YAML file")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--resolution", type=float,
                       default=DEFAULT_RESOLUTION)

    p_rep = sub.add_parser("replay", help="re-run estimation on telemetry")
    p_rep.add_argument("telemetry", help="telemetry CSV file")
    p_rep.add_argument("--truth", default=None, help="aligned truth CSV")
    p_rep.add_argument("--out", default="out", help="output directory")
    p_rep.add_argument("--resolution", type=float,
                       default=DEFAULT_RESOLUTION)

    p_exp = sub.add_parser("export-map", help="export one layer of a saved map")
    p_exp.add_argument("state", help="map state JSON from a previous run")
    p_exp.add_argument("--layer", required=True,
                       choices=list(mapping.LAYER_NAMES))
    p_exp.add_argument("--out", default=None, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            report = run(RunConfig(
                scenario_path=args.scenario, out_dir=args.out, seed=args.seed,
                resolution=args.resolution))
        elif args.command == "replay":
            report = replay(args.telemetry, args.out, args.truth,
                            args.resolution)
        else:  # export-map
            with _refused_input():
                gmap = load_map_state(args.state)
            report = None
            out = args.out or f"map_{args.layer}.csv"
            mapping.export_layer_csv(gmap, args.layer, out)
            print(f"wrote {out}")
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pipeline errors surface verbatim
        print(f"pipeline error: {exc}", file=sys.stderr)
        return 2
    if report is not None:
        print(format_metrics(report), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
