"""Independent reference implementations used to check the package.

Everything here is deliberately written with a different algorithm than
the code under test: the Kalman filter in closed matrix form, the band
interpolation over an explicit all-pairs distance matrix, and the traction
equilibrium by bisection on the adhesion curve.

The one exception is ``reference_simulate``: the scalar four-wheel plant
as it was before ``sim.simulate`` became a per-soil kernel that integrates
one wheel for all four, kept verbatim.  It calls ``slip`` and ``mu_curve``
per wheel and per RK4 stage, and the kernel must reproduce its telemetry
and truth exactly (equal ``repr``, no tolerance).  Likewise ``reference_interpolate``,
``reference_export_layer_csv``, ``reference_save_map_state`` and
``reference_load_map_state`` are the map layer as it was before the
interpolation swept only the occupied box in row tiles and the map files
were written in bulk, kept verbatim; the map layer must reproduce their
arrays and file bytes exactly.  ``reference_write_telemetry_csv``,
``reference_write_truth_csv``, ``reference_write_estimates_csv`` and
``reference_write_timeseries_csv`` are the four log writers as they were
before they joined each row's ``repr`` fields themselves, with the
standard ``csv`` writer; the writers must reproduce their bytes exactly.  ``reference_build_map`` with ``insert``
is the map build written without ``mapping``: each kept record's cell
against the first kept position, one allocation of those cells' box, then
one scalar insert per record in stream order; the bulk build must
reproduce its origin, shape, values and counts exactly.  ``world_to_grid``
and ``OutOfBounds`` are the scalar world-to-cell transform the tests
check positions with.
``reference_process_model``,
``reference_sigma_points``, ``reference_predict``, ``reference_update``,
``reference_adapt_q``, ``reference_dynamics_intensity`` and
``ReferenceTractionEstimator`` are the filter step as it was before it
evaluated one RK4 derivative, built each FilterState directly, cached the
sigma weights and computed the unscented transform in closed form; the
estimator must reproduce their records and final belief within the
tolerances ``test_estimator.py`` states.  ``reference_sigma_points``,
``reference_predict`` and ``reference_update`` on a ``NonlinearModel``
are the only copy of the sigma-point transform: ``ukf`` keeps just the
closed form, and the tests check it against them on affine models.
``measurement_model`` is the reference filter's output function.
``reference_fuzzy_factor`` is the fuzzy rule as it was before it evaluated
its two fixed segments directly; ``ukf.fuzzy_factor`` must return the same
float bit for bit.  ``import_layer_csv`` reads a
layer CSV back for the round-trip tests.

``WheelState``, ``wheel_accel`` and ``vehicle_accel`` are the per-wheel
scalar force balances that check ``estimator.process_model``, and
``observability_check`` guards the claim that the measured speeds make the
estimator's state observable.

``THREE_SOIL`` is the case study's scenario file, the one definition of
it that the tests load, and ``three_soils`` gives its firm, medium and
loose soils to the tests that need one.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from tractionmap import cli, mapping, ukf
from tractionmap.dynamics import (
    GRAVITY,
    DegenerateSlip,
    VehicleParams,
    invert_mu_for_a,
    rolling_radius,
    slip,
    wheel_vertical_forces,
)
from tractionmap.estimator import (
    ACCEL_SCALE,
    CURVE_SCALE_RANGE,
    IDX_MU,
    IDX_OMEGA,
    IDX_RHO_S,
    IDX_V,
    INTENSITY_WINDOW,
    MEAS_DIM,
    MU_BOUNDS,
    RHO_S_BOUNDS,
    STATE_DIM,
    TORQUE_RATE_SCALE,
    EstimateRecord,
    TractionEstimator,
    TractionInput,
    process_model,
)
from tractionmap.mapping import (
    EPS_HIGH,
    EPS_LOW,
    EPS_MID,
    LAYER_NAMES,
    NUM_LAYERS,
    W_HIGH,
    W_LOW,
    W_MID,
    GroundMap,
    _band_offsets,
)
from tractionmap.sim import (
    _SIGN_SPEED,
    INTERNAL_DT,
    KI,
    KP,
    MAX_WHEEL_TORQUE,
    POWER_CAP,
    SAMPLE_DT,
    TELEMETRY_COLUMNS,
    TRUTH_COLUMNS,
    ScenarioInfeasible,
    ScenarioSpec,
    TelemetrySample,
    TruthRecord,
    _Path,
    _plant_mu,
    load_scenario,
    soil_lookup,
)

THREE_SOIL = Path(__file__).resolve().parent.parent / "scenarios" / "three_soil.yaml"


def three_soils() -> tuple:
    """The soils of the case study's regions in path order: firm
    (a = 0.85), medium (0.70) and loose (0.55)."""
    return tuple(soil for _, soil in load_scenario(THREE_SOIL).terrain.regions)


class LinearKalmanFilter:
    """Textbook closed-form Kalman filter for x' = F x + q, y = H x + r."""

    def __init__(self, f_mat, h_mat, q, r, x0, p0):
        self.f = np.asarray(f_mat, dtype=float)
        self.h = np.asarray(h_mat, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.r = np.asarray(r, dtype=float)
        self.x = np.asarray(x0, dtype=float).copy()
        self.p = np.asarray(p0, dtype=float).copy()

    def predict(self):
        self.x = self.f @ self.x
        self.p = self.f @ self.p @ self.f.T + self.q

    def update(self, y):
        s = self.h @ self.p @ self.h.T + self.r
        k = self.p @ self.h.T @ np.linalg.inv(s)
        self.x = self.x + k @ (np.asarray(y) - self.h @ self.x)
        self.p = self.p - k @ s @ k.T


def brute_force_interpolate(values: np.ndarray, counts: np.ndarray,
                            resolution: float, eps: tuple[float, float, float],
                            weights: tuple[float, float, float]):
    """Reference band interpolation via an explicit all-pairs distance matrix.

    eps = (low, mid, high) in meters, weights = (low, mid, high).  Returns
    (values, counts) arrays of the interpolated map.
    """
    w, l, layers = values.shape
    eps_low, eps_mid, eps_high = (e / resolution for e in eps)
    w_low, w_mid, w_high = weights

    idx = np.array([(i, j) for i in range(w) for j in range(l)])
    dist = (np.abs(idx[:, None, 0] - idx[None, :, 0])
            + np.abs(idx[:, None, 1] - idx[None, :, 1])).astype(float)
    filled = (counts > 0).reshape(-1)
    flat = values.reshape(-1, layers)

    bands = [
        (dist <= eps_high, w_high),
        ((dist > eps_high) & (dist <= eps_mid), w_mid),
        ((dist > eps_mid) & (dist <= eps_low), w_low),
    ]
    out_vals = np.zeros_like(flat)
    out_counts = np.zeros(w * l, dtype=int)
    for cell in range(w * l):
        acc = np.zeros(layers)
        weight_sum = 0.0
        for mask, band_w in bands:
            sel = mask[cell] & filled
            if np.any(sel):
                acc += band_w * flat[sel].mean(axis=0)
                weight_sum += band_w
        if weight_sum > 0.0:
            out_vals[cell] = acc / weight_sum
            out_counts[cell] = 1
    return out_vals.reshape(w, l, layers), out_counts.reshape(w, l)


def steady_state_slip(soil, vehicle, f_dx: float, tol: float = 1e-12) -> float:
    """Cruise-equilibrium slip: mu(s) * m g = F_dx + rho_s m g, by bisection."""
    from tractionmap.dynamics import GRAVITY, mu_curve

    mg = vehicle.vehicle_mass * GRAVITY
    target = (f_dx + soil.rho_s * mg) / mg
    lo, hi = 0.0, 0.999999
    if mu_curve(hi, soil) < target:
        raise ValueError("drawbar exceeds traction capability")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mu_curve(mid, soil) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _smooth_sign(speed: float) -> float:
    return math.tanh(speed / _SIGN_SPEED)


def reference_simulate(scenario: ScenarioSpec) -> tuple[list[TelemetrySample], list[TruthRecord]]:
    """Run the closed-loop plant and return aligned telemetry and truth.

    Deterministic for a fixed ScenarioSpec (seed included).  Raises
    ScenarioInfeasible when the vehicle has not reached 10% of the target
    speed 30 s in.
    """
    veh = scenario.vehicle
    f_zf = 0.5 * (veh.vehicle_mass - 4.0 * veh.wheel_mass) * GRAVITY
    f_z = wheel_vertical_forces(f_zf, veh)
    r_d = tuple(rolling_radius(f, veh) for f in f_z)
    j_w = veh.wheel_inertia
    rho_t = veh.tire_rr_coeff
    m = veh.vehicle_mass
    path = _Path(scenario.path)
    rng = np.random.default_rng(scenario.seed)

    emit_every = round(SAMPLE_DT / INTERNAL_DT)
    n_steps = round(scenario.duration / INTERNAL_DT)
    i_max = 4.0 * MAX_WHEEL_TORQUE / KI

    omega = [0.0, 0.0, 0.0, 0.0]
    v = 0.0
    s_path = 0.0
    integral = 0.0
    drive_energy = 0.0
    drawbar_work = 0.0
    v_peak = 0.0
    feasibility_checked = False

    samples: list[TelemetrySample] = []
    truth: list[TruthRecord] = []

    for k in range(n_steps + 1):
        t = k * INTERNAL_DT
        if not feasibility_checked and t >= 30.0:
            feasibility_checked = True
            if v_peak < 0.1 * scenario.target_speed:
                raise ScenarioInfeasible(
                    f"peak speed {v_peak:.3f} m/s after 30 s; drawbar likely "
                    f"exceeds traction capability")
        pos = path.point_at(s_path)
        soil = soil_lookup(scenario.terrain, pos)
        f_dx = scenario.drawbar(t)

        # PI speed controller with anti-windup, equal torque split, per-wheel
        # power and torque limits.
        err = scenario.target_speed - v
        integral = min(max(integral + err * INTERNAL_DT, 0.0), i_max)
        m_total = KP * err + KI * integral
        m_d = tuple(
            min(max(m_total / 4.0, 0.0),
                MAX_WHEEL_TORQUE,
                POWER_CAP / 4.0 / max(omega[i], 1.0))
            for i in range(4))

        if k % emit_every == 0:
            slips = tuple(slip(v, omega[i], r_d[i]) for i in range(4))
            mus = tuple(_plant_mu(s, soil) for s in slips)
            noise = scenario.noise
            pos_noisy = (pos[0] + rng.normal(0.0, noise.sigma_pos),
                         pos[1] + rng.normal(0.0, noise.sigma_pos))
            omega_noisy = tuple(w + rng.normal(0.0, noise.sigma_omega)
                                for w in omega)
            v_noisy = v + rng.normal(0.0, noise.sigma_v)
            samples.append(TelemetrySample(
                t=t, pos=pos_noisy, omega_w=omega_noisy, v=v_noisy,
                m_d=m_d, f_zf=f_zf, f_dx=f_dx))
            truth.append(TruthRecord(
                t=t, pos=pos, soil=soil, mu=mus, slip=slips, v=v,
                omega_w=tuple(omega), drive_energy=drive_energy,
                drawbar_work=drawbar_work))

        if k == n_steps:
            break

        # Sub-step where the slip-adhesion coupling is stiff: the wheel-mode
        # rate is bounded by r^2 F_z mu'(0) / (J max(|v|, r|w|)).
        slope_cap = soil.a * (soil.p * abs(soil.alpha1)
                              + (1.0 - soil.p) * abs(soil.alpha2))
        lam = 0.0
        for i in range(4):
            m_speed = max(abs(v), r_d[i] * abs(omega[i]), 1e-3)
            lam = max(lam, r_d[i] * r_d[i] * f_z[i] * slope_cap / (j_w * m_speed))
        n_sub = min(200, max(1, int(INTERNAL_DT * lam / 2.0) + 1))
        h = INTERNAL_DT / n_sub

        def deriv(w_state, v_state):
            total_fh = 0.0
            dw = [0.0] * 4
            for i in range(4):
                s_i = slip(v_state, w_state[i], r_d[i])
                f_h = _plant_mu(s_i, soil) * f_z[i]
                dw[i] = (m_d[i] - r_d[i] * f_h
                         - r_d[i] * rho_t * f_z[i]
                         * _smooth_sign(w_state[i] * r_d[i])) / j_w
                total_fh += f_h
            dv = (total_fh - f_dx
                  - soil.rho_s * m * GRAVITY * _smooth_sign(v_state)) / m
            return dw, dv

        for _ in range(n_sub):
            k1w, k1v = deriv(omega, v)
            k2w, k2v = deriv([omega[i] + 0.5 * h * k1w[i] for i in range(4)],
                             v + 0.5 * h * k1v)
            k3w, k3v = deriv([omega[i] + 0.5 * h * k2w[i] for i in range(4)],
                             v + 0.5 * h * k2v)
            k4w, k4v = deriv([omega[i] + h * k3w[i] for i in range(4)],
                             v + h * k3v)
            omega = [omega[i] + h / 6.0 * (k1w[i] + 2.0 * k2w[i]
                                           + 2.0 * k3w[i] + k4w[i])
                     for i in range(4)]
            v = v + h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)

        drive_energy += sum(m_d[i] * omega[i] for i in range(4)) * INTERNAL_DT
        drawbar_work += f_dx * max(v, 0.0) * INTERNAL_DT
        s_path += max(v, 0.0) * INTERNAL_DT
        v_peak = max(v_peak, v)

    return samples, truth


# --- map layer: full-grid sweep and per-cell file I/O -------------------------


def reference_interpolate(gmap: GroundMap) -> GroundMap:
    """Banded-distance interpolation/extrapolation over the whole grid.

    Returns a new map; the input is read only.  For each cell, each band's
    mean of non-empty source cells is weighted and the result normalized
    by the total weight of contributing bands (a weighted average, so a
    constant field is reproduced exactly and outputs stay within the
    per-layer source range).  Cells with no source within EPS_LOW stay
    empty.  The high band includes d = 0, so a filled cell contributes to
    itself.
    """
    if not np.any(gmap.counts > 0):
        raise ValueError("map has no recorded cells")
    res = gmap.resolution
    bands = [
        (_band_offsets(-1.0, EPS_HIGH / res), W_HIGH),
        (_band_offsets(EPS_HIGH / res, EPS_MID / res), W_MID),
        (_band_offsets(EPS_MID / res, EPS_LOW / res), W_LOW),
    ]

    w, l = gmap.shape
    reach = int(np.floor(EPS_LOW / res))
    filled = gmap.counts > 0
    src = np.where(filled[..., None], gmap.values, 0.0)
    pad_vals = np.pad(src, ((reach, reach), (reach, reach), (0, 0)))
    pad_mask = np.pad(filled.astype(float), reach)

    weighted = np.zeros((w, l, NUM_LAYERS))
    weight_total = np.zeros((w, l))
    for offsets, band_weight in bands:
        if not offsets:
            continue
        band_sum = np.zeros((w, l, NUM_LAYERS))
        band_n = np.zeros((w, l))
        for di, dj in offsets:
            band_sum += pad_vals[reach + di:reach + di + w,
                                 reach + dj:reach + dj + l]
            band_n += pad_mask[reach + di:reach + di + w,
                               reach + dj:reach + dj + l]
        has = band_n > 0
        mean = np.zeros((w, l, NUM_LAYERS))
        mean[has] = band_sum[has] / band_n[has, None]
        weighted += np.where(has[..., None], band_weight * mean, 0.0)
        weight_total += np.where(has, band_weight, 0.0)

    out = GroundMap.empty(gmap.origin, res, w, l)
    reached = weight_total > 0
    out.values[reached] = weighted[reached] / weight_total[reached, None]
    out.counts[reached] = 1
    return out


def reference_export_layer_csv(gmap: GroundMap, layer: str, path) -> None:
    """Write one layer as ``i,j,<layer>`` rows, empty cells omitted."""
    if layer not in LAYER_NAMES:
        raise ValueError(f"unknown layer {layer!r}; expected one of {LAYER_NAMES}")
    k = LAYER_NAMES.index(layer)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", layer])
        for i in range(gmap.shape[0]):
            for j in range(gmap.shape[1]):
                if gmap.counts[i, j] > 0:
                    writer.writerow([i, j, repr(float(gmap.values[i, j, k]))])


def reference_save_map_state(gmap: GroundMap, path) -> None:
    cells = []
    for i in range(gmap.shape[0]):
        for j in range(gmap.shape[1]):
            if gmap.counts[i, j] > 0:
                cells.append([int(i), int(j), int(gmap.counts[i, j])]
                             + [float(v) for v in gmap.values[i, j]])
    state = {"origin": list(gmap.origin), "resolution": gmap.resolution,
             "width": int(gmap.shape[0]), "length": int(gmap.shape[1]),
             "layers": list(mapping.LAYER_NAMES), "cells": cells}
    with open(path, "w") as fh:
        json.dump(state, fh, indent=1)


def reference_load_map_state(path) -> GroundMap:
    with open(path) as fh:
        state = json.load(fh)
    gmap = GroundMap.empty(origin=tuple(state["origin"]),
                           resolution=state["resolution"],
                           width=state["width"], length=state["length"])
    for cell in state["cells"]:
        i, j, count = int(cell[0]), int(cell[1]), int(cell[2])
        gmap.counts[i, j] = count
        gmap.values[i, j] = cell[3:]
    return gmap


# --- log writers: the standard csv writer --------------------------------------


def reference_write_telemetry_csv(samples, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TELEMETRY_COLUMNS)
        for s in samples:
            writer.writerow([repr(float(x)) for x in
                             (s.t, *s.pos, *s.omega_w, s.v, *s.m_d,
                              s.f_zf, s.f_dx)])


def reference_write_truth_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_COLUMNS)
        for r in records:
            soil = r.soil
            writer.writerow([repr(float(x)) for x in
                             (r.t, *r.pos, soil.a, soil.p, soil.alpha1,
                              soil.alpha2, soil.rho_s, *r.mu, *r.slip, r.v,
                              *r.omega_w, r.drive_energy, r.drawbar_work)])


def reference_write_estimates_csv(records: list[EstimateRecord], path) -> None:
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


def reference_write_timeseries_csv(records: list[EstimateRecord],
                                   truth: list[TruthRecord], path) -> None:
    paired = cli._aligned_truth(records, truth)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["t"]
        for w in range(1, 5):
            header += [f"mu{w}_true", f"mu{w}_est"]
        header += ["rho_s_true", "rho_s_est"]
        writer.writerow(header)
        for tr, rec in zip(paired, records):
            row = [tr.t]
            for w in range(4):
                row += [tr.mu[w], rec.mu[w]]
            row += [tr.soil.rho_s, rec.rho_s]
            writer.writerow([repr(float(x)) for x in row])


# --- map build: one scalar insert per record -------------------------------------


class OutOfBounds(IndexError):
    """Position maps outside the current grid; carries the offending index."""

    def __init__(self, index: tuple[int, int]):
        super().__init__(f"cell index {index} outside grid")
        self.index = index


def world_to_grid(pos: tuple[float, float], gmap: GroundMap) -> tuple[int, int]:
    """Cell index of a world position: floor((pos - origin)/resolution)."""
    i = int(np.floor((pos[0] - gmap.origin[0]) / gmap.resolution))
    j = int(np.floor((pos[1] - gmap.origin[1]) / gmap.resolution))
    w, l = gmap.shape
    if not (0 <= i < w and 0 <= j < l):
        raise OutOfBounds((i, j))
    return i, j


def insert(gmap: GroundMap, cell: tuple[int, int], values) -> GroundMap:
    """Running-mean insert of one parameter vector at a cell index."""
    values = np.asarray(values, dtype=float)
    if values.shape != (NUM_LAYERS,):
        raise ValueError(f"expected {NUM_LAYERS} layer values")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    i, j = cell
    count = gmap.counts[i, j]
    gmap.values[i, j] = (gmap.values[i, j] * count + values) / (count + 1)
    gmap.counts[i, j] = count + 1
    return gmap


def reference_build_map(records: list[EstimateRecord],
                        resolution: float) -> GroundMap | None:
    """Raw ground map from the estimate stream, sized once.

    Only records with a successful curve-scale extraction are inserted;
    the stored layers are (a, rho_s).  Each kept record's cell is its
    floored offset from the first kept position; the grid is the box of
    those cells, its origin that box's lower corner, and the records are
    inserted one by one in stream order.
    """
    kept = [rec for rec in records if rec.curve_scale is not None]
    if not kept:
        return None
    x0, y0 = kept[0].position
    cells = [(math.floor((x - x0) / resolution),
              math.floor((y - y0) / resolution))
             for x, y in (rec.position for rec in kept)]
    ii, jj = zip(*cells)
    lo_i, lo_j = min(ii), min(jj)
    # an axis the box does not extend below the first position keeps its
    # coordinate exactly, a -0.0 included
    gmap = GroundMap.empty(origin=(x0 + lo_i * resolution if lo_i else x0,
                                   y0 + lo_j * resolution if lo_j else y0),
                           resolution=resolution,
                           width=max(ii) - lo_i + 1, length=max(jj) - lo_j + 1)
    for rec, (i, j) in zip(kept, cells):
        insert(gmap, (i - lo_i, j - lo_j), (rec.curve_scale, rec.rho_s))
    return gmap


def import_layer_csv(path) -> tuple[str, dict[tuple[int, int], float]]:
    """Read a layer CSV back as {(i, j): value}; returns (layer name, cells)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if len(header) != 3 or header[:2] != ["i", "j"]:
            raise ValueError(f"unrecognized layer CSV header {header}")
        layer = header[2]
        cells = {(int(i), int(j)): float(v) for i, j, v in reader}
    return layer, cells


# ---------------------------------------------------------------------------
# Force balances of a single wheel and of the vehicle, written per wheel with
# scalars: the independent route that checks ``estimator.process_model``.

@dataclass(frozen=True)
class WheelState:
    """Kinematics and loads of a single wheel at one instant."""

    omega_w: float   # rad/s, wheel angular speed
    v_w: float       # m/s, hub ground speed
    f_z: float       # N, vertical ground force
    m_d: float       # N*m, drive torque

    def __post_init__(self) -> None:
        if self.f_z < 0.0:
            raise ValueError("f_z must be non-negative")


def wheel_accel(ws: WheelState, mu: float, params: VehicleParams) -> float:
    """Wheel angular acceleration from the torque balance.

    J_w * domega = M_d - r_d*F_h - r_d*rho_t*F_z with F_h = mu*F_z.
    """
    r_d = rolling_radius(ws.f_z, params)
    return (ws.m_d
            - r_d * mu * ws.f_z
            - r_d * params.tire_rr_coeff * ws.f_z) / params.wheel_inertia


def vehicle_accel(mu_i, f_z_i, f_dx: float, rho_s: float,
                  params: VehicleParams) -> float:
    """Vehicle longitudinal acceleration.

    m * dv = sum_i mu_i*F_z_i - F_dx - rho_s*m*g.
    """
    if len(mu_i) != 4 or len(f_z_i) != 4:
        raise ValueError("expected per-wheel sequences of length 4")
    if any(f < 0.0 for f in f_z_i):
        raise ValueError("vertical forces must be non-negative")
    traction = sum(m * f for m, f in zip(mu_i, f_z_i))
    return (traction - f_dx
            - rho_s * params.vehicle_mass * GRAVITY) / params.vehicle_mass


# ---------------------------------------------------------------------------
# Observability of the estimator's linearized model (the paper's claim that
# wheel speeds and ground speed identify all ten states).

def observability_check(params: VehicleParams, x0: np.ndarray,
                        f_zf: float | None = None) -> bool:
    """Numerical observability of the linearized model at ``x0``.

    Builds the discrete observability matrix [C; CA; ...; CA^(n-1)] from a
    central-difference Jacobian of the process model and checks for full
    rank.  The Jacobian does not depend on torques or drawbar, so a static
    front-axle load is a sufficient stand-in input.
    """
    x0 = np.asarray(x0, dtype=float)
    if f_zf is None:
        f_zf = 0.5 * (params.vehicle_mass - 4.0 * params.wheel_mass) * GRAVITY
    u = TractionInput(m_d=(0.0,) * 4, f_zf=f_zf, f_dx=0.0)

    n = STATE_DIM
    jac = np.empty((n, n))
    for j in range(n):
        h = 1e-6 * max(1.0, abs(x0[j]))
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (process_model(xp, u, params)
                     - process_model(xm, u, params)) / (2.0 * h)

    c = np.zeros((5, n))
    c[:5, :5] = np.eye(5)
    blocks = [c]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ jac)
    obs = np.vstack(blocks)
    return int(np.linalg.matrix_rank(obs)) == n


# ---------------------------------------------------------------------------
# The filter step before one-derivative RK4, direct FilterState
# construction, cached sigma weights and the closed-form transform, kept
# verbatim.  The edits: ``ReferenceTractionEstimator`` calls the reference
# functions below instead of the ``ukf`` and ``estimator`` ones; they read
# the sample period, the Q adaptation and the fuzzy rule base from the
# module constants that replaced those settings; ``reference_adapt_q``
# returns its input until the innovation window is full, as
# ``ukf.adapt_q`` does; ``reference_update`` keeps the innovation window
# as one array and the diagonal of K S K^T in place of S, and
# ``reference_adapt_q`` reads that diagonal, the FilterState fields that
# replaced the tuple of innovations and ``innov_cov``; and the sigma-point
# spread, the model and sigma types, the decomposition error and the
# measurement function, which left the package with the sigma-point path,
# are defined here.

# Sigma-point spread of the standard scaled unscented transform.
ALPHA = 0.1
BETA = 2.0
KAPPA = 0.0


class DecompositionFailure(np.linalg.LinAlgError):
    """Covariance not positive semi-definite within jitter tolerance."""


@dataclass(frozen=True)
class NonlinearModel:
    """Discrete-time model x' = f(x, u) + q, y = h(x) + r.

    ``f`` and ``h`` must accept state arrays of shape (n,) or (N, n) and
    map them row-wise (the filter propagates all sigma points in one call);
    the state and output sizes are read from the arrays.
    """

    f: Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    h: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SigmaSet:
    """2n+1 sigma points with their mean and covariance weights."""

    points: np.ndarray   # (2n+1, n)
    w_mean: np.ndarray   # (2n+1,)
    w_cov: np.ndarray    # (2n+1,)


def measurement_model(x: np.ndarray) -> np.ndarray:
    """Output projection: the five measured speeds [omega_1..4, v]."""
    return np.asarray(x, dtype=float)[..., :MEAS_DIM]


def _reference_symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def _reference_cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, escalating diagonal jitter 1e-12 -> 1e-6."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    n = cov.shape[0]
    jitter = 1e-12
    while jitter <= 1e-6:
        try:
            return np.linalg.cholesky(cov + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            jitter *= 10.0
    raise DecompositionFailure(
        "covariance not PSD within jitter tolerance (filter divergence?)")


def reference_sigma_points(mean: np.ndarray, cov: np.ndarray) -> SigmaSet:
    mean = np.asarray(mean, dtype=float)
    cov = _reference_symmetrize(np.asarray(cov, dtype=float))
    n = mean.shape[0]
    lam = ALPHA ** 2 * (n + KAPPA) - n
    scale = n + lam
    root = _reference_cholesky_with_jitter(scale * cov)

    points = np.empty((2 * n + 1, n))
    points[0] = mean
    points[1:n + 1] = mean + root.T
    points[n + 1:] = mean - root.T

    w_mean = np.full(2 * n + 1, 0.5 / scale)
    w_cov = w_mean.copy()
    w_mean[0] = lam / scale
    w_cov[0] = lam / scale + (1.0 - ALPHA ** 2 + BETA)
    return SigmaSet(points=points, w_mean=w_mean, w_cov=w_cov)


def _reference_weighted_moments(points: np.ndarray, w_mean: np.ndarray,
                                w_cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = w_mean @ points
    dev = points - mean
    cov = (dev * w_cov[:, None]).T @ dev
    return mean, _reference_symmetrize(cov)


def reference_predict(fs: ukf.FilterState, model: NonlinearModel, u,
                      noise: ukf.NoiseSpec) -> ukf.FilterState:
    ss = reference_sigma_points(fs.mean, fs.cov)
    propagated = np.asarray(model.f(ss.points, u), dtype=float)
    mean, cov = _reference_weighted_moments(propagated, ss.w_mean, ss.w_cov)
    cov = cov + (fs.phi * fs.a_diag)[:, None] * noise.q
    return replace(fs, mean=mean, cov=_reference_symmetrize(cov),
                   predicted=True)


def reference_update(fs: ukf.FilterState, model: NonlinearModel,
                     y: np.ndarray, noise: ukf.NoiseSpec) -> ukf.FilterState:
    if not fs.predicted:
        raise ValueError("update requires a predicted FilterState")
    y = np.asarray(y, dtype=float)
    ss = reference_sigma_points(fs.mean, fs.cov)
    outputs = np.asarray(model.h(ss.points), dtype=float)

    y_hat = ss.w_mean @ outputs
    dev_y = outputs - y_hat
    s_cov = (dev_y * ss.w_cov[:, None]).T @ dev_y + noise.r
    s_cov = _reference_symmetrize(s_cov)
    dev_x = ss.points - fs.mean
    cross = (dev_x * ss.w_cov[:, None]).T @ dev_y

    try:
        gain = np.linalg.solve(s_cov, cross.T).T
    except np.linalg.LinAlgError as exc:
        raise ukf.SingularInnovationCov(str(exc)) from exc
    cond = np.linalg.cond(s_cov)
    if not np.isfinite(cond) or cond > 1e14:
        raise ukf.SingularInnovationCov(
            f"innovation covariance condition {cond:.2e}")

    innovation = y - y_hat
    mean = fs.mean + gain @ innovation
    cov = _reference_symmetrize(fs.cov - gain @ s_cov @ gain.T)

    residuals = (innovation[None] if fs.residuals is None else
                 np.vstack((fs.residuals, innovation))[-ukf.ADAPT_WINDOW:])
    return replace(fs, mean=mean, cov=cov, residuals=residuals,
                   gain=gain, spread=np.diag(gain @ s_cov @ gain.T),
                   predicted=False)


def reference_adapt_q(fs: ukf.FilterState) -> np.ndarray:
    if fs.residuals is None or len(fs.residuals) < ukf.ADAPT_WINDOW:
        return fs.a_diag

    res = np.asarray(fs.residuals[-ukf.ADAPT_WINDOW:])
    s_bar = res.T @ res / (ukf.ADAPT_WINDOW - 1)
    actual = np.diag(fs.gain @ s_bar @ fs.gain.T)
    # the diagonal of K S K^T, which reference_update keeps
    expected = fs.spread

    a_new = fs.a_diag.copy()
    usable = expected > 1e-300
    ratio = actual[usable] / expected[usable]
    a_new[usable] = (fs.a_diag[usable] ** (1.0 - ukf.ADAPT_LEAK)
                     * (1.0 - ukf.ADAPT_GAIN + ukf.ADAPT_GAIN * ratio))
    return np.clip(a_new, ukf.A_MIN, ukf.A_MAX)


def reference_process_model(x: np.ndarray, u: TractionInput, dt: float,
                            params: VehicleParams) -> np.ndarray:
    if not 0.0 < dt <= 0.1:
        raise ValueError("dt must be in (0, 0.1]")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("state must be finite")

    f_z = np.array(wheel_vertical_forces(u.f_zf, params))
    r_d = np.array([rolling_radius(f, params) for f in f_z])
    m_d = np.asarray(u.m_d, dtype=float)
    m = params.vehicle_mass

    def deriv(state: np.ndarray) -> np.ndarray:
        mu = state[..., IDX_MU]
        rho_s = state[..., IDX_RHO_S]
        out = np.zeros_like(state)
        out[..., IDX_OMEGA] = (m_d - r_d * (mu + params.tire_rr_coeff) * f_z) \
            / params.wheel_inertia
        out[..., IDX_V] = ((mu * f_z).sum(axis=-1) - u.f_dx
                           - rho_s * m * GRAVITY) / m
        return out

    k1 = deriv(x)
    k2 = deriv(x + 0.5 * dt * k1)
    k3 = deriv(x + 0.5 * dt * k2)
    k4 = deriv(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_dynamics_intensity(recent_inputs, recent_measurements) -> float:
    inputs = list(recent_inputs)
    meas = list(recent_measurements)
    if not inputs or not meas:
        raise ValueError("windows must be nonempty")

    torque_rate = 0.0
    for prev, cur in zip(inputs, inputs[1:]):
        for a, b in zip(prev.m_d, cur.m_d):
            torque_rate = max(torque_rate, abs(b - a))
    torque_rate /= SAMPLE_DT

    if len(meas) >= 2:
        span = (len(meas) - 1) * SAMPLE_DT
        accel = abs(meas[-1].v - meas[0].v) / span
    else:
        accel = 0.0

    raw = torque_rate / TORQUE_RATE_SCALE + accel / ACCEL_SCALE
    return min(1.0, max(0.0, raw))


# The fuzzy rule as a generic triangle evaluator, before ``ukf.fuzzy_factor``
# evaluated the two segments its fixed centers give, kept verbatim; the one
# edit is that the centers, then ``ukf.FUZZY_CENTERS``, are a local tuple.
def reference_fuzzy_factor(dynamics_signal: float) -> float:
    if dynamics_signal < 0.0:
        raise ValueError("dynamics_signal must be non-negative")
    c = (0.0, 0.5, 1.0)
    x = min(dynamics_signal, c[2])

    def triangle(left: float, center: float, right: float) -> float:
        if x <= left or x >= right:
            return 1.0 if x == center else 0.0
        if x <= center:
            return (x - left) / (center - left) if center > left else 1.0
        return (right - x) / (right - center)

    memberships = (
        triangle(c[0] - (c[1] - c[0]), c[0], c[1]),
        triangle(c[0], c[1], c[2]),
        triangle(c[1], c[2], c[2] + (c[2] - c[1])),
    )
    total = sum(memberships)
    return sum(m * out for m, out in zip(memberships, ukf.FUZZY_OUTPUTS)) / total


class ReferenceTractionEstimator(TractionEstimator):
    """``TractionEstimator`` stepping with the reference filter above; its
    intensity rescans the last INTENSITY_WINDOW inputs and measurements."""

    def __init__(self, vehicle, curve_family, config):
        super().__init__(vehicle, curve_family, config)
        self.model = NonlinearModel(
            f=lambda x, u: reference_process_model(x, u, SAMPLE_DT, vehicle),
            h=measurement_model)
        self._inputs = deque(maxlen=INTENSITY_WINDOW)
        self._measurements = deque(maxlen=INTENSITY_WINDOW)

    def initialize(self, y):
        super().initialize(y)
        self._measurements.append(y)

    def step(self, u, y, t, position):
        if self.state is None:
            raise RuntimeError("call initialize() with the first measurement")
        cfg = self.config
        self._inputs.append(u)
        fs = self.state

        if cfg.fuzzy_enabled:
            signal = reference_dynamics_intensity(self._inputs,
                                                  self._measurements)
            fs = replace(fs, phi=reference_fuzzy_factor(signal))
        if cfg.adapt_enabled:
            fs = replace(fs, a_diag=reference_adapt_q(fs))

        fs = reference_predict(fs, self.model, u, self.noise)
        fs = reference_update(fs, self.model, y.as_vector(), self.noise)
        fs = self._clamp_parameters(fs)
        self.state = fs
        self._measurements.append(y)
        return self._make_record(fs, u, t, position)

    def _clamp_parameters(self, fs):
        mean = fs.mean
        clipped = mean.copy()
        clipped[IDX_MU] = np.clip(mean[IDX_MU], *MU_BOUNDS)
        clipped[IDX_RHO_S] = np.clip(mean[IDX_RHO_S], *RHO_S_BOUNDS)
        if not np.array_equal(clipped, mean):
            self.clamp_violations += 1
            return replace(fs, mean=clipped)
        return fs

    def _make_record(self, fs, u, t, position):
        f_z = wheel_vertical_forces(u.f_zf, self.vehicle)
        v_hat = float(fs.mean[IDX_V])
        mu_hat = [float(m) for m in fs.mean[IDX_MU]]
        slips = tuple(
            slip(v_hat, float(fs.mean[i]), rolling_radius(f_z[i], self.vehicle))
            for i in range(4))

        p, alpha1, alpha2 = self.curve_family
        scales = []
        for mu_i, s_i in zip(mu_hat, slips):
            try:
                scale = invert_mu_for_a(mu_i, s_i, p, alpha1, alpha2)
            except DegenerateSlip:
                continue
            if CURVE_SCALE_RANGE[0] < scale <= CURVE_SCALE_RANGE[1]:
                scales.append(scale)
        curve_scale = float(np.mean(scales)) if scales else None

        return EstimateRecord(
            t=t, position=position, mu=tuple(mu_hat),
            rho_s=float(fs.mean[IDX_RHO_S]), slip=slips,
            curve_scale=curve_scale,
            cov_diag=tuple(np.diag(fs.cov)))
