"""Independent reference implementations used to check the package.

Everything here is deliberately written with a different algorithm than
the code under test: the Kalman filter in closed matrix form, the band
interpolation over an explicit all-pairs distance matrix, and the traction
equilibrium by bisection on the adhesion curve.

The one exception is ``reference_simulate``: the scalar plant as it was
before ``sim.simulate`` became an unrolled per-soil kernel, kept verbatim.
It calls ``slip`` and ``mu_curve`` per wheel and per RK4 stage, and the
kernel must reproduce its telemetry and truth exactly (``==``, no
tolerance).  Likewise ``reference_interpolate``,
``reference_export_layer_csv``, ``reference_save_map_state`` and
``reference_load_map_state`` are the map layer as it was before the
interpolation swept only the occupied box in row tiles and the map files
were written in bulk, kept verbatim; the map layer must reproduce their
arrays and file bytes exactly.  ``import_layer_csv`` reads a layer CSV
back for the round-trip tests.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from tractionmap import mapping
from tractionmap.dynamics import (
    GRAVITY,
    rolling_radius,
    slip,
    wheel_vertical_forces,
)
from tractionmap.mapping import (
    LAYER_NAMES,
    NUM_LAYERS,
    GroundMap,
    InterpolationConfig,
    _band_offsets,
)
from tractionmap.sim import (
    _SIGN_SPEED,
    INTERNAL_DT,
    SAMPLE_DT,
    ScenarioInfeasible,
    ScenarioSpec,
    TelemetrySample,
    TruthRecord,
    _Path,
    _plant_mu,
    soil_lookup,
)


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
    i_max = 4.0 * scenario.max_wheel_torque / max(scenario.ki, 1e-9)

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
        m_total = scenario.kp * err + scenario.ki * integral
        m_d = tuple(
            min(max(m_total / 4.0, 0.0),
                scenario.max_wheel_torque,
                scenario.power_cap / 4.0 / max(omega[i], 1.0))
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


def reference_interpolate(gmap: GroundMap,
                          cfg: InterpolationConfig = InterpolationConfig()) -> GroundMap:
    """Banded-distance interpolation/extrapolation over the whole grid.

    Returns a new map; the input is read only.  For each cell, each band's
    mean of non-empty source cells is weighted and the result normalized
    by the total weight of contributing bands (a weighted average, so a
    constant field is reproduced exactly and outputs stay within the
    per-layer source range).  Cells with no source within eps_low stay
    empty.  The high band includes d = 0, so a filled cell contributes to
    itself.
    """
    if not np.any(gmap.counts > 0):
        raise ValueError("map has no recorded cells")
    res = gmap.resolution
    bands = [
        (_band_offsets(-1.0, cfg.eps_high / res), cfg.w_high),
        (_band_offsets(cfg.eps_high / res, cfg.eps_mid / res), cfg.w_mid),
        (_band_offsets(cfg.eps_mid / res, cfg.eps_low / res), cfg.w_low),
    ]

    w, l = gmap.shape
    reach = int(np.floor(cfg.eps_low / res))
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
