"""Ground-truth simulator: a four-wheel vehicle on a field of soil regions.

The plant integrates the wheel and vehicle longitudinal dynamics at a 1 ms
internal step (RK4, with automatic sub-stepping where the slip coupling is
stiff), closes the loop with a PI speed controller under a total power cap,
and emits 10 Hz telemetry with white Gaussian noise per channel plus an
exactly aligned truth log for scoring.  Runs are reproducible per seed.

The 1 ms step runs as one kernel: constants are computed once per soil and
per vehicle, and the RK4 derivative is unrolled over the four wheels with
slip and the odd-extended adhesion curve inlined.  It keeps the evaluation
order and every sum's starting value of the scalar plant it replaced,
which ``tests/oracles.py`` keeps as ``reference_simulate``; the tests
require equal telemetry and truth (no tolerance).  The 10 Hz truth path
still calls ``slip`` and ``mu_curve``.

Telemetry CSV column order:
    t, x, y, w1, w2, w3, w4, v, md1, md2, md3, md4, fzf, fdx
Truth CSV column order:
    t, x, y, a, p, alpha1, alpha2, rho_s, mu1..mu4, slip1..slip4, v,
    w1..w4, drive_energy, drawbar_work
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
import yaml

from .dynamics import (
    GRAVITY,
    STANDSTILL_EPS,
    SoilParams,
    VehicleParams,
    mu_curve,
    slip,
    wheel_geometry,
)

INTERNAL_DT = 1e-3   # s, plant integration step
SAMPLE_DT = 0.1      # s, telemetry emission period (10 Hz)

# Speed scale of the smooth sign used for rolling-resistance forces; keeps
# a standing vehicle from being pushed backwards by a constant resistance
# term while matching the nominal equations exactly above ~0.5 m/s.
_SIGN_SPEED = 0.05


class OutOfField(ValueError):
    """Queried position outside the field extent."""


class ScenarioInfeasible(RuntimeError):
    """The vehicle cannot get moving (drawbar exceeds traction capability)."""


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle, edges inclusive."""

    x0: float
    y0: float
    x1: float
    y1: float

    def contains(self, pos: tuple[float, float]) -> bool:
        return self.x0 <= pos[0] <= self.x1 and self.y0 <= pos[1] <= self.y1


@dataclass(frozen=True)
class FieldSpec:
    """Planar field [0, w] x [0, l] of soil regions over a default soil.

    Lookup is deterministic: the first region containing the position wins.
    """

    extent: tuple[float, float]
    regions: tuple[tuple[Rect, SoilParams], ...]
    default_soil: SoilParams

    def __post_init__(self) -> None:
        w, l = self.extent
        for rect, _ in self.regions:
            if rect.x0 < 0 or rect.y0 < 0 or rect.x1 > w or rect.y1 > l:
                raise ValueError(f"region {rect} outside field extent {self.extent}")


@dataclass(frozen=True)
class DrawbarProfile:
    """Drawbar pull F_dx(t): ramped constant plus optional sinusoid."""

    constant: float = 15000.0
    ramp_time: float = 2.0
    sin_amplitude: float = 0.0
    sin_period: float = 10.0

    def __post_init__(self) -> None:
        if self.sin_amplitude > 0.0 and not self.sin_period > 0.0:
            raise ValueError("sin_period must be positive when sin_amplitude > 0")

    def __call__(self, t: float) -> float:
        ramp = 1.0 if self.ramp_time <= 0.0 else min(t / self.ramp_time, 1.0)
        f = ramp * self.constant
        if self.sin_amplitude > 0.0 and t >= self.ramp_time:
            f += self.sin_amplitude * math.sin(
                2.0 * math.pi * (t - self.ramp_time) / self.sin_period)
        return max(f, 0.0)


@dataclass(frozen=True)
class SensorNoise:
    """Per-channel white-noise standard deviations.

    Defaults assume wheel-speed encoders and carrier-phase GPS speed.
    """

    sigma_omega: float = 0.01   # rad/s
    sigma_v: float = 0.02       # m/s
    sigma_pos: float = 0.3      # m

    def __post_init__(self) -> None:
        for name in ("sigma_omega", "sigma_v", "sigma_pos"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything a reproducible run needs."""

    vehicle: VehicleParams
    terrain: FieldSpec
    path: tuple[tuple[float, float], ...]
    target_speed: float
    drawbar: DrawbarProfile = DrawbarProfile()
    noise: SensorNoise = SensorNoise()
    duration: float = 120.0
    seed: int = 42
    power_cap: float = 80e3        # W, total drive-train power
    max_wheel_torque: float = 5000.0   # N*m
    kp: float = 8000.0             # N*m per m/s, total
    ki: float = 3000.0             # N*m per m, total

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")
        if self.target_speed <= 0.0:
            raise ValueError("target_speed must be positive")
        if len(self.path) < 2:
            raise ValueError("path needs at least two waypoints")


@dataclass(frozen=True)
class TelemetrySample:
    """One noisy 10 Hz measurement tick."""

    t: float
    pos: tuple[float, float]
    omega_w: tuple[float, float, float, float]
    v: float
    m_d: tuple[float, float, float, float]
    f_zf: float
    f_dx: float


@dataclass(frozen=True)
class TruthRecord:
    """Exact plant state aligned 1:1 with a TelemetrySample."""

    t: float
    pos: tuple[float, float]
    soil: SoilParams
    mu: tuple[float, float, float, float]
    slip: tuple[float, float, float, float]
    v: float
    omega_w: tuple[float, float, float, float]
    drive_energy: float     # J, cumulative sum(M_d * omega) dt
    drawbar_work: float     # J, cumulative F_dx * v dt


def soil_lookup(terrain: FieldSpec, pos: tuple[float, float]) -> SoilParams:
    """Soil at a position: first containing region, else the default."""
    w, l = terrain.extent
    if not (0.0 <= pos[0] <= w and 0.0 <= pos[1] <= l):
        raise OutOfField(f"position {pos} outside field {terrain.extent}")
    for rect, soil in terrain.regions:
        if rect.contains(pos):
            return soil
    return terrain.default_soil


class _Path:
    """Arc-length parametrized polyline; clamps beyond the last waypoint."""

    def __init__(self, waypoints):
        self.points = [tuple(map(float, p)) for p in waypoints]
        self.lengths = []
        for a, b in zip(self.points, self.points[1:]):
            self.lengths.append(math.hypot(b[0] - a[0], b[1] - a[1]))
        self.total = sum(self.lengths)

    def point_at(self, s: float) -> tuple[float, float]:
        if s <= 0.0:
            return self.points[0]
        if s >= self.total:
            return self.points[-1]
        for (a, b), seg in zip(zip(self.points, self.points[1:]), self.lengths):
            if s <= seg:
                f = s / seg
                return (a[0] + f * (b[0] - a[0]), a[1] + f * (b[1] - a[1]))
            s -= seg
        return self.points[-1]


def _plant_mu(s: float, soil: SoilParams) -> float:
    # Odd extension for braking slip; the fitted curve is a driving-branch
    # model and its raw form diverges for s < 0.
    return mu_curve(s, soil) if s >= 0.0 else -mu_curve(-s, soil)


def _soil_constants(soil: SoilParams, m: float) -> tuple:
    """Per-soil factors of the plant kernel.

    ``p*a`` and ``a*(1-p)`` of the adhesion curve, the slope cap of the
    sub-step rule and ``rho_s*m*g`` of the soil resistance are formed
    exactly as the scalar expressions form them under left-to-right
    evaluation, so hoisting them changes no result bit.
    """
    a, p = soil.a, soil.p
    slope_cap = a * (p * abs(soil.alpha1) + (1.0 - p) * abs(soil.alpha2))
    return (a, p * a, a * (1.0 - p), soil.alpha1, soil.alpha2, slope_cap,
            soil.rho_s * m * GRAVITY)


def simulate(scenario: ScenarioSpec) -> tuple[list[TelemetrySample], list[TruthRecord]]:
    """Run the closed-loop plant and return aligned telemetry and truth.

    Deterministic for a fixed ScenarioSpec (seed included).  Raises
    ScenarioInfeasible when the vehicle has not reached 10% of the target
    speed 30 s in.
    """
    veh = scenario.vehicle
    f_zf = 0.5 * (veh.vehicle_mass - 4.0 * veh.wheel_mass) * GRAVITY
    # rolling_radius raises NonPositiveRadius for r_d <= 0, so the kernel's
    # inlined slip drops the per-call radius check of dynamics.slip.
    f_z, r_d = wheel_geometry(f_zf, veh)
    j_w = veh.wheel_inertia
    rho_t = veh.tire_rr_coeff
    m = veh.vehicle_mass
    path = _Path(scenario.path)
    rng = np.random.default_rng(scenario.seed)

    emit_every = round(SAMPLE_DT / INTERNAL_DT)
    n_steps = round(scenario.duration / INTERNAL_DT)
    i_max = 4.0 * scenario.max_wheel_torque / max(scenario.ki, 1e-9)
    target_speed = scenario.target_speed
    kp, ki = scenario.kp, scenario.ki
    max_torque = scenario.max_wheel_torque
    power_share = scenario.power_cap / 4.0
    noise = scenario.noise

    # Per-wheel constants: radius, load, tire rolling-resistance torque
    # r_d*rho_t*F_z and the stiffness numerator r_d^2*F_z.
    r0, r1, r2, r3 = r_d
    fz0, fz1, fz2, fz3 = f_z
    rt0, rt1, rt2, rt3 = (r_d[i] * rho_t * f_z[i] for i in range(4))
    rrf0, rrf1, rrf2, rrf3 = (r_d[i] * r_d[i] * f_z[i] for i in range(4))
    exp = math.exp
    tanh = math.tanh

    w0 = w1 = w2 = w3 = 0.0
    v = 0.0
    s_path = 0.0
    integral = 0.0
    drive_energy = 0.0
    drawbar_work = 0.0
    v_peak = 0.0
    feasibility_checked = False
    soil_prev = None

    samples: list[TelemetrySample] = []
    truth: list[TruthRecord] = []

    def deriv(w0, w1, w2, w3, v):
        # Slip (dynamics.slip) and the odd-extended curve (_plant_mu) per
        # wheel; the clamps keep max(-1.0, s)'s -1.0 for a NaN slip.
        v_abs = abs(v)

        x = r0 * abs(w0)
        if v_abs < STANDSTILL_EPS and x < STANDSTILL_EPS:
            s = 0.0
        elif v_abs <= x:
            s = 1.0 - v_abs / x
        else:
            s = -1.0 + x / v_abs
        if s > -1.0:
            if s >= 1.0:
                s = 1.0
        else:
            s = -1.0
        if s >= 0.0:
            fh0 = (a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz0
        else:
            s = -s
            fh0 = -(a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz0
        dw0 = (md0 - r0 * fh0 - rt0 * tanh(w0 * r0 / _SIGN_SPEED)) / j_w

        x = r1 * abs(w1)
        if v_abs < STANDSTILL_EPS and x < STANDSTILL_EPS:
            s = 0.0
        elif v_abs <= x:
            s = 1.0 - v_abs / x
        else:
            s = -1.0 + x / v_abs
        if s > -1.0:
            if s >= 1.0:
                s = 1.0
        else:
            s = -1.0
        if s >= 0.0:
            fh1 = (a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz1
        else:
            s = -s
            fh1 = -(a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz1
        dw1 = (md1 - r1 * fh1 - rt1 * tanh(w1 * r1 / _SIGN_SPEED)) / j_w

        x = r2 * abs(w2)
        if v_abs < STANDSTILL_EPS and x < STANDSTILL_EPS:
            s = 0.0
        elif v_abs <= x:
            s = 1.0 - v_abs / x
        else:
            s = -1.0 + x / v_abs
        if s > -1.0:
            if s >= 1.0:
                s = 1.0
        else:
            s = -1.0
        if s >= 0.0:
            fh2 = (a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz2
        else:
            s = -s
            fh2 = -(a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz2
        dw2 = (md2 - r2 * fh2 - rt2 * tanh(w2 * r2 / _SIGN_SPEED)) / j_w

        x = r3 * abs(w3)
        if v_abs < STANDSTILL_EPS and x < STANDSTILL_EPS:
            s = 0.0
        elif v_abs <= x:
            s = 1.0 - v_abs / x
        else:
            s = -1.0 + x / v_abs
        if s > -1.0:
            if s >= 1.0:
                s = 1.0
        else:
            s = -1.0
        if s >= 0.0:
            fh3 = (a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz3
        else:
            s = -s
            fh3 = -(a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz3
        dw3 = (md3 - r3 * fh3 - rt3 * tanh(w3 * r3 / _SIGN_SPEED)) / j_w

        dv = (0.0 + fh0 + fh1 + fh2 + fh3 - f_dx
              - rho_s_mg * tanh(v / _SIGN_SPEED)) / m
        return dw0, dw1, dw2, dw3, dv

    for k in range(n_steps + 1):
        t = k * INTERNAL_DT
        if not feasibility_checked and t >= 30.0:
            feasibility_checked = True
            if v_peak < 0.1 * target_speed:
                raise ScenarioInfeasible(
                    f"peak speed {v_peak:.3f} m/s after 30 s; drawbar likely "
                    f"exceeds traction capability")
        pos = path.point_at(s_path)
        soil = soil_lookup(scenario.terrain, pos)
        if soil is not soil_prev:
            soil_prev = soil
            a, pa, ap, al1, al2, slope_cap, rho_s_mg = _soil_constants(soil, m)
        f_dx = scenario.drawbar(t)

        # PI speed controller with anti-windup, equal torque split, per-wheel
        # power and torque limits.
        err = target_speed - v
        integral = integral + err * INTERNAL_DT
        if 0.0 > integral:
            integral = 0.0
        if i_max < integral:
            integral = i_max
        m_total = kp * err + ki * integral
        md = m_total / 4.0
        if 0.0 > md:
            md = 0.0
        if max_torque < md:
            md = max_torque
        md0 = md1 = md2 = md3 = md
        lim = power_share / (1.0 if 1.0 > w0 else w0)
        if lim < md:
            md0 = lim
        lim = power_share / (1.0 if 1.0 > w1 else w1)
        if lim < md:
            md1 = lim
        lim = power_share / (1.0 if 1.0 > w2 else w2)
        if lim < md:
            md2 = lim
        lim = power_share / (1.0 if 1.0 > w3 else w3)
        if lim < md:
            md3 = lim

        if k % emit_every == 0:
            omega = (w0, w1, w2, w3)
            m_d = (md0, md1, md2, md3)
            slips = tuple(slip(v, omega[i], r_d[i]) for i in range(4))
            mus = tuple(_plant_mu(s, soil) for s in slips)
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
                omega_w=omega, drive_energy=drive_energy,
                drawbar_work=drawbar_work))

        if k == n_steps:
            break

        # Sub-step where the slip-adhesion coupling is stiff: the wheel-mode
        # rate is bounded by r^2 F_z mu'(0) / (J max(|v|, r|w|)).
        v_abs = abs(v)
        lam = 0.0
        m_speed = v_abs
        x = r0 * abs(w0)
        if x > m_speed:
            m_speed = x
        if 1e-3 > m_speed:
            m_speed = 1e-3
        x = rrf0 * slope_cap / (j_w * m_speed)
        if x > lam:
            lam = x
        m_speed = v_abs
        x = r1 * abs(w1)
        if x > m_speed:
            m_speed = x
        if 1e-3 > m_speed:
            m_speed = 1e-3
        x = rrf1 * slope_cap / (j_w * m_speed)
        if x > lam:
            lam = x
        m_speed = v_abs
        x = r2 * abs(w2)
        if x > m_speed:
            m_speed = x
        if 1e-3 > m_speed:
            m_speed = 1e-3
        x = rrf2 * slope_cap / (j_w * m_speed)
        if x > lam:
            lam = x
        m_speed = v_abs
        x = r3 * abs(w3)
        if x > m_speed:
            m_speed = x
        if 1e-3 > m_speed:
            m_speed = 1e-3
        x = rrf3 * slope_cap / (j_w * m_speed)
        if x > lam:
            lam = x
        n_sub = min(200, max(1, int(INTERNAL_DT * lam / 2.0) + 1))
        h = INTERNAL_DT / n_sub
        hh = 0.5 * h
        h6 = h / 6.0

        for _ in range(n_sub):
            k1w0, k1w1, k1w2, k1w3, k1v = deriv(w0, w1, w2, w3, v)
            k2w0, k2w1, k2w2, k2w3, k2v = deriv(
                w0 + hh * k1w0, w1 + hh * k1w1, w2 + hh * k1w2,
                w3 + hh * k1w3, v + hh * k1v)
            k3w0, k3w1, k3w2, k3w3, k3v = deriv(
                w0 + hh * k2w0, w1 + hh * k2w1, w2 + hh * k2w2,
                w3 + hh * k2w3, v + hh * k2v)
            k4w0, k4w1, k4w2, k4w3, k4v = deriv(
                w0 + h * k3w0, w1 + h * k3w1, w2 + h * k3w2,
                w3 + h * k3w3, v + h * k3v)
            w0 = w0 + h6 * (k1w0 + 2.0 * k2w0 + 2.0 * k3w0 + k4w0)
            w1 = w1 + h6 * (k1w1 + 2.0 * k2w1 + 2.0 * k3w1 + k4w1)
            w2 = w2 + h6 * (k1w2 + 2.0 * k2w2 + 2.0 * k3w2 + k4w2)
            w3 = w3 + h6 * (k1w3 + 2.0 * k2w3 + 2.0 * k3w3 + k4w3)
            v = v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)

        # sum() keeps the reference's accumulation (and its int 0 start).
        drive_energy += sum((md0 * w0, md1 * w1, md2 * w2,
                             md3 * w3)) * INTERNAL_DT
        v_pos = 0.0 if 0.0 > v else v
        drawbar_work += f_dx * v_pos * INTERNAL_DT
        s_path += v_pos * INTERNAL_DT
        if v > v_peak:
            v_peak = v

    return samples, truth


# ---------------------------------------------------------------------------
# Presets

STUBBLE_FAMILY = (0.6, -20.0, -3.0)   # (p, alpha1, alpha2)

SOIL_FIRM = SoilParams(a=0.85, p=0.6, alpha1=-20.0, alpha2=-3.0, rho_s=0.04)
SOIL_MEDIUM = SoilParams(a=0.70, p=0.6, alpha1=-20.0, alpha2=-3.0, rho_s=0.06)
SOIL_LOOSE = SoilParams(a=0.55, p=0.6, alpha1=-20.0, alpha2=-3.0, rho_s=0.08)


def default_field(length: float = 250.0, width: float = 20.0) -> FieldSpec:
    """Three parallel soil strips across the driving direction."""
    third = length / 3.0
    return FieldSpec(
        extent=(length, width),
        regions=(
            (Rect(0.0, 0.0, third, width), SOIL_FIRM),
            (Rect(third, 0.0, 2.0 * third, width), SOIL_MEDIUM),
            (Rect(2.0 * third, 0.0, length, width), SOIL_LOOSE),
        ),
        default_soil=SOIL_MEDIUM)


def default_scenario(duration: float = 120.0, seed: int = 42,
                     noise: SensorNoise = SensorNoise()) -> ScenarioSpec:
    """Three-soil straight-line cruise at 2 m/s with an 8 kN drawbar pull."""
    terrain = default_field()
    return ScenarioSpec(
        vehicle=VehicleParams(),
        terrain=terrain,
        path=((2.0, 10.0), (terrain.extent[0] - 2.0, 10.0)),
        target_speed=2.0,
        drawbar=DrawbarProfile(),
        noise=noise,
        duration=duration,
        seed=seed)


# ---------------------------------------------------------------------------
# Scenario files and CSV logs

def _soil_from_mapping(d: dict) -> SoilParams:
    return SoilParams(a=float(d["a"]), p=float(d["p"]),
                      alpha1=float(d["alpha1"]), alpha2=float(d["alpha2"]),
                      rho_s=float(d["rho_s"]))


def load_scenario(path) -> ScenarioSpec:
    """Build a ScenarioSpec from a YAML scenario file.

    Every section is optional except ``field`` (extent, default_soil) and
    ``path``; omitted keys fall back to the defaults above.
    """
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"scenario file {path} is not a mapping")

    veh = VehicleParams(**raw.get("vehicle", {}))

    fld = raw["field"]
    regions = tuple(
        (Rect(*map(float, reg["rect"])), _soil_from_mapping(reg["soil"]))
        for reg in fld.get("regions", []))
    terrain = FieldSpec(extent=tuple(map(float, fld["extent"])),
                        regions=regions,
                        default_soil=_soil_from_mapping(fld["default_soil"]))

    drawbar = DrawbarProfile(**raw.get("drawbar", {}))
    noise = SensorNoise(**raw.get("noise", {}))

    kwargs = {}
    for key in ("target_speed", "duration", "seed", "power_cap",
                "max_wheel_torque", "kp", "ki"):
        if key in raw:
            kwargs[key] = raw[key]
    return ScenarioSpec(
        vehicle=veh, terrain=terrain,
        path=tuple(tuple(map(float, p)) for p in raw["path"]),
        drawbar=drawbar, noise=noise, **kwargs)


def write_telemetry_csv(samples, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "w1", "w2", "w3", "w4", "v",
                         "md1", "md2", "md3", "md4", "fzf", "fdx"])
        for s in samples:
            writer.writerow([repr(float(x)) for x in
                             (s.t, *s.pos, *s.omega_w, s.v, *s.m_d,
                              s.f_zf, s.f_dx)])


def read_telemetry_csv(path) -> list[TelemetrySample]:
    samples = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["t", "x", "y"]:
            raise ValueError(f"unrecognized telemetry header {header[:3]}")
        for row in reader:
            vals = [float(x) for x in row]
            samples.append(TelemetrySample(
                t=vals[0], pos=(vals[1], vals[2]),
                omega_w=tuple(vals[3:7]), v=vals[7],
                m_d=tuple(vals[8:12]), f_zf=vals[12], f_dx=vals[13]))
    return samples


def write_truth_csv(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "y", "a", "p", "alpha1", "alpha2", "rho_s",
                         "mu1", "mu2", "mu3", "mu4",
                         "slip1", "slip2", "slip3", "slip4", "v",
                         "w1", "w2", "w3", "w4",
                         "drive_energy", "drawbar_work"])
        for r in records:
            soil = r.soil
            writer.writerow([repr(float(x)) for x in
                             (r.t, *r.pos, soil.a, soil.p, soil.alpha1,
                              soil.alpha2, soil.rho_s, *r.mu, *r.slip, r.v,
                              *r.omega_w, r.drive_energy, r.drawbar_work)])


def read_truth_csv(path) -> list[TruthRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            vals = [float(x) for x in row]
            records.append(TruthRecord(
                t=vals[0], pos=(vals[1], vals[2]),
                soil=SoilParams(a=vals[3], p=vals[4], alpha1=vals[5],
                                alpha2=vals[6], rho_s=vals[7]),
                mu=tuple(vals[8:12]), slip=tuple(vals[12:16]), v=vals[16],
                omega_w=tuple(vals[17:21]),
                drive_energy=vals[21], drawbar_work=vals[22]))
    return records
