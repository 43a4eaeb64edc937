"""Ground-truth simulator: a four-wheel vehicle on a field of soil regions.

The plant integrates the wheel and vehicle longitudinal dynamics at a 1 ms
internal step (RK4, with automatic sub-stepping where the slip coupling is
stiff), closes the loop with a PI speed controller under a total power cap,
and emits 10 Hz telemetry with white Gaussian noise per channel plus an
exactly aligned truth log for scoring.  Runs are reproducible per seed.

The 1 ms step runs as one kernel: constants are computed once per soil and
per vehicle, and the RK4 state is one wheel speed plus the vehicle speed,
with slip and the odd-extended adhesion curve inlined.  The four wheels
carry bit-equal loads, radii, torques and speeds (see ``simulate``), so
one wheel is integrated and replicated into the four-wheel telemetry and
truth.  The four RK4 stages are written out in the step, and ``abs``,
``min``, ``max`` and ``sum`` are written as comparisons and additions, so
the step calls nothing but ``math.exp`` and ``math.tanh``: a sub-step
evaluates four stages, and a call per stage cost more than the stage's
arithmetic (the 120 s case study's ``simulate`` took 0.34 s with a stage
function and 0.25 s without, on a 2-core x86-64 box under Python 3.11).
``math.tanh`` is called only for |z| < 22 (or a NaN z): glibc's ``tanh``
returns exactly +-1.0 from |z| >= 22 on, in a branch of its own, so the
step writes those values in (at cruise the arguments are about 40; the
case study's ``simulate`` took 2-7 % less CPU time without the calls,
the medians of two runs of 12 interleaved seeds on the same box).
The kernel keeps the evaluation order and every sum's starting
value of the scalar four-wheel plant it replaced, which
``tests/oracles.py`` keeps as ``reference_simulate``; the tests require
``repr``-equal telemetry and truth (no tolerance).  The 10 Hz truth path
still calls ``slip`` and ``mu_curve`` per wheel.

The 1 ms step reads its inputs only when they can change.  The drawbar
profile is called until the time from which its pull is constant (the end
of the ramp; never with a sinusoid).  The position is looked up at the
10 Hz samples and wherever the soil is looked up.  The soil is looked up
only inside a guard band around an arc length where the path can cross a
region or field edge (see ``_soil_bands``), and once after each band;
between bands it cannot change, so the last soil stands.

Telemetry CSV column order:
    t, x, y, w1, w2, w3, w4, v, md1, md2, md3, md4, fzf, fdx
Truth CSV column order:
    t, x, y, a, p, alpha1, alpha2, rho_s, mu1..mu4, slip1..slip4, v,
    w1..w4, drive_energy, drawbar_work
"""

from __future__ import annotations

import bisect
import csv
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np
import yaml

from .dynamics import (
    GRAVITY,
    SAMPLE_DT,
    STANDSTILL_EPS,
    SoilParams,
    VehicleParams,
    mu_curve,
    slip,
    wheel_geometry,
)

INTERNAL_DT = 1e-3   # s, plant integration step; telemetry every SAMPLE_DT

# The speed controller and the drive-train limits of the vehicle.
KP = 8000.0                # N*m per m/s, total
KI = 3000.0                # N*m per m, total
POWER_CAP = 80e3           # W, total drive-train power
MAX_WHEEL_TORQUE = 5000.0  # N*m

# Speed scale of the smooth sign used for rolling-resistance forces; keeps
# a standing vehicle from being pushed backwards by a constant resistance
# term while matching the nominal equations exactly above ~0.5 m/s.
_SIGN_SPEED = 0.05

# Half-width of the guard band around a possible soil change, relative to
# the field and path size: about 4500 float ulps, far above the rounding of
# _Path.point_at's running arc length and of a position coordinate.
_GUARD = 1e-12


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
        if not (0.0 < w < math.inf and 0.0 < l < math.inf):
            raise ValueError(f"field extent {self.extent} must be positive and finite")
        for rect, _ in self.regions:
            if not (rect.x0 >= 0 and rect.y0 >= 0 and rect.x1 <= w and rect.y1 <= l):
                raise ValueError(f"region {rect} outside field extent {self.extent}")
            # An inverted rectangle contains no position.
            if not (rect.x0 <= rect.x1 and rect.y0 <= rect.y1):
                raise ValueError(f"region {rect} needs x0 <= x1 and y0 <= y1")


@dataclass(frozen=True)
class DrawbarProfile:
    """Drawbar pull F_dx(t): ramped constant plus optional sinusoid, never
    below 0; the constant, the ramp time and the sinusoid's amplitude are
    non-negative."""

    constant: float = 15000.0
    ramp_time: float = 2.0
    sin_amplitude: float = 0.0
    sin_period: float = 10.0

    def __post_init__(self) -> None:
        for name in ("constant", "ramp_time", "sin_amplitude", "sin_period"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"drawbar {name} must be finite")
        for name in ("constant", "ramp_time", "sin_amplitude"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"drawbar {name} must not be negative")
        if self.sin_amplitude > 0.0 and not self.sin_period > 0.0:
            raise ValueError("sin_period must be positive when sin_amplitude > 0")

    def __call__(self, t: float) -> float:
        ramp = 1.0 if self.ramp_time <= 0.0 else min(t / self.ramp_time, 1.0)
        f = ramp * self.constant
        if self.sin_amplitude > 0.0 and t >= self.ramp_time:
            f += self.sin_amplitude * math.sin(
                2.0 * math.pi * (t - self.ramp_time) / self.sin_period)
        return max(f, 0.0)

    def constant_from(self) -> float:
        """Time from which the pull is exactly ``constant`` (inf with a
        sinusoid): from ``ramp_time`` on, ``min(t / ramp_time, 1.0)`` is
        1.0."""
        return math.inf if self.sin_amplitude > 0.0 else self.ramp_time


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
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")


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

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not SAMPLE_DT <= self.duration < math.inf:
            raise ValueError(f"duration must be at least the {SAMPLE_DT} s "
                             "sample period and finite")
        if not 0.0 < self.target_speed < math.inf:
            raise ValueError("target_speed must be positive and finite")
        if (isinstance(self.seed, bool) or not isinstance(self.seed, Integral)
                or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if len(self.path) < 2:
            raise ValueError("path needs at least two waypoints")
        w, l = self.terrain.extent
        for x, y in self.path:
            if not (0.0 <= x <= w and 0.0 <= y <= l):
                raise ValueError(f"path waypoint {(x, y)} must be finite and "
                                 f"inside the field extent {self.terrain.extent}")
        if not _Path(self.path).total > 0.0:
            raise ValueError("path must have a positive length")


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


def _soil_bands(path: _Path, terrain: FieldSpec) -> list[float]:
    """Arc-length guard bands around every place the path can cross a
    field or region edge, merged, as ``[lo0, hi0, lo1, hi1, ..., inf]``.

    Along a segment each position coordinate is a monotone function of the
    arc length, so every comparison ``soil_lookup`` makes flips at most
    once, at the exact crossing of that edge.  The band around a crossing
    is sized in the crossing coordinate and divided by the coordinate's
    slope ``|d coord / ds|``: on a shallow segment a coordinate ulp spans a
    long arc.  An edge within the band's reach of a segment's coordinate
    range counts as a crossing, clamped to the segment.  A segment whose
    coordinate does not change (``a + f * 0.0 == a``) crosses nothing on
    that axis.  Outside the bands ``soil_lookup(point_at(s))`` returns one
    soil per gap; ``OutOfField``, which only rounding next to a field edge
    can cause (the waypoints lie in the field), falls inside a band.
    """
    w, l = terrain.extent
    edges = ((0.0, w, *(e for rect, _ in terrain.regions
                        for e in (rect.x0, rect.x1))),
             (0.0, l, *(e for rect, _ in terrain.regions
                        for e in (rect.y0, rect.y1))))
    arc_err = _GUARD * len(path.lengths) * path.total
    coord_err = _GUARD * (w + l)
    bands = []
    start = 0.0
    for (a, b), seg in zip(zip(path.points, path.points[1:]), path.lengths):
        for k in (0, 1):
            d = b[k] - a[k]
            if d == 0.0:
                continue
            half = arc_err + coord_err * (seg / abs(d))
            reach = abs(d) / seg * arc_err + coord_err
            lo_k, hi_k = min(a[k], b[k]) - reach, max(a[k], b[k]) + reach
            for e in edges[k]:
                if lo_k <= e <= hi_k:
                    s = start + min(max((e - a[k]) / d, 0.0), 1.0) * seg
                    bands.append((s - half, s + half))
        start += seg
    merged = []
    for lo, hi in sorted(bands):
        if merged and lo <= merged[-1]:
            merged[-1] = max(merged[-1], hi)
        else:
            merged += (lo, hi)
    return merged + [math.inf]


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

    The run ends after ``duration`` or at the first 10 Hz sample at or
    past the path's last waypoint, whichever comes first.  Deterministic
    for a fixed ScenarioSpec (seed included).  Raises
    ScenarioInfeasible when the vehicle has not reached 10% of the target
    speed 30 s in.
    """
    veh = scenario.vehicle
    f_zf = 0.5 * (veh.vehicle_mass - 4.0 * veh.wheel_mass) * GRAVITY
    # f_zf is exactly half the body weight (halving is exact in binary
    # floating point), so the four loads and radii are bit-equal.  The
    # wheels start at rest on one soil and take one torque command, and
    # each wheel's power limit reads only its own speed, so they stay
    # bit-equal: the kernel integrates one wheel.  rolling_radius raises
    # NonPositiveRadius for r_d <= 0, so the kernel's inlined slip drops
    # the per-call radius check of dynamics.slip.
    f_z, r_d = wheel_geometry(f_zf, veh)
    fz, r = f_z[0], r_d[0]
    j_w = veh.wheel_inertia
    m = veh.vehicle_mass
    path = _Path(scenario.path)
    rng = np.random.default_rng(scenario.seed)

    emit_every = round(SAMPLE_DT / INTERNAL_DT)
    n_steps = round(scenario.duration / INTERNAL_DT)
    i_max = 4.0 * MAX_WHEEL_TORQUE / KI
    target_speed = scenario.target_speed
    kp, ki = KP, KI
    max_torque = MAX_WHEEL_TORQUE
    power_share = POWER_CAP / 4.0
    noise = scenario.noise

    # Tire rolling-resistance torque r_d*rho_t*F_z and the stiffness
    # numerator r_d^2*F_z of the sub-step rule.
    rt = r * veh.tire_rr_coeff * fz
    rrf = r * r * fz
    exp = math.exp
    tanh = math.tanh
    eps = STANDSTILL_EPS
    sign_speed = _SIGN_SPEED
    # Step sizes of the usual single sub-step: INTERNAL_DT / 1 is INTERNAL_DT.
    h1 = INTERNAL_DT
    hh1 = 0.5 * h1
    h61 = h1 / 6.0
    point_at = path.point_at
    terrain = scenario.terrain
    bands = _soil_bands(path, terrain)
    drawbar = scenario.drawbar
    drawbar_constant_from = drawbar.constant_from()

    w = 0.0
    v = 0.0
    s_path = 0.0
    integral = 0.0
    drive_energy = 0.0
    drawbar_work = 0.0
    v_peak = 0.0
    feasibility_checked = False
    # The held soil stands while s_path (which never decreases) < soil_until.
    soil_until = -math.inf
    drawbar_live = True

    samples: list[TelemetrySample] = []
    truth: list[TruthRecord] = []

    for k in range(n_steps + 1):
        t = k * INTERNAL_DT
        if not feasibility_checked and t >= 30.0:
            feasibility_checked = True
            if v_peak < 0.1 * target_speed:
                raise ScenarioInfeasible(
                    f"peak speed {v_peak:.3f} m/s after 30 s; drawbar likely "
                    f"exceeds traction capability")
        if not s_path < soil_until:
            soil = soil_lookup(terrain, point_at(s_path))
            a, pa, ap, al1, al2, slope_cap, rho_s_mg = _soil_constants(soil, m)
            # In a band (odd j) look up again next step; in a gap hold the
            # soil up to the next band.
            j = bisect.bisect_right(bands, s_path)
            soil_until = s_path if j % 2 else bands[j]
        if drawbar_live:
            f_dx = drawbar(t)
            drawbar_live = t < drawbar_constant_from

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
        lim = power_share / (1.0 if 1.0 > w else w)
        if lim < md:
            md = lim

        if k % emit_every == 0:
            # Truth evaluates each wheel through slip and _plant_mu (the
            # benchmark's tracer counts these calls per wheel).
            pos = point_at(s_path)
            omega = (w, w, w, w)
            slips = tuple(slip(v, w, r_i) for r_i in r_d)
            mus = tuple(_plant_mu(s, soil) for s in slips)
            pos_noisy = (pos[0] + rng.normal(0.0, noise.sigma_pos),
                         pos[1] + rng.normal(0.0, noise.sigma_pos))
            omega_noisy = tuple(w + rng.normal(0.0, noise.sigma_omega)
                                for _ in range(4))
            v_noisy = v + rng.normal(0.0, noise.sigma_v)
            samples.append(TelemetrySample(
                t=t, pos=pos_noisy, omega_w=omega_noisy, v=v_noisy,
                m_d=(md, md, md, md), f_zf=f_zf, f_dx=f_dx))
            truth.append(TruthRecord(
                t=t, pos=pos, soil=soil, mu=mus, slip=slips, v=v,
                omega_w=omega, drive_energy=drive_energy,
                drawbar_work=drawbar_work))
            if s_path >= path.total:
                break

        if k == n_steps:
            break

        # Sub-step where the slip-adhesion coupling is stiff: the wheel-mode
        # rate is bounded by r^2 F_z mu'(0) / (J max(|v|, r|w|)).  Here and
        # in the stages, x if x > 0.0 else 0.0 - x is abs(x) without the
        # builtin's call: the same bits (0.0 - x turns -0.0 into 0.0) but for
        # a NaN's sign, which only meets comparisons that a NaN fails.
        m_speed = v if v > 0.0 else 0.0 - v
        x = r * (w if w > 0.0 else 0.0 - w)
        if x > m_speed:
            m_speed = x
        if 1e-3 > m_speed:
            m_speed = 1e-3
        lam = rrf * slope_cap / (j_w * m_speed)
        if not lam > 0.0:   # max(0.0, lam), NaN included
            lam = 0.0
        # min(200, max(1, ...)): lam >= 0.0, so int(...) + 1 >= 1.
        n_sub = int(INTERNAL_DT * lam / 2.0) + 1
        if n_sub == 1:
            h, hh, h6 = h1, hh1, h61
        else:
            if n_sub > 200:
                n_sub = 200
            h = INTERNAL_DT / n_sub
            hh = 0.5 * h
            h6 = h / 6.0

        # Each RK4 stage is written out (see the module docstring).  A stage
        # evaluates slip (dynamics.slip) and the odd-extended curve
        # (_plant_mu) at its (ws, vs).  The slip needs no clamp: for finite
        # speeds each branch lies in [-1, 1] (see dynamics.slip), and a NaN
        # speed gives a NaN slip, there as here.  The vehicle row adds the
        # four equal wheel forces one by one, as the four-wheel sum does
        # (4.0 * fh can round differently).  th is tanh(z), written as the
        # +-1.0 that glibc's tanh returns for |z| >= 22; a NaN z fails both
        # comparisons and still reaches tanh.
        while n_sub:
            n_sub -= 1
            # stage 1 at (w, v)
            va = v if v > 0.0 else 0.0 - v
            x = r * (w if w > 0.0 else 0.0 - w)
            if va < eps and x < eps:
                s = 0.0
            elif va <= x:
                s = 1.0 - va / x
            else:
                s = -1.0 + x / va
            if s >= 0.0:
                fh = (a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz
            else:
                s = -s
                fh = -(a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz
            z = w * r / sign_speed
            th = 1.0 if z >= 22.0 else (-1.0 if z <= -22.0 else tanh(z))
            k1w = (md - r * fh - rt * th) / j_w
            z = v / sign_speed
            th = 1.0 if z >= 22.0 else (-1.0 if z <= -22.0 else tanh(z))
            k1v = (0.0 + fh + fh + fh + fh - f_dx - rho_s_mg * th) / m

            # stage 2 at the half step along k1
            ws = w + hh * k1w
            vs = v + hh * k1v
            va = vs if vs > 0.0 else 0.0 - vs
            x = r * (ws if ws > 0.0 else 0.0 - ws)
            if va < eps and x < eps:
                s = 0.0
            elif va <= x:
                s = 1.0 - va / x
            else:
                s = -1.0 + x / va
            if s >= 0.0:
                fh = (a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz
            else:
                s = -s
                fh = -(a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz
            z = ws * r / sign_speed
            th = 1.0 if z >= 22.0 else (-1.0 if z <= -22.0 else tanh(z))
            k2w = (md - r * fh - rt * th) / j_w
            z = vs / sign_speed
            th = 1.0 if z >= 22.0 else (-1.0 if z <= -22.0 else tanh(z))
            k2v = (0.0 + fh + fh + fh + fh - f_dx - rho_s_mg * th) / m

            # stage 3 at the half step along k2
            ws = w + hh * k2w
            vs = v + hh * k2v
            va = vs if vs > 0.0 else 0.0 - vs
            x = r * (ws if ws > 0.0 else 0.0 - ws)
            if va < eps and x < eps:
                s = 0.0
            elif va <= x:
                s = 1.0 - va / x
            else:
                s = -1.0 + x / va
            if s >= 0.0:
                fh = (a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz
            else:
                s = -s
                fh = -(a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz
            z = ws * r / sign_speed
            th = 1.0 if z >= 22.0 else (-1.0 if z <= -22.0 else tanh(z))
            k3w = (md - r * fh - rt * th) / j_w
            z = vs / sign_speed
            th = 1.0 if z >= 22.0 else (-1.0 if z <= -22.0 else tanh(z))
            k3v = (0.0 + fh + fh + fh + fh - f_dx - rho_s_mg * th) / m

            # stage 4 at the full step along k3
            ws = w + h * k3w
            vs = v + h * k3v
            va = vs if vs > 0.0 else 0.0 - vs
            x = r * (ws if ws > 0.0 else 0.0 - ws)
            if va < eps and x < eps:
                s = 0.0
            elif va <= x:
                s = 1.0 - va / x
            else:
                s = -1.0 + x / va
            if s >= 0.0:
                fh = (a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz
            else:
                s = -s
                fh = -(a - pa * exp(al1 * s) - ap * exp(al2 * s)) * fz
            z = ws * r / sign_speed
            th = 1.0 if z >= 22.0 else (-1.0 if z <= -22.0 else tanh(z))
            k4w = (md - r * fh - rt * th) / j_w
            z = vs / sign_speed
            th = 1.0 if z >= 22.0 else (-1.0 if z <= -22.0 else tanh(z))
            k4v = (0.0 + fh + fh + fh + fh - f_dx - rho_s_mg * th) / m

            w = w + h6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
            v = v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)

        # The reference sums the four wheels' md * w with sum(), which starts
        # from int 0; 0 + e is 0.0 + e for every float e.
        e = md * w
        drive_energy += (0.0 + e + e + e + e) * INTERNAL_DT
        v_pos = 0.0 if 0.0 > v else v
        drawbar_work += f_dx * v_pos * INTERNAL_DT
        s_path += v_pos * INTERNAL_DT
        if v > v_peak:
            v_peak = v

    return samples, truth


# Shape (p, alpha1, alpha2) of the adhesion curve whose scale a is
# identified; the soils of scenarios/three_soil.yaml all have it.
STUBBLE_FAMILY = (0.6, -20.0, -3.0)


# ---------------------------------------------------------------------------
# Scenario files and CSV logs

def _soil_from_mapping(d: dict) -> SoilParams:
    if not isinstance(d, dict):
        raise ValueError(f"soil {d!r} is not a mapping")
    return SoilParams(**{k: float(v) for k, v in d.items()})


def _region(rect, soil) -> tuple[Rect, SoilParams]:
    return Rect(*map(float, rect)), _soil_from_mapping(soil)


def load_scenario(path) -> ScenarioSpec:
    """Build a ScenarioSpec from a YAML scenario file.

    Every section is optional except ``field`` (extent, default_soil) and
    ``path``; omitted keys fall back to the defaults above.  Each mapping
    goes whole to the dataclass that owns its names, so a key that names
    no setting raises that constructor's TypeError.  Raises ValueError on
    a file that is not YAML or whose top level, ``field`` or a soil is not
    a mapping.
    """
    with open(path) as fh:
        try:
            raw = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"scenario file {path} is not valid YAML: "
                             f"{exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"scenario file {path} is not a mapping")

    fld = raw.pop("field")
    if not isinstance(fld, dict):
        raise ValueError("scenario field is not a mapping")
    fld["extent"] = tuple(map(float, fld["extent"]))
    fld["regions"] = tuple(_region(**reg) for reg in fld.get("regions", []))
    fld["default_soil"] = _soil_from_mapping(fld["default_soil"])
    raw["path"] = tuple(tuple(map(float, p)) for p in raw["path"])
    return ScenarioSpec(
        vehicle=VehicleParams(**raw.pop("vehicle", {})),
        terrain=FieldSpec(**fld),
        drawbar=DrawbarProfile(**raw.pop("drawbar", {})),
        noise=SensorNoise(**raw.pop("noise", {})), **raw)


TELEMETRY_COLUMNS = ("t", "x", "y", "w1", "w2", "w3", "w4", "v",
                     "md1", "md2", "md3", "md4", "fzf", "fdx")
TRUTH_COLUMNS = ("t", "x", "y", "a", "p", "alpha1", "alpha2", "rho_s",
                 "mu1", "mu2", "mu3", "mu4",
                 "slip1", "slip2", "slip3", "slip4", "v",
                 "w1", "w2", "w3", "w4",
                 "drive_energy", "drawbar_work")


def _read_rows(path, columns: tuple[str, ...], kind: str) -> list[list[float]]:
    """The rows of a CSV log as floats; raises ValueError unless the header
    is ``columns`` and every row holds one number per column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(columns):
            raise ValueError(f"{path}: unrecognized {kind} header {header}")
        rows = []
        for row in reader:
            if len(row) != len(columns):
                raise ValueError(f"{path} line {reader.line_num}: "
                                 f"{len(row)} fields, expected {len(columns)}")
            rows.append([float(x) for x in row])
    return rows


def _fields(values) -> str:
    """``values`` as CSV fields of ``repr(float(x))``: the bytes the
    ``csv`` writer gives them, since no float repr needs quoting."""
    return ",".join(map(repr, map(float, values)))


def _write_log(path, columns, lines) -> None:
    """Write a CSV log as the ``csv`` writer does: the ``columns`` header,
    then ``lines``, each a row of fields ended by ``\\r\\n``.  The lines
    are streamed, never joined into one string."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(lines)


def write_telemetry_csv(samples, path) -> None:
    _write_log(path, TELEMETRY_COLUMNS,
               (_fields((s.t, *s.pos, *s.omega_w, s.v, *s.m_d, s.f_zf,
                         s.f_dx)) + "\r\n" for s in samples))


def read_telemetry_csv(path) -> list[TelemetrySample]:
    return [TelemetrySample(t=vals[0], pos=(vals[1], vals[2]),
                            omega_w=tuple(vals[3:7]), v=vals[7],
                            m_d=tuple(vals[8:12]), f_zf=vals[12],
                            f_dx=vals[13])
            for vals in _read_rows(path, TELEMETRY_COLUMNS, "telemetry")]


def write_truth_csv(records, path) -> None:
    _write_log(path, TRUTH_COLUMNS,
               (_fields((r.t, *r.pos, r.soil.a, r.soil.p, r.soil.alpha1,
                         r.soil.alpha2, r.soil.rho_s, *r.mu, *r.slip, r.v,
                         *r.omega_w, r.drive_energy, r.drawbar_work))
                + "\r\n" for r in records))


def read_truth_csv(path) -> list[TruthRecord]:
    return [TruthRecord(t=vals[0], pos=(vals[1], vals[2]),
                        soil=SoilParams(a=vals[3], p=vals[4], alpha1=vals[5],
                                        alpha2=vals[6], rho_s=vals[7]),
                        mu=tuple(vals[8:12]), slip=tuple(vals[12:16]),
                        v=vals[16], omega_w=tuple(vals[17:21]),
                        drive_energy=vals[21], drawbar_work=vals[22])
            for vals in _read_rows(path, TRUTH_COLUMNS, "truth")]
