"""Longitudinal traction dynamics of a rigid-wheel off-road vehicle.

Pure functions for wheel slip, the adhesion-slip curve, dynamical rolling
radius and the vertical wheel loads.  All quantities are SI
(N, N*m, m, rad, s); tire pressure is the lone exception and is given in
bar, converted internally.  Everything here is stateless and safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

GRAVITY = 9.81  # m/s^2

# Sample period of the drive-train telemetry and of the filter step (10 Hz).
SAMPLE_DT = 0.1  # s

# Below this speed scale (both |v| and r_d*|omega|) a wheel is treated as
# standing still and slip carries no information.
STANDSTILL_EPS = 1e-3

# Minimum |denominator| accepted when solving the adhesion curve for its
# scale parameter; below this the slip is too small to say anything about
# the curve and inversion would only amplify noise.
A_INVERSION_EPS = 1e-3


class DegenerateSlip(ValueError):
    """Slip too close to zero to recover the adhesion-curve scale."""


class NonPositiveRadius(ValueError):
    """Tire deformation at or beyond the unloaded radius."""


@dataclass(frozen=True)
class VehicleParams:
    """Static physical description of the machine.

    ``tire_pressure`` is in bar (the deformation formula carries the 1e5
    Pa-per-bar factor).  ``tire_rr_coeff`` is the internal (tire
    deformation) rolling-resistance coefficient, a fixed property of the
    tire and its inflation.
    """

    wheel_mass: float = 160.0       # kg
    wheel_inertia: float = 50.0     # kg*m^2
    vehicle_mass: float = 6300.0    # kg, including wheels
    unloaded_radius: float = 0.85   # m
    tire_pressure: float = 1.6      # bar
    tire_width: float = 0.6         # m
    tire_rr_coeff: float = 0.015    # dimensionless

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        for name in ("wheel_mass", "wheel_inertia", "vehicle_mass",
                     "unloaded_radius", "tire_pressure", "tire_width"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be strictly positive and finite")
        if not self.vehicle_mass >= 4.0 * self.wheel_mass:
            raise ValueError("vehicle_mass is less than the four wheels' mass")
        if not 0.0 <= self.tire_rr_coeff <= 0.1:
            raise ValueError("tire_rr_coeff outside [0, 0.1]")


@dataclass(frozen=True)
class SoilParams:
    """One ground condition: adhesion-curve shape plus soil rolling resistance.

    The adhesion curve is ``mu(s) = a - p*a*exp(alpha1*s) - a*(1-p)*exp(alpha2*s)``
    with both exponents negative, so mu(0) = 0 and mu -> a for large slip.
    ``rho_s`` is the external (soil deformation) rolling-resistance
    coefficient.
    """

    a: float
    p: float
    alpha1: float
    alpha2: float
    rho_s: float

    def __post_init__(self) -> None:
        # Written so that NaN fails every check.
        if not 0.0 < self.a < math.inf:
            raise ValueError("a must be strictly positive and finite")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p outside [0, 1]")
        if not (-math.inf < self.alpha1 < 0.0 and -math.inf < self.alpha2 < 0.0):
            raise ValueError("alpha1 and alpha2 must be negative and finite")
        if not 0.0 <= self.rho_s <= 0.5:
            raise ValueError("rho_s outside [0, 0.5]")


def slip(v: float, omega_w: float, r_d: float) -> float:
    """Longitudinal slip in [-1, 1].

    s = 1 - |v| / (r_d*|omega|)   if |v| <= r_d*|omega|   (driving)
    s = -1 + r_d*|omega| / |v|    otherwise                (braking)

    +1 is spinning on the spot, -1 a locked wheel.  When both speeds are
    below STANDSTILL_EPS the 0/0 case is resolved to 0: a standing wheel
    carries no slip information.
    """
    if r_d <= 0.0:
        raise ValueError("r_d must be strictly positive")
    v_abs = abs(v)
    w_abs = r_d * abs(omega_w)
    if v_abs < STANDSTILL_EPS and w_abs < STANDSTILL_EPS:
        return 0.0
    if v_abs <= w_abs:
        s = 1.0 - v_abs / w_abs
    else:
        s = -1.0 + w_abs / v_abs
    return min(1.0, max(-1.0, s))


def mu_curve(s: float, soil: SoilParams) -> float:
    """Adhesion coefficient at slip ``s`` for the given ground condition."""
    return (soil.a
            - soil.p * soil.a * math.exp(soil.alpha1 * s)
            - soil.a * (1.0 - soil.p) * math.exp(soil.alpha2 * s))


def mu_curve_shape(s: float, p: float, alpha1: float, alpha2: float) -> float:
    """Unit-scale factor of the adhesion curve: mu(s) = a * shape(s)."""
    return 1.0 - p * math.exp(alpha1 * s) - (1.0 - p) * math.exp(alpha2 * s)


def invert_mu_for_a(mu: float, s: float, p: float,
                    alpha1: float, alpha2: float) -> float:
    """Solve mu = a * shape(s) for the curve-scale parameter ``a``.

    Raises DegenerateSlip when |shape(s)| <= A_INVERSION_EPS (slip near
    zero): the measurement then contains no usable information about the
    curve scale and the estimate is discarded rather than amplified.
    """
    denom = mu_curve_shape(s, p, alpha1, alpha2)
    if abs(denom) <= A_INVERSION_EPS:
        raise DegenerateSlip(
            f"adhesion-curve denominator {denom:.3e} too small at slip {s:.4f}")
    return mu / denom


def rolling_radius(f_z: float, params: VehicleParams) -> float:
    """Dynamical rolling radius of the loaded tire.

    r_d = r_0 - F_z / (2*pi*1e5*p_t*sqrt((b_t/2)*r_0))

    p_t enters in bar; the 1e5 factor converts to Pa.  Worked example:
    F_z = 20 kN, p_t = 1.6 bar, b_t = 0.6 m, r_0 = 0.85 m gives a
    deformation of 20000 / (2*pi*1e5*1.6*sqrt(0.255)) = 0.0394 m, i.e.
    r_d = 0.8106 m.
    """
    if f_z < 0.0:
        raise ValueError("f_z must be non-negative")
    deformation = f_z / (2.0 * math.pi * 1e5 * params.tire_pressure
                         * math.sqrt(0.5 * params.tire_width
                                     * params.unloaded_radius))
    r_d = params.unloaded_radius - deformation
    if r_d <= 0.0:
        raise NonPositiveRadius(
            f"deformation {deformation:.3f} m consumes the whole radius "
            f"(F_z = {f_z:.0f} N at {params.tire_pressure} bar)")
    return r_d


def wheel_vertical_forces(f_zf: float, params: VehicleParams) -> tuple[float, float, float, float]:
    """Per-wheel vertical ground forces (front1, front2, rear1, rear2).

    ``f_zf`` is the total front-axle load measured in the suspension, i.e.
    excluding wheel weight.  The rear axle carries the rest of the body in
    static balance; each axle splits equally left/right, and each ground
    force adds the wheel's own weight: F_z = m_w*g + F_z_axle/2.  The
    wheels do not move vertically (a_z = 0).
    """
    if f_zf < 0.0:
        raise ValueError("f_zf must be non-negative")
    body_weight = (params.vehicle_mass - 4.0 * params.wheel_mass) * GRAVITY
    f_zr = body_weight - f_zf
    if f_zr < 0.0:
        raise ValueError(f"front axle load {f_zf:.0f} N exceeds body weight")
    wheel_weight = params.wheel_mass * GRAVITY
    front = wheel_weight + 0.5 * f_zf
    rear = wheel_weight + 0.5 * f_zr
    return (front, front, rear, rear)


@lru_cache(maxsize=16)
def wheel_geometry(f_zf: float, params: VehicleParams
                   ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-wheel vertical forces and rolling radii for a front-axle load.

    ``wheel_vertical_forces`` followed by ``rolling_radius`` of each wheel,
    as tuples of floats.  Cached on ``(f_zf, params)``: the filter asks
    for the same sample's geometry in its process model and again for the
    record's slips.
    """
    f_z = wheel_vertical_forces(f_zf, params)
    return f_z, tuple(rolling_radius(f, params) for f in f_z)
