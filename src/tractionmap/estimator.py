"""Online traction-parameter estimation from drive-train and speed signals.

The 10-entry state is [omega_w1..4, v, mu_1..4, rho_s]: wheel speeds,
vehicle ground speed, per-wheel adhesion coefficients and the soil
rolling-resistance coefficient.  Wheel and vehicle dynamics are integrated
with a single fourth-order Runge-Kutta step per sample; the unknown
parameters are modelled as constant over a step.  Wheel speeds and ground
speed are measured; drive torques, front axle load and drawbar pull are
known inputs.

The step is affine in the state and the measured outputs are the first
``MEAS_DIM`` = 5 state entries, the size of R, so the unscented transform
of the AUKF is exact here: each sample the estimator hands ``ukf.predict``
the mean through ``process_model``, the Jacobian ``process_jacobian`` and
the sample's fuzzy factor and adaptation diagonal, and ``ukf.update``
reads the predicted outputs off the leading block of the belief.

Per sample the estimator also extracts the adhesion-curve scale parameter
from the estimated (mu, slip) pairs, given a fixed curve family
(p, alpha1, alpha2).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import ukf
from .dynamics import (
    GRAVITY,
    SAMPLE_DT,
    DegenerateSlip,
    VehicleParams,
    invert_mu_for_a,
    slip,
    wheel_geometry,
)

STATE_DIM = 10
# Measured outputs: the leading [omega_1..4, v] entries of the state.
MEAS_DIM = 5
# State-vector layout.
IDX_OMEGA = slice(0, 4)
IDX_V = 4
IDX_MU = slice(5, 9)
IDX_RHO_S = 9

# Soft bounds on the parameter estimates; excursions are clamped and counted.
MU_BOUNDS = (-0.2, 1.5)
RHO_S_BOUNDS = (0.0, 0.5)

# Acceptance range for a per-wheel curve-scale extraction; the curve scale
# is positive by definition and values far above any plausible adhesion
# asymptote indicate a degenerate (mu, slip) geometry, not information.
CURVE_SCALE_RANGE = (0.0, 5.0)

# Saturation scales of the dynamics-intensity signal.
TORQUE_RATE_SCALE = 1000.0   # N*m/s per wheel
ACCEL_SCALE = 1.0            # m/s^2

# Samples in the dynamics-intensity window.
INTENSITY_WINDOW = 10

# Prior means of the parameter states, and the prior variances of the
# whole state.
INIT_MU = 0.3
INIT_RHO_S = 0.05
INIT_P_DIAG = (0.1 ** 2,) * 5 + (0.2 ** 2,) * 4 + (0.05 ** 2,)


@dataclass(frozen=True)
class TractionInput:
    """Known inputs for one sample: drive torques, front axle load, drawbar."""

    m_d: tuple[float, float, float, float]   # N*m per wheel
    f_zf: float                              # N, front axle vertical force
    f_dx: float                              # N, longitudinal drawbar pull

    def __post_init__(self) -> None:
        if len(self.m_d) != 4:
            raise ValueError("m_d must hold one torque per wheel")
        if not all(map(math.isfinite, (*self.m_d, self.f_zf, self.f_dx))):
            raise ValueError(
                f"non-finite drive input: m_d={self.m_d}, "
                f"f_zf={self.f_zf}, f_dx={self.f_dx}")
        if self.f_zf < 0.0:
            raise ValueError("f_zf must be non-negative")


@dataclass(frozen=True)
class TractionMeasurement:
    """Measured outputs for one sample: wheel speeds and ground speed."""

    omega_w: tuple[float, float, float, float]   # rad/s
    v: float                                     # m/s

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (*self.omega_w, self.v))):
            raise ValueError("measurement must be finite")

    def as_vector(self) -> np.ndarray:
        return np.array([*self.omega_w, self.v])


@dataclass(frozen=True)
class EstimateRecord:
    """One estimation result: traction parameters plus extraction metadata.

    ``curve_scale`` is the adhesion-curve parameter averaged over the
    wheels whose slip allowed inversion; None when no wheel did.
    """

    t: float
    position: tuple[float, float]
    mu: tuple[float, float, float, float]
    rho_s: float
    slip: tuple[float, float, float, float]
    curve_scale: float | None
    cov_diag: tuple[float, ...]


def process_model(x: np.ndarray, u: TractionInput,
                  params: VehicleParams) -> np.ndarray:
    """One ``SAMPLE_DT`` RK4 step of the wheel/vehicle dynamics for one
    state (10,); parameters held constant.

    Vertical forces come from the front-axle measurement and static rear
    balance, so the rolling radii are constant over the step.  The step is
    computed in Python floats, each operation in the order of the
    four-stage RK4 step.

    The derivative reads only the parameter entries (mu, rho_s) and is zero
    in them, so RK4 stages 2-4 all see them as ``x + 0.0`` and give one
    and the same k, and stage 1 differs from it at most in the sign of a
    zero.  The four-stage sum keeps stage 1's zero in the wheel rows and
    stage 2's in the vehicle row, so one derivative, with the wheel rows
    evaluated on x and the vehicle row on ``x + 0.0``, reproduces the
    four-stage step bit for bit.  The vehicle row sums its four force
    terms left to right from 0.0, the order in which numpy's
    ``add.reduce`` sums four entries, so the step equals its array form
    to the sign of a zero.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (STATE_DIM,):
        raise ValueError(f"state must have shape ({STATE_DIM},), "
                         f"got {x.shape}")
    xs = x.tolist()
    if not all(map(math.isfinite, xs)):
        raise ValueError("state must be finite")

    f_z, r_d = wheel_geometry(u.f_zf, params)
    rr = params.tire_rr_coeff
    inertia = params.wheel_inertia
    m = params.vehicle_mass
    mu = xs[IDX_MU]
    k = [(m_d - r * (mu_i + rr) * f) / inertia
         for m_d, r, mu_i, f in zip(u.m_d, r_d, mu, f_z)]
    traction = 0.0
    for mu_i, f in zip(mu, f_z):
        traction += (mu_i + 0.0) * f
    k.append((traction - u.f_dx - (xs[IDX_RHO_S] + 0.0) * m * GRAVITY) / m)
    # The parameter rows step by SAMPLE_DT / 6 * 0.0, which turns a -0.0
    # into 0.0 as the four-stage step does.
    k += [0.0] * (STATE_DIM - MEAS_DIM)
    h = SAMPLE_DT / 6.0
    return np.array([x_i + h * (k_i + 2.0 * k_i + 2.0 * k_i + k_i)
                     for x_i, k_i in zip(xs, k)])


@lru_cache(maxsize=16)
def process_jacobian(f_zf: float, params: VehicleParams) -> np.ndarray:
    """The state Jacobian F = I + SAMPLE_DT * B of ``process_model``.

    ``process_model`` is affine in the state, so F is exact for every
    state; it depends only on the front-axle load.  B holds
    ``-r_d * f_z / J`` at (i, 5 + i), ``f_z / m`` at (4, 5 + i) and ``-g``
    at (4, 9).  Cached on ``(f_zf, params)`` and read-only, as every
    caller with the same load shares it.
    """
    loads, radii = wheel_geometry(f_zf, params)
    m = params.vehicle_mass
    jac = np.eye(STATE_DIM)
    for i in range(4):
        jac[i, IDX_MU.start + i] = -SAMPLE_DT * radii[i] * loads[i] \
            / params.wheel_inertia
        jac[IDX_V, IDX_MU.start + i] = SAMPLE_DT * loads[i] / m
    jac[IDX_V, IDX_RHO_S] = -SAMPLE_DT * GRAVITY
    jac.flags.writeable = False
    return jac


def dynamics_intensity(torque_steps, speeds) -> float:
    """Normalized maneuver-intensity signal in [0, 1] over one window.

    ``torque_steps`` holds, for each pair of consecutive samples in the
    window, the largest per-wheel torque change |m_d' - m_d| (N*m);
    ``speeds`` the window's ground speeds (m/s), oldest first.  Combines
    the largest torque rate of change with the window-averaged speed
    change; each term saturates at its scale, the sum is clamped.
    Constant inputs and speeds give 0.
    """
    if not speeds:
        raise ValueError("speed window must be nonempty")
    torque_rate = max(torque_steps, default=0.0) / SAMPLE_DT

    if len(speeds) >= 2:
        span = (len(speeds) - 1) * SAMPLE_DT
        accel = abs(speeds[-1] - speeds[0]) / span
    else:
        accel = 0.0

    raw = torque_rate / TORQUE_RATE_SCALE + accel / ACCEL_SCALE
    return min(1.0, max(0.0, raw))


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning of the traction AUKF-FS.

    The filter steps at ``SAMPLE_DT`` from the prior ``INIT_MU``,
    ``INIT_RHO_S`` and ``INIT_P_DIAG``, with the ``ukf`` module's fixed
    Q adaptation and fuzzy rule base.  R is diagonal, each variance
    floored at 1e-8.  ``q_diag`` holds one finite, non-negative entry per
    state, and the sigmas are finite and non-negative; anything else is
    refused here.
    """

    q_diag: tuple = (1e-2,) * 5 + (1e-4,) * 4 + (1e-5,)
    sigma_omega: float = 0.01     # rad/s measurement noise
    sigma_v: float = 0.02         # m/s measurement noise
    adapt_enabled: bool = True
    fuzzy_enabled: bool = True

    def __post_init__(self) -> None:
        if len(self.q_diag) != STATE_DIM or not all(
                math.isfinite(v) and v >= 0.0 for v in self.q_diag):
            raise ValueError(f"q_diag must be {STATE_DIM} finite, "
                             f"non-negative entries, got {self.q_diag!r}")
        for name in ("sigma_omega", "sigma_v"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}")

    def noise_spec(self) -> ukf.NoiseSpec:
        r = np.diag([max(self.sigma_omega ** 2, 1e-8)] * 4
                    + [max(self.sigma_v ** 2, 1e-8)])
        return ukf.NoiseSpec(q=np.diag(self.q_diag), r=r)


class TractionEstimator:
    """Sequential AUKF-FS over one telemetry stream.

    The curve family (p, alpha1, alpha2) is fixed for the run; only the
    scale parameter is identified per sample.  One instance is owned by
    one stream; instances are independent.
    """

    def __init__(self, vehicle: VehicleParams,
                 curve_family: tuple[float, float, float],
                 config: EstimatorConfig):
        self.vehicle = vehicle
        self.curve_family = curve_family
        self.config = config
        self.noise = config.noise_spec()
        self.state: ukf.FilterState | None = None
        self._start_stream()

    def _start_stream(self) -> None:
        """Zero the clamp count and empty the intensity window: one torque
        step per pair of consecutive inputs and the ground speeds of the
        last INTENSITY_WINDOW samples."""
        self.clamp_violations = 0
        self._last_m_d: tuple | None = None
        self._torque_steps: deque = deque(maxlen=INTENSITY_WINDOW - 1)
        self._speeds: deque = deque(maxlen=INTENSITY_WINDOW)

    def initialize(self, y: TractionMeasurement) -> None:
        """Start a fresh stream: speeds from the first measurement,
        parameters from priors, no clamps and no intensity history."""
        mean = np.empty(STATE_DIM)
        mean[:5] = y.as_vector()
        mean[IDX_MU] = INIT_MU
        mean[IDX_RHO_S] = INIT_RHO_S
        self.state = ukf.FilterState.initial(mean, np.diag(INIT_P_DIAG))
        self._start_stream()
        self._speeds.append(y.v)

    def step(self, u: TractionInput, y: TractionMeasurement, t: float,
             position: tuple[float, float]) -> EstimateRecord:
        """One supervise/adapt/predict/update cycle, then parameter extraction."""
        if self.state is None:
            raise RuntimeError("call initialize() with the first measurement")
        cfg = self.config
        if self._last_m_d is not None:
            a0, a1, a2, a3 = self._last_m_d
            b0, b1, b2, b3 = u.m_d
            self._torque_steps.append(max(abs(b0 - a0), abs(b1 - a1),
                                          abs(b2 - a2), abs(b3 - a3)))
        self._last_m_d = u.m_d
        fs = self.state

        # adapt_q does not read phi, so both come from the previous state;
        # predict carries them into the next one.
        phi, a_diag = fs.phi, fs.a_diag
        if cfg.fuzzy_enabled:
            signal = dynamics_intensity(self._torque_steps, self._speeds)
            phi = ukf.fuzzy_factor(signal)
        if cfg.adapt_enabled:
            a_diag = ukf.adapt_q(fs)

        fs = ukf.predict(fs, process_model(fs.mean, u, self.vehicle),
                         process_jacobian(u.f_zf, self.vehicle), self.noise,
                         phi, a_diag)
        fs = ukf.update(fs, y.as_vector(), self.noise)
        fs = self._clamp_parameters(fs)
        self.state = fs
        self._speeds.append(y.v)
        return self._make_record(fs, u, t, position)

    def _clamp_parameters(self, fs: ukf.FilterState) -> ukf.FilterState:
        mean = fs.mean
        mu1, mu2, mu3, mu4, rho_s = mean[IDX_MU.start:].tolist()
        lo, hi = MU_BOUNDS
        # Every value in range (NaN never is): nothing to clip.
        if (lo <= mu1 <= hi and lo <= mu2 <= hi and lo <= mu3 <= hi
                and lo <= mu4 <= hi
                and RHO_S_BOUNDS[0] <= rho_s <= RHO_S_BOUNDS[1]):
            return fs
        # Some value is out of range or NaN, so clipping changes the mean.
        clipped = mean.copy()
        clipped[IDX_MU] = np.clip(mean[IDX_MU], *MU_BOUNDS)
        clipped[IDX_RHO_S] = np.clip(mean[IDX_RHO_S], *RHO_S_BOUNDS)
        self.clamp_violations += 1
        return ukf.FilterState(clipped, fs.cov, fs.a_diag, fs.phi,
                               fs.residuals, fs.gain, fs.spread, fs.predicted)

    def _make_record(self, fs: ukf.FilterState, u: TractionInput,
                     t: float, position: tuple[float, float]) -> EstimateRecord:
        _, r_d = wheel_geometry(u.f_zf, self.vehicle)
        x = fs.mean.tolist()
        v_hat = x[IDX_V]
        mu_hat = x[IDX_MU]
        slips = tuple([slip(v_hat, omega, r)
                       for omega, r in zip(x[IDX_OMEGA], r_d)])

        p, alpha1, alpha2 = self.curve_family
        # The mean of the accepted scales, summed left to right from 0.0
        # as np.mean sums them.
        total, accepted = 0.0, 0
        for mu_i, s_i in zip(mu_hat, slips):
            try:
                scale = invert_mu_for_a(mu_i, s_i, p, alpha1, alpha2)
            except DegenerateSlip:
                continue
            if CURVE_SCALE_RANGE[0] < scale <= CURVE_SCALE_RANGE[1]:
                total += scale
                accepted += 1

        return EstimateRecord(
            t=t, position=position, mu=tuple(mu_hat),
            rho_s=x[IDX_RHO_S], slip=slips,
            curve_scale=total / accepted if accepted else None,
            cov_diag=tuple(fs.cov.diagonal().tolist()))

