import inspect
import math
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    ReferenceTractionEstimator,
    WheelState,
    measurement_model,
    observability_check,
    reference_dynamics_intensity,
    reference_fuzzy_factor,
    reference_process_model,
    three_soils,
    vehicle_accel,
    wheel_accel,
)
from test_acceptance import _divergence_prone_scenario
from tractionmap import cli, dynamics, sim, ukf
from tractionmap.dynamics import (
    GRAVITY,
    SAMPLE_DT,
    VehicleParams,
    rolling_radius,
    slip,
    wheel_vertical_forces,
)
from tractionmap.estimator import (
    IDX_MU,
    IDX_RHO_S,
    IDX_V,
    INIT_P_DIAG,
    INTENSITY_WINDOW,
    EstimatorConfig,
    TractionEstimator,
    TractionInput,
    TractionMeasurement,
    dynamics_intensity,
    process_jacobian,
    process_model,
)

PARAMS = VehicleParams()
FIRM, MEDIUM, LOOSE = three_soils()
F_ZF_STATIC = 0.5 * (PARAMS.vehicle_mass - 4 * PARAMS.wheel_mass) * GRAVITY


def nominal_input(m_d=(500.0,) * 4, f_dx=8000.0):
    return TractionInput(m_d=m_d, f_zf=F_ZF_STATIC, f_dx=f_dx)


def nominal_state(v=2.0, mu=0.3, rho_s=0.05, slip_frac=0.15):
    f_z = wheel_vertical_forces(F_ZF_STATIC, PARAMS)
    r_d = rolling_radius(f_z[0], PARAMS)
    omega = v / (r_d * (1.0 - slip_frac))
    return np.array([omega] * 4 + [v] + [mu] * 4 + [rho_s])


# --- process model ----------------------------------------------------------

def test_process_model_rejects_non_finite_state():
    bad = nominal_state()
    bad[0] = np.nan
    with pytest.raises(ValueError):
        process_model(bad, nominal_input(), PARAMS)


@pytest.mark.parametrize("function", [process_model, process_jacobian])
def test_process_model_steps_the_sample_period(function):
    # the filter runs at the telemetry rate, so the step is not a parameter
    assert "dt" not in inspect.signature(function).parameters


def test_process_model_equilibrium_is_fixed_point():
    mu, rho_s = 0.32, 0.06
    f_z = wheel_vertical_forces(F_ZF_STATIC, PARAMS)
    r_d = [rolling_radius(f, PARAMS) for f in f_z]
    m_d = tuple(r_d[i] * (mu + PARAMS.tire_rr_coeff) * f_z[i] for i in range(4))
    f_dx = sum(mu * f for f in f_z) - rho_s * PARAMS.vehicle_mass * GRAVITY
    x = nominal_state(mu=mu, rho_s=rho_s)
    u = TractionInput(m_d=m_d, f_zf=F_ZF_STATIC, f_dx=f_dx)
    out = process_model(x, u, PARAMS)
    assert np.abs(out - x).max() < 1e-9


def test_process_model_agrees_with_scalar_force_balances():
    # independent route: the per-wheel torque balance and the vehicle force
    # balance from the dynamics module.  The parameter entries are constant
    # over a step, which makes the state derivative constant in time, so
    # one step equals x + dt * xdot exactly.
    x = nominal_state(v=1.7, mu=0.41, rho_s=0.07, slip_frac=0.2)
    u = nominal_input(m_d=(900.0, 850.0, 800.0, 750.0), f_dx=9000.0)
    dt = SAMPLE_DT

    f_z = wheel_vertical_forces(u.f_zf, PARAMS)
    expected = x.copy()
    for i in range(4):
        ws = WheelState(omega_w=x[i], v_w=x[IDX_V], f_z=f_z[i], m_d=u.m_d[i])
        expected[i] += dt * wheel_accel(ws, x[5 + i], PARAMS)
    expected[IDX_V] += dt * vehicle_accel(
        tuple(x[5:9]), f_z, u.f_dx, x[IDX_RHO_S], PARAMS)

    out = process_model(x, u, PARAMS)
    assert np.abs(out - expected).max() < 1e-10


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("tire_rr_coeff", [0.015, 0.0, -0.0])
@pytest.mark.parametrize("mu", [0.0, -0.0])
@pytest.mark.parametrize("torque", [0.0, -0.0])
def test_process_model_signed_zeros_equal_reference(tire_rr_coeff, mu, torque):
    # All-zero (or negative-zero) adhesion with no drawbar and no soil
    # resistance: the one-derivative step must keep every sign of zero the
    # four-stage step produces.
    params = VehicleParams(tire_rr_coeff=tire_rr_coeff)
    u = TractionInput(m_d=(torque,) * 4, f_zf=F_ZF_STATIC, f_dx=0.0)
    for omega, v, rho_s in ((0.0, 0.0, 0.0), (-0.0, -0.0, -0.0),
                            (2.5, 2.0, 0.0)):
        x = np.array([omega] * 4 + [v] + [mu] * 4 + [rho_s])
        assert (_bits(process_model(x, u, params))
                == _bits(reference_process_model(x, u, SAMPLE_DT, params)))


def test_process_model_equals_reference_on_random_states():
    # each state alone, and the (21, 10) stack through the reference
    rng = np.random.default_rng(21)
    u = nominal_input(m_d=(900.0, 850.0, -0.0, 750.0), f_dx=9000.0)
    batch = np.stack([nominal_state(v=v, mu=m, rho_s=r)
                      for v, m, r in zip(rng.uniform(0.0, 3.0, 21),
                                         rng.uniform(-0.2, 1.5, 21),
                                         rng.uniform(0.0, 0.5, 21))])
    batch[3, IDX_MU] = -0.0
    batch[4, IDX_RHO_S] = -0.0
    batch[5, IDX_MU] = rng.uniform(-1e3, 1e3, 4)
    ref = reference_process_model(batch, u, SAMPLE_DT, PARAMS)
    for row_in, row_ref in zip(batch, ref):
        assert _bits(process_model(row_in, u, PARAMS)) == _bits(row_ref)


@pytest.mark.parametrize("shape", [(7, 10), (9,), (1, 10)])
def test_process_model_takes_one_state(shape):
    with pytest.raises(ValueError, match="shape"):
        process_model(np.ones(shape), nominal_input(), PARAMS)


def test_process_jacobian_is_exact_for_the_affine_step():
    # process_model(x + d) = process_model(x) + F d for any d, up to rounding
    rng = np.random.default_rng(8)
    u = nominal_input(m_d=(900.0, 850.0, 800.0, 750.0), f_dx=9000.0)
    jac = process_jacobian(u.f_zf, PARAMS)
    x = nominal_state(v=1.7, mu=0.41, rho_s=0.07)
    base = process_model(x, u, PARAMS)
    for _ in range(20):
        d = rng.normal(size=10) * np.array([1.0] * 5 + [0.1] * 5)
        assert np.abs(process_model(x + d, u, PARAMS) - base
                      - jac @ d).max() < 1e-12
    assert jac is process_jacobian(u.f_zf, PARAMS)
    assert not jac.flags.writeable


def test_process_model_zero_torque_decelerates_wheel():
    x = nominal_state(v=2.0, mu=0.4, slip_frac=0.1)
    u = nominal_input(m_d=(0.0,) * 4, f_dx=0.0)
    out = process_model(x, u, PARAMS)
    assert np.all(out[:4] < x[:4])


# --- measurement model ------------------------------------------------------

def test_measurement_model_projects_speeds():
    x = nominal_state()
    assert np.array_equal(measurement_model(x), x[:5])


def test_measurement_model_jacobian_is_selector():
    x = nominal_state()
    jac = np.empty((5, 10))
    for j in range(10):
        xp, xm = x.copy(), x.copy()
        xp[j] += 1e-6
        xm[j] -= 1e-6
        jac[:, j] = (measurement_model(xp) - measurement_model(xm)) / 2e-6
    expected = np.zeros((5, 10))
    expected[:5, :5] = np.eye(5)
    assert np.allclose(jac, expected, atol=1e-9)


def test_measurement_model_depends_only_on_speeds():
    a = nominal_state(mu=0.2, rho_s=0.01)
    b = a.copy()
    b[5:] = [0.9, 0.8, 0.7, 0.6, 0.3]
    assert np.array_equal(measurement_model(a), measurement_model(b))


# --- dynamics intensity -----------------------------------------------------

def _meas(v):
    return TractionMeasurement(omega_w=(2.0, 2.0, 2.0, 2.0), v=v)


def _intensity(inputs, meas):
    """``dynamics_intensity`` of a window of inputs and measurements."""
    torque_steps = [max(abs(b - a) for a, b in zip(prev.m_d, cur.m_d))
                    for prev, cur in zip(inputs, inputs[1:])]
    return dynamics_intensity(torque_steps, [y.v for y in meas])


def test_intensity_requires_windows():
    with pytest.raises(ValueError):
        dynamics_intensity([], [])


def test_intensity_zero_when_steady():
    inputs = [nominal_input()] * 10
    meas = [_meas(2.0)] * 10
    assert _intensity(inputs, meas) == 0.0


def test_intensity_saturates_on_scale_torque_step():
    # 100 N*m over one 0.1 s sample = the 1000 N*m/s saturation scale
    inputs = [nominal_input(m_d=(500.0,) * 4), nominal_input(m_d=(600.0,) * 4)]
    meas = [_meas(2.0), _meas(2.0)]
    assert _intensity(inputs, meas) == 1.0


def test_intensity_monotone_in_torque_rate():
    meas = [_meas(2.0)] * 2
    values = []
    for step in (0.0, 20.0, 40.0, 60.0, 80.0):
        inputs = [nominal_input(m_d=(500.0,) * 4),
                  nominal_input(m_d=(500.0 + step,) * 4)]
        values.append(_intensity(inputs, meas))
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] == 0.0 and values[-1] > 0.0


def test_intensity_clamped_to_unit_interval():
    inputs = [nominal_input(m_d=(0.0,) * 4), nominal_input(m_d=(5000.0,) * 4)]
    meas = [_meas(0.0), _meas(3.0)]
    assert _intensity(inputs, meas) == 1.0


def test_intensity_equals_reference_on_random_windows():
    rng = np.random.default_rng(12)
    for _ in range(50):
        inputs = [nominal_input(m_d=tuple(rng.normal(500.0, 40.0, size=4)))
                  for _ in range(rng.integers(1, 11))]
        meas = [_meas(v) for v in rng.normal(2.0, 0.1, size=len(inputs))]
        assert (_intensity(inputs, meas)
                == reference_dynamics_intensity(inputs, meas))


def test_step_intensity_window_equals_reference():
    # the estimator's running window against the reference's rescan of the
    # last INTENSITY_WINDOW inputs and measurements, over 40 steps with
    # torque jumps in and out of saturation
    rng = np.random.default_rng(13)
    est = TractionEstimator(PARAMS, sim.STUBBLE_FAMILY, EstimatorConfig())
    est.initialize(_meas(2.0))
    inputs, meas = [], [_meas(2.0)]
    for k in range(40):
        scale = 2.0 if k % 7 == 0 else 60.0
        u = nominal_input(m_d=tuple(500.0 + rng.normal(0.0, scale, size=4)))
        y = _meas(float(rng.normal(2.0, 0.05)))
        inputs.append(u)
        est.step(u, y, t=0.1 * (k + 1), position=(0.0, 0.0))
        signal = reference_dynamics_intensity(inputs[-INTENSITY_WINDOW:],
                                              meas[-INTENSITY_WINDOW:])
        assert _bits(est.state.phi) == _bits(reference_fuzzy_factor(signal))
        meas.append(y)


# --- drive inputs ---------------------------------------------------------------

@pytest.mark.parametrize("name, value", [
    ("m_d", (500.0, float("nan"), 500.0, 500.0)),
    ("m_d", (500.0, 500.0, 500.0, float("-inf"))),
    ("f_zf", float("nan")),
    ("f_zf", float("inf")),
    ("f_dx", float("nan")),
], ids=["nan_torque", "inf_torque", "nan_axle_load", "inf_axle_load",
        "nan_drawbar"])
def test_traction_input_rejects_non_finite(name, value):
    fields = {"m_d": (500.0,) * 4, "f_zf": F_ZF_STATIC, "f_dx": 8000.0}
    fields[name] = value
    with pytest.raises(ValueError, match="non-finite drive input"):
        TractionInput(**fields)


def test_traction_input_rejects_negative_axle_load():
    with pytest.raises(ValueError, match="f_zf must be non-negative"):
        TractionInput(m_d=(500.0,) * 4, f_zf=-1.0, f_dx=8000.0)


def test_traction_input_needs_one_torque_per_wheel():
    with pytest.raises(ValueError, match="one torque per wheel"):
        TractionInput(m_d=(500.0,) * 3, f_zf=F_ZF_STATIC, f_dx=8000.0)


# --- estimator stepping -------------------------------------------------------

def test_step_requires_initialization():
    est = TractionEstimator(PARAMS, sim.STUBBLE_FAMILY, EstimatorConfig())
    with pytest.raises(RuntimeError):
        est.step(nominal_input(), _meas(2.0), 0.1, (0.0, 0.0))


def test_step_with_measurement_equal_to_prediction_keeps_mean():
    est = TractionEstimator(PARAMS, sim.STUBBLE_FAMILY,
                            EstimatorConfig(adapt_enabled=False,
                                            fuzzy_enabled=False))
    est.initialize(_meas(2.0))
    u = nominal_input()
    mean = process_model(est.state.mean, u, PARAMS)
    predicted = ukf.predict(est.state, mean, process_jacobian(u.f_zf, PARAMS),
                            est.noise, est.state.phi, est.state.a_diag)
    y = TractionMeasurement(omega_w=tuple(predicted.mean[:4]),
                            v=float(predicted.mean[4]))
    rec = est.step(u, y, t=0.1, position=(0.0, 0.0))
    assert np.allclose(est.state.mean, predicted.mean, atol=1e-9)
    assert rec.t == 0.1


def test_initialize_starts_a_fresh_stream():
    # a second initialize forgets the previous stream's intensity window
    # and clamp count, so its first step equals a fresh estimator's
    fresh = TractionEstimator(PARAMS, sim.STUBBLE_FAMILY, EstimatorConfig())
    reused = TractionEstimator(PARAMS, sim.STUBBLE_FAMILY, EstimatorConfig())
    reused.initialize(_meas(3.0))
    for k in range(20):
        reused.step(nominal_input(m_d=(900.0,) * 4), _meas(3.0),
                    t=0.1 * (k + 1), position=(0.0, 0.0))
    assert reused.clamp_violations > 0
    records = []
    for est in (fresh, reused):
        est.initialize(_meas(1.0))
        assert est.clamp_violations == 0
        records.append(est.step(nominal_input(), _meas(1.0), t=0.1,
                                position=(0.0, 0.0)))
    assert repr(records[1]) == repr(records[0])
    assert _bits(reused.state.phi) == _bits(fresh.state.phi)
    assert reused.clamp_violations == fresh.clamp_violations


def test_estimate_record_fields():
    est = TractionEstimator(PARAMS, sim.STUBBLE_FAMILY, EstimatorConfig())
    est.initialize(_meas(2.0))
    rec = est.step(nominal_input(), _meas(2.01), t=0.1, position=(3.0, 4.0))
    assert rec.position == (3.0, 4.0)
    assert len(rec.mu) == 4 and len(rec.slip) == 4
    assert len(rec.cov_diag) == 10
    assert all(c > 0 for c in rec.cov_diag)


def test_record_floats_are_python_floats():
    # as every writer formats them, and as repr(record) shows them
    scenario = replace(sim.load_scenario(THREE_SOIL), duration=5.0, seed=1)
    samples, _ = sim.simulate(scenario)
    records, _ = cli.run_estimation(samples, scenario.vehicle,
                                    sim.STUBBLE_FAMILY, EstimatorConfig())
    assert any(rec.curve_scale is not None for rec in records)
    for rec in records:
        values = (rec.t, *rec.position, *rec.mu, rec.rho_s, *rec.slip,
                  *rec.cov_diag)
        if rec.curve_scale is not None:
            values += (rec.curve_scale,)
        assert all(type(v) is float for v in values), repr(rec)
        assert "np." not in repr(rec)


def test_step_derives_wheel_geometry_once(monkeypatch):
    # process_model and the record read one cached geometry per sample
    loads = []
    original = dynamics.wheel_vertical_forces
    monkeypatch.setattr(dynamics, "wheel_vertical_forces",
                        lambda f_zf, params: loads.append(f_zf)
                        or original(f_zf, params))
    dynamics.wheel_geometry.cache_clear()
    est = TractionEstimator(PARAMS, sim.STUBBLE_FAMILY, EstimatorConfig())
    est.initialize(_meas(2.0))
    f_zfs = [F_ZF_STATIC + 100.0 * k for k in range(5)]
    for k, f_zf in enumerate(f_zfs):
        rec = est.step(TractionInput(m_d=(500.0,) * 4, f_zf=f_zf, f_dx=8000.0),
                       _meas(2.01), t=0.1 * (k + 1), position=(0.0, 0.0))
        assert all(type(s) is float for s in rec.slip)
    assert loads == f_zfs


def test_estimator_config_holds_only_the_tuning_callers_set():
    # the sample period, priors, intensity window, Q adaptation and fuzzy
    # rule base are fixed by the filter design
    assert [f.name for f in fields(EstimatorConfig)] == [
        "q_diag", "sigma_omega", "sigma_v", "adapt_enabled", "fuzzy_enabled"]


@pytest.mark.parametrize("name, value", [
    ("q_diag", (-1.0,) * 10),
    ("q_diag", (1e-2,) * 11),
    ("q_diag", (1e-2,) * 9 + (math.nan,)),
    ("q_diag", (1e-2,) * 9),
    ("q_diag", (1e-2,) * 9 + (-1e-5,)),
    ("q_diag", (1e-2,) * 9 + (math.inf,)),
    ("sigma_v", math.inf),
    ("sigma_omega", math.nan),
    ("sigma_omega", -0.01),
])
def test_estimator_config_refuses_bad_tuning(name, value):
    # each of these used to run silently or fail mid-run under another name
    with pytest.raises(ValueError, match=name):
        EstimatorConfig(**{name: value})


def test_estimator_config_accepts_zero_variances():
    zeros = (0.0,) * 10
    config = EstimatorConfig(q_diag=zeros, sigma_omega=0.0, sigma_v=0.0)
    assert np.array_equal(config.noise_spec().r, 1e-8 * np.eye(5))


# --- closed-loop behaviour against the simulator ------------------------------

def single_soil_scenario(soil, duration, seed=0, noise=None, f_dx=15000.0):
    terrain = sim.FieldSpec(extent=(400.0, 20.0), regions=(),
                            default_soil=soil)
    return sim.ScenarioSpec(
        vehicle=PARAMS, terrain=terrain,
        path=((2.0, 10.0), (398.0, 10.0)), target_speed=2.0,
        drawbar=sim.DrawbarProfile(constant=f_dx, ramp_time=2.0),
        noise=noise or sim.SensorNoise(0.0, 0.0, 0.0),
        duration=duration, seed=seed)


def test_noise_free_convergence_within_10s():
    scenario = single_soil_scenario(MEDIUM, duration=12.0)
    samples, truth = sim.simulate(scenario)
    records, _ = cli.run_estimation(samples, scenario.vehicle,
                                    sim.STUBBLE_FAMILY, EstimatorConfig())
    truth_by_t = {round(r.t, 6): r for r in truth}
    for rec in records:
        if rec.t < 10.0:
            continue
        tr = truth_by_t[round(rec.t, 6)]
        for w in range(4):
            assert abs(rec.mu[w] - tr.mu[w]) / abs(tr.mu[w]) < 0.05


def test_soil_step_tracked_within_5s_at_nominal_noise():
    regions = ((sim.Rect(0.0, 0.0, 40.0, 20.0), FIRM),
               (sim.Rect(40.0, 0.0, 400.0, 20.0), LOOSE))
    terrain = sim.FieldSpec(extent=(400.0, 20.0), regions=regions,
                            default_soil=FIRM)
    scenario = sim.ScenarioSpec(
        vehicle=PARAMS, terrain=terrain,
        path=((2.0, 10.0), (398.0, 10.0)), target_speed=2.0,
        drawbar=sim.DrawbarProfile(constant=15000.0, ramp_time=2.0),
        noise=sim.SensorNoise(), duration=40.0, seed=3)
    samples, truth = sim.simulate(scenario)
    records, _ = cli.run_estimation(samples, scenario.vehicle,
                                    sim.STUBBLE_FAMILY, EstimatorConfig())

    t_step = next(r.t for prev, r in zip(truth, truth[1:])
                  if r.soil != prev.soil)
    truth_by_t = {round(r.t, 6): r for r in truth}
    settled = None
    for rec in records:
        if rec.t <= t_step:
            continue
        tr = truth_by_t[round(rec.t, 6)]
        rel = max(abs(rec.mu[w] - tr.mu[w]) / abs(tr.mu[w]) for w in range(4))
        if rel < 0.05:
            settled = rec.t
            break
    assert settled is not None and settled - t_step < 5.0


def test_estimated_slip_rms_noise_free():
    scenario = single_soil_scenario(MEDIUM, duration=30.0)
    samples, truth = sim.simulate(scenario)
    records, _ = cli.run_estimation(samples, scenario.vehicle,
                                    sim.STUBBLE_FAMILY, EstimatorConfig())
    truth_by_t = {round(r.t, 6): r for r in truth}
    sq = []
    for rec in records:
        tr = truth_by_t[round(rec.t, 6)]
        sq.extend((rec.slip[w] - tr.slip[w]) ** 2 for w in range(4))
    assert math.sqrt(sum(sq) / len(sq)) < 0.05


def test_curve_scale_round_trip_above_5pct_slip():
    # loose soil at 15 kN cruises at ~8.7% slip, comfortably above the
    # 5% identifiability floor
    scenario = single_soil_scenario(LOOSE, duration=40.0)
    samples, truth = sim.simulate(scenario)
    records, _ = cli.run_estimation(samples, scenario.vehicle,
                                    sim.STUBBLE_FAMILY, EstimatorConfig())
    scales = [r.curve_scale for r in records
              if r.t >= 10.0 and r.curve_scale is not None]
    assert scales
    mean_scale = float(np.mean(scales))
    assert abs(mean_scale - LOOSE.a) / LOOSE.a < 0.02


def test_parameter_bounds_after_burn_in():
    scenario = single_soil_scenario(MEDIUM, duration=20.0,
                                    noise=sim.SensorNoise(), seed=9)
    samples, _ = sim.simulate(scenario)
    records, est = cli.run_estimation(samples, scenario.vehicle,
                                      sim.STUBBLE_FAMILY, EstimatorConfig())
    for rec in records:
        if rec.t < 2.0:
            continue
        assert all(-0.2 <= m <= 1.5 for m in rec.mu)
        assert 0.0 <= rec.rho_s <= 0.5
    assert est.clamp_violations == 0  # nominal scenario needs no clamping


def test_covariance_stays_psd_over_10k_steps():
    scenario = single_soil_scenario(MEDIUM, duration=60.0,
                                    noise=sim.SensorNoise(), seed=11)
    samples, _ = sim.simulate(scenario)
    est = TractionEstimator(scenario.vehicle, sim.STUBBLE_FAMILY,
                            EstimatorConfig())
    est.initialize(TractionMeasurement(omega_w=samples[0].omega_w,
                                       v=samples[0].v))
    steps = 0
    prev = samples[0]
    while steps < 10_000:
        for sample in samples[1:]:
            u = TractionInput(m_d=prev.m_d, f_zf=prev.f_zf, f_dx=prev.f_dx)
            est.step(u, TractionMeasurement(omega_w=sample.omega_w,
                                            v=sample.v),
                     sample.t, sample.pos)
            prev = sample
            steps += 1
            if steps % 50 == 0:
                assert np.linalg.eigvalsh(est.state.cov).min() > -1e-9
            if steps >= 10_000:
                break
    assert np.linalg.eigvalsh(est.state.cov).min() > -1e-9


# --- observability ------------------------------------------------------------

def test_observability_at_nominal_operating_point():
    assert observability_check(PARAMS, nominal_state()) is True


def test_observability_at_standstill():
    # vertical forces come from the static axle split, so the parameter
    # sensitivities survive even without motion: the check stays true
    # (recorded result; the formulation gives no rank drop here)
    x0 = np.array([0.0] * 5 + [0.3] * 4 + [0.05])
    assert observability_check(PARAMS, x0) is True


def test_observability_invariant_under_state_scaling():
    x0 = nominal_state()
    assert observability_check(PARAMS, x0) == observability_check(PARAMS, 2.0 * x0)


# --- agreement with the reference filter -------------------------------------
#
# The filter step must reproduce oracles.ReferenceTractionEstimator, the
# sigma-point AUKF as it was before the closed-form step, within a stated
# tolerance.  For the affine traction model the unscented transform is
# exact, so the two differ only in rounding: the sigma-point sums carry a
# centre weight of -99 and cancel terms about 100 times their result.
# Every record's t and position are bit-equal; mu, rho_s and slip agree to
# MEAN_TOL, curve_scale to SCALE_TOL and cov_diag to COV_RTOL relative;
# curve_scale is None on the same records and the clamp counts are equal.
# The final belief agrees within the same bounds.

THREE_SOIL = Path(__file__).resolve().parent.parent / "scenarios" / "three_soil.yaml"
ABLATIONS = {
    "full": EstimatorConfig(),
    "no_fuzzy": EstimatorConfig(fuzzy_enabled=False),
    "no_adapt": EstimatorConfig(adapt_enabled=False),
    "neither": EstimatorConfig(fuzzy_enabled=False, adapt_enabled=False),
}
MEAN_TOL = 1e-12
SCALE_TOL = 1e-9
COV_RTOL = 1e-9


@lru_cache(maxsize=None)
def _three_soil_30s(noise_mult):
    """30 s cut of the three-soil scenario at nominal or 5x speed noise."""
    scenario = replace(sim.load_scenario(THREE_SOIL), duration=30.0, seed=1)
    noise = replace(scenario.noise,
                    sigma_omega=scenario.noise.sigma_omega * noise_mult,
                    sigma_v=scenario.noise.sigma_v * noise_mult)
    return sim.simulate(replace(scenario, noise=noise))[0]


def _assert_close(value, ref, tol, name):
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    assert value.shape == ref.shape, name
    assert np.abs(value - ref).max() <= tol, name


def _assert_record_close(rec, ref_rec, mean_tol, cov_rtol):
    assert _bits((rec.t, *rec.position)) == _bits((ref_rec.t,
                                                   *ref_rec.position))
    _assert_close(rec.mu, ref_rec.mu, mean_tol, "mu")
    _assert_close(rec.rho_s, ref_rec.rho_s, mean_tol, "rho_s")
    _assert_close(rec.slip, ref_rec.slip, mean_tol, "slip")
    assert (rec.curve_scale is None) == (ref_rec.curve_scale is None)
    if rec.curve_scale is not None:
        _assert_close(rec.curve_scale, ref_rec.curve_scale, SCALE_TOL,
                      "curve_scale")
    ref_diag = np.array(ref_rec.cov_diag)
    _assert_close(np.array(rec.cov_diag) / ref_diag, np.ones_like(ref_diag),
                  cov_rtol, "cov_diag")


def _assert_belief_close(fs, ref_fs, mean_tol, cov_rtol):
    _assert_close(fs.mean, ref_fs.mean, mean_tol, "mean")
    # each covariance entry relative to sqrt(P_ii P_jj)
    diag = ref_fs.cov.diagonal()
    _assert_close(fs.cov / np.sqrt(np.outer(diag, diag)),
                  ref_fs.cov / np.sqrt(np.outer(diag, diag)), cov_rtol, "cov")
    _assert_close(fs.a_diag / ref_fs.a_diag, np.ones_like(ref_fs.a_diag),
                  cov_rtol, "a_diag")
    for name in ("gain", "spread"):
        ref = getattr(ref_fs, name)
        _assert_close(getattr(fs, name) / np.abs(ref).max(),
                      ref / np.abs(ref).max(), cov_rtol, name)
    _assert_close(fs.residuals, ref_fs.residuals, mean_tol, "residuals")
    assert _bits(fs.phi) == _bits(ref_fs.phi)
    assert fs.predicted == ref_fs.predicted


def _assert_steps_equal_reference(samples, config, vehicle=PARAMS,
                                  mean_tol=MEAN_TOL, cov_rtol=COV_RTOL,
                                  p_diag=None):
    est = TractionEstimator(vehicle, sim.STUBBLE_FAMILY, config)
    ref = ReferenceTractionEstimator(vehicle, sim.STUBBLE_FAMILY, config)
    first = TractionMeasurement(omega_w=samples[0].omega_w, v=samples[0].v)
    for estimator in (est, ref):
        estimator.initialize(first)
        if p_diag is not None:  # in place of INIT_P_DIAG
            estimator.state = ukf.FilterState.initial(estimator.state.mean,
                                                      np.diag(p_diag))
    for prev, sample in zip(samples, samples[1:]):
        u = TractionInput(m_d=prev.m_d, f_zf=prev.f_zf, f_dx=prev.f_dx)
        y = TractionMeasurement(omega_w=sample.omega_w, v=sample.v)
        rec = est.step(u, y, t=sample.t, position=sample.pos)
        ref_rec = ref.step(u, y, t=sample.t, position=sample.pos)
        _assert_record_close(rec, ref_rec, mean_tol, cov_rtol)
    assert est.clamp_violations == ref.clamp_violations
    _assert_belief_close(est.state, ref.state, mean_tol, cov_rtol)
    return est


@pytest.mark.parametrize("ablation", list(ABLATIONS))
@pytest.mark.parametrize("noise_mult", [1.0, 5.0], ids=["nominal", "noise5x"])
def test_step_equals_reference_on_three_soil(noise_mult, ablation):
    _assert_steps_equal_reference(_three_soil_30s(noise_mult),
                                  ABLATIONS[ablation])


def test_step_equals_reference_on_divergence_prone_scenario():
    # criterion 4's adaptive run with a ten times too small Q
    scenario = _divergence_prone_scenario(1)
    samples, _ = sim.simulate(scenario)
    small_q = tuple(q / 10.0 for q in EstimatorConfig().q_diag)
    config = EstimatorConfig(q_diag=small_q, sigma_omega=0.05, sigma_v=0.1,
                             adapt_enabled=True, fuzzy_enabled=False)
    _assert_steps_equal_reference(samples, config, scenario.vehicle)


def test_step_equals_reference_when_parameters_are_clamped():
    # soil without rolling resistance: the rho_s estimate dithers around
    # its lower bound and gets clamped
    soil = replace(MEDIUM, rho_s=0.0)
    scenario = single_soil_scenario(soil, duration=20.0,
                                    noise=sim.SensorNoise(), seed=3,
                                    f_dx=12000.0)
    samples, _ = sim.simulate(scenario)
    est = _assert_steps_equal_reference(samples, EstimatorConfig())
    assert est.clamp_violations > 0


@pytest.mark.parametrize("index", range(5, 10))
@pytest.mark.parametrize("value", [-0.3, -0.2, -0.0, 0.5, 1.5, 1.6,
                                   float("nan")])
def test_clamp_parameters_equals_reference(index, value):
    est = TractionEstimator(PARAMS, sim.STUBBLE_FAMILY, EstimatorConfig())
    ref = ReferenceTractionEstimator(PARAMS, sim.STUBBLE_FAMILY,
                                     EstimatorConfig())
    mean = nominal_state()
    mean[index] = value
    fs = ukf.FilterState.initial(mean, np.eye(10))
    out, ref_out = est._clamp_parameters(fs), ref._clamp_parameters(fs)
    assert est.clamp_violations == ref.clamp_violations
    assert (out is fs) == (ref_out is fs)
    assert _bits(out.mean) == _bits(ref_out.mean)


def test_step_equals_reference_with_jittered_cholesky():
    # a zero prior variance makes the first covariance singular, so the
    # reference's first sigma points need the jittered Cholesky factor; the
    # closed form needs no jitter, so the two part by the jitter the
    # reference adds: a wider bound of 1e-10 on mu, rho_s and slip and 1e-5
    # relative on the covariance
    p_diag = INIT_P_DIAG[:-1] + (0.0,)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(np.diag(p_diag))
    _assert_steps_equal_reference(_three_soil_30s(1.0)[:60],
                                  EstimatorConfig(), mean_tol=1e-10,
                                  cov_rtol=1e-5, p_diag=p_diag)


# --- what update keeps for adapt_q ------------------------------------------
#
# update keeps the diagonal of the K S K^T it subtracts, which adapt_q reads
# as its expected spread, and the last ADAPT_WINDOW innovations as one
# array, which adapt_q reads as its sample.  The spread is summed over the
# scalar updates, so it matches the diagonal of K S K^T formed with the
# solved gain to COV_RTOL relative; the window must be the bits adapt_q
# formed itself when it recomputed it.

@pytest.mark.parametrize("ablation", list(ABLATIONS))
@pytest.mark.parametrize("noise_mult", [1.0, 5.0], ids=["nominal", "noise5x"])
def test_update_keeps_what_adapt_q_reads(monkeypatch, noise_mult, ablation):
    samples = _three_soil_30s(noise_mult)
    est = TractionEstimator(PARAMS, sim.STUBBLE_FAMILY, ABLATIONS[ablation])
    est.initialize(TractionMeasurement(omega_w=samples[0].omega_w,
                                       v=samples[0].v))
    update = ukf.update
    seen = []

    def recording_update(fs, y, noise):
        out = update(fs, y, noise)
        seen.append((fs, y, noise, out))
        return out

    monkeypatch.setattr(ukf, "update", recording_update)
    for prev, sample in zip(samples, samples[1:]):
        est.step(TractionInput(m_d=prev.m_d, f_zf=prev.f_zf, f_dx=prev.f_dx),
                 TractionMeasurement(omega_w=sample.omega_w, v=sample.v),
                 t=sample.t, position=sample.pos)
    assert len(seen) == len(samples) - 1

    innovations = []
    for k, (fs, y, noise, out) in enumerate(seen, start=1):
        m = len(y)
        s_cov = fs.cov[:m, :m] + noise.r
        gain = np.linalg.solve(s_cov, fs.cov[:, :m].T).T
        spread = (gain @ s_cov @ gain.T).diagonal()
        _assert_close(out.spread / spread.max(), spread / spread.max(),
                      COV_RTOL, "spread")
        innovations.append(y - fs.mean[:m])
        window = out.residuals
        assert window.flags.c_contiguous
        assert window.shape == (min(k, ukf.ADAPT_WINDOW), m)
        assert _bits(window) == _bits(
            np.concatenate(innovations[-ukf.ADAPT_WINDOW:]))
        if k < ukf.ADAPT_WINDOW:
            assert ukf.adapt_q(out) is out.a_diag
        else:
            # a fresh array, the operand res.T @ res always had
            assert window.flags.owndata
            assert ukf.adapt_q(out) is not out.a_diag
