import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import WheelState, vehicle_accel, wheel_accel
from tractionmap.dynamics import (
    GRAVITY,
    DegenerateSlip,
    NonPositiveRadius,
    SoilParams,
    VehicleParams,
    invert_mu_for_a,
    mu_curve,
    mu_curve_shape,
    rolling_radius,
    slip,
    wheel_geometry,
    wheel_vertical_forces,
)

PARAMS = VehicleParams()
SOIL = SoilParams(a=0.8, p=0.6, alpha1=-20.0, alpha2=-3.0, rho_s=0.05)

soil_family = st.tuples(
    st.floats(0.05, 0.95), st.floats(-40.0, -5.0), st.floats(-4.9, -0.5))


# --- slip -----------------------------------------------------------------

def test_slip_exact_rolling():
    assert slip(2.0, 4.0, 0.5) == 0.0


def test_slip_spinning_on_the_spot():
    assert slip(0.0, 1.0, 0.5) == 1.0


def test_slip_locked_wheel():
    assert slip(1.0, 0.0, 0.5) == -1.0


def test_slip_direct_evaluation():
    # 1 - 1.5 / (0.5 * 4.0)
    assert slip(1.5, 4.0, 0.5) == pytest.approx(0.25, abs=1e-15)


def test_slip_standstill_degenerate():
    assert slip(0.0, 0.0, 0.5) == 0.0
    assert slip(5e-4, 1e-4, 0.5) == 0.0


def test_slip_requires_positive_radius():
    with pytest.raises(ValueError):
        slip(1.0, 1.0, 0.0)


@given(v=st.floats(0.01, 50.0), omega=st.floats(0.01, 50.0),
       r_d=st.floats(0.1, 2.0))
def test_slip_bounded(v, omega, r_d):
    assert -1.0 <= slip(v, omega, r_d) <= 1.0


@given(omega=st.floats(1e-2, 50.0), r_d=st.floats(0.1, 2.0))
def test_slip_zero_iff_speeds_match(omega, r_d):
    assert slip(r_d * omega, omega, r_d) == 0.0


@given(v=st.floats(1e-2, 50.0), omega=st.floats(1e-2, 50.0),
       r_d=st.floats(0.1, 2.0))
def test_slip_role_swap_flips_sign(v, omega, r_d):
    # exchanging v and r_d*omega mirrors the driving/braking branches
    s1 = slip(v, omega, r_d)
    s2 = slip(r_d * omega, v / r_d, r_d)
    assert s1 == pytest.approx(-s2, abs=1e-12)


# --- adhesion curve -------------------------------------------------------

def test_mu_curve_zero_at_zero_slip():
    for soil in (SOIL,
                 SoilParams(a=0.55, p=0.6, alpha1=-20, alpha2=-3, rho_s=0.08),
                 SoilParams(a=1.1, p=0.25, alpha1=-8, alpha2=-1, rho_s=0.0)):
        assert mu_curve(0.0, soil) == pytest.approx(0.0, abs=1e-15)


def test_mu_curve_saturates_to_asymptote():
    soil = SoilParams(a=0.8, p=0.5, alpha1=-40.0, alpha2=-35.0, rho_s=0.05)
    assert mu_curve(1.0, soil) == pytest.approx(0.8, abs=1e-12)


def test_mu_curve_scalar_value():
    expected = 0.8 - 0.48 * math.exp(-4.0) - 0.32 * math.exp(-0.6)
    assert mu_curve(0.2, SOIL) == pytest.approx(expected, rel=1e-15)


@given(s=st.floats(0.0, 1.0), family=soil_family,
       a=st.floats(0.05, 2.0))
def test_mu_curve_scales_linearly_in_a(s, family, a):
    p, a1, a2 = family
    soil = SoilParams(a=a, p=p, alpha1=a1, alpha2=a2, rho_s=0.1)
    assert mu_curve(s, soil) == pytest.approx(
        a * mu_curve_shape(s, p, a1, a2), rel=1e-12, abs=1e-12)


# --- curve-scale inversion ------------------------------------------------

def test_invert_round_trip():
    mu = mu_curve(0.3, SOIL)
    a = invert_mu_for_a(mu, 0.3, SOIL.p, SOIL.alpha1, SOIL.alpha2)
    assert a == pytest.approx(0.8, rel=1e-12)


def test_invert_degenerate_at_zero_slip():
    with pytest.raises(DegenerateSlip):
        invert_mu_for_a(0.1, 0.0, SOIL.p, SOIL.alpha1, SOIL.alpha2)


@settings(max_examples=300)
@given(a=st.floats(0.05, 2.0), s=st.floats(0.05, 0.9), family=soil_family)
def test_invert_recovers_a(a, s, family):
    p, a1, a2 = family
    soil = SoilParams(a=a, p=p, alpha1=a1, alpha2=a2, rho_s=0.1)
    mu = mu_curve(s, soil)
    try:
        recovered = invert_mu_for_a(mu, s, p, a1, a2)
    except DegenerateSlip:
        assert abs(mu_curve_shape(s, p, a1, a2)) <= 1e-3
        return
    assert recovered == pytest.approx(a, rel=1e-12)


# --- rolling radius -------------------------------------------------------

def test_rolling_radius_unloaded():
    assert rolling_radius(0.0, PARAMS) == PARAMS.unloaded_radius


def test_rolling_radius_worked_example():
    # 20 kN on a 1.6 bar, 0.6 m wide tire of 0.85 m free radius
    deformation = 20000.0 / (2.0 * math.pi * 1e5 * 1.6 * math.sqrt(0.3 * 0.85))
    assert rolling_radius(20000.0, PARAMS) == pytest.approx(
        0.85 - deformation, rel=1e-14)


def test_rolling_radius_strictly_decreasing_affine():
    r = [rolling_radius(f, PARAMS) for f in (0.0, 1e4, 2e4, 3e4)]
    diffs = [b - a for a, b in zip(r, r[1:])]
    assert all(d < 0 for d in diffs)
    assert diffs[0] == pytest.approx(diffs[1], rel=1e-12)
    assert diffs[1] == pytest.approx(diffs[2], rel=1e-12)


def test_rolling_radius_rejects_absurd_load():
    with pytest.raises(NonPositiveRadius):
        rolling_radius(1e9, PARAMS)
    with pytest.raises(ValueError):
        rolling_radius(-1.0, PARAMS)


# --- wheel / vehicle force balances (the oracles of process_model) --------

def test_wheel_accel_equilibrium():
    f_z = 10000.0
    r_d = rolling_radius(f_z, PARAMS)
    m_d = r_d * (0.4 + PARAMS.tire_rr_coeff) * f_z
    ws = WheelState(omega_w=3.0, v_w=2.0, f_z=f_z, m_d=m_d)
    assert wheel_accel(ws, 0.4, PARAMS) == pytest.approx(0.0, abs=1e-12)


def test_wheel_accel_scalar_value():
    ws = WheelState(omega_w=3.0, v_w=2.0, f_z=10000.0, m_d=500.0)
    r_d = 0.85 - 10000.0 / (2.0 * math.pi * 1e5 * 1.6 * math.sqrt(0.3 * 0.85))
    expected = (500.0 - r_d * 0.4 * 10000.0 - r_d * 0.015 * 10000.0) / 50.0
    assert wheel_accel(ws, 0.4, PARAMS) == pytest.approx(expected, rel=1e-14)


def test_wheel_accel_braking_sign():
    ws = WheelState(omega_w=3.0, v_w=2.0, f_z=10000.0, m_d=0.0)
    assert wheel_accel(ws, 0.4, PARAMS) < 0.0


def test_wheel_accel_affine_in_torque():
    f_z = 12000.0
    base = WheelState(omega_w=3.0, v_w=2.0, f_z=f_z, m_d=0.0)
    bumped = WheelState(omega_w=3.0, v_w=2.0, f_z=f_z, m_d=250.0)
    slope = (wheel_accel(bumped, 0.3, PARAMS)
             - wheel_accel(base, 0.3, PARAMS)) / 250.0
    assert slope == pytest.approx(1.0 / PARAMS.wheel_inertia, rel=1e-12)


def test_vehicle_accel_zero_cases():
    assert vehicle_accel((0.0,) * 4, (1e4,) * 4, 0.0, 0.0, PARAMS) == 0.0
    # exact force equilibrium
    mu = (0.3, 0.3, 0.3, 0.3)
    f_z = (15450.0,) * 4
    f_dx = sum(m * f for m, f in zip(mu, f_z)) - 0.05 * PARAMS.vehicle_mass * GRAVITY
    assert vehicle_accel(mu, f_z, f_dx, 0.05, PARAMS) == pytest.approx(0.0, abs=1e-12)


def test_vehicle_accel_scalar_value():
    expected = (4 * 0.4 * 15450.0 - 10000.0 - 0.05 * 6300.0 * GRAVITY) / 6300.0
    got = vehicle_accel((0.4,) * 4, (15450.0,) * 4, 10000.0, 0.05, PARAMS)
    assert got == pytest.approx(expected, rel=1e-14)


def test_vehicle_accel_validates_inputs():
    with pytest.raises(ValueError):
        vehicle_accel((0.4,) * 3, (1e4,) * 4, 0.0, 0.0, PARAMS)
    with pytest.raises(ValueError):
        vehicle_accel((0.4,) * 4, (1e4, -1.0, 1e4, 1e4), 0.0, 0.0, PARAMS)


def test_vehicle_accel_affine_in_forces():
    f_z = (15450.0,) * 4
    base = vehicle_accel((0.3,) * 4, f_z, 5000.0, 0.05, PARAMS)
    # slope in drawbar pull is -1/m
    bumped = vehicle_accel((0.3,) * 4, f_z, 6000.0, 0.05, PARAMS)
    assert (bumped - base) / 1000.0 == pytest.approx(-1.0 / PARAMS.vehicle_mass,
                                                     rel=1e-12)
    # slope in one wheel's adhesion is F_z_i / m
    bumped = vehicle_accel((0.4, 0.3, 0.3, 0.3), f_z, 5000.0, 0.05, PARAMS)
    assert (bumped - base) / 0.1 == pytest.approx(
        f_z[0] / PARAMS.vehicle_mass, rel=1e-9)


# --- vertical forces ------------------------------------------------------

def test_wheel_vertical_forces_balance():
    f_zf = 0.5 * (PARAMS.vehicle_mass - 4 * PARAMS.wheel_mass) * GRAVITY
    forces = wheel_vertical_forces(f_zf, PARAMS)
    assert sum(forces) == pytest.approx(PARAMS.vehicle_mass * GRAVITY, rel=1e-12)
    assert forces[0] == forces[1] and forces[2] == forces[3]
    # 50/50 split puts a quarter of the weight under each wheel
    assert forces[0] == pytest.approx(PARAMS.vehicle_mass * GRAVITY / 4, rel=1e-12)


def test_wheel_geometry_is_loads_then_radii():
    f_z, r_d = wheel_geometry(20000.0, PARAMS)
    assert f_z == wheel_vertical_forces(20000.0, PARAMS)
    assert r_d == tuple(rolling_radius(f, PARAMS) for f in f_z)
    assert all(type(x) is float for x in f_z + r_d)
    with pytest.raises(ValueError):
        wheel_geometry(1e6, PARAMS)


def test_wheel_vertical_forces_rejects_overload():
    with pytest.raises(ValueError):
        wheel_vertical_forces(1e6, PARAMS)


# --- parameter validation ---------------------------------------------------

def test_vehicle_params_validation():
    with pytest.raises(ValueError):
        VehicleParams(vehicle_mass=-1.0)
    with pytest.raises(ValueError):
        VehicleParams(tire_rr_coeff=0.2)
    # the model has exactly four wheels; the field is not accepted
    with pytest.raises(TypeError):
        VehicleParams(wheel_count=4)


@pytest.mark.parametrize("name", [
    "wheel_mass", "wheel_inertia", "vehicle_mass", "unloaded_radius",
    "tire_pressure", "tire_width"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_vehicle_params_reject_non_finite(name, value):
    with pytest.raises(ValueError):
        VehicleParams(**{name: value})


def test_vehicle_params_reject_wheels_heavier_than_vehicle():
    with pytest.raises(ValueError, match="four wheels"):
        VehicleParams(wheel_mass=2000.0)
    # a body of zero weight is still a vehicle: every load is a wheel's own
    f_z, _ = wheel_geometry(0.0, VehicleParams(vehicle_mass=640.0))
    assert f_z == (160.0 * GRAVITY,) * 4


# Vehicles well inside the physical range: loads stay far from overflow and
# the body mass far from the subnormal range, where halving is not exact.
@st.composite
def vehicles(draw):
    vehicle_mass = draw(st.floats(100.0, 1e5))
    return VehicleParams(
        wheel_mass=draw(st.floats(1.0, vehicle_mass / 4.0)),
        wheel_inertia=draw(st.floats(0.1, 500.0)),
        vehicle_mass=vehicle_mass,
        unloaded_radius=draw(st.floats(0.2, 2.0)),
        tire_pressure=draw(st.floats(0.3, 5.0)),
        tire_width=draw(st.floats(0.1, 1.5)),
        tire_rr_coeff=draw(st.floats(0.0, 0.1)))


@settings(max_examples=300, deadline=None)
@given(vehicles())
def test_even_load_split_gives_bit_equal_wheels(veh):
    # The plant integrates one wheel for all four on exactly this: half the
    # body weight on the front axle gives four bit-equal loads and radii.
    f_zf = 0.5 * (veh.vehicle_mass - 4.0 * veh.wheel_mass) * GRAVITY
    f_z = wheel_vertical_forces(f_zf, veh)
    assert len({x.hex() for x in f_z}) == 1
    try:
        _, r_d = wheel_geometry(f_zf, veh)
    except NonPositiveRadius:
        return  # the load flattens the tire; simulate refuses such a vehicle
    assert len({x.hex() for x in r_d}) == 1


def test_soil_params_validation():
    with pytest.raises(ValueError):
        SoilParams(a=-0.1, p=0.5, alpha1=-1, alpha2=-1, rho_s=0.1)
    with pytest.raises(ValueError):
        SoilParams(a=0.5, p=1.5, alpha1=-1, alpha2=-1, rho_s=0.1)
    with pytest.raises(ValueError):
        SoilParams(a=0.5, p=0.5, alpha1=1.0, alpha2=-1, rho_s=0.1)
    with pytest.raises(ValueError):
        SoilParams(a=0.5, p=0.5, alpha1=-1, alpha2=-1, rho_s=0.6)


@pytest.mark.parametrize("field", ["a", "alpha1", "alpha2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_soil_params_reject_non_finite(field, value):
    good = dict(a=0.5, p=0.5, alpha1=-1.0, alpha2=-1.0, rho_s=0.1)
    with pytest.raises(ValueError):
        SoilParams(**{**good, field: value})
