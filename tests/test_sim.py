import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import THREE_SOIL, reference_simulate, steady_state_slip, three_soils
from test_acceptance import _divergence_prone_scenario
from tractionmap import sim
from tractionmap.dynamics import VehicleParams
from tractionmap.sim import (
    DrawbarProfile,
    FieldSpec,
    OutOfField,
    Rect,
    ScenarioInfeasible,
    ScenarioSpec,
    SensorNoise,
    simulate,
    soil_lookup,
)

PARAMS = VehicleParams()
FIRM, MEDIUM, LOOSE = three_soils()


def cruise_scenario(soil, duration=60.0, seed=0, noise=None, f_dx=15000.0):
    terrain = FieldSpec(extent=(400.0, 20.0), regions=(), default_soil=soil)
    return ScenarioSpec(
        vehicle=PARAMS, terrain=terrain,
        path=((2.0, 10.0), (398.0, 10.0)), target_speed=2.0,
        drawbar=DrawbarProfile(constant=f_dx, ramp_time=2.0),
        noise=noise or SensorNoise(0.0, 0.0, 0.0),
        duration=duration, seed=seed)


# --- soil lookup ---------------------------------------------------------------

def test_soil_lookup_regions_and_default():
    terrain = sim.load_scenario(THREE_SOIL).terrain
    assert soil_lookup(terrain, (10.0, 5.0)) == FIRM
    assert soil_lookup(terrain, (100.0, 5.0)) == MEDIUM
    assert soil_lookup(terrain, (240.0, 5.0)) == LOOSE


def test_soil_lookup_first_region_wins_on_shared_boundary():
    terrain = sim.load_scenario(THREE_SOIL).terrain
    # the first region's right edge is the second region's left edge
    boundary = terrain.regions[0][0].x1
    assert boundary == terrain.regions[1][0].x0
    assert soil_lookup(terrain, (boundary, 5.0)) == FIRM


def test_soil_lookup_default_when_outside_all_regions():
    terrain = FieldSpec(extent=(100.0, 100.0),
                        regions=((Rect(0, 0, 10, 10), FIRM),),
                        default_soil=LOOSE)
    assert soil_lookup(terrain, (50.0, 50.0)) == LOOSE


def test_soil_lookup_out_of_field():
    terrain = sim.load_scenario(THREE_SOIL).terrain
    with pytest.raises(OutOfField):
        soil_lookup(terrain, (-1.0, 5.0))
    with pytest.raises(OutOfField):
        soil_lookup(terrain, (10.0, 25.0))


def test_field_spec_validates_regions():
    with pytest.raises(ValueError):
        FieldSpec(extent=(10.0, 10.0),
                  regions=((Rect(0, 0, 20, 5), FIRM),),
                  default_soil=MEDIUM)
    with pytest.raises(ValueError):
        FieldSpec(extent=(10.0, 10.0),
                  regions=((Rect(0, 0, math.nan, 5), FIRM),),
                  default_soil=MEDIUM)
    # Rect.contains never matches an inverted rectangle
    for rect in (Rect(8, 0, 2, 5), Rect(0, 5, 10, 1)):
        with pytest.raises(ValueError, match="x0 <= x1 and y0 <= y1"):
            FieldSpec(extent=(10.0, 10.0), regions=((rect, FIRM),),
                      default_soil=MEDIUM)


@pytest.mark.parametrize("extent", [
    (math.nan, 20.0), (20.0, math.inf), (0.0, 20.0), (-5.0, 20.0)])
def test_field_spec_rejects_bad_extent(extent):
    with pytest.raises(ValueError, match="extent"):
        FieldSpec(extent=extent, regions=(), default_soil=MEDIUM)


@pytest.mark.parametrize("name, value", [
    ("duration", math.nan), ("duration", math.inf), ("duration", 0.05),
    ("target_speed", math.nan), ("target_speed", math.inf),
    ("power_cap", -1.0), ("power_cap", math.nan), ("power_cap", 0.0),
    ("max_wheel_torque", -5.0), ("max_wheel_torque", math.inf),
    ("kp", -1.0), ("kp", math.nan), ("ki", -1.0), ("ki", math.inf),
    ("seed", 1.5), ("seed", -1), ("seed", True), ("seed", "7"),
])
def test_scenario_spec_rejects_bad_numbers(name, value):
    with pytest.raises(ValueError, match=name):
        dataclasses.replace(cruise_scenario(MEDIUM), **{name: value})


def test_scenario_spec_accepts_zero_gains_and_numpy_seed():
    base = cruise_scenario(MEDIUM)
    dataclasses.replace(base, kp=0.0, ki=0.0, seed=np.int64(3))


def test_shortest_duration_gives_two_samples():
    samples, truth = simulate(cruise_scenario(MEDIUM, duration=sim.SAMPLE_DT))
    assert [s.t for s in samples] == [t.t for t in truth] == [0.0, 0.1]


@pytest.mark.parametrize("name", ["sigma_omega", "sigma_v", "sigma_pos"])
@pytest.mark.parametrize("value", [-0.01, math.nan, math.inf])
def test_sensor_noise_rejects_negative_or_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        SensorNoise(**{name: value})


# --- drawbar profile -------------------------------------------------------------

def test_drawbar_ramp_and_constant():
    prof = DrawbarProfile(constant=10000.0, ramp_time=2.0)
    assert prof(0.0) == 0.0
    assert prof(1.0) == pytest.approx(5000.0)
    assert prof(2.0) == pytest.approx(10000.0)
    assert prof(50.0) == pytest.approx(10000.0)


def test_drawbar_sinusoid_starts_after_ramp():
    prof = DrawbarProfile(constant=10000.0, ramp_time=2.0,
                          sin_amplitude=2000.0, sin_period=10.0)
    assert prof(2.0) == pytest.approx(10000.0)
    assert prof(4.5) == pytest.approx(10000.0 + 2000.0, rel=1e-12)
    assert prof(9.5) == pytest.approx(10000.0 - 2000.0, rel=1e-12)


@pytest.mark.parametrize("name", [
    "constant", "ramp_time", "sin_amplitude", "sin_period"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_drawbar_profile_rejects_non_finite(name, value):
    with pytest.raises(ValueError, match=name):
        DrawbarProfile(**{name: value})


# --- simulate: equilibrium against the bisection oracle --------------------------

def test_cruise_slip_matches_traction_balance():
    scenario = cruise_scenario(MEDIUM)
    samples, truth = simulate(scenario)
    s_oracle = steady_state_slip(MEDIUM, PARAMS, 15000.0)
    tail = [r for r in truth if r.t >= 50.0]
    for rec in tail:
        for w in range(4):
            assert abs(rec.slip[w] - s_oracle) < 1e-4


def test_cruise_reaches_target_speed():
    scenario = cruise_scenario(FIRM)
    _, truth = simulate(scenario)
    assert truth[-1].v == pytest.approx(2.0, abs=1e-3)


# --- simulate: exact agreement with the scalar reference plant -------------------

def _standstill_start():
    # Zero noise and the full drawbar from t = 0: the first steps run in
    # the standstill case of slip, under load.
    scenario = cruise_scenario(LOOSE, duration=20.0)
    return dataclasses.replace(
        scenario, drawbar=DrawbarProfile(constant=15000.0, ramp_time=0.0))


def _other_vehicle():
    # No tire rolling resistance (the tanh term's factor is 0.0), softer
    # tires and a smaller wheel inertia than the default vehicle.
    scenario = dataclasses.replace(sim.load_scenario(THREE_SOIL),
                                   duration=40.0)
    return dataclasses.replace(scenario, vehicle=VehicleParams(
        tire_rr_coeff=0.0, tire_pressure=1.1, wheel_inertia=20.0))


def _field_run(extent, regions, default_soil, path, duration,
               drawbar=DrawbarProfile()):
    return ScenarioSpec(
        vehicle=PARAMS, terrain=FieldSpec(extent, regions, default_soil),
        path=path, target_speed=2.0, drawbar=drawbar, noise=SensorNoise(),
        duration=duration, seed=5)


def _diagonal_through_corners():
    # A turn on the corner shared by four regions, then through the corner
    # of a fifth, about 34 and 51 m along the path.
    regions = ((Rect(45.0, 30.0, 80.0, 40.0), FIRM),
               (Rect(0.0, 0.0, 30.0, 20.0), FIRM),
               (Rect(30.0, 0.0, 60.0, 20.0), LOOSE),
               (Rect(0.0, 20.0, 30.0, 40.0), LOOSE),
               (Rect(30.0, 20.0, 60.0, 40.0), MEDIUM))
    return _field_run((80.0, 40.0), regions, MEDIUM,
                      ((2.0, 38.0), (30.0, 20.0), (60.0, 40.0)), 32.0)


def _along_region_y0_edge():
    # y == y0 lies inside the region (edges inclusive): the soil changes
    # at its x0 and x1 only
    return _field_run((100.0, 20.0), ((Rect(20.0, 10.0, 60.0, 20.0), LOOSE),),
                      FIRM, ((2.0, 10.0), (98.0, 10.0)), 40.0)


def _shallow_segment_crosses_y0():
    # a 1e-9 slope crosses the region's y0 about 40 m along the path
    return _field_run(
        (100.0, 20.0), ((Rect(30.0, 10.0 + 4e-8, 100.0, 20.0), LOOSE),), FIRM,
        ((2.0, 10.0), (98.0, 10.0 + 96e-9)), 30.0)


def _zero_ramp_from_field_edge():
    # the first waypoint is on the field's x = 0 edge
    return _field_run((100.0, 20.0), ((Rect(0.0, 0.0, 20.0, 20.0), FIRM),),
                      MEDIUM, ((0.0, 10.0), (80.0, 20.0)), 30.0,
                      DrawbarProfile(constant=10000.0, ramp_time=0.0))


def _two_pass_survey():
    # out along y = 2 and back along y = 6 (-x), the turn between them
    # crossing the loose region's y0 edge on a vertical segment; firm,
    # medium and loose soil all lie on the path
    regions = ((Rect(0.0, 0.0, 12.0, 12.0), FIRM),
               (Rect(22.0, 4.0, 40.0, 12.0), LOOSE))
    return _field_run((40.0, 12.0), regions, MEDIUM,
                      ((2.0, 2.0), (38.0, 2.0), (38.0, 6.0), (2.0, 6.0)),
                      40.0)


@pytest.mark.parametrize("make_scenario", [
    # crosses the first soil boundary at about 42 s
    lambda: dataclasses.replace(sim.load_scenario(THREE_SOIL), duration=50.0),
    lambda: _divergence_prone_scenario(1),
    _standstill_start,
    _other_vehicle,
    _diagonal_through_corners,
    _along_region_y0_edge,
    _shallow_segment_crosses_y0,
    _zero_ramp_from_field_edge,
    _two_pass_survey,
], ids=["three_soil_50s", "divergence_prone_sin_drawbar", "standstill_start",
        "other_vehicle", "diagonal_through_corners", "along_region_y0_edge",
        "shallow_segment_crosses_y0", "zero_ramp_from_field_edge",
        "two_pass_survey"])
def test_simulate_equals_reference_plant(make_scenario):
    # repr, not ==: dataclass equality lets a -0.0 / 0.0 difference through.
    scenario = make_scenario()
    samples, truth = simulate(scenario)
    ref_samples, ref_truth = reference_simulate(scenario)
    assert repr(samples) == repr(ref_samples)
    assert repr(truth) == repr(ref_truth)


@settings(max_examples=13, deadline=None)
@given(constant=st.just(0.0) | st.floats(0.0, 15000.0),
       ramp_time=st.just(0.0) | st.floats(0.0, 3.0),
       sin_amplitude=st.just(0.0) | st.floats(0.0, 5000.0),
       sin_period=st.floats(0.5, 5.0),
       target_speed=st.floats(1.0, 4.0),
       wheel_inertia=st.floats(20.0, 80.0),
       tire_rr_coeff=st.sampled_from((0.0, -0.0)) | st.floats(0.0, 0.1),
       soil=st.sampled_from((FIRM, MEDIUM, LOOSE)),
       duration=st.floats(2.0, 5.0), seed=st.integers(0, 2**16))
# A pull that rolls the vehicle backwards brakes at the start of a step
# (the first stage), which the drawn ranges rarely reach.
@example(30000.0, 1.0, 0.0, 1.0, 0.5, 50.0, 0.015, FIRM, 2.0, 1)
# A light wheel spins backwards (w < 0) under a pull from a standstill.
@example(20000.0, 0.0, 0.0, 1.0, 0.4, 7.0, 0.015, MEDIUM, 2.0, 1)
def test_simulate_equals_reference_plant_on_random_short_runs(
        constant, ramp_time, sin_amplitude, sin_period, target_speed,
        wheel_inertia, tire_rr_coeff, soil, duration, seed):
    # Each run starts in the standstill case and sub-steps below about
    # 1 m/s; about two draws in three brake (negative slip) in a later
    # stage after an overshoot or a sinusoid's pull.  Slower targets,
    # heavier pulls and lighter wheels can hold the vehicle near
    # standstill at 200 sub-steps a step, which costs the reference
    # seconds per run, so the drawn ranges stop short of them.  The 396 m
    # path outlasts any 5 s run.
    terrain = FieldSpec(extent=(400.0, 20.0), regions=(), default_soil=soil)
    scenario = ScenarioSpec(
        vehicle=VehicleParams(wheel_inertia=wheel_inertia,
                              tire_rr_coeff=tire_rr_coeff),
        terrain=terrain, path=((2.0, 10.0), (398.0, 10.0)),
        target_speed=target_speed,
        drawbar=DrawbarProfile(constant, ramp_time, sin_amplitude, sin_period),
        duration=duration, seed=seed)
    samples, truth = simulate(scenario)
    ref_samples, ref_truth = reference_simulate(scenario)
    assert repr(samples) == repr(ref_samples)
    assert repr(truth) == repr(ref_truth)


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3.0,
                -1e-310, math.inf, -math.inf, math.nan, -math.nan,
                1.0 + 2.0**-52, -(1.5 + 2.0**-52), 1e-3, -7.25, 1e300, -1e308,
                sim.INTERNAL_DT, sim.STANDSTILL_EPS)


@pytest.mark.parametrize("x", _EDGE_FLOATS + (22.0, -22.0, 19.0, -21.9),
                         ids=repr)
def test_kernel_float_identities(x):
    # The plant kernel writes these builtins out; each form must give the
    # builtin's bits.  (x if x > 0.0 else -x would give -0.0 for 0.0.)
    assert repr(x if x > 0.0 else 0.0 - x) == repr(abs(x))
    assert repr(0.0 + x + x + x + x) == repr(sum((x, x, x, x)))
    th = 1.0 if x >= 22.0 else (-1.0 if x <= -22.0 else math.tanh(x))
    assert repr(th) == repr(math.tanh(x))


@pytest.mark.parametrize("z", (22.0, math.nextafter(22.0, 0.0), 40.0,
                               1e300, math.inf), ids=repr)
def test_libm_tanh_is_one_from_22_on(z):
    # The kernel writes glibc's tanh(z) as +-1.0 for |z| >= 22, where its
    # own branch returns exactly that; just inside 22 it already rounds to
    # +-1.0 (from |z| >= 19.06 on).
    assert math.tanh(z) == 1.0
    assert math.tanh(-z) == -1.0


def test_kernel_single_substep_sizes():
    # The kernel precomputes the n_sub == 1 step from INTERNAL_DT itself.
    h = sim.INTERNAL_DT / 1
    assert repr(h) == repr(sim.INTERNAL_DT)
    assert repr((0.5 * h, h / 6.0)) == repr((0.5 * sim.INTERNAL_DT,
                                              sim.INTERNAL_DT / 6.0))


def _count_calls(monkeypatch, owner, name) -> list[int]:
    calls = [0]
    original = getattr(owner, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_plant_inputs_are_read_only_when_they_can_change(monkeypatch):
    # 50 s of the case study cross one soil boundary
    scenario = dataclasses.replace(sim.load_scenario(THREE_SOIL), duration=50.0)
    point_at = _count_calls(monkeypatch, sim._Path, "point_at")
    lookups = _count_calls(monkeypatch, sim, "soil_lookup")
    drawbar = _count_calls(monkeypatch, DrawbarProfile, "__call__")
    samples, truth = simulate(scenario)
    steps = round(scenario.duration / sim.INTERNAL_DT)
    assert len(samples) == 501
    assert len({tr.soil for tr in truth}) == 2
    assert len(samples) <= point_at[0] < 2 * len(samples)
    assert 2 <= lookups[0] < steps // 1000
    ramp_steps = round(scenario.drawbar.ramp_time / sim.INTERNAL_DT)
    assert ramp_steps <= drawbar[0] <= ramp_steps + 2

    # a sinusoid never settles: the drawbar is read on every step
    drawbar[0] = 0
    simulate(dataclasses.replace(scenario, duration=5.0, drawbar=DrawbarProfile(
        constant=12000.0, ramp_time=2.0, sin_amplitude=6000.0)))
    assert drawbar[0] == round(5.0 / sim.INTERNAL_DT) + 1


def test_simulate_ends_at_the_first_sample_past_the_path_end():
    # 18 m at 2 m/s: the path ends about 10 s into the 20 s run
    scenario = dataclasses.replace(cruise_scenario(MEDIUM, duration=20.0),
                                   path=((2.0, 10.0), (20.0, 10.0)))
    samples, truth = simulate(scenario)
    ref_samples, ref_truth = reference_simulate(scenario)
    n = len(truth)
    assert n < len(ref_truth)
    assert [tr.pos for tr in truth].count((20.0, 10.0)) == 1
    assert truth[-1].pos == (20.0, 10.0)
    # up to there it is the run that goes on to the full duration
    assert repr(samples) == repr(ref_samples[:n])
    assert repr(truth) == repr(ref_truth[:n])


# --- determinism ------------------------------------------------------------------

def test_fixed_seed_reproduces_streams_exactly():
    scenario = cruise_scenario(MEDIUM, duration=10.0,
                               noise=SensorNoise(), seed=77)
    s1, t1 = simulate(scenario)
    s2, t2 = simulate(scenario)
    assert s1 == s2
    assert t1 == t2


def test_different_seeds_differ():
    base = cruise_scenario(MEDIUM, duration=10.0, noise=SensorNoise())
    s1, _ = simulate(base)
    s2, _ = simulate(dataclasses.replace(base, seed=base.seed + 1))
    assert s1 != s2


# --- truth invariants --------------------------------------------------------------

def test_truth_slip_bounded_and_speed_nonnegative():
    scenario = cruise_scenario(LOOSE, duration=30.0)
    _, truth = simulate(scenario)
    for rec in truth:
        assert rec.v >= 0.0
        for w in range(4):
            assert -1.0 <= rec.slip[w] <= 1.0


def test_soil_boundary_jump_is_sharp():
    regions = ((Rect(0.0, 0.0, 30.0, 20.0), FIRM),
               (Rect(30.0, 0.0, 400.0, 20.0), LOOSE))
    terrain = FieldSpec(extent=(400.0, 20.0), regions=regions,
                        default_soil=FIRM)
    scenario = ScenarioSpec(
        vehicle=PARAMS, terrain=terrain,
        path=((2.0, 10.0), (398.0, 10.0)), target_speed=2.0,
        drawbar=DrawbarProfile(constant=15000.0, ramp_time=2.0),
        noise=SensorNoise(0.0, 0.0, 0.0), duration=30.0, seed=0)
    _, truth = simulate(scenario)
    crossings = [(prev, cur) for prev, cur in zip(truth, truth[1:])
                 if cur.soil != prev.soil]
    assert len(crossings) == 1
    before, after = crossings[0]
    assert before.soil == FIRM and after.soil == LOOSE
    assert before.pos[0] < 30.0 <= after.pos[0]


def test_energy_balance_losses_nonnegative():
    scenario = cruise_scenario(MEDIUM, duration=40.0)
    _, truth = simulate(scenario)

    def kinetic(rec):
        ke = 0.5 * PARAMS.vehicle_mass * rec.v ** 2
        ke += sum(0.5 * PARAMS.wheel_inertia * w ** 2 for w in rec.omega_w)
        return ke

    rng = np.random.default_rng(1)
    n = len(truth)
    for _ in range(50):
        i, j = sorted(rng.integers(0, n, 2))
        if i == j:
            continue
        drive = truth[j].drive_energy - truth[i].drive_energy
        drawbar = truth[j].drawbar_work - truth[i].drawbar_work
        d_ke = kinetic(truth[j]) - kinetic(truth[i])
        assert drive - drawbar - d_ke >= -1.0  # J, integration slack


def test_noise_sigmas_match_configuration():
    noise = SensorNoise(sigma_omega=0.01, sigma_v=0.02, sigma_pos=0.3)
    scenario = cruise_scenario(MEDIUM, duration=160.0,
                               noise=noise, seed=5)
    samples, truth = simulate(scenario)
    # pool normalized residuals across all 7 noisy channels: > 1e4 draws
    z = []
    for s, t in zip(samples, truth):
        z.append((s.pos[0] - t.pos[0]) / noise.sigma_pos)
        z.append((s.pos[1] - t.pos[1]) / noise.sigma_pos)
        z.extend((sw - tw) / noise.sigma_omega
                 for sw, tw in zip(s.omega_w, t.omega_w))
        z.append((s.v - t.v) / noise.sigma_v)
    z = np.asarray(z)
    assert z.size >= 10_000
    assert abs(z.std() - 1.0) < 0.1
    assert abs(z.mean()) < 0.05


def test_infeasible_drawbar_raises():
    terrain = FieldSpec(extent=(400.0, 20.0), regions=(),
                        default_soil=MEDIUM)
    scenario = ScenarioSpec(
        vehicle=PARAMS, terrain=terrain,
        path=((2.0, 10.0), (398.0, 10.0)), target_speed=2.0,
        drawbar=DrawbarProfile(constant=60000.0, ramp_time=0.0),
        noise=SensorNoise(0.0, 0.0, 0.0), duration=60.0, seed=0)
    with pytest.raises(ScenarioInfeasible):
        simulate(scenario)
    with pytest.raises(ScenarioInfeasible):
        reference_simulate(scenario)


def test_samples_emitted_at_10hz():
    scenario = cruise_scenario(MEDIUM, duration=12.0)
    samples, truth = simulate(scenario)
    assert len(samples) == len(truth) == 121
    dts = [b.t - a.t for a, b in zip(samples, samples[1:])]
    assert all(dt == pytest.approx(0.1, abs=1e-9) for dt in dts)


# --- scenario files and CSV logs ----------------------------------------------------

def test_load_scenario_round_trip(tmp_path):
    import yaml

    spec = {
        "vehicle": {"vehicle_mass": 6300.0, "wheel_mass": 160.0},
        "field": {
            "extent": [100.0, 20.0],
            "default_soil": {"a": 0.7, "p": 0.6, "alpha1": -20.0,
                             "alpha2": -3.0, "rho_s": 0.06},
            "regions": [
                {"rect": [0.0, 0.0, 50.0, 20.0],
                 "soil": {"a": 0.85, "p": 0.6, "alpha1": -20.0,
                          "alpha2": -3.0, "rho_s": 0.04}},
            ],
        },
        "path": [[2.0, 10.0], [98.0, 10.0]],
        "target_speed": 1.5,
        "drawbar": {"constant": 9000.0, "ramp_time": 1.0},
        "noise": {"sigma_omega": 0.005, "sigma_v": 0.01, "sigma_pos": 0.2},
        "duration": 20.0,
        "seed": 123,
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(spec))
    scenario = sim.load_scenario(path)
    assert scenario.target_speed == 1.5
    assert scenario.duration == 20.0
    assert scenario.seed == 123
    assert scenario.terrain.regions[0][1].a == 0.85
    assert scenario.drawbar.constant == 9000.0
    assert scenario.noise.sigma_v == 0.01
    assert scenario.vehicle.vehicle_mass == 6300.0


def test_load_scenario_rejects_non_mapping(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("- just\n- a\n- list\n")
    with pytest.raises(ValueError):
        sim.load_scenario(path)


def test_telemetry_csv_round_trip(tmp_path):
    scenario = cruise_scenario(MEDIUM, duration=5.0,
                               noise=SensorNoise(), seed=2)
    samples, truth = simulate(scenario)
    tpath = tmp_path / "telemetry.csv"
    sim.write_telemetry_csv(samples, tpath)
    back = sim.read_telemetry_csv(tpath)
    assert back == samples  # repr round-trip keeps floats exact


def test_truth_csv_round_trip(tmp_path):
    scenario = cruise_scenario(MEDIUM, duration=5.0)
    _, truth = simulate(scenario)
    path = tmp_path / "truth.csv"
    sim.write_truth_csv(truth, path)
    back = sim.read_truth_csv(path)
    assert back == truth


def test_three_soil_scenario_shape():
    scenario = sim.load_scenario(THREE_SOIL)
    assert scenario.duration == 120.0
    assert scenario.seed == 42
    regions = scenario.terrain.regions
    # three strips met in path order: the path runs along +x
    assert scenario.path[0][0] < scenario.path[-1][0]
    assert [rect.x0 for rect, _ in regions] == sorted(
        rect.x0 for rect, _ in regions)
    assert [soil.a for _, soil in regions] == [0.85, 0.70, 0.55]
    # one curve family, the one the estimator identifies the scale of
    soils = [soil for _, soil in regions] + [scenario.terrain.default_soil]
    assert {(soil.p, soil.alpha1, soil.alpha2) for soil in soils} == {
        sim.STUBBLE_FAMILY}
