import copy
import csv
import importlib.util
import inspect
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    THREE_SOIL,
    import_layer_csv,
    reference_write_estimates_csv,
    reference_write_telemetry_csv,
    reference_write_timeseries_csv,
    reference_write_truth_csv,
    three_soils,
)
from tractionmap import cli, mapping, sim
from tractionmap.cli import (
    ConfigurationError,
    DegenerateVariance,
    MetricsReport,
    RunConfig,
    compute_r_squared,
)
from tractionmap.dynamics import SoilParams, mu_curve
from tractionmap.estimator import (
    EstimateRecord,
    EstimatorConfig,
    TractionEstimator,
)
from tractionmap.sim import TelemetrySample, TruthRecord

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_spec = importlib.util.spec_from_file_location(
    "cmp_outputs", ROOT / "scripts" / "cmp_outputs.py")
cmp_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cmp_outputs)

SMALL_SCENARIO = {
    "field": {
        "extent": [120.0, 20.0],
        "default_soil": {"a": 0.70, "p": 0.6, "alpha1": -20.0,
                         "alpha2": -3.0, "rho_s": 0.06},
        "regions": [
            {"rect": [0.0, 0.0, 30.0, 20.0],
             "soil": {"a": 0.85, "p": 0.6, "alpha1": -20.0,
                      "alpha2": -3.0, "rho_s": 0.04}},
            {"rect": [30.0, 0.0, 120.0, 20.0],
             "soil": {"a": 0.55, "p": 0.6, "alpha1": -20.0,
                      "alpha2": -3.0, "rho_s": 0.08}},
        ],
    },
    "path": [[2.0, 10.0], [118.0, 10.0]],
    "target_speed": 2.0,
    "drawbar": {"constant": 15000.0, "ramp_time": 2.0},
    "noise": {"sigma_omega": 0.01, "sigma_v": 0.02, "sigma_pos": 0.3},
    "duration": 30.0,
    "seed": 7,
}


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(SMALL_SCENARIO))
    return path


# --- R squared ----------------------------------------------------------------

def test_r_squared_identical_curves():
    grid = np.linspace(0.0, 0.5, 51)
    _, soil, _ = three_soils()
    curve = [mu_curve(s, soil) for s in grid]
    assert compute_r_squared(curve, curve) == pytest.approx(1.0)


def test_r_squared_mean_predictor_is_zero():
    grid = np.linspace(0.0, 0.5, 25)
    firm, _, _ = three_soils()
    true = np.array([mu_curve(s, firm) for s in grid])
    flat = np.full_like(true, true.mean())
    assert compute_r_squared(flat, true) == pytest.approx(0.0, abs=1e-12)


def test_r_squared_hand_computed_case():
    true = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    ident = true + np.array([0.5, -0.5, 0.5, -0.5, 0.5,
                             -0.5, 0.5, -0.5, 0.5, -0.5])
    # SS_res = 10 * 0.25 = 2.5; SS_tot = sum (k - 4.5)^2 = 82.5
    assert compute_r_squared(ident, true) == pytest.approx(1.0 - 2.5 / 82.5,
                                                           abs=1e-12)


def test_r_squared_degenerate_variance():
    with pytest.raises(DegenerateVariance):
        compute_r_squared(np.ones(12), np.ones(12))


def test_r_squared_requires_enough_points():
    with pytest.raises(ValueError):
        compute_r_squared(np.arange(5.0), np.arange(5.0))


# --- pipeline -------------------------------------------------------------------

def test_run_writes_all_outputs(scenario_file, tmp_path):
    out = tmp_path / "out"
    report = cli.run(RunConfig(scenario_path=str(scenario_file),
                               out_dir=str(out)))
    assert isinstance(report, MetricsReport)
    expected = ["telemetry.csv", "truth.csv", "estimates.csv",
                "timeseries.csv", "metrics.json", "metrics.txt",
                "map_state.json"]
    expected += [f"map_raw_{layer}.csv" for layer in mapping.LAYER_NAMES]
    expected += [f"map_{layer}.csv" for layer in mapping.LAYER_NAMES]
    for name in expected:
        assert (out / name).is_file(), name
    assert len(report.per_soil) == 2
    for soil_metrics in report.per_soil:
        assert soil_metrics.mu_error_pct < 5.0
        assert soil_metrics.r_squared > 0.85


def test_metrics_json_matches_report(scenario_file, tmp_path):
    out = tmp_path / "out"
    report = cli.run(RunConfig(scenario_path=str(scenario_file),
                               out_dir=str(out)))
    with open(out / "metrics.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["rho_s_error_pct"] == pytest.approx(report.rho_s_error_pct)
    assert on_disk["coverage"] == pytest.approx(report.coverage)
    for got, want in zip(on_disk["per_soil"], report.per_soil):
        assert got["mu_error_pct"] == pytest.approx(want.mu_error_pct)
        assert got["r_squared"] == pytest.approx(want.r_squared)


def test_metrics_recomputable_from_exported_logs(scenario_file, tmp_path):
    out = tmp_path / "out"
    report = cli.run(RunConfig(scenario_path=str(scenario_file),
                               out_dir=str(out)))
    truth = sim.read_truth_csv(out / "truth.csv")

    with open(out / "estimates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    records = []
    for row in rows:
        records.append(cli.EstimateRecord(
            t=float(row["t"]),
            position=(float(row["x"]), float(row["y"])),
            mu=tuple(float(row[f"mu{i}"]) for i in range(1, 5)),
            rho_s=float(row["rho_s"]),
            slip=tuple(float(row[f"slip{i}"]) for i in range(1, 5)),
            curve_scale=float(row["a"]) if row["a"] else None,
            cov_diag=tuple(float(row[f"p{i}{i}"]) for i in range(10))))
    offline = cli.compute_metrics(records, truth, None, None,
                                  sim.STUBBLE_FAMILY)
    for got, want in zip(offline.per_soil, report.per_soil):
        assert got.mu_error_pct == pytest.approx(want.mu_error_pct, rel=1e-12)
        assert got.r_squared == pytest.approx(want.r_squared, rel=1e-12)
    assert offline.rho_s_error_pct == pytest.approx(report.rho_s_error_pct,
                                                    rel=1e-12)


@pytest.fixture(scope="module")
def short_logs():
    """Telemetry and truth of the first 3 s of the three-soil run."""
    scenario = replace(sim.load_scenario(THREE_SOIL), duration=3.0)
    return sim.simulate(scenario)


def _shift_t(records, k, dt):
    return records[:k] + [replace(records[k], t=records[k].t + dt)] \
        + records[k + 1:]


@pytest.mark.parametrize("misalign", [
    lambda rec, tr: (rec, tr[:10]),
    lambda rec, tr: (rec, tr[1:]),
    lambda rec, tr: (rec[1:], tr),
    lambda rec, tr: (rec, _shift_t(tr, 12, 1e-6)),
    lambda rec, tr: (rec, [tr[0]] + tr),
], ids=["short_truth", "truth_starts_late", "records_start_late",
        "one_truth_time_off", "truth_starts_early"])
def test_misaligned_logs_are_refused(misalign, short_logs, tmp_path):
    samples, truth = short_logs
    records, _ = cli.run_estimation(samples, sim.load_scenario(
        THREE_SOIL).vehicle, sim.STUBBLE_FAMILY, EstimatorConfig())
    # aligned: scored
    cli.compute_metrics(records, truth, None, None, sim.STUBBLE_FAMILY)
    records, truth = misalign(records, truth)
    with pytest.raises(ValueError, match="do not align"):
        cli.compute_metrics(records, truth, None, None, sim.STUBBLE_FAMILY)
    with pytest.raises(ValueError, match="do not align"):
        cli.write_timeseries_csv(records, truth, tmp_path / "ts.csv")
    assert not (tmp_path / "ts.csv").exists()


# --- log writers: byte-equal to the csv writer ------------------------------

def _assert_logs_byte_equal(records, samples, truth, tmp_path):
    """Each log writer writes the bytes of its csv-writer reference."""
    for name, write, reference, args in [
            ("telemetry", sim.write_telemetry_csv,
             reference_write_telemetry_csv, (samples,)),
            ("truth", sim.write_truth_csv, reference_write_truth_csv,
             (truth,)),
            ("estimates", cli.write_estimates_csv,
             reference_write_estimates_csv, (records,)),
            ("timeseries", cli.write_timeseries_csv,
             reference_write_timeseries_csv, (records, truth))]:
        new, ref = tmp_path / f"{name}.csv", tmp_path / f"ref_{name}.csv"
        write(*args, new)
        reference(*args, ref)
        assert new.read_bytes() == ref.read_bytes(), name


def test_log_writers_byte_equal_to_reference(short_logs, tmp_path):
    samples, truth = short_logs
    records, _ = cli.run_estimation(samples, sim.load_scenario(
        THREE_SOIL).vehicle, sim.STUBBLE_FAMILY, EstimatorConfig())
    _assert_logs_byte_equal(records, samples, truth, tmp_path)


# Values whose repr takes an exponent, a subnormal, the largest float, a
# negative zero, ints and numpy scalars, besides any float.
AWKWARD = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e+16, 1.7976931348623157e+308,
           0, -7, 10 ** 20, np.float64(0.1), np.float64(-2.5e-300),
           math.inf, -math.inf, math.nan]
_value = st.one_of(st.sampled_from(AWKWARD), st.floats())
_quad = st.tuples(_value, _value, _value, _value)
# SoilParams refuses values outside its ranges; these are inside them
_soil = st.builds(
    SoilParams,
    a=st.sampled_from([5e-324, 1e-05, 1e+16, 1.7976931348623157e+308, 3]),
    p=st.sampled_from([-0.0, 5e-324, 1e-05, 1, np.float64(0.6)]),
    alpha1=st.sampled_from([-5e-324, -1e-05, -1e+16, -20]),
    alpha2=st.sampled_from([-1.7976931348623157e+308, np.float64(-3.0)]),
    rho_s=st.sampled_from([-0.0, 5e-324, 1e-05, 0.5, np.float64(0.06)]))


@st.composite
def _awkward_logs(draw):
    """Samples, truth and records of awkward values; a NaN time would make
    the timeseries refuse to pair truth with records, so times are not
    NaN."""
    n = draw(st.integers(1, 4))
    times = [draw(st.one_of(st.sampled_from(AWKWARD[:-1]),
                            st.floats(allow_nan=False))) for _ in range(n + 1)]
    samples = [TelemetrySample(t=t, pos=draw(st.tuples(_value, _value)),
                               omega_w=draw(_quad), v=draw(_value),
                               m_d=draw(_quad), f_zf=draw(_value),
                               f_dx=draw(_value)) for t in times]
    truth = [TruthRecord(t=t, pos=draw(st.tuples(_value, _value)),
                         soil=draw(_soil), mu=draw(_quad), slip=draw(_quad),
                         v=draw(_value), omega_w=draw(_quad),
                         drive_energy=draw(_value),
                         drawbar_work=draw(_value)) for t in times]
    records = [EstimateRecord(
        t=t, position=draw(st.tuples(_value, _value)), mu=draw(_quad),
        rho_s=draw(_value), slip=draw(_quad),
        curve_scale=draw(st.one_of(st.none(), _value)),
        cov_diag=draw(st.one_of(
            st.lists(_value, min_size=10, max_size=10).map(tuple),
            st.lists(st.floats(), min_size=10, max_size=10).map(np.array))))
        for t in times[1:]]
    return records, samples, truth


@settings(max_examples=60, deadline=None)
@given(logs=_awkward_logs())
def test_log_writers_byte_equal_on_awkward_values(logs, tmp_path_factory):
    _assert_logs_byte_equal(*logs, tmp_path_factory.mktemp("logs"))


def test_run_seed_override_changes_noise_draws(scenario_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cli.run(RunConfig(scenario_path=str(scenario_file), out_dir=str(out_a)))
    cli.run(RunConfig(scenario_path=str(scenario_file), out_dir=str(out_b),
                      seed=12345))
    assert ((out_a / "telemetry.csv").read_text()
            != (out_b / "telemetry.csv").read_text())


def test_run_takes_the_filter_noise_from_the_scenario(tmp_path, monkeypatch):
    # run builds the filter's R from the scenario's speed-sensor sigmas;
    # replay, which has no scenario, keeps EstimatorConfig's defaults
    scenario = copy.deepcopy(SMALL_SCENARIO)
    scenario["noise"]["sigma_omega"] = 0.05
    scenario["duration"] = 10.0
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario))
    seen = []
    original = cli.run_estimation

    def spy(*args, **kwargs):
        records, est = original(*args, **kwargs)
        seen.append(est.noise.r.diagonal().tolist())
        return records, est

    monkeypatch.setattr(cli, "run_estimation", spy)
    out = tmp_path / "out"
    cli.run(RunConfig(scenario_path=str(path), out_dir=str(out)))
    cli.replay(out / "telemetry.csv", tmp_path / "replay")
    assert seen[0] == pytest.approx([0.0025] * 4 + [0.0004], rel=1e-12)
    assert seen[1] == pytest.approx([0.0001] * 4 + [0.0004], rel=1e-12)


# a curve family other than sim.STUBBLE_FAMILY
OTHER_FAMILY = (0.4, -12.0, -1.5)


def _three_soil_with_families(tmp_path, families) -> Path:
    """three_soil.yaml with the (p, alpha1, alpha2) of the default soil
    and of the three regions' soils, in that order, replaced."""
    raw = yaml.safe_load(THREE_SOIL.read_text())
    soils = [raw["field"]["default_soil"],
             *(region["soil"] for region in raw["field"]["regions"])]
    for soil, (p, alpha1, alpha2) in zip(soils, families, strict=True):
        soil.update(p=p, alpha1=alpha1, alpha2=alpha2)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


def test_run_identifies_the_curve_family_of_the_scenario(tmp_path):
    # With STUBBLE_FAMILY assumed, the filter read a = 0.483, 0.437, 0.393
    # and R^2 0.585, 0.798, 0.926 off these soils.
    path = _three_soil_with_families(tmp_path, [OTHER_FAMILY] * 4)
    report = cli.run(RunConfig(scenario_path=str(path),
                               out_dir=str(tmp_path / "out")))
    assert [s.true_a for s in report.per_soil] == [0.85, 0.70, 0.55]
    for s in report.per_soil:
        assert s.identified_a == pytest.approx(s.true_a, abs=0.005)
        assert s.r_squared > 0.999


def test_run_refuses_soils_that_disagree_on_the_curve_family(tmp_path,
                                                            capsys):
    path = _three_soil_with_families(
        tmp_path, [sim.STUBBLE_FAMILY] + [OTHER_FAMILY] * 3)
    out = tmp_path / "never"
    assert cli.main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: the field's soils disagree "
                          "on (p, alpha1, alpha2)")
    assert not out.exists()
    # the plant itself runs any soils
    scenario = sim.load_scenario(path)
    sim.simulate(replace(scenario, duration=1.0))


def test_timeseries_pairs_truth_with_estimates(scenario_file, tmp_path):
    out = tmp_path / "out"
    cli.run(RunConfig(scenario_path=str(scenario_file), out_dir=str(out)))
    with open(out / "timeseries.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    # converged tail: estimate close to truth
    tail = rows[-20:]
    for row in tail:
        assert abs(float(row["mu1_true"]) - float(row["mu1_est"])) < 0.02


def test_zero_rho_s_metrics_are_strict_json(tmp_path):
    # every soil has rho_s = 0, so the rho_s percentage error has no truth
    # to divide by: it is null in metrics.json and n/a in metrics.txt
    scenario = copy.deepcopy(SMALL_SCENARIO)
    scenario["field"]["default_soil"]["rho_s"] = 0.0
    for region in scenario["field"]["regions"]:
        region["soil"]["rho_s"] = 0.0
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    metrics = json.loads((out / "metrics.json").read_text(),
                         parse_constant=refuse)
    assert metrics["rho_s_error_pct"] is None
    assert all(s["mu_error_pct"] is not None for s in metrics["per_soil"])
    assert "rho_s error: n/a\n" in (out / "metrics.txt").read_text()


# --- command line -----------------------------------------------------------------

@pytest.mark.parametrize("settings, options", [
    (None, []),
    ({"drawbar": {"constant": 15000.0, "sin_amplitude": 1000.0,
                  "sin_period": 0.0}}, []),
    ({"noise": {"sigma_omega": -0.01}}, []),
    ({}, ["--resolution", "nan"]),
    ({}, ["--resolution", "inf"]),
    ({"duration": float("nan")}, []),
    ({"duration": float("inf")}, []),
    ({"target_speed": float("nan")}, []),
    ({"seed": 1.5}, []),
    ({}, ["--seed", "-1"]),
    ({"power_cap": -1.0}, []),
    ({"max_wheel_torque": -5.0}, []),
    ({"kp": float("nan")}, []),
    ({"ki": -1.0}, []),
    ({"drawbar": {"constant": float("nan")}}, []),
    ({"drawbar": {"constant": 15000.0, "ramp_time": float("inf")}}, []),
    ({"field": {**SMALL_SCENARIO["field"],
                "default_soil": {"a": float("nan"), "p": 0.6, "alpha1": -20.0,
                                 "alpha2": -3.0, "rho_s": 0.06}}}, []),
    ({"field": {**SMALL_SCENARIO["field"], "extent": [float("nan"), 20.0]}},
     []),
    ({"field": {**SMALL_SCENARIO["field"], "extent": [-5.0, 20.0],
                "regions": []}}, []),
    ({"vehicle": {"wheel_inertia": float("nan")}}, []),
    ({"vehicle": {"wheel_mass": 2000.0}}, []),
    ({"vehicle": {"wheel_count": 2}}, []),
    ({"path": [[float("nan"), 10.0], [118.0, 10.0]]}, []),
    ({"path": [[2.0, 10.0], [float("inf"), 10.0]]}, []),
    ({"path": [[2.0, 10.0], [130.0, 10.0]]}, []),
    ({"path": [[2.0, 10.0], [60.0, 10.0], [60.0, -1.0]]}, []),
    ({"path": [[2.0, 10.0], [2.0, 10.0]]}, []),
    ({"noise": {"sigma_omega": 0.01, "sigma_v": 0.02,
                "sigma_pos": float("inf")}}, []),
    ({"field": {**SMALL_SCENARIO["field"],
                "regions": [{**SMALL_SCENARIO["field"]["regions"][0],
                             "rect": [30.0, 0.0, 0.0, 20.0]},
                            SMALL_SCENARIO["field"]["regions"][1]]}}, []),
    ({"duration": 0.05}, []),
    ("field: {extent: [120.0, 20.0]\n", []),
    ({"field": 5}, []),
    ({"drawbar": {"constant": -15000.0}}, []),
    ({"drawbar": {"constant": 15000.0, "sin_amplitude": -3000.0}}, []),
    ({"drawbar": {"constant": 15000.0, "ramp_time": -5.0,
                  "sin_amplitude": 1000.0, "sin_period": 10.0}}, []),
    ({"duraton": 3.0}, []),
    ({"field": {"extent": SMALL_SCENARIO["field"]["extent"],
                "default_soil": SMALL_SCENARIO["field"]["default_soil"],
                "region": SMALL_SCENARIO["field"]["regions"]}}, []),
    ({"field": {**SMALL_SCENARIO["field"],
                "regions": [{**SMALL_SCENARIO["field"]["regions"][0],
                             "label": 1.0},
                            SMALL_SCENARIO["field"]["regions"][1]]}}, []),
    ({"field": {**SMALL_SCENARIO["field"],
                "default_soil": {**SMALL_SCENARIO["field"]["default_soil"],
                                 "rho_t": 0.015}}}, []),
    ({"field": {**SMALL_SCENARIO["field"], "default_soil": 0.7}}, []),
], ids=["missing", "zero_sin_period", "negative_sigma", "nan_resolution",
        "inf_resolution", "nan_duration", "inf_duration", "nan_target_speed",
        "fractional_seed", "negative_seed_override", "negative_power_cap",
        "negative_max_wheel_torque", "nan_kp", "negative_ki",
        "nan_drawbar_constant", "inf_drawbar_ramp_time", "nan_soil_a",
        "nan_extent", "negative_extent", "nan_wheel_inertia",
        "wheels_heavier_than_vehicle", "wheel_count_field", "nan_waypoint",
        "inf_waypoint", "waypoint_beyond_length", "waypoint_below_width",
        "zero_length_path", "inf_sigma", "inverted_region",
        "duration_below_sample_period", "unclosed_brace_yaml",
        "field_not_a_mapping", "negative_drawbar_constant",
        "negative_drawbar_sin_amplitude", "negative_drawbar_ramp_time",
        "misspelt_top_level_key", "misspelt_field_key", "region_extra_key",
        "soil_extra_key", "soil_not_a_mapping"])
def test_main_bad_scenario_no_partial_outputs(settings, options, tmp_path,
                                              capsys):
    # ``settings`` replaces top-level keys of SMALL_SCENARIO, or is the
    # whole file's text; None leaves the file missing
    path = tmp_path / "scenario.yaml"
    if isinstance(settings, str):
        path.write_text(settings)
    elif settings is not None:
        path.write_text(yaml.safe_dump({**SMALL_SCENARIO, **settings}))
    out = tmp_path / "never"
    code = cli.main(["run", str(path), "--out", str(out), *options])
    assert code == 1
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["export-map", "s.json", "--layer", "p"],
    ["run", str(THREE_SOIL), "--seed", "abc"],
    ["run", str(THREE_SOIL), "--eps-low", "0.5"],
    ["replay", "t.csv", "--no-interpolate"],
], ids=["unknown_layer", "text_seed", "band_flag",
        "no_interpolate_flag"])
def test_main_usage_error_is_configuration_error(argv, tmp_path, capsys):
    # argparse exits 2 on a usage error; 2 is the pipeline-error code here
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "never")])
    assert exc.value.code == 1
    assert not (tmp_path / "never").exists()
    err = capsys.readouterr().err
    assert err.startswith("usage: tractionmap") and "configuration error" in err


def test_main_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--help"])
    assert exc.value.code == 0
    assert "usage: tractionmap run" in capsys.readouterr().out


def test_main_run_and_export_map(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario_file), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "mu error" in printed

    target = tmp_path / "exported_a.csv"
    code = cli.main(["export-map", str(out / "map_state.json"),
                     "--layer", "a", "--out", str(target)])
    assert code == 0
    layer, cells = import_layer_csv(target)
    assert layer == "a" and cells
    # exported raw map equals the run's own raw layer file
    assert target.read_bytes() != b""
    assert (out / "map_raw_a.csv").read_text() == target.read_text()


def test_main_export_map_missing_state(tmp_path, capsys):
    code = cli.main(["export-map", str(tmp_path / "none.json"),
                     "--layer", "a"])
    assert code == 1


GOOD_VALUES = [0.7, 0.06]


@pytest.mark.parametrize("change, message", [
    ([[4, 0, 1, *GOOD_VALUES]], "outside"),
    ([[0, 3, 1, *GOOD_VALUES]], "outside"),
    ([[-1, 0, 1, *GOOD_VALUES]], "outside"),
    ([[0, -1, 1, *GOOD_VALUES]], "outside"),
    ([[1, 1, 0, *GOOD_VALUES]], "count"),
    ([[1, 1, -2, *GOOD_VALUES]], "count"),
    # a cell of four or of six numbers: one layer value short or over
    ([[1, 1, 1, *GOOD_VALUES[:1]]], "layer values"),
    ([[1, 1, 1, *GOOD_VALUES, 0.5]], "layer values"),
    ([[1, 1, 1, float("nan"), *GOOD_VALUES[1:]]], "finite"),
    ([[1, 1, 1, *GOOD_VALUES[:1], float("inf")]], "finite"),
    ([[None, 1, 1, *GOOD_VALUES]], "finite"),
    ([[1.5, 1, 1, *GOOD_VALUES]], "integers"),
    ([[1, 1, 1, "a", *GOOD_VALUES[1:]]], "malformed"),
    (7, "layer values"),
    ([[1, 1, 1, *GOOD_VALUES], [2, 0, 1, *GOOD_VALUES],
      [1, 1, 2, *GOOD_VALUES]], "twice"),
    ({"width": 2.5}, "width"),
    ({"width": "2"}, "width"),
    ({"width": True}, "width"),
    ({"length": 0}, "length"),
    ({"resolution": float("nan")}, "resolution"),
    ({"resolution": float("inf")}, "resolution"),
    ({"resolution": 0}, "resolution"),
    ({"resolution": "1"}, "resolution"),
    ({"origin": [0.0]}, "origin"),
    ({"origin": [0.0, float("nan")]}, "origin"),
    ({"origin": [0.0, "1"]}, "origin"),
    ({"origin": {"x": 0.0, "y": 0.0}}, "origin"),
    ({"layers": ["a", "p"]}, "layers"),
    ({"layers": ["a", "p", "alpha1", "alpha2", "rho_s"],
      "cells": [[1, 1, 1, 0.7, 0.6, -20.0, -3.0, 0.06]]}, "layers"),
    ("[0.0, 0.0]", "object"),
], ids=["i_at_width", "j_at_length", "negative_i", "negative_j",
        "zero_count", "negative_count", "four_values", "six_values",
        "nan_value", "inf_value", "null_index", "fractional_index",
        "text_value", "cells_not_a_list", "duplicate_cell",
        "fractional_width", "text_width", "bool_width", "zero_length",
        "nan_resolution", "inf_resolution", "zero_resolution",
        "text_resolution", "one_origin_number", "nan_origin",
        "text_origin", "origin_not_a_list", "wrong_layers",
        "five_layer_state", "state_not_an_object"])
def test_main_export_map_rejects_malformed_state(change, message, tmp_path,
                                                 capsys):
    # ``change`` is the cells entry, header fields to replace, or the
    # whole file's text
    state = {"origin": [0.0, 0.0], "resolution": 1.0, "width": 4,
             "length": 3, "layers": list(mapping.LAYER_NAMES),
             "cells": [[1, 1, 1, *GOOD_VALUES]]}
    if isinstance(change, dict):
        state.update(change)
    else:
        state["cells"] = change
    path = tmp_path / "map_state.json"
    path.write_text(change if isinstance(change, str) else json.dumps(state))
    out = tmp_path / "a.csv"
    code = cli.main(["export-map", str(path), "--layer", "a",
                     "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err


def _limit_address_space():
    limit = 2 * 1024 ** 3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def test_main_export_map_rejects_unallocatable_grid(tmp_path):
    # the header alone asks for 10^12 x 1 cells; the child process runs
    # under a 2 GiB address-space limit, so the allocation fails there (one
    # BLAS thread keeps numpy's own start-up reservations far below it)
    state = {"origin": [0.0, 0.0], "resolution": 1.0, "width": 10 ** 12,
             "length": 1, "layers": list(mapping.LAYER_NAMES),
             "cells": [[1, 0, 1, *GOOD_VALUES]]}
    path = tmp_path / "map_state.json"
    path.write_text(json.dumps(state))
    out = tmp_path / "a.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "tractionmap.cli", "export-map", str(path),
         "--layer", "a", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC),
             "OPENBLAS_NUM_THREADS": "1"}, capture_output=True,
        text=True, timeout=120, preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    assert not out.exists()
    assert "configuration error" in proc.stderr
    assert "cannot be allocated" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_main_replay_round_trip(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario_file), "--out", str(out)]) == 0
    replay_out = tmp_path / "replayed"
    code = cli.main(["replay", str(out / "telemetry.csv"),
                     "--truth", str(out / "truth.csv"),
                     "--out", str(replay_out)])
    assert code == 0
    # estimation is deterministic: every file the replay writes equals the
    # run's copy, the runtime lines of the metrics files excepted
    for name in ("telemetry.csv", "truth.csv"):
        (out / name).rename(tmp_path / name)
    lines = cmp_outputs.compare(out, replay_out)
    assert len(lines) == 9
    assert all(line.startswith("identical") for line in lines), lines
    with open(replay_out / "metrics.json") as fh:
        metrics = json.load(fh)
    assert len(metrics["per_soil"]) == 2


@pytest.mark.parametrize("resolution", ["0", "nan", "inf"])
def test_main_replay_rejects_bad_resolution(resolution, scenario_file,
                                            tmp_path, capsys):
    scenario = replace(sim.load_scenario(scenario_file), duration=1.0)
    samples, _ = sim.simulate(scenario)
    sim.write_telemetry_csv(samples, tmp_path / "telemetry.csv")
    out = tmp_path / "never"
    code = cli.main(["replay", str(tmp_path / "telemetry.csv"), "--out",
                     str(out), "--resolution", resolution])
    assert code == 1
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


def test_main_replay_missing_telemetry(tmp_path):
    assert cli.main(["replay", str(tmp_path / "no.csv")]) == 1


def _edit_line(path, k, edit):
    lines = path.read_text().splitlines(keepends=True)
    lines[k] = edit(lines[k])
    path.write_text("".join(lines))


@pytest.mark.parametrize("spoil", [
    lambda tel, tr, logs: tel.write_text(""),
    lambda tel, tr, logs: _edit_line(tel, 0, lambda l: "time" + l[1:]),
    lambda tel, tr, logs: _edit_line(tel, 5, lambda l: l.rsplit(",", 1)[0]
                                     + "\r\n"),
    lambda tel, tr, logs: _edit_line(tel, 5, lambda l: "abc" + l[l.index(","):]),
    lambda tel, tr, logs: sim.write_telemetry_csv(logs[0][:1], tel),
    lambda tel, tr, logs: sim.write_telemetry_csv(
        [replace(s, t=0.5 * s.t) for s in logs[0]], tel),
    lambda tel, tr, logs: sim.write_telemetry_csv(
        logs[0][:10] + logs[0][11:], tel),
    lambda tel, tr, logs: sim.write_telemetry_csv(
        _shift_t(logs[0], 4, float("nan")), tel),
    lambda tel, tr, logs: tr.unlink(),
    lambda tel, tr, logs: _edit_line(tr, 0, lambda l: l.replace("mu1", "mu0")),
    lambda tel, tr, logs: _edit_line(tr, 3, lambda l: l.replace(",", ";")),
    lambda tel, tr, logs: sim.write_truth_csv(logs[1][:10], tr),
    lambda tel, tr, logs: sim.write_truth_csv(
        _shift_t(logs[1], 7, 1e-6), tr),
], ids=["telemetry_empty", "telemetry_header", "telemetry_short_row",
        "telemetry_text_cell", "one_sample", "telemetry_20hz",
        "telemetry_gap", "telemetry_nan_t", "truth_missing", "truth_header",
        "truth_malformed_row", "truth_short", "truth_time_off"])
def test_main_replay_refuses_bad_inputs(spoil, short_logs, tmp_path, capsys):
    samples, truth = short_logs
    telemetry, truth_csv = tmp_path / "telemetry.csv", tmp_path / "truth.csv"
    sim.write_telemetry_csv(samples, telemetry)
    sim.write_truth_csv(truth, truth_csv)
    spoil(telemetry, truth_csv, short_logs)
    out = tmp_path / "never"
    code = cli.main(["replay", str(telemetry), "--truth", str(truth_csv),
                     "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan"), float("inf")])
def test_run_config_checks_resolution(resolution):
    # refused before the scenario is read, let alone simulated
    with pytest.raises(ValueError, match="resolution"):
        RunConfig(scenario_path="no_such_scenario.yaml", resolution=resolution)


def test_main_replay_names_non_finite_drive_input(tmp_path, capsys):
    # torque md1 of sample 500 of the seed-1 three-soil telemetry set to NaN
    scenario = sim.load_scenario(THREE_SOIL)
    samples, _ = sim.simulate(replace(scenario, duration=60.0, seed=1))
    samples[500] = replace(samples[500],
                           m_d=(float("nan"),) + samples[500].m_d[1:])
    telemetry = tmp_path / "telemetry.csv"
    sim.write_telemetry_csv(samples, telemetry)
    code = cli.main(["replay", str(telemetry), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite drive input" in err and "m_d=(nan," in err
    assert not (tmp_path / "o").exists()


def test_main_pipeline_error_exit_code(tmp_path, capsys):
    bad = dict(SMALL_SCENARIO)
    bad["drawbar"] = {"constant": 60000.0, "ramp_time": 0.0}
    path = tmp_path / "infeasible.yaml"
    path.write_text(yaml.safe_dump(bad))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "pipeline error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _far_growth_argv(case, short_logs, tmp_path) -> list[str]:
    """Arguments of a command whose map must grow about 1e300 cells below
    its origin."""
    if case == "replay_resolution_1e-300":
        telemetry = tmp_path / "telemetry.csv"
        sim.write_telemetry_csv(short_logs[0], telemetry)
        return ["replay", str(telemetry), "--resolution", "1e-300"]
    raw = yaml.safe_load(THREE_SOIL.read_text())
    raw["duration"] = 5.0
    raw["noise"] = {**raw.get("noise", {}), "sigma_pos": 1e300}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(raw))
    return ["run", str(path)]


@pytest.mark.parametrize("case", ["replay_resolution_1e-300",
                                  "run_sigma_pos_1e300"])
def test_far_map_growth_ends_as_pipeline_error(case, short_logs, tmp_path):
    # the grid such a growth asks for cannot be allocated; growing below
    # the origin one map size per loop step used to run for |index| / size
    # steps, so both commands hung instead
    out = tmp_path / "never"
    proc = subprocess.run(
        [sys.executable, "-m", "tractionmap.cli",
         *_far_growth_argv(case, short_logs, tmp_path), "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
        text=True, timeout=60)
    assert proc.returncode == 2
    assert "pipeline error" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_unallocatable_map_growth_names_the_grid(short_logs, tmp_path,
                                                 capsys):
    telemetry = tmp_path / "telemetry.csv"
    sim.write_telemetry_csv(short_logs[0], telemetry)
    out = tmp_path / "never"
    code = cli.main(["replay", str(telemetry), "--resolution", "1e-300",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "pipeline error: map grid of " in err
    assert "cells at resolution 1e-300 m cannot be allocated" in err
    assert not out.exists()


def test_non_finite_map_cell_names_position_and_resolution(short_logs,
                                                           tmp_path, capsys):
    # 1e-310 passes check_resolution, but a position over it overflows
    telemetry = tmp_path / "telemetry.csv"
    sim.write_telemetry_csv(short_logs[0], telemetry)
    out = tmp_path / "never"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["replay", str(telemetry), "--resolution", "1e-310",
                         "--out", str(out)])
    assert code == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "pipeline error: map cell index of position (" in err
    assert "at resolution 1e-310 m is not finite" in err
    assert not out.exists()


# --- library boundary ---------------------------------------------------------------

@pytest.mark.parametrize("function, name", [
    (cli.run_estimation, "curve_family"),
    (cli.run_estimation, "config"),
    (cli.compute_metrics, "curve_family"),
    (cli.build_map, "resolution"),
    (mapping.GroundMap.empty, "resolution"),
    (TractionEstimator, "curve_family"),
    (TractionEstimator, "config"),
    (TractionEstimator.step, "t"),
    (TractionEstimator.step, "position"),
], ids=lambda x: getattr(x, "__qualname__", x))
def test_stage_takes_what_it_runs_with_from_its_caller(function, name):
    # below the command line, RunConfig and replay no stage falls back on
    # a curve family, filter config, cell size, time or position
    parameter = inspect.signature(function).parameters[name]
    assert parameter.default is inspect.Parameter.empty


def test_default_cell_size_is_one_constant():
    parser = cli._build_parser()
    defaults = [
        RunConfig(scenario_path="s.yaml").resolution,
        inspect.signature(cli.replay).parameters["resolution"].default,
        parser.parse_args(["run", "s.yaml"]).resolution,
        parser.parse_args(["replay", "t.csv"]).resolution,
    ]
    assert defaults == [cli.DEFAULT_RESOLUTION] * 4


@pytest.mark.parametrize("settings, seed, resolution", [
    (None, None, 1.0),
    ({"drawbar": {"constant": 15000.0, "ramp_time": -5.0}}, None, 1.0),
    ({"vehicle": {"wheel_count": 2}}, None, 1.0),
    ("field: {extent: [120.0, 20.0]\n", None, 1.0),
    ({}, -1, 1.0),
    ({}, None, float("nan")),
    ({}, None, 0.0),
    ({"duraton": 3.0}, None, 1.0),
], ids=["missing", "negative_ramp_time", "unknown_vehicle_field",
        "unclosed_brace_yaml", "negative_seed", "nan_resolution",
        "zero_resolution", "misspelt_top_level_key"])
def test_run_refuses_input_with_configuration_error(settings, seed,
                                                    resolution, tmp_path):
    path = tmp_path / "scenario.yaml"
    if isinstance(settings, str):
        path.write_text(settings)
    elif settings is not None:
        path.write_text(yaml.safe_dump({**SMALL_SCENARIO, **settings}))
    out = tmp_path / "never"
    with pytest.raises(ConfigurationError):
        cli.run(RunConfig(scenario_path=str(path), out_dir=str(out),
                          seed=seed, resolution=resolution))
    assert not out.exists()


@pytest.mark.parametrize("spoil", [
    lambda tel, tr: tel.unlink(),
    lambda tel, tr: tel.write_text("t,x\n0.0,1.0\n"),
    lambda tel, tr: _edit_line(tel, 5, lambda l: "abc" + l[l.index(","):]),
    lambda tel, tr: tr.unlink(),
    lambda tel, tr: _edit_line(tr, 3, lambda l: l.replace(",", ";")),
    lambda tel, tr: tr.write_text('"unclosed\n'),
], ids=["telemetry_missing", "telemetry_header", "telemetry_text_cell",
        "truth_missing", "truth_malformed_row", "truth_unclosed_quote"])
def test_replay_refuses_input_with_configuration_error(spoil, short_logs,
                                                       tmp_path):
    telemetry, truth = tmp_path / "telemetry.csv", tmp_path / "truth.csv"
    sim.write_telemetry_csv(short_logs[0], telemetry)
    sim.write_truth_csv(short_logs[1], truth)
    spoil(telemetry, truth)
    out = tmp_path / "never"
    with pytest.raises(ConfigurationError):
        cli.replay(telemetry, out, truth)
    assert not out.exists()


@pytest.mark.parametrize("fzf, message", [
    (1e9, "front axle load 1000000000 N exceeds body weight"),
    (-5.0, "f_zf must be non-negative"),
], ids=["above_body_weight", "negative"])
def test_main_replay_refuses_axle_load_the_vehicle_cannot_carry(
        fzf, message, short_logs, tmp_path, capsys):
    # replay assumes the default vehicle: a front-axle load it cannot
    # carry is refused input, found before any stage runs
    telemetry = tmp_path / "telemetry.csv"
    samples = short_logs[0]
    sim.write_telemetry_csv(
        samples[:7] + [replace(samples[7], f_zf=fzf)] + samples[8:],
        telemetry)
    out = tmp_path / "never"
    assert cli.main(["replay", str(telemetry), "--out", str(out)]) == 1
    assert not out.exists()
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_stage_failure_is_not_a_configuration_error(tmp_path):
    # the infeasible drawbar of test_main_pipeline_error_exit_code: the
    # scenario loads, the plant cannot pull it
    bad = {**SMALL_SCENARIO, "drawbar": {"constant": 60000.0,
                                         "ramp_time": 0.0}}
    path = tmp_path / "infeasible.yaml"
    path.write_text(yaml.safe_dump(bad))
    with pytest.raises(Exception) as exc:
        cli.run(RunConfig(scenario_path=str(path),
                          out_dir=str(tmp_path / "o")))
    assert not isinstance(exc.value, ConfigurationError)
    assert not (tmp_path / "o").exists()


def test_noise_sweep_script_prints_one_row_per_multiplier():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "noise_sweep.py"), "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split("|")[0].strip() == "noise x"
    assert len(rows) == 1
    # multiplier | soil1 | soil2 | soil3 | rho_s error
    cells = [c.strip() for c in rows[0].split("|")]
    assert len(cells) == 5 and float(cells[0]) == 1.0
    for cell in cells[1:4]:
        err, r2 = cell.split(" / ")
        assert float(err) < 5.0 and float(r2) >= 0.85
