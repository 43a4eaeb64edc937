import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from oracles import import_layer_csv
from tractionmap import cli, mapping, sim
from tractionmap.cli import (
    DegenerateVariance,
    MetricsReport,
    RunConfig,
    compute_r_squared,
)
from tractionmap.dynamics import mu_curve

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
    soil = sim.SOIL_MEDIUM
    curve = [mu_curve(s, soil) for s in grid]
    assert compute_r_squared(curve, curve) == pytest.approx(1.0)


def test_r_squared_mean_predictor_is_zero():
    grid = np.linspace(0.0, 0.5, 25)
    true = np.array([mu_curve(s, sim.SOIL_FIRM) for s in grid])
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
    offline = cli.compute_metrics(records, truth, None, None)
    for got, want in zip(offline.per_soil, report.per_soil):
        assert got.mu_error_pct == pytest.approx(want.mu_error_pct, rel=1e-12)
        assert got.r_squared == pytest.approx(want.r_squared, rel=1e-12)
    assert offline.rho_s_error_pct == pytest.approx(report.rho_s_error_pct,
                                                    rel=1e-12)


def test_run_seed_override_changes_noise_draws(scenario_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cli.run(RunConfig(scenario_path=str(scenario_file), out_dir=str(out_a)))
    cli.run(RunConfig(scenario_path=str(scenario_file), out_dir=str(out_b),
                      seed=12345))
    assert ((out_a / "telemetry.csv").read_text()
            != (out_b / "telemetry.csv").read_text())


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


def test_run_with_interpolation_disabled(scenario_file, tmp_path):
    out = tmp_path / "out"
    report = cli.run(RunConfig(scenario_path=str(scenario_file),
                               out_dir=str(out), interpolate=False))
    assert report.coverage_interpolated is None
    assert not (out / "map_a.csv").exists()
    assert (out / "map_raw_a.csv").is_file()


# --- command line -----------------------------------------------------------------

@pytest.mark.parametrize("settings, options", [
    (None, []),
    ({"drawbar": {"constant": 15000.0, "sin_amplitude": 1000.0,
                  "sin_period": 0.0}}, []),
    ({"noise": {"sigma_omega": -0.01}}, []),
    ({}, ["--resolution", "nan"]),
    ({}, ["--resolution", "inf"]),
], ids=["missing", "zero_sin_period", "negative_sigma", "nan_resolution",
        "inf_resolution"])
def test_main_bad_scenario_no_partial_outputs(settings, options, tmp_path,
                                              capsys):
    path = tmp_path / "scenario.yaml"
    if settings is not None:
        path.write_text(yaml.safe_dump({**SMALL_SCENARIO, **settings}))
    out = tmp_path / "never"
    code = cli.main(["run", str(path), "--out", str(out), *options])
    assert code == 1
    assert not out.exists()
    assert "configuration error" in capsys.readouterr().err


def test_main_rejects_bad_interpolation_override(scenario_file, tmp_path,
                                                 capsys):
    code = cli.main(["run", str(scenario_file), "--out",
                     str(tmp_path / "o"), "--eps-low", "0.5"])
    assert code == 1
    assert not (tmp_path / "o").exists()


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


GOOD_VALUES = [0.7, 0.6, -20.0, -3.0, 0.06]


@pytest.mark.parametrize("change, message", [
    ([[4, 0, 1, *GOOD_VALUES]], "outside"),
    ([[0, 3, 1, *GOOD_VALUES]], "outside"),
    ([[-1, 0, 1, *GOOD_VALUES]], "outside"),
    ([[0, -1, 1, *GOOD_VALUES]], "outside"),
    ([[1, 1, 0, *GOOD_VALUES]], "count"),
    ([[1, 1, -2, *GOOD_VALUES]], "count"),
    ([[1, 1, 1, *GOOD_VALUES[:4]]], "layer values"),
    ([[1, 1, 1, *GOOD_VALUES, 0.5]], "layer values"),
    ([[1, 1, 1, float("nan"), *GOOD_VALUES[1:]]], "finite"),
    ([[1, 1, 1, *GOOD_VALUES[:4], float("inf")]], "finite"),
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
    ("[0.0, 0.0]", "object"),
], ids=["i_at_width", "j_at_length", "negative_i", "negative_j",
        "zero_count", "negative_count", "four_values", "six_values",
        "nan_value", "inf_value", "null_index", "fractional_index",
        "text_value", "cells_not_a_list", "duplicate_cell",
        "fractional_width", "text_width", "bool_width", "zero_length",
        "nan_resolution", "inf_resolution", "zero_resolution",
        "text_resolution", "one_origin_number", "nan_origin",
        "text_origin", "origin_not_a_list", "wrong_layers",
        "state_not_an_object"])
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


def test_main_replay_round_trip(scenario_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", str(scenario_file), "--out", str(out)]) == 0
    replay_out = tmp_path / "replayed"
    code = cli.main(["replay", str(out / "telemetry.csv"),
                     "--truth", str(out / "truth.csv"),
                     "--out", str(replay_out)])
    assert code == 0
    assert (replay_out / "estimates.csv").is_file()
    # estimation is deterministic: the replayed estimates equal the originals
    assert ((replay_out / "estimates.csv").read_text()
            == (out / "estimates.csv").read_text())
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


def test_main_replay_names_non_finite_drive_input(tmp_path, capsys):
    # torque md1 of sample 500 of the seed-1 three-soil telemetry set to NaN
    scenario = sim.load_scenario(
        Path(__file__).resolve().parent.parent / "scenarios" / "three_soil.yaml")
    samples, _ = sim.simulate(replace(scenario, duration=60.0, seed=1))
    samples[500] = replace(samples[500],
                           m_d=(float("nan"),) + samples[500].m_d[1:])
    telemetry = tmp_path / "telemetry.csv"
    sim.write_telemetry_csv(samples, telemetry)
    code = cli.main(["replay", str(telemetry), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite drive input" in err and "m_d=(nan," in err


def test_main_pipeline_error_exit_code(tmp_path, capsys):
    bad = dict(SMALL_SCENARIO)
    bad["drawbar"] = {"constant": 60000.0, "ramp_time": 0.0}
    path = tmp_path / "infeasible.yaml"
    path.write_text(yaml.safe_dump(bad))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "pipeline error" in capsys.readouterr().err
