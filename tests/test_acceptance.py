"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The heavyweight three-soil pipelines, on scenarios/three_soil.yaml
with only the sensor noise replaced, are shared module fixtures.
"""

import dataclasses
import filecmp
import json
import time

import numpy as np
import pytest
import yaml

from oracles import (
    THREE_SOIL,
    LinearKalmanFilter,
    brute_force_interpolate,
    steady_state_slip,
    three_soils,
)
from tractionmap import cli, mapping, sim, ukf
from tractionmap.dynamics import VehicleParams, invert_mu_for_a, mu_curve, SoilParams
from tractionmap.estimator import EstimatorConfig


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion} {status}: {detail}")
    assert ok, detail


@dataclasses.dataclass
class PipelineResult:
    report: cli.MetricsReport
    runtime_s: float


def _run_pipeline(noise: sim.SensorNoise) -> PipelineResult:
    scenario = dataclasses.replace(sim.load_scenario(THREE_SOIL), noise=noise)
    t0 = time.perf_counter()
    samples, truth = sim.simulate(scenario)
    records, est = cli.run_estimation(samples, scenario.vehicle,
                                      sim.STUBBLE_FAMILY, EstimatorConfig())
    raw = cli.build_map(records, 1.0)
    interp = mapping.interpolate(raw)
    rep = cli.compute_metrics(records, truth, raw, interp, sim.STUBBLE_FAMILY,
                              clamp_violations=est.clamp_violations)
    return PipelineResult(report=rep, runtime_s=time.perf_counter() - t0)


@pytest.fixture(scope="module")
def noisy_pipeline():
    return _run_pipeline(sim.SensorNoise())


@pytest.fixture(scope="module")
def clean_pipeline():
    return _run_pipeline(sim.SensorNoise(0.0, 0.0, 0.0))


# --- criterion 1: linear-KF oracle equivalence --------------------------------

def test_criterion_1_linear_kf_equivalence():
    rng = np.random.default_rng(42)
    f_mat = np.array([[1.0, 0.1, 0.0, 0.0],
                      [0.0, 0.97, 0.0, 0.0],
                      [0.0, 0.0, 1.0, 0.1],
                      [0.0, 0.0, 0.0, 0.97]])
    h_mat = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]])
    q = 0.01 * np.eye(4)
    r = 0.1 * np.eye(2)
    # the filter's state is x reordered so that the measured x_0, x_2 lead
    order = [0, 2, 1, 3]
    block = np.ix_(order, order)
    f_perm = f_mat[block]
    noise = ukf.NoiseSpec(q=q[block], r=r)
    oracle = LinearKalmanFilter(f_mat, h_mat, q, r, np.zeros(4), np.eye(4))
    fs = ukf.FilterState.initial(np.zeros(4), np.eye(4))

    t0 = time.perf_counter()
    x = rng.normal(size=4)
    worst_mean, worst_cov = 0.0, 0.0
    for _ in range(100):
        x = f_mat @ x + rng.multivariate_normal(np.zeros(4), q)
        y = h_mat @ x + rng.multivariate_normal(np.zeros(2), r)
        oracle.predict()
        oracle.update(y)
        fs = ukf.predict(fs, fs.mean @ f_perm.T, f_perm, noise, fs.phi,
                         fs.a_diag)
        fs = ukf.update(fs, y, noise)
        worst_mean = max(worst_mean, np.abs(fs.mean - oracle.x[order]).max())
        worst_cov = max(worst_cov, np.abs(fs.cov - oracle.p[block]).max())
    runtime = time.perf_counter() - t0

    ok = worst_mean < 1e-8 and worst_cov < 1e-8 and runtime < 1.0
    report(1, ok, f"UKF vs closed-form KF over 100 steps: max mean dev "
                  f"{worst_mean:.2e}, max cov dev {worst_cov:.2e} "
                  f"(tol 1e-8), runtime {runtime:.3f} s (< 1 s)")


# --- criterion 2: mu estimation accuracy ---------------------------------------

def test_criterion_2_mu_accuracy(noisy_pipeline):
    rep = noisy_pipeline.report
    errors = {s.label: s.mu_error_pct for s in rep.per_soil}
    ok = (len(rep.per_soil) == 3
          and all(e <= 5.0 for e in errors.values())
          and noisy_pipeline.runtime_s < 30.0)
    detail = ", ".join(f"{k}={v:.2f}%" for k, v in errors.items())
    report(2, ok, f"per-soil mean |mu| error {detail} (tol 5%), pipeline "
                  f"runtime {noisy_pipeline.runtime_s:.1f} s (< 30 s)")


# --- criterion 3: mu(s)-curve fidelity ------------------------------------------

def test_criterion_3_curve_fidelity(noisy_pipeline, clean_pipeline):
    noisy_r2 = {s.label: s.r_squared for s in noisy_pipeline.report.per_soil}
    clean_r2 = {s.label: s.r_squared for s in clean_pipeline.report.per_soil}
    # the noise-free run must also dominate the noisy accuracy target
    clean_mu_ok = all(s.mu_error_pct <= 1.0
                      for s in clean_pipeline.report.per_soil)
    ok = (all(r is not None and r >= 0.85 for r in noisy_r2.values())
          and all(r is not None and r >= 0.99 for r in clean_r2.values())
          and clean_mu_ok)
    report(3, ok,
           "R^2 noisy " + ", ".join(f"{k}={v:.4f}" for k, v in noisy_r2.items())
           + " (floor 0.85); noise-free "
           + ", ".join(f"{k}={v:.4f}" for k, v in clean_r2.items())
           + " (floor 0.99, mu error <= 1%)")


# --- criterion 4: adaptive-Q directionality --------------------------------------

def _divergence_prone_scenario(seed: int) -> sim.ScenarioSpec:
    _, medium, _ = three_soils()
    terrain = sim.FieldSpec(extent=(200.0, 20.0), regions=(),
                            default_soil=medium)
    return sim.ScenarioSpec(
        vehicle=VehicleParams(), terrain=terrain,
        path=((2.0, 10.0), (198.0, 10.0)), target_speed=2.0,
        drawbar=sim.DrawbarProfile(constant=12000.0, ramp_time=2.0,
                                   sin_amplitude=6000.0, sin_period=10.0),
        noise=sim.SensorNoise(sigma_omega=0.05, sigma_v=0.1, sigma_pos=0.3),
        duration=60.0, seed=seed)


def _mu_rms(records, truth, t_min=10.0):
    by_t = {round(r.t, 6): r for r in records}
    sq = []
    for tr in truth:
        if tr.t < t_min:
            continue
        rec = by_t.get(round(tr.t, 6))
        if rec is None:
            continue
        sq.extend((rec.mu[w] - tr.mu[w]) ** 2 for w in range(4))
    return float(np.sqrt(np.mean(sq)))


def test_criterion_4_adaptive_q_directionality():
    base_q = EstimatorConfig().q_diag
    small_q = tuple(q / 10.0 for q in base_q)
    directional, degradation = [], []
    for seed in (1, 2, 3, 4, 5):
        scenario = _divergence_prone_scenario(seed)
        samples, truth = sim.simulate(scenario)
        rms = {}
        for key, q_diag, adapt in (("adaptive_small", small_q, True),
                                   ("frozen_small", small_q, False),
                                   ("adaptive_matched", base_q, True),
                                   ("frozen_matched", base_q, False)):
            cfg = EstimatorConfig(q_diag=q_diag, sigma_omega=0.05,
                                  sigma_v=0.1, adapt_enabled=adapt,
                                  fuzzy_enabled=False)
            records, _ = cli.run_estimation(samples, scenario.vehicle,
                                            sim.STUBBLE_FAMILY, cfg)
            rms[key] = _mu_rms(records, truth)
        directional.append(rms["adaptive_small"] < rms["frozen_small"])
        degradation.append(rms["adaptive_matched"]
                           < 1.2 * rms["frozen_matched"])
    ok = all(directional) and all(degradation)
    report(4, ok, f"5 seeds: adaptive beats frozen with 10x-small Q in "
                  f"{sum(directional)}/5; matched-Q degradation < 20% in "
                  f"{sum(degradation)}/5")


# --- criterion 5: curve-scale inversion round trip --------------------------------

def test_criterion_5_inversion_round_trip():
    rng = np.random.default_rng(2024)
    p, a1, a2 = sim.STUBBLE_FAMILY
    n = 1000
    a_true = rng.uniform(0.3, 1.2, n)
    s_true = rng.uniform(0.05, 0.9, n)

    worst_rel = 0.0
    for a, s in zip(a_true, s_true):
        soil = SoilParams(a=a, p=p, alpha1=a1, alpha2=a2, rho_s=0.05)
        rec = invert_mu_for_a(mu_curve(s, soil), s, p, a1, a2)
        worst_rel = max(worst_rel, abs(rec - a) / a)

    # nominal estimator noise: the cruise-regime jitter of the filtered
    # adhesion and slip estimates at the default sensor noise
    sigma_mu, sigma_s = 0.01, 0.005
    ratios = []
    for a, s in zip(a_true, s_true):
        soil = SoilParams(a=a, p=p, alpha1=a1, alpha2=a2, rho_s=0.05)
        mu_noisy = mu_curve(s, soil) + rng.normal(0.0, sigma_mu)
        s_noisy = s + rng.normal(0.0, sigma_s)
        try:
            ratios.append(invert_mu_for_a(mu_noisy, s_noisy, p, a1, a2) / a)
        except Exception:
            continue
    mean_ratio = float(np.mean(ratios))

    ok = worst_rel < 1e-12 and abs(mean_ratio - 1.0) < 0.02
    report(5, ok, f"1000 draws: noise-free worst rel error {worst_rel:.2e} "
                  f"(tol 1e-12); noisy mean recovered/true = {mean_ratio:.4f} "
                  f"(tol 2%, {len(ratios)} valid)")


# --- criterion 6: interpolation oracle ---------------------------------------------

def test_criterion_6_interpolation_oracle():
    worst = 0.0
    hull_ok = True
    idem_ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        gmap = mapping.GroundMap.empty((0.0, 0.0), 1.0, 40, 40)
        for _ in range(int(rng.integers(2, 150))):
            i, j = rng.integers(0, 40, 2)
            gmap.counts[i, j] += 1
            gmap.values[i, j] = rng.uniform(0.0, 1.0, mapping.NUM_LAYERS)
        out = mapping.interpolate(gmap)
        ref_vals, ref_counts = brute_force_interpolate(
            gmap.values, gmap.counts, gmap.resolution,
            (mapping.EPS_LOW, mapping.EPS_MID, mapping.EPS_HIGH),
            (mapping.W_LOW, mapping.W_MID, mapping.W_HIGH))
        assert np.array_equal(out.counts > 0, ref_counts > 0)
        worst = max(worst, float(np.abs(out.values - ref_vals).max()))

        filled = gmap.counts > 0
        reached = out.counts > 0
        for k in range(mapping.NUM_LAYERS):
            lo = gmap.values[filled, k].min()
            hi = gmap.values[filled, k].max()
            vals = out.values[reached, k]
            hull_ok &= bool(vals.min() >= lo - 1e-12
                            and vals.max() <= hi + 1e-12)

        # constant-field idempotence
        const = mapping.GroundMap.empty((0.0, 0.0), 1.0, 40, 40)
        const.counts[filled] = 1
        const.values[filled] = 0.42
        once = mapping.interpolate(const)
        idem_ok &= bool(np.allclose(once.values[once.counts > 0], 0.42,
                                    atol=1e-12))

    ok = worst < 1e-12 and hull_ok and idem_ok
    report(6, ok, f"20 random 40x40 maps: max deviation from brute-force "
                  f"band rule {worst:.2e} (tol 1e-12); convex-hull bounds "
                  f"{'held' if hull_ok else 'violated'}; constant-field "
                  f"idempotence {'held' if idem_ok else 'violated'}")


# --- criterion 7: simulator steady-state slip ----------------------------------------

def test_criterion_7_steady_state_slip():
    _, soil, _ = three_soils()
    terrain = sim.FieldSpec(extent=(400.0, 20.0), regions=(),
                            default_soil=soil)
    scenario = sim.ScenarioSpec(
        vehicle=VehicleParams(), terrain=terrain,
        path=((2.0, 10.0), (398.0, 10.0)), target_speed=2.0,
        drawbar=sim.DrawbarProfile(constant=15000.0, ramp_time=2.0),
        noise=sim.SensorNoise(0.0, 0.0, 0.0), duration=60.0, seed=0)
    _, truth = sim.simulate(scenario)
    s_oracle = steady_state_slip(soil, scenario.vehicle, 15000.0)
    tail = [r for r in truth if r.t >= 50.0]
    worst = max(abs(rec.slip[w] - s_oracle)
                for rec in tail for w in range(4))
    ok = worst < 1e-4
    report(7, ok, f"cruise slip vs bisection oracle {s_oracle:.6f}: max "
                  f"deviation {worst:.2e} (tol 1e-4)")


# --- criterion 8: determinism ---------------------------------------------------------

def test_criterion_8_byte_identical_outputs(tmp_path):
    scenario = {
        "field": {
            "extent": [120.0, 20.0],
            "default_soil": {"a": 0.70, "p": 0.6, "alpha1": -20.0,
                             "alpha2": -3.0, "rho_s": 0.06},
            "regions": [
                {"rect": [0.0, 0.0, 30.0, 20.0],
                 "soil": {"a": 0.85, "p": 0.6, "alpha1": -20.0,
                          "alpha2": -3.0, "rho_s": 0.04}},
            ],
        },
        "path": [[2.0, 10.0], [118.0, 10.0]],
        "target_speed": 2.0,
        "drawbar": {"constant": 15000.0, "ramp_time": 2.0},
        "noise": {"sigma_omega": 0.01, "sigma_v": 0.02, "sigma_pos": 0.3},
        "duration": 30.0,
        "seed": 99,
    }
    spath = tmp_path / "scenario.yaml"
    spath.write_text(yaml.safe_dump(scenario))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli.main(["run", str(spath), "--out", str(out1)]) == 0
    assert cli.main(["run", str(spath), "--out", str(out2)]) == 0

    names = sorted(p.name for p in out1.iterdir())
    expected = ["estimates.csv", "map_a.csv", "map_raw_a.csv",
                "map_raw_rho_s.csv", "map_rho_s.csv", "map_state.json",
                "metrics.json", "metrics.txt", "telemetry.csv",
                "timeseries.csv", "truth.csv"]
    # the metrics files carry the wall-clock runtime; compared below
    compared = [n for n in names if not n.startswith("metrics.")]
    mismatches = [n for n in compared
                  if not filecmp.cmp(out1 / n, out2 / n, shallow=False)]

    # metrics must agree too, apart from the wall-clock runtime field
    with open(out1 / "metrics.json") as fh:
        m1 = json.load(fh)
    with open(out2 / "metrics.json") as fh:
        m2 = json.load(fh)
    m1.pop("runtime_s"), m2.pop("runtime_s")

    ok = not mismatches and m1 == m2 and names == expected
    report(8, ok, f"two identical-config runs: {len(compared)} output files "
                  f"byte-identical"
                  + ("" if names == expected else f"; wrote {names}")
                  + (f"; MISMATCH in {mismatches}" if mismatches else "")
                  + "; metrics equal modulo runtime")
