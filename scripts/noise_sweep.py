#!/usr/bin/env python3
"""Sweep the sensor-noise level and report identification quality per soil.

For each multiplier of the nominal wheel- and ground-speed noise, runs the
three-soil case study (scenarios/three_soil.yaml) and prints per-soil mu
error, curve R^2 and the rho_s error.  Useful for judging how much sensor
quality the identification needs.  The estimator is set up as
``tractionmap run`` sets it up: its measurement noise R is the scaled
sensor noise, and it identifies the curve family of the scenario's soils.

Usage: python scripts/noise_sweep.py [multiplier ...]
"""

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Run from a plain checkout: the package lives in src/.
sys.path.insert(0, str(ROOT / "src"))

from tractionmap import cli, sim  # noqa: E402


def run_once(mult: float):
    scenario = sim.load_scenario(ROOT / "scenarios" / "three_soil.yaml")
    nominal = scenario.noise
    scenario = replace(scenario, noise=replace(
        nominal, sigma_omega=nominal.sigma_omega * mult,
        sigma_v=nominal.sigma_v * mult))
    samples, truth = sim.simulate(scenario)
    family, config = cli.estimator_setup(scenario)
    records, est = cli.run_estimation(samples, scenario.vehicle, family, config)
    # no map: only the mu, R^2 and rho_s errors are printed
    return cli.compute_metrics(records, truth, None, None, family,
                               clamp_violations=est.clamp_violations)


def main() -> int:
    mults = [float(x) for x in sys.argv[1:]] or [0.0, 0.5, 1.0, 2.0, 5.0]
    print(f"{'noise x':>8} | " + " | ".join(
        f"{label:>26}" for label in ("soil1 err% / R^2",
                                     "soil2 err% / R^2",
                                     "soil3 err% / R^2")) + " | rho_s err%")
    for mult in mults:
        report = run_once(mult)
        cells = []
        for s in report.per_soil:
            r2 = "  n/a " if s.r_squared is None else f"{s.r_squared:.4f}"
            cells.append(f"{s.mu_error_pct:13.2f} / {r2}")
        print(f"{mult:8.2f} | " + " | ".join(f"{c:>26}" for c in cells)
              + f" | {report.rho_s_error_pct:9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
