"""The benchmark tracer's hooks still name attributes of the program.

``perfbench/tracer.py`` wraps pipeline functions by module attribute.  A
renamed or removed function breaks the traced benchmark run, and a
function the program no longer looks up at call time leaves its wrapper
uncalled; these tests catch both with the tier-1 suite.
"""

import importlib.util
from pathlib import Path

from tractionmap import sim
from tractionmap.dynamics import GRAVITY, VehicleParams
from tractionmap.estimator import (
    EstimatorConfig,
    TractionEstimator,
    TractionInput,
    TractionMeasurement,
)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer_module = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer_module)


def test_install_pipeline_patches_existing_attributes_and_restores_them():
    tracer = tracer_module.Tracer()
    try:
        # install() reads every attribute before replacing it, so a
        # missing one raises AttributeError here
        tracer_module.install_pipeline(tracer)
        installed = list(tracer._installed)
        assert installed
        for owner, attr, original, name, _ in installed:
            assert getattr(owner, attr) is not original, name
    finally:
        tracer.uninstall()
    for owner, attr, original, name, _ in installed:
        assert getattr(owner, attr) is original, name


def test_traced_step_calls_each_filter_stage_once_per_sample():
    vehicle = VehicleParams()
    f_zf = 0.5 * (vehicle.vehicle_mass - 4 * vehicle.wheel_mass) * GRAVITY
    u = TractionInput(m_d=(500.0,) * 4, f_zf=f_zf, f_dx=8000.0)
    y = TractionMeasurement(omega_w=(5.0,) * 4, v=2.0)
    est = TractionEstimator(vehicle, sim.STUBBLE_FAMILY, EstimatorConfig())
    est.initialize(y)
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install_pipeline(tracer)
        for k in range(30):
            est.step(u, y, t=0.1 * (k + 1), position=(0.0, 0.0))
        calls = tracer.wrapped_calls()
    finally:
        tracer.uninstall()
    for name in ("TractionEstimator.step",
                 "tractionmap.estimator.process_model",
                 "tractionmap.ukf.predict", "tractionmap.ukf.update",
                 "tractionmap.ukf.adapt_q"):
        assert calls[name] == 30, name
