"""Online traction-parameter identification and ground-condition mapping."""

from .dynamics import SoilParams, VehicleParams
from .estimator import TractionEstimator, TractionInput, TractionMeasurement
from .mapping import GroundMap, InterpolationConfig
from .sim import ScenarioSpec, simulate

__all__ = [
    "GroundMap",
    "InterpolationConfig",
    "ScenarioSpec",
    "SoilParams",
    "TractionEstimator",
    "TractionInput",
    "TractionMeasurement",
    "VehicleParams",
    "simulate",
]

__version__ = "0.1.0"
