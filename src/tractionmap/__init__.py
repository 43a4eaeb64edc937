"""Online traction-parameter identification and ground-condition mapping."""

from .dynamics import SoilParams, VehicleParams
from .estimator import TractionEstimator, TractionInput, TractionMeasurement
from .mapping import GroundMap
from .sim import ScenarioSpec, simulate

__all__ = [
    "GroundMap",
    "ScenarioSpec",
    "SoilParams",
    "TractionEstimator",
    "TractionInput",
    "TractionMeasurement",
    "VehicleParams",
    "simulate",
]

__version__ = "0.1.0"
