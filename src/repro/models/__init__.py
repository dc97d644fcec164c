"""Synthetic Once-For-All model substrate (paper Fig. 2) and profiler."""

from .fitting import FitResult, accuracy_from_measurements, fit_exponential
from .ofa import OnceForAllFamily, SubnetworkConfig, SubnetworkProfile
from .profiler import Measurement, SimulatedProfiler
from .zoo import MODEL_ZOO, get_family, ofa_mobilenet_v3, ofa_proxyless, ofa_resnet50

__all__ = [
    "FitResult",
    "fit_exponential",
    "accuracy_from_measurements",
    "OnceForAllFamily",
    "SubnetworkConfig",
    "SubnetworkProfile",
    "Measurement",
    "SimulatedProfiler",
    "MODEL_ZOO",
    "get_family",
    "ofa_resnet50",
    "ofa_mobilenet_v3",
    "ofa_proxyless",
]
