"""CW-ODMR temperature sensing with RF-dressed NV-center states.

Simulation of dressed-state ODMR spectra, an independent master-equation
oracle, nonlinear least-squares fitting, and shot-noise-limited temperature
sensitivity estimation.
"""

from .lineshape import (
    Spectrum,
    StrainDistribution,
    ensemble_spectrum,
    lorentzian_spectrum,
    p0,
    synthesize_measurement,
)
from .spin import (
    DriveConfig,
    PhysicalEnvironment,
    dressed_resonances,
    residual_broadening,
    zero_field_splitting,
)

__version__ = "0.1.0"

__all__ = [
    "DriveConfig",
    "PhysicalEnvironment",
    "Spectrum",
    "StrainDistribution",
    "dressed_resonances",
    "ensemble_spectrum",
    "lorentzian_spectrum",
    "p0",
    "residual_broadening",
    "synthesize_measurement",
    "zero_field_splitting",
]
