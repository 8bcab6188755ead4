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
    spectrum,
    synthesize_measurement,
)
from .spin import (
    DriveConfig,
    PhysicalEnvironment,
    SpinMatrix,
    build_lab_hamiltonian,
    build_rotating_hamiltonian,
    dressed_resonances,
    residual_broadening,
    zero_field_splitting,
)

__version__ = "0.1.0"

__all__ = [
    "DriveConfig",
    "PhysicalEnvironment",
    "SpinMatrix",
    "Spectrum",
    "StrainDistribution",
    "build_lab_hamiltonian",
    "build_rotating_hamiltonian",
    "dressed_resonances",
    "ensemble_spectrum",
    "lorentzian_spectrum",
    "p0",
    "residual_broadening",
    "spectrum",
    "synthesize_measurement",
    "zero_field_splitting",
]
