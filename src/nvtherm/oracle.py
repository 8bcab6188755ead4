"""Brute-force validator: Lindblad steady state of the driven three-level system.

Regenerates CW-ODMR spectra from the master equation without using the
closed-form lineshape, so sign and mapping ambiguities can be arbitrated
against it.  Dissipation is modeled as optical repolarization into |0>
plus optional pure dephasing; the effective damping rates of the
closed-form model map as gamma_b = pump_rate/2 + dephase_b (same for d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .lineshape import Spectrum
from .spin import (
    BASIS_BRIGHT_DARK,
    DriveConfig,
    PhysicalEnvironment,
    SpinMatrix,
    branch_detunings,
    rotating_hamiltonian_from_params,
    zero_field_splitting,
)

ZERO_EIGENVALUE_TOL = 1e-10


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian has more than one steady state."""

    def __init__(self, multiplicity: int):
        self.multiplicity = multiplicity
        super().__init__(
            f"steady state is not unique: zero-eigenvalue multiplicity {multiplicity}"
        )


@dataclass(frozen=True)
class LindbladModel:
    """Rotating-frame Hamiltonian plus dissipation rates (MHz)."""

    hamiltonian: SpinMatrix
    pump_rate: float
    dephase_b: float = 0.0
    dephase_d: float = 0.0

    def __post_init__(self):
        if self.hamiltonian.basis != BASIS_BRIGHT_DARK:
            raise ValueError("hamiltonian must be in the {|0>,|B>,|D>} basis")
        if self.pump_rate < 0 or self.dephase_b < 0 or self.dephase_d < 0:
            raise ValueError("all rates must be >= 0")
        if self.pump_rate == 0 and self.dephase_b == 0 and self.dephase_d == 0:
            raise ValueError("at least one dissipative channel must be > 0")

    def collapse_operators(self) -> list[np.ndarray]:
        ops = []
        if self.pump_rate > 0:
            for level in (1, 2):  # |B>, |D> repolarize into |0>
                c = np.zeros((3, 3), dtype=complex)
                c[0, level] = np.sqrt(self.pump_rate)
                ops.append(c)
        for level, rate in ((1, self.dephase_b), (2, self.dephase_d)):
            if rate > 0:
                c = np.zeros((3, 3), dtype=complex)
                c[level, level] = np.sqrt(2.0 * rate)
                ops.append(c)
        return ops


def build_liouvillian(model: LindbladModel) -> np.ndarray:
    """9x9 generator L with d vec(rho)/dt = L vec(rho), row-major vec."""
    h = model.hamiltonian.matrix
    eye = np.eye(3, dtype=complex)
    liouv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in model.collapse_operators():
        cdc = c.conj().T @ c
        liouv = liouv + np.kron(c, c.conj())
        liouv = liouv - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return liouv


def steady_state(model: LindbladModel) -> np.ndarray:
    """Unique steady-state density matrix of the Lindblad generator.

    Solved by null-space extraction of the 9x9 Liouvillian with trace
    normalization; uniqueness is checked via the zero-eigenvalue count.
    """
    liouv = build_liouvillian(model)
    eigvals = np.linalg.eigvals(liouv)
    multiplicity = int(np.sum(np.abs(eigvals) < ZERO_EIGENVALUE_TOL))
    if multiplicity != 1:
        raise DegenerateSteadyStateError(multiplicity)
    null = scipy.linalg.null_space(liouv, rcond=1e-12)
    if null.shape[1] != 1:
        raise DegenerateSteadyStateError(null.shape[1])
    rho = null[:, 0].reshape(3, 3)
    rho = rho / np.trace(rho)
    rho = 0.5 * (rho + rho.conj().T)
    return rho


def oracle_spectrum(
    env: PhysicalEnvironment,
    drive: DriveConfig,
    grid: np.ndarray,
    pump_rate: float,
    dephase_b: float = 0.0,
    dephase_d: float = 0.0,
    contrast: float = 0.05,
    branches: str = "both",
    dark_strain_sign: float = -1.0,
) -> Spectrum:
    """Spectrum from the master-equation steady state at each MW frequency.

    The |0>-depletions of the two dressed branches (RF sideband and its
    mirror) are solved independently and added, matching the closed-form
    spectrum's branch structure.
    """
    if not env.is_transverse_mode:
        raise ValueError("oracle requires transverse mode")
    grid = np.asarray(grid, dtype=float)
    d = zero_field_splitting(env)
    detunings = branch_detunings(
        d, env.ex, drive.omega_rf, grid, branches, dark_strain_sign
    )
    j = drive.rabi_rf / 2.0
    lam = drive.rabi_mw / 2.0
    sig = np.empty_like(grid)
    for i in range(len(grid)):
        depletion = 0.0
        for omega_b, omega_d in detunings:
            h = rotating_hamiltonian_from_params(omega_b[i], omega_d[i], j, lam)
            rho = steady_state(LindbladModel(h, pump_rate, dephase_b, dephase_d))
            depletion += 1.0 - float(np.real(rho[0, 0]))
        sig[i] = 1.0 - contrast * depletion
    meta = {
        "model": "lindblad_oracle",
        "branches": branches,
        "pump_rate": pump_rate,
        "dephase_b": dephase_b,
        "dephase_d": dephase_d,
        "contrast": contrast,
        "omega_rf": drive.omega_rf,
        "rabi_rf": drive.rabi_rf,
        "rabi_mw": drive.rabi_mw,
    }
    return Spectrum(grid, sig, np.zeros_like(grid), meta)
