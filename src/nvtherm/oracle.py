"""Brute-force validator: Lindblad steady state of the driven three-level system.

Regenerates CW-ODMR spectra from the master equation without using the
closed-form lineshape, so sign and mapping ambiguities can be arbitrated
against it.  Dissipation is modeled as optical repolarization into |0>
plus optional pure dephasing; the effective damping rates of the
closed-form model map as gamma_b = pump_rate/2 + dephase_b (same for d).
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass

import numpy as np

from .lineshape import DEFAULT_CONTRAST, Spectrum, check_grid
from .spin import (
    ConfigError,
    DriveConfig,
    PhysicalEnvironment,
    branch_detunings,
    require_dressed_mode,
    rotating_hamiltonian_from_params,
    zero_field_splitting,
)

# Relative singular-value cutoff of the Liouvillian null space.
NULL_SPACE_RCOND = 1e-12
# Row and column of rho at each row-major vec index 3i + k.
_VEC_ROW, _VEC_COL = np.divmod(np.arange(9), 3)
_VEC_DIAG = np.arange(9)


class DegenerateSteadyStateError(RuntimeError):
    """The Liouvillian has more than one steady state.

    ``index`` is the first degenerate generator's flat index in its stack.
    From ``oracle_spectrum`` the error also names the dressed ``branch``
    ("upper" or "mirror") and that point's MW ``frequency`` in MHz.
    """

    def __init__(
        self,
        multiplicity: int,
        index: int = 0,
        branch: str | None = None,
        frequency: float | None = None,
    ):
        self.multiplicity = multiplicity
        self.index = index
        self.branch = branch
        self.frequency = frequency
        where = "" if branch is None else f" on the {branch} branch at {frequency} MHz"
        super().__init__(
            f"steady state is not unique{where}: zero-eigenvalue multiplicity {multiplicity}"
        )


@dataclass(frozen=True)
class LindbladModel:
    """A 3x3 rotating-frame Hamiltonian in {|0>, |B>, |D>} plus dissipation rates (MHz)."""

    hamiltonian: np.ndarray
    pump_rate: float
    dephase_b: float = 0.0
    dephase_d: float = 0.0

    def __post_init__(self):
        rates = {n: getattr(self, n) for n in ("pump_rate", "dephase_b", "dephase_d")}
        problems = [
            f"{n}: all rates must be finite and >= 0, got {r}"
            for n, r in rates.items()
            if not 0.0 <= r < np.inf
        ]
        if not any(rates.values()):
            problems.append("pump_rate: at least one dissipative channel must be > 0")
        if problems:
            raise ConfigError(problems)

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


def _kron(a: np.ndarray, b: np.ndarray, diagonal: bool = False) -> np.ndarray:
    """Kronecker product of the last two axes, broadcast over the leading ones.

    Equal to ``np.kron`` element for element for 3x3 operands.  With
    ``diagonal`` only its 9 diagonal entries, a[i, i] * b[k, k] at 3i + k,
    each the same product.
    """
    if diagonal:
        return a[..., _VEC_ROW, _VEC_ROW] * b[..., _VEC_COL, _VEC_COL]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (9, 9))


def _liouvillians(
    hamiltonians: np.ndarray, model: LindbladModel, diagonal: bool = False
) -> np.ndarray:
    """(..., 9, 9) generators of a (..., 3, 3) Hamiltonian stack.

    Every Hamiltonian shares the collapse operators of ``model``; row-major
    vec, so d vec(rho)/dt = L vec(rho).  With ``diagonal`` only the (..., 9)
    diagonals, by the same operations: the only entries that the
    Hamiltonians' diagonals enter.
    """
    eye = np.eye(3, dtype=complex)
    h_t = np.swapaxes(hamiltonians, -1, -2)
    liouv = -1j * (_kron(hamiltonians, eye, diagonal) - _kron(eye, h_t, diagonal))
    for c in model.collapse_operators():
        cdc = c.conj().T @ c
        liouv = liouv + _kron(c, c.conj(), diagonal)
        liouv = liouv - 0.5 * (_kron(cdc, eye, diagonal) + _kron(eye, cdc.T, diagonal))
    return liouv


def _steady_states(liouv: np.ndarray, block: int = 3) -> np.ndarray:
    """(..., 3, 3) unique steady states of a (..., 9, 9) generator stack.

    The null vector is the last right-singular vector of one batched SVD.
    Its multiplicity is the number of singular values at or below
    ``NULL_SPACE_RCOND`` times the largest, a scale-free test.  ``block``
    < 3 keeps only each state's leading block x block entries.
    """
    _, s, vh = np.linalg.svd(liouv, full_matrices=False)
    multiplicity = np.sum(s <= NULL_SPACE_RCOND * s[..., :1], axis=-1).ravel()
    degenerate = np.flatnonzero(multiplicity != 1)
    if degenerate.size:
        first = int(degenerate[0])
        raise DegenerateSteadyStateError(int(multiplicity[first]), first)
    rho = vh[..., -1, :].conj().reshape(liouv.shape[:-2] + (3, 3))
    rho = rho[..., :block, :block] / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]
    return 0.5 * (rho + np.swapaxes(rho, -1, -2).conj())


def build_liouvillian(model: LindbladModel) -> np.ndarray:
    """9x9 generator L with d vec(rho)/dt = L vec(rho), row-major vec."""
    return _liouvillians(model.hamiltonian, model)


def steady_state(model: LindbladModel) -> np.ndarray:
    """Unique steady-state density matrix of the Lindblad generator.

    The trace-normalized null vector of the 9x9 Liouvillian; raises
    ``DegenerateSteadyStateError`` when the null space is not one-dimensional.
    """
    return _steady_states(build_liouvillian(model))


def _branch_depletion(
    h0: np.ndarray,
    liouv0: np.ndarray,
    model: LindbladModel,
    omega_b: np.ndarray,
    omega_d: np.ndarray,
    branch: str,
    grid: np.ndarray,
) -> np.ndarray:
    """|0>-depletion of one dressed branch at every grid point.

    Builds the branch's own Hamiltonian and generator stacks from the
    undetuned ``h0`` and ``liouv0``.  The detunings enter only the
    generator's diagonal, so each point replays those 9 entries.  Calls
    only untraced internals: ``oracle_spectrum`` runs the mirror branch on a
    worker thread.
    """
    n = len(grid)
    h = np.repeat(h0[None], n, axis=0)
    h[:, 1, 1] = omega_b
    h[:, 2, 2] = omega_d
    liouv = np.repeat(liouv0[None], n, axis=0)
    liouv[:, _VEC_DIAG, _VEC_DIAG] = _liouvillians(h, model, diagonal=True)
    try:
        rho = _steady_states(liouv, block=1)  # rho_00 alone
    except DegenerateSteadyStateError as err:
        frequency = float(grid[err.index])
        raise DegenerateSteadyStateError(err.multiplicity, err.index, branch, frequency) from None
    return 1.0 - rho[:, 0, 0].real


def oracle_spectrum(
    env: PhysicalEnvironment,
    drive: DriveConfig,
    grid: np.ndarray,
    pump_rate: float,
    dephase_b: float = 0.0,
    dephase_d: float = 0.0,
    contrast: float = DEFAULT_CONTRAST,
) -> Spectrum:
    """Spectrum from the master-equation steady state at each MW frequency.

    The |0>-depletions of the upper dressed branch (the RF sideband) and of
    its mirror are solved independently and added, as in the closed form.
    The calling thread solves the upper branch while one worker thread,
    started and joined within the call, solves the mirror: numpy's batched
    SVD releases the GIL, so the two run at once, each on its own stacks,
    and every output keeps the bits of a one-thread solve.  The worker runs
    in a copy of the caller's context (numpy's error state included).

    Raises ``ValueError`` for a grid that ``Spectrum`` would refuse, before
    any solve, and ``DegenerateSteadyStateError`` naming the branch and the
    first MW frequency whose steady state is not unique; the upper
    branch's error wins when both fail.
    """
    require_dressed_mode(env)
    grid = np.asarray(grid, dtype=float)
    check_grid(grid)
    (upper_b, mirror_b), (upper_d, mirror_d) = branch_detunings(
        zero_field_splitting(env), env.ex, drive.omega_rf, grid
    )
    # Validates the rates once and carries the shared J, lambda and
    # collapse operators; each branch then sets the detuning diagonal.
    h0 = rotating_hamiltonian_from_params(
        0.0, 0.0, drive.rabi_rf / 2.0, drive.rabi_mw / 2.0
    )
    base = LindbladModel(h0, pump_rate, dephase_b, dephase_d)
    shared = (h0, _liouvillians(h0, base), base)
    mirror = []

    def solve_mirror():
        try:
            mirror.append(_branch_depletion(*shared, mirror_b, mirror_d, "mirror", grid))
        except BaseException as exc:  # re-raised on the calling thread
            mirror.append(exc)

    worker = threading.Thread(
        target=contextvars.copy_context().run, args=(solve_mirror,), name="oracle-mirror"
    )
    worker.start()
    try:
        upper = _branch_depletion(*shared, upper_b, upper_d, "upper", grid)
    finally:
        worker.join()
    if isinstance(mirror[0], BaseException):
        raise mirror.pop()
    depletion = upper + mirror[0]
    sig = 1.0 - contrast * depletion
    meta = {
        "model": "lindblad_oracle",
        "pump_rate": pump_rate,
        "dephase_b": dephase_b,
        "dephase_d": dephase_d,
        "contrast": contrast,
        "omega_rf": drive.omega_rf,
        "rabi_rf": drive.rabi_rf,
        "rabi_mw": drive.rabi_mw,
    }
    return Spectrum(grid, sig, np.zeros_like(grid), meta)
