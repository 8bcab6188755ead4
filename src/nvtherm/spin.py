"""Ground-state spin physics of the NV center under microwave and RF drive.

All energies and frequencies are linear MHz.  Drive amplitudes are stored
directly as Rabi frequencies (gamma_e * B already applied).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, fields

import numpy as np

# Default zero-field-splitting temperature slope, MHz/K.
DEFAULT_DD_DT = -0.0742

HERMITICITY_TOL = 1e-12

_SQRT2 = np.sqrt(2.0)

# Spin-1 operators in the {|+1>, |0>, |-1>} basis.
SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQRT2
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQRT2
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)


class RegimeWarning(UserWarning):
    """Hierarchy of scales required for the dressed-state reduction is violated."""


class ConfigError(ValueError):
    """Invalid configuration; ``diagnostics`` holds one message per problem."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(diagnostics))


def check_fields(obj, positive=(), nonnegative=(), problems=()) -> None:
    """Raise one ``ConfigError`` naming every bad field of dataclass ``obj``.

    Numeric fields must be finite, those in ``positive`` > 0 and those in
    ``nonnegative`` >= 0; ``problems`` are the caller's own findings.  Each
    message starts with its field name.
    """
    found = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, numbers.Real) and not math.isfinite(value):
            found.append(f"{f.name} must be finite, got {value}")
        elif f.name in positive and value <= 0:
            found.append(f"{f.name} must be > 0, got {value}")
        elif f.name in nonnegative and value < 0:
            found.append(f"{f.name} must be >= 0, got {value}")
    found += problems
    if found:
        raise ConfigError(found)


@dataclass(frozen=True)
class PhysicalEnvironment:
    """Static NV parameters: zero-field splitting, strain, magnetic fields.

    Fields in MHz except temperatures (K).  ``b_transverse`` is the transverse
    Zeeman frequency g*mu_B*B_x; ``b_parallel`` the parallel Zeeman splitting
    gamma_e*B_z.  Exactly one of the two may be nonzero (transverse/dressed
    mode vs parallel/conventional mode).
    """

    d0: float = 2870.0
    t0: float = 300.0
    dd_dt: float = DEFAULT_DD_DT
    ex: float = 0.0
    ey: float = 0.0
    b_transverse: float = 0.0
    b_parallel: float = 0.0
    temperature: float = 300.0

    def __post_init__(self):
        problems = []
        if self.b_transverse != 0.0 and self.b_parallel != 0.0:
            problems.append(
                "b_parallel: exactly one of b_transverse, b_parallel may be "
                f"nonzero, got {self.b_transverse} and {self.b_parallel}"
            )
        check_fields(self, positive=("d0",), problems=problems)

    @property
    def is_transverse_mode(self) -> bool:
        return self.b_parallel == 0.0

    def check_dressed_regime(self) -> list[str]:
        """Return human-readable violations of d0 >> b_transverse >> ey."""
        problems = []
        if self.b_transverse > 0 and self.d0 < 10.0 * self.b_transverse:
            problems.append(
                f"d0 = {self.d0} MHz is not large compared to "
                f"b_transverse = {self.b_transverse} MHz"
            )
        if self.ey > 0 and self.b_transverse < 10.0 * self.ey:
            problems.append(
                f"b_transverse = {self.b_transverse} MHz is not large compared "
                f"to ey = {self.ey} MHz"
            )
        return problems


@dataclass(frozen=True)
class DriveConfig:
    """Microwave and RF drive frequencies and Rabi amplitudes, MHz.

    Only the x-component of the MW field and the z-component of the RF field
    enter the reduced model; ``rabi_mw`` and ``rabi_rf`` are those components
    expressed as Rabi frequencies.
    """

    omega_mw: float = 2870.0
    rabi_mw: float = 0.0
    omega_rf: float = 0.0
    rabi_rf: float = 0.0

    def __post_init__(self):
        check_fields(self, nonnegative=("rabi_mw", "omega_rf", "rabi_rf"))


BASIS_ZEEMAN = "zeeman"  # {|+1>, |0>, |-1>}
BASIS_BRIGHT_DARK = "bright_dark"  # {|0>, |B>, |D>}


@dataclass(frozen=True)
class SpinMatrix:
    """A 3x3 Hermitian matrix with a basis tag."""

    matrix: np.ndarray
    basis: str

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within 1e-12")
        if self.basis not in (BASIS_ZEEMAN, BASIS_BRIGHT_DARK):
            raise ValueError(f"unknown basis tag {self.basis!r}")
        object.__setattr__(self, "matrix", m)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def zero_field_splitting(env: PhysicalEnvironment, temperature: float | None = None) -> float:
    """Temperature-dependent zero-field splitting, linear in T around t0."""
    t = env.temperature if temperature is None else temperature
    return env.d0 + env.dd_dt * (t - env.t0)


def build_lab_hamiltonian(
    env: PhysicalEnvironment, drive: DriveConfig, t: float
) -> SpinMatrix:
    """Instantaneous lab-frame Hamiltonian at time ``t`` (microseconds).

    Includes zero-field, strain, Zeeman, and the cosine drive terms; the
    drive phase is 2*pi*f*t with f in MHz and t in microseconds.
    """
    d = zero_field_splitting(env)
    h = d * (SZ @ SZ)
    h = h + env.ex * (SX @ SX - SY @ SY)
    h = h + env.ey * (SX @ SY + SY @ SX)
    h = h + env.b_transverse * SX
    h = h + env.b_parallel * SZ
    h = h + drive.rabi_mw * np.cos(2.0 * np.pi * drive.omega_mw * t) * SX
    h = h + drive.rabi_rf * np.cos(2.0 * np.pi * drive.omega_rf * t) * SZ
    return SpinMatrix(h, BASIS_ZEEMAN)


def branch_detunings(
    d: float,
    ex: float,
    omega_rf: float,
    omega_mw: float | np.ndarray,
    branches: str = "both",
    dark_strain_sign: float = -1.0,
) -> list:
    """Bright- and dark-mode detunings ``(omega_b, omega_d)`` of each branch.

    The first pair is the upper dressed branch (the RF sideband itself);
    ``branches="both"`` adds its mirror (ex -> -ex, omega_rf -> -omega_rf).
    The dark level sits at D - E_x, so its detuning carries the opposite
    strain sign from the bright one (``dark_strain_sign = -1``); the flag
    exists so the oracle tests can discriminate against the +1 variant.
    """
    if branches not in ("both", "upper"):
        raise ValueError(f"branches must be 'both' or 'upper', got {branches!r}")
    pairs = ((ex, omega_rf), (-ex, -omega_rf)) if branches == "both" else ((ex, omega_rf),)
    return [
        (d + ex_i - omega_mw, d + dark_strain_sign * ex_i - omega_mw + omega_rf_i)
        for ex_i, omega_rf_i in pairs
    ]


def drive_detunings(
    env: PhysicalEnvironment,
    drive: DriveConfig,
    omega_mw: float | np.ndarray,
    dark_strain_sign: float = -1.0,
):
    """Bright- and dark-mode detunings of the upper branch for a MW frequency."""
    d = zero_field_splitting(env)
    return branch_detunings(
        d, env.ex, drive.omega_rf, omega_mw, "upper", dark_strain_sign
    )[0]


def rotating_hamiltonian_from_params(
    omega_b: float, omega_d: float, j: float, lam: float
) -> SpinMatrix:
    """Assemble the single-excitation rotating-frame matrix in {|0>,|B>,|D>}."""
    h = np.array(
        [
            [0.0, lam, 0.0],
            [lam, omega_b, j],
            [0.0, j, omega_d],
        ],
        dtype=complex,
    )
    return SpinMatrix(h, BASIS_BRIGHT_DARK)


def build_rotating_hamiltonian(
    env: PhysicalEnvironment,
    drive: DriveConfig,
    dark_strain_sign: float = -1.0,
) -> SpinMatrix:
    """Static rotating-frame Hamiltonian in the {|0>, |B>, |D>} basis.

    diag(0, omega_b, omega_d) + J(|B><D| + h.c.) + lambda_b(|0><B| + h.c.)
    with J = rabi_rf/2 and lambda_b = rabi_mw/2.
    """
    if not env.is_transverse_mode:
        raise ValueError("rotating-frame reduction requires transverse mode")
    for problem in env.check_dressed_regime():
        warnings.warn(problem, RegimeWarning, stacklevel=2)
    omega_b, omega_d = drive_detunings(env, drive, drive.omega_mw, dark_strain_sign)
    return rotating_hamiltonian_from_params(
        omega_b, omega_d, drive.rabi_rf / 2.0, drive.rabi_mw / 2.0
    )


def dressed_resonances(
    d: float, ex: float, omega_rf: float, rabi_rf: float
) -> np.ndarray:
    """The four MW resonance frequencies of the RF-dressed levels, ascending.

    (1/2) * {2d +/- omega_rf +/- sqrt((2*ex - omega_rf)^2 + rabi_rf^2)}
    """
    root = np.hypot(2.0 * ex - omega_rf, rabi_rf)
    out = np.array(
        [
            0.5 * (2.0 * d + s1 * omega_rf + s2 * root)
            for s1 in (-1.0, 1.0)
            for s2 in (-1.0, 1.0)
        ]
    )
    out.sort()
    return out


def residual_broadening(delta_ex: float, rabi_rf: float, exact: bool = True) -> float:
    """Residual resonance-frequency spread left after RF dressing, MHz.

    exact: (1/2) * [sqrt(delta_ex^2 + rabi_rf^2) - rabi_rf]
    Taylor (strong-drive) form: delta_ex^2 / (4 * rabi_rf)
    """
    if delta_ex < 0 or rabi_rf < 0:
        raise ValueError("delta_ex and rabi_rf must be >= 0")
    if exact:
        if delta_ex == 0.0:
            return 0.0
        # The same value, rationalised so delta_ex << rabi_rf does not cancel.
        return 0.5 * delta_ex**2 / (np.hypot(delta_ex, rabi_rf) + rabi_rf)
    if rabi_rf == 0.0:
        raise ZeroDivisionError(
            "Taylor regime violated: rabi_rf must be > 0 for the expansion"
        )
    return 0.25 * delta_ex**2 / rabi_rf
