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
_BRANCH_SIGN = np.array([[1.0], [-1.0]])  # branch_detunings' upper branch, mirror


class RegimeWarning(UserWarning):
    """Hierarchy of scales required for the dressed-state reduction is violated."""


class ConfigError(ValueError):
    """Invalid configuration; ``diagnostics`` holds one message per problem."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(diagnostics))


# The closed form squares lambda_b = rabi_mw / 2 and J = rabi_rf / 2, a Lorentzian
# fwhm / 2: below this bound on a Rabi amplitude or a width the square is finite.
MAX_RABI = 2.0**513

# The exact depletion of |0> by each branch is below 1, so a contrast of at
# most 1/2 keeps the two-branch signal 1 - contrast * (depletion + mirror) > 0.
MAX_CONTRAST = 0.5


def contrast_problems(name: str, value: float) -> list[str]:
    """Why ``value`` is no optical contrast: a contrast is in (0, MAX_CONTRAST]."""
    if 0.0 < value <= MAX_CONTRAST:
        return []
    return [f"{name} must be in (0, {MAX_CONTRAST}], got {value}"]


def check_fields(obj, positive=(), nonnegative=(), contrasts=(), squared=(), problems=()) -> None:
    """Raise one ``ConfigError`` naming every bad field of dataclass ``obj``.

    Numeric fields must be finite, those in ``positive`` > 0, those in
    ``nonnegative`` >= 0, those in ``contrasts`` in (0, MAX_CONTRAST] and
    those in ``squared`` < MAX_RABI; ``problems`` are the caller's own
    findings.  Each message starts with its field name.
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
        elif f.name in contrasts:
            found += contrast_problems(f.name, value)
        elif f.name in squared and value >= MAX_RABI:
            found.append(f"{f.name} must be < {MAX_RABI:g}, got {value}")
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
        if self.dd_dt == 0:  # no temperature reading comes from a flat splitting
            problems.append(f"dd_dt must be nonzero, got {self.dd_dt}")
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

    rabi_mw: float = 0.0
    omega_rf: float = 0.0
    rabi_rf: float = 0.0

    def __post_init__(self):
        rabi = ("rabi_mw", "rabi_rf")
        check_fields(self, nonnegative=("omega_rf", *rabi), squared=rabi)


def zero_field_splitting(env: PhysicalEnvironment) -> float:
    """Zero-field splitting at ``env.temperature``, linear in T around t0."""
    return env.d0 + env.dd_dt * (env.temperature - env.t0)


def branch_detunings(
    d: float, ex: float | np.ndarray, omega_rf: float, omega_mw: float | np.ndarray,
    out: tuple = (None, None),
) -> tuple:
    """Bright- and dark-mode detunings ``(omega_b, omega_d)`` of both branches.

    The branch is axis -2 of each array: first the upper dressed branch (the
    RF sideband itself), then its mirror (ex -> -ex, omega_rf -> -omega_rf),
    with ``ex``'s own axes before it and ``omega_mw``'s after.  The dark
    level sits at D - E_x, so its detuning carries the opposite strain sign
    from the bright one.  ``out`` may give the two arrays to write into.
    """
    exb = np.asarray(ex)[..., None] * _BRANCH_SIGN
    omega_b = np.subtract(d + exb, omega_mw, out=out[0])
    omega_d = np.subtract(d - exb, omega_mw, out=out[1])
    return omega_b, np.add(omega_d, omega_rf * _BRANCH_SIGN, out=omega_d)


def require_dressed_mode(env: PhysicalEnvironment) -> None:
    """Gate of every dressed-state model: refuse parallel mode, then warn.

    Raises ``ValueError`` in parallel mode and emits one ``RegimeWarning``
    per violation that ``check_dressed_regime`` reports, attributed to the
    caller of the model function.
    """
    if not env.is_transverse_mode:
        raise ValueError("the dressed-state model requires transverse mode")
    for problem in env.check_dressed_regime():
        warnings.warn(problem, RegimeWarning, stacklevel=3)


def rotating_hamiltonian_from_params(
    omega_b: float, omega_d: float, j: float, lam: float
) -> np.ndarray:
    """The single-excitation rotating-frame matrix in {|0>, |B>, |D>}.

    diag(0, omega_b, omega_d) + j(|B><D| + h.c.) + lam(|0><B| + h.c.).
    """
    return np.array(
        [
            [0.0, lam, 0.0],
            [lam, omega_b, j],
            [0.0, j, omega_d],
        ],
        dtype=complex,
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


def residual_broadening(delta_ex: float, rabi_rf: float) -> float:
    """Residual resonance-frequency spread left after RF dressing, MHz.

    (1/2) * [sqrt(delta_ex^2 + rabi_rf^2) - rabi_rf], which tends to
    delta_ex^2 / (4 * rabi_rf) in strong drive.
    """
    if delta_ex < 0 or rabi_rf < 0:
        raise ValueError("delta_ex and rabi_rf must be >= 0")
    if delta_ex == 0.0:
        return 0.0
    # The same value, rationalised so delta_ex << rabi_rf does not cancel.
    return 0.5 * delta_ex**2 / (np.hypot(delta_ex, rabi_rf) + rabi_rf)
