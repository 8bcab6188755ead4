"""Closed-form CW-ODMR lineshape, spectrum assembly, and noise synthesis.

The central quantity is the population left in |0> under continuous MW and
RF drive, evaluated from the bright/dark two-mode response in complex
arithmetic.  Spectra map that population to a normalized photoluminescence
signal through a single optical contrast factor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .spin import (
    DriveConfig,
    PhysicalEnvironment,
    branch_detunings,
    check_fields,
    drive_detunings,
    zero_field_splitting,
)

DEFAULT_CONTRAST = 0.05
DEFAULT_GAMMA_B = 1.0
DEFAULT_GAMMA_D = 0.1
DEFAULT_QUADRATURE_NODES = 21

CSV_HEADER = "frequency_mhz,signal,sigma"
SCHEMA_VERSION = 1


def strict_json(doc) -> str:
    """Indented strict JSON: every non-finite float is written as null."""
    return json.dumps(_finite_or_null(doc), indent=2, allow_nan=False)


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


@dataclass(frozen=True)
class BosonicModelParams:
    """The six parameters of the two-mode response, all MHz."""

    omega_b: float
    omega_d: float
    j: float
    lambda_b: float
    gamma_b: float
    gamma_d: float

    def __post_init__(self):
        check_fields(self, positive=("gamma_b", "gamma_d"))


@dataclass(frozen=True)
class StrainDistribution:
    """Gaussian spread of the strain splitting E_x, averaged by quadrature."""

    mean_ex: float
    sigma_ex: float = 0.0
    nodes: int = DEFAULT_QUADRATURE_NODES

    def __post_init__(self):
        problems = []
        if self.nodes < 1 or self.nodes % 2 == 0:
            problems.append(f"nodes must be odd and >= 1, got {self.nodes}")
        check_fields(self, nonnegative=("sigma_ex",), problems=problems)


@dataclass
class Spectrum:
    """Frequency grid, normalized PL signal, and per-point noise estimate."""

    frequencies: np.ndarray
    signal: np.ndarray
    sigma: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.frequencies = np.asarray(self.frequencies, dtype=float)
        self.signal = np.asarray(self.signal, dtype=float)
        self.sigma = np.asarray(self.sigma, dtype=float)
        n = len(self.frequencies)
        if len(self.signal) != n or len(self.sigma) != n:
            raise ValueError("frequencies, signal, sigma must have equal length")
        if n > 1 and not np.all(np.diff(self.frequencies) > 0):
            raise ValueError("frequencies must be strictly ascending")
        if np.any(self.sigma < 0):
            raise ValueError("sigma must be >= 0 pointwise")

    def __len__(self) -> int:
        return len(self.frequencies)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for f, s, e in zip(self.frequencies, self.signal, self.sigma):
            lines.append(f"{f:.17g},{s:.17g},{e:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, metadata: dict | None = None) -> "Spectrum":
        """Parse ``to_csv`` output; every row needs three finite numbers."""
        numbered = enumerate(text.splitlines(), 1)
        lines = [(n, ln.strip()) for n, ln in numbered if ln.strip()]
        if not lines or lines[0][1] != CSV_HEADER:
            raise ValueError(f"expected CSV header {CSV_HEADER!r}")
        if len(lines) == 1:
            raise ValueError(f"line {lines[0][0]}: header has no data rows below it")
        rows = []
        for n, ln in lines[1:]:
            try:
                row = tuple(float(x) for x in ln.split(","))
            except ValueError:
                raise ValueError(f"line {n}: not a number in {ln!r}") from None
            if len(row) != 3:
                raise ValueError(f"line {n}: expected 3 values, got {len(row)}")
            if not all(math.isfinite(x) for x in row):
                raise ValueError(f"line {n}: non-finite value in {ln!r}")
            rows.append(row)
        freqs, sig, err = (np.array(col) for col in zip(*rows))
        return cls(freqs, sig, err, metadata or {})

    def to_json(self) -> str:
        return strict_json(
            {
                "schema_version": SCHEMA_VERSION,
                "metadata": self.metadata,
                "frequency_mhz": self.frequencies.tolist(),
                "signal": self.signal.tolist(),
                "sigma": self.sigma.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Spectrum":
        doc = json.loads(text)
        return cls(
            np.array(doc["frequency_mhz"]),
            np.array(doc["signal"]),
            np.array(doc["sigma"]),
            doc.get("metadata", {}),
        )


def map_drive_to_model(
    env: PhysicalEnvironment,
    drive: DriveConfig,
    omega_mw: float,
    gamma_b: float = DEFAULT_GAMMA_B,
    gamma_d: float = DEFAULT_GAMMA_D,
    dark_strain_sign: float = -1.0,
) -> BosonicModelParams:
    """Map physical drive settings to the two-mode response parameters."""
    if not env.is_transverse_mode:
        raise ValueError("dressed-state model requires transverse mode")
    omega_b, omega_d = drive_detunings(env, drive, omega_mw, dark_strain_sign)
    return BosonicModelParams(
        omega_b=omega_b,
        omega_d=omega_d,
        j=drive.rabi_rf / 2.0,
        lambda_b=drive.rabi_mw / 2.0,
        gamma_b=gamma_b,
        gamma_d=gamma_d,
    )


def p0(model: BosonicModelParams) -> float:
    """Steady-state probability of remaining in |0> under drive."""
    return float(
        _p0_arrays(
            model.omega_b,
            model.omega_d,
            model.j,
            model.lambda_b,
            model.gamma_b,
            model.gamma_d,
        )
    )


def _p0_arrays(omega_b, omega_d, j, lambda_b, gamma_b, gamma_d):
    """Vectorized |0> population; omega_b / omega_d may be arrays."""
    zb = omega_b - 1j * gamma_b
    zd = omega_d - 1j * gamma_d
    det = zb * zd - j**2
    amp_b = -lambda_b * zd / det
    amp_d = lambda_b * j / det
    return 1.0 - np.abs(amp_b) ** 2 - np.abs(amp_d) ** 2


def dressed_depletion(
    d: float,
    ex: float,
    omega_rf: float,
    grid: np.ndarray,
    rabi_rf: float,
    rabi_mw: float,
    gamma_b: float,
    gamma_d: float,
    branches: str = "both",
    dark_strain_sign: float = -1.0,
) -> np.ndarray:
    """Total |0>-depletion 1 - p0 over the MW grid.

    The closed-form response covers one RF sideband; the experimental
    spectrum shows both dressed branches, obtained here by adding the
    mirrored response (see ``spin.branch_detunings``).  ``branches`` is
    "both" or "upper".
    """
    j = rabi_rf / 2.0
    lam = rabi_mw / 2.0
    upper, *mirror = branch_detunings(d, ex, omega_rf, grid, branches, dark_strain_sign)
    dep = 1.0 - _p0_arrays(*upper, j, lam, gamma_b, gamma_d)
    for omega_b, omega_d in mirror:
        dep = dep + (1.0 - _p0_arrays(omega_b, omega_d, j, lam, gamma_b, gamma_d))
    return dep


@lru_cache(maxsize=32)
def _hermite_nodes(nodes: int) -> tuple:
    """Gauss-Hermite abscissae and weights normalized to the unit Gaussian."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    return tuple(x), tuple(w / np.sqrt(np.pi))


def strain_average(fn, mean_ex: float, sigma_ex: float, nodes: int):
    """Average ``fn(ex)`` over E_x ~ Normal(mean_ex, sigma_ex).

    Gauss-Hermite quadrature with ``nodes`` nodes, summed in fixed order for
    bit-reproducibility; a zero spread returns ``fn(mean_ex)``, and so does a
    single node, whose weight is exactly 1.
    """
    if sigma_ex == 0.0:
        return fn(mean_ex)
    acc = 0.0
    for xi, wi in zip(*_hermite_nodes(nodes)):
        acc = acc + wi * fn(mean_ex + np.sqrt(2.0) * sigma_ex * xi)
    return acc


def spectrum(
    env: PhysicalEnvironment,
    drive: DriveConfig,
    grid: np.ndarray,
    gamma_b: float = DEFAULT_GAMMA_B,
    gamma_d: float = DEFAULT_GAMMA_D,
    contrast: float = DEFAULT_CONTRAST,
    branches: str = "both",
    dark_strain_sign: float = -1.0,
) -> Spectrum:
    """CW-ODMR spectrum over an ascending MW-frequency grid.

    signal(nu) = 1 - contrast * (1 - p0(nu)), summed over the dressed
    branches (see ``dressed_depletion``).
    """
    grid, signal, meta = _dressed_signal(
        env, drive, grid, gamma_b, gamma_d, contrast, branches, dark_strain_sign
    )
    return Spectrum(grid, signal(env.ex), np.zeros_like(grid), meta)


def ensemble_spectrum(
    env: PhysicalEnvironment,
    drive: DriveConfig,
    grid: np.ndarray,
    gamma_b: float = DEFAULT_GAMMA_B,
    gamma_d: float = DEFAULT_GAMMA_D,
    contrast: float = DEFAULT_CONTRAST,
    strain: StrainDistribution | None = None,
    branches: str = "both",
) -> Spectrum:
    """Spectrum averaged over a Gaussian strain ensemble (``strain_average``).

    A zero spread or a single node reduces exactly to the homogeneous
    spectrum at ``strain.mean_ex``.
    """
    if strain is None:
        strain = StrainDistribution(mean_ex=env.ex)
    mean_env = replace(env, ex=strain.mean_ex)
    grid, signal, meta = _dressed_signal(
        mean_env, drive, grid, gamma_b, gamma_d, contrast, branches
    )
    sig = strain_average(signal, strain.mean_ex, strain.sigma_ex, strain.nodes)
    meta.update(sigma_ex=strain.sigma_ex, nodes=strain.nodes)
    return Spectrum(grid, sig, np.zeros_like(grid), meta)


def _dressed_signal(
    env, drive, grid, gamma_b, gamma_d, contrast, branches, dark_strain_sign=-1.0
):
    """Grid, signal as a function of E_x, and metadata of a dressed spectrum."""
    if not env.is_transverse_mode:
        raise ValueError("dressed-state model requires transverse mode")
    grid = np.asarray(grid, dtype=float)
    d = zero_field_splitting(env)

    def signal(ex):
        dep = dressed_depletion(
            d,
            ex,
            drive.omega_rf,
            grid,
            drive.rabi_rf,
            drive.rabi_mw,
            gamma_b,
            gamma_d,
            branches,
            dark_strain_sign,
        )
        return 1.0 - contrast * dep

    meta = {
        "model": "dressed",
        "branches": branches,
        "d": float(d),
        "ex": env.ex,
        "omega_rf": drive.omega_rf,
        "rabi_rf": drive.rabi_rf,
        "rabi_mw": drive.rabi_mw,
        "gamma_b": gamma_b,
        "gamma_d": gamma_d,
        "contrast": contrast,
    }
    return grid, signal, meta


def lorentzian_spectrum(
    centers,
    widths,
    depths,
    grid: np.ndarray,
) -> Spectrum:
    """Multi-Lorentzian dip spectrum: the conventional parallel-field model.

    signal(nu) = 1 - sum_k depth_k * (w_k/2)^2 / ((nu - c_k)^2 + (w_k/2)^2)
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    depths = np.atleast_1d(np.asarray(depths, dtype=float))
    if not (len(centers) == len(widths) == len(depths)):
        raise ValueError("centers, widths, depths must have equal length")
    if np.any(widths <= 0):
        raise ValueError("widths must be > 0")
    grid = np.asarray(grid, dtype=float)
    sig = np.ones_like(grid)
    for c, w, a in zip(centers, widths, depths):
        half = w / 2.0
        sig = sig - a * half**2 / ((grid - c) ** 2 + half**2)
    meta = {
        "model": "lorentzian",
        "centers": centers.tolist(),
        "widths": widths.tolist(),
        "depths": depths.tolist(),
    }
    return Spectrum(grid, sig, np.zeros_like(grid), meta)


def conventional_spectrum(
    env: PhysicalEnvironment,
    grid: np.ndarray,
    fwhm: float,
    contrast: float = DEFAULT_CONTRAST,
) -> Spectrum:
    """Parallel-field baseline: Lorentzian dips at D +/- b_parallel.

    With b_parallel = 0 a single dip sits at D.
    """
    d = zero_field_splitting(env)
    if env.b_parallel != 0.0:
        centers = [d - env.b_parallel, d + env.b_parallel]
    else:
        centers = [d]
    out = lorentzian_spectrum(
        centers, [fwhm] * len(centers), [contrast] * len(centers), grid
    )
    out.metadata.update({"model": "conventional", "d": d, "b_parallel": env.b_parallel})
    return out


def synthesize_measurement(clean: Spectrum, photon_rate: float, dwell: float, seed) -> Spectrum:
    """Add a Gaussian approximation of photon shot noise to a clean spectrum.

    Per-point standard deviation is signal/sqrt(rate*dwell*signal), the
    relative shot noise of N = rate*dwell*signal detected counts.
    Deterministic under a fixed seed.
    """
    if not (photon_rate > 0 and dwell > 0):
        raise ValueError("photon_rate and dwell must be > 0")
    if not np.all(clean.signal > 0):
        raise ValueError(f"clean signal must be > 0 for shot noise, got {clean.signal.min()}")
    rng = np.random.default_rng(seed)
    sigma = clean.signal / np.sqrt(photon_rate * dwell * clean.signal)
    noisy = clean.signal + rng.normal(0.0, 1.0, size=len(clean)) * sigma
    meta = dict(clean.metadata)
    meta.update(
        {
            "photon_rate": photon_rate,
            "dwell": dwell,
            "seed": seed if isinstance(seed, int) else repr(seed),
        }
    )
    return Spectrum(clean.frequencies.copy(), noisy, sigma, meta)
