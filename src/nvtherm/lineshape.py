"""Closed-form CW-ODMR lineshape, spectrum assembly, and noise synthesis.

The central quantity is the population left in |0> under continuous MW and
RF drive, evaluated from the bright/dark two-mode response in complex
arithmetic.  Spectra map that population to a normalized photoluminescence
signal through a single optical contrast factor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spin import (
    DriveConfig,
    PhysicalEnvironment,
    branch_detunings,
    check_fields,
    require_dressed_mode,
    zero_field_splitting,
)

DEFAULT_CONTRAST = 0.05
DEFAULT_GAMMA_B = 1.0
DEFAULT_GAMMA_D = 0.1
DEFAULT_QUADRATURE_NODES = 21
# hermgauss weights sum to 0.0 at 371 nodes and overflow from 373 (numpy 2.4).
MAX_QUADRATURE_NODES = 369
# Nodes x grid points per dressed_depletion call.  Blocks share its fixed cost
# (about 25 us); unblocked, a sigma_ex fit (21 nodes x 781 points) page-faulted
# on p0's temporaries and peaked at 134 MB, not 107.  At 2048 the fit took no
# faults and strain_thermometry ran 1.5x as fast (2-core Xeon, numpy 2.4).
BLOCK_POINTS = 2048
DEFAULT_FWHM = 8.0  # MHz, the conventional generator's Lorentzian width

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
class StrainDistribution:
    """Gaussian spread of the strain splitting E_x, averaged by quadrature."""

    mean_ex: float
    sigma_ex: float = 0.0
    nodes: int = DEFAULT_QUADRATURE_NODES

    def __post_init__(self):
        problems = []
        if not (1 <= self.nodes <= MAX_QUADRATURE_NODES and self.nodes % 2 == 1):
            problems.append(
                f"nodes must be odd and in [1, {MAX_QUADRATURE_NODES}], got {self.nodes}"
            )
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
        for name in ("frequencies", "signal", "sigma"):
            values = getattr(self, name)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"{name} must be finite, got {values[bad[0]]} at index {bad[0]}")
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


def p0(omega_b, omega_d, j, lambda_b, gamma_b, gamma_d):
    """Steady-state |0> population of the two-mode response, all MHz.

    Vectorised: the detunings ``omega_b`` and ``omega_d`` may be arrays.
    Evaluates 1 - |amp_b|^2 - |amp_d|^2 with amp_b = -lambda_b*zd/det,
    amp_d = lambda_b*j/det and det = zb*zd - j^2, operation for operation,
    in two complex and two real work arrays.  glibc hands a large free heap
    top back to the kernel (unless something, such as importing scipy, has
    raised its trim threshold), so a temporary per operation made a warm
    strain fit page-fault tens of thousands of times.
    """
    shape = np.broadcast(omega_b, omega_d).shape
    zb = np.subtract(omega_b, 1j * gamma_b, out=np.empty(shape, complex))
    zd = np.subtract(omega_d, 1j * gamma_d, out=np.empty(shape, complex))
    det = np.multiply(zb, zd, out=zb)
    np.subtract(det, j**2, out=det)
    amp_b = np.divide(np.multiply(-lambda_b, zd, out=zd), det, out=zd)
    amp_d = np.divide(lambda_b * j, det, out=det)
    lost_b = np.abs(amp_b, out=np.empty(shape))
    lost_d = np.abs(amp_d, out=np.empty(shape))
    np.square(lost_b, out=lost_b)
    np.square(lost_d, out=lost_d)
    pop = np.subtract(1.0, lost_b, out=lost_b)
    return np.subtract(pop, lost_d, out=pop)[()]


def dressed_depletion(
    d: float, ex: float | np.ndarray, omega_rf: float, grid: np.ndarray,
    rabi_rf: float, rabi_mw: float, gamma_b: float, gamma_d: float,
) -> np.ndarray:
    """Total |0>-depletion 1 - p0 over the MW grid: the one way into ``p0``.

    The closed-form response covers one RF sideband; the experimental
    spectrum shows its mirror as well, obtained here by adding the
    mirrored response (see ``spin.branch_detunings``).  J = rabi_rf/2 and
    lambda_b = rabi_mw/2.  A float ``ex`` gives one row over ``grid``; a
    column of E_x values gives one row per value, from one ``p0`` call.
    """
    omega_b, omega_d = branch_detunings(d, ex, omega_rf, grid)
    dep = p0(omega_b, omega_d, rabi_rf / 2.0, rabi_mw / 2.0, gamma_b, gamma_d)
    np.subtract(1.0, dep, out=dep)
    return dep[..., 0, :] + dep[..., 1, :]


@lru_cache(maxsize=32)
def _hermite_nodes(nodes: int) -> tuple:
    """Read-only columns of Gauss-Hermite abscissae and unit-Gaussian weights."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    x, w = x[:, None], (w / np.sqrt(np.pi))[:, None]
    x.flags.writeable = w.flags.writeable = False
    return x, w


def dressed_signal(
    d, ex, omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d, contrast,
    sigma_ex=0.0, nodes: int = DEFAULT_QUADRATURE_NODES,
) -> np.ndarray:
    """Normalized PL signal 1 - contrast * depletion (branch plus mirror).

    The depletion (``dressed_depletion``, one call per block of the grid
    for all nodes) is averaged over E_x ~ Normal(ex, sigma_ex) on ``nodes``
    Gauss-Hermite nodes, summed in node order; a zero spread or one node
    gives the signal at ``ex``.  The one dressed signal: the generators (and
    through them the CLI's curves) and the ``DressedDip`` fit model call it.
    """
    if sigma_ex != 0.0:
        x, w = _hermite_nodes(nodes)
        ex = ex + np.sqrt(2.0) * sigma_ex * x
    step = max(BLOCK_POINTS // np.size(ex), 1)
    out = np.empty(len(grid))
    for lo in range(0, len(grid), step):
        sig = 1.0 - contrast * dressed_depletion(
            d, ex, omega_rf, grid[lo : lo + step], rabi_rf, rabi_mw, gamma_b, gamma_d
        )
        # cumsum keeps node order; np.sum would add one-point blocks pairwise.
        out[lo : lo + step] = np.cumsum(w * sig, axis=0)[-1] if sigma_ex != 0.0 else sig
    return out


def spectrum(
    env: PhysicalEnvironment,
    drive: DriveConfig,
    grid: np.ndarray,
    gamma_b: float = DEFAULT_GAMMA_B,
    gamma_d: float = DEFAULT_GAMMA_D,
    contrast: float = DEFAULT_CONTRAST,
) -> Spectrum:
    """CW-ODMR spectrum over an ascending MW-frequency grid.

    signal(nu) = 1 - contrast * (1 - p0(nu)), summed over the branch and its
    mirror (see ``dressed_signal``): the ensemble spectrum of no spread.
    """
    return ensemble_spectrum(env, drive, grid, gamma_b, gamma_d, contrast)


def ensemble_spectrum(
    env: PhysicalEnvironment,
    drive: DriveConfig,
    grid: np.ndarray,
    gamma_b: float = DEFAULT_GAMMA_B,
    gamma_d: float = DEFAULT_GAMMA_D,
    contrast: float = DEFAULT_CONTRAST,
    strain: StrainDistribution | None = None,
) -> Spectrum:
    """Spectrum averaged over a Gaussian strain ensemble (``dressed_signal``).

    A zero spread or a single node reduces exactly to the homogeneous
    spectrum at ``strain.mean_ex``; no ``strain`` means no spread at env.ex.
    """
    require_dressed_mode(env)
    if strain is None:
        strain = StrainDistribution(mean_ex=env.ex)
    grid = np.asarray(grid, dtype=float)
    d = zero_field_splitting(env)
    sig = dressed_signal(
        d, strain.mean_ex, drive.omega_rf, grid, drive.rabi_rf, drive.rabi_mw,
        gamma_b, gamma_d, contrast, strain.sigma_ex, strain.nodes,
    )
    meta = {
        "model": "dressed",
        "d": float(d),
        "ex": strain.mean_ex,
        "omega_rf": drive.omega_rf,
        "rabi_rf": drive.rabi_rf,
        "rabi_mw": drive.rabi_mw,
        "gamma_b": gamma_b,
        "gamma_d": gamma_d,
        "contrast": contrast,
        "sigma_ex": strain.sigma_ex,
        "nodes": strain.nodes,
    }
    return Spectrum(grid, sig, np.zeros_like(grid), meta)


def lorentzian_dips(baseline, centers, widths, depths, grid) -> np.ndarray:
    """baseline - sum_k depth_k * (w_k/2)^2 / ((nu - c_k)^2 + (w_k/2)^2).

    The one Lorentzian signal: the conventional generators and the
    ``MultiLorentzian`` fit model both call it.
    """
    sig = np.full_like(grid, baseline, dtype=float)
    for c, w, a in zip(centers, widths, depths):
        half = w / 2.0
        sig = sig - a * half**2 / ((grid - c) ** 2 + half**2)
    return sig


def lorentzian_spectrum(
    centers,
    widths,
    depths,
    grid: np.ndarray,
) -> Spectrum:
    """Multi-Lorentzian dip spectrum on a unit baseline (``lorentzian_dips``)."""
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    widths = np.atleast_1d(np.asarray(widths, dtype=float))
    depths = np.atleast_1d(np.asarray(depths, dtype=float))
    if not (len(centers) == len(widths) == len(depths)):
        raise ValueError("centers, widths, depths must have equal length")
    if np.any(widths <= 0):
        raise ValueError("widths must be > 0")
    grid = np.asarray(grid, dtype=float)
    sig = lorentzian_dips(1.0, centers, widths, depths, grid)
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
