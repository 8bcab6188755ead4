"""Shot-noise-limited temperature sensitivity and drive-parameter sweeps.

Two figures of merit: the max-slope method, which evaluates the steepest
point of a model spectrum, and the conventional Lorentzian linewidth
formula.  Both scale as 1/sqrt(photon rate).  The sweep engine regenerates,
fits, and scores spectra over drive or laser-power grids with deterministic
per-point seeding.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from . import fitting, lineshape, oracle
from .lineshape import StrainDistribution
from .spin import DEFAULT_DD_DT, DriveConfig, PhysicalEnvironment, check_fields

# Analytic max-slope constant of a Lorentzian dip.
LORENTZIAN_SLOPE_CONSTANT = 4.0 / (3.0 * np.sqrt(3.0))

SWEEP_PARAMETER_WHITELIST = ("rabi_rf", "rabi_mw", "laser_power_mw")
# The scores of a sweep row, in column order; a failed row has NaN for each.
SWEEP_SCORES = ("fwhm_mhz", "contrast", "eta_slope_k_per_rthz", "eta_linewidth_k_per_rthz")

# Points of ``slope_sensitivity``'s grid, and per piece of its scans: a piece's
# 32 KiB of work stays below glibc's 128 KiB mmap threshold, so no scan maps memory.
SLOPE_POINTS = 20001
SCAN_CHUNK = 4096


@dataclass(frozen=True)
class NoiseBudget:
    """Photon budget and optional laser-power phenomenology.

    ``rate_per_mw`` and ``pump_per_mw`` turn a laser power into a count rate
    and an optical pump rate; the contrast saturates as
    contrast * pump / (pump + gamma_sat).
    """

    photon_rate: float
    contrast: float = lineshape.DEFAULT_CONTRAST
    rate_per_mw: float | None = None
    pump_per_mw: float | None = None
    gamma_sat: float = 1.0

    def __post_init__(self):
        check_fields(self, positive=("photon_rate",), contrasts=("contrast",))

    def at_laser_power(self, power_mw: float):
        """(photon_rate, pump_rate, contrast) at a given laser power in mW."""
        if self.rate_per_mw is None or self.pump_per_mw is None:
            raise ValueError("laser-power model not configured")
        if power_mw <= 0:
            raise ValueError(f"laser power must be > 0, got {power_mw}")
        rate = self.rate_per_mw * power_mw
        pump = self.pump_per_mw * power_mw
        contrast = self.contrast * pump / (pump + self.gamma_sat)
        return rate, pump, contrast


@dataclass
class SensitivityReport:
    """Temperature sensitivity figures, K/sqrt(Hz)."""

    eta_slope: float
    eta_linewidth: float
    best_frequency: float
    inputs: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return lineshape.strict_json(
            {
                "schema_version": 1,
                "eta_slope_k_per_rthz": self.eta_slope,
                "eta_linewidth_k_per_rthz": self.eta_linewidth,
                "best_frequency_mhz": self.best_frequency,
                "inputs": self.inputs,
            }
        )


def linewidth_sensitivity(
    fwhm: float,
    contrast: float,
    budget: NoiseBudget,
    dd_dt: float = DEFAULT_DD_DT,
) -> float:
    """Conventional CW-ODMR figure of merit for a Lorentzian line.

    eta = (4 / 3*sqrt(3)) * fwhm / (contrast * sqrt(rate) * |dd_dt|)
    """
    if fwhm <= 0 or contrast <= 0:
        raise ValueError("fwhm and contrast must be > 0")
    if dd_dt == 0:
        raise ValueError("dd_dt must be nonzero")
    return (
        LORENTZIAN_SLOPE_CONSTANT
        * fwhm
        / (contrast * np.sqrt(budget.photon_rate) * abs(dd_dt))
    )


def slope_sensitivity(
    curve_fn,
    span: tuple[float, float],
    budget: NoiseBudget,
    dd_dt: float = DEFAULT_DD_DT,
    linewidth: bool = True,
) -> SensitivityReport:
    """Max-slope temperature sensitivity of a model spectrum.

    eta = sqrt(S(nu*) / rate) / (|dS/dnu|(nu*) * |dd_dt|), with nu* the
    steepest point of the normalized signal on a ``SLOPE_POINTS`` grid and
    the derivative taken by central differences.  With ``linewidth`` the
    report also holds the deepest dip's half-depth FWHM and its linewidth
    figure; without, it skips that root search and leaves them None and NaN.
    """
    if dd_dt == 0:
        raise ValueError("dd_dt must be nonzero")
    lo, hi = span
    grid = np.linspace(lo, hi, SLOPE_POINTS)
    curve = np.asarray(curve_fn(grid), dtype=float)
    k, max_slope = _first_max(_abs_gradient(curve, grid[1] - grid[0]))
    if max_slope * (hi - lo) < 1e-12:
        raise ValueError("no spectral sensitivity: spectrum is flat")
    if not curve[k] > 0:
        raise ValueError(f"signal at the steepest point must be > 0, got {curve[k]}")
    eta_slope = float(
        np.sqrt(curve[k] / budget.photon_rate) / (max_slope * abs(dd_dt))
    )
    m, _ = _first_max(_depths(curve))
    depth = max(float(1.0 - curve[m]), 0.0)
    fwhm = None
    if linewidth and depth > 0:
        fwhm = fitting.half_depth_widths(curve_fn, grid, curve, [m])[0]
    eta_lw = float("nan")
    if fwhm is not None:
        eta_lw = linewidth_sensitivity(fwhm, depth, budget, dd_dt)
    return SensitivityReport(
        eta_slope=eta_slope,
        eta_linewidth=eta_lw,
        best_frequency=float(grid[k]),
        inputs={
            "photon_rate": budget.photon_rate,
            "dd_dt_mhz_per_k": dd_dt,
            "fwhm_mhz": fwhm,
            "contrast": depth,
        },
    )


def _abs_gradient(curve, dnu):
    """``np.abs(np.gradient(curve, dnu))`` as ``(offset, values)`` pieces, bit for bit."""
    n, work = len(curve), np.empty(SCAN_CHUNK)
    yield 0, np.abs([(curve[1] - curve[0]) / dnu])
    for lo in range(1, n - 1, SCAN_CHUNK):
        hi = min(lo + SCAN_CHUNK, n - 1)
        part = np.subtract(curve[lo + 1 : hi + 1], curve[lo - 1 : hi - 1], out=work[: hi - lo])
        yield lo, np.abs(np.divide(part, 2.0 * dnu, out=part), out=part)
    yield n - 1, np.abs([(curve[-1] - curve[-2]) / dnu])


def _depths(curve):
    """``1.0 - curve`` as ``(offset, values)`` pieces."""
    work = np.empty(SCAN_CHUNK)
    for lo in range(0, len(curve), SCAN_CHUNK):
        part = curve[lo : lo + SCAN_CHUNK]
        yield lo, np.subtract(1.0, part, out=work[: len(part)])


def _first_max(pieces):
    """``np.argmax`` over ``(offset, values)`` pieces, and its value: the first NaN or largest."""
    best_i = best = None
    for offset, values in pieces:
        j = int(values.argmax())
        if best_i is None or (best == best and not values[j] <= best):  # a NaN wins and stays
            best_i, best = offset + j, values[j]
    return best_i, best


def estimate_temperature(
    fit_result: fitting.FitResult,
    calibration: fitting.FitResult,
    dd_dt: float,
    t0: float,
):
    """Temperature from the zero-field-splitting shift between two fits.

    Returns (temperature_k, uncertainty_k); the uncertainty combines both
    fitted center uncertainties.  Both fits must be converged and of the
    same model family.
    """
    if not (fit_result.converged and calibration.converged):
        raise ValueError("both fits must be converged")
    if fit_result.model_kind != calibration.model_kind:
        raise ValueError(
            f"model-family mismatch: {fit_result.model_kind} vs "
            f"{calibration.model_kind}"
        )
    if dd_dt == 0:
        raise ValueError("dd_dt must be nonzero")
    d_fit, var_fit = _center_estimate(fit_result)
    d_cal, var_cal = _center_estimate(calibration)
    delta_t = (d_fit - d_cal) / dd_dt
    uncertainty = float(np.sqrt(var_fit + var_cal) / abs(dd_dt))
    return t0 + delta_t, uncertainty


def _center_estimate(result: fitting.FitResult):
    """Zero-field-splitting estimate and variance from a fit."""
    if result.model_kind == "DressedDip":
        i = result.param_names.index("d")
        return float(result.params[i]), float(max(result.covariance[i, i], 0.0))
    idx = [i for i, n in enumerate(result.param_names) if n.startswith("center_")]
    if not idx:
        raise ValueError(f"no center parameters in model {result.model_kind}")
    centers = result.params[idx]
    sub = result.covariance[np.ix_(idx, idx)]
    return float(np.mean(centers)), float(max(np.sum(sub) / len(idx) ** 2, 0.0))


@dataclass(frozen=True)
class SweepConfig:
    """One- or two-axis sweep over drive or laser-power parameters."""

    axes: tuple
    environment: PhysicalEnvironment
    drive: DriveConfig
    grid: np.ndarray
    strain: StrainDistribution
    gamma_b: float = lineshape.DEFAULT_GAMMA_B
    gamma_d: float = lineshape.DEFAULT_GAMMA_D
    dwell: float = 1.0
    seed: int = 0
    fit_model: str = "dressed"
    lorentzian_peaks: int = 2
    lorentzian_fwhm: float = lineshape.DEFAULT_FWHM
    generator: str = "closed_form"

    def __post_init__(self):
        problems = []
        if not 1 <= len(self.axes) <= 2:
            problems.append(f"axes: a sweep has one or two axes, got {len(self.axes)}")
        for i, (name, values) in enumerate(self.axes):
            if name not in SWEEP_PARAMETER_WHITELIST:
                problems.append(
                    f"axes[{i}] name {name!r} not allowed (not sweepable); "
                    f"choose from {', '.join(SWEEP_PARAMETER_WHITELIST)}"
                )
            vals = np.asarray(values, dtype=float)
            if vals.size == 0:
                problems.append(f"axes[{i}] {name!r} has no values")
            elif not np.all(np.isfinite(vals)):
                problems.append(f"axes[{i}] {name!r} has non-finite values")
        if self.fit_model not in ("dressed", "lorentzian"):
            problems.append(f"fit_model must be dressed or lorentzian, got {self.fit_model!r}")
        elif self.fit_model == "dressed" and not self.environment.is_transverse_mode:
            problems.append(
                "fit_model 'dressed' requires a transverse-mode environment, "
                f"got b_parallel = {self.environment.b_parallel}"
            )
        if self.generator not in ("closed_form", "lindblad"):
            problems.append(f"generator must be closed_form or lindblad, got {self.generator!r}")
        elif self.generator == "lindblad" and self.strain.sigma_ex != 0.0:
            problems.append(
                "generator 'lindblad' does not support strain averaging, "
                f"got sigma_ex = {self.strain.sigma_ex}"
            )
        positive = ("gamma_b", "gamma_d", "dwell", "lorentzian_peaks", "lorentzian_fwhm")
        check_fields(self, positive=positive, problems=problems)


@dataclass
class SweepTable:
    """Sweep results, one row per grid point."""

    columns: list
    rows: list

    def to_csv(self) -> str:
        """The table as CSV; a cell holding a comma (an error status) is quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            cells = (row[c] for c in self.columns)
            writer.writerow(f"{v:.17g}" if isinstance(v, float) else str(v) for v in cells)
        return out.getvalue()

    def to_json(self) -> str:
        """Strict JSON: a NaN cell (a failed row) is written as null."""
        return lineshape.strict_json(
            {"schema_version": 1, "columns": self.columns, "rows": self.rows}
        )


def sweep(config: SweepConfig, budget: NoiseBudget) -> SweepTable:
    """Generate, fit, and score a spectrum at every sweep grid point.

    The budget sets the photon rate and the contrast.  Per-point seeds derive
    deterministically from (seed, point index); rows appear in grid order.
    Failed fits are recorded with a reason, never dropped.
    """
    axis_names = [name for name, _ in config.axes]
    axis_values = [np.asarray(vals, dtype=float) for _, vals in config.axes]
    columns = axis_names + [*SWEEP_SCORES, "converged", "status"]
    rows = []
    for index, combo in enumerate(itertools.product(*axis_values)):
        point = dict(zip(axis_names, combo))
        row = {name: float(v) for name, v in point.items()}
        try:
            row.update(_sweep_point(config, budget, point, index))
        except (fitting.FitError, ValueError, RuntimeError) as exc:
            row.update(dict.fromkeys(SWEEP_SCORES, float("nan")))
            row.update(converged=False, status=f"error: {exc}")
        rows.append(row)
    return SweepTable(columns=columns, rows=rows)


def _sweep_point(config: SweepConfig, budget: NoiseBudget, point: dict, index: int):
    env = config.environment
    amplitudes = {k: v for k, v in point.items() if k in ("rabi_mw", "rabi_rf")}
    drive = replace(config.drive, **amplitudes)
    gamma_b, gamma_d = config.gamma_b, config.gamma_d
    rate, contrast = budget.photon_rate, budget.contrast
    if "laser_power_mw" in point:
        rate, pump, contrast = budget.at_laser_power(point["laser_power_mw"])
        gamma_b = pump / 2.0
        gamma_d = pump / 2.0 * (config.gamma_d / config.gamma_b)
    dd_dt = env.dd_dt

    if config.fit_model == "dressed":
        if config.generator == "lindblad":
            # Saturating three-level generator; damping-rate mapping
            # gamma = pump/2 + dephasing.
            g_lo = min(gamma_b, gamma_d)
            pump = 2.0 * g_lo
            clean = oracle.oracle_spectrum(
                replace(env, ex=config.strain.mean_ex),
                drive,
                config.grid,
                pump,
                dephase_b=gamma_b - g_lo,
                dephase_d=gamma_d - g_lo,
                contrast=contrast,
            )
        else:
            clean = lineshape.ensemble_spectrum(
                env, drive, config.grid, gamma_b, gamma_d, contrast, config.strain
            )
        model = fitting.DressedDip(
            omega_rf=drive.omega_rf, fixed_contrast=contrast
        )
    else:
        clean = lineshape.conventional_spectrum(
            env, config.grid, config.lorentzian_fwhm, contrast
        )
        model = fitting.MultiLorentzian(config.lorentzian_peaks)

    seed = np.random.SeedSequence([config.seed, index])
    noisy = lineshape.synthesize_measurement(clean, rate, config.dwell, seed)
    result = fitting.fit(noisy, model)

    resolved = [f for f in result.fwhm_per_peak if f is not None]
    fwhm = float(np.mean(resolved)) if resolved else float("nan")
    depth = float(max(result.contrast_per_peak)) if result.contrast_per_peak else 0.0

    point_budget = replace(budget, photon_rate=rate, contrast=contrast)
    span = (float(config.grid[0]), float(config.grid[-1]))
    try:
        # The row's linewidth figure comes from the fit's FWHM below.
        report = slope_sensitivity(
            lambda g: model.evaluate(result.params, g), span, point_budget, dd_dt,
            linewidth=False,
        )
        eta_slope = report.eta_slope
    except ValueError:
        eta_slope = float("nan")
    if fwhm == fwhm and depth > 0:  # fwhm not NaN
        eta_lw = linewidth_sensitivity(fwhm, depth, point_budget, dd_dt)
    else:
        eta_lw = float("nan")
    return {
        **dict(zip(SWEEP_SCORES, (fwhm, depth, eta_slope, eta_lw))),
        "converged": bool(result.converged),
        "status": "ok" if result.converged else "fit did not converge",
    }
