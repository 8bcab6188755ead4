"""Nonlinear least-squares fitting of ODMR spectra.

Two model families: a multi-Lorentzian dip model (conventional parallel-field
spectra) and the dressed-state dip model (transverse-field spectra with RF
drive).  The optimizer is a damped least-squares (Levenberg-Marquardt style)
loop; strictly positive parameters are fitted in log space so the internal
problem is unconstrained.  A model with ``exact_jacobian`` set (the dressed
model with sigma_ex fitted) gives its Jacobian in closed form and its value
from the real-arithmetic formula that Jacobian differentiates; the others
take a numerical central difference of their generators' signal.

Each model's ``evaluate`` takes one parameter vector or a stack of them as
rows, and gives each row the bits its own call gives.  A central-difference
Jacobian is therefore one model call (all 2n perturbed vectors as rows), and
the half-depth crossings of every dip advance in lockstep by the Illinois
variant of regula falsi, one model call per step for all of them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import neg
from typing import NamedTuple

import numpy as np

from . import lineshape
from .lineshape import Spectrum, strict_json
from .lineshape import dressed_depletion  # noqa: F401  (benchmarks/tracing.py wraps it here)
from .spin import check_fields

MAX_ITERATIONS = 500
COST_RTOL = 1e-10
STEP_ATOL = 1e-12
MAX_DAMPING = 1e12
JACOBIAN_REL_STEP = 1e-6
PEAK_REFINE = 8  # dressed FWHMs are measured on a grid this many times finer
MIN_FIT_POINTS = 10  # fewer samples than this give no dip detection to start from
# Spread of multistart_fit's perturbed guesses: relative, and for centers a
# fraction of the grid span.
MULTISTART_SPREAD = 0.1
# Half-depth crossings close within 2 * (ROOT_XTOL + ROOT_RTOL * |x|) wide brackets.
ROOT_XTOL = 2e-12
ROOT_RTOL = 4 * math.ulp(1.0)  # 4 machine epsilons
ROOT_MAXITER = 100


class FitError(RuntimeError):
    """Raised when a fit cannot be set up or the optimizer breaks down."""


@dataclass(frozen=True)
class MultiLorentzian:
    """Sum-of-Lorentzian-dips model: baseline minus n_peaks Lorentzians.

    Parameter layout: [baseline, center_1, width_1, depth_1, ..., center_n,
    width_n, depth_n].  Widths and depths are strictly positive.
    """

    n_peaks: int
    exact_jacobian = False  # see DressedDip.exact_jacobian

    def __post_init__(self):
        check_fields(self, positive=("n_peaks",))

    @property
    def param_names(self) -> tuple[str, ...]:
        names = ["baseline"]
        for k in range(1, self.n_peaks + 1):
            names += [f"center_{k}", f"width_{k}", f"depth_{k}"]
        return tuple(names)

    @property
    def positive(self) -> np.ndarray:
        mask = [False]
        for _ in range(self.n_peaks):
            mask += [False, True, True]
        return np.array(mask)

    @property
    def center_indices(self) -> list[int]:
        return [1 + 3 * k for k in range(self.n_peaks)]

    def evaluate(self, params: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """The signal of ``params``, shape (n,), or of each row of shape (rows, n)."""
        p = params.T
        return lineshape.lorentzian_dips(p[0], p[1::3], p[2::3], p[3::3], grid)


@dataclass(frozen=True)
class DressedDip:
    """Dressed-state dip model built on the two-mode response.

    Parameter layout: [d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d] plus a
    trailing sigma_ex when ``fit_sigma_ex`` is set (averaged on the default
    quadrature nodes).  The RF frequency and the contrast are fixed
    attributes of the model, not fitted parameters: the signal depends on
    the contrast only through contrast * rabi_mw**2, so the two cannot be
    fitted jointly and the contrast stays at ``fixed_contrast``.  With
    sigma_ex fitted, ``evaluate`` is ``lineshape.dressed_strain_signal`` and
    ``jacobian`` gives its exact derivatives (``lineshape.dressed_jacobian``),
    one real-arithmetic formula; the generators stay on the node sum of
    ``dressed_signal`` rows (``lineshape._strain_average``), which it equals
    to about 1e-13.  Without sigma_ex, ``evaluate`` is ``dressed_signal``,
    the one rows path, so it gives a sigma_ex = 0 generator's bits.
    """

    omega_rf: float
    fit_sigma_ex: bool = False
    fixed_contrast: float = lineshape.DEFAULT_CONTRAST

    def __post_init__(self):
        check_fields(self, contrasts=("fixed_contrast",))

    @property
    def param_names(self) -> tuple[str, ...]:
        names = ["d", "ex", "rabi_rf", "rabi_mw", "gamma_b", "gamma_d"]
        if self.fit_sigma_ex:
            names.append("sigma_ex")
        return tuple(names)

    @property
    def positive(self) -> np.ndarray:
        mask = [False, False, True, True, True, True]
        if self.fit_sigma_ex:
            mask.append(True)
        return np.array(mask)

    @property
    def center_indices(self) -> list[int]:
        return [0]

    @property
    def exact_jacobian(self) -> bool:
        """Whether ``fit`` takes ``jacobian`` instead of central differences.

        Only sigma_ex fits do: their central-difference Jacobian is a
        14-row stack of 21 nodes x 781 points (fig2), while ``jacobian``
        reuses the terms of the value at its point and costs under two
        single-row values, so a warm fig2 sigma_ex fit with its covariance
        and FWHMs takes about 22 ms instead of 88 (2-core Xeon).  The
        sigma_ex = 0 fits keep central differences because
        benchmarks/reference.json pins their last bits: a JACOBIAN_REL_STEP
        of 1.1e-6 for 1e-6 moved 12 drive_map rows and a lindblad_map point
        out of it.  They switch once ROADMAP item 16 makes re-recording it
        one command (item 6).
        """
        return self.fit_sigma_ex

    def evaluate(self, params: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """The signal of ``params``, shape (n,), or of each row of shape (rows, n)."""
        d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d = params.T[:6]
        if self.fit_sigma_ex:  # the value that ``jacobian`` differentiates
            return lineshape.dressed_strain_signal(
                d, ex, self.omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d,
                self.fixed_contrast, params.T[6],
            )
        return lineshape.dressed_signal(
            d, ex, self.omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d, self.fixed_contrast
        )

    def jacobian(self, params: np.ndarray, grid: np.ndarray) -> np.ndarray:
        """d signal / d params at one vector of a sigma_ex model, shape (len(grid), 7)."""
        d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d, sigma_ex = params.tolist()
        return lineshape.dressed_jacobian(
            d, ex, self.omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d,
            self.fixed_contrast, sigma_ex,
        )


@dataclass
class FitResult:
    """Fitted parameters, uncertainties, and per-peak line properties.

    ``fit`` stores the model, the read-only fitted ``params``, the cost and
    the fit's own grid and weights.  The covariance (``_covariance``) and
    the line properties (``peak_properties``) are computed from them the
    first time they are read, so a caller pays only for what it reads; an
    error in either computation is raised by that read.
    """

    model: object
    params: np.ndarray
    residual_rms: float
    converged: bool
    iterations: int
    cost: float
    grid: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    weighted: bool = field(repr=False)  # weights are 1/sigma, not unit weights

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.model.param_names

    @property
    def model_kind(self) -> str:
        return type(self.model).__name__

    @cached_property
    def covariance(self) -> np.ndarray:
        return _covariance(self.model, self.params, self.grid, self.weights, self.weighted, self.cost)

    @cached_property
    def _line_properties(self) -> tuple:
        # Looked up by name at the read, so a wrapper set on the module applies.
        return peak_properties(self.model, self.params, self.grid)

    @property
    def fwhm_per_peak(self) -> list:
        return self._line_properties[0]

    @property
    def fwhm_reasons(self) -> list:
        return self._line_properties[1]

    @property
    def contrast_per_peak(self) -> list:
        return self._line_properties[2]

    def param(self, name: str) -> float:
        return float(self.params[self.param_names.index(name)])

    def uncertainty(self, name: str) -> float:
        i = self.param_names.index(name)
        return float(np.sqrt(max(self.covariance[i, i], 0.0)))

    def to_json(self) -> str:
        doc = {
            "schema_version": 1,
            "model": self.model_kind,
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_rms": self.residual_rms,
            "cost": self.cost,
            "parameters": [
                {
                    "name": n,
                    "value": float(v),
                    "sigma": self.uncertainty(n),
                }
                for n, v in zip(self.param_names, self.params)
            ],
            "fwhm_mhz": self.fwhm_per_peak,
            "fwhm_reasons": self.fwhm_reasons,
            "contrast_per_peak": self.contrast_per_peak,
        }
        return strict_json(doc)


def _smooth(signal: np.ndarray) -> np.ndarray:
    win = max(3, len(signal) // 50)
    if win % 2 == 0:
        win += 1
    kernel = np.ones(win) / win
    pad = win // 2
    padded = np.concatenate([signal[:pad][::-1], signal, signal[-pad:][::-1]])
    return np.convolve(padded, kernel, mode="valid")


def noise_floor(signal: np.ndarray) -> float:
    """Smallest smoothed dip depth that stands out of the noise.

    Five times the point-to-point noise, reduced by the averaging of the
    ``_smooth`` window (about n/50 samples).
    """
    noise_est = float(np.std(np.diff(signal)) / np.sqrt(2.0))
    return max(5.0 * noise_est / np.sqrt(max(len(signal) // 50, 1)), 1e-12)


class Peaks(NamedTuple):
    """Peaks of a sampled curve, as ``scipy.signal`` reports them.

    The fields are those of ``find_peaks(x, prominence=...)`` and the widths
    those of ``peak_widths(x, indices, rel_height=0.5)``.
    """

    indices: np.ndarray
    prominences: np.ndarray
    left_bases: np.ndarray
    right_bases: np.ndarray
    widths: np.ndarray  # full width at half prominence, in samples


def _lowest_valleys(values: list) -> list:
    """Position of each maximum's base: the lowest valley its walk passes.

    ``values`` alternate valley, maximum, ..., maximum, valley.  The walk
    from a maximum goes left over maxima no higher than it and stops at the
    first strictly higher one; on ties the valley nearest the maximum wins.
    """
    stack = [-1]  # maxima whose walks are still open, strictly falling
    base = [0] * len(values)
    for e in range(1, len(values), 2):
        h = values[e]
        p = e - 1
        s = stack[-1]
        while s >= 0 and values[s] <= h:
            if values[base[s]] < values[p]:
                p = base[s]
            stack.pop()
            s = stack[-1]
        stack.append(e)
        base[e] = p
    return base[1::2]


def find_peaks(x: np.ndarray, prominence: float) -> Peaks:
    """Peaks of ``x`` with a prominence of at least ``prominence``, and their widths.

    Gives exactly what scipy 1.17's ``find_peaks`` and ``peak_widths`` give:

    - A peak is a maximal run of equal samples, strictly higher than the
      samples on either side; a run at an end of ``x`` is none.  Its index
      is the middle of the run, ``(first + last) // 2``.
    - Each side walks out from the peak while samples are no higher than
      it.  Its base is the lowest sample passed, nearest the peak on ties.
      The prominence is the peak less the higher of the two bases.
    - The width is taken at the peak less half its prominence: each side
      walks out from the peak to the first sample at or below that height,
      going no further than its base, and the crossing is interpolated
      linearly from there.

    The walks run over the turning points of ``x``, not its samples.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("find_peaks needs finite samples")
    n = len(x)
    no_index = np.zeros(0, dtype=np.intp)
    no_peaks = Peaks(no_index, np.zeros(0), no_index, no_index, np.zeros(0))
    if n < 3:
        return no_peaks
    # Between endless maxima beyond the ends, x turns alternately at a valley
    # and at a peak, starting and ending with a valley.
    dx = np.diff(np.concatenate(([np.inf], x, [np.inf])))
    steps = (dx != 0).nonzero()[0]
    rising = dx[steps] > 0
    turns = (rising[1:] != rising[:-1]).nonzero()[0]
    if len(turns) < 3:
        return no_peaks
    first = steps[turns]  # turn k is the run x[first[k]:last[k] + 1]
    last = steps[turns + 1] - 1
    values = x[first].tolist()
    first, last = first.tolist(), last.tolist()
    left = _lowest_valleys(values)
    right = [len(values) - 1 - p for p in reversed(_lowest_valleys(values[::-1]))]
    rows = []
    for e, lp, rp in zip(range(1, len(values), 2), left, right):
        h = values[e]
        prom = h - max(values[lp], values[rp])
        if not prom >= prominence:
            continue
        peak = (first[e] + last[e]) // 2
        height = h - prom * 0.5
        # The first sample at or below the height on each side lies on the
        # monotone slope next to the nearest valley that low, or the base.
        a = e - 1
        while a > lp and values[a] > height:
            a -= 2
        stop = first[a + 1] if a + 1 < e else peak
        i = max(bisect_right(x, height, last[a], stop + 1) - 1, last[lp])
        left_ip = float(i)
        if x[i] < height:
            left_ip += (height - x[i]) / (x[i + 1] - x[i])
        b = e + 1
        while b < rp and values[b] > height:
            b += 2
        start = last[b - 1] if b - 1 > e else peak
        j = min(bisect_left(x, -height, start, first[b] + 1, key=neg), first[rp])
        right_ip = float(j)
        if x[j] < height:
            right_ip -= (height - x[j]) / (x[j - 1] - x[j])
        rows.append((peak, prom, last[lp], first[rp], right_ip - left_ip))
    if not rows:
        return no_peaks
    peaks, prominences, left_bases, right_bases, widths = zip(*rows)
    return Peaks(
        np.array(peaks, dtype=np.intp),
        np.array(prominences),
        np.array(left_bases, dtype=np.intp),
        np.array(right_bases, dtype=np.intp),
        np.array(widths),
    )


def _detect_dips(spec: Spectrum, n_required: int):
    """Local-minima detection on the smoothed signal.

    Returns the baseline and one (center, width, depth) row per dip, most
    prominent first; fewer than ``n_required`` dips is an error.
    """
    if len(spec) < MIN_FIT_POINTS:
        raise FitError(f"need at least {MIN_FIT_POINTS} points, got {len(spec)}")
    smooth = _smooth(spec.signal)
    baseline = float(np.quantile(smooth, 0.75))
    depth = baseline - smooth
    floor = noise_floor(spec.signal)
    if depth.max() <= floor:
        raise FitError(f"detected 0 dips, need {n_required} (spectrum looks flat)")
    peaks = find_peaks(depth, 0.2 * depth.max())
    if len(peaks.indices) < n_required:
        raise FitError(f"detected {len(peaks.indices)} dips, need {n_required}")
    order = np.argsort(peaks.prominences)[::-1]
    idx = peaks.indices[order]
    dnu = float(np.mean(np.diff(spec.frequencies)))
    widths = np.maximum(peaks.widths[order] * dnu, dnu)
    return baseline, np.column_stack([spec.frequencies[idx], widths, depth[idx]])


def _strongest(dips: np.ndarray, n: int) -> np.ndarray:
    """The ``n`` most prominent of ``_detect_dips``' rows, sorted by center."""
    return dips[:n][np.argsort(dips[:n, 0])]


def initial_guess(spec: Spectrum, model) -> np.ndarray:
    """Heuristic starting vector for a fit of ``model`` to ``spec``."""
    if isinstance(model, MultiLorentzian):
        baseline, dips = _detect_dips(spec, model.n_peaks)
        return np.concatenate([[baseline], _strongest(dips, model.n_peaks).ravel()])
    if isinstance(model, DressedDip):
        # All four dressed dips if resolved, else the strongest pair, else one.
        _, dips = _detect_dips(spec, 1)
        n = next(k for k in (4, 2, 1) if len(dips) >= k)
        centers, widths, depths = _strongest(dips, n).T
        dnu = float(np.mean(np.diff(spec.frequencies)))
        d = float(np.mean(centers))
        ex = max(model.omega_rf / 2.0, dnu)
        span = float(centers[-1] - centers[0])
        rabi_rf = max(span - model.omega_rf, dnu)
        gamma_b = max(float(np.mean(widths)) / 2.0, dnu / 2.0)
        gamma_d = gamma_b / 10.0
        rabi_mw = 2.0 * gamma_b * np.sqrt(max(float(depths.max()), 1e-6) / model.fixed_contrast)
        params = [d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d]
        if model.fit_sigma_ex:
            params.append(max(float(np.mean(widths)) / 10.0, dnu / 10.0))
        return np.array(params)
    raise FitError(f"unknown model type {type(model).__name__}")


def _check_guess(spec: Spectrum, model, guess: np.ndarray):
    names = model.param_names
    if len(guess) != len(names):
        raise FitError(f"guess has {len(guess)} entries, model needs {len(names)}")
    bad = [n for n, g in zip(names, guess) if not math.isfinite(g)]
    if bad:
        raise FitError(f"parameters must start finite: {', '.join(bad)}")
    bad = [n for n, g, p in zip(names, guess, model.positive) if p and g <= 0]
    if bad:
        raise FitError(f"positive parameters must start > 0: {', '.join(bad)}")
    lo, hi = spec.frequencies[0], spec.frequencies[-1]
    for i in model.center_indices:
        if not (lo <= guess[i] <= hi):
            raise FitError(
                f"{names[i]} = {guess[i]} outside the grid span [{lo}, {hi}]"
            )


def _to_internal(p, pos):
    x = np.array(p, dtype=float)
    x[pos] = np.log(x[pos])
    return x


def _to_external(x, pos):
    """External parameters of an internal vector, or of each row of a stack.

    ``pos`` selects the coordinates fitted in log space: an index array, a
    mask, or a slice where they are a run (``_log_coordinates``).
    """
    p = np.array(x, dtype=float)
    # Clip so a wild trial step cannot overflow; such steps get rejected anyway.
    p[..., pos] = np.exp(p[..., pos].clip(-300.0, 300.0))
    return p


def _log_coordinates(model):
    """The coordinates of ``model`` fitted in log space: a slice if they are a run.

    A slice takes them as a view, not a copy (a ``DressedDip``'s rates and
    amplitudes are one run); ``MultiLorentzian``'s take an index array.
    """
    logs = np.flatnonzero(model.positive)
    if len(logs) and logs[-1] - logs[0] == len(logs) - 1:
        return slice(int(logs[0]), int(logs[-1]) + 1)
    return logs


def fit(spec: Spectrum, model, guess: np.ndarray | None = None) -> FitResult:
    """Weighted damped least squares of ``model`` against ``spec``.

    ``model`` is a ``MultiLorentzian`` or a ``DressedDip``: its ``evaluate``
    takes one parameter vector or a stack of them and returns a new array,
    which the residuals overwrite in place.  ``guess`` is None (then
    ``initial_guess``) or one finite entry per ``model.param_names``, each
    positive parameter > 0 and each center on the grid.

    Converges when the relative cost change drops below 1e-10 or the step
    norm below 1e-12, within 500 iterations.  Rejected steps raise the
    damping; damping beyond 1e12 is an error.  Per-point weights are
    1/sigma when every sigma is positive, otherwise unit weights.  The
    Jacobian is the model's own when it has an ``exact_jacobian``, taken to
    log coordinates by the chain rule; otherwise a numerical central
    difference, its 2n perturbed vectors evaluated as the rows of one model
    call (``_numeric_jacobian``).
    """
    if guess is None:
        guess = initial_guess(spec, model)
    guess = np.asarray(guess, dtype=float)
    _check_guess(spec, model, guess)

    grid = spec.frequencies
    data = spec.signal
    weighted = bool(np.all(spec.sigma > 0))
    w = 1.0 / spec.sigma if weighted else np.ones_like(data)

    logs = _log_coordinates(model)

    def residuals(x):  # of one internal vector, or of each row of a stack
        r = model.evaluate(_to_external(x, logs), grid)  # an array the call owns
        np.subtract(r, data, out=r)
        return np.multiply(w, r, out=r)

    def jacobian(x):  # of the residuals at one internal vector
        if not model.exact_jacobian:
            return _numeric_jacobian(residuals, x, len(data))
        p = _to_external(x, logs)
        jac = model.jacobian(p, grid)
        jac[:, logs] *= p[logs]  # d/d(log p) = p d/dp
        # A column that moves no sample of a signal below 1 by an ulp over the
        # central difference's steps is zero, as that difference would see it:
        # sigma_ex near 0, where the signal is even in it.  Left in, its
        # vanishing damping lets the step in it run away and every trial fail.
        h = JACOBIAN_REL_STEP * np.maximum(np.abs(x), 1.0)
        jac[:, np.abs(jac).max(axis=0) * h < 2.0**-53] = 0.0
        return np.multiply(jac, w[:, None], out=jac)

    # A wild step may overflow in the model or the cost; it is rejected.
    @np.errstate(over="ignore")
    def trial(dx):  # the residuals and the cost at x + dx
        r = residuals(x + dx)
        return r, 0.5 * float(r @ r)

    x = _to_internal(guess, logs)
    r = residuals(x)
    cost = 0.5 * float(r @ r)
    mu = 1e-3
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        jac = jacobian(x)
        jtj = jac.T @ jac
        jtr = jac.T @ r
        diag = jtj.diagonal().copy()
        diag[diag <= 0] = max(diag.max(), 1e-12)
        # Each trial damps the same diagonal against the same gradient.
        damping, descent = np.diag(diag), -jtr
        while mu <= MAX_DAMPING:
            try:
                dx = np.linalg.solve(jtj + mu * damping, descent)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            if math.sqrt(dx.dot(dx)) < STEP_ATOL:  # np.linalg.norm(dx)
                converged = True
                break
            r_new, cost_new = trial(dx)
            if math.isfinite(cost_new) and cost_new < cost:
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                x = x + dx
                r = r_new
                cost = cost_new
                mu = max(mu / 3.0, 1e-12)
                if rel_drop < COST_RTOL:
                    converged = True
                break
            mu *= 10.0
        if mu > MAX_DAMPING:
            raise FitError(
                f"damping exceeded {MAX_DAMPING:g} after {iterations} iterations"
            )
        if converged:
            break

    params = _to_external(x, logs)
    residual_rms = float(np.sqrt(np.mean((r / w) ** 2)))  # r: the weighted residual at params
    grid = grid.copy()  # the result's own, not the caller's spectrum
    for kept in (params, grid, w):
        kept.flags.writeable = False
    return FitResult(
        model=model,
        params=params,
        residual_rms=residual_rms,
        converged=converged,
        iterations=iterations,
        cost=cost,
        grid=grid,
        weights=w,
        weighted=weighted,
    )


def _numeric_jacobian(residuals, x, n_rows: int):
    """Central-difference Jacobian of ``residuals`` at ``x``, C-contiguous.

    Column i steps x_i by h_i = 1e-6 * max(|x_i|, 1) both ways; the 2n
    stepped vectors (x + h_i e_i in row 2i, x - h_i e_i in row 2i + 1) go
    to ``residuals`` as the rows of one call.  Each column holds the bits a
    call per stepped vector gives, and the layout keeps the summation order
    of ``jac.T @ jac``.
    """
    n = len(x)
    h = JACOBIAN_REL_STEP * np.maximum(np.abs(x), 1.0)
    stepped = np.repeat(x[None], 2 * n, axis=0)
    steps = stepped.reshape(-1)  # row 2i, column i is element i * (2n + 1)
    steps[:: 2 * n + 1] += h
    steps[n :: 2 * n + 1] -= h
    r = residuals(stepped)
    jac = np.subtract(r[0::2].T, r[1::2].T, out=np.empty((n_rows, n)))
    return np.divide(jac, 2.0 * h, out=jac)


def _covariance(model, params, grid, w, weighted, cost):
    """Covariance of the parameter vector in external coordinates."""
    n_points = len(grid)
    if model.exact_jacobian:
        jac = np.multiply(model.jacobian(params, grid), w[:, None])
    else:
        jac = _numeric_jacobian(lambda p: w * model.evaluate(p, grid), params, n_points)
    cov = np.linalg.pinv(jac.T @ jac)
    if not weighted and n_points > len(params):
        # Unit weights: scale by the residual variance estimate.
        cov = cov * (2.0 * cost / (n_points - len(params)))
    return cov


def _refuse_nan(x: np.ndarray, fx: np.ndarray):
    if (nan := np.isnan(fx)).any():
        raise ValueError(f"The function value at x={x[nan][0]} is NaN; solver cannot continue.")


def _illinois_roots(f, a, fa, b, fb) -> np.ndarray:
    """Roots of the brackets [a[k], b[k]], a <= b, by the Illinois method, in lockstep.

    The end values fa and fb must differ in sign or be zero.  Each step is
    one call ``f(which, xs)``, giving bracket ``which[k]``'s value at
    ``xs[k]`` for every open bracket.  Its probe, the secant root kept at
    least tol = ROOT_XTOL + ROOT_RTOL |x| inside the bracket, replaces the end
    of its sign, and an end kept twice in a row has its value halved (Dowell
    & Jarratt 1971).  A bracket closes at its midpoint once narrower than
    2 tol, or at a zero value's abscissa exactly.  A NaN value, ends of one
    sign, or a bracket open after ``ROOT_MAXITER`` steps is an error.  A
    step works on Python floats: numpy calls on a few brackets cost more.
    """
    a, fa, b, fb = (np.array(v, dtype=float) for v in (a, fa, b, fb))
    _refuse_nan(np.concatenate([a, b]), np.concatenate([fa, fb]))
    b = np.where(fa == 0, a, b)
    a = np.where(fb == 0, b, a)
    if (np.sign(fa) * np.sign(fb) > 0).any():
        raise ValueError("f(a) and f(b) must have different signs")
    a, fa, b, fb = (v.tolist() for v in (a, fa, b, fb))
    moved = [0.0] * len(a)  # the end the last step replaced: +1 a, -1 b
    for step in range(ROOT_MAXITER + 1):
        tol = [ROOT_XTOL + ROOT_RTOL * max(abs(ak), abs(bk)) for ak, bk in zip(a, b)]
        which = [k for k, t in enumerate(tol) if b[k] - a[k] >= 2.0 * t]
        if not which:
            return np.array([ak + (bk - ak) / 2.0 for ak, bk in zip(a, b)])
        if step == ROOT_MAXITER:
            raise RuntimeError(f"Failed to converge after {ROOT_MAXITER} iterations.")
        xs = []
        for k in which:  # np.clip's order of comparisons, so a NaN stays NaN
            x = a[k] - fa[k] * (b[k] - a[k]) / (fb[k] - fa[k])
            x = a[k] + tol[k] if x <= a[k] + tol[k] else x
            xs.append(b[k] - tol[k] if x >= b[k] - tol[k] else x)
        xs = np.array(xs)
        fx = np.asarray(f(np.array(which), xs), dtype=float)
        _refuse_nan(xs, fx)
        for k, x, fk in zip(which, xs.tolist(), fx.tolist()):
            side = 1.0 if math.copysign(1.0, fk) == math.copysign(1.0, fa[k]) else -1.0
            kept = 0.5 if moved[k] == side else 1.0  # the other end, kept twice
            if side > 0:  # halving keeps a sign bit
                a[k], fa[k], fb[k] = x, fk, kept * fb[k]
            else:
                b[k], fa[k], fb[k] = x, kept * fa[k], fk
            if fk == 0:
                a[k] = b[k] = x
            moved[k] = side


def half_depth_widths(curve_fn, grid: np.ndarray, curve: np.ndarray, dips) -> list:
    """Full width at half depth of each dip at ``grid[m]``, m in ``dips``.

    ``curve`` is ``curve_fn(grid)`` on a baseline of 1.  Each crossing is
    bracketed by the two adjacent samples nearest ``m`` that straddle half
    depth and refined by ``_illinois_roots`` on ``curve_fn``, every crossing
    of every dip together: one ``curve_fn`` call per step, on the step's new
    probes as a strictly ascending grid.  A side with no crossing makes the
    dip's width None.
    """
    starts, levels, solved = [], [], []
    for m in dips:
        half = 1.0 - (1.0 - curve[m]) / 2.0
        left = np.flatnonzero(curve[:m] >= half)
        right = np.flatnonzero(curve[m + 1 :] >= half)
        solved.append(len(left) > 0 and len(right) > 0)
        if solved[-1]:
            starts += [left[-1], m + right[0]]  # each bracket is [i, i + 1]
            levels += [half, half]
    i = np.array(starts, dtype=int)

    def above_half(which, xs):
        xs = xs.tolist()
        nu = sorted(set(xs))
        at = dict(zip(nu, curve_fn(np.array(nu)).tolist()))
        return [at[x] - levels[k] for k, x in zip(which.tolist(), xs)]

    ends = grid[i], curve[i] - levels, grid[i + 1], curve[i + 1] - levels
    widths = iter(np.diff(_illinois_roots(above_half, *ends).reshape(-1, 2)).ravel().tolist())
    return [next(widths) if ok else None for ok in solved]


def peak_properties(model, params, grid: np.ndarray):
    """FWHM and depth of each resolved dip of the model curve fitted on ``grid``.

    For MultiLorentzian the fitted widths/depths are returned directly.
    For DressedDip each dip's full width is measured at half depth on a
    model curve ``PEAK_REFINE`` times finer than ``grid``, over its span
    (``half_depth_widths``); a missing half-depth crossing between
    overlapping dips yields None with a reason.
    """
    if isinstance(model, MultiLorentzian):
        fwhm = [float(params[2 + 3 * k]) for k in range(model.n_peaks)]
        contrasts = [float(params[3 + 3 * k]) for k in range(model.n_peaks)]
        return fwhm, ["ok"] * model.n_peaks, contrasts

    fine = np.linspace(grid[0], grid[-1], PEAK_REFINE * len(grid) + 1)
    curve = model.evaluate(params, fine)
    depth = 1.0 - curve
    idx = find_peaks(depth, 0.05 * depth.max()).indices
    if not len(idx):
        return [None], ["no dip found in fitted curve"], [0.0]
    fwhm = half_depth_widths(lambda g: model.evaluate(params, g), fine, curve, idx)
    reasons = ["ok" if w is not None else "unresolved: no half-depth crossing" for w in fwhm]
    return fwhm, reasons, [float(depth[m]) for m in idx]


def multistart_fit(spec: Spectrum, model, n_starts: int = 1, seed: int = 0) -> FitResult:
    """Best of ``n_starts`` >= 1 fits from randomly perturbed initial guesses.

    Start 0 is ``initial_guess``.  Each later start scales its parameters
    by 1 + ``MULTISTART_SPREAD`` * N(0, 1), clipped to [0.5, 1.5], except
    the centers: each moves by ``MULTISTART_SPREAD`` * N(0, 1) times the
    grid span, clipped into the span, since a relative step of a center
    near 2870 MHz would leave the grid.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be >= 1, got {n_starts}")
    base = initial_guess(spec, model)
    lo, hi = spec.frequencies[0], spec.frequencies[-1]
    centers = model.center_indices
    rng = np.random.default_rng(seed)
    best = None
    for k in range(n_starts):
        guess = base.copy()
        if k > 0:
            z = MULTISTART_SPREAD * rng.standard_normal(len(base))
            guess = base * np.clip(1.0 + z, 0.5, 1.5)
            guess[centers] = np.clip(base[centers] + z[centers] * (hi - lo), lo, hi)
        try:
            res = fit(spec, model, guess)
        except FitError:
            continue
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        raise FitError("all fit starts failed")
    return best
