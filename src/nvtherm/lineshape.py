"""Closed-form CW-ODMR lineshape, spectrum assembly, and noise synthesis.

The central quantity is the population left in |0> under continuous MW and
RF drive, the bright/dark two-mode response in complex arithmetic: ``p0``
is its closed form, which ``dressed_depletion`` evaluates in place, bit for
bit.  Spectra map that population to a normalized
photoluminescence signal through a single optical contrast factor, one
row per E_x (``dressed_signal``); the generators' strain average is a node
sum over its rows (``_strain_average``).  A fit of the strain spread
evaluates the same depletion in real arithmetic,
lambda^2 (|zd|^2 + J^2) / |det|^2 (``dressed_strain_signal``), the formula
its exact Jacobian differentiates (``dressed_jacobian``): all quadrature
nodes of a point in one block, each node sum one einsum, and a Jacobian at
the point of the last value reuses that value's terms.  Both averages take
one cached rule (``_strain_rule``).
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .spin import (
    MAX_FREQUENCY,
    MAX_RABI,
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
# Rows x grid points per dressed_depletion call; a sigma_ex block of
# dressed_strain_signal holds up to 4 times as many.  Blocks share each call's
# fixed cost and reuse _Workspace's arrays, so no block-sized temporary is made
# and freed per call.  At 8192 a fig5 Jacobian's 12 rows of 501 points take
# one call, and the fig2 sigma_ex point (21 nodes x 781 points) one block.
BLOCK_POINTS = 8192
DEFAULT_FWHM = 8.0  # MHz, the conventional generator's Lorentzian width
# Fewest expected counts N per noisy point: a sample is <= 0 with odds Phi(-sqrt(N)), 2.9e-7.
MIN_COUNTS = 25.0

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
        frequencies = ("mean_ex", "sigma_ex")
        check_fields(self, nonnegative=("sigma_ex",), frequencies=frequencies, problems=problems)


def _require_finite(name: str, values: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{name} must be finite, got {values[bad[0]]} at index {bad[0]}")


def check_grid(frequencies: np.ndarray) -> None:
    """Refuse a grid that is not finite, strictly ascending and below MAX_FREQUENCY in magnitude."""
    _require_finite("frequencies", frequencies)
    if len(frequencies) > 1 and not np.all(np.diff(frequencies) > 0):
        raise ValueError("frequencies must be strictly ascending")
    if len(frequencies) and not (top := np.abs(frequencies).max()) < MAX_FREQUENCY:
        raise ValueError(f"frequencies must be below {MAX_FREQUENCY:g} in magnitude, got {top:g}")


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
        check_grid(self.frequencies)
        for name in ("signal", "sigma"):
            _require_finite(name, getattr(self, name))
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
    def from_csv(cls, text: str) -> "Spectrum":
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
        return cls(freqs, sig, err)

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


class _Workspace(threading.local):
    """The dressed kernel's work arrays, kept between blocks and calls.

    ``take`` returns a view of a flat buffer (``dressed_depletion``'s four work arrays, a
    Jacobian's columns and moment sums), made on first use for the largest
    block (two branches of ``BLOCK_POINTS`` rows x points) and never freed,
    so a fit's blocks write into the same pages: glibc gives a free heap top
    above its trim threshold (128 KiB by default) back to the kernel, so
    arrays made and freed per block would fault on every block.  A larger
    request gets a new array, so a long direct call holds no memory after
    it.  Each thread has its own buffers.  No view leaves this module: the
    public functions return arrays that their caller owns, and
    ``dressed_signal``'s rows path (the strain average's nodes included)
    writes each block straight into its result.  ``strain`` holds a sigma_ex
    block (``strain_block``), one flat buffer that only grows, to the
    4 BLOCK_POINTS nodes x points of
    ``_strain_slices``; ``point`` names the arguments of the terms it keeps
    from the last sigma_ex value, for a Jacobian there to reuse: a fit takes
    each Jacobian where it has just taken the value.
    """

    def __init__(self):
        self.buffers = {}
        self.strain = np.empty(0)
        self.point = None

    def take(self, name: str, shape: tuple, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        if size > 2 * BLOCK_POINTS:
            return np.empty(shape, dtype)
        if name not in self.buffers:
            self.buffers[name] = np.empty(2 * BLOCK_POINTS, dtype)
        return self.buffers[name][:size].reshape(shape)

    def strain_block(self, nodes: int, points: int, point=None) -> tuple:
        """A sigma_ex block's eight (nodes, 2, points) arrays; True if they hold ``point``'s terms.

        The first six are ``_dressed_terms``', the last two scratch.  Clears
        the record, so the terms serve one Jacobian.
        """
        kept, self.point = self.point, None
        size = 16 * nodes * points
        if self.strain.size < size:
            self.strain = np.empty(size)
        return self.strain[:size].reshape(8, nodes, 2, points), point is not None and point == kept


_workspace = _Workspace()


def _square(x):
    """``x**2`` of each element as a float64 scalar computes it: libm's pow.

    An array's ``x**2`` is x*x rounded, which differs from pow(x, 2) in the
    last bit for about one value in a thousand; a row of parameters must give
    the bits its scalar call gives.  A scalar, and an array that overflows,
    go through ``np.float64``, whose pow has a Python float's bits but
    overflows to inf with a RuntimeWarning, not an ``OverflowError``.
    """
    if type(x) is not np.ndarray:
        return np.float64(x) ** 2
    try:
        return np.array([v**2 for v in x.ravel().tolist()]).reshape(x.shape)
    except OverflowError:
        return np.array([v**2 for v in x.ravel()]).reshape(x.shape)


def p0(omega_b, omega_d, j, lambda_b, gamma_b, gamma_d):
    """Steady-state |0> population of the two-mode response, all MHz.

    1 - |amp_b|^2 - |amp_d|^2 with amp_b = -lambda_b*zd/det,
    amp_d = lambda_b*j/det, det = zb*zd - j^2 and z = omega - i*gamma, the
    reference that ``dressed_depletion`` evaluates in place, operation for
    operation.  The six parameters broadcast together; a scalar call returns
    a float64, whose last bit may differ from the same point's in an array
    (numpy rounds a lone complex product otherwise than its vector loop).
    """
    zb, zd = omega_b - 1j * gamma_b, omega_d - 1j * gamma_d
    det = zb * zd - _square(j)
    return 1.0 - np.abs(-lambda_b * zd / det) ** 2 - np.abs(lambda_b * j / det) ** 2


def _row_count(*params) -> int:
    """The length of the ``(rows,)`` arrays among ``params``; 0 if all are scalars."""
    for p in params:
        if type(p) is np.ndarray:
            return len(p)
    return 0


def _lift(p):
    """A ``(rows,)`` parameter before the branch and grid axes; a scalar as it is."""
    return p[:, None, None] if type(p) is np.ndarray else p


def dressed_depletion(
    d, ex, omega_rf: float, grid: np.ndarray, rabi_rf, rabi_mw, gamma_b, gamma_d, *, out=None,
) -> np.ndarray:
    """Total |0>-depletion 1 - p0 over the MW grid: the kernel's one evaluation of ``p0``.

    The closed-form response covers one RF sideband; the experimental
    spectrum shows its mirror as well, obtained here by adding the
    mirrored response (see ``spin.branch_detunings``).  J = rabi_rf/2 and
    lambda_b = rabi_mw/2.  Each parameter but ``omega_rf`` is a float, a
    numpy float64 or a ``(rows,)`` array, all arrays of one length: scalars
    give one row over ``grid``, arrays one row per entry, each equal to its
    scalar call.  ``out`` may give the array to write the result into.
    ``p0``'s operations run in order, bit for bit, in four ``_workspace``
    arrays: the detunings go into two complex ones' real parts, 0 - gamma is
    copied into their imaginary parts, and J^2, -lambda_b and lambda_b J
    enter as complex arrays, so no complex ufunc casts an operand.
    """
    rows = _row_count(d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d)
    shape = (rows, 2, len(grid)) if rows else (2, len(grid))
    if rows:  # rows go before the branch and grid axes, ex's before the branch axis only
        d, rabi_rf, rabi_mw = _lift(d), _lift(rabi_rf), _lift(rabi_mw)
        gamma_b, gamma_d = _lift(gamma_b), _lift(gamma_d)
        ex = ex[:, None] if type(ex) is np.ndarray else ex
    zb, zd = _workspace.take("zb", shape, complex), _workspace.take("zd", shape, complex)
    branch_detunings(d, ex, omega_rf, grid, out=(zb.real, zd.real))
    np.copyto(zb.imag, 0.0 - gamma_b)
    np.copyto(zd.imag, 0.0 - gamma_d)
    j, lambda_b = rabi_rf / 2.0, rabi_mw / 2.0
    det = np.multiply(zb, zd, out=zb)
    np.subtract(det, np.asarray(_square(j), complex), out=det)
    amp_b = np.divide(np.multiply(np.asarray(-lambda_b, complex), zd, out=zd), det, out=zd)
    amp_d = np.divide(np.asarray(lambda_b * j, complex), det, out=det)
    lost_b = np.abs(amp_b, out=_workspace.take("lost_b", shape))
    lost_d = np.abs(amp_d, out=_workspace.take("lost_d", shape))
    np.square(lost_b, out=lost_b)
    np.square(lost_d, out=lost_d)
    dep = np.subtract(1.0, lost_b, out=lost_b)  # p0, then the depletion 1 - p0
    np.subtract(dep, lost_d, out=dep)
    np.subtract(1.0, dep, out=dep)
    return np.add(dep[..., 0, :], dep[..., 1, :], out=out)


def _blocks(points: int) -> tuple:
    """Rows per block of at most ``BLOCK_POINTS`` rows x points, and grid points per block.

    As many whole rows over the grid as fit; a grid longer than a block
    takes one row at a time over slices of it.
    """
    per_block = max(BLOCK_POINTS // max(points, 1), 1)
    return per_block, BLOCK_POINTS // per_block


def dressed_signal(d, ex, omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d, contrast):
    """Normalized PL signal 1 - contrast * depletion (branch plus mirror), one row per E_x.

    The one rows path into ``dressed_depletion``: the generators (through
    ``_strain_average``) and the sigma_ex = 0 ``DressedDip`` model call it.
    Each parameter but ``omega_rf`` and ``contrast`` is a float, a numpy
    float64 or a ``(rows,)`` array, all arrays of one length; the result is
    ``(len(grid),)`` or ``(rows, len(grid))``, each row equal to its scalar
    call bit for bit.  A result of at most ``BLOCK_POINTS`` rows x points
    (every fit value, Jacobian stack and root-finding step) is one block,
    written by one ``dressed_depletion`` call; a larger one is written a
    block of ``_blocks`` at a time: as many whole rows as fit, or one row
    over a slice of the grid.
    """
    params = (d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d)
    rows = _row_count(*params)
    points = len(grid)
    out = np.empty((rows, points) if rows else points)
    if max(rows, 1) * points <= BLOCK_POINTS:
        _signal_block(out, omega_rf, grid, contrast, *params)
        return out
    per_block, step = _blocks(points)
    for r in range(0, max(rows, 1), per_block):
        block_params = [p[r : r + per_block] if type(p) is np.ndarray else p for p in params]
        block_rows = out[r : r + per_block] if rows else out
        for lo in range(0, points, step):
            block = block_rows[..., lo : lo + step]
            _signal_block(block, omega_rf, grid[lo : lo + step], contrast, *block_params)
    return out


def _signal_block(out, omega_rf, grid, contrast, d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d):
    """Write one block of ``dressed_signal`` into ``out``."""
    dressed_depletion(d, ex, omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d, out=out)
    np.subtract(1.0, np.multiply(contrast, out, out=out), out=out)


def _strain_average(
    d, ex, omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d, contrast, sigma_ex,
    nodes: int = DEFAULT_QUADRATURE_NODES,
) -> np.ndarray:
    """``dressed_signal`` averaged over E_x ~ Normal(ex, sigma_ex) on ``nodes`` Gauss-Hermite nodes.

    Every parameter is a float, and a zero spread gives the signal at
    ``ex``.  The nodes ex + sqrt(2) sigma_ex x_k go to ``dressed_signal`` as
    rows, one block of ``_blocks`` per call, so memory stays bounded; each
    row is weighted by w_k and added to the sum in node order, the first
    assigned.  The generators call it, and ``dressed_strain_signal`` for a
    row that it cannot evaluate exactly, equal to it to about 1e-13.
    """
    args = (omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d, contrast)
    if sigma_ex == 0.0:
        return dressed_signal(d, ex, *args)
    x, w, _ = _strain_rule(nodes)
    ex_nodes = ex + np.sqrt(2.0) * sigma_ex * x
    out, per_block = None, _blocks(len(grid))[0]
    for k in range(0, nodes, per_block):
        sig = dressed_signal(d, ex_nodes[k : k + per_block], *args)
        for s in np.multiply(w[k : k + per_block, None], sig, out=sig):
            out = s.copy() if out is None else np.add(out, s, out=out)  # np.sum adds pairwise
    return out


def dressed_jacobian(
    d, ex, omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d, contrast, sigma_ex
) -> np.ndarray:
    """Derivatives of ``dressed_strain_signal`` at one parameter vector, shape (len(grid), 7).

    The columns are d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d and sigma_ex;
    every parameter is a float, and the nodes are the default ones, as the
    ``DressedDip`` model evaluates.  Per node and branch the depletion is
    D = lambda^2 (|zd|^2 + J^2) / |det|^2 with det = zb zd - J^2 (``p0``);
    its derivatives in the detunings, J, lambda and the rates are summed
    over the nodes ex + sqrt(2) sigma_ex x_k with weights w_k, and
    dD/dE_x also with weights sqrt(2) x_k w_k for sigma_ex.  So the result
    is exact for the quadrature that ``dressed_strain_signal`` evaluates.
    The blocks are that function's (every node, over the whole grid or a
    slice of it) in ``_workspace``'s store, and the node sums einsums, which
    use no BLAS.  At the point of this thread's last ``dressed_strain_signal``
    row the terms are that call's (``_Workspace.strain_block``), bit for bit
    the ones computed here.
    """
    x, w, moments = _strain_rule()
    ex_nodes = ex + np.sqrt(2.0) * sigma_ex * x
    j, lam = rabi_rf / 2.0, rabi_mw / 2.0
    point = _point(d, ex, omega_rf, grid, j, gamma_b, gamma_d, sigma_ex)
    cols = _workspace.take("columns", (7, len(grid)))
    for at in _strain_slices(len(x), len(grid)):
        block, kept = _workspace.strain_block(len(x), len(grid[at]), point)
        if not kept:
            _dressed_terms(block, d, ex_nodes, omega_rf, grid[at], j, gamma_b, gamma_d)
        _jacobian_block(cols[:, at], block, gamma_b, gamma_d, w, moments)
    lam2 = lam * lam
    scale = [lam2, lam2, lam2 * j / 2.0, lam, lam2, lam2, np.sqrt(2.0) * lam2]
    return np.multiply(cols.T, np.multiply(-contrast, scale), out=np.empty((len(grid), 7)))


@lru_cache(maxsize=32)
def _strain_rule(nodes: int = DEFAULT_QUADRATURE_NODES) -> tuple:
    """Read-only Gauss-Hermite nodes x_k, unit-Gaussian weights w_k and columns (w_k, x_k w_k)."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    w = w / np.sqrt(np.pi)
    moments = np.stack((w, x * w), axis=1)
    x.flags.writeable = w.flags.writeable = moments.flags.writeable = False
    return x, w, moments


def _strain_slices(nodes: int, points: int) -> list:
    """A sigma_ex point's blocks: every node, over the whole grid or slices of it.

    A block holds at most 4 BLOCK_POINTS nodes x points, so the fig2 point
    (21 nodes x 781 points) is one block and a fitted curve's FWHM search
    (6,249 points) takes slices of 1,560.
    """
    step = max(4 * BLOCK_POINTS // nodes, 1)
    return [slice(lo, lo + step) for lo in range(0, points, step)]


def _dressed_terms(block, d, ex, omega_rf, grid, j, gamma_b, gamma_d) -> None:
    """Write the real-arithmetic terms of the depletion into ``block``'s first six arrays.

    Per node of ``ex``, branch and grid point: with the detunings ob, od of
    ``branch_detunings``, zb = ob - i gamma_b, zd = od - i gamma_d and
    det = zb zd - J^2 = a + ib, they are ob, od, a, b, M = |det|^2 and
    R = (|zd|^2 + J^2) / M, so the depletion of ``p0`` is lambda^2 R.  Each
    detuning is one pass over the block: ``branch_detunings`` at zero
    frequency gives its per-node constant (omega_rf in od's), and the grid
    is subtracted from that.  The seventh array is scratch.
    """
    ob, od, a, b, m, r, t, _ = block
    at_zero = branch_detunings(d, ex[:, None], omega_rf, 0.0)
    np.subtract(at_zero[0], grid, out=ob)
    np.subtract(at_zero[1], grid, out=od)
    np.multiply(ob, od, out=a)
    np.subtract(a, gamma_b * gamma_d + j * j, out=a)
    np.multiply(ob, -gamma_d, out=b)
    np.subtract(b, np.multiply(od, gamma_b, out=t), out=b)
    np.square(a, out=m)
    np.add(m, np.square(b, out=t), out=m)
    np.square(od, out=r)
    np.add(r, gamma_d * gamma_d + j * j, out=r)
    np.divide(r, m, out=r)


def _point(d, ex, omega_rf, grid, j, gamma_b, gamma_d, sigma_ex) -> bytes:
    """The bits of the arguments that fix a point's ``_dressed_terms``."""
    return np.concatenate(([d, ex, omega_rf, j, gamma_b, gamma_d, sigma_ex], grid)).tobytes()


def dressed_strain_signal(
    d, ex, omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d, contrast, sigma_ex
) -> np.ndarray:
    """``_strain_average`` on the default nodes in the real arithmetic of ``dressed_jacobian``.

    The signal 1 - contrast lambda^2 (R_upper + R_mirror) (``_dressed_terms``)
    averaged over the nodes ex + sqrt(2) sigma_ex x_k with the weights w_k
    of ``_strain_rule``: the value whose derivatives ``dressed_jacobian``
    gives, without ``p0``'s complex divisions.  One block holds every node
    over the whole grid, or over a slice of it when the point has more than
    4 BLOCK_POINTS nodes x points (``_strain_slices``), and its node sum is
    one einsum.  It agrees with ``_strain_average`` to about 1e-13 relative.
    Each parameter but ``omega_rf`` and ``contrast`` is a float or a
    ``(rows,)`` array; the result is ``(len(grid),)`` or
    ``(rows, len(grid))``, one row at a time with its scalar parameters, so
    each row equals its scalar call bit for bit.  A row where some |det|^2
    leaves the normal range of floats, or whose signal is not finite, is
    ``_strain_average``'s row instead, so the result is finite and silent
    wherever that is.
    """
    params = (d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d, sigma_ex)
    rows = [p for p in params if isinstance(p, np.ndarray) and p.ndim]
    shape = np.broadcast(*rows).shape if rows else ()
    out = np.empty(shape + (len(grid),))
    for r in np.ndindex(shape):
        row = [p[r] if isinstance(p, np.ndarray) and p.ndim else p for p in params]
        if not _strain_row(out[r], omega_rf, grid, contrast, *row):
            d_r, ex_r, *drive, sigma_r = row
            out[r] = _strain_average(d_r, ex_r, omega_rf, grid, *drive, contrast, sigma_r)
    return out


_NORMAL = (np.finfo(float).tiny, np.finfo(float).max)


def _strain_row(out, omega_rf, grid, contrast, d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d, sigma_ex):
    """Write one ``dressed_strain_signal`` row into ``out``; False where it would be inexact.

    That is where some M leaves the normal floats (an R of a zero, subnormal
    or infinite M is wrong or inexact) or the signal is not finite.  The
    terms stay in ``_workspace``'s store, and an exact row of one block
    records its point there for ``dressed_jacobian``.
    """
    x, w, _ = _strain_rule()
    ex_nodes = ex + np.sqrt(2.0) * sigma_ex * x
    j, lam = rabi_rf / 2.0, rabi_mw / 2.0
    slices = _strain_slices(len(x), len(grid))
    with np.errstate(all="ignore"):  # the checks below catch what would warn
        for at in slices:
            block, _ = _workspace.strain_block(len(x), len(grid[at]))
            _dressed_terms(block, d, ex_nodes, omega_rf, grid[at], j, gamma_b, gamma_d)
            m, r = block[4], block[5]
            if not (m.min() >= _NORMAL[0] and m.max() <= _NORMAL[1]):
                return False
            np.einsum("k,kbj->j", w, r, out=out[at])
        np.subtract(1.0, np.multiply(contrast * (lam * lam), out, out=out), out=out)
        exact = bool(np.isfinite(out).all())
    if exact and len(slices) == 1:
        _workspace.point = _point(d, ex, omega_rf, grid, j, gamma_b, gamma_d, sigma_ex)
    return exact


def _jacobian_block(cols, block, gamma_b, gamma_d, w, moments):
    """Write one block's unscaled ``dressed_jacobian`` columns into ``cols`` (7, points).

    With the terms of ``_dressed_terms`` (rates gb, gd), u = 2 / M, v = u R,
    va = v a and vb = v b, the derivatives of D / lambda^2 are
    -(va od - vb gd) in omega_b, u od - (va ob - vb gb) in omega_d,
    va gd + vb od in gamma_b, u gd + va gb + vb ob in gamma_d and
    J (u + 2 va) in J, and dD/dlambda = 2 lambda R.  Each column is one
    einsum of them against the weights ``w`` over nodes and branches, ex
    and sigma_ex together one of dD/dE_x against ``moments``; the caller
    applies the scalar factors.  It works in the block's arrays, so a hit
    consumes its terms.
    """
    ob, od, a, b, m, r, t1, t2 = block
    np.einsum("k,kbj->j", w, r, out=cols[3])  # rabi_mw
    u = np.divide(2.0, m, out=m)
    v = np.multiply(u, r, out=r)
    va, vb = np.multiply(a, v, out=a), np.multiply(b, v, out=b)
    np.multiply(va, 2.0, out=t1)
    np.einsum("k,kbj->j", w, np.add(t1, u, out=t1), out=cols[2])  # rabi_rf
    np.multiply(vb, od, out=t1)
    np.add(t1, np.multiply(va, gamma_d, out=t2), out=t1)
    np.einsum("k,kbj->j", w, t1, out=cols[4])  # gamma_b
    np.multiply(vb, ob, out=t1)
    np.add(t1, np.multiply(va, gamma_b, out=t2), out=t1)
    np.add(t1, np.multiply(u, gamma_d, out=t2), out=t1)
    np.einsum("k,kbj->j", w, t1, out=cols[5])  # gamma_d
    # ob = dD/domega_d (ob's last use is in it), then t1 = -dD/domega_b
    np.multiply(va, ob, out=t1)
    np.subtract(t1, np.multiply(vb, gamma_b, out=t2), out=t1)
    np.subtract(np.multiply(u, od, out=ob), t1, out=ob)
    np.multiply(va, od, out=t1)
    np.subtract(t1, np.multiply(vb, gamma_d, out=t2), out=t1)
    np.einsum("k,kbj->j", w, np.subtract(ob, t1, out=t2), out=cols[0])  # d moves both
    # E_x moves omega_b by s and omega_d by -s, s = 1 on the upper branch and
    # -1 on the mirror: dD/dE_x = -s (t1 + ob), summed against w and x w at once.
    np.add(t1, ob, out=t1)
    sums = _workspace.take("moments", (2, 2, cols.shape[1]))
    np.einsum("kc,kj->cj", moments, t1.reshape(len(t1), -1), out=sums.reshape(2, -1))
    np.subtract(sums[:, 1], sums[:, 0], out=cols[1::5])


def ensemble_spectrum(
    env: PhysicalEnvironment,
    drive: DriveConfig,
    grid: np.ndarray,
    gamma_b: float = DEFAULT_GAMMA_B,
    gamma_d: float = DEFAULT_GAMMA_D,
    contrast: float = DEFAULT_CONTRAST,
    strain: StrainDistribution | None = None,
) -> Spectrum:
    """Spectrum averaged over a Gaussian strain ensemble (``_strain_average``).

    A zero spread or a single node reduces exactly to the homogeneous
    spectrum at ``strain.mean_ex``; no ``strain`` means no spread at env.ex.
    A grid that ``Spectrum`` would refuse is refused before any evaluation.
    """
    require_dressed_mode(env)
    if strain is None:
        strain = StrainDistribution(mean_ex=env.ex)
    grid = np.asarray(grid, dtype=float)
    check_grid(grid)
    d = zero_field_splitting(env)
    sig = _strain_average(
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
    ``MultiLorentzian`` fit model both call it.  ``centers``, ``widths``
    and ``depths`` hold one entry per dip; the baseline and each entry are
    a float, a numpy float64 or a ``(rows,)`` array, all arrays of one
    length, and the result is ``(len(grid),)`` or ``(rows, len(grid))``,
    each row equal to its scalar call bit for bit.
    """
    shape = (len(baseline), len(grid)) if type(baseline) is np.ndarray else len(grid)
    sig = np.full(shape, _column(baseline), dtype=float)
    for c, w, a in zip(centers, widths, depths):
        half2 = _square(_column(w) / 2.0)
        sig = sig - _column(a) * half2 / ((grid - _column(c)) ** 2 + half2)
    return sig


def _column(p):
    """A ``(rows,)`` parameter before the grid's axis; a scalar as it is."""
    return p[:, None] if type(p) is np.ndarray else p


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
    if np.any(widths <= 0) or np.any(widths >= MAX_RABI):  # (w/2)^2 overflows from MAX_RABI on
        raise ValueError(f"widths must be > 0 and < {MAX_RABI:g}, got {widths.tolist()}")
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
    relative shot noise of N = rate*dwell*signal >= MIN_COUNTS detected
    counts.  Deterministic under a fixed seed; the metadata holds an
    integral seed as an int and any other seed as its repr.
    """
    if not (photon_rate > 0 and dwell > 0):
        raise ValueError("photon_rate and dwell must be > 0")
    if not np.all(clean.signal > 0):
        raise ValueError(f"clean signal must be > 0 for shot noise, got {clean.signal.min()}")
    if not (counts := photon_rate * dwell * clean.signal.min()) >= MIN_COUNTS:
        raise ValueError(f"expected counts per point must be >= {MIN_COUNTS:g}, got {counts:g}")
    rng = np.random.default_rng(seed)
    sigma = clean.signal / np.sqrt(photon_rate * dwell * clean.signal)
    noisy = clean.signal + rng.normal(0.0, 1.0, size=len(clean)) * sigma
    meta = dict(clean.metadata)
    meta.update(
        {
            "photon_rate": photon_rate,
            "dwell": dwell,
            "seed": int(seed) if isinstance(seed, (int, np.integer)) else repr(seed),
        }
    )
    return Spectrum(clean.frequencies.copy(), noisy, sigma, meta)
