"""Tests for the closed-form lineshape, spectra, strain averaging, and noise."""

import json
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvtherm import lineshape
from nvtherm.lineshape import (
    BLOCK_POINTS,
    CSV_HEADER,
    DEFAULT_QUADRATURE_NODES,
    MAX_QUADRATURE_NODES,
    MIN_COUNTS,
    Spectrum,
    StrainDistribution,
    conventional_spectrum,
    dressed_depletion,
    dressed_jacobian,
    dressed_signal,
    dressed_strain_signal,
    ensemble_spectrum,
    lorentzian_dips,
    lorentzian_spectrum,
    p0,
    synthesize_measurement,
)
from nvtherm.fitting import PEAK_REFINE, DressedDip, fit
from nvtherm.sensitivity import SLOPE_POINTS
from nvtherm.spin import (
    MAX_RABI,
    DriveConfig,
    PhysicalEnvironment,
    branch_detunings,
    dressed_resonances,
    zero_field_splitting,
)

ENV = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
DRIVE = DriveConfig(rabi_mw=0.5, omega_rf=16.0, rabi_rf=5.0)


def _fwhm_of_deepest_dip(grid, signal):
    """Half-depth full width of the deepest dip by linear interpolation."""
    depth = 1.0 - signal
    m = int(np.argmax(depth))
    half = 1.0 - depth[m] / 2.0
    left = right = None
    for i in range(m, 0, -1):
        if signal[i - 1] >= half:
            f = (half - signal[i]) / (signal[i - 1] - signal[i])
            left = grid[i] + f * (grid[i - 1] - grid[i])
            break
    for i in range(m, len(grid) - 1):
        if signal[i + 1] >= half:
            f = (half - signal[i]) / (signal[i + 1] - signal[i])
            right = grid[i] + f * (grid[i + 1] - grid[i])
            break
    assert left is not None and right is not None
    return right - left


def _dressed_rows(rng, rows):
    """Random dressed parameter rows (d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d)."""
    return [
        2870.0 + rng.normal(size=rows), rng.uniform(2.0, 12.0, rows), rng.uniform(0.5, 8.0, rows),
        rng.uniform(0.05, 1.0, rows), rng.uniform(0.2, 2.0, rows), rng.uniform(0.01, 0.5, rows),
    ]


# The forms in which the dressed kernel takes a parameter.
PARAMETER_FORMS = ("rows", "float", "float64")
# Grid lengths of one block, exactly BLOCK_POINTS and several blocks.
BLOCK_LENGTHS = (BLOCK_POINTS // 16, BLOCK_POINTS, 2 * BLOCK_POINTS + 1)


def _in_form(row, form):
    """A parameter row as ``form``: the (rows,) array, or row 0's value as a scalar."""
    if form == "rows":
        return row
    return row[0].item() if form == "float" else np.float64(row[0])


class TestMapDriveToModel:
    """How drive settings map onto the six two-mode parameters."""

    def _upper(self, omega_mw):
        d = zero_field_splitting(ENV)
        omega_b, omega_d = branch_detunings(d, ENV.ex, DRIVE.omega_rf, omega_mw)
        return omega_b[0, 0], omega_d[0, 0]

    def test_on_bright_resonance(self):
        omega_b, _ = self._upper(2878.0)
        assert omega_b == pytest.approx(0.0)

    def test_two_photon_resonance(self):
        _, omega_d = self._upper(2878.0)
        # omega_rf = 2*ex makes the dark mode resonant simultaneously.
        assert omega_d == pytest.approx(0.0)

    def test_half_factors(self):
        # J = rabi_rf/2 and lambda_b = rabi_mw/2 on each branch.
        grid = np.linspace(2860.0, 2880.0, 41)
        dep = dressed_depletion(2870.0, 8.0, 16.0, grid, 2.0, 0.2, 1.0, 0.1)
        (ob, mb), (od, md) = branch_detunings(2870.0, 8.0, 16.0, grid)
        ref = (1.0 - p0(ob, od, 1.0, 0.1, 1.0, 0.1)) + (1.0 - p0(mb, md, 1.0, 0.1, 1.0, 0.1))
        assert np.array_equal(dep, ref)

    def test_requires_transverse_mode(self):
        with pytest.raises(ValueError, match="transverse"):
            ensemble_spectrum(PhysicalEnvironment(b_parallel=150.0), DRIVE, np.array([2870.0]))


class TestP0:
    def test_no_drive_full_population(self):
        assert p0(0.0, 0.0, 1.0, 0.0, 1.0, 0.1) == 1.0

    def test_single_mode_on_resonance(self):
        assert p0(0.0, 5.0, 0.0, 0.1, 1.0, 0.1) == pytest.approx(0.99)

    def test_coupled_on_resonance_value(self):
        # Frozen from direct complex evaluation: the RF coupling protects
        # the population relative to plain broadening of the j=0 dip.
        assert p0(0.0, 0.0, 1.0, 0.1, 1.0, 0.01) == pytest.approx(
            0.9901960592098427, rel=1e-12
        )

    def test_sharp_dip_protection(self):
        no_rf = p0(0.0, 0.0, 0.0, 0.05, 1.0, 0.01)
        with_rf = p0(0.0, 0.0, 2.0, 0.05, 1.0, 0.01)
        assert with_rf > no_rf

    def test_quadratic_in_drive(self):
        weak = p0(0.3, -0.2, 1.0, 0.01, 1.0, 0.1)
        strong = p0(0.3, -0.2, 1.0, 0.02, 1.0, 0.1)
        assert (1.0 - strong) == pytest.approx(4.0 * (1.0 - weak))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 16),
        points=st.one_of(st.integers(1, 300), st.sampled_from(BLOCK_LENGTHS)),
        forms=st.lists(st.sampled_from(PARAMETER_FORMS), min_size=6, max_size=6),
    )
    def test_depletion_rows_are_p0_bit_for_bit(self, seed, rows, points, forms):
        # dressed_depletion evaluates p0 in its work arrays: each row is the
        # two branches' 1 - p0 at branch_detunings, added (test_half_factors).
        # Each parameter is a (rows,) array, or row 0's value as a Python
        # float or a numpy float64, which every row shares: the detunings go
        # into the work arrays' real parts, and p0 takes them as floats cast
        # to complex.  The grids go up to several blocks of BLOCK_POINTS.
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.uniform(2840.0, 2900.0, points))
        omega_rf = rng.uniform(4.0, 30.0)
        params = [_in_form(p, form) for p, form in zip(_dressed_rows(rng, rows), forms)]
        d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d = params
        dep = dressed_depletion(d, ex, omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d)
        assert dep.shape == ((rows,) if "rows" in forms else ()) + grid.shape
        lift = [p[:, None, None] if isinstance(p, np.ndarray) else p for p in params]
        ex_lift = ex[:, None] if isinstance(ex, np.ndarray) else ex
        ob, od = branch_detunings(lift[0], ex_lift, omega_rf, grid)
        pop = p0(ob, od, lift[2] / 2.0, lift[3] / 2.0, *lift[4:])
        assert dep.tobytes() == ((1.0 - pop[..., 0, :]) + (1.0 - pop[..., 1, :])).tobytes()

    def test_scalars_in_scalar_out(self):
        value = p0(0.3, -0.2, 1.0, 0.1, 1.0, 0.1)
        assert isinstance(value, np.float64)
        assert p0(np.full((3, 1), 0.3), np.full(4, -0.2), 1.0, 0.1, 1.0, 0.1).shape == (3, 4)


_SIGN = np.array([[1.0], [-1.0]])


def _three_pass_detunings(d, ex, omega_rf, omega_mw, out=(None, None)):
    """``branch_detunings`` as three passes: (d + s ex) - nu, (d - s ex) - nu, then + s omega_rf."""
    exb = np.asarray(ex)[..., None] * _SIGN
    omega_b = np.subtract(d + exb, omega_mw, out=out[0])
    omega_d = np.subtract(d - exb, omega_mw, out=out[1])
    return omega_b, np.add(omega_d, omega_rf * _SIGN, out=omega_d)


def _float_operand_depletion(d, ex, omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d):
    """``dressed_depletion``'s operations on lifted parameters, with float row constants.

    The three-pass detunings go into the real parts, ``0 - gamma`` is
    subtracted into the imaginary parts, and J^2, -lambda and lambda J enter
    their complex ufuncs as floats, which numpy casts to complex.
    """
    rates = (d, rabi_rf, rabi_mw, gamma_b, gamma_d)
    shape = np.broadcast_shapes(np.shape(ex) + (1,), *map(np.shape, rates), (2, len(grid)))
    zb, zd = np.empty(shape, complex), np.empty(shape, complex)
    _three_pass_detunings(d, ex, omega_rf, grid, out=(zb.real, zd.real))
    np.subtract(0.0, gamma_b, out=zb.imag)
    np.subtract(0.0, gamma_d, out=zd.imag)
    j, lambda_b = rabi_rf / 2.0, rabi_mw / 2.0
    det = np.multiply(zb, zd, out=zb)
    np.subtract(det, lineshape._square(j), out=det)
    amp_b = np.divide(np.multiply(-lambda_b, zd, out=zd), det, out=zd)
    amp_d = np.divide(lambda_b * j, det, out=det)
    dep = 1.0 - np.abs(amp_b) ** 2 - np.abs(amp_d) ** 2
    dep = np.subtract(1.0, dep, out=dep)
    return dep[..., 0, :] + dep[..., 1, :]


# Every float, with the edge values drawn often: signed zeros, infinities,
# NaN, 1e308 (whose sums overflow) and subnormals.
EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308, 5e-324, -2e-310]),
    st.floats(-3000.0, 3000.0),
    st.floats(),
)


def _floats(draw, n):
    return np.array(draw(st.lists(EDGE_FLOATS, min_size=n, max_size=n)))


def _nan_as_one(x):
    """``x``'s bytes with every NaN one NaN: which of two NaNs an addition returns is numpy's loop's choice."""
    return np.where(np.isnan(x), np.nan, x).tobytes()


class TestKernelBits:
    """The kernel's two-pass detunings and complex operands keep every bit of the older sequence."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), layout=st.sampled_from(["scalars", "rows", "nodes"]), strided=st.booleans())
    def test_branch_detunings_match_three_passes(self, data, layout, strided):
        # The three ways the kernel calls it: scalars over a grid, a (rows,)
        # stack lifted as dressed_depletion lifts it, and quadrature nodes at
        # zero frequency as _dressed_terms passes them.  The output is fresh
        # or the real parts of complex arrays, as dressed_depletion's is.
        # The three-pass form itself returns one NaN into a fresh array and
        # another into a complex array's real parts where two NaNs meet, so
        # NaNs are compared as NaNs and every other value by its bytes.
        draw = data.draw
        rows = draw(st.integers(1, 13))
        omega_rf = draw(EDGE_FLOATS)
        if layout == "scalars":
            d, ex = draw(st.sampled_from([float, np.float64]))(draw(EDGE_FLOATS)), draw(EDGE_FLOATS)
        elif layout == "rows":
            d, ex = _floats(draw, rows)[:, None, None], _floats(draw, rows)[:, None]
        else:
            d, ex = draw(EDGE_FLOATS), _floats(draw, rows)[:, None]
        omega_mw = 0.0 if layout == "nodes" else _floats(draw, draw(st.integers(1, 40)))
        with np.errstate(all="ignore"):
            ref = _three_pass_detunings(d, ex, omega_rf, omega_mw)
            if strided:
                new_out, old_out = (np.empty((2,) + ref[0].shape, complex) for _ in range(2))
                got = branch_detunings(d, ex, omega_rf, omega_mw, out=tuple(new_out.real))
                ref = _three_pass_detunings(d, ex, omega_rf, omega_mw, out=tuple(old_out.real))
            else:
                got = branch_detunings(d, ex, omega_rf, omega_mw)
        for new, old in zip(got, ref):
            assert new.shape == old.shape
            assert _nan_as_one(new) == _nan_as_one(old)

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        rows=st.integers(1, 13),
        forms=st.lists(st.sampled_from(PARAMETER_FORMS), min_size=6, max_size=6),
    )
    def test_dressed_depletion_matches_float_operands(self, data, rows, forms):
        # A scalar call (every form a float or a float64) or a (rows,) stack,
        # each parameter and the grid drawn from every float.
        draw = data.draw
        params = [_in_form(_floats(draw, rows), form) for form in forms]
        grid, omega_rf = _floats(draw, draw(st.integers(1, 40))), draw(EDGE_FLOATS)
        lifted = [p[:, None, None] if isinstance(p, np.ndarray) else p for p in params]
        lifted[1] = params[1][:, None] if isinstance(params[1], np.ndarray) else params[1]
        with np.errstate(all="ignore"):
            got = dressed_depletion(params[0], params[1], omega_rf, grid, *params[2:])
            ref = _float_operand_depletion(lifted[0], lifted[1], omega_rf, grid, *lifted[2:])
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


_WARM_FITS = """
import resource, sys
import numpy as np
import nvtherm.cli
from nvtherm import fitting, lineshape, sensitivity
from nvtherm.spin import DriveConfig, PhysicalEnvironment


def faults_per_warm_call(call, calls=3):
    for k in range(calls + 1):
        if k == 1:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call(k)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / calls


def faults_per_warm_fit(clean, model, rate):
    return faults_per_warm_call(
        lambda seed: fitting.fit(lineshape.synthesize_measurement(clean, rate, 1.0, seed), model)
    )


# strain_thermometry: sigma_ex fits of the fig2 geometry, one row in one block.
env = PhysicalEnvironment(d0=2885.5, ex=8.0, b_transverse=80.0)
drive = DriveConfig(rabi_mw=0.5, omega_rf=16.0, rabi_rf=5.0)
strain = lineshape.StrainDistribution(mean_ex=8.0, sigma_ex=2.0)
clean = lineshape.ensemble_spectrum(env, drive, np.linspace(2866.0, 2905.0, 781), 1.0, 0.1, 0.05, strain)
print(faults_per_warm_fit(clean, fitting.DressedDip(omega_rf=16.0, fit_sigma_ex=True), 1e8))
# drive_map: sigma_ex = 0 fits of the fig5 geometry, a Jacobian's rows in one block.
env = PhysicalEnvironment(d0=2870.0, ex=8.0, b_transverse=80.0)
drive = DriveConfig(rabi_mw=0.6, omega_rf=16.0, rabi_rf=6.0)
strain = lineshape.StrainDistribution(mean_ex=8.0, sigma_ex=0.3)
clean = lineshape.ensemble_spectrum(env, drive, np.linspace(2845.0, 2895.0, 501), 1.0, 1.0, 0.05, strain)
model = fitting.DressedDip(omega_rf=16.0)
print(faults_per_warm_fit(clean, model, 1e6))
# drive_map: the slope scan of a fitted fig5 curve on SLOPE_POINTS points.
params = fitting.fit(lineshape.synthesize_measurement(clean, 1e6, 1.0, 0), model).params
budget = sensitivity.NoiseBudget(photon_rate=1e6)
print(faults_per_warm_call(lambda _: sensitivity.slope_sensitivity(
    lambda g: model.evaluate(params, g), (2845.0, 2895.0), budget, linewidth=False), 10))
print(any(m.startswith("scipy") for m in sys.modules))
"""


def test_warm_strain_fits_take_no_page_faults(run_python):
    # glibc gives the free top of its heap back to the kernel once it exceeds
    # the trim threshold.  Importing scipy raises that threshold as a side
    # effect; a numpy-only process keeps the one its start-up left, which
    # varies with the environment (the faults of a shell-started process on a
    # 2-core Xeon, glibc 2.36, matched 512 KiB), so the test fixes it.  Setting
    # it also pins the mmap threshold at 128 KiB, so at either value an array
    # of that size or more would fault on every allocation.  The kernel's work
    # arrays stay in lineshape's workspace between blocks, so no block-sized
    # array is made and freed per block.  Per warm strain fit (2-core Xeon,
    # glibc 2.36, numpy 2.4): 113 faults at 128 KiB (glibc's default) and
    # none at 512 KiB, the blocks of its exact Jacobians in the workspace
    # too.  A warm fig5 fit takes about 2 at
    # 128 KiB and none at 512 KiB; with arrays made per block, 71,000 and
    # 1,900 (strain, fig5) at 128 KiB.  A warm slope scan maps only its grid
    # and the curve on it (160 KB each): 80 faults per call at 128 KiB, where
    # temporaries of the grid's size made it 280.
    pytest.importorskip("resource")
    for trim_threshold in (128 * 1024, 512 * 1024):
        out = run_python("-c", _WARM_FITS, env={"MALLOC_TRIM_THRESHOLD_": str(trim_threshold)})
        strain_faults, fig5_faults, slope_faults, scipy_loaded = out.split()
        assert scipy_loaded == "False"
        assert float(fig5_faults) < 5000
        assert float(strain_faults) < 5000
        assert float(slope_faults) < 120


class TestSpectrum:
    def test_zero_contrast_is_flat(self):
        grid = np.linspace(2860.0, 2880.0, 101)
        s = ensemble_spectrum(ENV, DRIVE, grid, contrast=0.0)
        np.testing.assert_array_equal(s.signal, np.ones_like(grid))

    def test_minima_at_dressed_resonances(self):
        grid = np.linspace(2855.0, 2885.0, 6001)
        s = ensemble_spectrum(ENV, DRIVE, grid, gamma_b=0.2, gamma_d=0.02)
        expected = dressed_resonances(2870.0, 8.0, 16.0, 5.0)
        depth = 1.0 - s.signal
        from scipy.signal import find_peaks

        idx, _ = find_peaks(depth, prominence=0.1 * depth.max())
        found = grid[idx]
        assert len(found) == 4
        np.testing.assert_allclose(np.sort(found), expected, atol=0.01)

    def test_upper_branch_has_two_dips(self):
        grid = np.linspace(2855.0, 2885.0, 6001)
        omega_b, omega_d = branch_detunings(2870.0, 8.0, 16.0, grid)
        depth = 1.0 - p0(omega_b[0], omega_d[0], 2.5, 0.25, 0.2, 0.02)
        from scipy.signal import find_peaks

        idx, _ = find_peaks(depth, prominence=0.1 * depth.max())
        assert len(idx) == 2

    def test_depletion_quadratic_in_mw_drive(self):
        grid = np.linspace(2860.0, 2880.0, 301)
        weak = ensemble_spectrum(ENV, DRIVE, grid)
        strong = ensemble_spectrum(
            ENV,
            DriveConfig(rabi_mw=1.0, omega_rf=16.0, rabi_rf=5.0),
            grid,
        )
        np.testing.assert_allclose(
            1.0 - strong.signal, 4.0 * (1.0 - weak.signal), rtol=1e-12
        )


class TestEnsembleSpectrum:
    def test_zero_spread_reduces_exactly(self):
        grid = np.linspace(2860.0, 2880.0, 301)
        plain = ensemble_spectrum(ENV, DRIVE, grid)
        ens = ensemble_spectrum(
            ENV, DRIVE, grid, strain=StrainDistribution(mean_ex=8.0, sigma_ex=0.0)
        )
        np.testing.assert_array_equal(plain.signal, ens.signal)

    def test_single_node_reduces_exactly(self):
        grid = np.linspace(2860.0, 2880.0, 301)
        plain = ensemble_spectrum(ENV, DRIVE, grid)
        ens = ensemble_spectrum(
            ENV, DRIVE, grid,
            strain=StrainDistribution(mean_ex=8.0, sigma_ex=0.5, nodes=1),
        )
        np.testing.assert_array_equal(plain.signal, ens.signal)

    def test_node_count_converged(self):
        grid = np.linspace(2860.0, 2880.0, 301)
        kw = dict(gamma_b=1.0, gamma_d=0.1)
        a = ensemble_spectrum(
            ENV, DRIVE, grid,
            strain=StrainDistribution(mean_ex=8.0, sigma_ex=0.5, nodes=21), **kw,
        )
        b = ensemble_spectrum(
            ENV, DRIVE, grid,
            strain=StrainDistribution(mean_ex=8.0, sigma_ex=0.5, nodes=41), **kw,
        )
        assert np.max(np.abs(a.signal - b.signal)) < 1e-6

    def test_width_grows_with_spread_when_undressed(self):
        # Without RF dressing the strain spread broadens the line directly.
        env = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
        drive = DriveConfig(rabi_mw=0.2, omega_rf=0.0, rabi_rf=0.0)
        grid = np.linspace(2870.0, 2886.0, 4001)
        widths = []
        for sig in (0.0, 0.5, 1.0):
            s = ensemble_spectrum(
                env, drive, grid, 0.3, 0.3, 0.05,
                strain=StrainDistribution(mean_ex=8.0, sigma_ex=sig, nodes=41),
            )
            widths.append(_fwhm_of_deepest_dip(grid, s.signal))
        assert widths[0] < widths[1] < widths[2]

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError, match="sigma_ex"):
            StrainDistribution(mean_ex=8.0, sigma_ex=-0.1)
        with pytest.raises(ValueError, match="nodes"):
            StrainDistribution(mean_ex=8.0, sigma_ex=0.1, nodes=4)

    def test_node_cap_is_the_largest_finite_quadrature(self):
        # Past the cap hermgauss weights sum to 0.0 (371 nodes) or overflow
        # (from 373), and spectra turn to 1 or NaN.
        for nodes in (DEFAULT_QUADRATURE_NODES, MAX_QUADRATURE_NODES):
            _, w = np.polynomial.hermite.hermgauss(nodes)
            assert abs(np.sum(w / np.sqrt(np.pi)) - 1.0) <= 1e-12
        StrainDistribution(mean_ex=8.0, sigma_ex=2.0, nodes=MAX_QUADRATURE_NODES)
        for nodes in (MAX_QUADRATURE_NODES + 2, 381):
            with pytest.raises(ValueError, match="nodes"):
                StrainDistribution(mean_ex=8.0, sigma_ex=2.0, nodes=nodes)


def _per_node_signal(
    d, ex, omega_rf, grid, rabi_rf, rabi_mw, gamma_b, gamma_d, contrast, sigma_ex, nodes
):
    """The strain-averaged signal from one ``p0`` call per node and branch.

    The same operations in the same order as ``_strain_average``'s node
    blocks, node by node: the reference it must equal bit for bit.
    """
    x, w = np.polynomial.hermite.hermgauss(nodes)
    rule = zip(x, w / np.sqrt(np.pi)) if sigma_ex != 0.0 else [(0.0, 1.0)]
    acc = 0.0
    for xi, wi in rule:
        ex_i = ex + np.sqrt(2.0) * sigma_ex * xi
        dep = 0.0
        for s in (1.0, -1.0):  # the upper branch, then its mirror
            omega_b = (d + s * ex_i) - grid
            omega_d = ((d - s * ex_i) - grid) + s * omega_rf
            dep = dep + (1.0 - p0(omega_b, omega_d, rabi_rf / 2.0, rabi_mw / 2.0, gamma_b, gamma_d))
        acc = acc + wi * (1.0 - contrast * dep)
    return acc


class TestBlockedSignal:
    """The generators' strain average (``_strain_average``) against one call per node."""

    @pytest.mark.parametrize("nodes", [1, 3, 21, 369])
    @pytest.mark.parametrize("sigma_ex", [0.0, 0.3, 2.0, 5.0])
    def test_bit_identical_to_per_node_loop(self, sigma_ex, nodes):
        rng = np.random.default_rng([nodes, int(10 * sigma_ex)])
        block = BLOCK_POINTS // (nodes if sigma_ex else 1)  # the longest grid in one call
        lengths = [1, 2, block - 1, block, block + 1, 781, 6249, 20001]
        if nodes == 21:  # node blocks of 21 x 1, 2 x 10 + 1, 10 + 10 + 1, 20 + 1, ...
            lengths += [BLOCK_POINTS // k + e for k in (1, 2, 10, 20) for e in (-1, 0, 1)]
        if nodes == 369:  # one node per block, over the whole grid or a slice of it
            lengths += [BLOCK_POINTS // 2 + 1, BLOCK_POINTS, BLOCK_POINTS + 1]
        for length in lengths:
            grid = np.sort(rng.uniform(2840.0, 2900.0, length))
            args = (
                2870.0 + rng.normal(), rng.uniform(2.0, 12.0), rng.uniform(0.0, 30.0), grid,
                rng.uniform(0.5, 8.0), rng.uniform(0.05, 1.0), rng.uniform(0.2, 2.0),
                rng.uniform(0.01, 0.5), rng.uniform(0.01, 0.3), sigma_ex, nodes,
            )
            assert np.array_equal(lineshape._strain_average(*args), _per_node_signal(*args))

    def test_one_point_takes_one_depletion_call(self, monkeypatch):
        real, calls = lineshape.dressed_depletion, []
        monkeypatch.setattr(
            lineshape, "dressed_depletion", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        grid = np.array([2878.0])
        lineshape._strain_average(2870.0, 8.0, 16.0, grid, 5.0, 0.5, 1.0, 0.1, 0.05, 2.0, 21)
        assert len(calls) == 1

    def test_a_wide_average_takes_a_few_blocks_of_memory(self):
        # 369 nodes x 20,001 points in one array would take 59 MB; the
        # average holds one node over a grid this long, plus the workspace.
        grid = np.linspace(2840.0, 2900.0, 20001)
        strain = StrainDistribution(mean_ex=8.0, sigma_ex=2.0, nodes=MAX_QUADRATURE_NODES)
        tracemalloc.start()
        try:
            spectrum = ensemble_spectrum(ENV, DRIVE, grid, strain=strain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(spectrum.signal)) and spectrum.signal.min() < 1.0
        assert peak < 4e6


class TestStackedRows:
    """A stack of parameter rows gives each row the bits of its own scalar call."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 16),
        points=st.sampled_from(
            [1, 2]
            + [BLOCK_POINTS // k + e for k in (16, 4, 2) for e in (-1, 0, 1)]
            + [BLOCK_POINTS, BLOCK_POINTS + 1, 2 * BLOCK_POINTS + 1]
        ),
        forms=st.lists(st.sampled_from(PARAMETER_FORMS), min_size=6, max_size=6),
    )
    def test_dressed_signal_rows(self, seed, rows, points, forms):
        # The grid lengths put one row on either side of each block edge: 16,
        # 4, 2 or 1 whole rows per block, or one row split over two or three
        # blocks.  A parameter is a (rows,) array or, shared by every row, a
        # Python float or a numpy float64 (``_in_form``).
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.uniform(2840.0, 2900.0, points))
        params = [_in_form(p, form) for p, form in zip(_dressed_rows(rng, rows), forms)]
        contrast = rng.uniform(0.01, 0.3)
        stacked = dressed_signal(params[0], params[1], 16.0, grid, *params[2:], contrast)
        if "rows" not in forms:
            stacked, rows = stacked[None], 1
        assert stacked.shape == (rows, points)
        for r in range(rows):
            # A float, or the np.float64 that DressedDip.evaluate passes for one vector.
            scalar = float if r % 2 else np.float64
            row = [scalar(p[r]) if isinstance(p, np.ndarray) else scalar(p) for p in params]
            single = dressed_signal(row[0], row[1], 16.0, grid, *row[2:], contrast)
            assert np.array_equal(stacked[r], single)

    def test_dressed_rows_beside_scalars(self):
        # A float broadcasts against the rows, as its repeated value would.
        rng = np.random.default_rng(3)
        grid = np.linspace(2850.0, 2890.0, 301)
        d = 2870.0 + rng.normal(size=5)
        # (1e300 / 2)^2 is inf with numpy's warning, as a row and alone.
        with np.errstate(over="ignore"):
            for rabi_rf in (5.0, np.float64(5.0), 1e300):
                mixed = dressed_signal(d, 8.0, 16.0, grid, rabi_rf, 0.5, 1.0, 0.1, 0.05)
                ex, *rest = (np.full(5, v) for v in (8.0, rabi_rf, 0.5, 1.0, 0.1))
                full = dressed_signal(d, ex, 16.0, grid, *rest, 0.05)
                assert np.array_equal(mixed, full)
                for r in range(5):
                    single = dressed_signal(d[r], 8.0, 16.0, grid, rabi_rf, 0.5, 1.0, 0.1, 0.05)
                    assert np.array_equal(mixed[r], single)

    def test_rows_share_depletion_calls(self, monkeypatch):
        # 12 rows of 501 points take 1 block of whole rows; the average of
        # 781 points x 21 nodes takes 3 blocks of at most 10 nodes over the
        # whole grid, each with the point's scalars.
        real, calls = lineshape.dressed_depletion, []
        monkeypatch.setattr(
            lineshape, "dressed_depletion", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        params = _dressed_rows(np.random.default_rng(4), 12)
        grid = np.linspace(2845.0, 2895.0, 501)
        dressed_signal(params[0], params[1], 16.0, grid, *params[2:], 0.05)
        assert len(calls) == 1
        calls.clear()
        lineshape._strain_average(
            *(float(p[0]) for p in params[:2]), 16.0, np.linspace(2866.0, 2905.0, 781),
            *(float(p[0]) for p in params[2:]), 0.05, 2.0, 21,
        )
        assert len(calls) == 3
        assert all(np.ndim(a[0]) == 0 for a in calls)  # d, the point's scalar
        assert all(len(a[3]) == 781 and len(a[1]) <= 10 for a in calls)  # grid, nodes

    @pytest.mark.parametrize("rows", [2, 3, 15])
    def test_each_row_equals_its_scalar_call(self, rows):
        # sigma_ex stacks of the fit's kernel on the fig2 grid, every other
        # row clipped to e^-300 so that it falls back to the p0 average.
        rng = np.random.default_rng(rows)
        *params, sigma_ex = _dressed_rows(rng, rows) + [rng.uniform(1.0, 3.0, rows)]
        for p in params[2:] + [sigma_ex]:
            p[::2] = np.exp(-300.0)
        params[0][::2] = 2885.5  # both fig2 detunings vanish at 2893.5 MHz
        params[1][::2] = 8.0
        grid = np.linspace(2866.0, 2905.0, 781)
        stacked = dressed_strain_signal(*params[:2], 16.0, grid, *params[2:], 0.05, sigma_ex)
        for r in range(rows):
            row = [float(p[r]) for p in params + [sigma_ex]]
            single = dressed_strain_signal(*row[:2], 16.0, grid, *row[2:6], 0.05, row[6])
            assert np.array_equal(stacked[r], single)
            if r % 2 == 0:
                fallback = lineshape._strain_average(*row[:2], 16.0, grid, *row[2:6], 0.05, row[6])
                assert np.array_equal(single, fallback)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 16))
    def test_dressed_depletion_rows(self, seed, rows):
        rng = np.random.default_rng(seed)
        grid = np.sort(rng.uniform(2840.0, 2900.0, 97))
        d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d = _dressed_rows(rng, rows)
        stacked = dressed_depletion(d, ex, 16.0, grid, rabi_rf, rabi_mw, gamma_b, gamma_d)
        assert stacked.shape == (rows, len(grid))
        for r in range(rows):
            single = dressed_depletion(
                d[r], ex[r], 16.0, grid, rabi_rf[r], rabi_mw[r], gamma_b[r], gamma_d[r]
            )
            assert np.array_equal(stacked[r], single)

    def test_p0_parameter_rows(self):
        # An array's x**2 is x*x rounded, which differs from the scalar's
        # pow(x, 2) in the last bit for some x; these j are such values.
        rng = np.random.default_rng(5)
        rows = 10000
        j = rng.uniform(0.01, 50.0, rows)
        assert np.any(j * j != np.array([v**2 for v in j.tolist()]))
        ob, od = rng.normal(size=(2, rows, 2))
        lam, gb, gd = rng.uniform(0.01, 2.0, (3, rows))
        stacked = p0(ob, od, *(p[:, None] for p in (j, lam, gb, gd)))
        for r in range(rows):
            single = p0(ob[r], od[r], *(p[r] for p in (j, lam, gb, gd)))
            assert np.array_equal(stacked[r], single)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 16),
        peaks=st.integers(0, 3),
        overflow=st.booleans(),
    )
    def test_lorentzian_dips_rows(self, seed, rows, peaks, overflow):
        rng = np.random.default_rng(seed)
        grid = np.linspace(2700.0, 3040.0, 721)
        baseline = rng.uniform(0.9, 1.1, rows)
        centers = rng.uniform(2700.0, 3040.0, (peaks, rows))
        widths, depths = rng.uniform(0.5, 20.0, (peaks, rows)), rng.uniform(0.01, 0.1, (peaks, rows))
        if overflow:  # (w/2)^2 is inf with numpy's warning, as a row and alone: a NaN dip
            widths[:, 0] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = lorentzian_dips(baseline, centers, widths, depths, grid)
            assert stacked.shape == (rows, len(grid))
            for r in range(rows):
                single = lorentzian_dips(baseline[r], centers[:, r], widths[:, r], depths[:, r], grid)
                assert np.array_equal(stacked[r], single, equal_nan=True)


# Grid points in one sigma_ex block: every node over at most 4 BLOCK_POINTS
# nodes x points; a longer grid takes slices of this length.
STRAIN_SLICE = 4 * BLOCK_POINTS // DEFAULT_QUADRATURE_NODES


class TestStrainSignal:
    """The sigma_ex fit's real-arithmetic signal against the generators' complex average."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 4),
        equal_rates=st.booleans(),
        points=st.sampled_from([1, 2, 97, 781, STRAIN_SLICE, STRAIN_SLICE + 1, BLOCK_POINTS + 1]),
    )
    def test_agrees_with_dressed_signal(self, seed, rows, equal_rates, points):
        # Up to STRAIN_SLICE points are one block of all 21 nodes; one more
        # takes two slices of the grid, and BLOCK_POINTS + 1 six.
        rng = np.random.default_rng(seed)
        self._check_rows(rng, rows, equal_rates, points, rng.uniform(0.0, 4.0, rows))

    @pytest.mark.parametrize(
        "points", [1, 781, STRAIN_SLICE, STRAIN_SLICE + 1, 2 * STRAIN_SLICE + 7]
    )
    @pytest.mark.parametrize("sigma_ex", [0.0, 2.0, 5.0])
    @pytest.mark.parametrize("equal_rates", [False, True])
    def test_seeded_points_agree_with_dressed_signal(self, points, sigma_ex, equal_rates):
        # Three stacked rows on one block and on two or three slices of the
        # grid, at no spread, the fig2 spread and a wide one.
        rng = np.random.default_rng([points, int(sigma_ex), equal_rates])
        self._check_rows(rng, 3, equal_rates, points, np.full(3, sigma_ex))

    @staticmethod
    def _check_rows(rng, rows, equal_rates, points, sigma_ex):
        """Each row of a stack equals its scalar call and ``_strain_average`` within 1e-12."""
        grid = np.sort(rng.uniform(2840.0, 2900.0, points))
        params = _dressed_rows(rng, rows)
        if equal_rates:
            params[5] = params[4]
        contrast = rng.uniform(0.01, 0.3)
        stacked = dressed_strain_signal(
            params[0], params[1], 16.0, grid, *params[2:], contrast, sigma_ex
        )
        assert stacked.shape == (rows, points)
        for r in range(rows):
            scalar = float if r % 2 else np.float64
            row = [scalar(p[r]) for p in params]
            single = dressed_strain_signal(
                row[0], row[1], 16.0, grid, *row[2:], contrast, scalar(sigma_ex[r])
            )
            assert np.array_equal(stacked[r], single)
            complex_signal = lineshape._strain_average(
                row[0], row[1], 16.0, grid, *row[2:], contrast, scalar(sigma_ex[r]),
                DEFAULT_QUADRATURE_NODES,
            )
            bound = 1e-12 * np.maximum(1.0, np.abs(complex_signal))
            assert np.all(np.abs(single - complex_signal) <= bound)

    @pytest.mark.parametrize("log_value", [-300.0, 300.0])
    @pytest.mark.parametrize(
        "points",
        [(2866.0, 2905.0, 781), (2845.0, 2895.0, 501), (2866.0, 2905.0, 2 * STRAIN_SLICE + 1)],
    )
    def test_clipped_parameters_stay_finite_and_silent(self, log_value, points):
        # fit clips each positive parameter to [e^-300, e^300].  At e^-300
        # |det|^2 underflows to zero at 2893.5 MHz, where both detunings
        # vanish (a point of every grid, in the second slice of the third);
        # at e^300 it overflows.  Such a row is the p0 average's.
        v = np.exp(log_value)
        args = (2885.5, 8.0, 16.0, np.linspace(*points), v, v, v, v, 0.05, v)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            signal = dressed_strain_signal(*args)
            assert np.all(np.isfinite(signal))
            average = lineshape._strain_average(*args, DEFAULT_QUADRATURE_NODES)
            assert np.array_equal(signal, average)


class TestWorkspace:
    """The kernel's reused work arrays never show through a returned array."""

    @staticmethod
    def _calls():
        rng = np.random.default_rng(6)
        params = _dressed_rows(rng, 12)
        slope_grid = np.linspace(2845.0, 2895.0, SLOPE_POINTS)
        strain_grid = np.linspace(2866.0, 2905.0, 781)
        strain = StrainDistribution(mean_ex=8.0, sigma_ex=2.0)
        return {
            "strain average": lambda: lineshape._strain_average(
                2885.5, 8.0, 16.0, strain_grid, 5.0, 0.5, 1.0, 0.1, 0.05, 2.0, 21
            ),
            "sigma_ex value": lambda: dressed_strain_signal(
                2885.5, 8.0, 16.0, strain_grid, 5.0, 0.5, 1.0, 0.1, 0.05, 2.0
            ),
            "sigma_ex jacobian": lambda: dressed_jacobian(
                2885.5, 8.0, 16.0, strain_grid, 5.0, 0.5, 1.0, 0.1, 0.05, 2.0
            ),
            "ensemble spectrum": lambda: ensemble_spectrum(
                ENV, DRIVE, strain_grid, strain=strain
            ).signal,
            "jacobian block": lambda: dressed_signal(
                params[0], params[1], 16.0, np.linspace(2845.0, 2895.0, 501), *params[2:], 0.05
            ),
            "slope curve": lambda: lineshape._strain_average(
                2870.0, 8.0, 16.0, slope_grid, 6.0, 0.6, 1.0, 1.0, 0.05, 0.3, 21
            ),
            "depletion": lambda: dressed_depletion(
                params[0], params[1], 16.0, np.linspace(2850.0, 2890.0, 97), *params[2:]
            ),
        }

    def test_interleaved_calls_alias_nothing(self):
        # Each result equals the same call made first, and no result changes
        # after a later call.
        calls = self._calls()
        first = {name: call() for name, call in calls.items()}
        results = [(name, value, value.copy()) for name, value in first.items()]
        names = [
            "depletion", "jacobian block", "ensemble spectrum", "sigma_ex jacobian", "sigma_ex value",
            "strain average", "slope curve",
        ]
        for name in names * 2:
            value = calls[name]()
            assert np.array_equal(value, first[name]), name
            results.append((name, value, value.copy()))
            for kept_name, kept, copy in results:
                assert np.array_equal(kept, copy), (kept_name, "changed after", name)

    def test_each_thread_has_its_own_work_arrays(self):
        calls = self._calls()
        expected = {name: call() for name, call in calls.items()}
        mismatches, finished = [], []

        def work(names):
            for name in names * 5:
                if not np.array_equal(calls[name](), expected[name]):
                    mismatches.append(name)
            finished.append(names)

        threads = [
            threading.Thread(target=work, args=(names,))
            for names in (
                ["jacobian block", "depletion"], ["strain average", "ensemble spectrum"],
                ["slope curve", "sigma_ex jacobian", "sigma_ex value"],
            ) * 2
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(finished) == len(threads) and mismatches == []

    def test_calls_past_a_block_take_new_arrays(self):
        # A direct call larger than any block leaves the buffers at their size.
        def depletion(points):
            grid = np.linspace(2860.0, 2880.0, points)
            return dressed_depletion(2870.0, 8.0, 16.0, grid, 5.0, 0.5, 1.0, 0.1)

        depletion(2)
        large = depletion(2 * BLOCK_POINTS)  # two branches of 2 BLOCK_POINTS points
        buffers = lineshape._workspace.buffers
        assert {"zb", "zd", "lost_b", "lost_d"} <= buffers.keys()
        assert all(b.size == 2 * BLOCK_POINTS for b in buffers.values())
        assert not any(np.shares_memory(large, b) for b in buffers.values())


class TestKeptTerms:
    """A Jacobian at the point of the last sigma_ex value reuses its terms, bit for bit."""

    GRID = np.linspace(2866.0, 2905.0, 781)  # the fig2 grid: all 21 nodes in one block

    @pytest.fixture
    def terms_calls(self, monkeypatch):
        """A list that grows by one per ``_dressed_terms`` call (a block computed, not reused)."""
        calls = []
        terms = lineshape._dressed_terms
        monkeypatch.setattr(
            lineshape, "_dressed_terms", lambda *args, **kw: calls.append(1) or terms(*args, **kw)
        )
        return calls

    @staticmethod
    def _point(seed):
        """Arguments of one sigma_ex point, as ``DressedDip`` passes them to both calls."""
        rng = np.random.default_rng(seed)
        d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d = (float(p[0]) for p in _dressed_rows(rng, 1))
        if seed % 3 == 0:
            gamma_d = gamma_b
        sigma_ex = 0.0 if seed % 7 == 0 else rng.uniform(0.1, 4.0)
        return d, ex, 16.0, TestKeptTerms.GRID, rabi_rf, rabi_mw, gamma_b, gamma_d, 0.05, sigma_ex

    def _cold(self, args, terms_calls):
        before = len(terms_calls)
        with np.errstate(all="ignore"):
            jac = dressed_jacobian(*args)
        assert len(terms_calls) > before, "the Jacobian reused kept terms"
        return jac

    def test_jacobian_after_a_value_equals_a_cold_one(self, terms_calls):
        for seed in range(36):
            args = self._point(seed)
            cold = self._cold(args, terms_calls)
            value_args = [np.float64(p) if isinstance(p, float) else p for p in args]
            dressed_strain_signal(*value_args)
            before = len(terms_calls)
            warm = dressed_jacobian(*args)
            assert len(terms_calls) == before, seed
            assert np.array_equal(warm, cold), seed

    @staticmethod
    def _replace(args, **changes):
        names = ("d", "ex", "omega_rf", "grid", "rabi_rf", "rabi_mw", "gamma_b", "gamma_d",
                 "contrast", "sigma_ex")
        return tuple(changes.get(n, a) for n, a in zip(names, args))

    @pytest.mark.parametrize(
        "case",
        [
            "another point", "another grid of equal length", "another omega_rf",
            "a fallback row", "a multi-row stack", "a consuming hit", "a point above the cap",
            "a sliced point",
        ],
    )
    def test_a_jacobian_after_these_is_cold(self, case, terms_calls):
        # Each case makes its value calls, then takes the Jacobian at ``point``.
        point = self._point(1)
        clipped = np.exp(-300.0)  # |det|^2 underflows at 2893.5 MHz: the p0 average's row
        if case == "a fallback row":
            point = (2885.5, 8.0, 16.0, self.GRID, *[clipped] * 4, 0.05, clipped)
        if case == "a sliced point":  # its value keeps only its last slice's terms
            point = self._replace(point, grid=np.linspace(2866.0, 2905.0, STRAIN_SLICE + 1))
        values = {
            "another point": [self._replace(point, d=point[0] + 1e-9)],
            "another grid of equal length": [self._replace(point, grid=self.GRID + 0.5)],
            "another omega_rf": [self._replace(point, omega_rf=16.5)],
            "a fallback row": [point],
            "a multi-row stack": [
                tuple(
                    np.array([a, a + 0.25]) if isinstance(a, float) and i not in (2, 8) else a
                    for i, a in enumerate(point)
                )
            ],
            "a consuming hit": [point],
            "a point above the cap": [
                point, self._replace(point, grid=np.linspace(2866.0, 2905.0, PEAK_REFINE * 781 + 1))
            ],
            "a sliced point": [point],
        }[case]
        cold = self._cold(point, terms_calls)
        for args in values:
            dressed_strain_signal(*args)
        if case == "a consuming hit":
            dressed_jacobian(*point)
        assert np.array_equal(self._cold(point, terms_calls), cold, equal_nan=True)

    def test_a_point_above_the_cap_takes_slices_of_it(self):
        # 21 nodes x 6,249 points (a fitted curve's FWHM search) exceed
        # 4 BLOCK_POINTS: the store holds one slice's eight arrays and no point.
        sizes = []

        def work():
            kept = lineshape._workspace
            args = self._replace(self._point(2), grid=np.linspace(2866.0, 2905.0, 6249))
            dressed_strain_signal(*args)
            sizes.append((kept.strain.size, kept.point))
            dressed_strain_signal(*self._point(2))
            sizes.append((kept.strain.size, kept.point is not None))

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        block = 8 * DEFAULT_QUADRATURE_NODES * 2 * STRAIN_SLICE
        assert sizes == [(block, None), (block, True)]

    def test_interleaving_threads_get_cold_results(self):
        points = [self._point(seed) for seed in (3, 4, 5, 6)]
        cold = [dressed_jacobian(*p) for p in points]
        mismatches, finished = [], []

        def work(mine, theirs):
            for _ in range(4):
                for i in (mine, theirs, mine):
                    dressed_strain_signal(*points[mine])
                    if not np.array_equal(dressed_jacobian(*points[i]), cold[i]):
                        mismatches.append((mine, i))
            finished.append(mine)

        threads = [threading.Thread(target=work, args=(i, (i + 1) % 4)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(finished) == len(threads) and mismatches == []

    def test_every_jacobian_of_a_fit_reuses_its_value_terms(self, terms_calls, monkeypatch):
        # A fit takes each Jacobian, the covariance's included, where it has
        # just taken the value: only value rows compute terms, one block each.
        rows = []
        strain_row = lineshape._strain_row
        monkeypatch.setattr(
            lineshape, "_strain_row", lambda *args: rows.append(1) or strain_row(*args)
        )
        clean = ensemble_spectrum(
            ENV, DRIVE, self.GRID, strain=StrainDistribution(mean_ex=8.0, sigma_ex=2.0)
        )
        noisy = synthesize_measurement(clean, 1e8, 0.01, 5)
        result = fit(noisy, DressedDip(omega_rf=16.0, fit_sigma_ex=True))
        assert result.covariance.shape == (7, 7)
        assert result.iterations > 3 and len(terms_calls) == len(rows)


class TestRowThreads:
    """A sigma_ex stack's rows run on the calling thread and share nothing between callers.

    The stacks are the fit kernel's; every other row is clipped to e^-300,
    so that it falls back to the generators' p0 average.
    """

    GRID = np.linspace(2866.0, 2905.0, 781)

    @staticmethod
    def _stack(rows):
        """Parameter rows (d, ex, rabi_rf, rabi_mw, gamma_b, gamma_d, sigma_ex)."""
        rng = np.random.default_rng(rows)
        params = _dressed_rows(rng, rows) + [rng.uniform(1.0, 3.0, rows)]
        params[0][::2], params[1][::2] = 2885.5, 8.0  # both detunings vanish at 2893.5 MHz
        for p in params[2:]:
            p[::2] = np.exp(-300.0)
        return params

    def _signal(self, params):
        *rows, sigma_ex = params
        return dressed_strain_signal(rows[0], rows[1], 16.0, self.GRID, *rows[2:], 0.05, sigma_ex)

    def test_no_thread_outlives_a_call(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a sigma_ex stack started a thread")

        before = threading.active_count()
        monkeypatch.setattr(lineshape.threading, "Thread", no_thread)
        self._signal(self._stack(14))
        assert threading.active_count() == before

    def test_concurrent_callers_get_a_lone_calls_bits(self):
        # 4 callers with a short switch interval: a caller that wrote into
        # another caller's work arrays or rows would change bits.
        params = self._stack(14)
        lone = self._signal(params)
        results = [None] * 4

        def call(i):
            results[i] = self._signal(params)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(4)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for signal in results:
            assert np.array_equal(signal, lone)


class TestLorentzianSpectrum:
    def test_no_peaks_flat(self):
        grid = np.linspace(0.0, 10.0, 11)
        s = lorentzian_spectrum([], [], [], grid)
        np.testing.assert_array_equal(s.signal, np.ones_like(grid))

    def test_depth_at_center(self):
        s = lorentzian_spectrum([5.0], [2.0], [0.05], np.array([4.0, 5.0, 6.0]))
        assert s.signal[1] == pytest.approx(0.95)

    def test_half_depth_at_half_width(self):
        s = lorentzian_spectrum([5.0], [2.0], [0.05], np.array([4.0, 5.0, 6.0]))
        assert s.signal[0] == pytest.approx(1.0 - 0.025)
        assert s.signal[2] == pytest.approx(1.0 - 0.025)

    def test_rejects_bad_inputs(self):
        grid = np.linspace(0.0, 10.0, 11)
        with pytest.raises(ValueError, match="equal length"):
            lorentzian_spectrum([1.0], [1.0, 2.0], [0.1], grid)
        with pytest.raises(ValueError, match="widths"):
            lorentzian_spectrum([1.0], [0.0], [0.1], grid)
        # (w/2)^2 overflows from the Rabi bound on: refused, not a NaN spectrum.
        message = r"^widths must be > 0 and < 2.68156e\+154, got \[1e\+200, 2.0\]$"
        with pytest.raises(ValueError, match=message):
            lorentzian_spectrum([1.0, 5.0], [1e200, 2.0], [0.1, 0.1], grid)
        largest = np.nextafter(MAX_RABI, 0.0)
        assert np.all(np.isfinite(lorentzian_spectrum([1.0], [largest], [0.1], grid).signal))


class TestConventionalSpectrum:
    def test_two_dips_at_parallel_splitting(self):
        env = PhysicalEnvironment(b_parallel=150.0)
        grid = np.linspace(2690.0, 3050.0, 3601)
        s = conventional_spectrum(env, grid, fwhm=7.92, contrast=0.05)
        depth = 1.0 - s.signal
        from scipy.signal import find_peaks

        idx, _ = find_peaks(depth, prominence=0.02)
        np.testing.assert_allclose(grid[idx], [2720.0, 3020.0], atol=0.1)

    def test_single_dip_without_field(self):
        env = PhysicalEnvironment()
        grid = np.linspace(2850.0, 2890.0, 401)
        s = conventional_spectrum(env, grid, fwhm=8.0)
        assert grid[np.argmin(s.signal)] == pytest.approx(2870.0, abs=0.1)


class TestSynthesizeMeasurement:
    def _clean(self, n=10000):
        grid = np.linspace(2800.0, 2900.0, n)
        return Spectrum(grid, np.full(n, 0.98), np.zeros(n))

    def test_deterministic_under_seed(self):
        clean = self._clean(500)
        a = synthesize_measurement(clean, 1e6, 1.0, seed=42)
        b = synthesize_measurement(clean, 1e6, 1.0, seed=42)
        np.testing.assert_array_equal(a.signal, b.signal)

    @pytest.mark.parametrize("seed", [5, np.int64(5), np.uint8(5)])
    def test_an_integral_seed_is_written_as_an_int(self, seed):
        # A numpy integer draws what the int draws, and the metadata (and so
        # the strict JSON of a spectrum) names it as that int.
        clean = self._clean(50)
        noisy = synthesize_measurement(clean, 1e6, 1.0, seed)
        assert type(noisy.metadata["seed"]) is int and noisy.metadata["seed"] == 5
        assert json.loads(noisy.to_json())["metadata"]["seed"] == 5
        same = synthesize_measurement(clean, 1e6, 1.0, 5)
        np.testing.assert_array_equal(noisy.signal, same.signal)

    def test_other_seeds_are_written_as_their_repr(self):
        clean = self._clean(50)
        assert synthesize_measurement(clean, 1e6, 1.0, [7, 1]).metadata["seed"] == "[7, 1]"

    def test_different_seeds_differ(self):
        clean = self._clean(500)
        a = synthesize_measurement(clean, 1e6, 1.0, seed=1)
        b = synthesize_measurement(clean, 1e6, 1.0, seed=2)
        assert np.any(a.signal != b.signal)

    def test_noise_scale_matches_counts(self):
        clean = self._clean(10000)
        noisy = synthesize_measurement(clean, 1e6, 1.0, seed=3)
        resid = noisy.signal - clean.signal
        # ~1e-3 relative at 1e6 counts/point.
        assert np.std(resid) == pytest.approx(1e-3, rel=0.1)
        np.testing.assert_allclose(noisy.sigma, 0.98 / np.sqrt(1e6 * 0.98))

    def test_converges_to_clean_at_high_rate(self):
        clean = self._clean(200)
        noisy = synthesize_measurement(clean, 1e18, 1.0, seed=4)
        np.testing.assert_allclose(noisy.signal, clean.signal, atol=1e-6)

    def test_rejects_nonpositive_rate_or_dwell(self):
        clean = self._clean(20)
        with pytest.raises(ValueError):
            synthesize_measurement(clean, 0.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            synthesize_measurement(clean, 1e6, 0.0, seed=0)

    def test_rejects_fewer_than_min_counts(self):
        # At N expected counts a Gaussian sample is <= 0 with probability
        # Phi(-sqrt(N)); 1e-300 photons per second gave a signal of -3.5e150.
        clean = Spectrum(np.linspace(2800.0, 2900.0, 20), np.full(20, 0.5), np.zeros(20))
        rate = 2.0 * MIN_COUNTS
        assert np.isfinite(synthesize_measurement(clean, rate, 1.0, seed=0).signal).all()
        for low in (np.nextafter(rate, 0.0), 1e-300):
            with pytest.raises(ValueError, match="expected counts per point must be >= 25"):
                synthesize_measurement(clean, low, 1.0, seed=0)

    def test_rejects_nonpositive_clean_signal(self):
        # Linear response does not saturate: a strong drive and a large
        # contrast push the clean signal below zero, where shot noise is NaN.
        drive = DriveConfig(rabi_mw=5.0, omega_rf=16.0, rabi_rf=5.0)
        grid = np.linspace(2866.0, 2905.0, 781)
        clean = ensemble_spectrum(ENV, drive, grid, 1.0, 0.1, 0.9)
        with pytest.raises(ValueError, match="clean signal must be > 0"):
            synthesize_measurement(clean, 1e6, 1.0, seed=0)


class TestSpectrumContainer:
    def _sample(self):
        rng = np.random.default_rng(7)
        grid = np.sort(rng.uniform(2800.0, 2900.0, 50))
        signal = 1.0 - 0.05 * rng.random(50)
        sigma = 1e-3 * rng.random(50)
        return Spectrum(grid, signal, sigma, {"note": "sample"})

    def test_csv_round_trip_bit_exact(self):
        s = self._sample()
        back = Spectrum.from_csv(s.to_csv())
        np.testing.assert_array_equal(s.frequencies, back.frequencies)
        np.testing.assert_array_equal(s.signal, back.signal)
        np.testing.assert_array_equal(s.sigma, back.sigma)

    def test_json_round_trip(self):
        s = self._sample()
        doc = json.loads(s.to_json())
        np.testing.assert_array_equal(s.signal, doc["signal"])
        assert doc["metadata"] == s.metadata

    def test_csv_header_enforced(self):
        with pytest.raises(ValueError, match="header"):
            Spectrum.from_csv("a,b,c\n1,2,3\n")
        assert CSV_HEADER == "frequency_mhz,signal,sigma"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("", "line 1: header has no data rows"),
            ("\n\n", "line 1: header has no data rows"),
            ("2870,nan,0.001\n", "line 2: non-finite"),
            ("2870,1.0,0.001\n2871,1.0,inf\n", "line 3: non-finite"),
            ("2870,1.0\n", "line 2: expected 3 values, got 2"),
            ("2870,one,0.001\n", "line 2: not a number"),
        ],
    )
    def test_csv_bad_body_names_line(self, body, message):
        with pytest.raises(ValueError, match=message):
            Spectrum.from_csv(CSV_HEADER + "\n" + body)

    def test_json_writes_non_finite_as_null(self):
        s = self._sample()
        s.signal[3] = np.nan
        s.sigma[4] = np.inf
        text = s.to_json()
        doc = json.loads(text, parse_constant=pytest.fail)
        assert doc["signal"][3] is None
        assert doc["sigma"][4] is None
        assert doc["signal"][2] == s.signal[2]

    @pytest.mark.parametrize("name", ["frequencies", "signal", "sigma"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_at_construction(self, name, bad):
        arrays = {"frequencies": [1.0, 2.0, 3.0], "signal": [1.0, 1.0, 1.0], "sigma": [0.0, 0.0, 0.0]}
        arrays[name][2] = bad
        with pytest.raises(ValueError, match=rf"{name} must be finite, got {bad} at index 2"):
            Spectrum(**arrays)

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            Spectrum([2.0, 1.0], [1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="equal length"):
            Spectrum([1.0, 2.0], [1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="sigma"):
            Spectrum([1.0, 2.0], [1.0, 1.0], [0.0, -1.0])
