"""Tests for the fitting module: guesses, optimizer behavior, extraction."""

import hashlib
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.signal import find_peaks as scipy_find_peaks
from scipy.signal import peak_widths as scipy_peak_widths

from nvtherm import fitting
from nvtherm.fitting import (
    DressedDip,
    FitError,
    MultiLorentzian,
    Peaks,
    _numeric_jacobian,
    find_peaks,
    fit,
    half_depth_widths,
    initial_guess,
    multistart_fit,
    noise_floor,
    peak_properties,
)
from nvtherm.lineshape import (
    Spectrum,
    StrainDistribution,
    conventional_spectrum,
    ensemble_spectrum,
    lorentzian_spectrum,
    synthesize_measurement,
)
from nvtherm.spin import ConfigError, DriveConfig, PhysicalEnvironment

ENV = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
DRIVE = DriveConfig(rabi_mw=0.8, omega_rf=8.0, rabi_rf=6.0)
GRID = np.linspace(2850.0, 2890.0, 801)


def _dressed_clean(contrast=0.1, gamma_b=1.0, gamma_d=0.3):
    return ensemble_spectrum(ENV, DRIVE, GRID, gamma_b, gamma_d, contrast)


def _lorentz_clean():
    grid = np.linspace(2840.0, 2900.0, 601)
    return lorentzian_spectrum([2870.0], [5.0], [0.05], grid)


class TestInitialGuess:
    def test_single_lorentzian_within_20_percent(self):
        guess = initial_guess(_lorentz_clean(), MultiLorentzian(1))
        truth = np.array([1.0, 2870.0, 5.0, 0.05])
        np.testing.assert_allclose(guess, truth, rtol=0.2)

    def test_flat_spectrum_rejected(self):
        grid = np.linspace(2800.0, 2900.0, 200)
        flat = Spectrum(grid, np.ones(200), np.zeros(200))
        with pytest.raises(FitError, match="flat"):
            initial_guess(flat, MultiLorentzian(1))

    def test_too_few_points_rejected(self):
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(FitError, match="at least 10"):
            initial_guess(Spectrum(grid, np.ones(5), np.zeros(5)), MultiLorentzian(1))

    def test_missing_peaks_named(self):
        with pytest.raises(FitError, match="need 3"):
            initial_guess(_lorentz_clean(), MultiLorentzian(3))

    def test_dips_detected_once_per_guess(self, monkeypatch):
        # A two-dip spectrum: the dressed guess falls back from four dips to
        # two without detecting again.
        calls = []
        find_peaks = fitting.find_peaks

        def counting_find_peaks(*args, **kwargs):
            calls.append(1)
            return find_peaks(*args, **kwargs)

        monkeypatch.setattr(fitting, "find_peaks", counting_find_peaks)
        two = lorentzian_spectrum([2860.0, 2880.0], [4.0, 4.0], [0.05, 0.05], GRID)
        guess = initial_guess(two, DressedDip(omega_rf=8.0))
        assert len(calls) == 1
        assert guess[0] == pytest.approx(2870.0, abs=0.1)

    def test_four_dip_dressed_centroid(self):
        guess = initial_guess(_dressed_clean(), DressedDip(omega_rf=8.0))
        names = DressedDip(omega_rf=8.0).param_names
        d = guess[names.index("d")]
        assert d == pytest.approx(2870.0, abs=2.0)


class TestFit:
    def test_noiseless_lorentzian_round_trip(self):
        res = fit(_lorentz_clean(), MultiLorentzian(1))
        assert res.converged
        truth = {"baseline": 1.0, "center_1": 2870.0, "width_1": 5.0, "depth_1": 0.05}
        for name, value in truth.items():
            assert res.param(name) == pytest.approx(value, rel=1e-6)

    def test_noiseless_dressed_round_trip(self):
        clean = _dressed_clean()
        model = DressedDip(omega_rf=8.0, fixed_contrast=0.1)
        res = fit(clean, model)
        assert res.converged
        truth = {
            "d": 2870.0,
            "ex": 8.0,
            "rabi_rf": 6.0,
            "rabi_mw": 0.8,
            "gamma_b": 1.0,
            "gamma_d": 0.3,
        }
        for name, value in truth.items():
            assert res.param(name) == pytest.approx(value, rel=1e-4)
        # The contrast is an attribute of the model, not a parameter.
        assert "contrast" not in res.param_names

    def test_idempotent_refit(self):
        res = fit(_lorentz_clean(), MultiLorentzian(1))
        again = fit(_lorentz_clean(), MultiLorentzian(1), guess=res.params)
        assert again.cost <= res.cost + 1e-12 * max(res.cost, 1.0)

    def test_weight_scale_invariance(self):
        noisy = synthesize_measurement(_lorentz_clean(), 1e6, 1.0, seed=11)
        res1 = fit(noisy, MultiLorentzian(1))
        scaled = Spectrum(
            noisy.frequencies, noisy.signal, 10.0 * noisy.sigma, noisy.metadata
        )
        res2 = fit(scaled, MultiLorentzian(1))
        np.testing.assert_allclose(res1.params, res2.params, rtol=1e-6)
        np.testing.assert_allclose(
            res2.covariance, 100.0 * res1.covariance, rtol=1e-4
        )

    def test_wrong_peak_count_probe(self):
        grid = np.linspace(2840.0, 2900.0, 601)
        two = lorentzian_spectrum(
            [2860.0, 2880.0], [4.0, 4.0], [0.05, 0.05], grid
        )
        noisy = synthesize_measurement(two, 1e6, 1.0, seed=5)
        res = fit(noisy, MultiLorentzian(1))
        noise_floor = float(np.mean(noisy.sigma))
        assert (not res.converged) or res.residual_rms > 5.0 * noise_floor

    def test_bad_guess_rejected(self):
        with pytest.raises(FitError, match="entries"):
            fit(_lorentz_clean(), MultiLorentzian(1), guess=np.ones(3))
        with pytest.raises(FitError, match="> 0"):
            fit(
                _lorentz_clean(),
                MultiLorentzian(1),
                guess=np.array([1.0, 2870.0, -5.0, 0.05]),
            )
        with pytest.raises(FitError, match="grid span"):
            fit(
                _lorentz_clean(),
                MultiLorentzian(1),
                guess=np.array([1.0, 2000.0, 5.0, 0.05]),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_guess_rejected_by_name(self, bad):
        # A nan width ran one iteration and ended at the damping bound; an
        # infinite one also warned in the numerical Jacobian.
        grid = np.linspace(2840.0, 2900.0, 601)
        spec = lorentzian_spectrum([2860.0, 2880.0], [4.0, 4.0], [0.05, 0.05], grid)
        guess = np.array([1.0, 2860.0, bad, 0.05, 2880.0, 4.0, 0.05])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FitError, match=r"^parameters must start finite: width_1$"):
                fit(spec, MultiLorentzian(2), guess=guess)

    def test_covariance_symmetric_psd(self):
        noisy = synthesize_measurement(_lorentz_clean(), 1e6, 1.0, seed=9)
        res = fit(noisy, MultiLorentzian(1))
        cov = res.covariance
        np.testing.assert_allclose(cov, cov.T, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-12

    def test_an_overflowing_trial_step_is_rejected_quietly(self, monkeypatch):
        # Sigmas of 1e-25 weigh the residuals by 1e25.  From a depth of 1e-4
        # the first trial step takes the depth to its e^300 clip, where the
        # weighted cost overflows.  The step is rejected without a
        # RuntimeWarning, and the fit goes on to the line.
        grid = np.linspace(2840.0, 2900.0, 601)
        clean = lorentzian_spectrum([2870.0], [5.0], [0.05], grid)
        spec = Spectrum(grid, clean.signal, np.full(len(grid), 1e-25))
        evaluate, largest = MultiLorentzian.evaluate, []

        def recording(self, params, g):
            out = evaluate(self, params, g)
            largest.append(float(np.abs(out).max()))
            return out

        monkeypatch.setattr(MultiLorentzian, "evaluate", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = fit(spec, MultiLorentzian(1), guess=np.array([1.0, 2870.5, 5.5, 1e-4]))
        assert max(largest) > 1e100  # the trial step at the clip
        assert res.converged
        np.testing.assert_allclose(res.params, [1.0, 2870.0, 5.0, 0.05], rtol=1e-9)

    @pytest.mark.parametrize("sigma", [1e-20, 1e-40, 1e-60])
    @pytest.mark.parametrize("depth", [1e-6, 1e-9])
    def test_an_overflowing_trial_model_is_rejected_quietly(self, sigma, depth):
        # From these depths a trial step takes the width far out, where the
        # model's own products overflow.  The step is rejected without a
        # RuntimeWarning.  Where the fit ends is not pinned here.
        grid = np.linspace(2840.0, 2900.0, 601)
        clean = lorentzian_spectrum([2870.0], [5.0], [0.05], grid)
        spec = Spectrum(grid, clean.signal, np.full(len(grid), sigma))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit(spec, MultiLorentzian(1), guess=np.array([1.0, 2870.5, 5.5, depth]))

    @pytest.mark.xfail(
        strict=True,
        reason="converges at the e^300 clip far off the grid; ROADMAP item 2(b)'s active set",
    )
    @pytest.mark.parametrize("sigma", [1e-20, 1e-40, 1e-60])
    @pytest.mark.parametrize("depth", [1e-6, 1e-9])
    def test_a_converged_center_stays_on_the_grid(self, sigma, depth):
        # Today each of these fits reports convergence with center_1 at
        # about -4.19e9 MHz (depth 1e-6) or 3958 MHz (depth 1e-9).
        grid = np.linspace(2840.0, 2900.0, 601)
        clean = lorentzian_spectrum([2870.0], [5.0], [0.05], grid)
        spec = Spectrum(grid, clean.signal, np.full(len(grid), sigma))
        res = fit(spec, MultiLorentzian(1), guess=np.array([1.0, 2870.5, 5.5, depth]))
        assert not res.converged or grid[0] <= res.param("center_1") <= grid[-1]

    def test_noisy_dressed_recovers_rabi_rf(self):
        clean = _dressed_clean()
        model = DressedDip(omega_rf=8.0, fixed_contrast=0.1)
        for seed in range(5):
            noisy = synthesize_measurement(clean, 1e6, 1.0, seed=100 + seed)
            res = fit(noisy, model)
            assert res.converged
            pull = abs(res.param("rabi_rf") - 6.0) / res.uncertainty("rabi_rf")
            assert pull < 3.0


class TestDressedDipModel:
    def test_strain_model_equals_ensemble_generator(self):
        # The sigma_ex model takes the real-arithmetic value of its exact
        # Jacobian and the generator stays on p0's complex arithmetic, so the
        # fig2 geometry with a 2 MHz spread agrees to rounding, not bit for bit.
        env = PhysicalEnvironment(d0=2885.5, ex=8.0, b_transverse=80.0)
        drive = DriveConfig(rabi_mw=0.5, omega_rf=16.0, rabi_rf=5.0)
        grid = np.linspace(2866.0, 2905.0, 781)
        strain = StrainDistribution(mean_ex=8.0, sigma_ex=2.0)
        generated = ensemble_spectrum(env, drive, grid, 1.0, 0.1, 0.05, strain)
        params = np.array([2885.5, 8.0, 5.0, 0.5, 1.0, 0.1, 2.0])
        model = DressedDip(omega_rf=16.0, fit_sigma_ex=True, fixed_contrast=0.05)
        signal = model.evaluate(params, grid)
        assert np.all(np.abs(signal - generated.signal) <= 1e-12 * np.maximum(1.0, np.abs(signal)))

    def test_contrast_enters_only_with_rabi_mw_squared(self):
        # Four times the contrast at half the rabi_mw gives the same signal.
        params = np.array([2885.5, 8.0, 5.0, 0.5, 1.0, 0.1])
        halved = params.copy()
        halved[3] /= 2.0
        np.testing.assert_allclose(
            DressedDip(16.0, fixed_contrast=0.05).evaluate(params, FIG2_GRID),
            DressedDip(16.0, fixed_contrast=0.2).evaluate(halved, FIG2_GRID),
            rtol=1e-12,
        )

    def test_a_fit_under_either_contrast_is_the_same_fit(self):
        # So a fit under another fixed contrast scales only rabi_mw, by the
        # square root of the contrast ratio, and reaches the same cost.
        noisy = synthesize_measurement(_fig5_clean(6.0), 1e6, 1.0, [7, 1])
        low = fit(noisy, DressedDip(16.0, fixed_contrast=0.05))
        high = fit(noisy, DressedDip(16.0, fixed_contrast=0.2))
        assert low.converged and high.converged
        for name in ("d", "ex", "rabi_rf", "gamma_b", "gamma_d"):
            assert high.param(name) == pytest.approx(low.param(name), rel=1e-5)
        assert high.param("rabi_mw") / low.param("rabi_mw") == pytest.approx(0.5, rel=1e-6)
        assert high.cost == pytest.approx(low.cost, rel=1e-9)


class TestMultiLorentzianModel:
    def test_model_equals_lorentzian_generators(self):
        # The fit model and both Lorentzian generators share one signal.
        grid = np.linspace(2700.0, 3040.0, 721)
        conventional = conventional_spectrum(
            PhysicalEnvironment(b_parallel=150.0), grid, 7.92, 0.05
        )
        params = np.array([1.0, 2720.0, 7.92, 0.05, 3020.0, 7.92, 0.05])
        assert np.array_equal(
            MultiLorentzian(2).evaluate(params, grid), conventional.signal
        )
        two = lorentzian_spectrum([2861.3, 2883.7], [4.1, 6.3], [0.05, 0.021], grid)
        params = np.array([1.0, 2861.3, 4.1, 0.05, 2883.7, 6.3, 0.021])
        assert np.array_equal(MultiLorentzian(2).evaluate(params, grid), two.signal)

    @pytest.mark.parametrize("n_peaks", [0, -1])
    def test_needs_a_peak(self, n_peaks):
        # Without one, a fit "converged" to the baseline alone.
        with pytest.raises(ConfigError, match="n_peaks must be > 0"):
            MultiLorentzian(n_peaks)


class TestNumericJacobian:
    def test_two_residual_evaluations_per_parameter(self):
        # Both steps of every parameter are the rows of one residual call.
        calls = []

        def residuals(x):
            calls.append(x.shape)
            return np.stack([x[..., 0] ** 2, x[..., 0] * x[..., 1], np.sin(x[..., 1])], axis=-1)

        jac = _numeric_jacobian(residuals, np.array([1.5, 0.3]), 3)
        assert calls == [(4, 2)]
        np.testing.assert_allclose(
            jac, [[3.0, 0.0], [0.3, 1.5], [0.0, np.cos(0.3)]], rtol=1e-8, atol=1e-10
        )


def _per_column_jacobian(residuals, x, n_rows):
    """The central-difference Jacobian with one residual call per stepped vector."""
    jac = np.empty((n_rows, len(x)))
    for i in range(len(x)):
        h = fitting.JACOBIAN_REL_STEP * max(abs(x[i]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (residuals(xp) - residuals(xm)) / (2.0 * h)
    return jac


FIG2_ENV = PhysicalEnvironment(d0=2885.5, ex=8.0, b_transverse=80.0)
FIG2_DRIVE = DriveConfig(rabi_mw=0.5, omega_rf=16.0, rabi_rf=5.0)
FIG2_GRID = np.linspace(2866.0, 2905.0, 781)


class TestStackedJacobian:
    @pytest.mark.parametrize("rows", [1, 3, 8])
    def test_equals_per_column_loop(self, rows):
        rng = np.random.default_rng(rows)
        weights = rng.uniform(0.5, 2.0, (rows, 5))

        def residuals(x):  # of a vector, or of each row of a stack, elementwise
            acc = 0.0
            for k in range(5):
                acc = acc + weights[:, k] * x[..., k : k + 1]
            return acc * acc * x[..., 1:2] - x[..., :1] / (1.0 + x[..., 2:3] ** 2)

        for _ in range(20):
            x = rng.normal(size=5) * rng.choice([1e-3, 1.0, 1e3], 5)
            jac = _numeric_jacobian(residuals, x, rows)
            assert jac.flags.c_contiguous
            assert np.array_equal(jac, _per_column_jacobian(residuals, x, rows))

    def test_fit_model_residuals(self):
        # The fit's own residuals: stacked model rows, the log-space steps
        # and their one _to_external.
        model = DressedDip(omega_rf=16.0, fit_sigma_ex=True)
        truth = np.array([2885.5, 8.0, 5.0, 0.5, 1.0, 0.1, 2.0])
        pos = model.positive
        data = model.evaluate(truth, FIG2_GRID)

        def residuals(x):
            p = np.tile(truth, x.shape[:-1] + (1,))
            p[..., pos] = fitting._to_external(x, np.ones(pos.sum(), bool))
            return model.evaluate(p, FIG2_GRID) - data

        x = fitting._to_internal(truth[pos] * 1.01, np.ones(pos.sum(), bool))
        jac = _numeric_jacobian(residuals, x, len(FIG2_GRID))
        assert jac.flags.c_contiguous
        assert np.array_equal(jac, _per_column_jacobian(residuals, x, len(FIG2_GRID)))


class TestExactJacobian:
    """A sigma_ex model's exact Jacobian, column by column, against a Richardson difference.

    The difference is of the model's own value, ``dressed_strain_signal``:
    the real-arithmetic formula that the Jacobian differentiates.
    """

    MODEL = DressedDip(omega_rf=16.0, fit_sigma_ex=True)
    FIG5_GRID = np.linspace(2845.0, 2895.0, 501)
    TRUTH = [2885.5, 8.0, 5.0, 0.5, 1.0, 0.1, 2.0]

    @staticmethod
    def _fig2_start():
        strain = StrainDistribution(mean_ex=8.0, sigma_ex=2.0)
        clean = ensemble_spectrum(FIG2_ENV, FIG2_DRIVE, FIG2_GRID, 1.0, 0.1, 0.05, strain)
        noisy = synthesize_measurement(clean, 1e8, 1.0, 0)
        return initial_guess(noisy, TestExactJacobian.MODEL)

    CASES = {
        "fig2 truth": lambda c: (c.TRUTH, FIG2_GRID),
        "fig2 start": lambda c: (c._fig2_start(), FIG2_GRID),
        "gamma_b = gamma_d": lambda c: ([2870.0, 8.0, 6.0, 0.6, 1.0, 1.0, 0.3], c.FIG5_GRID),
        "sigma_ex 0.05": lambda c: (c.TRUTH[:6] + [0.05], FIG2_GRID),
        "rabi_rf 0.5": lambda c: (c.TRUTH[:2] + [0.5] + c.TRUTH[3:], FIG2_GRID),
        # 3,121 points take three slices of the grid, each with all 21 nodes.
        "fig2 truth, sliced grid": lambda c: (c.TRUTH, np.linspace(2866.0, 2905.0, 3121)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_columns_match_a_richardson_difference(self, case):
        params, grid = self.CASES[case](self)
        params = np.array(params, dtype=float)
        jac = self.MODEL.jacobian(params, grid)
        assert jac.shape == (len(grid), 7) and jac.flags.c_contiguous
        # Steps of 1e-4 MHz in d and ex, 1e-3 relative in the others; the
        # central differences at h and h/2 come from one stacked call.
        h = np.where(np.arange(7) < 2, 1e-4, 1e-3 * params)
        steps = np.concatenate([np.diag(h), -np.diag(h), np.diag(h / 2), -np.diag(h / 2)])
        plus, minus, half_plus, half_minus = np.split(
            self.MODEL.evaluate(params + steps, grid), 4
        )
        coarse = (plus - minus).T / (2 * h)
        fine = (half_plus - half_minus).T / h
        richardson = (4 * fine - coarse) / 3
        for i, name in enumerate(self.MODEL.param_names):
            scale = np.abs(jac[:, i]).max()
            assert np.abs(jac[:, i] - richardson[:, i]).max() <= 1e-6 * scale, name

    @pytest.mark.parametrize("points", [391, 8193])
    def test_blocks_give_each_point_its_lone_columns(self, points):
        # 391 points are one block of all 21 nodes; 8193 take six slices of
        # the grid, each with all 21 nodes.
        grid = np.linspace(2866.0, 2905.0, points)
        params = np.array(self.TRUTH)
        jac = self.MODEL.jacobian(params, grid)
        for i in range(0, points, 97):
            lone = self.MODEL.jacobian(params, grid[i : i + 1])[0]
            np.testing.assert_allclose(jac[i], lone, rtol=0, atol=1e-12 * np.abs(jac).max())

    def test_a_sigma_ex_fit_evaluates_single_vectors_only(self, monkeypatch):
        # No Jacobian, covariance or crossing goes through a stacked model call.
        strain = StrainDistribution(mean_ex=8.0, sigma_ex=2.0)
        clean = ensemble_spectrum(FIG2_ENV, FIG2_DRIVE, FIG2_GRID, 1.0, 0.1, 0.05, strain)
        noisy = synthesize_measurement(clean, 1e8, 1.0, 1)
        evaluate, shapes = DressedDip.evaluate, []

        def recording(self, params, grid):
            shapes.append(params.shape)
            return evaluate(self, params, grid)

        monkeypatch.setattr(DressedDip, "evaluate", recording)
        assert fit(noisy, self.MODEL).converged
        assert shapes and set(shapes) == {(7,)}


def _fig5_clean(rabi_rf):
    env = PhysicalEnvironment(d0=2870.0, ex=8.0, b_transverse=80.0)
    drive = DriveConfig(rabi_mw=0.6, omega_rf=16.0, rabi_rf=rabi_rf)
    strain = StrainDistribution(mean_ex=8.0, sigma_ex=0.3)
    grid = np.linspace(2845.0, 2895.0, 501)
    return ensemble_spectrum(env, drive, grid, 1.0, 1.0, 0.05, strain)


def _same_fit(ours, reference):
    assert np.array_equal(ours.params, reference.params)
    assert ours.iterations == reference.iterations
    assert ours.cost == reference.cost
    assert np.array_equal(ours.covariance, reference.covariance)
    assert ours.fwhm_per_peak == reference.fwhm_per_peak


class TestStackedFits:
    """Fits with stacked Jacobians and lockstep crossings are the per-column fits, bit for bit.

    A sigma_ex fit takes the exact Jacobian instead, so it lands where its
    central-difference fit lands rather than on its bits.
    """

    def _reference(self, monkeypatch, noisy, model):
        with monkeypatch.context() as m:
            m.setattr(fitting, "_numeric_jacobian", _per_column_jacobian)
            m.setattr(fitting, "half_depth_widths", _widths_one_probe_at_a_time)
            res = fit(noisy, model)
            res.covariance, res.fwhm_per_peak  # computed on first read: read them here
            return res

    @pytest.mark.parametrize("seed", range(4))
    def test_fig2(self, seed, monkeypatch):
        clean = ensemble_spectrum(FIG2_ENV, FIG2_DRIVE, FIG2_GRID, 1.0, 0.1, 0.05)
        noisy = synthesize_measurement(clean, 1e6, 1.0, seed)
        model = DressedDip(omega_rf=16.0)
        _same_fit(fit(noisy, model), self._reference(monkeypatch, noisy, model))

    @pytest.mark.parametrize("seed", range(8))
    def test_fig2_strain(self, seed, monkeypatch):
        # The spectra of strain_thermometry's first four rounds (300 K, then
        # 305 K): the exact-Jacobian fit ends at a cost no higher than the
        # central-difference fit's, to 1e-9, and at a d within 0.01 sigma_d.
        k, i = divmod(seed, 2)
        env = replace(FIG2_ENV, temperature=300.0 + 5.0 * i)
        strain = StrainDistribution(mean_ex=8.0, sigma_ex=2.0)
        clean = ensemble_spectrum(env, FIG2_DRIVE, FIG2_GRID, 1.0, 0.1, 0.05, strain)
        noisy = synthesize_measurement(clean, 1e8, 1.0, np.random.SeedSequence([k, i]))
        model = DressedDip(omega_rf=16.0, fit_sigma_ex=True)
        exact = fit(noisy, model)
        with monkeypatch.context() as m:
            m.setattr(DressedDip, "exact_jacobian", property(lambda self: False))
            central = fit(noisy, model)
            sigma_d = central.uncertainty("d")  # the central-difference covariance
        assert exact.converged and central.converged
        assert exact.cost <= central.cost * (1.0 + 1e-9)
        assert abs(exact.param("d") - central.param("d")) <= 0.01 * sigma_d

    @pytest.mark.parametrize("rabi_rf", [3.0, 6.0, 12.0, 24.0])
    def test_fig5(self, rabi_rf, monkeypatch):
        model = DressedDip(omega_rf=16.0)
        for seed in range(3):
            noisy = synthesize_measurement(_fig5_clean(rabi_rf), 1e6, 1.0, [7, seed])
            _same_fit(fit(noisy, model), self._reference(monkeypatch, noisy, model))

    @pytest.mark.parametrize("seed", range(4))
    def test_fig4_lorentzian(self, seed, monkeypatch):
        grid = np.linspace(2690.0, 3050.0, 721)
        clean = conventional_spectrum(PhysicalEnvironment(b_parallel=150.0), grid, 7.92, 0.05)
        noisy = synthesize_measurement(clean, 1e6, 1.0, seed)
        model = MultiLorentzian(2)
        _same_fit(fit(noisy, model), self._reference(monkeypatch, noisy, model))


def _fingerprint(res):
    """A digest of every field of a FitResult, to the last bit."""
    h = hashlib.sha256()
    for value in (res.param_names, res.model_kind, res.converged, res.iterations, res.fwhm_reasons):
        h.update(repr(value).encode())
    for value in (
        res.params, res.covariance, res.fwhm_per_peak, res.contrast_per_peak,
        [res.residual_rms, res.cost],
    ):
        h.update(np.array(value, dtype=float).tobytes())
    return h.hexdigest()[:16]


def _avx512():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX512F"))


@pytest.mark.skipif(
    np.__version__ != "2.4.6" or not _avx512(),
    reason="recorded with numpy 2.4.6 on x86-64 with AVX-512; a fit's last bits depend on both",
)
class TestRecordedWork:
    """Trimming the fit loop's fixed costs leaves its work and results as they were.

    Each case holds the model evaluations and parameter rows a fit took, its
    iterations and convergence, and a digest of every ``FitResult`` field, as
    recorded before the trim.  The dressed digests were recorded again when
    the contrast left the parameter vector; each equals the digest of the
    earlier result with its contrast entry removed.  They were recorded once
    more when the half-depth crossings moved to the Illinois solver, which
    moved only their FWHMs, each by at most 5e-12 MHz.
    """

    CASES = {
        "fig5 rabi_rf 3 seed 0": (206, 1240, 93, True, "e2cceb29b03bfccd"),
        "fig5 rabi_rf 6 seed 1": (32, 164, 11, True, "025e063b8af25677"),
        "fig5 rabi_rf 12 seed 0": (28, 138, 9, True, "355fe1f4c619828d"),
        "fig5 rabi_rf 24 seed 2": (34, 166, 11, True, "04f575c7e632041b"),
        "fig4 seed 0": (12, 90, 5, True, "da963f9ecc5c2c57"),
        "fig4 seed 1": (10, 75, 4, True, "998cb3e8bcfd8bc2"),
    }

    @staticmethod
    def _spectrum(case):
        if case.startswith("fig5"):
            _, _, rabi_rf, _, seed = case.split()
            return DressedDip(omega_rf=16.0), synthesize_measurement(
                _fig5_clean(float(rabi_rf)), 1e6, 1.0, [7, int(seed)]
            )
        grid = np.linspace(2690.0, 3050.0, 721)
        clean = conventional_spectrum(PhysicalEnvironment(b_parallel=150.0), grid, 7.92, 0.05)
        return MultiLorentzian(2), synthesize_measurement(clean, 1e6, 1.0, int(case.split()[-1]))

    @pytest.mark.parametrize("case", CASES)
    def test_same_work_same_result(self, case, monkeypatch):
        model, noisy = self._spectrum(case)
        evaluate, rows = type(model).evaluate, []

        def counting(self, params, grid):
            rows.append(1 if params.ndim == 1 else len(params))
            return evaluate(self, params, grid)

        monkeypatch.setattr(type(model), "evaluate", counting)
        res = fit(noisy, model)
        digest = _fingerprint(res)  # reads the covariance and line properties: counted
        found = (len(rows), sum(rows), res.iterations, res.converged, digest)
        assert found == self.CASES[case]


class TestNoRepeatedEvaluation:
    @pytest.mark.parametrize(
        "model, clean",
        [
            (MultiLorentzian(1), _lorentz_clean()),
            (DressedDip(omega_rf=8.0, fixed_contrast=0.1), _dressed_clean()),
        ],
        ids=["lorentzian", "dressed"],
    )
    def test_no_parameter_grid_pair_evaluated_twice(self, model, clean, monkeypatch):
        # Every evaluation on the data grid is new work: the loop, the
        # Jacobians and the covariance never repeat a parameter vector.
        noisy = synthesize_measurement(clean, 1e6, 1.0, seed=4)
        seen = []
        evaluate = type(model).evaluate

        def recording(self, params, grid):
            if len(grid) == len(noisy):
                seen.extend((row.tobytes(), grid.tobytes()) for row in np.atleast_2d(params))
            return evaluate(self, params, grid)

        monkeypatch.setattr(type(model), "evaluate", recording)
        res = fit(noisy, model)
        res.covariance  # computed on this read, inside the recording
        assert res.converged
        assert len(seen) > 10
        assert len(set(seen)) == len(seen)
        # The reported RMS is that of the last accepted residual.
        rms = np.sqrt(np.mean((evaluate(model, res.params, noisy.frequencies) - noisy.signal) ** 2))
        assert res.residual_rms == pytest.approx(rms, rel=1e-12)


def _strain_noisy():
    strain = StrainDistribution(mean_ex=8.0, sigma_ex=2.0)
    clean = ensemble_spectrum(FIG2_ENV, FIG2_DRIVE, FIG2_GRID, 1.0, 0.1, 0.05, strain)
    return synthesize_measurement(clean, 1e8, 1.0, 1)


def _count_property_calls(monkeypatch):
    """Wrap ``peak_properties`` and ``_covariance`` with call counters."""
    calls = {"peak_properties": 0, "_covariance": 0}
    for name in calls:
        original = getattr(fitting, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(fitting, name, counting)
    return calls


FIRST_READ_CASES = {
    "dressed": (
        lambda: synthesize_measurement(
            ensemble_spectrum(FIG2_ENV, FIG2_DRIVE, FIG2_GRID, 1.0, 0.1, 0.05), 1e6, 1.0, 2
        ),
        DressedDip(omega_rf=16.0),
    ),
    "sigma_ex": (_strain_noisy, DressedDip(omega_rf=16.0, fit_sigma_ex=True)),
    "lorentzian": (
        lambda: synthesize_measurement(_lorentz_clean(), 1e6, 1.0, seed=4),
        MultiLorentzian(1),
    ),
}


class TestPropertiesOnFirstRead:
    """The covariance and line properties are computed when first read, with the bits
    a direct ``_covariance`` or ``peak_properties`` call on the fit's inputs gives."""

    @pytest.mark.parametrize("case", FIRST_READ_CASES)
    def test_fit_alone_computes_neither(self, case, monkeypatch):
        make, model = FIRST_READ_CASES[case]
        calls = _count_property_calls(monkeypatch)
        res = fit(make(), model)
        assert calls == {"peak_properties": 0, "_covariance": 0}
        res.fwhm_per_peak, res.fwhm_reasons, res.contrast_per_peak
        assert calls == {"peak_properties": 1, "_covariance": 0}
        res.uncertainty(res.param_names[0]), res.to_json()
        assert calls == {"peak_properties": 1, "_covariance": 1}

    @pytest.mark.parametrize("case", FIRST_READ_CASES)
    def test_each_property_is_a_direct_calls_bits(self, case):
        make, model = FIRST_READ_CASES[case]
        spec = make()
        res = fit(spec, model)
        grid = spec.frequencies.copy()
        weighted = bool(np.all(spec.sigma > 0))
        w = 1.0 / spec.sigma if weighted else np.ones(len(spec))
        cov = fitting._covariance(model, res.params, grid, w, weighted, res.cost)
        fwhm, reasons, contrasts = peak_properties(model, res.params, grid)
        # The result keeps its own grid: the caller's spectrum may change.
        spec.frequencies += 1.0
        spec.sigma *= 2.0
        assert np.array_equal(res.covariance, cov)
        bits = np.array(fwhm, dtype=float).tobytes()
        assert np.array(res.fwhm_per_peak, dtype=float).tobytes() == bits
        assert res.fwhm_reasons == reasons
        assert np.array(res.contrast_per_peak).tobytes() == np.array(contrasts).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            res.params[0] = 0.0

    def test_multistart_computes_them_once(self, monkeypatch):
        noisy = synthesize_measurement(_lorentz_clean(), 1e6, 1.0, seed=21)
        calls = _count_property_calls(monkeypatch)
        res = multistart_fit(noisy, MultiLorentzian(1), n_starts=4, seed=0)
        assert calls == {"peak_properties": 0, "_covariance": 0}
        for _ in range(2):
            res.covariance, res.fwhm_per_peak, res.fwhm_reasons, res.contrast_per_peak
        assert calls == {"peak_properties": 1, "_covariance": 1}

    def test_an_error_is_raised_by_each_read(self, monkeypatch):
        def failing(*args):
            raise ValueError("The function value at x=1.0 is NaN; solver cannot continue.")

        monkeypatch.setattr(fitting, "peak_properties", failing)
        res = fit(_dressed_clean(), DressedDip(omega_rf=8.0, fixed_contrast=0.1))
        for _ in range(2):
            with pytest.raises(ValueError, match="is NaN; solver cannot continue"):
                res.fwhm_per_peak
        assert res.uncertainty("d") > 0

    def test_multistart_returns_and_the_read_raises(self, monkeypatch):
        # A start's line-property error no longer fails the call: the
        # returned start raises it when its line properties are read.
        def failing(*args):
            raise RuntimeError("failed to converge after 100 iterations")

        monkeypatch.setattr(fitting, "peak_properties", failing)
        noisy = synthesize_measurement(_lorentz_clean(), 1e6, 1.0, seed=21)
        res = multistart_fit(noisy, MultiLorentzian(1), n_starts=3, seed=0)
        assert res.converged and res.uncertainty("center_1") > 0
        with pytest.raises(RuntimeError, match="failed to converge after 100 iterations"):
            res.contrast_per_peak


class TestPeakProperties:
    def test_lorentzian_widths_direct(self):
        model = MultiLorentzian(1)
        params = np.array([1.0, 2870.0, 7.92, 0.05])
        fwhm, reasons, depths = peak_properties(model, params, _lorentz_clean().frequencies)
        assert fwhm == [pytest.approx(7.92)]
        assert reasons == ["ok"]
        assert depths == [pytest.approx(0.05)]

    def test_dressed_half_depth_measurement(self):
        clean = _dressed_clean()
        model = DressedDip(omega_rf=8.0, fixed_contrast=0.1)
        res = fit(clean, model)
        assert res.converged
        resolved = [w for w in res.fwhm_per_peak if w is not None]
        assert len(resolved) == 4
        assert all(w > 0 for w in resolved)

    def test_flat_curve_reports_no_dip(self):
        model = DressedDip(omega_rf=8.0, fixed_contrast=0.1)
        params = np.array([2870.0, 8.0, 6.0, 1e-9, 1.0, 0.3, 0.1])
        fwhm, reasons, _ = peak_properties(model, params, _dressed_clean().frequencies)
        assert fwhm == [None]
        assert "no dip" in reasons[0]


def _scipy_peaks(x, prominence):
    idx, props = scipy_find_peaks(x, prominence=prominence)
    widths = scipy_peak_widths(x, idx, rel_height=0.5)[0]
    return idx, props["prominences"], props["left_bases"], props["right_bases"], widths


def _assert_same_as_scipy(x, prominence):
    for name, ours, theirs in zip(
        Peaks._fields, find_peaks(x, prominence), _scipy_peaks(x, prominence)
    ):
        np.testing.assert_array_equal(ours, theirs, err_msg=f"{name}, n={len(x)}")


def _thresholds(x):
    """0, the finder's three uses (0.05 and 0.2 of the maximum, and the
    noise floor of ``cli._count_dips``), and the maximum itself."""
    if len(x) == 0:
        return [0.0]
    top = x.max()
    floor = noise_floor(x) if len(x) > 1 else 0.0
    return [0.0, 0.05 * top, 0.2 * top, max(0.2 * top, floor), top]


def _random_array(rng, k):
    """Noise, plateaus, ties and end runs, 0 to 1000 samples."""
    n = int(rng.integers(0, 1001))
    kind = k % 5
    if kind == 0:
        return rng.normal(size=n)
    if kind == 1:  # rounded: ties between peaks and valleys
        return np.round(2.0 * rng.normal(size=n))
    if kind == 2:  # three levels: long plateaus and end runs
        return rng.integers(0, 3, size=n).astype(float)
    if kind == 3:  # runs of 1-4 equal samples
        runs = max(n // 3, 1)
        return np.repeat(rng.normal(size=runs), rng.integers(1, 5, size=runs))[:n]
    return np.round(np.cumsum(rng.normal(size=n)), 1)  # rounded random walk


def _fig5_spectrum(rabi_mw, grid, seed=None):
    """The fig5_narrowing preset's strain ensemble, noisy when seeded."""
    env = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
    drive = DriveConfig(rabi_mw=rabi_mw, omega_rf=16.0, rabi_rf=6.0)
    clean = ensemble_spectrum(env, drive, grid, 1.0, 1.0, 0.05, StrainDistribution(8.0, 0.3))
    return clean if seed is None else synthesize_measurement(clean, 1e6, 1.0, seed=seed)


class TestFindPeaks:
    def test_random_arrays_match_scipy(self):
        rng = np.random.default_rng(20260)
        for k in range(300):
            x = _random_array(rng, k)
            for prominence in _thresholds(x):
                _assert_same_as_scipy(x, prominence)

    @pytest.mark.parametrize("rabi_mw", [0.2, 0.6, 1.5])
    def test_noisy_fig5_depths_match_scipy(self, rabi_mw):
        # The smoothed depth _detect_dips searches: 75-135 local maxima.
        grid = np.linspace(2845.0, 2895.0, 501)
        for seed in range(4):
            smooth = fitting._smooth(_fig5_spectrum(rabi_mw, grid, seed).signal)
            depth = np.quantile(smooth, 0.75) - smooth
            for prominence in _thresholds(depth):
                _assert_same_as_scipy(depth, prominence)

    def test_refined_model_curve_matches_scipy(self):
        # peak_properties' curve: 8 points per sample of a 501-point grid.
        grid = np.linspace(2845.0, 2895.0, 4009)
        for rabi_mw in (0.6, 1.5):
            depth = 1.0 - _fig5_spectrum(rabi_mw, grid).signal
            for prominence in _thresholds(depth):
                _assert_same_as_scipy(depth, prominence)

    def test_plateau_walks_and_widths(self):
        x = np.array([0.0, 1.0, 3.0, 3.0, 3.0, 1.0, 2.0, 0.5, 2.5, 0.0])
        peaks = find_peaks(x, 1.6)
        # The plateau's middle; the peak at 6 has prominence 2 - 1 < 1.6.
        np.testing.assert_array_equal(peaks.indices, [3, 8])
        np.testing.assert_array_equal(peaks.prominences, [3.0, 2.0])
        np.testing.assert_array_equal(peaks.left_bases, [0, 7])
        np.testing.assert_array_equal(peaks.right_bases, [9, 9])
        # Both at height 1.5: crossings 1.25 and 4.75, then 7.5 and 8.4.
        np.testing.assert_array_equal(peaks.widths, [4.75 - 1.25, (9 - 1.5 / 2.5) - 7.5])

    def test_walk_starts_at_the_plateau_middle(self):
        # Half the smallest subnormal rounds to 0, so the width is taken at
        # the peak's own height: both walks stop at once, as in scipy
        # (which warns that the width is 0).
        tiny = 5e-324
        peaks = find_peaks(np.array([0.0, tiny, tiny, tiny, 0.0]), 0.0)
        np.testing.assert_array_equal(peaks.indices, [2])
        np.testing.assert_array_equal(peaks.widths, [0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_refused(self, bad):
        x = np.array([0.0, 1.0, 0.0, bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            find_peaks(x, 0.0)


def _half_depth_width_evaluating_every_probe(curve_fn, grid, curve, m):
    """The half-depth width of the dip at m by scipy's brentq, with curve_fn behind every probe."""
    half = 1.0 - (1.0 - curve[m]) / 2.0

    def above_half(nu):
        return float(curve_fn(np.array([nu]))[0]) - half

    left = right = None
    for i in range(m, 0, -1):
        if curve[i - 1] >= half:
            left = brentq(above_half, grid[i - 1], grid[m])
            break
    for i in range(m, len(grid) - 1):
        if curve[i + 1] >= half:
            right = brentq(above_half, grid[m], grid[i + 1])
            break
    if left is None or right is None:
        return None
    return float(right - left)


def _widths_one_probe_at_a_time(curve_fn, grid, curve, dips):
    """``half_depth_widths`` of each dip on its own, calling ``curve_fn`` on one probe at a time."""

    def one_by_one(g):
        return np.concatenate([curve_fn(g[i : i + 1]) for i in range(len(g))])

    return [half_depth_widths(one_by_one, grid, curve, [m])[0] for m in dips]


class TestHalfDepthWidth:
    def test_bracket_samples_not_evaluated_again(self):
        # Each side's two bracket ends are samples of the curve already: no
        # probe is a grid sample.  The widths are scipy's brentq widths to
        # within 1e-9 MHz.
        model = DressedDip(omega_rf=8.0, fixed_contrast=0.1)
        params = np.array([2870.0, 8.0, 6.0, 0.8, 1.0, 0.3, 0.1])
        grid = np.linspace(GRID[0], GRID[-1], 8 * len(GRID) + 1)
        probes = []

        def curve_fn(g):
            probes.append(g)
            return model.evaluate(params, g)

        curve = curve_fn(grid)
        dips = find_peaks(1.0 - curve, 0.05 * (1.0 - curve).max()).indices
        assert len(dips) == 4
        for m in dips:
            probes.clear()
            (width,) = half_depth_widths(curve_fn, grid, curve, [m])
            assert len(probes) > 1
            assert not np.isin(np.concatenate(probes), grid).any()
            scipy_width = _half_depth_width_evaluating_every_probe(curve_fn, grid, curve, m)
            assert abs(width - scipy_width) <= 1e-9


class TestLockstepCrossings:
    def test_all_dips_at_once(self):
        # Every crossing of every dip advances together: one curve_fn call
        # per step of the longest search, each bracket end still unprobed,
        # and each root is the bits of its dip solved alone, one probe per call.
        model = DressedDip(omega_rf=8.0, fixed_contrast=0.1)
        params = np.array([2870.0, 8.0, 6.0, 0.8, 1.0, 0.3, 0.1])
        grid = np.linspace(GRID[0], GRID[-1], 8 * len(GRID) + 1)
        probes = []

        def curve_fn(g):
            assert np.all(np.diff(g) > 0)
            probes.append(len(g))
            return model.evaluate(params, g)

        curve = model.evaluate(params, grid)
        dips = find_peaks(1.0 - curve, 0.05 * (1.0 - curve).max()).indices
        widths = half_depth_widths(curve_fn, grid, curve, dips)
        calls, points = len(probes), sum(probes)
        probes.clear()
        assert widths == _widths_one_probe_at_a_time(curve_fn, grid, curve, dips)
        assert points == len(probes)
        assert calls < points / 4

    def test_300_brackets_within_100_steps(self):
        rng = np.random.default_rng(14)
        funcs, brackets = [], []
        while len(brackets) < 300:
            c = rng.normal(size=3)
            f = (lambda c: lambda x: math.sin(3.0 * c[0] * x) + c[1] * x + c[2])(c)
            a, b = np.sort(rng.normal(size=2) * 3.0).tolist()
            if f(a) * f(b) < 0:
                funcs.append(f)
                brackets.append((a, f(a), b, f(b)))
        seen = []

        def f_many(which, xs):
            seen.append(len(which))
            return [funcs[i](x) for i, x in zip(which.tolist(), xs.tolist())]

        roots = fitting._illinois_roots(f_many, *np.array(brackets).T)
        for f, (a, _, b, _), root in zip(funcs, brackets, roots.tolist()):
            _assert_near_brentq(f, a, b, root)
        assert seen[0] == len(brackets) and len(seen) <= fitting.ROOT_MAXITER


def _root_or_error(solver, f, a, b):
    try:
        return solver(f, a, b)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def _one_bracket(f, a, b):
    """The root of ``f`` between a and b by ``fitting._illinois_roots`` alone."""
    a, b = sorted((float(a), float(b)))  # as half_depth_widths orders them
    roots = fitting._illinois_roots(lambda which, xs: [f(x) for x in xs.tolist()], [a], [f(a)], [b], [f(b)])
    return float(roots[0])


def _assert_near_brentq(f, a, b, ours):
    """``ours`` is scipy's brentq root of [a, b] to within 2 (xtol + rtol |x|), or a root of its own."""
    theirs = brentq(f, a, b)
    if abs(ours - theirs) <= 2.0 * (fitting.ROOT_XTOL + fitting.ROOT_RTOL * abs(theirs)):
        return
    tol = fitting.ROOT_XTOL + fitting.ROOT_RTOL * abs(ours)
    values = [f(x) for x in np.linspace(ours - tol, ours + tol, 65).tolist()]
    assert min(values) <= 0.0 <= max(values), (ours, theirs)


class TestBrentq:
    """``_illinois_roots`` on one bracket finds scipy's ``brentq`` root within the root tolerance.

    Where ``brentq`` raises, it raises the same error; where the two find
    different roots of one bracket, its own is a sign change of ``f``.
    """

    def _assert_same_as_scipy(self, f, a, b):
        ours, theirs = _root_or_error(_one_bracket, f, a, b), _root_or_error(brentq, f, a, b)
        if isinstance(theirs, float):
            assert type(ours) is float
            _assert_near_brentq(f, a, b, ours)
        else:
            assert ours == theirs

    def test_random_functions_and_brackets(self):
        rng = np.random.default_rng(11)
        families = [
            lambda c: (lambda x: np.polyval(c, x)),
            lambda c: (lambda x: math.tanh(c[0] * (x - c[1])) + 0.5 * c[2]),
            lambda c: (lambda x: math.sin(3.0 * c[0] * x) + c[1] * x + c[2]),
            lambda c: (lambda x: c[1] * (x - c[0]) ** 3 + 1e-9 * c[2]),
            lambda c: (lambda x: np.float64(c[0]) * (x - c[1]) ** 2 - 0.1 * abs(c[2])),
        ]
        for k in range(2000):
            f = families[k % len(families)](rng.normal(size=6))
            a, b = rng.normal(size=2) * 3.0
            self._assert_same_as_scipy(f, a, b)

    def test_piecewise_constant_functions(self):
        # A jump is a sign change of its own; a zero run holds every root.
        rng = np.random.default_rng(12)
        for _ in range(1000):
            c = rng.normal(size=2)
            offset = 0.25 * round(4.0 * c[0]) - 0.125 * (c[1] > 0)
            a, b = rng.normal(size=2) * 3.0
            self._assert_same_as_scipy(lambda x: math.floor(4.0 * x) / 4.0 - offset, a, b)

    def test_brackets_a_few_xtol_wide(self):
        # Near the tolerance every probe is clipped into the bracket.
        rng = np.random.default_rng(13)
        for _ in range(3000):
            r, slope, wiggle = rng.normal(size=3)
            scale = 10 ** rng.uniform(-12, -10)

            def f(x):
                t = (x - r) / scale
                return math.exp(slope * t) - 1.0 + 0.3 * wiggle * math.sin(5.0 * t)

            a, b = r + rng.uniform(-5.0, 5.0, 2) * scale
            self._assert_same_as_scipy(f, a, b)

    def test_dip_flanks_of_a_model_curve(self):
        # The crossings of each dip, from the samples around it to its center.
        model = DressedDip(omega_rf=8.0, fixed_contrast=0.1)
        params = np.array([2870.0, 8.0, 6.0, 0.8, 1.0, 0.3, 0.1])
        grid = np.linspace(GRID[0], GRID[-1], 8 * len(GRID) + 1)
        curve = model.evaluate(params, grid)
        for m in find_peaks(1.0 - curve, 0.05 * (1.0 - curve).max()).indices:
            half = 1.0 - (1.0 - curve[m]) / 2.0

            def above_half(nu):
                return float(model.evaluate(params, np.array([nu]))[0]) - half

            for i in range(m - 160, m + 161, 4):
                self._assert_same_as_scipy(above_half, grid[i], grid[m])

    @pytest.mark.parametrize(
        "f, a, b",
        [
            (lambda x: x - 1.0, 1.0, 3.0),  # root at a
            (lambda x: x - 3.0, 1.0, 3.0),  # root at b
            (lambda x: -0.0 if x == 1.0 else x - 2.0, 1.0, 3.0),  # f(a) = -0.0
            (lambda x: -0.0 if x == 3.0 else x - 2.0, 1.0, 3.0),  # f(b) = -0.0
            (lambda x: x * (x - 1.0), 0.0, 0.0),  # a == b at a root
            (lambda x: x - 2.0, 3.0, 1.0),  # reversed bracket
        ],
    )
    def test_bracket_ends_and_signed_zeros(self, f, a, b):
        self._assert_same_as_scipy(f, a, b)
        if f(a) == 0 or f(b) == 0:  # a root at an end is that end, exactly
            ours = _one_bracket(f, a, b)
            assert ours == (a if f(a) == 0 else b)
            assert math.copysign(1.0, ours) == math.copysign(1.0, brentq(f, a, b))

    @pytest.mark.parametrize(
        "f, a, b, error, message",
        [
            (lambda x: x * x + 1.0, -1.0, 1.0, ValueError, "f(a) and f(b) must have different signs"),
            (lambda x: math.nan if x > 0.5 else x - 0.75, 0.0, 1.0, ValueError, "is NaN; solver cannot continue"),
            (lambda x: math.nan, 0.0, 1.0, ValueError, "The function value at x=0.0 is NaN"),
            # NaN at the first probe, the secant root 0.5, not at an end.
            (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, ValueError, "The function value at x=0.5 is NaN"),
            # Every secant step lands at the low end and is clipped a tol into
            # the bracket, a creep that 100 steps cannot finish.
            (lambda x: 1e300 if x > 0.3 else -1e-300, -1e300, 1e300, RuntimeError, "Failed to converge after 100 iterations."),
        ],
    )
    def test_errors_as_scipy_raises_them(self, f, a, b, error, message):
        theirs = _root_or_error(brentq, f, a, b)
        assert theirs[0] is error and message in theirs[1]
        ours = _root_or_error(_one_bracket, f, a, b)
        assert ours[0] is error and message in ours[1]


class TestMultistart:
    def test_recovers_with_perturbed_starts(self):
        noisy = synthesize_measurement(_lorentz_clean(), 1e6, 1.0, seed=21)
        res = multistart_fit(noisy, MultiLorentzian(1), n_starts=3, seed=0)
        assert res.converged
        assert res.param("width_1") == pytest.approx(5.0, rel=0.05)

    @pytest.mark.parametrize("n_starts", [0, -1])
    def test_needs_a_start(self, n_starts):
        noisy = synthesize_measurement(_lorentz_clean(), 1e6, 1.0, seed=21)
        with pytest.raises(ValueError, match="n_starts must be >= 1"):
            multistart_fit(noisy, MultiLorentzian(1), n_starts=n_starts)

    def test_all_starts_failing_raises(self):
        grid = np.linspace(2800.0, 2900.0, 200)
        flat = Spectrum(grid, np.ones(200), np.zeros(200))
        with pytest.raises(FitError):
            multistart_fit(flat, MultiLorentzian(1), n_starts=2)

    @pytest.mark.parametrize(
        "spectrum, model",
        [
            (  # fig5 at rabi_rf 6: one center near 2870 MHz on a 50 MHz grid
                lambda: ensemble_spectrum(
                    ENV, DriveConfig(rabi_mw=0.6, omega_rf=16.0, rabi_rf=6.0),
                    np.linspace(2845.0, 2895.0, 501), 1.0, 1.0, 0.05,
                    StrainDistribution(mean_ex=8.0, sigma_ex=0.3),
                ),
                DressedDip(omega_rf=16.0),
            ),
            (  # fig4: two centers 150 MHz either side of 2870 MHz
                lambda: conventional_spectrum(
                    PhysicalEnvironment(b_parallel=150.0), np.linspace(2690.0, 3050.0, 721), 7.92
                ),
                MultiLorentzian(2),
            ),
        ],
        ids=["fig5_dressed", "fig4_lorentzian"],
    )
    def test_every_start_reaches_the_optimizer(self, monkeypatch, spectrum, model):
        # A start whose center leaves the grid is refused before the optimizer runs.
        noisy = synthesize_measurement(spectrum(), 1e6, 1.0, seed=7)
        real, refused, guesses = fitting._check_guess, [], []

        def check(spec, model, guess):
            guesses.append(guess.copy())
            try:
                real(spec, model, guess)
            except FitError as exc:
                refused.append(str(exc))
                raise

        monkeypatch.setattr(fitting, "_check_guess", check)
        multistart_fit(noisy, model, n_starts=8, seed=3)
        assert refused == []
        assert len(guesses) == 8


class TestFitResultSerialization:
    def test_json_document(self):
        res = fit(_lorentz_clean(), MultiLorentzian(1))
        doc = json.loads(res.to_json())
        assert doc["schema_version"] == 1
        assert doc["model"] == "MultiLorentzian"
        assert doc["converged"] is True
        names = [p["name"] for p in doc["parameters"]]
        assert names == ["baseline", "center_1", "width_1", "depth_1"]
        assert all("sigma" in p for p in doc["parameters"])

    def test_non_finite_values_written_as_null(self):
        res = fit(_lorentz_clean(), MultiLorentzian(1))
        res.covariance[1, 1] = np.inf
        res.contrast_per_peak[0] = float("nan")
        doc = json.loads(res.to_json(), parse_constant=pytest.fail)
        assert doc["parameters"][1]["sigma"] is None
        assert doc["contrast_per_peak"] == [None]
