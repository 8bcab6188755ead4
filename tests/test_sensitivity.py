"""Tests for sensitivity figures, temperature estimation, and sweeps."""

import csv
import itertools
import json
import math
import sys
import threading
import time

import numpy as np
import pytest

from nvtherm import fitting, lineshape, oracle, sensitivity
from nvtherm.fitting import DressedDip, FitError, MultiLorentzian, fit
from nvtherm.lineshape import (
    StrainDistribution,
    conventional_spectrum,
    ensemble_spectrum,
    lorentzian_spectrum,
)
from nvtherm.sensitivity import (
    LORENTZIAN_SLOPE_CONSTANT,
    SCAN_CHUNK,
    SLOPE_POINTS,
    NoiseBudget,
    SweepConfig,
    SweepTable,
    estimate_temperature,
    linewidth_sensitivity,
    slope_sensitivity,
    sweep,
)
from nvtherm.spin import ConfigError, DriveConfig, PhysicalEnvironment

BUDGET = NoiseBudget(photon_rate=1e6)


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _lorentz_curve(fwhm=7.92, contrast=0.05, center=2870.0):
    def curve(grid):
        return lorentzian_spectrum([center], [fwhm], [contrast], grid).signal

    return curve


class TestNoiseBudget:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="photon_rate"):
            NoiseBudget(photon_rate=0.0)

    @pytest.mark.parametrize("contrast", [0.0, -0.05, 0.51, 0.9])
    def test_contrast_outside_zero_to_one_half_rejected(self, contrast):
        # Above 1/2 the two branches can take the signal below zero.
        with pytest.raises(ConfigError, match=r"contrast must be in \(0, 0.5\]"):
            NoiseBudget(photon_rate=1e6, contrast=contrast)

    def test_contrast_of_one_half_accepted(self):
        assert NoiseBudget(photon_rate=1e6, contrast=0.5).contrast == 0.5

    def test_laser_power_model(self):
        budget = NoiseBudget(
            photon_rate=1e6, contrast=0.1, rate_per_mw=2e6, pump_per_mw=4.0,
            gamma_sat=1.0,
        )
        rate, pump, contrast = budget.at_laser_power(0.5)
        assert rate == pytest.approx(1e6)
        assert pump == pytest.approx(2.0)
        assert contrast == pytest.approx(0.1 * 2.0 / 3.0)

    def test_laser_power_model_unconfigured(self):
        with pytest.raises(ValueError, match="laser-power model"):
            BUDGET.at_laser_power(1.0)

    @pytest.mark.parametrize(
        "fields, messages",
        [
            ({"rate_per_mw": 0.0}, ["rate_per_mw must be > 0, got 0.0"]),
            ({"pump_per_mw": -1.0}, ["pump_per_mw must be > 0, got -1.0"]),
            ({"gamma_sat": -1.0}, ["gamma_sat must be >= 0, got -1.0"]),
            (
                {"rate_per_mw": -1.0, "pump_per_mw": 0.0, "gamma_sat": -0.5},
                [
                    "rate_per_mw must be > 0, got -1.0",
                    "pump_per_mw must be > 0, got 0.0",
                    "gamma_sat must be >= 0, got -0.5",
                ],
            ),
            ({"gamma_sat": math.inf}, ["gamma_sat must be finite, got inf"]),
        ],
    )
    def test_laser_power_fields_judged(self, fields, messages):
        # Before, a negative rate_per_mw gave a negative photon rate and
        # pump + gamma_sat = 0 a ZeroDivisionError in at_laser_power.
        with pytest.raises(ConfigError) as caught:
            NoiseBudget(1e6, **{"rate_per_mw": 1.0, "pump_per_mw": 1.0, **fields})
        assert caught.value.diagnostics == messages

    def test_laser_power_fields_may_be_absent_and_saturation_zero(self):
        assert NoiseBudget(1e6, gamma_sat=0.0).rate_per_mw is None
        budget = NoiseBudget(1e6, contrast=0.1, rate_per_mw=1.0, pump_per_mw=1.0, gamma_sat=0.0)
        assert budget.at_laser_power(2.0) == (2.0, 2.0, 0.1)

    @pytest.mark.parametrize("power", [0.0, -1.0, math.nan])
    def test_laser_power_must_be_positive(self, power):
        budget = NoiseBudget(1e6, rate_per_mw=1.0, pump_per_mw=1.0)
        with pytest.raises(ValueError, match=f"laser power must be > 0, got {power}"):
            budget.at_laser_power(power)


class TestLinewidthSensitivity:
    def test_arithmetic_fixture(self):
        eta = linewidth_sensitivity(1.0, 0.01, BUDGET)
        expected = LORENTZIAN_SLOPE_CONSTANT / (0.01 * 1000.0 * 0.0742)
        assert eta == pytest.approx(expected)
        assert eta == pytest.approx(1.0375, rel=1e-3)

    def test_contrast_linearity(self):
        eta1 = linewidth_sensitivity(7.92, 0.05, BUDGET)
        eta2 = linewidth_sensitivity(7.92, 0.10, BUDGET)
        assert eta1 == pytest.approx(2.0 * eta2)

    def test_fwhm_ratio_transfers_exactly(self):
        eta_wide = linewidth_sensitivity(7.92, 0.05, BUDGET)
        eta_narrow = linewidth_sensitivity(1.91, 0.05, BUDGET)
        assert eta_wide / eta_narrow == pytest.approx(7.92 / 1.91)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            linewidth_sensitivity(0.0, 0.05, BUDGET)
        with pytest.raises(ValueError):
            linewidth_sensitivity(1.0, 0.05, BUDGET, dd_dt=0.0)

    @pytest.mark.parametrize(
        "fwhm, contrast, dd_dt, message",
        [
            (math.nan, 0.05, -0.0742, "fwhm and contrast must be > 0, got nan and 0.05"),
            (1.0, math.nan, -0.0742, "fwhm and contrast must be > 0, got 1.0 and nan"),
            (1.0, 0.05, math.nan, "dd_dt must be finite and nonzero, got nan"),
            (1.0, 0.05, math.inf, "dd_dt must be finite and nonzero, got inf"),
            (1.0, 0.05, -0.0, "dd_dt must be finite and nonzero, got -0.0"),
        ],
    )
    def test_no_nan_from_nan_inputs(self, fwhm, contrast, dd_dt, message):
        with pytest.raises(ValueError, match=message):
            linewidth_sensitivity(fwhm, contrast, BUDGET, dd_dt)


class TestSlopeSensitivity:
    SPAN = (2840.0, 2900.0)

    def test_photon_rate_scaling(self):
        curve = _lorentz_curve()
        eta1 = slope_sensitivity(curve, self.SPAN, NoiseBudget(1e6)).eta_slope
        eta4 = slope_sensitivity(curve, self.SPAN, NoiseBudget(4e6)).eta_slope
        assert eta1 / eta4 == pytest.approx(2.0, rel=1e-12)

    def test_dd_dt_inverse_linearity(self):
        curve = _lorentz_curve()
        eta = slope_sensitivity(curve, self.SPAN, BUDGET, dd_dt=-0.0742).eta_slope
        eta_half = slope_sensitivity(curve, self.SPAN, BUDGET, dd_dt=-0.0371).eta_slope
        assert eta_half == pytest.approx(2.0 * eta, rel=1e-12)

    def test_cross_method_consistency(self):
        report = slope_sensitivity(_lorentz_curve(), self.SPAN, BUDGET)
        eta_lw = linewidth_sensitivity(7.92, 0.05, BUDGET)
        assert report.eta_slope == pytest.approx(eta_lw, rel=0.05)

    def test_flat_spectrum_rejected(self):
        with pytest.raises(ValueError, match="no spectral sensitivity"):
            slope_sensitivity(lambda g: np.ones_like(g), self.SPAN, BUDGET)

    @pytest.mark.parametrize("dd_dt", [math.nan, math.inf, -math.inf, 0.0])
    def test_slope_must_be_finite_and_nonzero(self, dd_dt):
        with pytest.raises(ValueError, match=f"dd_dt must be finite and nonzero, got {dd_dt}"):
            slope_sensitivity(_lorentz_curve(), self.SPAN, BUDGET, dd_dt)

    @pytest.mark.parametrize("span", [(2900.0, 2840.0), (2870.0, 2870.0), (math.nan, 2900.0)])
    def test_span_must_ascend(self, span):
        # A reversed span used to be called a flat spectrum.
        with pytest.raises(ValueError, match=r"span must run from low to high, got \("):
            slope_sensitivity(_lorentz_curve(), span, BUDGET)

    def test_nonpositive_signal_at_steepest_point_rejected(self):
        # A dip deeper than the baseline has no shot-noise figure.
        curve = _lorentz_curve(contrast=1.5)
        with pytest.raises(ValueError, match="steepest point must be > 0"):
            slope_sensitivity(curve, self.SPAN, BUDGET)

    def test_linewidth_is_exact_half_depth_width(self):
        # Root-finding on the curve, not interpolation between grid samples.
        report = slope_sensitivity(_lorentz_curve(), self.SPAN, BUDGET)
        assert report.inputs["fwhm_mhz"] == pytest.approx(7.92, rel=1e-9)

    def test_unresolved_width_is_null_in_json(self):
        # The dip sits on the span edge, so it has no left half-depth crossing.
        report = slope_sensitivity(_lorentz_curve(center=2840.0), self.SPAN, BUDGET)
        assert np.isnan(report.eta_linewidth)
        doc = _strict_json(report.to_json())
        assert doc["eta_linewidth_k_per_rthz"] is None
        assert doc["inputs"]["fwhm_mhz"] is None

    def test_without_linewidth_the_curve_is_evaluated_once(self):
        # The sweep's slope step: no half-depth root search, same slope figure.
        calls = []

        def curve(grid):
            calls.append(len(grid))
            return _lorentz_curve()(grid)

        full = slope_sensitivity(curve, self.SPAN, BUDGET)
        assert len(calls) > 1
        calls.clear()
        report = slope_sensitivity(curve, self.SPAN, BUDGET, linewidth=False)
        assert calls == [SLOPE_POINTS]
        assert (report.eta_slope, report.best_frequency) == (full.eta_slope, full.best_frequency)
        assert report.inputs["fwhm_mhz"] is None and np.isnan(report.eta_linewidth)

    def test_best_frequency_on_dip_flank(self):
        report = slope_sensitivity(_lorentz_curve(), self.SPAN, BUDGET)
        # Max slope of a Lorentzian sits half a HWHM off center.
        assert abs(abs(report.best_frequency - 2870.0) - 7.92 / (2 * np.sqrt(3))) < 0.05


def _dense_slope(curve_fn, span, budget, dd_dt):
    """The steepest point by a dense ``np.gradient`` and ``np.argmax``, and its figures."""
    grid = np.linspace(span[0], span[1], SLOPE_POINTS)
    curve = curve_fn(grid)
    slope = np.abs(np.gradient(curve, grid[1] - grid[0]))
    k = int(np.argmax(slope))
    eta = float(np.sqrt(curve[k] / budget.photon_rate) / (float(slope[k]) * abs(dd_dt)))
    depth = max(float(1.0 - curve[int(np.argmax(1.0 - curve))]), 0.0)
    return k, eta, float(grid[k]), depth


def _scan_curves(seed):
    """Curves on the slope grid with ties, flat stretches and steepest ends."""
    rng = np.random.default_rng(seed)
    at = np.arange(SLOPE_POINTS)
    chunk_edges = [1, SCAN_CHUNK - 1, SCAN_CHUNK, SCAN_CHUNK + 1, 4 * SCAN_CHUNK + 1, SLOPE_POINTS - 2]
    return {
        "noise": lambda g: 1.0 - 0.01 * rng.random(len(g)),
        "rounded dips": lambda g: np.round(
            lorentzian_spectrum(rng.uniform(2845, 2895, 3), rng.uniform(0.5, 8, 3), [0.05] * 3, g).signal, 3
        ),
        "flat stretch": lambda g: np.where(
            np.abs(g - 2870.0) < rng.uniform(2, 20), 0.97, _lorentz_curve(center=rng.uniform(2850, 2890))(g)
        ),
        "ramp": lambda g: 1.0 - 1e-3 * (g - g[0]),  # every slope equal up to rounding
        "steep left end": lambda g: 1.0 - 0.1 * np.exp(-(g - g[0]) / rng.uniform(0.01, 1.0)),
        "steep right end": lambda g: 1.0 - 0.1 * np.exp((g - g[-1]) / rng.uniform(0.01, 1.0)),
        "equal steps": lambda g: 1.0
        - 0.01 * (at >= rng.choice(chunk_edges))
        - 0.01 * (at >= rng.choice(chunk_edges)),
    }


class TestSlopeScan:
    """The chunked scan finds np.gradient's steepest point, to the bit."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("span", [(2840.0, 2900.0), (2845.0, 2895.0)])
    def test_equal_to_a_dense_gradient(self, seed, span):
        for name, curve in _scan_curves(seed).items():
            grid = np.linspace(span[0], span[1], SLOPE_POINTS)
            frozen = curve(grid)  # the same samples for both
            k, eta, best, depth = _dense_slope(lambda g: frozen, span, BUDGET, -0.0742)
            report = slope_sensitivity(lambda g: frozen, span, BUDGET, linewidth=False)
            assert int(np.flatnonzero(grid == report.best_frequency)[0]) == k, name
            assert report.best_frequency == best, name
            for ours, dense in ((report.eta_slope, eta), (report.inputs["contrast"], depth)):
                assert ours == dense or (math.isnan(ours) and math.isnan(dense)), name

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_refused(self, seed, bad):
        # A dense gradient would give eta_slope = NaN at the first NaN slope.
        at = np.random.default_rng(seed).integers(SLOPE_POINTS)
        span = (2840.0, 2900.0)
        curve = _lorentz_curve()(np.linspace(*span, SLOPE_POINTS))
        curve[at] = bad
        with pytest.raises(ValueError, match=f"curve must be finite, got {bad} at index {at}$"):
            slope_sensitivity(lambda g: curve, span, BUDGET)


class TestEstimateTemperature:
    ENV = PhysicalEnvironment(b_parallel=150.0)
    GRID = np.linspace(2690.0, 3050.0, 721)

    def _fit_at(self, delta_t):
        env = PhysicalEnvironment(b_parallel=150.0, temperature=300.0 + delta_t)
        clean = conventional_spectrum(env, self.GRID, fwhm=7.92, contrast=0.05)
        return fit(clean, MultiLorentzian(2))

    def test_noiseless_round_trip_exact(self):
        cal = self._fit_at(0.0)
        for delta in (-10.0, -1.0, 0.0, 1.0, 10.0):
            probe = self._fit_at(delta)
            t, _ = estimate_temperature(probe, cal, dd_dt=-0.0742, t0=300.0)
            assert t == pytest.approx(300.0 + delta, abs=1e-4)

    def test_model_family_mismatch_rejected(self):
        cal = self._fit_at(0.0)
        env = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
        drive = DriveConfig(rabi_mw=0.8, omega_rf=8.0, rabi_rf=6.0)
        grid = np.linspace(2850.0, 2890.0, 801)
        dressed = fit(
            ensemble_spectrum(env, drive, grid, 1.0, 0.3, 0.1),
            DressedDip(omega_rf=8.0, fixed_contrast=0.1),
        )
        with pytest.raises(ValueError, match="model-family mismatch"):
            estimate_temperature(dressed, cal, dd_dt=-0.0742, t0=300.0)

    def test_unconverged_rejected(self):
        cal = self._fit_at(0.0)
        probe = self._fit_at(1.0)
        probe.converged = False
        with pytest.raises(ValueError, match="converged"):
            estimate_temperature(probe, cal, dd_dt=-0.0742, t0=300.0)

    @pytest.mark.parametrize(
        "dd_dt, t0, message",
        [
            (math.nan, 300.0, "dd_dt must be finite and nonzero, got nan"),
            (math.inf, 300.0, "dd_dt must be finite and nonzero, got inf"),
            (0.0, 300.0, "dd_dt must be finite and nonzero, got 0.0"),
            (-0.0742, math.nan, "t0 must be finite, got nan"),
            (-0.0742, -math.inf, "t0 must be finite, got -inf"),
        ],
    )
    def test_no_nan_temperature(self, dd_dt, t0, message):
        cal = self._fit_at(0.0)
        with pytest.raises(ValueError, match=message):
            estimate_temperature(cal, cal, dd_dt, t0)


class TestSweepConfig:
    ENV = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
    DRIVE = DriveConfig(rabi_mw=0.8, omega_rf=8.0, rabi_rf=6.0)
    GRID = np.linspace(2850.0, 2890.0, 401)

    def _config(self, **overrides):
        kw = dict(
            axes=(("rabi_rf", (3.0, 6.0)),),
            environment=self.ENV,
            strain=StrainDistribution(8.0),
            drive=self.DRIVE,
            grid=self.GRID,
            gamma_d=0.3,
        )
        kw.update(overrides)
        return SweepConfig(**kw)

    def test_rejects_empty_axis(self):
        with pytest.raises(ValueError, match="no values"):
            self._config(axes=(("rabi_rf", ()),))

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="not sweepable"):
            self._config(axes=(("gamma_b", (1.0,)),))

    def test_rejects_three_axes(self):
        with pytest.raises(ValueError, match="one or two"):
            self._config(
                axes=(
                    ("rabi_rf", (1.0,)),
                    ("rabi_mw", (1.0,)),
                    ("laser_power_mw", (1.0,)),
                )
            )

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError, match="non-finite"):
            self._config(axes=(("rabi_rf", (1.0, float("nan"))),))

    def test_rejects_a_grid_too_short_to_fit(self):
        # Every point is fitted, and a fit needs MIN_FIT_POINTS samples.
        with pytest.raises(ValueError, match="grid must be >= 10 points for a sweep's fits, got 9"):
            self._config(grid=self.GRID[:9])
        assert self._config(grid=self.GRID[:10]).grid.size == 10

    def test_rejects_nonpositive_rates(self):
        # A zero damping rate divides by zero in the two-mode response.
        with pytest.raises(ValueError, match="gamma_b must be > 0"):
            self._config(gamma_b=0.0)
        with pytest.raises(ValueError, match="gamma_d must be > 0"):
            self._config(gamma_d=-0.1)

    def test_lindblad_generator_excludes_strain(self):
        with pytest.raises(ValueError, match="strain"):
            self._config(generator="lindblad", strain=StrainDistribution(8.0, sigma_ex=0.3))

    def test_lindblad_generator_excludes_lorentzian_fit(self):
        # A Lorentzian sweep generates conventional spectra, so the pair
        # would run without a single Lindblad solve.
        with pytest.raises(ConfigError) as caught:
            self._config(generator="lindblad", fit_model="lorentzian")
        assert caught.value.diagnostics == ["generator 'lindblad' requires fit_model 'dressed'"]

    def test_rejects_negative_seed(self):
        # numpy's SeedSequence refuses it, so every point would fail.
        with pytest.raises(ConfigError) as caught:
            self._config(seed=-1)
        assert caught.value.diagnostics == ["seed must be >= 0, got -1"]
        assert self._config(seed=0).seed == 0

    def test_rejects_repeated_axis(self):
        # The later axis would overwrite the earlier in every point, and the
        # CSV would label rows run at 12 as 3 and 6.
        with pytest.raises(ConfigError) as caught:
            self._config(axes=(("rabi_rf", (3.0, 6.0)), ("rabi_rf", (12.0,))))
        assert caught.value.diagnostics == ["axes[1] 'rabi_rf' repeats axes[0]"]


_ENV = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
_GRID = np.linspace(2850.0, 2890.0, 41)


class TestNonFiniteFields:
    @pytest.mark.parametrize(
        "build, field",
        [
            (
                lambda: ensemble_spectrum(
                    _ENV,
                    DriveConfig(rabi_mw=float("nan"), omega_rf=16.0, rabi_rf=4.0),
                    _GRID, 1.0, 0.1, 0.05,
                ),
                "rabi_mw",
            ),
            (lambda: PhysicalEnvironment(d0=float("inf")), "d0"),
            (lambda: NoiseBudget(photon_rate=float("nan")), "photon_rate"),
            (lambda: StrainDistribution(0.0, sigma_ex=float("nan")), "sigma_ex"),
            (
                lambda: SweepConfig(
                    axes=(("rabi_rf", (3.0,)),),
                    environment=_ENV,
                    strain=StrainDistribution(8.0),
                    drive=DriveConfig(),
                    grid=_GRID,
                    dwell=float("nan"),
                ),
                "dwell",
            ),
        ],
        ids=["spectrum", "environment", "budget", "strain", "sweep"],
    )
    def test_non_finite_field_rejected(self, build, field):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build()

    def test_every_bad_field_named_in_one_error(self):
        with pytest.raises(ValueError) as err:
            DriveConfig(rabi_mw=-1.0, omega_rf=float("nan"), rabi_rf=-2.0)
        assert err.value.diagnostics == [
            "rabi_mw must be >= 0, got -1.0",
            "omega_rf must be finite, got nan",
            "rabi_rf must be >= 0, got -2.0",
        ]


class TestSweep:
    ENV = PhysicalEnvironment(ex=8.0, b_transverse=80.0)

    def test_narrowing_trend(self):
        # Strong strain spread without RF protection broadens the fitted
        # line; cranking the RF drive suppresses it back down.
        config = SweepConfig(
            axes=(("rabi_rf", (3.0, 6.0, 12.0)),),
            environment=self.ENV,
            drive=DriveConfig(rabi_mw=0.6, omega_rf=16.0),
            grid=np.linspace(2845.0, 2895.0, 501),
            gamma_b=1.0,
            gamma_d=1.0,
            strain=StrainDistribution(8.0, sigma_ex=1.5),
            seed=3,
        )
        table = sweep(config, NoiseBudget(photon_rate=1e8, contrast=0.1))
        assert all(r["status"] == "ok" for r in table.rows)
        fwhm = [r["fwhm_mhz"] for r in table.rows]
        assert fwhm[0] > fwhm[1] > fwhm[2]

    def test_deterministic_output(self):
        config = SweepConfig(
            axes=(("rabi_mw", (0.5, 0.8)),),
            environment=self.ENV,
            strain=StrainDistribution(8.0),
            drive=DriveConfig(omega_rf=8.0, rabi_rf=6.0),
            grid=np.linspace(2850.0, 2890.0, 401),
            gamma_d=0.3,
            seed=12,
        )
        budget = NoiseBudget(photon_rate=1e6, contrast=0.1)
        a = sweep(config, budget).to_csv()
        b = sweep(config, budget).to_csv()
        assert a == b

    def test_failed_fit_recorded_not_dropped(self):
        config = SweepConfig(
            axes=(("rabi_mw", (1e-9,)),),  # immeasurably shallow dips
            environment=self.ENV,
            strain=StrainDistribution(8.0),
            drive=DriveConfig(omega_rf=8.0, rabi_rf=6.0),
            grid=np.linspace(2850.0, 2890.0, 401),
            seed=1,
        )
        table = sweep(config, BUDGET)
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row["status"].startswith("error:")
        assert np.isnan(row["fwhm_mhz"])
        assert ",nan," in table.to_csv()
        # The status holds a comma ("detected 0 dips, need 1"): its cell is quoted.
        header, *lines = csv.reader(table.to_csv().splitlines())
        assert header == table.columns
        assert [len(cells) for cells in lines] == [len(table.columns)]
        assert lines[0][table.columns.index("status")] == row["status"]
        json_row = _strict_json(table.to_json())["rows"][0]
        assert json_row["fwhm_mhz"] is None
        assert json_row["status"] == row["status"]

    def test_rows_read_line_properties_and_no_covariance(self, monkeypatch):
        # A row reads the fit's FWHM and depth, not its covariance, and an
        # error in the line properties is the row's status.
        def no_covariance(*args):
            raise AssertionError("a sweep row read the covariance")

        def failing(*args):
            raise ValueError("f(a) and f(b) must have different signs")

        monkeypatch.setattr(fitting, "_covariance", no_covariance)
        config = SweepConfig(
            axes=(("rabi_mw", (0.5, 0.8)),),
            environment=self.ENV,
            strain=StrainDistribution(8.0),
            drive=DriveConfig(omega_rf=8.0, rabi_rf=6.0),
            grid=np.linspace(2850.0, 2890.0, 401),
            gamma_d=0.3,
            seed=12,
        )
        budget = NoiseBudget(photon_rate=1e6, contrast=0.1)
        assert [r["status"] for r in sweep(config, budget).rows] == ["ok", "ok"]
        monkeypatch.setattr(fitting, "peak_properties", failing)
        statuses = [r["status"] for r in sweep(config, budget).rows]
        assert statuses == ["error: f(a) and f(b) must have different signs"] * 2

    def test_lindblad_generator_sits_at_strain_mean(self):
        def table(env_ex, mean_ex):
            config = SweepConfig(
                axes=(("rabi_mw", (0.8,)),),
                environment=PhysicalEnvironment(ex=env_ex, b_transverse=80.0),
                strain=StrainDistribution(mean_ex),
                drive=DriveConfig(omega_rf=8.0, rabi_rf=6.0),
                grid=np.linspace(2850.0, 2890.0, 201),
                gamma_d=0.3,
                generator="lindblad",
                seed=4,
            )
            return sweep(config, BUDGET).to_csv()

        assert table(8.0, 9.0) == table(9.0, 9.0) != table(8.0, 8.0)

    def test_laser_power_axis(self):
        config = SweepConfig(
            axes=(("laser_power_mw", (0.5, 1.0)),),
            environment=self.ENV,
            strain=StrainDistribution(8.0),
            drive=DriveConfig(rabi_mw=0.8, omega_rf=8.0, rabi_rf=6.0),
            grid=np.linspace(2850.0, 2890.0, 401),
            seed=2,
        )
        budget = NoiseBudget(
            photon_rate=1e6, contrast=0.2, rate_per_mw=2e6, pump_per_mw=2.0,
            gamma_sat=1.0,
        )
        table = sweep(config, budget)
        assert len(table.rows) == 2
        assert all(r["status"] == "ok" for r in table.rows)

    def test_csv_has_header_and_rows(self):
        config = SweepConfig(
            axes=(("rabi_mw", (0.8,)),),
            environment=self.ENV,
            strain=StrainDistribution(8.0),
            drive=DriveConfig(omega_rf=8.0, rabi_rf=6.0),
            grid=np.linspace(2850.0, 2890.0, 401),
            gamma_d=0.3,
        )
        text = sweep(config, NoiseBudget(photon_rate=1e6, contrast=0.1)).to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("rabi_mw,fwhm_mhz,")
        assert len(lines) == 2


class TestLindbladPipeline:
    """A Lindblad sweep queues its branch solves for one worker and its caller.

    No test here depends on which thread takes a branch.
    """

    BUDGET = NoiseBudget(4e6, contrast=0.05, rate_per_mw=1e6, pump_per_mw=0.5, gamma_sat=0.1)

    @staticmethod
    def _config(axes=(("rabi_rf", (2.0, 4.0)), ("rabi_mw", (0.8, 1.6))), points=81):
        # The sensitivity_map preset on a coarse grid.
        return SweepConfig(
            axes=axes,
            environment=PhysicalEnvironment(ex=8.0, b_transverse=80.0),
            drive=DriveConfig(omega_rf=12.0, rabi_rf=4.0, rabi_mw=0.8),
            grid=np.linspace(2848.0, 2892.0, points),
            strain=StrainDistribution(8.0),
            gamma_b=1.0,
            gamma_d=0.1,
            generator="lindblad",
            seed=11,
        )

    @staticmethod
    def _serial(config, budget):
        """The sweep with a direct ``oracle_spectrum`` call in each ``_sweep_point``."""
        names = [name for name, _ in config.axes]
        rows = []
        for index, combo in enumerate(itertools.product(*(v for _, v in config.axes))):
            point = dict(zip(names, map(float, combo)))
            row = dict(point)
            try:
                row.update(sensitivity._sweep_point(config, budget, point, index))
            except (FitError, ValueError, RuntimeError) as exc:
                row.update(dict.fromkeys(sensitivity.SWEEP_SCORES, float("nan")))
                row.update(converged=False, status=f"error: {exc}")
            rows.append(row)
        return SweepTable(names + [*sensitivity.SWEEP_SCORES, "converged", "status"], rows)

    def test_equal_to_direct_solves_cell_for_cell(self, monkeypatch):
        config = self._config()
        serial = self._serial(config, BUDGET).to_csv()
        direct, solve = [], oracle.oracle_spectrum

        def counted(*args):
            direct.append(args)
            return solve(*args)

        monkeypatch.setattr(oracle, "oracle_spectrum", counted)
        table = sweep(config, BUDGET)
        assert table.to_csv() == serial
        assert [r["status"] for r in table.rows] == ["ok"] * 4
        assert direct == []  # every point's branches go through the queue

    def test_errors_land_in_their_own_rows(self):
        # A pump of 5e-14 MHz leaves the steady state degenerate at point 1;
        # point 3's laser power fails before its spectrum is needed, and
        # point 4's spectrum comes after it.
        config = self._config(axes=(("laser_power_mw", (4.0, 1e-13, 4.0, -1.0, 2.0)),))
        table = sweep(config, self.BUDGET)
        status = [r["status"] for r in table.rows]
        assert status[1] == (
            "error: steady state is not unique on the upper branch at 2848.0 MHz: "
            "zero-eigenvalue multiplicity 3"
        )
        assert status[3] == "error: laser power must be > 0, got -1.0"
        assert status[0] == status[2] == status[4] == "ok"
        assert table.to_csv() == self._serial(config, self.BUDGET).to_csv()

    def test_the_upper_branchs_error_wins(self, monkeypatch):
        # Both branches of point 2 (rabi_rf 4, rabi_mw 0.8: J = 2, lambda =
        # 0.4) fail; the upper one fails last, whichever thread solves it,
        # and its error still names the row.
        depletion = oracle._branch_depletion

        def fail_point_2(h0, liouv0, model, omega_b, omega_d, branch, grid):
            if (h0[1, 2], h0[0, 1]) == (2.0, 0.4):
                if branch == "upper":
                    time.sleep(0.2)
                raise RuntimeError(f"{branch} failed")
            return depletion(h0, liouv0, model, omega_b, omega_d, branch, grid)

        monkeypatch.setattr(oracle, "_branch_depletion", fail_point_2)
        table = sweep(self._config(), BUDGET)
        assert [r["status"] for r in table.rows] == ["ok", "ok", "error: upper failed", "ok"]

    def test_no_thread_outlives_a_sweep(self, monkeypatch):
        config = self._config()
        before = threading.active_count()
        sweep(config, BUDGET)
        assert threading.active_count() == before

        # A slow solve is still running when the second point's scoring
        # raises an error that the sweep does not record.
        depletion, scores = oracle._branch_depletion, sensitivity.slope_sensitivity
        running, calls = [], []

        def slow(*args):
            running.append(1)
            time.sleep(0.2)
            try:
                return depletion(*args)
            finally:
                running.pop()

        def fail_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                deadline = time.monotonic() + 10.0
                while not running and time.monotonic() < deadline:
                    time.sleep(0.005)
                assert running, "no solve in flight"
                raise KeyError("scoring failed")
            return scores(*args, **kwargs)

        monkeypatch.setattr(oracle, "_branch_depletion", slow)
        monkeypatch.setattr(sensitivity, "slope_sensitivity", fail_second)
        with pytest.raises(KeyError, match="scoring failed"):
            sweep(config, BUDGET)
        assert threading.active_count() == before
        assert running == []

    def test_worker_runs_in_the_callers_error_state(self, monkeypatch):
        # Every branch solve, on either thread, sees the error state.
        seen = []
        depletion = oracle._branch_depletion

        def record(*args):
            seen.append((np.geterr()["over"], np.geterr()["under"]))
            return depletion(*args)

        monkeypatch.setattr(oracle, "_branch_depletion", record)
        with np.errstate(over="raise", under="warn"):
            sweep(self._config(), BUDGET)
        assert seen == [("raise", "warn")] * 8  # two branches of each of four points

    def test_concurrent_sweeps_keep_their_bits(self):
        # 3 sweeps on 2 cores, 6 threads, with a short switch interval: a
        # queue that lost a result or handed one to the wrong point would
        # change a row.
        config = self._config()
        serial = self._serial(config, BUDGET).to_csv()
        tables = [None] * 3

        def call(i):
            tables[i] = sweep(config, BUDGET).to_csv()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert tables == [serial] * 3

    def test_a_slow_worker_leaves_branches_to_the_caller(self, monkeypatch):
        config = self._config()
        serial = self._serial(config, BUDGET).to_csv()
        depletion, caller = oracle._branch_depletion, threading.current_thread()
        solved_here = []

        def slow_worker(*args):
            if threading.current_thread() is caller:
                solved_here.append(args[5])
            else:
                time.sleep(0.2)
            return depletion(*args)

        monkeypatch.setattr(oracle, "_branch_depletion", slow_worker)
        assert sweep(config, BUDGET).to_csv() == serial
        assert solved_here  # the caller took a branch instead of waiting for it

    def test_a_slow_caller_lets_the_worker_reach_the_window_edge_only(self, monkeypatch):
        window = sensitivity.BRANCH_WINDOW
        config = self._config(axes=(("rabi_mw", tuple(np.linspace(0.8, 1.6, window + 2))),))
        serial = self._serial(config, BUDGET).to_csv()
        depletion, fit_once = oracle._branch_depletion, fitting.fit
        started, queued = [], []

        def count(*args):
            started.append(1)
            return depletion(*args)

        def slow_fit(*args, **kwargs):
            # Point k's spectrum queued every point before k + window.
            edge = 2 * min(len(queued) + window, window + 2)
            queued.append(edge)
            time.sleep(0.15)
            assert len(started) == edge  # the worker reached the edge
            time.sleep(0.05)
            assert len(started) == edge  # and did not pass it
            return fit_once(*args, **kwargs)

        monkeypatch.setattr(oracle, "_branch_depletion", count)
        monkeypatch.setattr(fitting, "fit", slow_fit)
        assert sweep(config, BUDGET).to_csv() == serial
        assert len(queued) == window + 2
