"""Tests for sensitivity figures, temperature estimation, and sweeps."""

import csv
import json
import math

import numpy as np
import pytest

from nvtherm.fitting import DressedDip, MultiLorentzian, fit
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
        "nan": lambda g: np.where(at == rng.integers(SLOPE_POINTS), np.nan, _lorentz_curve()(g)),
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

    def test_rejects_nonpositive_rates(self):
        # A zero damping rate divides by zero in the two-mode response.
        with pytest.raises(ValueError, match="gamma_b must be > 0"):
            self._config(gamma_b=0.0)
        with pytest.raises(ValueError, match="gamma_d must be > 0"):
            self._config(gamma_d=-0.1)

    def test_lindblad_generator_excludes_strain(self):
        with pytest.raises(ValueError, match="strain"):
            self._config(generator="lindblad", strain=StrainDistribution(8.0, sigma_ex=0.3))


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
