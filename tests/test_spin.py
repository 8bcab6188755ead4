"""Tests for the spin-physics module: Hamiltonians, resonances, broadening."""

import math
from dataclasses import replace

import numpy as np
import pytest

from nvtherm.lineshape import ensemble_spectrum
from nvtherm.oracle import oracle_spectrum
from nvtherm.spin import (
    MAX_RABI,
    DriveConfig,
    PhysicalEnvironment,
    RegimeWarning,
    branch_detunings,
    dressed_resonances,
    require_dressed_mode,
    residual_broadening,
    rotating_hamiltonian_from_params,
    zero_field_splitting,
)


class TestPhysicalEnvironment:
    def test_defaults(self):
        env = PhysicalEnvironment()
        assert env.d0 == 2870.0
        assert env.t0 == 300.0
        assert env.dd_dt == pytest.approx(-0.0742)

    def test_rejects_nonpositive_d0(self):
        with pytest.raises(ValueError, match="d0"):
            PhysicalEnvironment(d0=0.0)

    def test_rejects_both_field_modes(self):
        with pytest.raises(ValueError, match="exactly one"):
            PhysicalEnvironment(b_transverse=80.0, b_parallel=10.0)

    def test_mode_flags(self):
        assert PhysicalEnvironment(b_transverse=80.0).is_transverse_mode
        assert not PhysicalEnvironment(b_parallel=150.0).is_transverse_mode

    def test_regime_check_reports_violations(self):
        bad = PhysicalEnvironment(d0=100.0, b_transverse=80.0)
        assert bad.check_dressed_regime()
        good = PhysicalEnvironment(b_transverse=80.0, ey=0.5)
        assert good.check_dressed_regime() == []

    def test_regime_violation_warns_not_raises(self):
        env = PhysicalEnvironment(b_transverse=80.0, ey=40.0)
        with pytest.warns(RegimeWarning):
            require_dressed_mode(env)

    @pytest.mark.parametrize(
        "model",
        [
            lambda env: ensemble_spectrum(env, DriveConfig(), np.array([2870.0])),
            lambda env: oracle_spectrum(env, DriveConfig(), np.array([2870.0]), 2.0),
        ],
        ids=["ensemble_spectrum", "oracle_spectrum"],
    )
    def test_spectra_share_the_regime_gate(self, model):
        # The same gate as require_dressed_mode's (tests above and below).
        with pytest.raises(ValueError, match="transverse"):
            model(PhysicalEnvironment(b_parallel=150.0))
        with pytest.warns(RegimeWarning, match="ey"):
            model(PhysicalEnvironment(b_transverse=80.0, ey=40.0))


class TestDriveConfig:
    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError):
            DriveConfig(rabi_mw=-1.0)
        with pytest.raises(ValueError):
            DriveConfig(rabi_rf=-0.1)
        with pytest.raises(ValueError):
            DriveConfig(omega_rf=-5.0)

    def test_rejects_amplitudes_whose_half_squares_overflow(self):
        # The closed form squares lambda_b = rabi_mw / 2 and J = rabi_rf / 2.
        largest = math.nextafter(MAX_RABI, 0.0)
        drive = DriveConfig(rabi_mw=largest, rabi_rf=largest)
        assert math.isfinite((drive.rabi_rf / 2.0) ** 2)  # a Python float's pow raises on overflow
        with pytest.raises(OverflowError):
            (MAX_RABI / 2.0) ** 2
        with pytest.raises(ValueError, match=r"^rabi_mw must be < 2.68156e\+154, got 2.68"):
            DriveConfig(rabi_mw=MAX_RABI)
        with pytest.raises(ValueError, match=r"^rabi_rf must be < 2.68156e\+154, got 1e\+300$"):
            DriveConfig(rabi_rf=1e300)


class TestZeroFieldSplitting:
    def test_reference_point(self):
        env = PhysicalEnvironment(temperature=300.0)
        assert zero_field_splitting(env) == 2870.0

    def test_linear_shift(self):
        env = PhysicalEnvironment()
        assert zero_field_splitting(replace(env, temperature=301.0)) == pytest.approx(
            2870.0 - 0.0742
        )
        assert zero_field_splitting(replace(env, temperature=290.0)) == pytest.approx(
            2870.0 + 0.742
        )

    def test_uses_env_temperature_by_default(self):
        env = PhysicalEnvironment(temperature=310.0)
        assert zero_field_splitting(env) == pytest.approx(2870.0 - 0.742)


def _upper_branch_hamiltonian(d, ex, omega_mw, rabi_mw, omega_rf, rabi_rf):
    """The rotating-frame matrix of the upper dressed branch, as the oracle builds it."""
    omega_b, omega_d = branch_detunings(d, ex, omega_rf, omega_mw)
    return rotating_hamiltonian_from_params(
        omega_b[0, 0], omega_d[0, 0], rabi_rf / 2.0, rabi_mw / 2.0
    )


class TestRotatingHamiltonian:
    def test_off_diagonals_are_half_rabi(self):
        h = _upper_branch_hamiltonian(2870.0, 8.0, 2878.0, 0.2, 16.0, 2.0)
        assert h.shape == (3, 3)
        assert h[0, 1] == h[1, 0] == pytest.approx(0.1)  # lambda_b = rabi_mw/2
        assert h[1, 2] == h[2, 1] == pytest.approx(1.0)  # j = rabi_rf/2
        assert h[0, 2] == h[2, 0] == 0.0

    def test_undriven_diagonal(self):
        # MW on the bright resonance D + ex, RF 6 MHz short of two-photon resonance.
        h = _upper_branch_hamiltonian(2870.0, 8.0, 2878.0, 0.0, 10.0, 0.0)
        np.testing.assert_allclose(np.diag(h).real, [0.0, 0.0, 10.0 - 16.0])

    def test_requires_transverse_mode(self):
        env = PhysicalEnvironment(b_parallel=150.0)
        with pytest.raises(ValueError, match="transverse"):
            require_dressed_mode(env)

    def test_zero_block_eigenvalue_at_dressed_resonance(self):
        # With no MW drive, the {|B>,|D>} block acquires a zero eigenvalue
        # exactly when the MW frequency hits a dressed resonance.
        d, ex, omega_rf, rabi_rf = 2870.0, 8.0, 16.0, 5.0
        for nu in dressed_resonances(d, ex, omega_rf, rabi_rf)[2:]:
            h = _upper_branch_hamiltonian(d, ex, float(nu), 0.0, omega_rf, rabi_rf)
            block = h[1:, 1:].real
            assert np.min(np.abs(np.linalg.eigvalsh(block))) < 1e-9


class TestDriveDetunings:
    def test_sign_convention(self):
        omega_b, omega_d = branch_detunings(2870.0, 8.0, 16.0, 2878.0)
        assert omega_b[0, 0] == pytest.approx(0.0)  # on bright resonance D + ex
        assert omega_d[0, 0] == pytest.approx(0.0)  # two-photon resonance at 2ex
        # The mirror branch (ex -> -ex, omega_rf -> -omega_rf) comes second.
        assert (omega_b[1, 0], omega_d[1, 0]) == pytest.approx((-16.0, -16.0))


class TestDressedResonances:
    def test_zero_drive_degenerate_pairs(self):
        np.testing.assert_allclose(
            dressed_resonances(2870.0, 5.0, 10.0, 0.0),
            [2865.0, 2865.0, 2875.0, 2875.0],
        )

    def test_hand_evaluated_splitting(self):
        np.testing.assert_allclose(
            dressed_resonances(2870.0, 5.0, 10.0, 2.0),
            [2864.0, 2866.0, 2874.0, 2876.0],
        )

    def test_no_rf_reduces_to_strain_doublet(self):
        np.testing.assert_allclose(
            dressed_resonances(2870.0, 5.0, 0.0, 0.0),
            [2865.0, 2865.0, 2875.0, 2875.0],
        )

    def test_sorted_ascending(self):
        out = dressed_resonances(2870.0, 8.0, 16.0, 5.0)
        assert np.all(np.diff(out) >= 0)

    def test_symmetric_under_rabi_sign(self):
        a = dressed_resonances(2870.0, 8.0, 16.0, 5.0)
        b = dressed_resonances(2870.0, 8.0, 16.0, -5.0)
        np.testing.assert_array_equal(a, b)


class TestResidualBroadening:
    def test_zero_spread_is_zero(self):
        assert residual_broadening(0.0, 3.0) == 0.0

    def test_no_drive_no_suppression(self):
        assert residual_broadening(1.0, 0.0) == pytest.approx(0.5)

    def test_exact_and_taylor_agree_in_strong_drive(self):
        # Frozen value of 0.5*(hypot(0.2, 2) - 2); the Taylor form
        # 0.2**2 / (4 * 2) gives 0.005, and the two agree within 0.25%.
        exact = residual_broadening(0.2, 2.0)
        assert exact == pytest.approx(0.004987562112089027, rel=1e-12)
        taylor = 0.25 * 0.2**2 / 2.0
        assert abs(exact - taylor) / taylor < 0.0025

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            residual_broadening(-0.1, 1.0)
        with pytest.raises(ValueError):
            residual_broadening(0.1, -1.0)

    def test_strictly_decreasing_in_drive(self):
        omegas = np.linspace(0.5, 50.0, 200)
        values = [residual_broadening(0.3, om) for om in omegas]
        assert np.all(np.diff(values) < 0)

    def test_asymptotic_quarter_law(self):
        delta = 0.3
        for omega in (20 * delta, 100 * delta, 1000 * delta):
            product = residual_broadening(delta, omega) * omega
            assert product == pytest.approx(delta**2 / 4.0, rel=0.01)
