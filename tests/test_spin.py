"""Tests for the spin-physics module: Hamiltonians, resonances, broadening."""

import numpy as np
import pytest

from nvtherm.lineshape import ensemble_spectrum
from nvtherm.oracle import oracle_spectrum
from nvtherm.spin import (
    BASIS_BRIGHT_DARK,
    BASIS_ZEEMAN,
    DriveConfig,
    PhysicalEnvironment,
    RegimeWarning,
    SpinMatrix,
    build_lab_hamiltonian,
    build_rotating_hamiltonian,
    branch_detunings,
    dressed_resonances,
    residual_broadening,
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
            build_rotating_hamiltonian(env, DriveConfig())

    @pytest.mark.parametrize(
        "model",
        [
            lambda env: ensemble_spectrum(env, DriveConfig(), np.array([2870.0])),
            lambda env: oracle_spectrum(env, DriveConfig(), np.array([2870.0]), 2.0),
        ],
        ids=["ensemble_spectrum", "oracle_spectrum"],
    )
    def test_spectra_share_the_regime_gate(self, model):
        # The same gate as build_rotating_hamiltonian's (tests above).
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


class TestSpinMatrix:
    def test_rejects_non_hermitian(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0  # no conjugate partner
        with pytest.raises(ValueError, match="Hermitian"):
            SpinMatrix(m, BASIS_ZEEMAN)

    def test_rejects_bad_shape_and_basis(self):
        with pytest.raises(ValueError, match="3x3"):
            SpinMatrix(np.eye(2), BASIS_ZEEMAN)
        with pytest.raises(ValueError, match="basis"):
            SpinMatrix(np.eye(3), "computational")


class TestZeroFieldSplitting:
    def test_reference_point(self):
        env = PhysicalEnvironment()
        assert zero_field_splitting(env, 300.0) == 2870.0

    def test_linear_shift(self):
        env = PhysicalEnvironment()
        assert zero_field_splitting(env, 301.0) == pytest.approx(2870.0 - 0.0742)
        assert zero_field_splitting(env, 290.0) == pytest.approx(2870.0 + 0.742)

    def test_uses_env_temperature_by_default(self):
        env = PhysicalEnvironment(temperature=310.0)
        assert zero_field_splitting(env) == pytest.approx(2870.0 - 0.742)


class TestLabHamiltonian:
    def test_bare_zero_field(self):
        env = PhysicalEnvironment()
        h = build_lab_hamiltonian(env, DriveConfig(), t=0.0)
        assert h.basis == BASIS_ZEEMAN
        np.testing.assert_allclose(h.matrix, np.diag([2870.0, 0.0, 2870.0]))

    def test_strain_splits_upper_levels(self):
        env = PhysicalEnvironment(ex=5.0)
        h = build_lab_hamiltonian(env, DriveConfig(rabi_mw=0.0), t=0.0)
        np.testing.assert_allclose(
            h.eigenvalues(), [0.0, 2865.0, 2875.0], atol=1e-9
        )

    def test_parallel_field_splits_upper_levels(self):
        env = PhysicalEnvironment(b_parallel=10.0)
        h = build_lab_hamiltonian(env, DriveConfig(), t=0.0)
        np.testing.assert_allclose(
            h.eigenvalues(), [0.0, 2860.0, 2880.0], atol=1e-9
        )

    def test_hermitian_with_all_terms(self):
        env = PhysicalEnvironment(ex=3.0, ey=0.5, b_transverse=80.0)
        drive = DriveConfig(omega_mw=2870.0, rabi_mw=1.0, omega_rf=6.0, rabi_rf=2.0)
        for t in (0.0, 0.123, 7.7):
            h = build_lab_hamiltonian(env, drive, t).matrix
            assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_drive_phase_oscillates(self):
        env = PhysicalEnvironment()
        drive = DriveConfig(omega_mw=1.0, rabi_mw=2.0)
        h0 = build_lab_hamiltonian(env, drive, t=0.0).matrix
        h_half = build_lab_hamiltonian(env, drive, t=0.5).matrix
        # cos phase flips sign after half a period (f = 1 MHz, t in us).
        assert h0[0, 1] == pytest.approx(-h_half[0, 1])


class TestRotatingHamiltonian:
    def test_off_diagonals_are_half_rabi(self):
        env = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
        drive = DriveConfig(omega_mw=2878.0, rabi_mw=0.2, omega_rf=16.0, rabi_rf=2.0)
        h = build_rotating_hamiltonian(env, drive)
        assert h.basis == BASIS_BRIGHT_DARK
        assert h.matrix[0, 1] == pytest.approx(0.1)  # lambda_b = rabi_mw/2
        assert h.matrix[1, 2] == pytest.approx(1.0)  # j = rabi_rf/2
        assert h.matrix[0, 2] == 0.0

    def test_undriven_diagonal(self):
        env = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
        drive = DriveConfig(omega_mw=2878.0, omega_rf=10.0)  # on bright resonance
        h = build_rotating_hamiltonian(env, drive).matrix
        np.testing.assert_allclose(np.diag(h).real, [0.0, 0.0, 10.0 - 16.0])

    def test_requires_transverse_mode(self):
        env = PhysicalEnvironment(b_parallel=150.0)
        with pytest.raises(ValueError, match="transverse"):
            build_rotating_hamiltonian(env, DriveConfig())

    def test_zero_block_eigenvalue_at_dressed_resonance(self):
        # With no MW drive, the {|B>,|D>} block acquires a zero eigenvalue
        # exactly when the MW frequency hits a dressed resonance.
        env = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
        d, ex, omega_rf, rabi_rf = 2870.0, 8.0, 16.0, 5.0
        for nu in dressed_resonances(d, ex, omega_rf, rabi_rf)[2:]:
            drive = DriveConfig(
                omega_mw=float(nu), omega_rf=omega_rf, rabi_rf=rabi_rf
            )
            h = build_rotating_hamiltonian(env, drive).matrix
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
        assert residual_broadening(0.0, 3.0, exact=False) == 0.0

    def test_no_drive_no_suppression(self):
        assert residual_broadening(1.0, 0.0) == pytest.approx(0.5)

    def test_exact_and_taylor_agree_in_strong_drive(self):
        # Frozen value of 0.5*(hypot(0.2, 2) - 2); Taylor gives exactly 0.005
        # and the two agree within 0.25%.
        exact = residual_broadening(0.2, 2.0)
        assert exact == pytest.approx(0.004987562112089027, rel=1e-12)
        taylor = residual_broadening(0.2, 2.0, exact=False)
        assert taylor == pytest.approx(0.005)
        assert abs(exact - taylor) / taylor < 0.0025

    def test_taylor_requires_drive(self):
        with pytest.raises(ZeroDivisionError, match="Taylor"):
            residual_broadening(0.3, 0.0, exact=False)

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
