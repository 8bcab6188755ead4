"""Tests for the Lindblad steady-state oracle and its arbitration role."""

import re
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from nvtherm import lineshape, oracle
from nvtherm.lineshape import ensemble_spectrum
from nvtherm.oracle import (
    DegenerateSteadyStateError,
    LindbladModel,
    _liouvillians,
    build_liouvillian,
    oracle_spectrum,
    steady_state,
)
from nvtherm.spin import (
    ConfigError,
    DriveConfig,
    PhysicalEnvironment,
    branch_detunings,
    dressed_resonances,
    rotating_hamiltonian_from_params,
)

ENV = PhysicalEnvironment(ex=8.0, b_transverse=80.0)


def _model(omega_b=0.0, omega_d=0.0, j=1.0, lam=0.01, pump=2.0, db=0.0, dd=0.0):
    h = rotating_hamiltonian_from_params(omega_b, omega_d, j, lam)
    return LindbladModel(h, pump, db, dd)


def _reference_liouvillian(model):
    h = model.hamiltonian
    eye = np.eye(3, dtype=complex)
    liouv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for c in model.collapse_operators():
        cdc = c.conj().T @ c
        liouv = liouv + np.kron(c, c.conj())
        liouv = liouv - 0.5 * (np.kron(cdc, eye) + np.kron(eye, cdc.T))
    return liouv


def _reference_spectrum(drive, grid, pump, db=0.0, dd=0.0, contrast=0.05):
    """One np.kron Liouvillian and one scipy null-space solve per point and branch."""
    sig = np.empty_like(grid)
    for i in range(len(grid)):
        depletion = 0.0
        for omega_b, omega_d in zip(*branch_detunings(2870.0, ENV.ex, drive.omega_rf, grid)):
            h = rotating_hamiltonian_from_params(
                omega_b[i], omega_d[i], drive.rabi_rf / 2.0, drive.rabi_mw / 2.0
            )
            liouv = _reference_liouvillian(LindbladModel(h, pump, db, dd))
            null = scipy.linalg.null_space(liouv, rcond=1e-12)
            assert null.shape[1] == 1
            rho = null[:, 0].reshape(3, 3)
            rho = rho / np.trace(rho)
            rho = 0.5 * (rho + rho.conj().T)
            depletion += 1.0 - float(np.real(rho[0, 0]))
        sig[i] = 1.0 - contrast * depletion
    return sig


class TestLindbladModel:
    def test_rejects_negative_rates(self):
        h = rotating_hamiltonian_from_params(0.0, 0.0, 1.0, 0.1)
        with pytest.raises(ValueError, match="pump_rate must be > 0, got -1.0"):
            LindbladModel(h, -1.0)
        with pytest.raises(ValueError, match="dephase_d must be >= 0, got -0.5"):
            LindbladModel(h, 1.0, dephase_d=-0.5)
        # A NaN rate passed every sign check and surfaced as a "steady
        # state is not unique" error from the solver.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"dephase_b must be finite, got {bad}"):
                LindbladModel(h, 1.0, dephase_b=bad)

    def test_requires_a_pump(self):
        # Dephasing alone conserves every population: no unique steady state.
        h = rotating_hamiltonian_from_params(0.0, 0.0, 1.0, 0.1)
        with pytest.raises(ConfigError, match=r"^pump_rate must be > 0, got 0.0$"):
            LindbladModel(h, 0.0, 1.0, 1.0)


class TestLiouvillian:
    def test_trace_preservation(self):
        liouv = build_liouvillian(_model())
        # The trace functional annihilates L: sum of rows picking out the
        # diagonal elements of rho must vanish.
        trace_row = np.zeros(9)
        trace_row[[0, 4, 8]] = 1.0
        np.testing.assert_allclose(trace_row @ liouv, 0.0, atol=1e-12)

    def test_pump_only_analytic_spectrum(self):
        # H = 0, repolarization at rate G from both upper levels:
        # populations decay at G, |0>-coherences at G/2, the upper-level
        # coherence at G; one stationary direction.
        g = 1.7
        model = _model(j=0.0, lam=0.0, pump=g)
        h0 = rotating_hamiltonian_from_params(0.0, 0.0, 0.0, 0.0)
        model = LindbladModel(h0, g)
        eigs = np.sort(np.linalg.eigvals(build_liouvillian(model)).real)
        expected = np.sort([0.0, -g, -g, -g, -g, -g / 2, -g / 2, -g / 2, -g / 2])
        np.testing.assert_allclose(eigs, expected, atol=1e-10)
        assert np.max(np.abs(np.linalg.eigvals(build_liouvillian(model)).imag)) < 1e-10

    def test_equals_kron_construction(self):
        m = _model(0.5, -0.3, 2.0, 0.2, 1.0, 0.3, 0.1)
        np.testing.assert_array_equal(build_liouvillian(m), _reference_liouvillian(m))

    @pytest.mark.parametrize(
        "pump, db, dd", [(2.0, 0.0, 0.0), (0.2, 0.9, 0.0), (0.05, 0.3, 1.1), (1.3, 0.11, 0.05)]
    )
    def test_detunings_enter_only_the_diagonal(self, pump, db, dd):
        # oracle_spectrum replays the diagonal on the undetuned generator.
        # Bits, signed zeros included, not values: the SVD sees the bits.
        rng = np.random.default_rng(8)
        h0 = rotating_hamiltonian_from_params(0.0, 0.0, 1.7, 0.4)
        model = LindbladModel(h0, pump, db, dd)
        h = np.repeat(h0[None], 500, axis=0)
        h[:, 1, 1], h[:, 2, 2] = rng.normal(0.0, 20.0, (2, 500)) * rng.integers(0, 2, (2, 500))
        full = _liouvillians(h, model)
        replayed = np.repeat(_liouvillians(h0, model)[None], 500, axis=0)
        diagonal = np.arange(9)
        replayed[:, diagonal, diagonal] = _liouvillians(h, model, diagonal=True)
        assert full.tobytes() == replayed.tobytes()

    def test_unique_zero_eigenvalue_with_dissipation(self):
        for m in (_model(), _model(0.5, -0.3, 2.0, 0.2, 1.0, 0.3, 0.1)):
            eigs = np.linalg.eigvals(build_liouvillian(m))
            assert int(np.sum(np.abs(eigs) < 1e-10)) == 1


class TestSteadyState:
    def test_no_drive_pumps_to_ground(self):
        rho = steady_state(_model(lam=0.0))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_density_matrix_properties(self):
        rho = steady_state(_model(0.4, -0.6, 1.5, 0.3, 1.0, 0.2, 0.05))
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(rho)) > -1e-10

    def test_degenerate_case_reported(self):
        # A 1e-30 pump against unit dephasing: the SVD cannot resolve the
        # unique state from the populations that dephasing alone conserves,
        # and the multiplicity is named.
        h0 = rotating_hamiltonian_from_params(0.0, 0.0, 0.0, 0.0)
        model = LindbladModel(h0, 1e-30, 1.0, 1.0)
        with pytest.raises(DegenerateSteadyStateError) as err:
            steady_state(model)
        assert err.value.multiplicity > 1

    def test_uniqueness_check_is_scale_free(self):
        # Scaling H and every rate by one factor scales L and leaves its
        # null vector alone; an absolute cutoff on L's spectrum would call
        # the 1e-10 case degenerate.
        args = (0.4, -0.6, 1.5, 0.3, 1.0, 0.2, 0.05)
        rho = steady_state(_model(*args))
        for scale in (1e-10, 1e-11, 1e6):
            scaled = steady_state(_model(*(scale * a for a in args)))
            np.testing.assert_allclose(scaled, rho, rtol=0, atol=1e-12)

    def test_weak_drive_matches_closed_form(self):
        from nvtherm.lineshape import p0

        pump = 2.0  # gamma_b = gamma_d = 1 under the pump-only mapping
        for omega_b, omega_d in [(0.0, 0.0), (1.0, -2.0), (3.0, 0.5)]:
            rho = steady_state(_model(omega_b, omega_d, 1.0, 0.01, pump))
            depletion = 1.0 - rho[0, 0].real
            ref = 1.0 - p0(omega_b, omega_d, 1.0, 0.01, 1.0, 1.0)
            assert depletion == pytest.approx(ref, rel=0.01)


class TestOracleSpectrum:
    GRID = np.linspace(2855.0, 2885.0, 121)
    DRIVE = DriveConfig(rabi_mw=0.02, omega_rf=16.0, rabi_rf=4.0)

    def test_zero_contrast_flat(self):
        s = oracle_spectrum(ENV, self.DRIVE, self.GRID[:11], 2.0, contrast=0.0)
        np.testing.assert_array_equal(s.signal, np.ones(11))

    @pytest.mark.parametrize(
        "drive, grid, pump, dephase_b",
        [
            # sensitivity_map point 9 (rabi_rf=2, rabi_mw=3.2)
            (
                DriveConfig(rabi_mw=3.2, omega_rf=12.0, rabi_rf=2.0),
                np.linspace(2848.0, 2892.0, 441),
                0.2,
                0.9,
            ),
            # oracle_weak_drive
            (DRIVE, np.linspace(2855.0, 2885.0, 400), 2.0, 0.0),
        ],
        ids=["sensitivity_map_point_9", "oracle_weak_drive"],
    )
    def test_bit_identical_to_per_point_null_space(self, drive, grid, pump, dephase_b):
        # Exact, not approximate: the closed-form fit of sensitivity_map
        # point 9 has two local minima (FWHM ~29 MHz and ~0.007 MHz), and a
        # 2-ulp change in this spectrum flips the noisy fit between them for
        # about half of the seeds.
        batched = oracle_spectrum(ENV, drive, grid, pump, dephase_b=dephase_b)
        np.testing.assert_array_equal(
            batched.signal, _reference_spectrum(drive, grid, pump, dephase_b)
        )

    def test_degenerate_point_raises(self):
        # Without MW drive and with a 1e-30 pump, |0> decouples from the
        # dephased B/D pair to the SVD's cutoff: two stationary states, on
        # both branches at every point; the upper branch's error wins.
        drive = DriveConfig(rabi_mw=0.0, omega_rf=16.0, rabi_rf=4.0)
        with pytest.raises(DegenerateSteadyStateError) as err:
            oracle_spectrum(ENV, drive, self.GRID[:5], 1e-30, 1.0, 1.0)
        assert err.value.multiplicity == 2
        assert (err.value.branch, err.value.frequency) == ("upper", 2855.0)
        assert "on the upper branch at 2855.0 MHz: zero-eigenvalue multiplicity 2" in str(err.value)

    @staticmethod
    def _degenerate_on(monkeypatch, drive, grid, failing):
        """Put a degenerate generator at ``failing[branch]`` into the named
        branches' stacks only; return its multiplicity."""
        real = oracle._steady_states
        (upper_b, mirror_b), _ = branch_detunings(2870.0, ENV.ex, drive.omega_rf, grid)
        # Dephasing without drive and with a 1e-30 pump: to the SVD's cutoff
        # |0> and the B/D populations are all stationary.
        stuck = build_liouvillian(LindbladModel(np.zeros((3, 3), dtype=complex), 1e-30, 1.0, 1.0))

        def steady_states(liouv, block=3):
            # Entry (0, 1) of rho turns at the bright detuning, so the
            # stack's [1, 1] diagonal says which branch it is.
            is_mirror = np.allclose(liouv[:, 1, 1].imag, mirror_b)
            assert is_mirror or np.allclose(liouv[:, 1, 1].imag, upper_b)
            index = failing.get("mirror" if is_mirror else "upper")
            if index is not None:
                liouv = liouv.copy()
                liouv[index] = stuck
            return real(liouv, block)

        monkeypatch.setattr(oracle, "_steady_states", steady_states)
        with pytest.raises(DegenerateSteadyStateError) as err:
            real(stuck)
        return err.value.multiplicity

    def test_mirror_failure_reaches_the_caller(self, monkeypatch):
        grid = self.GRID[:7]
        multiplicity = self._degenerate_on(monkeypatch, self.DRIVE, grid, {"mirror": 4})
        with pytest.raises(DegenerateSteadyStateError) as err:
            oracle_spectrum(ENV, self.DRIVE, grid, 2.0)
        assert err.value.multiplicity == multiplicity > 1
        assert (err.value.branch, err.value.index, err.value.frequency) == ("mirror", 4, grid[4])
        assert f"on the mirror branch at {grid[4]} MHz" in str(err.value)

    def test_upper_failure_wins_over_mirror(self, monkeypatch):
        grid = self.GRID[:7]
        self._degenerate_on(monkeypatch, self.DRIVE, grid, {"upper": 5, "mirror": 1})
        with pytest.raises(DegenerateSteadyStateError) as err:
            oracle_spectrum(ENV, self.DRIVE, grid, 2.0)
        assert (err.value.branch, err.value.frequency) == ("upper", grid[5])

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({1: np.nan}, "frequencies must be finite, got nan at index 1"),
            ({1: np.inf}, "frequencies must be finite, got inf at index 1"),
            ({3: -np.inf}, "frequencies must be finite, got -inf at index 3"),
            ({2: 2855.0}, "frequencies must be strictly ascending"),
        ],
        ids=["nan", "inf", "-inf", "not_ascending"],
    )
    def test_bad_grid_refused_before_any_solve(self, monkeypatch, bad, message):
        # Refused as Spectrum refuses it, with the closed form's message;
        # a NaN grid used to end in "SVD did not converge" after
        # RuntimeWarnings, and a descending one after both SVD stacks.
        grid = self.GRID[:6].copy()
        for index, value in bad.items():
            grid[index] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            ensemble_spectrum(ENV, self.DRIVE, grid)

        def no_solve(*args, **kwargs):
            raise AssertionError("solved a refused grid")

        monkeypatch.setattr(oracle, "_liouvillians", no_solve)
        monkeypatch.setattr(lineshape.threading, "Thread", no_solve)
        with pytest.raises(ValueError, match=re.escape(message)):
            oracle_spectrum(ENV, self.DRIVE, grid, 2.0)

    def test_worker_runs_in_the_callers_numpy_error_state(self, monkeypatch):
        real = oracle._steady_states
        seen = []

        def steady_states(liouv, block=3):
            seen.append(np.geterr()["invalid"])
            return real(liouv, block)

        monkeypatch.setattr(oracle, "_steady_states", steady_states)
        with np.errstate(invalid="raise"):
            oracle_spectrum(ENV, self.DRIVE, self.GRID[:5], 2.0)
        assert seen == ["raise", "raise"]


    def test_weak_drive_equivalence(self):
        brute = oracle_spectrum(ENV, self.DRIVE, self.GRID, pump_rate=2.0)
        closed = ensemble_spectrum(ENV, self.DRIVE, self.GRID, gamma_b=1.0, gamma_d=1.0)
        a = 1.0 - closed.signal
        b = 1.0 - brute.signal
        rel_rms = np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(a**2))
        assert rel_rms < 0.01

    def test_four_minima_at_dressed_resonances(self):
        from scipy.signal import find_peaks

        grid = np.linspace(2855.0, 2885.0, 1501)
        drive = DriveConfig(rabi_mw=0.05, omega_rf=16.0, rabi_rf=5.0)
        s = oracle_spectrum(ENV, drive, grid, pump_rate=0.2)
        depth = 1.0 - s.signal
        idx, _ = find_peaks(depth, prominence=0.1 * depth.max())
        expected = dressed_resonances(2870.0, 8.0, 16.0, 5.0)
        assert len(idx) == 4
        np.testing.assert_allclose(grid[idx], expected, atol=0.05)

    def test_dark_sign_discrimination(self):
        # The corrected dark-mode detuning (D - E_x) reproduces the dressed
        # resonances (test_four_minima_at_dressed_resonances); the flipped
        # sign, built here by hand, does not.  This arbitration is the
        # oracle's reason to exist.
        from scipy.signal import find_peaks

        grid = np.linspace(2855.0, 2885.0, 1501)
        expected = dressed_resonances(2870.0, 8.0, 16.0, 5.0)
        depth = np.zeros_like(grid)
        for ex, omega_rf in ((8.0, 16.0), (-8.0, -16.0)):
            for i, nu in enumerate(grid):
                omega_b = 2870.0 + ex - nu
                flipped = omega_b + omega_rf  # D + E_x - nu + omega_rf
                rho = steady_state(_model(omega_b, flipped, 2.5, 0.025, 0.2))
                depth[i] += 1.0 - rho[0, 0].real
        idx, _ = find_peaks(depth, prominence=0.1 * depth.max())
        found = grid[idx]
        # At least one expected resonance has no dip anywhere near it.
        worst = max(np.min(np.abs(found[:, None] - expected[None, :]), axis=0).max(), 0)
        assert worst > 0.5


class TestOracleThreads:
    """A spectrum is solved on the thread that asks for it and shares nothing."""

    POINT_9 = (DriveConfig(rabi_mw=3.2, omega_rf=12.0, rabi_rf=2.0), np.linspace(2848.0, 2892.0, 441))

    def test_starts_no_thread(self, monkeypatch):
        def no_worker(*args, **kwargs):
            raise AssertionError("oracle_spectrum started a worker")

        monkeypatch.setattr(lineshape.threading, "Thread", no_worker)
        drive, grid = self.POINT_9
        before = threading.active_count()
        oracle_spectrum(ENV, drive, grid, 0.2, dephase_b=0.9)
        stuck = DriveConfig(rabi_mw=0.0, omega_rf=16.0, rabi_rf=4.0)
        with pytest.raises(DegenerateSteadyStateError):
            oracle_spectrum(ENV, stuck, grid[:5], 1e-30, 1.0, 1.0)
        assert threading.active_count() == before

    def test_concurrent_callers_get_a_lone_calls_bits(self):
        # 4 callers on 2 cores with a short switch interval: a branch that
        # wrote into another call's stack, or a caller that read another
        # call's mirror, would change bits.
        drive, grid = self.POINT_9
        lone = oracle_spectrum(ENV, drive, grid, 0.2, dephase_b=0.9).signal
        results = [None] * 4

        def call(i):
            results[i] = oracle_spectrum(ENV, drive, grid, 0.2, dephase_b=0.9).signal

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
