"""End-to-end acceptance gate.

Each test prints one ``ACCEPTANCE <n> (<name>): PASS`` / ``FAIL`` line
(run pytest with ``-s`` to see them) and enforces the stated tolerance.
"""

import json
import time
import warnings
from contextlib import contextmanager
from importlib.resources import files
from pathlib import Path

import numpy as np

from nvtherm import cli, fitting, lineshape, oracle, sensitivity, spin
from nvtherm.lineshape import StrainDistribution
from nvtherm.spin import DriveConfig, PhysicalEnvironment, dressed_resonances

PRESET_DIR = Path(str(files("nvtherm") / "presets"))

warnings.filterwarnings("ignore", category=spin.RegimeWarning)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def _preset(name):
    return json.loads((PRESET_DIR / name).read_text())


def _env_drive_grid(doc):
    env = PhysicalEnvironment(**doc.get("environment", {}))
    drive = DriveConfig(**doc.get("drive", {}))
    g = doc["grid"]
    grid = np.linspace(g["start_mhz"], g["stop_mhz"], g["points"])
    return env, drive, grid


def test_acceptance_1_response_poles_match_dressed_resonances():
    """Poles of the two-mode response land on the dressed-resonance ladder.

    1000 random parameter sets; the two complex poles (damping 1e-6) must
    each match one of the four dressed resonances within 1e-6 MHz.
    """
    with criterion(1, "dressed-resonance agreement"):
        rng = np.random.default_rng(2024)
        n = 1000
        d = rng.uniform(2800.0, 2900.0, n)
        ex = rng.uniform(0.0, 20.0, n)
        omega_rf = rng.uniform(0.0, 40.0, n)
        rabi_rf = rng.uniform(0.0, 10.0, n)
        gamma = 1e-6

        start = time.perf_counter()
        a = d + ex  # bright resonance
        b = d - ex + omega_rf  # dark two-photon resonance
        j = rabi_rf / 2.0
        # nu^2 - (a + b - 2i*gamma) nu + (a - i*gamma)(b - i*gamma) - j^2 = 0
        sum_ab = a + b - 2.0j * gamma
        prod = (a - 1j * gamma) * (b - 1j * gamma) - j**2
        disc = np.sqrt(sum_ab**2 - 4.0 * prod)
        poles = np.stack([(sum_ab + disc) / 2.0, (sum_ab - disc) / 2.0])

        ladder = np.stack(
            [dressed_resonances(d[i], ex[i], omega_rf[i], rabi_rf[i]) for i in range(n)]
        )  # (n, 4)
        dist = np.abs(poles.real[:, :, None] - ladder[None, :, :])
        # each of the two poles must sit on some rung within 1e-6
        worst = dist.min(axis=2).max()
        elapsed = time.perf_counter() - start
        assert worst < 1e-6, f"worst pole-to-resonance distance {worst:.3e} MHz"
        assert elapsed < 10.0, f"runtime {elapsed:.1f} s exceeds 10 s"


def test_acceptance_2_lindblad_oracle_equivalence():
    """Closed-form and master-equation spectra agree on the weak-drive preset."""
    with criterion(2, "oracle equivalence"):
        doc = _preset("oracle_weak_drive.json")
        env, drive, grid = _env_drive_grid(doc)
        pump = doc["oracle"]["pump_rate"]
        contrast = doc.get("contrast", 0.05)
        start = time.perf_counter()
        closed = lineshape.ensemble_spectrum(
            env, drive, grid, pump / 2.0, pump / 2.0, contrast
        )
        brute = oracle.oracle_spectrum(env, drive, grid, pump, contrast=contrast)
        a = 1.0 - closed.signal
        b = 1.0 - brute.signal
        rel_rms = float(np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(a**2)))
        elapsed = time.perf_counter() - start
        assert len(grid) == 400
        assert rel_rms < 0.01, f"relative RMS {rel_rms:.3e}"
        assert elapsed < 30.0, f"runtime {elapsed:.1f} s exceeds 30 s"


def test_acceptance_3_strain_narrowing_law():
    """Fitted residual linewidth excess follows the quarter-square law.

    A strain ensemble with 0.3 MHz detuning spread is generated for four RF
    drive strengths; the full model with free strain spread is fitted on
    dense windows around the four dips (seeded at the generator values) and
    the implied excess must match 0.25 * spread^2 / drive within 15% for
    the two strongest drives, decreasing strictly throughout.
    """
    with criterion(3, "narrowing law"):
        delta_ex = 0.3
        sigma = delta_ex / 2.0  # spread of the two-photon detuning is 2*sigma
        env = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
        dist = StrainDistribution(8.0, sigma_ex=sigma, nodes=21)
        gamma_b, gamma_d = 1.0, 0.01
        drives = [3.0, 6.0, 12.0, 24.0]
        excesses, predictions = [], []
        for om in drives:
            centers = dressed_resonances(2870.0, 8.0, 16.0, om)
            grid = np.unique(
                np.concatenate(
                    [np.linspace(c - 0.6, c + 0.6, 601) for c in centers]
                )
            )
            drive = DriveConfig(rabi_mw=0.5, omega_rf=16.0, rabi_rf=om)
            ens = lineshape.ensemble_spectrum(
                env, drive, grid, gamma_b, gamma_d, 0.05, dist
            )
            model = fitting.DressedDip(omega_rf=16.0, fit_sigma_ex=True)
            guess = np.array([2870.0, 8.0, om, 0.5, gamma_b, gamma_d, sigma])
            res = fitting.fit(ens, model, guess)
            assert res.converged, f"strain fit did not converge at drive {om}"
            excess = spin.residual_broadening(
                2.0 * res.param("sigma_ex"), res.param("rabi_rf")
            )
            excesses.append(excess)
            predictions.append(0.25 * delta_ex**2 / om)
        assert np.all(np.diff(excesses) < 0), f"not strictly decreasing: {excesses}"
        for om, got, want in list(zip(drives, excesses, predictions))[-2:]:
            assert abs(got - want) / want < 0.15, (
                f"drive {om}: excess {got:.3g} vs law {want:.3g}"
            )


def test_acceptance_4_sensitivity_ratio_regime():
    """Linewidth-pair ratios sit near 4x; the sharp dip buys >= 6x overall."""
    with criterion(4, "sensitivity ratio regime"):
        budget = sensitivity.NoiseBudget(photon_rate=1e6)
        pairs = [
            (10.7, 2.47),
            (8.62, 2.10),
            (7.92, 1.91),
            (7.29, 1.79),
            (6.69, 1.67),
        ]
        for wide, narrow in pairs:
            ratio = sensitivity.linewidth_sensitivity(
                wide, 0.05, budget
            ) / sensitivity.linewidth_sensitivity(narrow, 0.05, budget)
            assert 3.9 <= ratio <= 4.4, f"pair ({wide}, {narrow}): ratio {ratio:.3f}"

        # Combined: conventional 7.92-MHz line read by the linewidth method
        # vs the sharp-dip dressed spectrum read at its steepest point.
        env = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
        drive = DriveConfig(rabi_mw=1.35, omega_rf=16.0, rabi_rf=5.0)
        contrast = 0.05

        def dressed_curve(grid):
            return lineshape.ensemble_spectrum(
                env, drive, grid, 1.0, 0.01, contrast
            ).signal

        eta_conventional = sensitivity.linewidth_sensitivity(7.92, contrast, budget)
        report = sensitivity.slope_sensitivity(
            dressed_curve, (2855.0, 2885.0), budget
        )
        combined = eta_conventional / report.eta_slope
        assert combined >= 6.0, f"combined ratio {combined:.2f} < 6"
        assert combined <= 9.1, f"combined ratio {combined:.2f} above 7x + 30%"


def _dressed_trial_spectrum():
    env = PhysicalEnvironment(ex=8.0, b_transverse=80.0)
    drive = DriveConfig(rabi_mw=0.8, omega_rf=8.0, rabi_rf=6.0)
    grid = np.linspace(2850.0, 2890.0, 801)
    return lineshape.ensemble_spectrum(env, drive, grid, 1.0, 0.3, 0.1)


def test_acceptance_5_temperature_round_trip():
    """A 5 K step is recovered within 3 sigma on at least 19 of 20 seeds."""
    with criterion(5, "temperature round trip"):
        drive = DriveConfig(rabi_mw=0.8, omega_rf=8.0, rabi_rf=6.0)
        grid = np.linspace(2850.0, 2890.0, 801)
        model = fitting.DressedDip(omega_rf=8.0, fixed_contrast=0.1)

        def measured(temperature, seed):
            env = PhysicalEnvironment(
                ex=8.0, b_transverse=80.0, temperature=temperature
            )
            clean = lineshape.ensemble_spectrum(env, drive, grid, 1.0, 0.3, 0.1)
            return lineshape.synthesize_measurement(clean, 1e6, 1.0, seed)

        hits = 0
        misses = []
        for s in range(20):
            cal = fitting.fit(measured(300.0, 1000 + s), model)
            hot = fitting.fit(measured(305.0, 2000 + s), model)
            t, unc = sensitivity.estimate_temperature(hot, cal, -0.0742, 300.0)
            if abs(t - 305.0) <= 3.0 * unc:
                hits += 1
            else:
                misses.append((s, t, unc))
        assert hits >= 19, f"{hits}/20 seeds within 3 sigma; misses: {misses}"


def test_acceptance_6_monte_carlo_parameter_recovery():
    """Blind fits recover every generator parameter within 3 sigma >= 95/100."""
    with criterion(6, "fit recovery"):
        # Four-dip family.
        clean = _dressed_trial_spectrum()
        model = fitting.DressedDip(omega_rf=8.0, fixed_contrast=0.1)
        truth = {
            "d": 2870.0,
            "ex": 8.0,
            "rabi_rf": 6.0,
            "rabi_mw": 0.8,
            "gamma_b": 1.0,
            "gamma_d": 0.3,
        }
        good = 0
        for s in range(100):
            noisy = lineshape.synthesize_measurement(clean, 1e6, 1.0, 5000 + s)
            try:
                res = fitting.fit(noisy, model)
            except fitting.FitError:
                continue
            good += res.converged and all(
                abs(res.param(k) - v) <= 3.0 * max(res.uncertainty(k), 1e-12)
                for k, v in truth.items()
            )
        assert good >= 95, f"dressed family: {good}/100 full-coverage trials"

        # Two-dip Lorentzian family.
        env = PhysicalEnvironment(b_parallel=150.0)
        grid = np.linspace(2690.0, 3050.0, 721)
        clean = lineshape.conventional_spectrum(env, grid, 7.92, 0.05)
        mlor = fitting.MultiLorentzian(2)
        truth = {
            "baseline": 1.0,
            "center_1": 2720.0,
            "width_1": 7.92,
            "depth_1": 0.05,
            "center_2": 3020.0,
            "width_2": 7.92,
            "depth_2": 0.05,
        }
        good = 0
        for s in range(100):
            noisy = lineshape.synthesize_measurement(clean, 1e6, 1.0, 6000 + s)
            try:
                res = fitting.fit(noisy, mlor)
            except fitting.FitError:
                continue
            good += res.converged and all(
                abs(res.param(k) - v) <= 3.0 * max(res.uncertainty(k), 1e-12)
                for k, v in truth.items()
            )
        assert good >= 95, f"Lorentzian family: {good}/100 full-coverage trials"


def test_acceptance_7_cross_method_consistency():
    """Slope and linewidth sensitivities agree within 5% on one Lorentzian."""
    with criterion(7, "cross-method consistency"):
        budget = sensitivity.NoiseBudget(photon_rate=1e6)

        def curve(grid):
            return lineshape.lorentzian_spectrum(
                [2870.0], [7.92], [0.05], grid
            ).signal

        report = sensitivity.slope_sensitivity(curve, (2840.0, 2900.0), budget)
        eta_lw = sensitivity.linewidth_sensitivity(7.92, 0.05, budget)
        rel = abs(report.eta_slope - eta_lw) / eta_lw
        assert rel < 0.05, f"methods differ by {100 * rel:.2f}%"


def test_acceptance_8_sweep_determinism(tmp_path):
    """Identical sweep config and seed produce byte-identical CSV output."""
    with criterion(8, "determinism"):
        preset = str(PRESET_DIR / "fig5_narrowing.json")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli.main(["sweep", "--config", preset, "--out", str(out_a)]) == 0
        assert cli.main(["sweep", "--config", preset, "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
