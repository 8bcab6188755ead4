"""Tests for the command-line interface: validation, runners, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from nvtherm.cli import ConfigError, load_config, main, validate_config
from nvtherm.spin import RegimeWarning

PRESET_DIR = Path(str(files("nvtherm") / "presets"))
PRESETS = sorted(PRESET_DIR.glob("*.json"))


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def _write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidation:
    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.stem)
    def test_shipped_presets_are_valid(self, preset, capsys):
        assert main(["validate", "--config", str(preset)]) == 0
        assert "valid: no problems found" in capsys.readouterr().out

    def test_unknown_key_gets_suggestion(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path,
            {"mode": "simulate", "environment": {"b_paralel": 10.0}, "grid": {}},
        )
        assert main(["validate", "--config", cfg]) == 1
        out = capsys.readouterr().out
        assert "b_paralel" in out
        assert "did you mean 'b_parallel'?" in out

    def test_all_diagnostics_reported_at_once(self, tmp_path):
        doc = {
            "mode": "no-such-mode",
            "grid": {"start_mhz": 2900.0, "stop_mhz": 2800.0, "points": -5},
            "bogus": 1,
        }
        diags = validate_config(doc)
        text = "\n".join(diags)
        assert "mode must be one of" in text
        assert "grid.points must be > 0" in text
        assert "grid.start_mhz must be < grid.stop_mhz" in text
        assert "unknown key 'bogus'" in text
        assert len(diags) >= 4

    @pytest.mark.parametrize(
        "override, message",
        [
            ("sweep.dwell=0", "sweep.dwell must be > 0"),
            ("grid.points=true", "grid.points must be an integer"),
            ("strain.nodes=true", "strain.nodes must be an integer"),
            ("rates.gamma_b=true", "rates.gamma_b must be a number"),
            ("seed=false", "seed must be an integer"),
        ],
    )
    def test_dwell_and_json_booleans_rejected(self, override, message, capsys):
        # JSON true/false are Python bools, and bool is an int subclass.
        preset = str(PRESET_DIR / "fig5_narrowing.json")
        assert main(["validate", "--config", preset, "--set", override]) == 1
        assert message in capsys.readouterr().out

    def test_json_nan_and_infinity_rejected(self, capsys):
        # json.loads accepts the non-standard NaN and Infinity tokens.
        preset = str(PRESET_DIR / "fig5_narrowing.json")
        argv = ["validate", "--config", preset]
        argv += ["--set", "budget.photon_rate=NaN", "--set", "rates.gamma_b=Infinity"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "budget.photon_rate must be a number" in out
        assert "rates.gamma_b must be a number" in out

    @pytest.mark.parametrize(
        "override, field",
        [
            ("sweep.generator=bogus", "sweep.generator"),
            ("sweep.fit_model=bogus", "sweep.fit_model"),
            ("environment.d0=-1", "environment.d0"),
            ("strain.sigma_ex=1.0", "sigma_ex"),
            ("sweep.lorentzian_peaks=0", "sweep.lorentzian_peaks must be > 0"),
            ("sweep.lorentzian_fwhm=-1", "sweep.lorentzian_fwhm must be > 0"),
            # (fwhm / 2)^2 overflows: a NaN spectrum and a failed row per point.
            ("sweep.lorentzian_fwhm=1e300", "sweep.lorentzian_fwhm must be < 2.68156e+154, got 1e+300"),
            ("lorentzian.fwhm=1e200", "lorentzian.fwhm must be < 2.68156e+154, got 1e+200"),
            (
                'mode="fit" fit.input=measured.csv fit.model="lorentzian" fit.peaks=0',
                "fit.peaks must be > 0, got 0",
            ),
            ('fit.model="lorentzian" fit.peaks=0', "fit.peaks must be > 0, got 0"),
            ("fit.multistart=0", "fit.multistart must be > 0, got 0"),
            ("fit.multistart=-3", "fit.multistart must be > 0, got -3"),
            ("fit.peaks=2", "fit.peaks is not read by fit.model 'dressed'"),
            ('fit.model="lorentzian" fit.omega_rf=16', "fit.omega_rf is not read by fit.model 'lorentzian'"),
            (
                'fit.model="lorentzian" fit.fit_sigma_ex=true',
                "fit.fit_sigma_ex is not read by fit.model 'lorentzian'",
            ),
            ('fit.model="lorentzian" fit.contrast=0.05', "fit.contrast is not read by fit.model 'lorentzian'"),
            (
                "environment.b_transverse=0 environment.b_parallel=150",
                "sweep.fit_model 'dressed' requires a transverse-mode environment",
            ),
            (
                'sweep.axes=[{"name":"laser_power_mw","values":[1.0]}]',
                "sweep.axes[0] laser_power_mw: laser-power model not configured",
            ),
            (
                "budget.rate_per_mw=2e5 budget.pump_per_mw=1 "
                'sweep.axes=[{"name":"laser_power_mw","values":[2.0,-1.0]}]',
                "sweep.axes[0] laser_power_mw: laser power must be > 0, got -1.0",
            ),
            (
                'sweep.axes=[{"name":"rabi_rf","values":[3,6]},{"name":"rabi_rf","values":[12]}]',
                "sweep.axes[1] 'rabi_rf' repeats axes[0]",
            ),
            ('sweep.fit_model="lorentzian"', "sweep.generator 'lindblad' requires fit_model 'dressed'"),
        ],
    )
    def test_library_rules_judged_by_validate(self, override, field, capsys):
        # Each of these builds no sweep, fit model or Lorentzian spectrum,
        # whatever the mode, and names the config key; validate must not
        # call it valid.
        argv = ["validate", "--config", str(PRESET_DIR / "sensitivity_map.json")]
        for item in override.split():
            argv += ["--set", item]
        assert main(argv) == 1
        assert field in capsys.readouterr().out

    @pytest.mark.parametrize(
        "overrides",
        [
            'fit.model="dressed" fit.omega_rf=16 fit.fit_sigma_ex=true fit.contrast=0.05 fit.multistart=2',
            'fit.model="lorentzian" fit.peaks=2 fit.multistart=1',
        ],
    )
    def test_fit_keys_the_model_reads_are_valid(self, overrides, capsys):
        argv = ["validate", "--config", str(PRESET_DIR / "fig2_dressed.json")]
        for item in [*overrides.split(), 'mode="fit"', "fit.input=measured.csv"]:
            argv += ["--set", item]
        assert main(argv) == 0
        assert capsys.readouterr().out == "valid: no problems found\n"

    def test_drive_axis_values_judged_by_validate(self, capsys):
        # Judged by DriveConfig's rule, as each sweep point builds its drive:
        # one problem per axis, not one per value.
        axes = [
            {"name": "rabi_rf", "values": [-1.0, 6.0, -2.0]},
            {"name": "rabi_mw", "values": [0.6, -0.5]},
        ]
        preset = str(PRESET_DIR / "fig5_narrowing.json")
        assert main(["validate", "--config", preset, "--set", f"sweep.axes={json.dumps(axes)}"]) == 1
        assert capsys.readouterr().out == (
            "invalid: sweep.axes[0] rabi_rf: rabi_rf must be >= 0, got -1.0\n"
            "invalid: sweep.axes[1] rabi_mw: rabi_mw must be >= 0, got -0.5\n"
        )

    def test_drive_axis_values_judged_beside_a_bad_budget(self, capsys):
        # Only a laser power reads the budget: a bad one hides no drive axis.
        axes = [{"name": "rabi_rf", "values": [-1.0, 6.0]}]
        preset = str(PRESET_DIR / "fig5_narrowing.json")
        argv = ["validate", "--config", preset, "--set", "budget.photon_rate=-1"]
        assert main([*argv, "--set", f"sweep.axes={json.dumps(axes)}"]) == 1
        assert capsys.readouterr().out == (
            "invalid: budget.photon_rate must be > 0, got -1\n"
            "invalid: sweep.axes[0] rabi_rf: rabi_rf must be >= 0, got -1.0\n"
        )

    def test_quadrature_node_cap_judged_by_validate(self, capsys):
        # Past the cap the Gauss-Hermite weights sum to 0 (371) or overflow
        # (from 373), and every spectrum or fit fails.
        preset = str(PRESET_DIR / "fig5_narrowing.json")
        assert main(["validate", "--config", preset, "--set", "strain.nodes=371"]) == 1
        assert "strain.nodes must be odd and in [1, 369]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "override", ["fit.contrast=0", "contrast=-0.05", "contrast=0.9", "fit.contrast=0.9"]
    )
    def test_fit_contrast_judged_by_validate(self, override, tmp_path, capsys):
        # The fit's initial guess divides by the frozen contrast, and a
        # contrast above 0.5 fits rabi_mw too small by sqrt(contrast / 0.05).
        # Reported once, under the key that holds it: the fit model that
        # inherits a bad top-level contrast does not report it again.
        key, _, value = override.partition("=")
        message = f"{key} must be in (0, 0.5], got {value}"
        spec_out = tmp_path / "measured.csv"
        fig2 = str(PRESET_DIR / "fig2_dressed.json")
        assert main(["simulate", "--config", fig2, "--out", str(spec_out)]) == 0
        fit_doc = {"mode": "fit", "fit": {"input": str(spec_out), "omega_rf": 16.0}}
        cfg = _write_config(tmp_path, fit_doc)
        capsys.readouterr()
        assert main(["validate", "--config", cfg, "--set", override]) == 1
        assert capsys.readouterr().out == f"invalid: {message}\n"
        assert main(["fit", "--config", cfg, "--set", override]) == 1
        assert capsys.readouterr().err == f"error: config: {message}\n"

    @pytest.mark.parametrize(
        "preset, override, message",
        [
            ("fig5_narrowing", "budget.contrast=0", "budget.contrast must be in (0, 0.5], got 0"),
            ("fig5_narrowing", "budget.contrast=0.9", "budget.contrast must be in (0, 0.5], got 0.9"),
            ("fig2_dressed", "contrast=0", "contrast must be in (0, 0.5], got 0"),
            ("fig5_narrowing", "contrast=0.9", "contrast must be in (0, 0.5], got 0.9"),
            ("sensitivity_map", "fit.contrast=0.9", "fit.contrast must be in (0, 0.5], got 0.9"),
        ],
    )
    def test_contrast_bounds_judged_by_validate(self, preset, override, message, capsys):
        # Reported once, under the key that holds it: a budget that inherits
        # a bad top-level contrast does not report it again.  A fit section
        # is judged whatever the mode.
        argv = ["--config", str(PRESET_DIR / f"{preset}.json"), "--set", override]
        assert main(["validate", *argv]) == 1
        assert capsys.readouterr().out == f"invalid: {message}\n"
        assert main([json.loads(PRESET_DIR.joinpath(f"{preset}.json").read_text())["mode"], *argv]) == 1
        assert message in capsys.readouterr().err

    def test_library_and_shape_problems_reported_in_one_pass(self, capsys):
        preset = str(PRESET_DIR / "fig5_narrowing.json")
        argv = ["validate", "--config", preset]
        for override in (
            "drive.rabi_mw=-1",
            "drive.omega_rf=-2",
            "sweep.dwell=0",
            "environment.d0=-1",
            "bogus=1",
        ):
            argv += ["--set", override]
        assert main(argv) == 1
        out = capsys.readouterr().out
        for message in (
            "drive.rabi_mw must be >= 0",
            "drive.omega_rf must be >= 0",
            "sweep.dwell must be > 0",
            "unknown key 'bogus'",
        ):
            assert message in out
        assert out.count("d0 must be > 0") == 1

    @pytest.mark.parametrize(
        "override, message",
        [
            ("oracle.pump_rate=-1", "oracle.pump_rate must be > 0, got -1"),
            ("oracle.pump_rate=0", "oracle.pump_rate must be > 0, got 0"),
        ],
    )
    def test_oracle_rates_judged_by_validate(self, override, message, capsys):
        # oracle-check builds the same Lindblad model and would fail on it.
        preset = str(PRESET_DIR / "oracle_weak_drive.json")
        assert main(["validate", "--config", preset, "--set", override]) == 1
        assert message in capsys.readouterr().out

    def test_flat_splitting_judged_by_validate(self, capsys):
        # A sweep on it would fit every row and then fail each for want of a slope.
        preset = str(PRESET_DIR / "fig5_narrowing.json")
        argv = ["--config", preset, "--set", "environment.dd_dt=0"]
        assert main(["validate", *argv]) == 1
        assert capsys.readouterr().out == "invalid: environment.dd_dt must be nonzero, got 0\n"
        assert main(["sweep", *argv]) == 1
        assert "environment.dd_dt must be nonzero" in capsys.readouterr().err

    def test_negative_seed_judged_once(self, tmp_path, capsys):
        # numpy seeds only from non-negative integers: a sweep would fail
        # every row and a simulation at run time.  The config key and --seed
        # are one seed, named once.
        fig5, fig2 = (str(PRESET_DIR / f"{name}.json") for name in ("fig5_narrowing", "fig2_dressed"))
        # --seed is applied after every --set.
        for override in (["--set", "seed=-3"], ["--seed", "-3"], ["--seed", "-3", "--set", "seed=2"]):
            assert main(["validate", "--config", fig5, *override]) == 1
            assert capsys.readouterr().out == "invalid: seed must be >= 0, got -3\n"
        for mode, preset in (("sweep", fig5), ("simulate", fig2)):
            out = tmp_path / f"{mode}.csv"
            assert main([mode, "--config", preset, "--seed", "-1", "--out", str(out)]) == 1
            assert capsys.readouterr().err == "error: config: seed must be >= 0, got -1\n"
            assert not out.exists()
        noisy, seeds = {}, {"flag": ["--seed", "5"], "key": ["--set", "seed=5"], "other": ["--seed", "6"]}
        for name, seed in seeds.items():
            out = tmp_path / f"{name}.csv"
            assert main(["simulate", "--config", fig2, *seed, "--out", str(out)]) == 0
            noisy[name] = out.read_text()
        assert noisy["flag"] == noisy["key"] != noisy["other"]

    def test_oracle_check_in_parallel_mode_judged_by_validate(self, tmp_path, capsys):
        # The oracle models the dressed states only and would fail at run time.
        preset = str(PRESET_DIR / "oracle_weak_drive.json")
        argv = ["--config", preset]
        argv += ["--set", "environment.b_transverse=0", "--set", "environment.b_parallel=100"]
        message = "mode 'oracle-check' requires a transverse-mode environment, got b_parallel = 100"
        assert main(["validate", *argv]) == 1
        assert capsys.readouterr().out == f"invalid: {message}\n"
        assert main(["oracle-check", *argv, "--out", str(tmp_path / "oracle.json")]) == 1
        assert capsys.readouterr().err == f"error: config: {message}\n"

    def test_oracle_check_without_pump_judged_by_validate(self, tmp_path, capsys):
        # Without a pump the dephased steady state is the flat I/3: no dip,
        # and a relative deviation of 5e4 that the run reported as ok.  The
        # Lindblad model refuses the rate, in any mode.
        preset = str(PRESET_DIR / "oracle_weak_drive.json")
        out = tmp_path / "oracle.json"
        argv = ["--config", preset, "--set", "oracle.pump_rate=0"]
        argv += ["--set", "oracle.dephase_b=1", "--set", "oracle.dephase_d=1"]
        message = "oracle.pump_rate must be > 0, got 0"
        assert main(["validate", *argv]) == 1
        assert capsys.readouterr().out == f"invalid: {message}\n"
        assert main(["oracle-check", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: config: {message}\n"
        assert not out.exists()
        fig2 = ["--config", str(PRESET_DIR / "fig2_dressed.json"), "--set", "oracle.pump_rate=0"]
        assert main(["validate", *fig2]) == 1
        assert capsys.readouterr().out == f"invalid: {message}\n"

    def test_oracle_check_without_mw_drive_judged_by_validate(self, tmp_path, capsys):
        # With no MW drive neither spectrum has a dip, and the relative
        # deviation would be 0/0: NaN, two RuntimeWarnings and exit 0.
        preset = str(PRESET_DIR / "oracle_weak_drive.json")
        out = tmp_path / "oracle.json"
        for value, shown in (("0", "0"), ("0.0", "0.0")):
            argv = ["--config", preset, "--set", f"drive.rabi_mw={value}"]
            message = f"mode 'oracle-check' requires drive.rabi_mw > 0, got {shown}"
            assert main(["validate", *argv]) == 1
            assert capsys.readouterr().out == f"invalid: {message}\n"
            assert main(["oracle-check", *argv, "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"error: config: {message}\n"
            assert not out.exists()
        # A drive section without the key takes DriveConfig's 0.0; a bad
        # value is reported by its own rule alone.
        doc = json.loads((PRESET_DIR / "oracle_weak_drive.json").read_text())
        del doc["drive"]["rabi_mw"]
        config = tmp_path / "no_mw.json"
        config.write_text(json.dumps(doc))
        assert main(["validate", "--config", str(config)]) == 1
        message = "mode 'oracle-check' requires drive.rabi_mw > 0, got 0.0"
        assert capsys.readouterr().out == f"invalid: {message}\n"
        assert main(["validate", "--config", preset, "--set", "drive.rabi_mw=-1"]) == 1
        assert "requires drive.rabi_mw" not in capsys.readouterr().out
        # Other modes still simulate an undriven spectrum.
        fig2 = ["--config", str(PRESET_DIR / "fig2_dressed.json"), "--set", "drive.rabi_mw=0"]
        assert main(["validate", *fig2]) == 0

    def test_sweep_grid_too_short_to_fit(self, capsys):
        # Every sweep point is fitted, and a fit needs 10 samples: a shorter
        # grid would fail every row.  A simulation on it is still valid.
        message = "invalid: grid.points must be >= 10 points for a sweep's fits, got 9\n"
        for preset in ("sensitivity_map", "fig5_narrowing"):
            argv = ["--config", str(PRESET_DIR / f"{preset}.json"), "--set", "grid.points=9"]
            assert main(["validate", *argv]) == 1
            assert capsys.readouterr().out == message
            assert main(["sweep", *argv]) == 1
            assert capsys.readouterr().err == f"error: config: {message[len('invalid: '):]}"
        preset = str(PRESET_DIR / "sensitivity_map.json")
        assert main(["validate", "--config", preset, "--set", "grid.points=10"]) == 0
        fig2 = str(PRESET_DIR / "fig2_dressed.json")
        assert main(["validate", "--config", fig2, "--set", "grid.points=9"]) == 0

    def test_fit_requires_input(self, tmp_path):
        cfg = _write_config(tmp_path, {"mode": "fit", "fit": {"model": "dressed"}})
        with pytest.raises(ConfigError, match="fit.input"):
            load_config(cfg)

    @pytest.mark.parametrize(
        "preset, override, message",
        [
            ("fig2_dressed", 'grid={"start_mhz": 2866, "stop_mhz": 2905}', "grid.points"),
            ("fig5_narrowing", 'sweep={"dwell": 1.0}', "sweep.axes"),
            ("fig2_dressed", 'grid.start_mhz="a"', "grid.start_mhz must be a number"),
        ],
    )
    def test_incomplete_grid_and_sweep_rejected(self, preset, override, message, capsys):
        # The runners index these keys; a config without them cannot run.
        path = str(PRESET_DIR / f"{preset}.json")
        assert main(["validate", "--config", path, "--set", override]) == 1
        assert message in capsys.readouterr().out

    def test_missing_mode_is_reported(self):
        assert any("mode" in d for d in validate_config({}))

    def test_sweep_axis_whitelist_enforced(self, tmp_path):
        doc = json.loads((PRESET_DIR / "fig5_narrowing.json").read_text())
        doc["sweep"]["axes"][0]["name"] = "gamma_b"
        with pytest.raises(ConfigError, match="not allowed"):
            load_config(_write_config(tmp_path, doc))

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"mode": "simulate",\n  oops\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(str(path))

    def test_missing_file_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    @pytest.mark.parametrize("override", [[], ["--set", "grid.points=5"], ["--set", "seed=5"]])
    def test_non_object_root_is_diagnosed(self, tmp_path, capsys, override):
        # An override cannot apply to a list; it is refused before any is tried.
        path = _write_config(tmp_path, [1, 2])
        assert main(["validate", "--config", path, *override]) == 1
        assert capsys.readouterr().out == "invalid: config root must be a JSON object\n"
        assert main(["simulate", "--config", path, *override]) == 1
        assert capsys.readouterr().err == "error: config: config root must be a JSON object\n"

    def test_undecodable_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe\x00{")
        assert main(["validate", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"invalid: cannot read config {path}: 'utf-8' codec can't decode")
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(str(path))


_SCIPY_FREE_RUN = """
import sys
import nvtherm.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

print(scipy_modules())
import numpy as np
from nvtherm import fitting, lineshape
from nvtherm.spin import DriveConfig, PhysicalEnvironment

env = PhysicalEnvironment(d0=2885.5, ex=8.0, b_transverse=80.0)
drive = DriveConfig(rabi_mw=0.5, omega_rf=16.0, rabi_rf=5.0)
strain = lineshape.StrainDistribution(mean_ex=8.0, sigma_ex=2.0)
clean = lineshape.ensemble_spectrum(env, drive, np.linspace(2866.0, 2905.0, 391), 1.0, 0.1, 0.05, strain)
noisy = lineshape.synthesize_measurement(clean, 1e8, 1.0, 0)
assert fitting.fit(noisy, fitting.DressedDip(omega_rf=16.0, fit_sigma_ex=True)).converged
fig5, out = sys.argv[1:]
one_point = 'sweep.axes=[{"name": "rabi_rf", "values": [6.0]}]'
assert nvtherm.cli.main(["sweep", "--config", fig5, "--out", out, "--set", one_point]) == 0
print(scipy_modules())
"""


def test_cli_import_leaves_scipy_signal_out(tmp_path):
    # scipy.signal (and the scipy.stats it imports) was most of the start-up,
    # and scipy.optimize most of the rest: no run loads any scipy module.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", _SCIPY_FREE_RUN, str(PRESET_DIR / "fig5_narrowing.json"), str(tmp_path / "one.csv")]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == lines[-1] == "[]"
    assert lines[1].startswith("sweep ok: points=1 fitted=1")


def test_cli_import_leaves_pools_and_logging_out():
    # The oracle starts one plain thread per spectrum; importing an executor
    # or a process pool (or the logging they bring) would be paid at start-up.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, nvtherm.cli; print(sorted({'concurrent.futures', 'multiprocessing', 'logging'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestOverrides:
    def test_set_overrides_applied_before_validation(self, tmp_path):
        preset = str(PRESET_DIR / "fig2_dressed.json")
        doc = load_config(preset, ["grid.points=99", "drive.rabi_rf=7.5"])
        assert doc["grid"]["points"] == 99
        assert doc["drive"]["rabi_rf"] == 7.5

    def test_bad_override_shape_rejected(self, tmp_path):
        preset = str(PRESET_DIR / "fig2_dressed.json")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(preset, ["grid.points"])

    def test_override_can_invalidate(self, capsys):
        preset = str(PRESET_DIR / "fig2_dressed.json")
        code = main(["validate", "--config", preset, "--set", "grid.points=-1"])
        assert code == 1
        assert "grid.points must be > 0" in capsys.readouterr().out


class TestSimulate:
    def test_fig2_preset_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        code = main(
            [
                "simulate",
                "--config",
                str(PRESET_DIR / "fig2_dressed.json"),
                "--out",
                str(out),
                # near-noiseless so the dip count is unambiguous
                "--set",
                "noise.photon_rate=1e14",
            ]
        )
        assert code == 0
        assert out.exists()
        assert out.with_suffix(".json").exists()
        text = capsys.readouterr().out
        assert text.startswith("simulate ok:")
        assert "dips=4" in text

    def test_fig2_shot_noise_wiggle_is_not_a_dip(self, tmp_path, capsys):
        # At the preset's photon rate, one smoothed noise wiggle is deeper
        # than a fifth of the deepest dip but below the noise floor.
        out = tmp_path / "spec.csv"
        preset = str(PRESET_DIR / "fig2_dressed.json")
        assert main(["simulate", "--config", preset, "--out", str(out)]) == 0
        assert "dips=4" in capsys.readouterr().out

    def test_parallel_field_preset(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(
            [
                "simulate",
                "--config",
                str(PRESET_DIR / "fig4_parallel.json"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "dips=2" in capsys.readouterr().out

    def test_regime_violation_warns(self, tmp_path):
        # b_transverse is not small against d0, nor ey against b_transverse.
        argv = ["simulate", "--config", str(PRESET_DIR / "fig2_dressed.json")]
        argv += ["--out", str(tmp_path / "spec.csv")]
        argv += ["--set", "environment.b_transverse=2000", "--set", "environment.ey=300"]
        with pytest.warns(RegimeWarning) as caught:
            assert main(argv) == 0
        assert len(caught) == 2

    def test_overflowing_drive_is_one_error_line(self, tmp_path, capsys):
        # (rabi_rf / 2)**2 overflows: refused by name, not an OverflowError's
        # traceback from the kernel.
        out = tmp_path / "spectrum.csv"
        argv = ["--config", str(PRESET_DIR / "fig2_dressed.json"), "--set", "drive.rabi_rf=1e300"]
        message = "drive.rabi_rf must be < 2.68156e+154, got 1e+300"
        assert main(["simulate", *argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: config: {message}\n")
        assert not out.exists()
        assert main(["validate", *argv]) == 1
        assert capsys.readouterr().out == f"invalid: {message}\n"

    def test_mode_subcommand_mismatch(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(PRESET_DIR / "fig2_dressed.json")])
        assert code == 1
        assert "does not match subcommand" in capsys.readouterr().err


class TestSimulateThenFit:
    def test_end_to_end_round_trip(self, tmp_path, capsys):
        spec_out = tmp_path / "measured.csv"
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(PRESET_DIR / "fig2_dressed.json"),
                    "--out",
                    str(spec_out),
                    "--set",
                    'noise={"photon_rate": 1e6, "dwell": 1.0}',
                ]
            )
            == 0
        )
        capsys.readouterr()
        fit_cfg = _write_config(
            tmp_path,
            {
                "mode": "fit",
                "fit": {
                    "model": "dressed",
                    "input": str(spec_out),
                    "omega_rf": 16.0,
                    "contrast": 0.05,
                },
            },
        )
        fit_out = tmp_path / "result.json"
        assert main(["fit", "--config", fit_cfg, "--out", str(fit_out)]) == 0
        text = capsys.readouterr().out
        assert "fit ok:" in text
        assert "converged=True" in text
        doc = json.loads(fit_out.read_text())
        assert doc["model"] == "DressedDip"


class TestSweep:
    def test_narrowing_preset_runs_and_is_deterministic(self, tmp_path, capsys):
        preset = str(PRESET_DIR / "fig5_narrowing.json")
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["sweep", "--config", preset, "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", preset, "--out", str(out_b)]) == 0
        text = capsys.readouterr().out
        assert text.count("sweep ok:") == 2
        assert "fitted=4" in text
        assert out_a.read_bytes() == out_b.read_bytes()
        assert out_a.with_suffix(".json").exists()

    @pytest.mark.parametrize(
        "override, same_as",
        [
            ("strain.mean_ex=20", "environment.ex=20"),
            ("budget.contrast=0.02", "contrast=0.02"),
        ],
    )
    def test_strain_and_budget_reach_the_sweep(self, override, same_as, tmp_path):
        # The sweep reads the run's strain distribution and noise budget:
        # each key changes the table exactly as the key it defaults from.
        preset = str(PRESET_DIR / "fig5_narrowing.json")
        tables = []
        for i, extra in enumerate([[], ["--set", override], ["--set", same_as]]):
            out = tmp_path / f"{i}.csv"
            assert main(["sweep", "--config", preset, "--out", str(out), *extra]) == 0
            tables.append(out.read_bytes())
        plain, overridden, reference = tables
        assert overridden == reference
        assert overridden != plain

    def test_sensitivity_map_preset_validates(self):
        # The full map is expensive; strict validation still covers it.
        assert (
            main(["validate", "--config", str(PRESET_DIR / "sensitivity_map.json")])
            == 0
        )


    def test_sensitivity_map_preset_runs(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        preset = str(PRESET_DIR / "sensitivity_map.json")
        assert main(["sweep", "--config", preset, "--out", str(out)]) == 0
        assert "points=25 fitted=25" in capsys.readouterr().out
        rows = _strict_loads(out.with_suffix(".json").read_text())["rows"]
        assert len(rows) == 25
        # The optimum drive is interior on both axes, as the preset states.
        # Single rows are not pinned: the closed-form fit at rabi_rf=2,
        # rabi_mw=3.2 has two local minima.
        best = min(rows, key=lambda r: r["eta_slope_k_per_rthz"])
        rf = sorted({r["rabi_rf"] for r in rows})
        mw = sorted({r["rabi_mw"] for r in rows})
        assert rf[0] < best["rabi_rf"] < rf[-1]
        assert mw[0] < best["rabi_mw"] < mw[-1]


class TestSensitivity:
    def test_budget_contrast_reaches_the_curve(self, tmp_path):
        # As in a sweep, the budget's contrast sets the model curve.
        preset = str(PRESET_DIR / "fig2_dressed.json")
        base = ["--set", 'mode="sensitivity"', "--set", "budget.photon_rate=1e6"]
        reports = []
        overrides = ["budget.contrast=0.05", "budget.contrast=0.02", "contrast=0.02"]
        for i, override in enumerate(overrides):
            out = tmp_path / f"{i}.json"
            argv = ["sensitivity", "--config", preset, "--out", str(out), *base]
            assert main([*argv, "--set", override]) == 0
            reports.append(_strict_loads(out.read_text()))
        plain, overridden, reference = reports
        assert overridden == reference
        # The dip depth is linear in the contrast.
        depth = plain["inputs"]["contrast"]
        assert overridden["inputs"]["contrast"] == pytest.approx(0.4 * depth, rel=1e-9)

    def test_strain_reaches_the_curve(self, tmp_path):
        # As in simulate, the curve is averaged over the strain spread.
        preset = str(PRESET_DIR / "fig2_dressed.json")
        base = ["--set", 'mode="sensitivity"', "--set", "budget.photon_rate=1e6"]
        eta = []
        for i, sigma in enumerate((0.0, 2.0)):
            out = tmp_path / f"{i}.json"
            argv = ["sensitivity", "--config", preset, "--out", str(out), *base]
            assert main([*argv, "--set", f"strain.sigma_ex={sigma}"]) == 0
            eta.append(_strict_loads(out.read_text())["eta_slope_k_per_rthz"])
        assert eta == [pytest.approx(2.21482, rel=1e-5), pytest.approx(3.14261, rel=1e-5)]


class TestOracleCheck:
    def test_weak_drive_preset_agrees(self, tmp_path, capsys):
        out = tmp_path / "check.json"
        code = main(
            [
                "oracle-check",
                "--config",
                str(PRESET_DIR / "oracle_weak_drive.json"),
                "--out",
                str(out),
                "--set",
                "grid.points=120",
            ]
        )
        assert code == 0
        assert "oracle-check ok:" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["relative_rms_deviation"] < 0.01
        assert len(doc["dressed_resonances_mhz"]) == 4


    def test_degenerate_steady_state_is_one_error_line(self, tmp_path, capsys):
        # A pump of 1e-30 passes validation, but no branch has a unique
        # steady state: the run names the first one, without a traceback.
        out = tmp_path / "check.json"
        argv = ["--config", str(PRESET_DIR / "oracle_weak_drive.json"), "--out", str(out)]
        argv += ["--set", "oracle.pump_rate=1e-30", "--set", "grid.points=41"]
        assert main(["oracle-check", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: DegenerateSteadyStateError: steady state is not unique on the upper "
            "branch at 2855.0 MHz: zero-eigenvalue multiplicity 3\n"
        )
        assert not out.exists()


def _avx512():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX512F"))


_FIG2, _FIG4 = "fig2_dressed.json", "fig4_parallel.json"
_SENSITIVITY = ["--set", 'mode="sensitivity"', "--set", "budget.photon_rate=1e6"]


def _fit(spectrum, *overrides):
    return ["--set", 'mode="fit"', "--set", f"fit.input={spectrum}", *overrides]


@pytest.mark.skipif(
    np.__version__ != "2.4.6" or not _avx512(),
    reason="recorded with numpy 2.4.6 on x86-64 with AVX-512; outputs' last bits depend on both",
)
class TestGoldenOutputs:
    """Every artifact of ten preset runs keeps the bytes recorded for it.

    The runs go in order in one directory: each fit reads the spectrum that
    a simulate run before it wrote.
    """

    RUNS = [
        ("simulate", _FIG2, "fig2.csv", []),
        ("simulate", _FIG2, "strain.csv", ["--set", "strain.sigma_ex=2"]),
        ("simulate", _FIG4, "fig4.csv", []),
        ("fit", _FIG2, "fit.json", _fit("fig2.csv")),
        ("fit", _FIG2, "fit_strain.json", _fit("strain.csv", "--set", "fit.fit_sigma_ex=true")),
        ("fit", _FIG4, "fit_lorentzian.json", _fit(
            "fig4.csv", "--set", 'fit.model="lorentzian"', "--set", "fit.peaks=2"
        )),
        ("sensitivity", _FIG2, "sensitivity.json", _SENSITIVITY),
        ("sweep", "fig5_narrowing.json", "fig5.csv", [
            "--set", 'sweep.axes=[{"name": "rabi_rf", "values": [6.0]}]'
        ]),
        ("sweep", "sensitivity_map.json", "map.csv", [
            "--set", "grid.points=81",
            "--set", 'sweep.axes=[{"name": "rabi_rf", "values": [4.0]}, {"name": "rabi_mw", "values": [0.8]}]',
        ]),
        ("oracle-check", "oracle_weak_drive.json", "oracle.json", []),
    ]
    DIGESTS = {
        "fig2.csv": "b2f9b2f99b03cc78f8eb11e0e71cc3b27a7f37e9bc6b2c10da920bfebf496722",
        "fig2.json": "fa1d28bceb560c32709cffbb1dabe22e584366638cf9aba2a361c8b1461f0f3b",
        "fig4.csv": "de081aa7d518d98c3345ef423ebcb5b947e4a537354f16f6cb9cbb974f8594a9",
        "fig4.json": "eb044a7776bb85c955438fdb75b73d8108bf4bd6f05918e25deaa14899ba65e3",
        "fig5.csv": "f0503235107792b85695fbb6d145f166421c65f448d375e97ad4272bf725746b",
        "fig5.json": "c09274427e236feb1c543db2204ec758d1ebf5af1a645474c749cddb2dbbefb7",
        "fit.json": "09e2c623428e2666ca6d981688d809e59216ea7412af0cad3c2d4bf20a7824ed",
        "fit_lorentzian.json": "1c6d5cdadddf53eb8d5d8b18c8479e2cf1057ecff314d9fdd37d1bd909806c2b",
        "fit_strain.json": "4ccb2926cace2fef6f679bb9dfc5be43dc55630102297dc7502c888153c37dfa",
        "map.csv": "0782beed4d0aee3c72bb9d700585c86c42cb6525e55a08dd18e96d6b70dd7b04",
        "map.json": "d0319927db493ff224f07d60d794c16240c0b27277b9d6dfd5cc3eb1bc0ad192",
        "oracle.json": "61f999a2e25e06a5b7a4d93ecf46c1e5e3205d778a3226c8c048b294b42f72c3",
        "sensitivity.json": "2a96fe9727ca1f898dec7baee72f3d657ee016e7110a40fddaf74274548e431b",
        "strain.csv": "1650200c5ebe051cd50974d7898ccb9db068aac534e82b5beb593beafdc94252",
        "strain.json": "57ffa7d9f5c2b3f165b9171387a14ecc4a9f6525dd9ddd310292002ea49f02ac",
    }

    def test_artifacts_keep_their_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for command, preset, out, extra in self.RUNS:
            argv = [command, "--config", str(PRESET_DIR / preset), "--out", out, *extra]
            assert main(argv) == 0, capsys.readouterr().err
        found = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())
        }
        assert found == self.DIGESTS
