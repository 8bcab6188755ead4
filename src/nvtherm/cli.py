"""Command-line front end: simulate / fit / sensitivity / sweep / oracle-check.

Configs are strict JSON documents: unknown keys are rejected with a
nearest-key suggestion, and ``validate`` reports every violation at once.
Dotted-path ``--set`` overrides are applied before validation.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.signal import find_peaks

from . import fitting, lineshape, oracle, sensitivity
from .lineshape import Spectrum, StrainDistribution
from .spin import DriveConfig, PhysicalEnvironment, dressed_resonances, zero_field_splitting

MODES = ("simulate", "fit", "sensitivity", "sweep", "oracle-check")

# section -> {key: expected type}
_SCHEMA = {
    "": {
        "mode": str,
        "description": str,
        "seed": int,
        "contrast": float,
        "environment": dict,
        "drive": dict,
        "grid": dict,
        "rates": dict,
        "strain": dict,
        "noise": dict,
        "budget": dict,
        "fit": dict,
        "oracle": dict,
        "sweep": dict,
        "lorentzian": dict,
        "output": dict,
    },
    "environment": {
        "d0": float,
        "t0": float,
        "dd_dt": float,
        "ex": float,
        "ey": float,
        "b_transverse": float,
        "b_parallel": float,
        "temperature": float,
    },
    "drive": {"omega_mw": float, "rabi_mw": float, "omega_rf": float, "rabi_rf": float},
    "grid": {"start_mhz": float, "stop_mhz": float, "points": int},
    "rates": {"gamma_b": float, "gamma_d": float},
    "strain": {"mean_ex": float, "sigma_ex": float, "nodes": int},
    "noise": {"photon_rate": float, "dwell": float},
    "budget": {
        "photon_rate": float,
        "contrast": float,
        "rate_per_mw": float,
        "pump_per_mw": float,
        "gamma_sat": float,
    },
    "fit": {
        "model": str,
        "peaks": int,
        "multistart": int,
        "input": str,
        "omega_rf": float,
        "fit_sigma_ex": bool,
        "contrast": float,
    },
    "oracle": {"pump_rate": float, "dephase_b": float, "dephase_d": float},
    "sweep": {
        "axes": list,
        "fit_model": str,
        "lorentzian_peaks": int,
        "lorentzian_fwhm": float,
        "dwell": float,
        "generator": str,
    },
    "lorentzian": {"fwhm": float},
    "output": {"path": str},
}

_POSITIVE = {
    ("rates", "gamma_b"),
    ("rates", "gamma_d"),
    ("noise", "photon_rate"),
    ("noise", "dwell"),
    ("sweep", "dwell"),
    ("budget", "photon_rate"),
    ("grid", "points"),
    ("lorentzian", "fwhm"),
}

_NONNEGATIVE = {
    ("drive", "rabi_mw"),
    ("drive", "rabi_rf"),
    ("drive", "omega_rf"),
    ("strain", "sigma_ex"),
}


class ConfigError(ValueError):
    """Configuration failed strict validation."""

    def __init__(self, diagnostics: list[str]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(diagnostics))


def _suggest(key: str, known) -> str:
    close = difflib.get_close_matches(key, list(known), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def validate_config(doc: dict) -> list[str]:
    """Full strict validation; returns every diagnostic, not just the first."""
    diags = []
    if not isinstance(doc, dict):
        return ["config root must be a JSON object"]
    top = _SCHEMA[""]
    for key, value in doc.items():
        if key not in top:
            diags.append(f"unknown key {key!r}{_suggest(key, top)}")
            continue
        want = top[key]
        if want is dict:
            if not isinstance(value, dict):
                diags.append(f"section {key!r} must be an object")
                continue
            section = _SCHEMA[key]
            for sub, sval in value.items():
                if sub not in section:
                    diags.append(
                        f"unknown key {key!r}.{sub!r}{_suggest(sub, section)}"
                    )
                elif section[sub] is float and not _is_number(sval):
                    diags.append(f"{key}.{sub} must be a number")
                elif section[sub] is int and not _is_number(sval, int):
                    diags.append(f"{key}.{sub} must be an integer")
                elif section[sub] in (str, bool, list) and not isinstance(
                    sval, section[sub]
                ):
                    diags.append(f"{key}.{sub} must be {section[sub].__name__}")
                else:
                    diags.extend(_check_value(key, sub, sval))
        elif want is float and not _is_number(value):
            diags.append(f"{key} must be a number")
        elif want is int and not _is_number(value, int):
            diags.append(f"{key} must be an integer")
        elif want is str and not isinstance(value, str):
            diags.append(f"{key} must be a string")
    mode = doc.get("mode")
    if mode is None:
        diags.append("missing required key 'mode'")
    elif mode not in MODES:
        diags.append(f"mode must be one of {', '.join(MODES)}; got {mode!r}")
    diags.extend(_check_mode_requirements(doc))
    diags.extend(_check_sweep(doc.get("sweep")))
    return diags


def _is_number(value, kind=(int, float)) -> bool:
    """A finite JSON number of the given kind.

    JSON true/false are bools, not numbers; ``json.loads`` turns the
    non-standard NaN and Infinity into floats, which are not accepted either.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _check_value(section: str, key: str, value) -> list[str]:
    if (section, key) in _POSITIVE and isinstance(value, (int, float)) and value <= 0:
        return [f"{section}.{key} must be > 0, got {value}"]
    if (section, key) in _NONNEGATIVE and isinstance(value, (int, float)) and value < 0:
        return [f"{section}.{key} must be >= 0, got {value}"]
    if section == "strain" and key == "nodes" and isinstance(value, int):
        if value < 1 or value % 2 == 0:
            return [f"strain.nodes must be odd and >= 1, got {value}"]
    if section == "fit" and key == "model" and value not in ("dressed", "lorentzian"):
        return [f"fit.model must be 'dressed' or 'lorentzian', got {value!r}"]
    return []


def _check_mode_requirements(doc: dict) -> list[str]:
    mode = doc.get("mode")
    required = {
        "simulate": ["environment", "grid"],
        "fit": ["fit"],
        "sensitivity": ["environment", "drive", "grid", "budget"],
        "sweep": ["environment", "drive", "grid", "sweep", "budget"],
        "oracle-check": ["environment", "drive", "grid", "oracle"],
    }.get(mode, [])
    diags = [f"mode {mode!r} requires section {sec!r}" for sec in required if sec not in doc]
    env = doc.get("environment", {})
    if isinstance(env, dict):
        bt = env.get("b_transverse", 0.0)
        bp = env.get("b_parallel", 0.0)
        if bt and bp:
            diags.append(
                "environment: exactly one of b_transverse, b_parallel may be nonzero"
            )
    grid = doc.get("grid", {})
    if isinstance(grid, dict) and "start_mhz" in grid and "stop_mhz" in grid:
        if not grid["start_mhz"] < grid["stop_mhz"]:
            diags.append("grid.start_mhz must be < grid.stop_mhz")
    return diags


def _check_sweep(sweep_doc) -> list[str]:
    if not isinstance(sweep_doc, dict) or "axes" not in sweep_doc:
        return []
    diags = []
    axes = sweep_doc["axes"]
    if not isinstance(axes, list) or not axes:
        return ["sweep.axes must be a nonempty list"]
    if len(axes) > 2:
        diags.append("sweep supports at most two axes")
    for i, axis in enumerate(axes):
        if not isinstance(axis, dict) or set(axis) != {"name", "values"}:
            diags.append(f"sweep.axes[{i}] must have exactly 'name' and 'values'")
            continue
        name = axis["name"]
        if name not in sensitivity.SWEEP_PARAMETER_WHITELIST:
            diags.append(
                f"sweep.axes[{i}].name {name!r} not allowed; choose from "
                f"{', '.join(sensitivity.SWEEP_PARAMETER_WHITELIST)}"
                f"{_suggest(name, sensitivity.SWEEP_PARAMETER_WHITELIST)}"
            )
        values = axis["values"]
        if not isinstance(values, list) or not values:
            diags.append(f"sweep.axes[{i}].values must be a nonempty list")
        elif not all(_is_number(v) for v in values):
            diags.append(f"sweep.axes[{i}].values must be finite numbers")
    return diags


def load_config(path: str | Path, overrides: list[str] | None = None) -> dict:
    """Read, override, and strictly validate a config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config parse error at line {exc.lineno}: {exc.msg}"]
        ) from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError([f"override {item!r} must look like key=value"])
        dotted, _, raw = item.partition("=")
        _apply_override(doc, dotted.strip(), raw.strip())
    diags = validate_config(doc)
    if diags:
        raise ConfigError(diags)
    return doc


def _apply_override(doc: dict, dotted: str, raw: str):
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    keys = dotted.split(".")
    node = doc
    for k in keys[:-1]:
        node = node.setdefault(k, {})
        if not isinstance(node, dict):
            raise ConfigError([f"override path {dotted!r} crosses a non-object"])
    node[keys[-1]] = value


def _build_environment(doc: dict) -> PhysicalEnvironment:
    return PhysicalEnvironment(**doc.get("environment", {}))


def _build_drive(doc: dict) -> DriveConfig:
    return DriveConfig(**doc.get("drive", {}))


def _build_grid(doc: dict) -> np.ndarray:
    g = doc["grid"]
    return np.linspace(g["start_mhz"], g["stop_mhz"], g["points"])


def _rates(doc: dict):
    r = doc.get("rates", {})
    return r.get("gamma_b", lineshape.DEFAULT_GAMMA_B), r.get(
        "gamma_d", lineshape.DEFAULT_GAMMA_D
    )


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _out_path(doc: dict, args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    configured = doc.get("output", {}).get("path")
    return Path(configured) if configured else Path(default_name)


def run_simulate(doc: dict, args) -> str:
    env = _build_environment(doc)
    grid = _build_grid(doc)
    contrast = doc.get("contrast", lineshape.DEFAULT_CONTRAST)
    gamma_b, gamma_d = _rates(doc)
    if env.b_parallel != 0.0:
        fwhm = doc.get("lorentzian", {}).get("fwhm", 8.0)
        spec = lineshape.conventional_spectrum(env, grid, fwhm, contrast)
    else:
        drive = _build_drive(doc)
        strain_doc = doc.get("strain", {})
        strain = StrainDistribution(
            mean_ex=strain_doc.get("mean_ex", env.ex),
            sigma_ex=strain_doc.get("sigma_ex", 0.0),
            nodes=strain_doc.get("nodes", lineshape.DEFAULT_QUADRATURE_NODES),
        )
        spec = lineshape.ensemble_spectrum(
            env, drive, grid, gamma_b, gamma_d, contrast, strain
        )
    noise = doc.get("noise")
    if noise:
        seed = args.seed if args.seed is not None else doc.get("seed", 0)
        spec = lineshape.synthesize_measurement(
            spec, noise["photon_rate"], noise.get("dwell", 1.0), seed
        )
    out = _out_path(doc, args, "spectrum.csv")
    _write(out, spec.to_csv())
    _write(out.with_suffix(".json"), spec.to_json())
    n_dips = _count_dips(spec)
    return (
        f"simulate ok: points={len(spec)} dips={n_dips} "
        f"min_signal={spec.signal.min():.6g} out={out}"
    )


def _count_dips(spec: Spectrum) -> int:
    depth = 1.0 - fitting._smooth(spec.signal)
    if depth.max() <= 0:
        return 0
    floor = fitting.noise_floor(spec.signal)  # the fit's dip floor, so noise is no dip
    idx, _ = find_peaks(depth, prominence=max(0.2 * depth.max(), floor))
    return len(idx)


def _build_fit_model(doc: dict):
    fd = doc.get("fit", {})
    kind = fd.get("model", "dressed")
    if kind == "lorentzian":
        return fitting.MultiLorentzian(fd.get("peaks", 2))
    omega_rf = fd.get("omega_rf", doc.get("drive", {}).get("omega_rf", 0.0))
    contrast = fd.get("contrast", doc.get("contrast", lineshape.DEFAULT_CONTRAST))
    return fitting.DressedDip(
        omega_rf=omega_rf,
        fit_sigma_ex=fd.get("fit_sigma_ex", False),
        fixed_contrast=contrast,
    )


def run_fit(doc: dict, args) -> str:
    fd = doc.get("fit", {})
    if "input" not in fd:
        raise ConfigError(["fit.input (spectrum CSV path) is required"])
    spec = Spectrum.from_csv(Path(fd["input"]).read_text())
    model = _build_fit_model(doc)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    result = fitting.multistart_fit(
        spec, model, n_starts=fd.get("multistart", 1), seed=seed
    )
    out = _out_path(doc, args, "fit_result.json")
    _write(out, result.to_json())
    fwhm = [f"{f:.4g}" if f is not None else "unresolved" for f in result.fwhm_per_peak]
    return (
        f"fit ok: model={result.model_kind} converged={result.converged} "
        f"rms={result.residual_rms:.3g} fwhm_mhz=[{' '.join(fwhm)}] out={out}"
    )


def _build_budget(doc: dict) -> sensitivity.NoiseBudget:
    b = doc.get("budget", {})
    return sensitivity.NoiseBudget(
        photon_rate=b.get("photon_rate", 1e6),
        contrast=b.get("contrast", doc.get("contrast", lineshape.DEFAULT_CONTRAST)),
        rate_per_mw=b.get("rate_per_mw"),
        pump_per_mw=b.get("pump_per_mw"),
        gamma_sat=b.get("gamma_sat", 1.0),
    )


def run_sensitivity(doc: dict, args) -> str:
    env = _build_environment(doc)
    grid = _build_grid(doc)
    budget = _build_budget(doc)
    contrast = doc.get("contrast", lineshape.DEFAULT_CONTRAST)
    gamma_b, gamma_d = _rates(doc)
    if env.b_parallel != 0.0:
        fwhm = doc.get("lorentzian", {}).get("fwhm", 8.0)

        def curve_fn(g):
            return lineshape.conventional_spectrum(env, g, fwhm, contrast).signal

    else:
        drive = _build_drive(doc)

        def curve_fn(g):
            return lineshape.spectrum(env, drive, g, gamma_b, gamma_d, contrast).signal

    span = (float(grid[0]), float(grid[-1]))
    report = sensitivity.slope_sensitivity(curve_fn, span, budget, env.dd_dt)
    out = _out_path(doc, args, "sensitivity.json")
    _write(out, report.to_json())
    return (
        f"sensitivity ok: eta_slope={report.eta_slope:.6g} K/rtHz "
        f"eta_linewidth={report.eta_linewidth:.6g} K/rtHz "
        f"best_frequency={report.best_frequency:.6g} MHz out={out}"
    )


def run_sweep(doc: dict, args) -> str:
    env = _build_environment(doc)
    drive = _build_drive(doc)
    grid = _build_grid(doc)
    sd = doc["sweep"]
    gamma_b, gamma_d = _rates(doc)
    strain_doc = doc.get("strain", {})
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    config = sensitivity.SweepConfig(
        axes=tuple((a["name"], tuple(a["values"])) for a in sd["axes"]),
        environment=env,
        drive=drive,
        grid=grid,
        gamma_b=gamma_b,
        gamma_d=gamma_d,
        contrast=doc.get("contrast", lineshape.DEFAULT_CONTRAST),
        sigma_ex=strain_doc.get("sigma_ex", 0.0),
        quadrature_nodes=strain_doc.get("nodes", lineshape.DEFAULT_QUADRATURE_NODES),
        dwell=sd.get("dwell", 1.0),
        seed=seed,
        fit_model=sd.get("fit_model", "dressed"),
        lorentzian_peaks=sd.get("lorentzian_peaks", 2),
        lorentzian_fwhm=sd.get("lorentzian_fwhm", 8.0),
        generator=sd.get("generator", "closed_form"),
    )
    table = sensitivity.sweep(config, _build_budget(doc))
    out = _out_path(doc, args, "sweep.csv")
    _write(out, table.to_csv())
    _write(out.with_suffix(".json"), table.to_json())
    ok = sum(1 for r in table.rows if r["status"] == "ok")
    return f"sweep ok: points={len(table.rows)} fitted={ok} out={out}"


def run_oracle_check(doc: dict, args) -> str:
    env = _build_environment(doc)
    drive = _build_drive(doc)
    grid = _build_grid(doc)
    contrast = doc.get("contrast", lineshape.DEFAULT_CONTRAST)
    od = doc["oracle"]
    pump = od.get("pump_rate", 2.0)
    deph_b = od.get("dephase_b", 0.0)
    deph_d = od.get("dephase_d", 0.0)
    gamma_b = pump / 2.0 + deph_b
    gamma_d = pump / 2.0 + deph_d
    closed = lineshape.spectrum(env, drive, grid, gamma_b, gamma_d, contrast)
    brute = oracle.oracle_spectrum(
        env, drive, grid, pump, deph_b, deph_d, contrast
    )
    a = 1.0 - closed.signal
    b = 1.0 - brute.signal
    scale = np.sqrt(np.mean(a**2))
    rms = float(np.sqrt(np.mean((a - b) ** 2)) / scale)
    mx = float(np.max(np.abs(a - b)) / np.max(np.abs(a)))
    expected = dressed_resonances(
        zero_field_splitting(env), env.ex, drive.omega_rf, drive.rabi_rf
    )
    doc_out = {
        "schema_version": 1,
        "relative_rms_deviation": rms,
        "relative_max_deviation": mx,
        "dressed_resonances_mhz": expected.tolist(),
        "gamma_b": gamma_b,
        "gamma_d": gamma_d,
    }
    out = _out_path(doc, args, "oracle_check.json")
    _write(out, lineshape.strict_json(doc_out))
    return f"oracle-check ok: rel_rms={rms:.3e} rel_max={mx:.3e} out={out}"


_RUNNERS = {
    "simulate": run_simulate,
    "fit": run_fit,
    "sensitivity": run_sensitivity,
    "sweep": run_sweep,
    "oracle-check": run_oracle_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvtherm",
        description="CW-ODMR temperature-sensing simulator and analysis toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in MODES + ("validate",):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default=None, help="output artifact path")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted-path config override, repeatable",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        try:
            load_config(args.config, args.overrides)
        except ConfigError as exc:
            for d in exc.diagnostics:
                print(f"invalid: {d}")
            return 1
        print("valid: no problems found")
        return 0
    try:
        doc = load_config(args.config, args.overrides)
        mode = doc["mode"]
        if mode != args.command:
            raise ConfigError(
                [f"config mode {mode!r} does not match subcommand {args.command!r}"]
            )
        print(_RUNNERS[mode](doc, args))
        return 0
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"error: config: {d}", file=sys.stderr)
        return 1
    except (fitting.FitError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
