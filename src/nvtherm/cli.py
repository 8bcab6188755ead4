"""Command-line front end: simulate / fit / sensitivity / sweep / oracle-check.

Configs are strict JSON documents: unknown keys are rejected with a
nearest-key suggestion, and ``validate`` reports every violation at once.
Dotted-path ``--set`` overrides are applied before validation.  The CLI
checks JSON shape and the sections no library type holds; every other value
rule lives in the library types, which ``validate`` builds as the runners do.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import fitting, lineshape, oracle, sensitivity
from .lineshape import Spectrum, StrainDistribution
from .spin import (
    ConfigError,
    DriveConfig,
    PhysicalEnvironment,
    contrast_problems,
    dressed_resonances,
    rotating_hamiltonian_from_params,
    zero_field_splitting,
)

MODES = ("simulate", "fit", "sensitivity", "sweep", "oracle-check")


def _keys(cls) -> dict:
    """Config keys of a library type: its fields, ``int`` where annotated so."""
    return {f.name: int if f.type in (int, "int") else float for f in dataclasses.fields(cls)}


# section -> {key: expected type}; the top level "" also holds each section
_SCHEMA = {
    "": {"mode": str, "description": str, "seed": int, "contrast": float},
    "environment": _keys(PhysicalEnvironment),
    "drive": _keys(DriveConfig),
    "grid": {"start_mhz": float, "stop_mhz": float, "points": int},
    "rates": {"gamma_b": float, "gamma_d": float},
    "strain": _keys(StrainDistribution),
    "noise": {"photon_rate": float, "dwell": float},
    "budget": _keys(sensitivity.NoiseBudget),
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
_SCHEMA[""].update(dict.fromkeys([s for s in _SCHEMA if s], dict))

_POSITIVE = {
    "rates.gamma_b",
    "rates.gamma_d",
    "noise.photon_rate",
    "noise.dwell",
    "grid.points",
    "lorentzian.fwhm",
}

_GRID = ["grid", "grid.start_mhz", "grid.stop_mhz", "grid.points"]
_REQUIRED = {
    "simulate": ["environment", *_GRID],
    "fit": ["fit", "fit.input"],
    "sensitivity": ["environment", "drive", *_GRID, "budget"],
    "sweep": ["environment", "drive", *_GRID, "sweep", "sweep.axes", "budget"],
    "oracle-check": ["environment", "drive", *_GRID, "oracle"],
}


def _suggest(key: str, known) -> str:
    close = difflib.get_close_matches(key, list(known), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def validate_config(doc: dict) -> list[str]:
    """Full strict validation; returns every diagnostic, not just the first."""
    if not isinstance(doc, dict):
        return ["config root must be a JSON object"]
    diags = []
    bad = set()  # top-level keys whose shape failed
    top = _SCHEMA[""]
    for key, value in doc.items():
        if key not in top:
            found = [f"unknown key {key!r}{_suggest(key, top)}"]
        elif top[key] is dict:
            found = _check_section(key, value)
        else:
            found = _check_type(key, top[key], value)
        if found:
            diags += found
            bad.add(key)
    mode = doc.get("mode")
    if mode is None:
        diags.append("missing required key 'mode'")
    elif mode not in MODES:
        diags.append(f"mode must be one of {', '.join(MODES)}; got {mode!r}")
    else:
        for path in _REQUIRED[mode]:
            section, _, key = path.partition(".")
            node = doc.get(section)
            if (key and isinstance(node, dict) and key not in node) or (
                not key and section not in doc
            ):
                diags.append(f"mode {mode!r} requires {'key' if key else 'section'} {path!r}")
                bad.add(section)
    return diags + _check_values(doc, bad)


def _is_number(value, kind=(int, float)) -> bool:
    """A finite JSON number of the given kind.

    JSON true/false are bools, not numbers; ``json.loads`` turns the
    non-standard NaN and Infinity into floats, which are not accepted either.
    """
    if not isinstance(value, kind) or isinstance(value, bool):
        return False
    return isinstance(value, int) or math.isfinite(value)


def _check_type(name: str, want: type, value) -> list[str]:
    if want is float and not _is_number(value):
        return [f"{name} must be a number"]
    if want is int and not _is_number(value, int):
        return [f"{name} must be an integer"]
    if want in (str, bool, list) and not isinstance(value, want):
        return [f"{name} must be {want.__name__}"]
    return []


def _check_section(section: str, value) -> list[str]:
    if not isinstance(value, dict):
        return [f"section {section!r} must be an object"]
    known = _SCHEMA[section]
    diags = []
    for key, v in value.items():
        if key not in known:
            diags.append(f"unknown key {section!r}.{key!r}{_suggest(key, known)}")
        else:
            name = f"{section}.{key}"
            diags += _check_type(name, known[key], v) or _check_value(name, v)
    lo, hi = value.get("start_mhz"), value.get("stop_mhz")
    if section == "grid" and _is_number(lo) and _is_number(hi) and not lo < hi:
        diags.append("grid.start_mhz must be < grid.stop_mhz")
    return diags


def _check_value(name: str, value) -> list[str]:
    """Sweep-axis shape, and the value rules of sections no library type holds."""
    if name in _POSITIVE and value <= 0:
        return [f"{name} must be > 0, got {value}"]
    if name == "fit.model" and value not in ("dressed", "lorentzian"):
        return [f"fit.model must be 'dressed' or 'lorentzian', got {value!r}"]
    if name == "sweep.axes":
        return [
            f"sweep.axes[{i}] must be {{name, values}} with a list of finite numbers"
            for i, axis in enumerate(value)
            if not (
                isinstance(axis, dict)
                and set(axis) == {"name", "values"}
                and isinstance(axis["values"], list)
                and all(_is_number(v) for v in axis["values"])
            )
        ]
    return []


def _check_values(doc: dict, bad: set) -> list[str]:
    """One ``<section>.<problem>`` diagnostic per problem a library type finds.

    Keys whose shape failed are left out, so the builds see their defaults,
    and a type whose values fail is replaced by its defaults in the builds
    that take it: every type's own checks run, and none reports twice.
    """
    doc = {k: v for k, v in doc.items() if k not in bad}
    diags = []

    def judge(section, build, *args):
        try:
            return build(doc, *args)
        except ConfigError as exc:
            diags.extend(f"{section}.{problem}" for problem in exc.diagnostics)
            return None

    env = judge("environment", _build_environment) or PhysicalEnvironment()
    drive = judge("drive", _build_drive) or DriveConfig()
    strain = judge("strain", _build_strain, env.ex) or StrainDistribution(env.ex)
    # A bad top-level contrast is reported under its own name, and the budget
    # that would inherit it sees the default instead.
    contrast = _contrast(doc)
    top = contrast_problems("contrast", contrast)
    diags += top
    judge("budget", _build_budget, lineshape.DEFAULT_CONTRAST if top else contrast)
    judge("oracle", _build_oracle)
    if doc.get("mode") == "sweep" and {"sweep", "grid"} <= doc.keys():
        judge("sweep", _build_sweep, env, drive, strain, 0)
    if doc.get("mode") == "fit":
        judge("fit", _build_fit_model)
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


def _build_strain(doc: dict, ex: float) -> StrainDistribution:
    """The strain spread; its mean defaults to the environment's E_x."""
    return StrainDistribution(**{"mean_ex": ex, **doc.get("strain", {})})


def _build_oracle(doc: dict) -> oracle.LindbladModel:
    """The oracle's rates as the Lindblad model ``oracle_spectrum`` builds, undriven."""
    h0 = rotating_hamiltonian_from_params(0.0, 0.0, 0.0, 0.0)
    return oracle.LindbladModel(h0, **{"pump_rate": 2.0, **doc.get("oracle", {})})


def _contrast(doc: dict) -> float:
    """The top-level contrast: the generators', and the budget's and fit's default."""
    return doc.get("contrast", lineshape.DEFAULT_CONTRAST)


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


def _clean_spectrum(doc: dict, env, grid: np.ndarray, contrast: float) -> Spectrum:
    """The run's noiseless spectrum: Lorentzian in parallel mode, else dressed."""
    if env.b_parallel != 0.0:
        fwhm = doc.get("lorentzian", {}).get("fwhm", lineshape.DEFAULT_FWHM)
        return lineshape.conventional_spectrum(env, grid, fwhm, contrast)
    return lineshape.ensemble_spectrum(
        env, _build_drive(doc), grid, *_rates(doc), contrast, _build_strain(doc, env.ex)
    )


def run_simulate(doc: dict, args) -> str:
    env = _build_environment(doc)
    spec = _clean_spectrum(doc, env, _build_grid(doc), _contrast(doc))
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
    return len(fitting.find_peaks(depth, max(0.2 * depth.max(), floor)).indices)


def _build_fit_model(doc: dict):
    fd = doc.get("fit", {})
    kind = fd.get("model", "dressed")
    if kind == "lorentzian":
        return fitting.MultiLorentzian(fd.get("peaks", 2))
    omega_rf = fd.get("omega_rf", doc.get("drive", {}).get("omega_rf", 0.0))
    return fitting.DressedDip(
        omega_rf=omega_rf,
        fit_sigma_ex=fd.get("fit_sigma_ex", False),
        fixed_contrast=fd.get("contrast", _contrast(doc)),
    )


def run_fit(doc: dict, args) -> str:
    fd = doc["fit"]
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


def _build_budget(doc: dict, contrast: float) -> sensitivity.NoiseBudget:
    """The noise budget; its contrast defaults to ``contrast``."""
    return sensitivity.NoiseBudget(
        **{"photon_rate": 1e6, "contrast": contrast, **doc.get("budget", {})}
    )


def run_sensitivity(doc: dict, args) -> str:
    env = _build_environment(doc)
    grid = _build_grid(doc)
    budget = _build_budget(doc, _contrast(doc))

    def curve_fn(g):
        return _clean_spectrum(doc, env, g, budget.contrast).signal

    span = (float(grid[0]), float(grid[-1]))
    report = sensitivity.slope_sensitivity(curve_fn, span, budget, env.dd_dt)
    out = _out_path(doc, args, "sensitivity.json")
    _write(out, report.to_json())
    return (
        f"sensitivity ok: eta_slope={report.eta_slope:.6g} K/rtHz "
        f"eta_linewidth={report.eta_linewidth:.6g} K/rtHz "
        f"best_frequency={report.best_frequency:.6g} MHz out={out}"
    )


def _build_sweep(doc: dict, env, drive, strain, seed: int) -> sensitivity.SweepConfig:
    sd = doc["sweep"]
    return sensitivity.SweepConfig(
        axes=tuple((a["name"], tuple(a["values"])) for a in sd["axes"]),
        environment=env,
        drive=drive,
        grid=_build_grid(doc),
        strain=strain,
        seed=seed,
        **doc.get("rates", {}),
        **{k: v for k, v in sd.items() if k != "axes"},
    )


def run_sweep(doc: dict, args) -> str:
    env = _build_environment(doc)
    strain = _build_strain(doc, env.ex)
    seed = args.seed if args.seed is not None else doc.get("seed", 0)
    config = _build_sweep(doc, env, _build_drive(doc), strain, seed)
    table = sensitivity.sweep(config, _build_budget(doc, _contrast(doc)))
    out = _out_path(doc, args, "sweep.csv")
    _write(out, table.to_csv())
    _write(out.with_suffix(".json"), table.to_json())
    ok = sum(1 for r in table.rows if r["status"] == "ok")
    return f"sweep ok: points={len(table.rows)} fitted={ok} out={out}"


def run_oracle_check(doc: dict, args) -> str:
    env = _build_environment(doc)
    drive = _build_drive(doc)
    grid = _build_grid(doc)
    contrast = _contrast(doc)
    rates = _build_oracle(doc)
    pump, deph_b, deph_d = rates.pump_rate, rates.dephase_b, rates.dephase_d
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
