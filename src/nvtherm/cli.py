"""Command-line front end: simulate / fit / sensitivity / sweep / oracle-check.

Configs are strict JSON documents: unknown keys are rejected with a
nearest-key suggestion, and ``validate`` reports every violation at once.
Dotted-path ``--set`` overrides are applied before validation.  The CLI
checks JSON shape and the sections no library type holds; every other value
rule lives in the library types.  One function, ``_build``, makes every
object a run uses: ``validate`` calls it, and so does each run before its
runner.  It builds every section that is present, whatever the mode, and
each diagnostic names the config key that holds the problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import functools
import json
import math
import sys
import types
from pathlib import Path

import numpy as np

from . import fitting, lineshape, oracle, sensitivity
from .lineshape import Spectrum, StrainDistribution
from .spin import (
    MAX_RABI,
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
    "fit.multistart",
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
            found = _check_type(key, top[key], value) or _check_value(key, value)
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
    doc = {k: v for k, v in doc.items() if k not in bad}
    b_parallel = doc.get("environment", {}).get("b_parallel", 0.0)
    if mode == "oracle-check" and b_parallel != 0.0:  # the oracle models dressed states only
        diags.append(
            "mode 'oracle-check' requires a transverse-mode environment, "
            f"got b_parallel = {b_parallel}"
        )
    rabi_mw = doc["drive"].get("rabi_mw", 0.0) if "drive" in doc else None
    if mode == "oracle-check" and rabi_mw == 0:  # no dip: the relative deviation is 0/0
        diags.append(f"mode 'oracle-check' requires drive.rabi_mw > 0, got {rabi_mw}")
    try:
        _build(doc)
    except ConfigError as exc:
        diags += exc.diagnostics
    return diags


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
    """Sweep-axis shape, the seed, and the value rules of sections no library type holds."""
    if name in _POSITIVE and value <= 0:
        return [f"{name} must be > 0, got {value}"]
    if name == "lorentzian.fwhm" and value >= MAX_RABI:
        return [f"{name} must be < {MAX_RABI:g}, got {value}"]
    if name == "seed" and value < 0:  # numpy seeds only from non-negative integers
        return [f"seed must be >= 0, got {value}"]
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


# fit config keys that name their fit-model field differently
_FIT_FIELDS = {"peaks": "n_peaks", "contrast": "fixed_contrast"}
# fit config keys the fit runner reads, whatever the model
_FIT_RUN_KEYS = ("model", "input", "multistart")


class _Run(types.SimpleNamespace):
    """The objects ``_build`` made for one run."""

    @functools.cached_property
    def grid(self) -> np.ndarray | None:
        """The MW grid, made on first use: ``validate`` makes one only for a sweep."""
        g = self.grid_section
        if {"start_mhz", "stop_mhz", "points"} <= g.keys():
            return np.linspace(g["start_mhz"], g["stop_mhz"], g["points"])
        return None


def _build(doc: dict) -> _Run:
    """Every object a run uses, built once from a document of valid shape.

    Each present section is built whatever the mode, and a ``ConfigError``
    names every problem once, under the config key that holds it: a type
    whose values fail is replaced by its defaults in the builds that take it.
    """
    diags = []

    def judge(section, build, kwargs, keys={}):
        # ``keys`` gives the config key of a field that is not ``section.field``.
        try:
            return build(**kwargs)
        except ConfigError as exc:
            for problem in exc.diagnostics:
                field, _, rest = problem.partition(" ")
                diags.append(f"{keys.get(field, f'{section}.{field}')} {rest}")
            return None

    env = judge("environment", PhysicalEnvironment, doc.get("environment", {}))
    env = env or PhysicalEnvironment()
    drive = judge("drive", DriveConfig, doc.get("drive", {})) or DriveConfig()
    # The strain's mean defaults to the environment's E_x.
    strain = judge("strain", StrainDistribution, {"mean_ex": env.ex, **doc.get("strain", {})})
    strain = strain or StrainDistribution(env.ex)
    # The top-level contrast is the generators', and the budget's and fit's
    # default: a bad one is reported under its own name, and they see the default.
    contrast = doc.get("contrast", lineshape.DEFAULT_CONTRAST)
    if problems := contrast_problems("contrast", contrast):
        diags += problems
        contrast = lineshape.DEFAULT_CONTRAST
    budget = judge(
        "budget",
        sensitivity.NoiseBudget,
        {"photon_rate": 1e6, "contrast": contrast, **doc.get("budget", {})},
    )
    # The oracle's rates as the Lindblad model ``oracle_spectrum`` builds, undriven.
    h0 = rotating_hamiltonian_from_params(0.0, 0.0, 0.0, 0.0)
    lindblad = {"hamiltonian": h0, "pump_rate": 2.0, **doc.get("oracle", {})}
    run = _Run(
        seed=doc.get("seed", 0),
        env=env,
        drive=drive,
        strain=strain,
        contrast=contrast,
        budget=budget,
        lindblad=judge("oracle", oracle.LindbladModel, lindblad),
        rates=doc.get("rates", {}),
        fwhm=doc.get("lorentzian", {}).get("fwhm", lineshape.DEFAULT_FWHM),
        grid_section=doc.get("grid", {}),
        sweep=None,
    )
    if "sweep" in doc:
        sd = doc["sweep"]
        axes = tuple((a["name"], tuple(a["values"])) for a in sd.get("axes", []))
        config = dict(sd, axes=axes, environment=env, drive=drive, grid=run.grid, strain=strain)
        config = dict(config, seed=run.seed, **run.rates)
        run.sweep = judge("sweep", sensitivity.SweepConfig, config, {"grid": "grid.points"})
    # Each axis value is judged as a sweep point builds it (a drive amplitude
    # by DriveConfig, a laser power by the budget); one problem per axis.  A
    # laser power needs the budget, so it is judged only when the budget
    # builds; a drive amplitude reads nothing of it, so the defaults serve.
    point_budget = budget or sensitivity.NoiseBudget(photon_rate=1e6, contrast=contrast)
    for i, (name, values) in enumerate(run.sweep.axes if run.sweep else ()):
        if name == "laser_power_mw" and not budget:
            continue
        for value in values:
            try:
                sensitivity._point_inputs(run.sweep, point_budget, {name: value})
            except ValueError as exc:
                diags.append(f"sweep.axes[{i}] {name}: {exc}")
                break
    fd = doc.get("fit", {})
    kind = fd.get("model", "dressed")
    model = fitting.MultiLorentzian if kind == "lorentzian" else fitting.DressedDip
    names = {f.name for f in dataclasses.fields(model)}
    given = {"n_peaks": 2, "omega_rf": drive.omega_rf, "fixed_contrast": contrast}
    kwargs = {k: v for k, v in given.items() if k in names}
    for key, value in fd.items():
        if _FIT_FIELDS.get(key, key) in names:
            kwargs[_FIT_FIELDS.get(key, key)] = value
        elif key not in _FIT_RUN_KEYS:
            diags.append(f"fit.{key} is not read by fit.model {kind!r}")
    run.fit_model = judge("fit", model, kwargs, {f: f"fit.{k}" for k, f in _FIT_FIELDS.items()})
    if diags:
        raise ConfigError(diags)
    return run


def load_config(path: str | Path, overrides: list[str] | None = None) -> dict:
    """Read, override, and strictly validate a config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            [f"config parse error at line {exc.lineno}: {exc.msg}"]
        ) from exc
    if not isinstance(doc, dict):  # no override can apply to it
        raise ConfigError(validate_config(doc))
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


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _out_path(doc: dict, args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    configured = doc.get("output", {}).get("path")
    return Path(configured) if configured else Path(default_name)


def _clean_spectrum(run: _Run, grid: np.ndarray, contrast: float) -> Spectrum:
    """The run's noiseless spectrum: Lorentzian in parallel mode, else dressed."""
    if run.env.b_parallel != 0.0:
        return lineshape.conventional_spectrum(run.env, grid, run.fwhm, contrast)
    return lineshape.ensemble_spectrum(
        run.env, run.drive, grid, contrast=contrast, strain=run.strain, **run.rates
    )


def run_simulate(run: _Run, doc: dict, args) -> str:
    spec = _clean_spectrum(run, run.grid, run.contrast)
    noise = doc.get("noise")
    if noise:
        spec = lineshape.synthesize_measurement(
            spec, noise["photon_rate"], noise.get("dwell", 1.0), run.seed
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


def run_fit(run: _Run, doc: dict, args) -> str:
    fd = doc["fit"]
    spec = Spectrum.from_csv(Path(fd["input"]).read_text())
    result = fitting.multistart_fit(
        spec, run.fit_model, n_starts=fd.get("multistart", 1), seed=run.seed
    )
    out = _out_path(doc, args, "fit_result.json")
    _write(out, result.to_json())
    fwhm = [f"{f:.4g}" if f is not None else "unresolved" for f in result.fwhm_per_peak]
    return (
        f"fit ok: model={result.model_kind} converged={result.converged} "
        f"rms={result.residual_rms:.3g} fwhm_mhz=[{' '.join(fwhm)}] out={out}"
    )


def run_sensitivity(run: _Run, doc: dict, args) -> str:
    def curve_fn(g):
        return _clean_spectrum(run, g, run.budget.contrast).signal

    span = (float(run.grid[0]), float(run.grid[-1]))
    report = sensitivity.slope_sensitivity(curve_fn, span, run.budget, run.env.dd_dt)
    out = _out_path(doc, args, "sensitivity.json")
    _write(out, report.to_json())
    return (
        f"sensitivity ok: eta_slope={report.eta_slope:.6g} K/rtHz "
        f"eta_linewidth={report.eta_linewidth:.6g} K/rtHz "
        f"best_frequency={report.best_frequency:.6g} MHz out={out}"
    )


def run_sweep(run: _Run, doc: dict, args) -> str:
    table = sensitivity.sweep(run.sweep, run.budget)
    out = _out_path(doc, args, "sweep.csv")
    _write(out, table.to_csv())
    _write(out.with_suffix(".json"), table.to_json())
    ok = sum(1 for r in table.rows if r["status"] == "ok")
    return f"sweep ok: points={len(table.rows)} fitted={ok} out={out}"


def run_oracle_check(run: _Run, doc: dict, args) -> str:
    env, drive, grid, contrast = run.env, run.drive, run.grid, run.contrast
    pump, deph_b, deph_d = run.lindblad.pump_rate, run.lindblad.dephase_b, run.lindblad.dephase_d
    gamma_b = pump / 2.0 + deph_b
    gamma_d = pump / 2.0 + deph_d
    closed = lineshape.ensemble_spectrum(env, drive, grid, gamma_b, gamma_d, contrast)
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
    if args.seed is not None:  # one seed: --seed overrides the config key
        args.overrides.append(f"seed={args.seed}")
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
        print(_RUNNERS[mode](_build(doc), doc, args))
        return 0
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"error: config: {d}", file=sys.stderr)
        return 1
    except (fitting.FitError, oracle.DegenerateSteadyStateError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
