"""Spans and counts around the public functions of each nvtherm module.

The tracer wraps functions from outside the package, at the attribute their
caller looks them up on, so the package itself is unchanged.  Spans are kept
in memory as (name, start, end, parent index, spectrum id, error type) and
written out once, at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (owner path, attribute, span name).  A function imported by name into
# another module is a separate binding there and is wrapped once per binding.
TRACED = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("spin", "rotating_hamiltonian_from_params", "spin.rotating_hamiltonian_from_params"),
    ("oracle", "rotating_hamiltonian_from_params", "spin.rotating_hamiltonian_from_params"),
    ("oracle", "oracle_spectrum", "oracle.oracle_spectrum"),
    ("oracle", "steady_state", "oracle.steady_state"),
    ("oracle", "build_liouvillian", "oracle.build_liouvillian"),
    ("lineshape", "dressed_depletion", "lineshape.dressed_depletion"),
    ("fitting", "dressed_depletion", "lineshape.dressed_depletion"),
    ("lineshape", "ensemble_spectrum", "lineshape.ensemble_spectrum"),
    ("lineshape", "synthesize_measurement", "lineshape.synthesize_measurement"),
    ("fitting", "fit", "fitting.fit"),
    ("fitting", "initial_guess", "fitting.initial_guess"),
    ("fitting", "peak_properties", "fitting.peak_properties"),
    ("fitting.DressedDip", "evaluate", "fitting.DressedDip.evaluate"),
    ("fitting.MultiLorentzian", "evaluate", "fitting.MultiLorentzian.evaluate"),
    ("sensitivity", "sweep", "sensitivity.sweep"),
    ("sensitivity", "slope_sensitivity", "sensitivity.slope_sensitivity"),
    ("sensitivity", "estimate_temperature", "sensitivity.estimate_temperature"),
)

FAMILIES = {"DressedDip": "dressed", "MultiLorentzian": "lorentzian"}

# Counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = (
    "oracle.steady_state.calls",
    "fitting.model_evals",
    "fitting.fit.iterations",
    "lineshape.dressed_depletion.points",
)

_FAMILY_METRICS = (
    ("fit.calls", "count", "lower"),
    ("fit.s", "s", "lower"),
    ("fit.self_s", "s", "lower"),
    ("fit.iterations", "count", "lower"),
    ("model_evals", "count", "lower"),
    ("evals_per_fit", "count", "lower"),
    ("converged_ratio", "ratio", "higher"),
    ("fit_errors", "count", "lower"),
    ("initial_guess.s", "s", "lower"),
    ("peak_properties.s", "s", "lower"),
)

# Every per-layer metric, in report order: (name, unit, better).
PER_LAYER = (
    ("import.s", "s", "lower"),
    ("cli.load_config.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("spin.rotating_hamiltonian_from_params.calls", "count", "lower"),
    ("spin.rotating_hamiltonian_from_params.s", "s", "lower"),
    ("oracle.oracle_spectrum.calls", "count", "lower"),
    ("oracle.oracle_spectrum.s", "s", "lower"),
    ("oracle.oracle_spectrum.self_s", "s", "lower"),
    ("oracle.oracle_spectrum.share", "ratio", "lower"),
    ("oracle.steady_state.calls", "count", "lower"),
    ("oracle.steady_state.s", "s", "lower"),
    ("oracle.steady_state.failed", "count", "lower"),
    ("oracle.build_liouvillian.calls", "count", "lower"),
    ("oracle.build_liouvillian.s", "s", "lower"),
    ("lineshape.dressed_depletion.calls", "count", "lower"),
    ("lineshape.dressed_depletion.points", "count", "lower"),
    ("lineshape.dressed_depletion.s", "s", "lower"),
    ("lineshape.ensemble_spectrum.calls", "count", "lower"),
    ("lineshape.ensemble_spectrum.s", "s", "lower"),
    ("lineshape.synthesize_measurement.calls", "count", "lower"),
    ("lineshape.synthesize_measurement.s", "s", "lower"),
    *((f"fitting.{m}", u, b) for m, u, b in _FAMILY_METRICS),
    ("fitting.fit.share", "ratio", "lower"),
    *(
        (f"fitting.{fam}.{m}", u, b)
        for fam in FAMILIES.values()
        for m, u, b in _FAMILY_METRICS
    ),
    ("sensitivity.sweep.calls", "count", "lower"),
    ("sensitivity.sweep.s", "s", "lower"),
    ("sensitivity.sweep.self_s", "s", "lower"),
    ("sensitivity.slope_sensitivity.calls", "count", "lower"),
    ("sensitivity.slope_sensitivity.s", "s", "lower"),
    ("sensitivity.estimate_temperature.calls", "count", "lower"),
    ("trace.spectra", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _resolve(nvtherm_modules: dict, path: str):
    module, _, cls = path.partition(".")
    owner = nvtherm_modules[module]
    return getattr(owner, cls) if cls else owner


def _depletion_points(args, kwargs) -> int:
    grid = kwargs["grid"] if "grid" in kwargs else args[3]
    branches = kwargs.get("branches", args[8] if len(args) > 8 else "both")
    return len(grid) * (2 if branches == "both" else 1)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.spans: list = []
        self.points: list = []  # grid points of each dressed-depletion call
        self.fit_info: dict = {}  # span index -> (family, iterations, converged)
        self.spectrum_id = None
        self._stack: list = []
        self._restore: list = []

    def install(self, modules: dict):
        """Wrap every function in ``TRACED``; ``modules`` maps short names."""
        for path, attr, name in TRACED:
            owner = _resolve(modules, path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            if name == "fitting.fit":
                model = kwargs["model"] if "model" in kwargs else args[1]
                self.fit_info[index] = [FAMILIES[type(model).__name__], 0, False]
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.spectrum_id, error)
            if name == "lineshape.dressed_depletion":
                self.points.append(_depletion_points(args, kwargs))
            elif name == "fitting.fit":
                self.fit_info[index][1:] = [result.iterations, result.converged]
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "spectrum", "error"],
                    "spans": self.spans,
                },
                fh,
            )


def layer_metrics(spans: list, points: list, fit_info: dict) -> dict:
    """Per-layer time, self time and work counts derived from one traced round.

    A layer's self time is its span's duration minus the time its child
    spans cover.  Fit-level counts are kept per model family and combined;
    a model evaluation or helper counts towards the fit whose span holds it.
    """
    total, calls, errors, self_time = Counter(), Counter(), Counter(), Counter()
    child = Counter()
    for name, start, end, parent, _, error in spans:
        calls[name] += 1
        total[name] += end - start
        errors[name] += error is not None
        if parent is not None:
            child[parent] += end - start
    owning_fit = {}
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        self_time[name] += (end - start) - child[i]
        if name == "fitting.fit":
            owning_fit[i] = i
        elif parent in owning_fit:
            owning_fit[i] = owning_fit[parent]

    fam = defaultdict(Counter)
    for i, (name, start, end, _, _, error) in enumerate(spans):
        if name.endswith(".evaluate"):
            c = fam[FAMILIES[name.split(".")[1]]]
            c["model_evals"] += 1
            c["evals_in_fits"] += i in owning_fit
            continue
        if i not in owning_fit:
            continue
        c = fam[fit_info[owning_fit[i]][0]]
        if name == "fitting.fit":
            c["fit.calls"] += 1
            c["fit.s"] += end - start
            c["fit.self_s"] += (end - start) - child[i]
            c["fit_errors"] += error is not None
            c["fit.iterations"] += fit_info[i][1]
            c["converged"] += fit_info[i][2]
        elif name in ("fitting.initial_guess", "fitting.peak_properties"):
            c[name.split(".")[1] + ".s"] += end - start

    def family_block(prefix, c):
        fits = c["fit.calls"]
        return {
            f"{prefix}fit.calls": fits,
            f"{prefix}fit.s": c["fit.s"],
            f"{prefix}fit.self_s": c["fit.self_s"],
            f"{prefix}fit.iterations": c["fit.iterations"],
            f"{prefix}model_evals": c["model_evals"],
            f"{prefix}evals_per_fit": c["evals_in_fits"] / fits if fits else 0.0,
            f"{prefix}converged_ratio": c["converged"] / fits if fits else 0.0,
            f"{prefix}fit_errors": c["fit_errors"],
            f"{prefix}initial_guess.s": c["initial_guess.s"],
            f"{prefix}peak_properties.s": c["peak_properties.s"],
        }

    out = {}
    for name in {n for _, _, n in TRACED}:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = self_time[name]
    out["oracle.steady_state.failed"] = errors["oracle.steady_state"]
    out["lineshape.dressed_depletion.points"] = sum(points)
    combined = sum(fam.values(), Counter())
    out.update(family_block("fitting.", combined))
    for family in FAMILIES.values():
        out.update(family_block(f"fitting.{family}.", fam[family]))
    out["trace.spans"] = len(spans)
    return out
