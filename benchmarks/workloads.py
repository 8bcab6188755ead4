"""The nvtherm benchmark workloads: configs, rounds and output checks.

``run.py`` starts this file as a fresh process per workload run:

    python3 benchmarks/workloads.py '<request JSON>'

The request names the workload, the round order, the time budget, the trace
flag and the work directory.  The process writes its result to
``<work>/result.json``; ``run.py`` turns that into metrics.

Every workload is a closed loop with one client: the next spectrum starts
only after the previous one has been scored.  A round is a fixed list of
requests; round ``k`` feeds the program seed ``k`` (sweeps) or the noise
seeds ``[k, 0]`` and ``[k, 1]`` (the temperature step).  ``reference.json``
holds the outputs of every round ``k < POOL[workload]``, recorded from the
seed commit, and each round's outputs are compared with it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

import speed
from tracing import EXACT_COUNTS, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PRESETS = ROOT / "src" / "nvtherm" / "presets"
REFERENCE = BENCH / "reference.json"

# Rounds with a recorded reference, per workload.  The benchmark seed picks
# the order in which a run visits them.
POOL = {"lindblad_map": 8, "strain_thermometry": 14, "drive_map": 8}

# A run ends only after a whole number of passes of this many rounds, each
# pass longer than a run's seconds, so that every run times the same number
# of spectra (its tail sits at the same percentile) and, on
# strain_thermometry and drive_map, the same work in another order: their
# fit times differ from round to round (drive_map's are heavy-tailed, a few
# fits taking 10-30x the median), so a run that saw only some rounds would
# measure the choice of rounds.  lindblad_map rounds cost the same (only the
# noise seed differs), so its pass is two rounds, about 30 s.
PASS = {"lindblad_map": 2, "strain_thermometry": 14, "drive_map": 8}

# Tolerances against the reference.  Fitted sweep outputs: relative 1e-3,
# far below the spread between noise seeds and far above the 2.6e-5 by
# which a fresh sensitivity_map run differs from the committed CSV.  The
# oracle deviation is deterministic.  Temperatures: a tenth of their 1-sigma.
SWEEP_RTOL = 1e-3
ORACLE_RTOL = 1e-6
TEMPERATURE_SIGMA_TOL = 0.1

# Temperature step of strain_thermometry.
T0_K = 300.0
STEP_K = 5.0
STRAIN_SIGMA_EX = 2.0
STRAIN_PHOTON_RATE = 1e8

# The tail percentile needs ten timed spectra beyond it.
MIN_SPECTRA = 11

SWEEP_NUMBERS = ("fwhm_mhz", "contrast", "eta_slope_k_per_rthz", "eta_linewidth_k_per_rthz")


def _preset(name: str) -> dict:
    return json.loads((PRESETS / f"{name}.json").read_text())


def configs(workload: str) -> dict:
    """Config documents of a workload, by name, exactly as the program sees them."""
    if workload == "lindblad_map":
        return {
            "sensitivity_map": _preset("sensitivity_map"),
            "oracle_weak_drive": _preset("oracle_weak_drive"),
        }
    if workload == "drive_map":
        # (a) fig5_narrowing widened to 8x8 drive amplitudes.  The weakest
        # MW amplitude leaves the dips below the noise floor, so fits there
        # fail with "detected 0 dips" by design; the other rows fit.
        fig5 = _preset("fig5_narrowing")
        fig5.pop("output")
        fig5["sweep"]["axes"] = [
            {"name": "rabi_rf", "values": [1.5, 3.0, 4.5, 6.0, 9.0, 12.0, 18.0, 24.0]},
            {"name": "rabi_mw", "values": [0.2, 0.6, 0.7, 0.8, 0.9, 1.0, 1.2, 1.5]},
        ]
        # (b) fig4_parallel as a laser-power sweep with two-Lorentzian fits;
        # 32 powers from 0.05 to 20 mW, geometric.
        fig4 = _preset("fig4_parallel")
        for key in ("noise", "output"):
            fig4.pop(key)
        fig4.update(
            mode="sweep",
            drive={},
            budget={
                "photon_rate": 1e6,
                "rate_per_mw": 2e5,
                "pump_per_mw": 1.0,
                "gamma_sat": 1.0,
            },
            sweep={
                "axes": [
                    {
                        "name": "laser_power_mw",
                        "values": [round(0.05 * 400.0 ** (i / 31), 6) for i in range(32)],
                    }
                ],
                "fit_model": "lorentzian",
                "lorentzian_peaks": 2,
                "lorentzian_fwhm": fig4["lorentzian"]["fwhm"],
                "dwell": 1.0,
            },
        )
        return {"narrowing_map": fig5, "laser_power": fig4}
    if workload == "strain_thermometry":
        fig2 = _preset("fig2_dressed")
        fig2.pop("output")
        fig2["strain"] = {"mean_ex": fig2["environment"]["ex"], "sigma_ex": STRAIN_SIGMA_EX, "nodes": 21}
        fig2["noise"] = {"photon_rate": STRAIN_PHOTON_RATE, "dwell": 1.0}
        fig2["environment"]["temperature"] = T0_K
        return {"fig2_strain": fig2}
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(workload: str, work: Path) -> list:
    """Write the workload's configs into ``work``; returns their paths."""
    work.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, doc in configs(workload).items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2))
        paths.append(path)
    return paths


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _same(value, ref, rtol) -> bool:
    if ref is None or value is None:
        return ref is None and value is None
    return abs(value - ref) <= rtol * abs(ref)


class SpectrumClock:
    """Wall time of each spectrum, and the spectrum id the tracer tags spans with.

    ``intervals`` keeps each spectrum's start and end, so that its time can
    be put in reference seconds from the speed samples (see ``speed.py``).
    """

    def __init__(self):
        self.tracer = None
        self.clear()

    def clear(self):
        self.times: list = []
        self.intervals: list = []

    @contextlib.contextmanager
    def spectrum(self):
        if self.tracer is not None:
            self.tracer.spectrum_id = len(self.times)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.times.append(end - start)
            self.intervals.append((start, end))


class Runner:
    """Runs rounds of one workload and checks every output against the reference."""

    def __init__(self, workload: str, work: Path, reference: dict | None):
        from nvtherm import cli, fitting, lineshape, oracle, sensitivity, spin

        self.modules = {
            "cli": cli,
            "fitting": fitting,
            "lineshape": lineshape,
            "oracle": oracle,
            "sensitivity": sensitivity,
            "spin": spin,
        }
        self.workload = workload
        self.work = work
        self.reference = reference
        self.clock = SpectrumClock()
        self.outcomes: list = []  # per spectrum: (failed, unexpected)
        self.invalid_artifacts = 0
        self.artifacts = 0
        self.within_3sigma = [0, 0]
        self.oracle_rel_rms = None
        self.recovered = 0
        self.problems: list = []
        self.record: dict = {}
        self.paths = {p.stem: p for p in write_configs(workload, work)}
        # The sweep engine scores one grid point per call of this function;
        # it is the spectrum boundary inside a ``cli.main sweep`` request.
        point = sensitivity._sweep_point

        def timed_point(*args, **kwargs):
            with self.clock.spectrum():
                return point(*args, **kwargs)

        sensitivity._sweep_point = timed_point

    # -- requests -------------------------------------------------------

    def _cli(self, argv: list) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.modules["cli"].main(argv)

    def _sweep(self, name: str, seed: int, extra=()):
        out = self.work / "out" / f"{name}.csv"
        before = len(self.clock.times)
        code = self._cli(
            ["sweep", "--config", str(self.paths[name]), "--out", str(out), "--seed", str(seed), *extra]
        )
        if code != 0:
            raise RuntimeError(f"cli sweep {name} exited with {code}")
        header, *lines = out.read_text().splitlines()
        header = header.split(",")
        # The status column is last and may itself contain commas.
        rows = [line.split(",", len(header) - 1) for line in lines]
        if len(self.clock.times) - before != len(rows):
            raise RuntimeError(f"{name}: {len(rows)} rows but {len(self.clock.times) - before} spectra")
        self.artifacts += 1
        try:
            _strict_json(out.with_suffix(".json").read_text())
        except ValueError:
            self.invalid_artifacts += 1
        # One entry per grid point: the fitted numbers (NaN as None), or None
        # for a point whose status is not "ok".
        parsed = []
        for cells in rows:
            row = dict(zip(header, cells))
            numbers = [float(row[c]) for c in SWEEP_NUMBERS]
            ok = row["status"] == "ok"
            parsed.append([None if math.isnan(v) else float(f"{v:.10g}") for v in numbers] if ok else None)
        return parsed

    def _check_sweep(self, key: str, rows: list):
        if self.reference is None:
            self.record[key] = rows
            return
        ref_rows = self.reference[key]
        if len(rows) != len(ref_rows):
            raise RuntimeError(f"{key}: {len(rows)} sweep points, reference has {len(ref_rows)}")
        for i, (row, ref) in enumerate(zip(rows, ref_rows)):
            failed = row is None
            if ref is None:
                self.recovered += not failed
                self.outcomes.append((failed, False))
                continue
            wrong = failed or not all(_same(v, r, SWEEP_RTOL) for v, r in zip(row, ref))
            if wrong:
                self.problems.append(f"{key} point {i}: {row} vs reference {ref}")
            self.outcomes.append((failed or wrong, wrong))

    def _oracle_check(self):
        out = self.work / "out" / "oracle_weak_drive.json"
        with self.clock.spectrum():
            code = self._cli(["oracle-check", "--config", str(self.paths["oracle_weak_drive"]), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"cli oracle-check exited with {code}")
        self.artifacts += 1
        doc = _strict_json(out.read_text())
        rms = doc["relative_rms_deviation"]
        self.oracle_rel_rms = rms
        if self.reference is None:
            self.record["oracle"] = {"relative_rms_deviation": rms}
            return
        wrong = not _same(rms, self.reference["oracle"]["relative_rms_deviation"], ORACLE_RTOL)
        if wrong:
            self.problems.append(f"oracle relative RMS {rms!r} differs from the reference")
        self.outcomes.append((wrong, wrong))

    def _measure(self, doc: dict, temperature: float, points: int, seed):
        """A noisy strain-ensemble spectrum of the fig2 geometry at ``temperature``."""
        import numpy as np

        spin, lineshape = self.modules["spin"], self.modules["lineshape"]
        env = spin.PhysicalEnvironment(**{**doc["environment"], "temperature": temperature})
        grid = np.linspace(doc["grid"]["start_mhz"], doc["grid"]["stop_mhz"], points)
        clean = lineshape.ensemble_spectrum(
            env,
            spin.DriveConfig(**doc["drive"]),
            grid,
            doc["rates"]["gamma_b"],
            doc["rates"]["gamma_d"],
            doc["contrast"],
            lineshape.StrainDistribution(**doc["strain"]),
        )
        noise = doc["noise"]
        return lineshape.synthesize_measurement(clean, noise["photon_rate"], noise["dwell"], seed)

    def _strain_model(self, doc: dict):
        return self.modules["fitting"].DressedDip(
            omega_rf=doc["drive"]["omega_rf"], fit_sigma_ex=True, fixed_contrast=doc["contrast"]
        )

    def _temperature_pair(self, k: int):
        import numpy as np

        fitting, sensitivity = self.modules["fitting"], self.modules["sensitivity"]
        doc = self.modules["cli"].load_config(self.paths["fig2_strain"])
        model = self._strain_model(doc)
        fits = []
        failed = [False, False]
        for i, temperature in enumerate((T0_K, T0_K + STEP_K)):
            with self.clock.spectrum():
                noisy = self._measure(doc, temperature, doc["grid"]["points"], np.random.SeedSequence([k, i]))
                try:
                    result = fitting.fit(noisy, model)
                except fitting.FitError as exc:
                    result = exc
                failed[i] = isinstance(result, Exception) or not result.converged
                fits.append(result)
                if i == 1 and not any(failed):
                    dd_dt = self.modules["spin"].PhysicalEnvironment(**doc["environment"]).dd_dt
                    t, unc = sensitivity.estimate_temperature(fits[1], fits[0], dd_dt, T0_K)
        got = None if any(failed) else {"temperature": t, "uncertainty": unc}
        if got is not None:
            self.within_3sigma[0] += abs(t - (T0_K + STEP_K)) <= 3.0 * unc
            self.within_3sigma[1] += 1
        key = f"pair:{k}"
        if self.reference is None:
            self.record[key] = got
            return
        ref = self.reference[key]
        if ref is None:
            self.recovered += got is not None
            self.outcomes += [(f, False) for f in failed]
            return
        wrong = got is None or not (
            abs(got["temperature"] - ref["temperature"]) <= TEMPERATURE_SIGMA_TOL * ref["uncertainty"]
            and abs(got["uncertainty"] - ref["uncertainty"]) <= TEMPERATURE_SIGMA_TOL * ref["uncertainty"]
        )
        if wrong:
            self.problems.append(f"{key}: {got} vs reference {ref}")
        self.outcomes += [(f or wrong, wrong) for f in failed]

    # -- rounds ---------------------------------------------------------

    def warm_up(self):
        """One small request down every code path of the workload, untimed."""
        tiny_grid = ["--set", "grid.points=41"]
        if self.workload == "lindblad_map":
            axes = '[{"name":"rabi_rf","values":[4.0]},{"name":"rabi_mw","values":[0.8]}]'
            self._sweep("sensitivity_map", 0, [*tiny_grid, "--set", f"sweep.axes={axes}"])
            self._cli(["oracle-check", "--config", str(self.paths["oracle_weak_drive"]),
                       "--out", str(self.work / "out" / "warm_up.json"), *tiny_grid])
        elif self.workload == "drive_map":
            axes = '[{"name":"rabi_rf","values":[6.0]},{"name":"rabi_mw","values":[0.8]}]'
            self._sweep("narrowing_map", 0, ["--set", f"sweep.axes={axes}"])
            self._sweep("laser_power", 0, ["--set", 'sweep.axes=[{"name":"laser_power_mw","values":[5.0]}]'])
        else:
            doc = self.modules["cli"].load_config(self.paths["fig2_strain"])
            self.modules["fitting"].fit(self._measure(doc, T0_K, 101, 0), self._strain_model(doc))
        self.clock.clear()
        self.artifacts = self.invalid_artifacts = 0

    def round(self, k: int):
        if self.workload == "lindblad_map":
            self._check_sweep(f"sensitivity_map:{k}", self._sweep("sensitivity_map", k))
            self._oracle_check()
        elif self.workload == "drive_map":
            self._check_sweep(f"narrowing_map:{k}", self._sweep("narrowing_map", k))
            self._check_sweep(f"laser_power:{k}", self._sweep("laser_power", k))
        else:
            self._temperature_pair(k)


def _traced_round(runner: Runner, k: int):
    tracer = Tracer()
    runner.clock.tracer = tracer
    first = len(runner.clock.times)
    tracer.install(runner.modules)
    start = time.perf_counter()
    try:
        runner.round(k)
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
        runner.clock.tracer = None
    layers = layer_metrics(tracer.spans, tracer.points, tracer.fit_info)
    layers["trace.spectra"] = len(runner.clock.times) - first
    layers["trace.traced_wall_s"] = wall
    layers["oracle.oracle_spectrum.share"] = layers["oracle.oracle_spectrum.s"] / wall
    layers["fitting.fit.share"] = layers["fitting.fit.s"] / wall
    return tracer, layers


def main(request: dict) -> dict:
    start_import = time.perf_counter()
    import nvtherm.cli  # noqa: F401  (the import the user pays first)

    import_s = time.perf_counter() - start_import
    import numpy
    import scipy

    workload = request["workload"]
    work = Path(request["work"])
    reference = None
    if not request.get("record"):
        reference = json.loads(REFERENCE.read_text())[workload]
    runner = Runner(workload, work, reference)
    result = {
        "import_s": import_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if request.get("record"):
        runner.warm_up()
        for k in range(POOL[workload]):
            runner.round(k)
        return {**result, "reference": runner.record}

    order = request["order"]
    runner.warm_up()
    if request["trace"]:
        k = order[0]
        start = time.perf_counter()
        runner.round(k)
        untraced = time.perf_counter() - start
        tracer, layers = _traced_round(runner, k)
        tracer.dump(work / "spans.json")
        _, again = _traced_round(runner, k)
        changed = [name for name in EXACT_COUNTS if layers[name] != again[name]]
        for name in changed:
            runner.problems.append(
                f"exact count {name} changed between two rounds of seed {k}: "
                f"{layers[name]} then {again[name]}"
            )
        result["exact_counts_repeat"] = not changed
        layers["import.s"] = import_s
        layers["trace.untraced_wall_s"] = untraced
        layers["trace.overhead_s"] = layers["trace.traced_wall_s"] - untraced
        result["layers"] = layers
        rounds = 3
        wall = None
    else:
        sampler = speed.Sampler()
        sampler.start()
        try:
            start = time.perf_counter()
            rounds = 0
            while (
                time.perf_counter() - start < request["seconds"]
                or len(runner.clock.times) < MIN_SPECTRA
                or rounds % PASS[workload]
            ):
                runner.round(order[rounds % len(order)])
                rounds += 1
            end = time.perf_counter()
        finally:
            sampler.stop()
        wall = end - start
        result.update(
            ref_wall_s=speed.run_reference_seconds(start, end, sampler.samples),
            ref_spectrum_s=[speed.reference_seconds(a, b, sampler.samples) for a, b in runner.clock.intervals],
            probes=len(sampler.samples),
            probe_busy_s=sum(s[2] for s in sampler.samples),
        )
    result.update(
        rounds=rounds,
        wall_s=wall,
        spectrum_s=runner.clock.times,
        failed=sum(f for f, _ in runner.outcomes),
        unexpected=sum(u for _, u in runner.outcomes),
        attempted=len(runner.outcomes),
        recovered=runner.recovered,
        artifacts=runner.artifacts,
        invalid_artifacts=runner.invalid_artifacts,
        within_3sigma=runner.within_3sigma,
        oracle_rel_rms=runner.oracle_rel_rms,
        problems=runner.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


if __name__ == "__main__":
    req = json.loads(sys.argv[1])
    out = main(req)
    Path(req["work"], "result.json").write_text(json.dumps(out))
