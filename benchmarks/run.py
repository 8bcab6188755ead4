"""nvtherm benchmark: three closed-loop workloads, end to end or traced.

Run from the repository root:

    python3 benchmarks/run.py --workload drive_map --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``):

* ``lindblad_map`` (oracle-bound): the shipped ``sensitivity_map`` preset
  through ``cli.main sweep`` (Lindblad generator), then the
  ``oracle_weak_drive`` preset through ``cli.main oracle-check``.
* ``strain_thermometry`` (fitting-bound): a 5 K temperature step on the
  ``fig2_dressed`` geometry with a strain spread, fitted with
  ``DressedDip(fit_sigma_ex=True)`` and turned into a temperature by
  ``estimate_temperature``.
* ``drive_map`` (closed-form sweeps): a widened ``fig5_narrowing`` 8x8 drive
  map and a ``fig4_parallel`` laser-power sweep through ``cli.main sweep``.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it wraps the public functions of every module, runs one round untraced and
two traced, and reports per-layer time, self time and work counts.

End-to-end times are in reference seconds: each measured time is divided by
the speed of the machine at that moment, read from a fixed probe kernel
timed every 50 ms while the work runs (``speed.py``), so that the host's
slow phases do not pass for changes in the program.  The raw wall figures
are printed beside them.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts spectra whose
outcome is worse than the recorded reference: a fit that failed where the
reference fitted, or an output outside tolerance.  Fits that fail where the
reference failed too (the low-SNR edge of the drive map) count only in the
printed ``fail_ratio``.

``--record-reference`` re-records ``reference.json`` from the current
source tree; do so only on a commit whose outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

# One client on a 2-core machine: BLAS keeps to one thread here and in every
# process the benchmark starts, so a run uses nothing that competes with it.
BLAS_THREADS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import speed  # noqa: E402
import workloads  # noqa: E402  (stdlib only; safe before the package exists)
from tracing import PER_LAYER  # noqa: E402

SETUP_REPEATS = 3
RUN_TIMEOUT_S = 170.0
RECORD_TIMEOUT_S = 900.0
MIN_TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("spectra_per_s", "1/s"),
    ("spectrum_s.p50", "s"),
    ("spectrum_s.tail", "s"),
    ("peak_rss_mb", "MB"),
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(BLAS_THREADS)
    return env


# A fresh interpreter imports the CLI and validates the configs while the
# probe samples the machine's speed; it prints the probe times and the time
# the probes took, which is not set-up time.
SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
import speed
start = time.perf_counter()
first = speed.probe()
busy = time.perf_counter() - start
sampler = speed.Sampler()
sampler.start()
import nvtherm.cli as cli
for path in sys.argv[2:]:
    cli.load_config(path)
sampler.stop()
print(json.dumps({"busy": busy + sum(s[2] for s in sampler.samples),
                  "probes": [first, *(s[1] for s in sampler.samples)]}))
"""


def measure_setup(config_paths: list):
    """Wall times of fresh interpreters importing the CLI and validating the configs.

    Returns (raw times, times in reference seconds).  The speed probe runs
    inside each set-up process; its own time is taken out of the
    normalised figure.
    """
    times, normalised = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(BENCH), *map(str, config_paths)],
            cwd=ROOT,
            env=_child_env(),
            check=True,
            timeout=60,
            capture_output=True,
            text=True,
        )
        times.append(time.perf_counter() - start)
        probes = json.loads(child.stdout)
        factor = statistics.mean(probes["probes"]) / speed.PROBE_REF_S
        normalised.append((times[-1] - probes["busy"]) / factor)
    return times, normalised


def run_child(request: dict, timeout: float) -> dict:
    work = Path(request["work"])
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, str(BENCH / "workloads.py"), json.dumps(request)],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.DEVNULL,
        check=True,
        timeout=timeout,
    )
    return json.loads(result_path.read_text())


def tail(times: list):
    """(value, percentile) at the highest percentile with MIN_TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    i = len(ordered) - 1 - MIN_TAIL_BEYOND
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _line(name, value, unit, note):
    print(f"{name:<44} = {value:<12.6g} {unit:<6} ({note})")


def record_reference(names: list):
    reference = {}
    if workloads.REFERENCE.exists():
        reference = {
            name: entries
            for name, entries in json.loads(workloads.REFERENCE.read_text()).items()
            if name in workloads.POOL
        }
    for name in names:
        work = WORK / f"record-{name}"
        shutil.rmtree(work, ignore_errors=True)
        result = run_child({"workload": name, "work": str(work), "record": True}, RECORD_TIMEOUT_S)
        reference[name] = result["reference"]
        print(f"recorded {name}: {len(result['reference'])} entries")
    lines = [
        f"  {json.dumps(w)}: {{\n" + ",\n".join(f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())) + "\n  }"
        for w, entries in sorted(reference.items())
    ]
    workloads.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.POOL))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nvtherm" / "__init__.py").is_file():
        print(f"error: no nvtherm source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference([args.workload] if args.workload else sorted(workloads.POOL))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    started = time.perf_counter()
    pool = workloads.POOL[args.workload]
    order = random.Random(args.seed).sample(range(pool), pool)
    work = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    setup = None
    if not args.trace:
        setup = measure_setup(workloads.write_configs(args.workload, work))
    request = {
        "workload": args.workload,
        "order": order,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "work": str(work),
    }
    result = run_child(request, RUN_TIMEOUT_S - (time.perf_counter() - started))

    times = result["spectrum_s"]
    attempted = result["attempted"]
    correct = not result["problems"] and result["unexpected"] == 0
    for problem in result["problems"]:
        print(f"error: {problem}", file=sys.stderr)
    versions = result["versions"]
    print(
        f"environment: {_cpu_model()}, nproc {os.cpu_count()}, python {versions['python']}, "
        f"numpy {versions['numpy']}, scipy {versions['scipy']}, BLAS threads 1, "
        "closed loop, 1 client"
    )
    print(
        f"workload {args.workload}: seed {args.seed}, rounds {result['rounds']} "
        f"(order starts {order[:4]}), spectra {len(times)}, trace {args.trace}"
    )

    if args.trace:
        layers = result["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit, _ in PER_LAYER}
        for name, unit, _ in PER_LAYER:
            _line(name, layers[name], unit, "one traced round")
        print(
            f"exact counts repeated over two traced rounds: "
            f"{'yes' if result['exact_counts_repeat'] else 'NO'}; spans written to {work / 'spans.json'}"
        )
    else:
        # Every time below is in reference seconds (see speed.py); the raw
        # wall figure follows in each note.
        ref_times = result["ref_spectrum_s"]
        tail_s, tail_pct = tail(ref_times)
        values = {
            "setup_s": statistics.median(setup[1]),
            "spectra_per_s": len(times) / result["ref_wall_s"],
            "spectrum_s.p50": statistics.median(ref_times),
            "spectrum_s.tail": tail_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of {SETUP_REPEATS} fresh interpreters; raw {statistics.median(setup[0]):.4f} s",
            "spectra_per_s": f"{len(times)} spectra in {result['ref_wall_s']:.3f} ref s; raw "
            f"{result['wall_s']:.3f} s with {result['probes']} probes taking {result['probe_busy_s']:.3f} s",
            "spectrum_s.p50": f"n={len(times)}; raw {statistics.median(times):.6f} s",
            "spectrum_s.tail": f"p{tail_pct:.1f}, n={len(times)}, {MIN_TAIL_BEYOND} beyond; "
            f"raw {tail(times)[0]:.6f} s",
            "peak_rss_mb": "workload process",
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            _line(name, values[name], unit, notes[name])
    _line("fail_ratio", result["failed"] / attempted, "ratio",
          f"{result['failed']} of {attempted} spectra; {result['unexpected']} unexpected, "
          f"{result['recovered']} recovered vs reference")
    _line("invalid_artifacts", result["invalid_artifacts"], "count",
          f"of {result['artifacts']} JSON artifacts rejected by a strict parser")
    hits, pairs = result["within_3sigma"]
    if pairs:
        _line("t_within_3sigma_ratio", hits / pairs, "ratio",
              f"{hits} of {pairs} temperature steps")
    if result["oracle_rel_rms"] is not None:
        _line("oracle_rel_rms", result["oracle_rel_rms"], "ratio", "oracle_weak_drive preset")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": result["unexpected"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
