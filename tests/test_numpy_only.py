"""The CLI on numpy alone: every runner in interpreters where importing scipy fails.

numpy is the package's one runtime dependency.  Each run is a subprocess that
sets ``sys.modules['scipy'] = None`` before it imports ``nvtherm.cli``, so a
scipy import anywhere in a runner fails the run.  The outputs must keep their
bytes on one CPU, at one BLAS thread, and when the runs share one interpreter.
"""

import json
import os
from importlib.resources import files
from pathlib import Path
from typing import NamedTuple

import pytest

PRESETS = Path(str(files("nvtherm") / "presets"))
# A multi-point Lindblad sweep queues its points' branch solves for one
# worker thread and the calling thread, up to BRANCH_WINDOW (6) points ahead
# of the point being fitted; 9 points pass that window's edge.
MAP_GRID = 'sweep.axes=[{"name": "rabi_rf", "values": [2.0, 4.0, 8.0]}, {"name": "rabi_mw", "values": [0.4, 0.8, 1.6]}]'

_CLI = "import sys\nsys.modules['scipy'] = None\nfrom nvtherm.cli import main\nsys.exit(main(sys.argv[1:]))\n"
# Set in the child before numpy is imported, as taskset does, so that
# OpenBLAS sizes its pool for one CPU.
_ONE_CPU = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
# glibc's default trim threshold.  Importing scipy raises it as a side effect.
_TRIM = {"MALLOC_TRIM_THRESHOLD_": "131072"}
_ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1"}
_STRICT = ("-W", "error::RuntimeWarning")


class Run(NamedTuple):
    argv: list  # the CLI's arguments, without --out
    env: dict  # added to the child's environment
    flags: tuple  # the interpreter's own options


def _cli(command, preset, *overrides):
    argv = [command, "--config", str(PRESETS / f"{preset}.json")]
    for item in overrides:
        argv += ["--set", item]
    return Run(argv, {}, ())


def _fit(spectrum, *overrides, preset="fig2_dressed"):
    return _cli("fit", preset, 'mode="fit"', f"fit.input={spectrum}", *overrides)


def _trimmed(run, *flags):
    """``run`` at _TRIM, with ``flags`` given to the interpreter."""
    return run._replace(env=_TRIM, flags=flags)


# Every runner once, each in a fresh interpreter and in this order: a fit
# reads the spectrum that a run before it wrote.
RUNS = {
    "fig2.csv": _cli("simulate", "fig2_dressed"),
    "fit.json": _fit("fig2.csv"),
    # The best of three starts computes its covariance and FWHMs as it is written.
    "fit_multistart.json": _fit("fig2.csv", "fit.multistart=3"),
    "fig4.csv": _cli("simulate", "fig4_parallel"),
    # The stacked MultiLorentzian rows.
    "fit_lorentzian.json": _fit("fig4.csv", 'fit.model="lorentzian"', "fit.peaks=2", preset="fig4_parallel"),
    "sensitivity.json": _cli("sensitivity", "fig2_dressed", 'mode="sensitivity"', "budget.photon_rate=1e6"),
    "fig5.csv": _cli("sweep", "fig5_narrowing", 'sweep.axes=[{"name": "rabi_rf", "values": [6.0]}]'),
    "oracle.json": _cli("oracle-check", "oracle_weak_drive", "grid.points=41"),
    "map.csv": _cli("sweep", "sensitivity_map", "grid.points=81", 'sweep.axes=[{"name": "rabi_rf", "values": [4.0]}, '
                    '{"name": "rabi_mw", "values": [0.8]}]'),
    "map9.csv": _cli("sweep", "sensitivity_map", "grid.points=81", MAP_GRID),
}
# The sigma_ex path, at _TRIM.  Its fits fail on any RuntimeWarning: their
# real-arithmetic kernel must stay as finite and silent as the complex one.
# It takes a point's 21 nodes in one block over the whole grid (781 points),
# or over slices of it past BLOCK_POINTS nodes x points (2001 points), and
# sums them with np.einsum: no BLAS and no thread.
SIGMA_EX_RUNS = {
    "strain.csv": _trimmed(_cli("simulate", "fig2_dressed", "strain.sigma_ex=2")),
    # A 369-node average takes 37 blocks of at most 10 nodes over the grid.
    "strain_369.csv": _trimmed(_cli("simulate", "fig2_dressed", "strain.sigma_ex=2", "strain.nodes=369")),
    "fit_strain.json": _trimmed(_fit("strain.csv", "fit.fit_sigma_ex=true"), *_STRICT),
    "strain_2001.csv": _trimmed(_cli("simulate", "fig2_dressed", "strain.sigma_ex=2", "grid.points=2001")),
    "fit_2001.json": _trimmed(_fit("strain_2001.csv", "fit.fit_sigma_ex=true"), *_STRICT),
    "strain_401.csv": _trimmed(_cli("simulate", "fig2_dressed", "strain.sigma_ex=1.5", "grid.points=401")),
    "fit_strain_401.json": _trimmed(_fit("strain_401.csv", "fit.fit_sigma_ex=true"), *_STRICT),
}
ALL_RUNS = {**RUNS, **SIGMA_EX_RUNS}


def _nvtherm(run_python, runs, name, kind=".", *, env=None, one_cpu=False):
    """Run ``ALL_RUNS[name]`` with scipy blocked into ``runs/kind/name``; return its bytes.

    A run that is compared with the fresh one keeps its environment and flags
    and changes one thing: ``env`` added, or one CPU.
    """
    run = ALL_RUNS[name]
    code = (_ONE_CPU if one_cpu else "") + _CLI
    (runs / kind).mkdir(exist_ok=True)
    out = f"{kind}/{name}"
    run_python(*run.flags, "-c", code, *run.argv, "--out", out, env={**run.env, **(env or {})}, cwd=runs)
    return (runs / out).read_bytes()


@pytest.fixture(scope="module")
def runs(tmp_path_factory, run_python):
    """The directory of every fresh run's outputs; each run must exit 0."""
    runs = tmp_path_factory.mktemp("numpy_only")
    for name in ALL_RUNS:
        _nvtherm(run_python, runs, name)
    return runs


@pytest.mark.parametrize("preset", sorted(PRESETS.glob("*.json")), ids=lambda p: p.stem)
def test_every_preset_validates(preset, run_python):
    assert run_python("-c", _CLI, "validate", "--config", str(preset)) == "valid: no problems found\n"


def test_multistart_fit_writes_strict_json(runs):
    json.loads((runs / "fit_multistart.json").read_text(), parse_constant=pytest.fail)


# A run that fails prints its one error line, not an ImportError or a traceback.
@pytest.mark.parametrize(
    "run, line",
    [
        (
            _cli("oracle-check", "oracle_weak_drive", "oracle.pump_rate=1e-30", "grid.points=41"),
            "DegenerateSteadyStateError: steady state is not unique on the upper branch at 2855.0 MHz: "
            "zero-eigenvalue multiplicity 3",
        ),
        (_fit("missing.csv"), "FileNotFoundError: [Errno 2] No such file or directory: 'missing.csv'"),
    ],
    ids=["degenerate", "missing"],
)
def test_failed_run_prints_one_line(run, line, tmp_path, run_python):
    code = "import sys\nsys.stderr = sys.stdout\n" + _CLI
    out = run_python("-c", code, *run.argv, "--out", "out", cwd=tmp_path, status=1)
    assert out == f"error: {line}\n"


@pytest.mark.parametrize("name", ["oracle.json", "map.csv", "map9.csv", "fit_strain.json", "fit_2001.json"])
def test_one_blas_thread_moves_no_bit(name, runs, run_python):
    # The oracle solves on the calling thread and the sweep each branch on
    # whichever of its two threads takes it: the bits depend neither on that
    # thread nor on BLAS's own thread count.
    assert _nvtherm(run_python, runs, name, "blas1", env=_ONE_BLAS_THREAD) == (runs / name).read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="CPU affinity is set through sched_setaffinity")
@pytest.mark.parametrize("name", ["oracle.json", "map9.csv", "fit_strain.json", "fit_2001.json"])
def test_one_cpu_moves_no_bit(name, runs, run_python):
    assert _nvtherm(run_python, runs, name, "one_cpu", one_cpu=True) == (runs / name).read_bytes()


_SHARED = """
import json, sys
sys.modules['scipy'] = None
from nvtherm.cli import main
*runs, last = json.loads(sys.argv[1])
for argv in runs:
    if main(argv):
        sys.exit(1)
# The GIL handed between the Lindblad sweep's two threads every microsecond.
sys.setswitchinterval(1e-6)
sys.exit(main(last))
"""


def test_one_interpreter_writes_what_fresh_ones_write(runs, run_python):
    # No complex work view, block of the generators' node sum, slope-scan
    # work array or kept sigma_ex terms (the value's terms that a Jacobian at
    # its point reuses) may carry state from one run into the next: the
    # second fit of strain.csv follows a fit of another spectrum on a
    # 401-point grid.  The 3x3 Lindblad sweep runs last.
    sequence = [
        "sensitivity.json", "strain.csv", "strain_369.csv", "fig5.csv", "oracle.json", "sensitivity.json",
        "map.csv", "fit_strain.json", "strain_401.csv", "fit_strain_401.json", "fit_strain.json", "map9.csv",
    ]
    (runs / "shared").mkdir()
    outs = [f"shared/{i}_{name}" for i, name in enumerate(sequence)]
    argvs = [[*ALL_RUNS[name].argv, "--out", out] for name, out in zip(sequence, outs)]
    # One interpreter has one environment: that of its sigma_ex runs.
    run_python("-c", _SHARED, json.dumps(argvs), env=_TRIM, cwd=runs)
    changed = [name for name, out in zip(sequence, outs) if (runs / out).read_bytes() != (runs / name).read_bytes()]
    assert changed == []
