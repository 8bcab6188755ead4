"""The names the benchmark wraps must resolve on the package.

``benchmarks/tracing.py`` replaces functions by (owner, attribute) and
``benchmarks/workloads.py`` times ``sensitivity._sweep_point``; a refactor
that drops or renames one of them breaks the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import nvtherm.cli
from nvtherm import fitting, lineshape, oracle, sensitivity, spin

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
MODULES = {
    "cli": nvtherm.cli,
    "fitting": fitting,
    "lineshape": lineshape,
    "oracle": oracle,
    "sensitivity": sensitivity,
    "spin": spin,
}


def _traced():
    spec = importlib.util.spec_from_file_location("nvtherm_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    missing = []
    for path, attr, _ in _traced():
        module, _, cls = path.partition(".")
        owner = getattr(MODULES[module], cls) if cls else MODULES[module]
        if not callable(getattr(owner, attr, None)):
            missing.append(f"{path}.{attr}")
    assert missing == []


def test_sweep_point_resolves():
    assert callable(sensitivity._sweep_point)
