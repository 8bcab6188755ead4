"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="session")
def run_python():
    """``run_python(*args, env=None, cwd=None, status=0)``: this interpreter's stdout on
    ``args``, with ``src`` first on ``PYTHONPATH`` and ``env`` added; an exit other than
    ``status`` fails with its stderr."""

    def run(*args, env=None, cwd=None, status=0):
        path = os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path, **(env or {})}
        out = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True)
        if out.returncode != status:
            shown = " ".join(a for a in args if "\n" not in a)  # not the -c program
            pytest.fail(f"python {shown} exited {out.returncode}, not {status}:\n{out.stderr}", pytrace=False)
        return out.stdout

    return run
