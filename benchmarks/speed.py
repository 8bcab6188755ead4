"""Machine-speed probe: a fixed kernel timed on a timer during timed work.

The benchmark runs on a few cores of a host shared with other tenants.  For
stretches of under a second to several minutes the same work runs up to
twice as slow there, and CPU time slows as much as wall time, so a spread
between runs is mostly the host's and not the program's.  The probe is a
fixed kernel that does not call nvtherm: small complex LAPACK calls,
vectorised arithmetic on a spectrum-sized grid, and interpreted Python, the
same mix the program spends its time on.  A ``Sampler`` times it every
``INTERVAL_S`` during each timed run (``workloads.py``) and each set-up
(``run.py``), and each measured time, less the probes inside it, is divided
by the probe time over ``PROBE_REF_S``: a figure in "reference seconds" is
the time the work would have taken at the speed the probe had when the
benchmark was written.  Raw wall times are printed beside them.  The probe
is the same on every commit, so a change to the program moves the
normalised figures as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# Typical probe time on the machine in environment.json when this was written.
PROBE_REF_S = 1.0e-3

# Wall time between two samples of the probe during a timed run.
INTERVAL_S = 0.05

_rng = np.random.default_rng(20221)
_MATRIX = _rng.standard_normal((9, 9)) + 1j * _rng.standard_normal((9, 9))
_GRID = np.linspace(-40.0, 40.0, 1001)


def _kernel() -> float:
    acc = 0.0
    for i in range(8):
        acc += abs(np.linalg.eigvals(_MATRIX + i * np.eye(9))).sum()
        acc += float(np.sum(1.0 / (1.0 + (_GRID - i) ** 2) * np.exp(-0.01 * _GRID**2)))
        for j in range(150):
            acc += j * 0.5
    return acc


def probe() -> float:
    """Wall time of one pass of the fixed kernel, run once untimed first.

    The untimed pass warms the caches the kernel needs, so the timed pass
    reads the same whether it follows a spectrum or another probe.
    """
    _kernel()
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


class Sampler:
    """Times the probe every ``INTERVAL_S`` of wall time, from a SIGALRM handler.

    The machine's speed changes within a second, inside a single spectrum,
    so the probe samples it on a timer rather than between spectra.  Each
    sample is (start, probe time, time the handler took); the handler's
    time is not the program's and is taken out of every interval it falls in.
    """

    def __init__(self):
        self.samples: list = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        probe_s = probe()
        self.samples.append((start, probe_s, time.perf_counter() - start))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def reference_seconds(start: float, end: float, samples: list) -> float:
    """Wall time from ``start`` to ``end`` less the probes in it, at reference speed.

    The speed factor is the mean probe time of the samples taken inside the
    interval, or of the nearest sample if none was, over ``PROBE_REF_S``.
    """
    at = [s[0] for s in samples]
    lo, hi = bisect.bisect_left(at, start), bisect.bisect_left(at, end)
    inside = samples[lo:hi]
    if not inside:
        middle = 0.5 * (start + end)
        inside = [min(samples[max(0, lo - 1) : lo + 1], key=lambda s: abs(s[0] - middle))]
        busy = 0.0
    else:
        busy = sum(s[2] for s in inside)
    factor = sum(s[1] for s in inside) / (len(inside) * PROBE_REF_S)
    return (end - start - busy) / factor


def run_reference_seconds(start: float, end: float, samples: list) -> float:
    """Like ``reference_seconds``, summed over the stretches between samples.

    Over a whole run this follows the speed from sample to sample: each
    stretch is scaled by the probe time of the sample that starts it.
    """
    inside = [s for s in samples if start <= s[0] < end]
    edges = [start, *(s[0] for s in inside), end]
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        total += reference_seconds(a, b, samples) if b > a else 0.0
    return total
