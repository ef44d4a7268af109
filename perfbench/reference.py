"""Reference kernel: fixed work that never touches flowpde.

On a shared host the same batch runs up to 40 % slower while other tenants
are busy, in phases of seconds to minutes, and CPU time grows with wall time
(the cores themselves run slower).  The benchmark therefore interrupts the
program at short intervals to run this kernel, for a fixed share of the
program's time, and reports the program's time in units of the kernel's
time: both slow down together, so the ratio stays put while the raw times
drift.

One rep mixes what the program does: small real FFTs and element-wise
updates on a 256-point lattice, Python-level float conversions, and a
streaming pass over an 8 MB array.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# nominal seconds of one rep: about the fastest rep seen between the
# program's calls on a 2-vCPU Xeon virtual machine (Python 3.11, numpy 2.4);
# reported times are scaled to this speed
REP_S = 0.01

_rng = np.random.default_rng(20210923)
_SMALL = _rng.standard_normal((4, 256))
_DAMP = np.exp(-np.arange(129) / 30.0)
_LARGE = _rng.standard_normal(1 << 20)


def _rep() -> float:
    a = _SMALL.copy()
    acc = 0.0
    for _ in range(120):
        a = np.fft.irfft(np.fft.rfft(a, axis=1) * _DAMP, n=256, axis=1)
        a -= 0.01 * a * a * a
        acc += sum(float(x) for x in a[0, :32])
    b = _LARGE * 1.0001
    b += _LARGE
    np.sqrt(np.abs(b), out=b)
    return acc + float(b[0])


def run(reps: int) -> float:
    """Seconds taken by `reps` reps."""
    t0 = perf_counter()
    for _ in range(reps):
        _rep()
    return perf_counter() - t0
