"""Fixed calibration kernels that tell how fast the machine runs right now.

The benchmark's machine is shared, and its speed moves by up to 1.7x
from one second to the next, in CPU time as much as in wall time: a
``tabulate`` pass took 41 ms in one 6 s window and 59 ms in the next,
and the same operations' CPU time moved by 50% between runs.  Each operation is therefore timed next to one of
these kernels, whose work never changes, and its time is reported in
*reference* seconds: its measured time times ``NOMINAL_S[kind]`` over the
longer of the kernel's two runs on either side of it.  Reference seconds
read like seconds on this machine when it runs the kernel in its nominal
time.  The longer of the two, because a slowdown of the machine that
begins or ends during an operation shows in the kernel run on that side;
scaled by the faster one, it would read as the program's.

The kernels use nothing of the program.  ``scalar`` mixes the work of
the program's scalar path (float arithmetic in the interpreter, numpy
calls on small arrays, float-to-text conversion); ``vector`` runs numpy
ufuncs over a 2 MB array, like the oracle's sample and grid kernels,
whose speed follows the machine's memory rather than its interpreter;
``startup`` is plain Python, for a fresh interpreter that has not yet
imported numpy (``setup_probe.py``).  numpy is imported on first use for
that reason.
"""

from __future__ import annotations

import functools
import json
import math
import time


@functools.cache
def _arrays():
    import numpy as np

    return np, np.linspace(0.01, 0.99, 512), np.linspace(0.5, 1.5, 250_000)


def _scalar() -> float:
    np, small, _ = _arrays()
    s = 0.0
    for i in range(1, 600):
        s += math.sqrt(i) / (1.0 + i % 7)
    for k in range(8):
        s += float(np.sum(np.power(small, 1.5 + k * 0.01)))
    return s + len(json.dumps([repr(x) for x in small[:100].tolist()]))


def _vector() -> float:
    np, _, large = _arrays()
    y = np.power(large, 1.7)
    return float(np.sum(np.log(large) * y)) + float(np.max(y))


def _startup() -> float:
    s = 0.0
    for i in range(1, 8000):
        s += math.sqrt(i) / (1.0 + i % 7)
    return s + len(json.dumps({str(i): i * 0.5 for i in range(500)}))


KERNELS = {"scalar": _scalar, "vector": _vector, "startup": _startup}

# each kernel's time on the 2-core VM the benchmark was built on, when
# that machine was at its fastest (Python 3.11, numpy 2.4)
NOMINAL_S = {"scalar": 0.30e-3, "vector": 4.5e-3, "startup": 1.6e-3}


# time off the CPU (wall minus CPU time) beyond this share of a run's CPU
# time is the machine's, not the program's: on this VM the hypervisor
# takes the CPU away for seconds at a time (steal up to half a core), and
# an operation does no I/O and, with ``--workers 1``, starts no thread
OFF_CPU_SHARE = 0.05


def on_cpu(wall: float, cpu: float) -> float:
    """Wall time, counting time off the CPU up to OFF_CPU_SHARE of CPU time."""
    return min(wall, cpu * (1.0 + OFF_CPU_SHARE))


def timed(kind: str) -> tuple:
    """(wall s, CPU s) of one run of the ``kind`` kernel."""
    kernel = KERNELS[kind]
    t0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - t0, time.process_time() - c0
