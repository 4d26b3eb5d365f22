"""The reference computation that tracks the machine's speed during a run.

It uses numpy and plain Python the way hkgeom's float code does (small
matrix products, elementwise functions, integer arithmetic in a loop) and
never touches hkgeom, so a change to the library cannot move it.
"""

import time

import numpy as np

# probe_seconds() on the reference machine (2 vCPU Intel Xeon VM, Python 3.11,
# numpy 2.4) in its fast state.
REFERENCE_SECONDS = 0.00047

_M = np.arange(36.0).reshape(6, 6) / 36.0


def _reference_seconds() -> float:
    t0 = time.perf_counter()
    m = _M
    acc = 0
    for i in range(200):
        m = np.tanh(m @ _M.T)
        acc += i * i % 7
    return time.perf_counter() - t0


def probe_seconds() -> float:
    """Seconds for the reference computation, best of three."""
    return min(_reference_seconds() for _ in range(3))
