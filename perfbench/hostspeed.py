"""How fast the host runs right now, from a fixed reference kernel.

On a shared host the same prune of the same model takes 0.28 s in one
second and 0.50 s in the next: a neighbour's load slows this process's
CPU time as much as its wall time, in bursts from milliseconds to
minutes. A run that happens to fall in a busy minute reads slow, however
long it is. The kernel here is timed between commands; a command's time
divided by the kernel's mean time around it is its time in kernel units,
which the host's load moves far less (for the same model, the ratio
stayed within about 5% while the prune's own time moved by 1.6x).

The kernel is the numpy pattern of the k-medoids swap step (masked
minimum, column sums, argmin on a 64 x 64 distance matrix), the pattern
most of a prune's time goes to, written out here so that no change to
acsp can move it. Its input is fixed, so only the host changes its time.
"""

from __future__ import annotations

import time

import numpy as np

_N = 64
_rng = np.random.default_rng(20190101)
_points = _rng.random((_N, 6))
_DIST = np.sqrt(((_points[:, None, :] - _points[None, :, :]) ** 2).sum(axis=2))
_ROWS = np.arange(_N)

# The kernel's time on an unloaded 2-vCPU Xeon VM (numpy 2.4.6, OpenBLAS).
# Times are reported at the host speed where the kernel takes this long;
# the value only sets the scale, it must stay fixed for figures to compare.
REFERENCE_S = 0.008


def kernel() -> float:
    """One run of the reference kernel (about 8 ms unloaded); its seconds."""
    start = time.perf_counter()
    for r in range(60):
        meds = list(range(r % 5, _N, 8))
        dm = _DIST[:, meds]
        pos = np.argmin(dm, axis=1)
        d1 = dm[_ROWS, pos]
        dm2 = dm.copy()
        dm2[_ROWS, pos] = np.inf
        d2 = dm2.min(axis=1)
        for mi in range(len(meds)):
            base = np.where(pos == mi, d2, d1)
            costs = np.minimum(base[:, None], _DIST).sum(axis=0)
            int(np.argmin(costs))
    return time.perf_counter() - start


def sample(seconds: float) -> list[float]:
    """Kernel times, run back to back for about `seconds` (at least once)."""
    times = [kernel()]
    while sum(times) < seconds:
        times.append(kernel())
    return times
