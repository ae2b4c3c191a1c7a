"""A fixed reference kernel that the benchmark times after every op and after
every set-up repeat.

The benchmark runs on small shared virtual machines, where the speed of one
vCPU drifts by tens of percent over minutes as neighbours come and go.  An op
time divided by the time of this kernel, measured on the same thread over the
same stretch of the run, cancels most of that drift.  The kernel is a short
chain of dense complex matrix products and axis permutations, the work of the
oracle.  Tried against interpreter-bound object churn and against large
memory-bound transposes, it tracked the drift of all three workloads best,
the interpreter-bound ones included.

It uses nothing from the package, so no change to the package can move it.
It must never change, or every earlier reading loses its meaning.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel pass time that set-up times are scaled to, about its time on the
# two-vCPU machine the benchmark was tuned on.  Fixed for the same reason.
NOMINAL_SECONDS = 0.015

_rng = np.random.default_rng(0)
_A = _rng.normal(size=(256, 256)) + 1j * _rng.normal(size=(256, 256))
_B = _A.T.copy()


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel (about 15 ms)."""
    start = time.perf_counter()
    x = _A
    for _ in range(4):
        x = (x @ _B) * 1e-3
        x = x.reshape(16, 16, 256).transpose(1, 0, 2).reshape(256, 256).copy()
    complex(x[0, 0])
    return time.perf_counter() - start
