"""A fixed calibration kernel that tracks how fast the machine runs now.

On a shared host the speed of one core drifts: a pure-Python loop and
a small matrix product slow down together by up to 40% in phases that
last from under a second to minutes.  A pass of a workload then takes
up to a fifth longer in one minute than in the next, whatever the code.
The kernel below does the same kind of work as the workloads, a Python
loop and small BLAS calls, in about 7 ms.  Sampled between the tasks of
a pass, it measures the speed that the pass met.

``wall_ref_s`` rescales a pass's time to a machine on which one kernel
run takes ``REFERENCE_KERNEL_S``: time x REFERENCE_KERNEL_S / median
kernel time of the pass.  On the 2-vCPU VM the benchmark was tuned on,
this cut the quartile spread of 60 s windows from 0.12-0.18 of the
median to 0.03-0.05.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# About the median kernel time on the tuning VM (Xeon, 2.1 GHz, one
# BLAS thread), so that wall_ref_s reads close to seconds there.
REFERENCE_KERNEL_S = 0.0065

_A = np.random.default_rng(0).standard_normal((120, 120))


def kernel_s():
    """Seconds one run of the fixed kernel takes now."""
    start = perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i % 7
    for _ in range(10):
        _A @ _A
    return perf_counter() - start


def at_reference(seconds, kernel_samples):
    """``seconds`` measured while the kernel took ``kernel_samples``,
    rescaled to the reference speed."""
    return seconds * REFERENCE_KERNEL_S / float(np.median(kernel_samples))
