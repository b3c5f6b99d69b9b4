"""A fixed reference kernel, timed next to every operation to gauge the machine's speed.

On the shared 2-CPU machine this benchmark was built on, the same code ran
up to 1.7x slower from one minute to the next, with no steal time and the
process's CPU time equal to its wall time: the host's other load, not this
process, set the pace. Dividing each operation's time by the time of this
kernel, run just before and just after it, cancels most of that. The
kernel uses none of graphsamp and its inputs never change, so only a
change to the program can move the ratio.

The kernel mixes what the workloads spend their time on: BLAS products
and a thin SVD of the design loop's shapes (256x256 by 256x32), a
symmetric eigendecomposition and pure-Python arithmetic. It takes about
20 ms and holds about 1 MB, so it adds little to peak RSS.
"""

from __future__ import annotations

import time

import numpy as np

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((256, 256))
_S = _rng.standard_normal((256, 32))
_M = _A @ _A.T


def _kernel() -> None:
    S = _S
    for _ in range(10):
        U, _, Vt = np.linalg.svd(_A @ S, full_matrices=False)
        S = _A.T @ (U @ Vt)
        S /= np.linalg.norm(S)
    np.linalg.eigh(_M)
    total = 0
    for i in range(20_000):
        total += i * i


def timed_kernel() -> float:
    """Wall seconds of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
