"""Host-speed reference kernels.

The shared 2-vCPU host this benchmark was defined on changes speed by
up to 2x from one second to the next (other tenants share its cores and
caches), and the changes last for seconds, so a plain median over one
run swings by 20-35% between runs.  The benchmark therefore times two fixed
kernels between its measured rounds and reports each wall-time metric
at a nominal host speed: rates are multiplied, and durations divided,
by the host's *slowness* -- the geometric mean over the kernels of
measured time / nominal time (1.0 on the nominal host).

The kernels use only Python and numpy, never ``repro``, so no change to
the program under test can move them.  Each stands for one kind of
work the workloads do, because contention slows them by different
amounts: small numpy window ops on 32x24 arrays driven from a Python
loop (the serving hot path), and QCIF-sized window ops and strided
reductions over a pool of arrays larger than the per-core caches
(executor compute on a big frame pool).  Measured against rounds of
every workload, this pair tracked host speed better than either kernel
alone or a pure-Python kernel.  Raw, unscaled figures are printed next
to the scaled ones.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: Arrays in the cache-busting pool (QCIF luma-sized, 32-bit: ~6.5 MB).
POOL_ARRAYS = 64


class HostReference:
    """The fixed kernels and their working set."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.small = (np.arange(24 * 32, dtype=np.uint16) * 7
                      % 251).reshape(24, 32)
        self.pool: List[np.ndarray] = [
            rng.integers(0, 1 << 16, size=(144, 176), dtype=np.uint32)
            for _ in range(POOL_ARRAYS)]
        #: (kernel, seconds it takes on the nominal host: its median on
        #: a 2-vCPU Intel Xeon host, Python 3.11, numpy 2.4).
        self.kernels: Tuple[Tuple[Callable[[], int], float], ...] = (
            (self.small_windows, 0.0080),
            (self.pool_sweep, 0.0140),
        )

    def small_windows(self) -> int:
        acc = 0
        for step in range(60):
            padded = np.pad(self.small, 1, mode="edge")
            window = sliding_window_view(padded, (3, 3)).reshape(24, 32, 9)
            out = window.max(axis=2).copy()
            acc += int(out[step % 24, step % 32])
        return acc

    def pool_sweep(self) -> int:
        acc = 0
        for index in range(0, POOL_ARRAYS, 16):
            padded = np.pad(self.pool[index], 1, mode="edge")
            out = sliding_window_view(padded, (3, 3)).max(axis=(2, 3))
            acc += int(out[index % 144, index % 176])
        for index in range(POOL_ARRAYS):
            acc += int(self.pool[(index * 37) % POOL_ARRAYS][::4].sum())
        return acc

    def slowness(self) -> float:
        """How much slower than nominal the host runs right now."""
        product = 1.0
        for kernel, nominal in self.kernels:
            start = time.perf_counter()
            kernel()
            product *= (time.perf_counter() - start) / nominal
        return product ** (1.0 / len(self.kernels))
