"""Host speed probe: a fixed numpy kernel timed between units of measured work.

On a shared virtual machine the speed of the same single-threaded code drifts
by 20-30 % over tens of seconds as neighbours load the host's cores, caches
and memory, so two runs of one commit can differ by more than any gain worth
claiming. The probe is a fixed piece of benchmark-owned work of the same kind
as the package's hot path -- an im2col 3x3 convolution, batch statistics, a
leaky ReLU and a streaming pass over 16 MB -- so it slows down with the host
in step with the workload. A run times the probe between its units of work
(never inside them) and scales every timing by ``REFERENCE_S / median(probe)``:
the figures read as if the host ran at the speed where one probe takes
``REFERENCE_S``. The probe code never changes with the package, so a faster
package still reads faster by the same share.
"""
from __future__ import annotations

from statistics import median
from time import perf_counter
from typing import List

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

#: probe seconds at the reference speed; close to its median on a 2-vCPU cloud VM
REFERENCE_S = 0.025

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((5, 16, 64, 64)).astype(np.float32)
_W = _rng.standard_normal((32, 16 * 9)).astype(np.float32)
_STREAM = _rng.standard_normal(4_000_000).astype(np.float32)


def probe_once() -> float:
    """Seconds for one run of the fixed kernel."""
    t0 = perf_counter()
    padded = np.pad(_X, ((0, 0), (0, 0), (1, 1), (1, 1)))
    cols = sliding_window_view(padded, (3, 3), axis=(2, 3))  # n, c, h, w, kh, kw
    cols = np.ascontiguousarray(cols.transpose(1, 4, 5, 0, 2, 3)).reshape(16 * 9, -1)
    y = _W @ cols
    y = (y - y.mean(axis=1, keepdims=True)) / np.sqrt(y.var(axis=1, keepdims=True) + 1e-5)
    y = np.where(y > 0, y, 0.2 * y)
    s = _STREAM * 1.0001 + 0.5
    float(y.sum() + s.sum())
    return perf_counter() - t0


class Speed:
    """Probe samples of one run and the factor that scales its timings."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.probe_s = 0.0  # probe seconds inside the current timed call, for callers to subtract
        probe_once()  # first use pays numpy's lazy set-up; not a sample

    def probe(self, reps: int = 1) -> float:
        """Take ``reps`` samples; returns the seconds spent probing."""
        t0 = perf_counter()
        self.samples += [probe_once() for _ in range(reps)]
        return perf_counter() - t0

    @property
    def factor(self) -> float:
        """Multiply a measured time by this (divide a rate) to read it at the reference speed."""
        return REFERENCE_S / median(self.samples)

    def report(self) -> str:
        return (f"speed: probe median {1e3 * median(self.samples):.3f} ms over {len(self.samples)} samples, "
                f"reference {1e3 * REFERENCE_S:g} ms; end-to-end timings scaled by {self.factor:.4f}")
