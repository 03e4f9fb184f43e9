"""Arithmetic the benchmark relies on, kept free of timing and of numpy.

Everything here is a pure function of its arguments so that
``test_harness.py`` can check it on hand-worked values.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Optional, Sequence, Tuple

#: percentiles the tail metric may report, lowest first
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
#: a tail percentile is reported only with at least this many samples above it
TAIL_MIN_BEYOND = 10


def _rank(p, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` sorted samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values: Sequence[float], p) -> float:
    """Nearest-rank percentile: the smallest sample with ``p`` % at or below it."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no values")
    return vals[_rank(p, len(vals)) - 1]


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ``TAIL_MIN_BEYOND`` samples above its rank.

    Returns None when even the median lacks that many samples beyond it.
    """
    best = None
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            best = p
    return best


def conv2d_flops(x_shape: Tuple[int, ...], w_shape: Tuple[int, ...], out_shape: Tuple[int, ...]) -> int:
    """Multiply-add FLOPs (2 per MAC) of a cross-correlation, from operand shapes."""
    n, _, oh, ow = out_shape
    cout, cin, kh, kw = w_shape
    if x_shape[1] != cin:
        raise ValueError(f"input channels {x_shape[1]} do not match weight {w_shape}")
    return 2 * n * cout * oh * ow * cin * kh * kw


def conv_transpose2d_flops(y_shape: Tuple[int, ...], w_shape: Tuple[int, ...]) -> int:
    """FLOPs of the adjoint convolution: one MAC per (input pixel, weight entry)."""
    n, cy, hy, wy = y_shape
    cout, cin, kh, kw = w_shape
    if cy != cout:
        raise ValueError(f"input channels {cy} do not match weight {w_shape}")
    return 2 * n * hy * wy * cout * cin * kh * kw


class SpanTable:
    """Calls, inclusive and self time per span, from properly nested spans.

    ``enter`` opens a span; ``leave`` closes the innermost one with its
    measured duration. A span's self time is its duration minus the durations
    of the spans directly inside it, so the self times of all spans nested in
    a root add up to the root's duration. ``scope`` names root spans (a train
    step, a CLI command): every figure is keyed by ``(name, inside)``, where
    ``inside`` says whether a scope span was open, because work inside a step
    and work between steps are divided by different counts.
    """

    def __init__(self, scope: Sequence[str] = ()):
        self.calls: Dict[Tuple[str, bool], int] = {}
        self.total: Dict[Tuple[str, bool], float] = {}
        self.self_time: Dict[Tuple[str, bool], float] = {}
        self.scope = frozenset(scope)
        self._children: list = []
        self._open_scopes = 0

    @property
    def scoped_self(self) -> float:
        """Sum of all self times inside scope spans: the closure check's figure."""
        return sum(v for (_, inside), v in self.self_time.items() if inside)

    def per(self, figures: Dict, names: Sequence[str], inside: int, outside: int) -> float:
        """``figures`` summed over ``names``, divided by ``inside`` or ``outside`` as recorded."""
        return sum(figures.get((n, True), 0) / inside + figures.get((n, False), 0) / outside
                   for n in names)

    def untraced(self, duration: float) -> None:
        """Count an untraced stretch as a child of the open span, recording nothing else."""
        if self._children:
            self._children[-1] += duration

    def enter(self, name: str) -> None:
        self._children.append(0.0)
        if name in self.scope:
            self._open_scopes += 1

    def leave(self, name: str, duration: float) -> None:
        own = duration - self._children.pop()
        if self._children:
            self._children[-1] += duration
        key = (name, self._open_scopes > 0)
        self.calls[key] = self.calls.get(key, 0) + 1
        self.total[key] = self.total.get(key, 0.0) + duration
        self.self_time[key] = self.self_time.get(key, 0.0) + own
        if name in self.scope:
            self._open_scopes -= 1
