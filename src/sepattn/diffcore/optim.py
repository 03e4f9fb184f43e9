"""Adam with bias correction.

State is kept per parameter id so it can be checkpointed and restored exactly.
The update follows the standard convention:

    m <- b1*m + (1-b1)*g         mhat = m / (1 - b1^t)
    v <- b2*v + (1-b2)*g^2       vhat = v / (1 - b2^t)
    theta <- theta - lr * mhat / (sqrt(vhat) + eps)
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

import numpy as np

from .tensor import DTYPE, GraphError, Parameter

# CycleGAN's Adam settings, fixed for every model trained here
BETA1 = 0.5
BETA2 = 0.999
EPSILON = 1e-8


@dataclass
class AdamState:
    lr: float = 2e-4
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 < self.lr < np.inf:  # NaN fails both comparisons
            raise ValueError(f"adam: lr must be positive, got {self.lr}")


def adam_step(params: Iterable[Parameter], state: AdamState) -> None:
    """Apply one update to every parameter, then drop their gradients.

    Moment buffers are created lazily (zeros) the first time a parameter id is
    seen. A parameter with no gradient is an error: it means the caller forgot
    a backward pass or wired the graph wrong.
    """
    plist = list(params)
    for p in plist:
        if p.tensor.grad is None:
            raise GraphError(f"adam: parameter '{p.id}' has no gradient; run backward first")
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    for p in plist:
        g = p.tensor.grad
        m = state.m.get(p.id)
        if m is None:
            m = np.zeros_like(p.tensor.data)
            v = np.zeros_like(p.tensor.data)
        else:
            v = state.v[p.id]
        m = (BETA1 * m + (1.0 - BETA1) * g).astype(DTYPE)
        v = (BETA2 * v + (1.0 - BETA2) * np.square(g)).astype(DTYPE)
        state.m[p.id] = m
        state.v[p.id] = v
        mhat = m / np.float32(bc1)
        vhat = v / np.float32(bc2)
        p.tensor.data = (
            p.tensor.data - np.float32(state.lr) * mhat / (np.sqrt(vhat) + np.float32(EPSILON))
        ).astype(DTYPE)
        p.tensor.grad = None
