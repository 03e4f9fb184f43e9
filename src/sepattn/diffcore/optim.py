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


@dataclass
class AdamState:
    lr: float = 2e-4
    beta1: float = 0.5
    beta2: float = 0.999
    epsilon: float = 1e-8
    step: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"adam: lr must be positive, got {self.lr}")
        for name, b in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not (0.0 <= b < 1.0):
                raise ValueError(f"adam: {name} must lie in [0, 1), got {b}")
        if self.epsilon <= 0:
            raise ValueError(f"adam: epsilon must be positive, got {self.epsilon}")


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
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for p in plist:
        g = p.tensor.grad
        m = state.m.get(p.id)
        if m is None:
            m = np.zeros_like(p.tensor.data)
            v = np.zeros_like(p.tensor.data)
        else:
            v = state.v[p.id]
        m = (state.beta1 * m + (1.0 - state.beta1) * g).astype(DTYPE)
        v = (state.beta2 * v + (1.0 - state.beta2) * np.square(g)).astype(DTYPE)
        state.m[p.id] = m
        state.v[p.id] = v
        mhat = m / np.float32(bc1)
        vhat = v / np.float32(bc2)
        p.tensor.data = (
            p.tensor.data - np.float32(state.lr) * mhat / (np.sqrt(vhat) + np.float32(state.epsilon))
        ).astype(DTYPE)
        p.tensor.grad = None
