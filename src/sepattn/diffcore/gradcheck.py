"""Finite-difference verification of the reverse-mode gradients.

The harness scalarizes an op's output through a seeded random-weight sum whose
weights are O(1) and bounded away from zero, so every input element contributes
a resolvable signal to float32 central differences at eps=1e-3. Three further
measures keep the comparison meaningful at single precision:

* objective values accumulate in float64 (only the op outputs are float32);
* the divisor of each central difference is the *realized* float32 step
  (fl(x+eps) - fl(x-eps)), not the nominal 2*eps;
* case inputs are snapped to a 1/64 grid so the linear ops (convolutions,
  add/sub/mul) evaluate exactly and contribute no rounding noise.

Relative error is norm-scaled: for each argument,

    err = max_j |a_j - n_j| / max(max|a|, max|n|, 1e-4)

i.e. elementwise deviation measured against the gradient vector's magnitude.
A per-element quotient would be dominated by float32 forward noise wherever a
gradient crosses zero and would say nothing about the op being right or wrong;
an indexing or transpose bug perturbs elements at the scale of the gradient
itself, which is exactly what this quotient resolves.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from . import ops
from .tensor import DTYPE, Tensor4, backward

#: lower bound on the norm used to scale gradient deviations
_DENOM_FLOOR = 1e-4


@dataclass
class GradCheckResult:
    name: str
    epsilon: float
    tolerance: float
    max_rel_error: float
    passed: bool

    def summary(self) -> str:
        word = "ok" if self.passed else "FAIL"
        return (
            f"{self.name}: max rel err {self.max_rel_error:.3e} "
            f"(tol {self.tolerance:.1e}, eps {self.epsilon:.1e}) {word}"
        )


def _probe_weights(shape: tuple, rng: np.random.Generator) -> np.ndarray:
    """Random O(1) weights with |w| in [0.5, 1.5]."""
    mag = rng.uniform(0.5, 1.5, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return mag * sign


def _wsum(a: Tensor4, weights: np.ndarray) -> Tensor4:
    """Weighted sum with a constant weight array of ``a``'s shape: the scalarizer."""
    wts = np.asarray(weights, dtype=np.float64)
    val = float(np.sum(a.data.astype(np.float64) * wts))
    w32 = wts.astype(DTYPE)

    def grad_fn(g: np.ndarray):
        return ((w32 * g.reshape(())).astype(DTYPE),)

    return ops._make(ops._scalar_out(val), (a,), grad_fn)


def grad_check(
    fn: Callable[..., Tensor4],
    args: Sequence[Tensor4],
    epsilon: float = 1e-3,
    tolerance: float = 1e-3,
    rng: Optional[np.random.Generator] = None,
    name: str = "fn",
) -> GradCheckResult:
    """Compare reverse-mode gradients of ``fn(*args)`` against central differences.

    Every argument is differentiated. Tensors stay float32 throughout; see the
    module docstring for how the comparison is scaled.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for t in args:
        t.requires_grad = True
        t.zero_grad()

    out = fn(*args)
    if not np.all(np.isfinite(out.data)):
        raise FloatingPointError(f"{name}: forward produced non-finite values")
    probe = _probe_weights(out.shape, rng)
    loss = _wsum(out, probe)
    backward(loss)
    analytic = []
    for i, t in enumerate(args):
        if t.grad is None:
            raise AssertionError(f"{name}: argument {i} received no gradient")
        analytic.append(t.grad.copy())

    def objective() -> float:
        val = fn(*args)
        return float(np.sum(val.data.astype(np.float64) * probe))

    worst = 0.0
    for t, a in zip(args, analytic):
        data = t.data
        num = np.zeros(data.shape, dtype=np.float64)
        # index the array itself: a reshape of non-contiguous data is a copy
        for j in np.ndindex(data.shape):
            orig = data[j]
            hi_x = np.float32(float(orig) + epsilon)
            lo_x = np.float32(float(orig) - epsilon)
            data[j] = hi_x
            hi = objective()
            data[j] = lo_x
            lo = objective()
            data[j] = orig
            num[j] = (hi - lo) / (float(hi_x) - float(lo_x))
        a = a.astype(np.float64)
        scale = max(float(np.abs(a).max()), float(np.abs(num).max()), _DENOM_FLOOR)
        worst = max(worst, float(np.abs(a - num).max()) / scale)
    for t in args:
        t.requires_grad = False
        t.zero_grad()
    return GradCheckResult(
        name=name,
        epsilon=epsilon,
        tolerance=tolerance,
        max_rel_error=worst,
        passed=worst < tolerance,
    )


# ---------------------------------------------------------------------------
# op registry: seeded instances for every differentiable op, shared by the
# test suite and the `grad-check` CLI command.

_GRID = 64.0  # inputs snap to multiples of 1/64 (exactly representable)


def _snap(arr: np.ndarray) -> np.ndarray:
    return (np.round(arr * _GRID) / _GRID).astype(DTYPE)


def _rand(rng: np.random.Generator, *shape: int, lo: float = -1.0, hi: float = 1.0) -> Tensor4:
    return Tensor4(_snap(rng.uniform(lo, hi, size=shape)))


def _rand_away_from_kink(rng: np.random.Generator, *shape: int, gap: float = 0.15) -> Tensor4:
    """Grid values with |x| >= gap, for kinked ops (mean_abs)."""
    mag = rng.uniform(gap, 1.0, size=shape)
    sign = np.where(rng.random(shape) < 0.5, -1.0, 1.0)
    return Tensor4(_snap(mag * sign))


def _case_conv2d(rng):
    x = _rand(rng, 2, 3, 6, 6)
    w = _rand(rng, 4, 3, 4, 4, lo=-0.5, hi=0.5)
    b = _rand(rng, 1, 4, 1, 1)
    return (lambda x, w, b: ops.conv2d(x, w, b, stride=2, padding=1)), [x, w, b]


def _case_conv2d_s1(rng):
    x = _rand(rng, 1, 2, 5, 5)
    w = _rand(rng, 3, 2, 3, 3, lo=-0.5, hi=0.5)
    return (lambda x, w: ops.conv2d(x, w, None, stride=1, padding=0)), [x, w]


def _case_conv2d_k3(rng):
    # the discriminator's geometry: input-gradient phases sum 1, 2 or 4 taps
    x = _rand(rng, 2, 3, 6, 6)
    w = _rand(rng, 4, 3, 3, 3, lo=-0.5, hi=0.5)
    return (lambda x, w: ops.conv2d(x, w, None, stride=2, padding=1)), [x, w]


def _case_conv_transpose2d(rng):
    y = _rand(rng, 2, 4, 3, 3)
    w = _rand(rng, 4, 3, 4, 4, lo=-0.5, hi=0.5)
    return (lambda y, w: ops.conv_transpose2d(y, w, stride=2, padding=1)), [y, w]


def _case_conv_transpose2d_odd(rng):
    # a 5x7 output: its output phases differ in size
    y = _rand(rng, 2, 4, 3, 4)
    w = _rand(rng, 4, 3, 3, 3, lo=-0.5, hi=0.5)
    return (lambda y, w: ops.conv_transpose2d(y, w, stride=2, padding=1)), [y, w]


def _case_batch_norm_leaky_train(rng):
    # every channel holds mirrored pairs +-v with |v| in [0.5, 1], so its batch
    # mean is exactly 0 and |x̂| >= 0.5; with gamma >= 0.75 and |beta| <= 0.2
    # each pre-activation stays >= 0.175 away from the kink
    half = np.where(rng.random((16, 4)) < 0.5, -1.0, 1.0) * rng.uniform(0.5, 1.0, (16, 4))
    vals = rng.permuted(np.concatenate([half, -half]), axis=0)  # (32, C)
    x = Tensor4(_snap(np.ascontiguousarray(vals.T.reshape(4, 2, 4, 4).transpose(1, 0, 2, 3))))
    gamma = _rand(rng, 1, 4, 1, 1, lo=0.75, hi=1.5)
    beta = _rand(rng, 1, 4, 1, 1, lo=-0.2, hi=0.2)
    stats = ops.RunningStats.create(4)

    def f(x, gamma, beta):
        return ops.batch_norm_leaky(x, gamma, beta, stats, training=True, update_stats=False)

    return f, [x, gamma, beta]


def _case_batch_norm_leaky_eval(rng):
    # x sits 0.75..2 from the running mean and var <= 1.5, so |x̂| >= 0.61;
    # with gamma >= 0.75 and |beta| <= 0.2 the pre-activation stays >= 0.25 from the kink
    mean = _snap(rng.uniform(-0.5, 0.5, 3))
    stats = ops.RunningStats(mean=mean, var=_snap(rng.uniform(0.5, 1.5, 3)))
    sign = np.where(rng.random((2, 3, 4, 4)) < 0.5, -1.0, 1.0)
    x = Tensor4(_snap(sign * rng.uniform(0.75, 2.0, (2, 3, 4, 4))) + mean.reshape(1, 3, 1, 1))
    gamma = _rand(rng, 1, 3, 1, 1, lo=0.75, hi=1.5)
    beta = _rand(rng, 1, 3, 1, 1, lo=-0.2, hi=0.2)

    def f(x, gamma, beta):
        return ops.batch_norm_leaky(x, gamma, beta, stats, training=False)

    return f, [x, gamma, beta]


def _case_tanh(rng):
    x = _rand(rng, 2, 3, 5, 5, lo=-1.5, hi=1.5)
    return (lambda x: ops.tanh(x)), [x]


def _case_add(rng):
    return (lambda a, b: ops.add(a, b)), [_rand(rng, 2, 2, 4, 4), _rand(rng, 2, 2, 4, 4)]


def _case_sub(rng):
    return (lambda a, b: ops.sub(a, b)), [_rand(rng, 2, 2, 4, 4), _rand(rng, 2, 2, 4, 4)]


def _case_mul(rng):
    return (lambda a, b: ops.mul(a, b)), [
        _rand(rng, 2, 2, 4, 4, lo=0.3, hi=1.5),
        _rand(rng, 2, 2, 4, 4, lo=0.3, hi=1.5),
    ]


# bare reductions use tiny tensors: their per-element gradient scales as 1/n,
# while the float32 quantization of the scalar output does not shrink with n


def _case_mean_abs(rng):
    x = _rand_away_from_kink(rng, 1, 1, 2, 2)
    return (lambda x: ops.mean_abs(x)), [x]


def _case_mean_sq(rng):
    x = _rand(rng, 1, 1, 2, 2, lo=-2.0, hi=2.0)
    return (lambda x: ops.mean_sq(x)), [x]


def _case_concat_channels(rng):
    return (lambda a, b: ops.concat_channels(a, b)), [
        _rand(rng, 2, 2, 4, 4),
        _rand(rng, 2, 3, 4, 4),
    ]


def _case_composite(rng):
    """conv -> batch_norm_leaky -> tanh -> mean_sq chain, end to end.

    Batch norm centers its inputs, so a random beta could put a pre-activation
    next to the leaky kink, where a +/-eps probe straddles it and measures
    nothing about the chain rule. Each channel's beta is therefore snapped to
    the middle of the widest gap between its four gamma * x̂ values, which
    keeps every pre-activation at least 0.4 from the kink. tanh bounds the
    outputs, so the float32 rounding of the scalar loss stays small against
    the gradients that reach x and w through the normalization.
    """
    x = _rand(rng, 1, 2, 4, 4)
    w = _rand(rng, 3, 2, 4, 4, lo=-0.7, hi=0.7)
    gamma = _rand(rng, 1, 3, 1, 1, lo=1.0, hi=2.0)
    h = ops.conv2d(x, w, None, stride=2, padding=1).data.astype(np.float64)  # (1, 3, 2, 2)
    xhat = (h - h.mean(axis=(0, 2, 3), keepdims=True)) / h.std(axis=(0, 2, 3), keepdims=True)
    pre = np.sort((gamma.data * xhat).reshape(3, 4), axis=1)
    widest = np.argmax(np.diff(pre, axis=1), axis=1)
    rows = np.arange(3)
    mid = (pre[rows, widest] + pre[rows, widest + 1]) / 2
    beta = Tensor4(_snap(-mid).reshape(1, 3, 1, 1))
    stats = ops.RunningStats.create(3)

    def f(x, w, gamma, beta):
        h = ops.conv2d(x, w, None, stride=2, padding=1)
        h = ops.batch_norm_leaky(h, gamma, beta, stats, training=True, update_stats=False)
        return ops.mean_sq(ops.tanh(h))

    return f, [x, w, gamma, beta]


OP_CASES: Dict[str, Callable] = {
    "conv2d": _case_conv2d,
    "conv2d_s1": _case_conv2d_s1,
    "conv2d_k3": _case_conv2d_k3,
    "conv_transpose2d": _case_conv_transpose2d,
    "conv_transpose2d_odd": _case_conv_transpose2d_odd,
    "batch_norm_leaky_train": _case_batch_norm_leaky_train,
    "batch_norm_leaky_eval": _case_batch_norm_leaky_eval,
    "tanh": _case_tanh,
    "add": _case_add,
    "sub": _case_sub,
    "mul": _case_mul,
    "mean_abs": _case_mean_abs,
    "mean_sq": _case_mean_sq,
    "concat_channels": _case_concat_channels,
    "composite_chain": _case_composite,
}


def run_registry(
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    epsilon: float = 1e-3,
    tolerance: float = 1e-3,
    only: Optional[Sequence[str]] = None,
) -> List[GradCheckResult]:
    """Run every registered op case across the given seeds."""
    names = list(OP_CASES) if only is None else list(only)
    unknown = [n for n in names if n not in OP_CASES]
    if unknown:
        raise KeyError(f"unknown grad-check case(s): {unknown}; known: {sorted(OP_CASES)}")
    results = []
    for opname in names:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            fn, args = OP_CASES[opname](rng)
            results.append(
                grad_check(
                    fn,
                    args,
                    epsilon=epsilon,
                    tolerance=tolerance,
                    rng=np.random.default_rng(seed + 1000),
                    name=f"{opname}[seed={seed}]",
                )
            )
    return results
