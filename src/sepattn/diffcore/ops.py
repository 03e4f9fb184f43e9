"""Forward operations with reverse-mode gradients.

Every op validates operand shapes up front, computes the forward value with
numpy, and — when any differentiable operand is tracked — wires a gradient
closure onto the output. Convolutions are realized as im2col + matmul;
transposed convolution is the exact adjoint (it reuses the col2im scatter that
conv2d's input gradient uses, so <conv2d(x,w), y> == <x, conv_transpose2d(y,w)>
holds to rounding). Reductions accumulate in float64 and store float32.

Backward closures compute a gradient only for operands that are tracked
(``requires_grad`` set, or produced by another tracked op); an untracked
operand, such as a frozen weight or a constant mask, gets ``None`` and costs
nothing.

A closure keeps only its operands, views of their data and per-channel
vectors; what a parent can rebuild exactly is recomputed in backward instead
of held for the life of the graph. ``conv2d`` rebuilds its im2col matrix from
``x``, and only when the weight is tracked. ``batch_norm_leaky`` is batch norm
and its leaky ReLU in one node (the networks never use one without the other):
its closure keeps ``x``, ``gamma``, ``beta`` and the per-channel mean and
inverse deviation, and backward rebuilds x̂ and the pre-activation
``x̂ * gamma + beta`` in the forward's order, taking the leaky slope from the
pre-activation's sign (never from the output, which is -0.0 for a tiny negative
pre-activation). The rebuilt arrays are byte-equal to the forward's, so
gradients are unchanged.

``_col2im`` builds every ``conv_transpose2d`` output and every ``conv2d``
input gradient, C-contiguous and unpadded. It sums one output phase (row and
column mod stride) at a time in a flat plane, one whole-array 1-D add per
kernel tap. The entries of a tap whose target lies outside the output are
zeroed first and add +0.0, an exact no-op on a plane that starts at +0.0
(such a plane never holds -0.0). Each pixel gets its taps in (i, j) order, as
in a scatter into the padded image, so the bytes are the same.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .tensor import DTYPE, SCALAR_SHAPE, GraphError, ShapeError, Tensor4, backward  # noqa: F401

__all__ = [
    "conv2d",
    "conv_transpose2d",
    "batch_norm_leaky",
    "RunningStats",
    "tanh",
    "add",
    "sub",
    "mul",
    "scale",
    "shift",
    "mean_abs",
    "mean_sq",
    "concat_channels",
    "backward",
]

# CycleGAN's layer recipe, fixed for every network built here
BN_EPSILON = 1e-5
BN_MOMENTUM = 0.1
LEAKY_SLOPE = 0.2


def _live(t: Optional[Tensor4]) -> bool:
    """Whether a gradient for ``t`` is needed by the backward sweep."""
    return t is not None and (t.requires_grad or t._grad_fn is not None)


def _make(data: np.ndarray, parents: tuple, grad_fn) -> Tensor4:
    """Wrap a forward result; attach graph edges only if some parent is live."""
    out = Tensor4(data)
    if any(_live(p) for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    return out


# ---------------------------------------------------------------------------
# convolution plumbing


def _conv_out_dim(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def _pad(a: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial axes (same values as ``np.pad``, a fraction of its cost)."""
    if not padding:
        return a
    n, c, h, w = a.shape
    out = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=a.dtype)
    out[:, :, padding : padding + h, padding : padding + w] = a
    return out


def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int, oh: int, ow: int) -> np.ndarray:
    """(N, C, Hp, Wp) -> (N, C*kh*kw, oh*ow) patch matrix.

    One copy out of a read-only strided view; where the patches already lie in
    that order (1x1, stride 1) the result is a view of ``xp``.
    """
    n, c = xp.shape[:2]
    sn, sc, sh, sw = xp.strides
    patches = np.lib.stride_tricks.as_strided(
        xp, (n, c, kh, kw, oh, ow), (sn, sc, sh, sw, stride * sh, stride * sw), writeable=False
    )
    return patches.reshape(n, c * kh * kw, oh * ow)


def _phase_taps(k: int, stride: int, padding: int) -> list:
    """For each output phase r < stride, its taps t in order with their shift d.

    Tap t lands d rows (or columns) from the block's own position in phase r,
    where t - padding = d * stride + r.
    """
    taps = [[] for _ in range(stride)]
    for t in range(k):
        d, r = divmod(t - padding, stride)
        taps[r].append((t, d))
    return taps


def _col2im(
    cols: np.ndarray,
    n: int,
    c: int,
    h: int,
    w: int,
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    oh: int,
    ow: int,
) -> np.ndarray:
    """Scatter-add inverse of :func:`_im2col`; returns a C-contiguous (N, C, H, W).

    Sums one output phase (row mod stride, column mod stride) at a time in a
    flat zeroed plane of (N, C, bh, bw) images. Tap (i, j) feeds one phase,
    shifted there by (di, dj) rows and columns. Its (N, C, oh, ow) block is
    copied into a reused buffer of the plane's layout, the rows and columns
    whose target falls outside the output are zeroed, and the buffer goes into
    the plane with one 1-D slice add at offset di * bw + dj. The zeroed
    entries land across a row or image edge, or in the plane's slack, and add
    +0.0: a plane starts at +0.0 and a float sum is -0.0 only when both
    operands are, so it never holds -0.0, and adding +0.0 leaves every other
    value (NaN and +-inf included) as it is. Each pixel thus gets its taps in
    (i, j) order starting from +0.0, the adds of a scatter into the zeroed
    padded image, and the same bytes. ``cols`` is not written.
    """
    s = stride
    bh, bw = max(oh, -(-h // s)), max(ow, -(-w // s))  # room for a tap's block and for any phase
    row_taps, col_taps = _phase_taps(kh, s, padding), _phase_taps(kw, s, padding)
    slack = max(abs(d) for taps in row_taps for _, d in taps) * bw
    slack += max(abs(d) for taps in col_taps for _, d in taps)
    size = n * c * bh * bw
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    buf = np.zeros((n, c, bh, bw), dtype=cols.dtype)
    flat_buf = buf.reshape(-1)
    plane = np.empty(size + 2 * slack, dtype=cols.dtype)
    phase = plane[slack : slack + size].reshape(n, c, bh, bw)
    out = np.empty((n, c, h, w), dtype=cols.dtype)
    for ry in range(s):
        hr = len(range(ry, h, s))
        for rx in range(s):
            wr = len(range(rx, w, s))
            plane.fill(0)
            for i, di in row_taps[ry]:
                top, bottom = max(0, -di), max(0, hr - di)  # block rows landing in the phase
                for j, dj in col_taps[rx]:
                    left, right = max(0, -dj), max(0, wr - dj)
                    buf[:, :, :oh, :ow] = cols6[:, :, i, j]
                    if top:
                        buf[:, :, :top] = 0
                    if bottom < oh:
                        buf[:, :, bottom:oh] = 0
                    if left:
                        buf[:, :, :, :left] = 0
                    if right < ow:
                        buf[:, :, :, right:ow] = 0
                    at = slack + di * bw + dj
                    plane[at : at + size] += flat_buf
            out[:, :, ry::s, rx::s] = phase[:, :, :hr, :wr]
    return out


def _check_conv_args(stride: int, padding: int) -> None:
    if not (isinstance(stride, int) and stride >= 1):
        raise ValueError(f"stride must be a positive int, got {stride!r}")
    if not (isinstance(padding, int) and padding >= 0):
        raise ValueError(f"padding must be a non-negative int, got {padding!r}")


def conv2d(
    x: Tensor4,
    weight: Tensor4,
    bias: Optional[Tensor4] = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor4:
    """Cross-correlation of ``x`` (N,Cin,H,W) with ``weight`` (Cout,Cin,kh,kw).

    ``bias`` is an optional (1,Cout,1,1) tensor added per output channel.
    """
    _check_conv_args(stride, padding)
    n, cin, h, w = x.shape
    cout, wcin, kh, kw = weight.shape
    if cin != wcin:
        raise ShapeError(
            f"conv2d: input has {cin} channels but weight expects {wcin} "
            f"(input {x.shape}, weight {weight.shape})"
        )
    if bias is not None and bias.shape != (1, cout, 1, 1):
        raise ShapeError(
            f"conv2d: bias shape {bias.shape} must be (1, {cout}, 1, 1) "
            f"for weight {weight.shape}"
        )
    oh = _conv_out_dim(h, kh, stride, padding)
    ow = _conv_out_dim(w, kw, stride, padding)
    if oh < 1 or ow < 1:
        raise ShapeError(
            f"conv2d: output would be {oh}x{ow} (input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding}); spatial dims must stay >= 1"
        )
    cols = _im2col(_pad(x.data, padding), kh, kw, stride, oh, ow)  # (N, K, L)
    w_mat = weight.data.reshape(cout, -1)  # (Cout, K)
    out = np.matmul(w_mat, cols).reshape(n, cout, oh, ow)
    if bias is not None:
        out = out + bias.data

    def grad_fn(g: np.ndarray):
        g_mat = g.reshape(n, cout, oh * ow)
        grad_x = grad_w = grad_b = None
        if _live(x):
            gcols = np.matmul(w_mat.T, g_mat)  # (N, K, L)
            grad_x = _col2im(gcols, n, cin, h, w, kh, kw, stride, padding, oh, ow)
        if _live(weight):
            cols = _im2col(_pad(x.data, padding), kh, kw, stride, oh, ow)  # (N, K, L), rebuilt
            grad_w = np.matmul(g_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
        if _live(bias):
            grad_b = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1).astype(DTYPE)
        return (grad_x, grad_w, grad_b) if bias is not None else (grad_x, grad_w)

    parents = (x, weight, bias) if bias is not None else (x, weight)
    return _make(out.astype(DTYPE, copy=False), parents, grad_fn)


def conv_transpose2d(y: Tensor4, weight: Tensor4, stride: int = 1, padding: int = 0) -> Tensor4:
    """Adjoint of :func:`conv2d` with the same weight/stride/padding.

    ``weight`` keeps the conv2d layout (Cout, Cin, kh, kw): an input of
    (N, Cout, Hy, Wy) maps to (N, Cin, H, W) with
    H = (Hy - 1) * stride - 2 * padding + kh. No bias by design (a batch-norm
    stage always follows in the networks built here, except the final tanh
    stage, which is deliberately bias-free).
    """
    _check_conv_args(stride, padding)
    n, cy, hy, wy = y.shape
    cout, cin, kh, kw = weight.shape
    if cy != cout:
        raise ShapeError(
            f"conv_transpose2d: input has {cy} channels but weight expects {cout} "
            f"(input {y.shape}, weight {weight.shape})"
        )
    h = (hy - 1) * stride - 2 * padding + kh
    w = (wy - 1) * stride - 2 * padding + kw
    if h < 1 or w < 1:
        raise ShapeError(
            f"conv_transpose2d: output would be {h}x{w} (input {hy}x{wy}, kernel "
            f"{kh}x{kw}, stride {stride}, padding {padding}); dims must stay >= 1"
        )
    w_mat = weight.data.reshape(cout, -1)  # (Cout, K)
    y_mat = y.data.reshape(n, cout, hy * wy)
    cols = np.matmul(w_mat.T, y_mat)  # (N, K, L)
    out = _col2im(cols, n, cin, h, w, kh, kw, stride, padding, hy, wy)

    def grad_fn(g: np.ndarray):
        gcols = _im2col(_pad(g, padding), kh, kw, stride, hy, wy)  # (N, K, L)
        grad_y = grad_w = None
        if _live(y):
            grad_y = np.matmul(w_mat, gcols).reshape(n, cout, hy, wy)
        if _live(weight):
            grad_w = np.matmul(y_mat, gcols.transpose(0, 2, 1)).sum(axis=0).reshape(weight.shape)
        return grad_y, grad_w

    return _make(out.astype(DTYPE, copy=False), (y, weight), grad_fn)


# ---------------------------------------------------------------------------
# batch normalization with its leaky ReLU


@dataclass
class RunningStats:
    """Per-channel running moments for one batch-norm stage.

    ``mean``/``var`` are float32 vectors of length C. Updated in train mode
    with ``running <- (1 - BN_MOMENTUM) * running + BN_MOMENTUM * batch``;
    the running variance uses the unbiased batch estimate.
    """

    mean: np.ndarray
    var: np.ndarray

    @classmethod
    def create(cls, channels: int) -> "RunningStats":
        return cls(mean=np.zeros(channels, dtype=DTYPE), var=np.ones(channels, dtype=DTYPE))


def batch_norm_leaky(
    x: Tensor4,
    gamma: Tensor4,
    beta: Tensor4,
    stats: RunningStats,
    training: bool,
    update_stats: Optional[bool] = None,
) -> Tensor4:
    """Per-channel normalization over the (batch, height, width) axes, then leaky ReLU.

    Train mode normalizes with biased batch moments; eval mode uses the stored
    running stats. ``update_stats`` defaults to ``training`` and lets callers
    score activations with batch statistics without polluting the running
    buffers (discriminator scoring inside the generator update does this).
    The activation is ``max(b, LEAKY_SLOPE * b)`` of the affine output b.
    """
    n, c, h, w = x.shape
    for name, t in (("gamma", gamma), ("beta", beta)):
        if t.shape != (1, c, 1, 1):
            raise ShapeError(
                f"batch_norm_leaky: {name} shape {t.shape} must be (1, {c}, 1, 1) "
                f"for input {x.shape}"
            )
    if stats.mean.shape != (c,) or stats.var.shape != (c,):
        raise ShapeError(
            f"batch_norm_leaky: running stats carry {stats.mean.shape[0]} channels, input has {c}"
        )
    if update_stats is None:
        update_stats = training

    m = n * h * w
    if training:
        if m < 2:
            raise ShapeError(
                f"batch_norm_leaky: train mode needs more than one value per channel "
                f"(batch*H*W = {m} for input {x.shape}); variance is undefined"
            )
        mean64 = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
        dev64 = x.data.astype(np.float64)
        dev64 -= mean64.reshape(1, c, 1, 1)
        np.square(dev64, out=dev64)
        var64 = dev64.mean(axis=(0, 2, 3))
        del dev64  # freed before the output is allocated
        mean = mean64.astype(DTYPE).reshape(1, c, 1, 1)
        inv = (1.0 / np.sqrt(var64 + BN_EPSILON)).astype(DTYPE).reshape(1, c, 1, 1)
        if update_stats:
            unbiased = var64 * (m / (m - 1))
            stats.mean[:] = ((1.0 - BN_MOMENTUM) * stats.mean + BN_MOMENTUM * mean64).astype(DTYPE)
            stats.var[:] = ((1.0 - BN_MOMENTUM) * stats.var + BN_MOMENTUM * unbiased).astype(DTYPE)
    else:
        mean = stats.mean.astype(DTYPE).reshape(1, c, 1, 1)
        inv = (1.0 / np.sqrt(stats.var.astype(np.float64) + BN_EPSILON)).astype(DTYPE).reshape(1, c, 1, 1)

    # mean and inv are per-channel copies: a later running-stats update leaves them be
    out = x.data - mean
    out *= inv
    out *= gamma.data
    out += beta.data
    # max(b, slope*b) picks b for b >= 0 and slope*b below: as 0 < LEAKY_SLOPE < 1
    # it equals the masked select bit for bit (+-0, +-inf and NaN included)
    np.maximum(out, LEAKY_SLOPE * out, out=out)

    def grad_fn(g: np.ndarray):
        xhat = (x.data - mean) * inv  # rebuilt: bytes equal to the forward's
        # the pre-activation, rebuilt in the forward's order; its sign, not the
        # output's, picks the slope (max(b, slope*b) is -0.0 for a tiny negative b)
        b = xhat * gamma.data
        b += beta.data
        # factor is exactly 1.0 where b >= 0 and float32(slope) elsewhere
        factor = (b >= 0).astype(DTYPE)
        del b
        np.maximum(factor, np.float32(LEAKY_SLOPE), out=factor)
        factor *= g
        g = factor  # gradient at the batch-norm output

        grad_x = dgamma = dbeta = None
        if _live(gamma):
            dgamma = (g * xhat).sum(axis=(0, 2, 3), dtype=np.float64)
            dgamma = dgamma.astype(DTYPE).reshape(1, c, 1, 1)
        if _live(beta):
            dbeta = g.sum(axis=(0, 2, 3), dtype=np.float64).astype(DTYPE).reshape(1, c, 1, 1)
        if _live(x):
            dxhat = g * gamma.data
            if training:
                s1 = dxhat.sum(axis=(0, 2, 3), dtype=np.float64).astype(DTYPE).reshape(1, c, 1, 1)
                s2 = (
                    (dxhat * xhat)
                    .sum(axis=(0, 2, 3), dtype=np.float64)
                    .astype(DTYPE)
                    .reshape(1, c, 1, 1)
                )
                grad_x = (inv / m) * (m * dxhat - s1 - xhat * s2)
            else:
                grad_x = dxhat * inv
        return grad_x, dgamma, dbeta

    return _make(out, (x, gamma, beta), grad_fn)


# ---------------------------------------------------------------------------
# pointwise


def tanh(x: Tensor4) -> Tensor4:
    out = np.tanh(x.data)

    def grad_fn(g: np.ndarray):
        return (g * (1.0 - out * out),)

    return _make(out.astype(DTYPE, copy=False), (x,), grad_fn)


def _check_same_shape(op: str, a: Tensor4, b: Tensor4) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: operand shapes differ: {a.shape} vs {b.shape}")


def add(a: Tensor4, b: Tensor4) -> Tensor4:
    _check_same_shape("add", a, b)
    return _make(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor4, b: Tensor4) -> Tensor4:
    _check_same_shape("sub", a, b)
    return _make(a.data - b.data, (a, b), lambda g: (g, -g if _live(b) else None))


def mul(a: Tensor4, b: Tensor4) -> Tensor4:
    """Elementwise (Hadamard) product; shapes must match exactly."""
    _check_same_shape("mul", a, b)

    def grad_fn(g: np.ndarray):
        return (g * b.data if _live(a) else None, g * a.data if _live(b) else None)

    return _make(a.data * b.data, (a, b), grad_fn)


def scale(a: Tensor4, c: float) -> Tensor4:
    """Multiply by a python constant (the constant is not differentiated)."""
    c32 = np.float32(c)
    return _make(a.data * c32, (a,), lambda g: (g * c32,))


def shift(a: Tensor4, c: float) -> Tensor4:
    """Add a python constant elementwise."""
    return _make(a.data + np.float32(c), (a,), lambda g: (g,))


# ---------------------------------------------------------------------------
# reductions  (float64 accumulation, float32 result)


def _scalar_out(value64: float) -> np.ndarray:
    return np.full(SCALAR_SHAPE, value64, dtype=DTYPE)


def mean_abs(a: Tensor4) -> Tensor4:
    val = np.mean(np.abs(a.data), dtype=np.float64)
    n = a.data.size

    def grad_fn(g: np.ndarray):
        g0 = g.reshape(())
        return ((np.sign(a.data) * (g0 / np.float32(n))).astype(DTYPE),)

    return _make(_scalar_out(val), (a,), grad_fn)


def mean_sq(a: Tensor4) -> Tensor4:
    val = np.mean(np.square(a.data, dtype=np.float64))
    n = a.data.size

    def grad_fn(g: np.ndarray):
        g0 = g.reshape(())
        return ((a.data * (2.0 * g0 / np.float32(n))).astype(DTYPE),)

    return _make(_scalar_out(val), (a,), grad_fn)


def concat_channels(a: Tensor4, b: Tensor4) -> Tensor4:
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ShapeError(
            f"concat_channels: batch/spatial dims differ: {a.shape} vs {b.shape}"
        )
    out = np.concatenate([a.data, b.data], axis=1)

    def grad_fn(g: np.ndarray):
        return g[:, :ca], g[:, ca:]

    return _make(out, (a, b), grad_fn)
