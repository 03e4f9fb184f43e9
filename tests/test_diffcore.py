"""Unit tests for the reverse-mode core.

Reference values come from independent scalar-loop implementations written
here in the test module (double precision, no shared code with the package),
or from hand arithmetic for the small worked examples.
"""
import tracemalloc

import numpy as np
import pytest

from sepattn import diffcore as dc
from sepattn import losses, trainer
from sepattn.diffcore import ops
from sepattn.diffcore.tensor import topo_order


# ---------------------------------------------------------------------------
# independent oracles


def ref_conv2d(x, w, b, stride, padding):
    """Direct six-loop cross-correlation in float64."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    xp = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding), np.float64)
    xp[:, :, padding : padding + h, padding : padding + wd] = x
    out = np.zeros((n, cout, oh, ow), np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(oh):
                for j in range(ow):
                    s = 0.0
                    for ci in range(cin):
                        for u in range(kh):
                            for v in range(kw):
                                s += xp[ni, ci, i * stride + u, j * stride + v] * w[co, ci, u, v]
                    out[ni, co, i, j] = s + (b[co] if b is not None else 0.0)
    return out


def ref_conv_transpose2d(y, w, stride, padding):
    """Direct scatter: each input pixel stamps the kernel into the output."""
    n, cout, hy, wy = y.shape
    _, cin, kh, kw = w.shape
    h = (hy - 1) * stride - 2 * padding + kh
    wd = (wy - 1) * stride - 2 * padding + kw
    full = np.zeros((n, cin, h + 2 * padding, wd + 2 * padding), np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(hy):
                for j in range(wy):
                    for ci in range(cin):
                        full[ni, ci, i * stride : i * stride + kh, j * stride : j * stride + kw] += (
                            y[ni, co, i, j] * w[co, ci]
                        )
    if padding:
        return full[:, :, padding:-padding, padding:-padding]
    return full


def ref_im2col(xp, kh, kw, stride, oh, ow):
    """Patch matrix (N, C*kh*kw, oh*ow) filled one kernel tap at a time."""
    n, c = xp.shape[:2]
    cols = np.empty((n, c, kh, kw, oh, ow), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(n, c * kh * kw, oh * ow)


def ref_col2im(cols, n, c, h, w, kh, kw, stride, padding, oh, ow):
    """Scatter-add of the patch matrix into a zeroed padded image, one kernel tap at a time."""
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kh, kw, oh, ow)
    for i in range(kh):
        for j in range(kw):
            xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride] += cols6[:, :, i, j]
    if padding:
        return xp[:, :, padding:-padding, padding:-padding]
    return xp


def t4(arr, requires_grad=False):
    return dc.Tensor4(np.asarray(arr, dtype=np.float32), requires_grad)


def row(vals):
    """A (1, 1, 1, n) tensor from a flat list."""
    return t4(np.asarray(vals, dtype=np.float32).reshape(1, 1, 1, -1))


# ---------------------------------------------------------------------------
# tensor basics


class TestTensor4:
    def test_rejects_non_4d(self):
        with pytest.raises(dc.ShapeError):
            dc.Tensor4(np.zeros((3, 3), np.float32))

    def test_scalar_shape_and_item(self):
        s = t4(np.full(dc.SCALAR_SHAPE, 2.5))
        assert s.shape == (1, 1, 1, 1)
        assert s.item() == pytest.approx(2.5)

    def test_item_rejects_non_scalar(self):
        with pytest.raises(dc.ShapeError):
            t4(np.zeros((1, 1, 1, 2))).item()


# ---------------------------------------------------------------------------
# convolution forward


class TestConv2d:
    def test_ones_kernel_counts_taps(self):
        # 3x3 all-ones kernel over a ones image, stride 1, padding 1:
        # interior pixels see 9 taps, corners 4, edges 6
        x = t4(np.ones((1, 1, 5, 5)))
        w = t4(np.ones((1, 1, 3, 3)))
        out = ops.conv2d(x, w, None, stride=1, padding=1).data[0, 0]
        assert out[2, 2] == 9.0
        assert out[0, 0] == 4.0
        assert out[0, 2] == 6.0

    def test_1x1_kernel_scales_channels(self):
        x = t4(np.arange(8, dtype=np.float32).reshape(1, 2, 2, 2))
        w = t4(np.array([[[[2.0]], [[0.0]]]], np.float32))  # picks 2*ch0
        out = ops.conv2d(x, w, None).data
        np.testing.assert_allclose(out[0, 0], 2.0 * x.data[0, 0])

    @pytest.mark.parametrize("stride,padding,k", [(1, 0, 3), (2, 1, 4), (1, 1, 3), (2, 0, 2)])
    def test_matches_scalar_loop_reference(self, stride, padding, k):
        rng = np.random.default_rng(11 + stride + padding)
        x = t4(rng.standard_normal((2, 3, 7, 7)))
        w = t4(rng.standard_normal((4, 3, k, k)) * 0.4)
        b = t4(rng.standard_normal((1, 4, 1, 1)))
        got = ops.conv2d(x, w, b, stride=stride, padding=padding).data
        want = ref_conv2d(x.data, w.data, b.data.reshape(-1), stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_channel_mismatch_names_both_shapes(self):
        x = t4(np.zeros((1, 3, 4, 4)))
        w = t4(np.zeros((2, 4, 3, 3)))
        with pytest.raises(dc.ShapeError, match=r"3.*4"):
            ops.conv2d(x, w)

    def test_collapsed_output_rejected(self):
        x = t4(np.zeros((1, 1, 2, 2)))
        w = t4(np.zeros((1, 1, 5, 5)))
        with pytest.raises(dc.ShapeError, match="stay >= 1"):
            ops.conv2d(x, w)

    def test_forward_is_deterministic(self):
        rng = np.random.default_rng(0)
        x = t4(rng.standard_normal((2, 3, 8, 8)))
        w = t4(rng.standard_normal((4, 3, 4, 4)))
        a = ops.conv2d(x, w, None, stride=2, padding=1).data
        b = ops.conv2d(x, w, None, stride=2, padding=1).data
        assert np.array_equal(a, b)


class TestConvTranspose2d:
    def test_zeros_to_zeros(self):
        y = t4(np.zeros((1, 2, 3, 3)))
        w = t4(np.ones((2, 3, 4, 4)))
        out = ops.conv_transpose2d(y, w, stride=2, padding=1)
        assert out.shape == (1, 3, 6, 6)
        assert not out.data.any()

    def test_single_pixel_stamps_kernel(self):
        y = t4(np.ones((1, 1, 1, 1)))
        w = t4(np.arange(9, dtype=np.float32).reshape(1, 1, 3, 3))
        out = ops.conv_transpose2d(y, w).data
        np.testing.assert_array_equal(out[0, 0], w.data[0, 0])

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (2, 0)])
    def test_matches_scatter_reference(self, stride, padding):
        rng = np.random.default_rng(5 + stride)
        y = t4(rng.standard_normal((2, 4, 3, 3)))
        w = t4(rng.standard_normal((4, 3, 4, 4)) * 0.4)
        got = ops.conv_transpose2d(y, w, stride=stride, padding=padding).data
        want = ref_conv_transpose2d(y.data, w.data, stride, padding)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_identity(self, seed):
        # <conv2d(x, w), y> == <x, conv_transpose2d(y, w)>
        rng = np.random.default_rng(seed)
        x = t4(rng.standard_normal((2, 3, 6, 6)))
        w = t4(rng.standard_normal((4, 3, 4, 4)) * 0.3)
        y = t4(rng.standard_normal((2, 4, 3, 3)))
        cx = ops.conv2d(x, w, None, stride=2, padding=1)
        ty = ops.conv_transpose2d(y, w, stride=2, padding=1)
        lhs = float(np.sum(cx.data.astype(np.float64) * y.data))
        rhs = float(np.sum(x.data.astype(np.float64) * ty.data))
        assert lhs == pytest.approx(rhs, rel=1e-5)

    def test_shape_law(self):
        y = t4(np.zeros((1, 4, 5, 5)))
        w = t4(np.zeros((4, 2, 4, 4)))
        out = ops.conv_transpose2d(y, w, stride=2, padding=1)
        assert out.shape == (1, 2, 10, 10)


# ---------------------------------------------------------------------------
# batch norm


class TestBatchNormLeaky:
    def _gb(self, c, gamma=1.0, beta=0.0):
        g = t4(np.full((1, c, 1, 1), gamma, np.float32))
        b = t4(np.full((1, c, 1, 1), beta, np.float32))
        return g, b

    def test_two_value_channel_normalizes_to_unit(self):
        # channel values [1, 3]: mean 2, biased var 1 -> [-1, 1] (up to eps), then leaky
        x = t4(np.array([1.0, 3.0], np.float32).reshape(1, 1, 1, 2))
        g, b = self._gb(1)
        stats = ops.RunningStats.create(1)
        out = ops.batch_norm_leaky(x, g, b, stats, training=True).data.reshape(-1)
        np.testing.assert_allclose(out, [-0.2, 1.0], atol=1e-4)

    def test_affine_applies_after_normalize(self):
        # [-1, 1] -> 2 * [-1, 1] + 0.5 = [-1.5, 2.5] -> leaky [-0.3, 2.5]
        x = t4(np.array([1.0, 3.0], np.float32).reshape(1, 1, 1, 2))
        g, b = self._gb(1, gamma=2.0, beta=0.5)
        stats = ops.RunningStats.create(1)
        out = ops.batch_norm_leaky(x, g, b, stats, training=True).data.reshape(-1)
        np.testing.assert_allclose(out, [-0.3, 2.5], atol=2e-4)

    def test_leaky_slope_scales_negative_pre_activations(self):
        # eval with mean 0, var 1: the pre-activation is x (up to eps)
        g, b = self._gb(1)
        stats = ops.RunningStats(mean=np.zeros(1, np.float32), var=np.ones(1, np.float32))
        out = ops.batch_norm_leaky(row([-1.0, 0.0, 2.0]), g, b, stats, training=False)
        np.testing.assert_allclose(out.data.reshape(-1), [-0.2, 0.0, 2.0], rtol=1e-5)

    def test_running_stats_update_rule(self):
        rng = np.random.default_rng(2)
        x = t4(rng.standard_normal((4, 2, 3, 3)) * 2 + 1)
        g, b = self._gb(2)
        stats = ops.RunningStats.create(2)
        ops.batch_norm_leaky(x, g, b, stats, training=True)
        m = x.data.mean(axis=(0, 2, 3), dtype=np.float64)
        v = x.data.var(axis=(0, 2, 3), dtype=np.float64, ddof=1)
        np.testing.assert_allclose(stats.mean, 0.9 * 0.0 + 0.1 * m, rtol=1e-5)
        np.testing.assert_allclose(stats.var, 0.9 * 1.0 + 0.1 * v, rtol=1e-5)

    def test_eval_mode_uses_running_stats_and_ignores_batch(self):
        g, b = self._gb(1, gamma=1.0, beta=0.0)
        stats = ops.RunningStats(
            mean=np.array([2.0], np.float32), var=np.array([4.0], np.float32)
        )
        x = t4(np.array([4.0, 100.0], np.float32).reshape(1, 1, 1, 2))
        out = ops.batch_norm_leaky(x, g, b, stats, training=False).data.reshape(-1)
        np.testing.assert_allclose(out, [(4 - 2) / 2.0, (100 - 2) / 2.0], rtol=1e-4)
        # and the buffers were not touched
        assert stats.mean[0] == 2.0 and stats.var[0] == 4.0

    def test_update_stats_override_blocks_buffer_writes(self):
        x = t4(np.random.default_rng(0).standard_normal((2, 1, 3, 3)))
        g, b = self._gb(1)
        stats = ops.RunningStats.create(1)
        ops.batch_norm_leaky(x, g, b, stats, training=True, update_stats=False)
        assert stats.mean[0] == 0.0 and stats.var[0] == 1.0

    def test_single_value_variance_rejected(self):
        x = t4(np.ones((1, 1, 1, 1)))
        g, b = self._gb(1)
        with pytest.raises(dc.ShapeError, match="variance is undefined"):
            ops.batch_norm_leaky(x, g, b, ops.RunningStats.create(1), training=True)

    def test_channel_count_mismatch_rejected(self):
        x = t4(np.ones((1, 3, 2, 2)))
        g, b = self._gb(3)
        with pytest.raises(dc.ShapeError, match="channels"):
            ops.batch_norm_leaky(x, g, b, ops.RunningStats.create(2), training=True)

    def test_affine_shape_mismatch_rejected(self):
        x = t4(np.ones((1, 3, 2, 2)))
        g, _ = self._gb(3)
        _, b = self._gb(2)
        with pytest.raises(dc.ShapeError, match=r"beta shape \(1, 2, 1, 1\)"):
            ops.batch_norm_leaky(x, g, b, ops.RunningStats.create(3), training=True)

    def test_negative_subnormal_pre_activation_gets_the_slope(self):
        # gamma 0 makes every pre-activation exactly beta = -1e-45 (a subnormal);
        # the output max(b, 0.2 * b) is -0.0, yet the gradient factor must be 0.2
        x = t4(np.array([1.0, -1.0], np.float32).reshape(1, 1, 1, 2))
        gamma = t4(np.zeros((1, 1, 1, 1)), requires_grad=True)
        beta = t4(np.full((1, 1, 1, 1), -1e-45), requires_grad=True)
        stats = ops.RunningStats(mean=np.zeros(1, np.float32), var=np.ones(1, np.float32))
        out = ops.batch_norm_leaky(x, gamma, beta, stats, training=False)
        assert beta.data[0, 0, 0, 0] < 0 and not out.data.any() and np.signbit(out.data).all()
        g = np.ones(out.shape, np.float32)
        _, _, dbeta = out._grad_fn(g)
        pre = np.full(out.shape, beta.data[0, 0, 0, 0], np.float32)
        assert dbeta.tobytes() == channel_sum(ref_leaky_relu_grad(pre, g)).tobytes()
        assert dbeta[0, 0, 0, 0] == np.float32(2 * np.float64(np.float32(ops.LEAKY_SLOPE)))


# ---------------------------------------------------------------------------
# pointwise and reductions


class TestPointwise:
    def test_tanh_values(self):
        out = ops.tanh(row([0.0, 1e4])).data.reshape(-1)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0)

    def test_add_sub_mul_values_and_shape_guard(self):
        a, b = row([1.0, 2.0]), row([3.0, 5.0])
        np.testing.assert_allclose(ops.add(a, b).data.reshape(-1), [4.0, 7.0])
        np.testing.assert_allclose(ops.sub(a, b).data.reshape(-1), [-2.0, -3.0])
        np.testing.assert_allclose(ops.mul(a, b).data.reshape(-1), [3.0, 10.0])
        with pytest.raises(dc.ShapeError, match=r"\(1, 1, 1, 2\).*\(1, 1, 1, 3\)"):
            ops.add(a, row([1.0, 2.0, 3.0]))

    def test_scale_and_shift(self):
        a = row([1.0, -2.0])
        np.testing.assert_allclose(ops.scale(a, -3.0).data.reshape(-1), [-3.0, 6.0])
        np.testing.assert_allclose(ops.shift(a, 1.5).data.reshape(-1), [2.5, -0.5])


class TestReductions:
    def test_mean_abs_worked_example(self):
        assert ops.mean_abs(row([1.0, -2.0, 3.0])).item() == pytest.approx(2.0)

    def test_mean_sq_worked_example(self):
        assert ops.mean_sq(row([1.0, -2.0, 3.0])).item() == pytest.approx(14.0 / 3.0)

    def test_reductions_accumulate_in_float64(self):
        # 2**20 copies of 0.1: naive float32 accumulation drifts by ~1e-4;
        # float64 accumulation stays within float32 representation error of 0.1
        x = dc.Tensor4(np.full((1, 1, 1024, 1024), 0.1, np.float32))
        got = ops.mean_abs(x).item()
        assert abs(got - np.float64(np.float32(0.1))) < 1e-9

    def test_concat_channels_layout_and_guard(self):
        a = t4(np.ones((1, 2, 2, 2)))
        b = t4(np.zeros((1, 3, 2, 2)))
        out = ops.concat_channels(a, b)
        assert out.shape == (1, 5, 2, 2)
        assert out.data[:, :2].all() and not out.data[:, 2:].any()
        with pytest.raises(dc.ShapeError):
            ops.concat_channels(a, t4(np.zeros((1, 3, 3, 2))))


# ---------------------------------------------------------------------------
# fast paths that must stay bit-identical to the straightforward forms


def ref_leaky_relu(x):
    """Masked-select reference: x where x >= 0, slope * x elsewhere."""
    return np.where(x >= 0, x, ops.LEAKY_SLOPE * x)


def ref_leaky_relu_grad(x, g):
    return np.where(x >= 0, g, np.float32(ops.LEAKY_SLOPE) * g)


def ref_pad(a, padding):
    return np.pad(a, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def awkward(rng, shape):
    """Random float32 values salted with exact zeros, -0.0, NaN, +-inf and tiny negatives."""
    a = rng.standard_normal(shape).astype(np.float32)
    flat = a.reshape(-1)
    specials = np.array(
        [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, -1e-45, -1e-40, -1e-38, 1e-45],
        np.float32,
    )
    idx = rng.choice(flat.size, size=4 * specials.size, replace=False)
    flat[idx] = np.tile(specials, 4)
    return a


def conv2d_with_np_pad(x, w, b, stride, padding):
    """conv2d's forward with the padding done by ``np.pad``."""
    n, _, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    cols = ref_im2col(ref_pad(x, padding), kh, kw, stride, oh, ow)
    out = np.matmul(w.reshape(cout, -1), cols).reshape(n, cout, oh, ow)
    return out + b if b is not None else out


class TestBitExactFastPaths:
    def test_batch_norm_leaky_matches_masked_select_bytewise(self):
        # eval mode keeps every element its own: +-0, NaN, +-inf and subnormals
        # in x reach the pre-activation one for one
        rng = np.random.default_rng(11)
        x = awkward(rng, (3, 4, 9, 7))
        g = awkward(rng, x.shape)
        gamma = rng.uniform(0.5, 1.5, (1, 4, 1, 1)).astype(np.float32)
        beta = np.zeros((1, 4, 1, 1), np.float32)
        stats = ops.RunningStats(mean=np.zeros(4, np.float32), var=np.ones(4, np.float32))
        ref_stats = ops.RunningStats(stats.mean.copy(), stats.var.copy())
        out = ops.batch_norm_leaky(t4(x, True), t4(gamma), t4(beta), stats, training=False)
        pre, bn_grads = batch_norm_keep_all(x, gamma, beta, ref_stats, False, False)
        assert out.data.tobytes() == ref_leaky_relu(pre).tobytes()
        grad_x, _, _ = out._grad_fn(g)
        with np.errstate(invalid="ignore"):  # the reference also sums dgamma over the NaNs
            want_x = bn_grads(ref_leaky_relu_grad(pre, g))[0]
        assert grad_x.dtype == np.float32 and grad_x.tobytes() == want_x.tobytes()

    @pytest.mark.parametrize("padding", [1, 2])
    def test_pad_matches_np_pad_bytewise(self, padding):
        a = awkward(np.random.default_rng(12), (2, 3, 5, 6))
        assert ops._pad(a, padding).tobytes() == ref_pad(a, padding).tobytes()
        assert ops._pad(a, 0) is a

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (2, 2)])
    def test_padded_convolutions_match_np_pad_bytewise(self, stride, padding):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3, 4, 4)).astype(np.float32)
        b = rng.standard_normal((1, 4, 1, 1)).astype(np.float32)
        out = ops.conv2d(t4(x), t4(w), t4(b), stride, padding)
        assert out.data.tobytes() == conv2d_with_np_pad(x, w, b, stride, padding).tobytes()

        # conv_transpose2d pads the incoming gradient in its backward
        yt = t4(rng.standard_normal(out.shape), requires_grad=True)
        wt = t4(w, requires_grad=True)
        up = ops.conv_transpose2d(yt, wt, stride, padding)
        g = rng.standard_normal(up.shape).astype(np.float32)
        grad_y, grad_w = up._grad_fn(g)
        gcols = ref_im2col(ref_pad(g, padding), 4, 4, stride, *out.shape[2:])
        want_y = np.matmul(w.reshape(4, -1), gcols).reshape(out.shape)
        want_w = np.matmul(yt.data.reshape(2, 4, -1), gcols.transpose(0, 2, 1)).sum(axis=0)
        assert grad_y.tobytes() == want_y.tobytes()
        assert grad_w.tobytes() == want_w.reshape(w.shape).tobytes()

    @pytest.mark.parametrize(
        "shape,k,stride,padding",
        [
            ((2, 3, 16, 16), 4, 2, 1),  # generator encoder
            ((2, 6, 16, 16), 3, 2, 1),  # discriminator stages
            ((2, 16, 4, 4), 1, 1, 0),  # discriminator head
            ((3, 2, 11, 9), 3, 2, 2),  # odd sizes, and a stride that drops the last column
        ],
    )
    def test_im2col_matches_tap_loop_bytewise(self, shape, k, stride, padding):
        x = awkward(np.random.default_rng(16), shape)
        oh = (shape[2] + 2 * padding - k) // stride + 1
        ow = (shape[3] + 2 * padding - k) // stride + 1
        for xp in (ref_pad(x, padding), ref_pad(x, padding)[:, ::-1]):  # contiguous, strided
            got = ops._im2col(xp, k, k, stride, oh, ow)
            want = ref_im2col(xp, k, k, stride, oh, ow)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("batch", [1, 5, 16])
    @pytest.mark.parametrize(
        "c,h,w,k,stride,padding",
        [
            # generator k4 s2 p1: 8/16/32 -> 16/32/64 at the desk profile's widths
            (32, 16, 16, 4, 2, 1),
            (16, 32, 32, 4, 2, 1),
            (3, 64, 64, 4, 2, 1),
            # discriminator k3 s2 p1 input gradients: phases sum 1, 2 or 4 taps
            (32, 16, 16, 3, 2, 1),
            (16, 32, 32, 3, 2, 1),
            (6, 64, 64, 3, 2, 1),
            (64, 8, 8, 1, 1, 0),  # discriminator head
            (3, 11, 13, 3, 2, 1),  # odd sizes
            (4, 9, 7, 3, 1, 1),  # stride 1 with padding
            (4, 9, 7, 3, 1, 0),  # stride 1, the output larger than the tap blocks
            (5, 10, 11, 4, 3, 1),  # stride 3, the last row gets no tap
            (2, 8, 8, 2, 3, 0),  # stride 3 over a smaller kernel: a phase with no taps
        ],
        ids=[
            "gen-16", "gen-32", "gen-64", "disc-16", "disc-32", "disc-64", "head",
            "odd", "s1-p1", "s1-p0", "s3", "s3-k2",
        ],
    )
    def test_col2im_matches_tap_loop_bytewise_and_is_contiguous(
        self, batch, c, h, w, k, stride, padding
    ):
        oh = (h + 2 * padding - k) // stride + 1
        ow = (w + 2 * padding - k) // stride + 1
        cols = awkward(np.random.default_rng(20), (batch, c * k * k, oh * ow))
        cols[cols == 0] = -0.0  # every pixel's sum starts from +0.0, as in the tap loop
        before = cols.tobytes()
        args = (batch, c, h, w, k, k, stride, padding, oh, ow)
        got = ops._col2im(cols, *args)
        want = ref_col2im(cols, *args)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
        assert cols.tobytes() == before

    @pytest.mark.parametrize("frozen", ["weight", "bias", "both"])
    def test_conv2d_skips_gradients_of_untracked_operands(self, frozen):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal((1, 4, 1, 1))
        g = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        full = ops.conv2d(t4(x, True), t4(w, True), t4(b, True), 1, 1)._grad_fn(g)
        part = ops.conv2d(
            t4(x, True), t4(w, frozen == "bias"), t4(b, frozen == "weight"), 1, 1
        )._grad_fn(g)
        assert part[0].tobytes() == full[0].tobytes()
        for slot, name in ((1, "weight"), (2, "bias")):
            if frozen in (name, "both"):
                assert part[slot] is None
            else:
                assert part[slot].tobytes() == full[slot].tobytes()

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("frozen", ["gamma", "beta", "both"])
    def test_batch_norm_leaky_skips_gradients_of_untracked_operands(self, frozen, training):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, 4, 4))
        gamma = rng.uniform(0.5, 1.5, (1, 3, 1, 1))
        beta = rng.standard_normal((1, 3, 1, 1))
        g = rng.standard_normal(x.shape).astype(np.float32)

        def grads(gamma_tracked, beta_tracked):
            out = ops.batch_norm_leaky(
                t4(x, True), t4(gamma, gamma_tracked), t4(beta, beta_tracked),
                dc.RunningStats.create(3), training, update_stats=False,
            )
            return out._grad_fn(g)

        full = grads(True, True)
        part = grads(frozen == "beta", frozen == "gamma")
        assert part[0].tobytes() == full[0].tobytes()
        for slot, name in ((1, "gamma"), (2, "beta")):
            if frozen in (name, "both"):
                assert part[slot] is None
            else:
                assert part[slot].tobytes() == full[slot].tobytes()


# ---------------------------------------------------------------------------
# backward closures that rebuild instead of hold, against ones that hold


def conv2d_keep_all(x, w, b, stride, padding, g):
    """conv2d forward and (grad_x, grad_w, grad_b), the patch matrix held from the forward."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (wd + 2 * padding - kw) // stride + 1
    cols = ref_im2col(ref_pad(x, padding), kh, kw, stride, oh, ow)
    w_mat = w.reshape(cout, -1)
    out = np.matmul(w_mat, cols).reshape(n, cout, oh, ow)
    if b is not None:
        out = out + b
    g_mat = g.reshape(n, cout, oh * ow)
    grad_x = ref_col2im(np.matmul(w_mat.T, g_mat), n, cin, h, wd, kh, kw, stride, padding, oh, ow)
    grad_w = np.matmul(g_mat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    grad_b = g.sum(axis=(0, 2, 3)).reshape(1, cout, 1, 1).astype(np.float32)
    return out, (grad_x, grad_w, grad_b)


def channel_sum(a):
    """Per-channel float64 sum of an (N, C, H, W) array, stored float32 as (1, C, 1, 1)."""
    return a.sum(axis=(0, 2, 3), dtype=np.float64).astype(np.float32).reshape(1, -1, 1, 1)


def batch_norm_keep_all(x, gamma, beta, stats, training, update_stats):
    """batch_norm forward, and a function of g giving (grad_x, dgamma, dbeta) from x̂ held since the forward."""
    n, c, h, w = x.shape
    m = n * h * w
    mom, f32 = ops.BN_MOMENTUM, np.float32
    if training:
        mean64 = x.mean(axis=(0, 2, 3), dtype=np.float64)
        var64 = np.square(x.astype(np.float64) - mean64.reshape(1, c, 1, 1)).mean(axis=(0, 2, 3))
        mean = mean64.astype(f32).reshape(1, c, 1, 1)
        inv = (1.0 / np.sqrt(var64 + ops.BN_EPSILON)).astype(f32).reshape(1, c, 1, 1)
        if update_stats:
            unbiased = var64 * (m / (m - 1))
            stats.mean[:] = ((1.0 - mom) * stats.mean + mom * mean64).astype(f32)
            stats.var[:] = ((1.0 - mom) * stats.var + mom * unbiased).astype(f32)
    else:
        mean = stats.mean.astype(f32).reshape(1, c, 1, 1)
        inv = (1.0 / np.sqrt(stats.var.astype(np.float64) + ops.BN_EPSILON)).astype(f32).reshape(1, c, 1, 1)
    xhat = (x - mean) * inv
    out = gamma * xhat + beta

    def grads(g):
        dxhat = g * gamma
        if training:
            grad_x = (inv / m) * (m * dxhat - channel_sum(dxhat) - xhat * channel_sum(dxhat * xhat))
        else:
            grad_x = dxhat * inv
        return grad_x, channel_sum(g * xhat), channel_sum(g)

    return out, grads


def assert_grads_match(got, want, tracked):
    for slot, (gv, wv, live) in enumerate(zip(got, want, tracked)):
        if live:
            assert gv.dtype == np.float32 and gv.tobytes() == wv.tobytes(), f"slot {slot}"
        else:
            assert gv is None, f"slot {slot}"


class TestLeanBackward:
    @pytest.mark.parametrize("k,stride,padding", [(4, 2, 1), (3, 2, 1), (1, 1, 0)])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("weight_tracked", [True, False])
    def test_conv2d_matches_held_patch_matrix(self, k, stride, padding, with_bias, weight_tracked):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((2, 5, 12, 12)).astype(np.float32)
        w = (rng.standard_normal((6, 5, k, k)) * 0.3).astype(np.float32)
        b = rng.standard_normal((1, 6, 1, 1)).astype(np.float32) if with_bias else None
        out = ops.conv2d(
            t4(x, True), t4(w, weight_tracked), t4(b, True) if with_bias else None, stride, padding
        )
        g = rng.standard_normal(out.shape).astype(np.float32)
        want_out, want = conv2d_keep_all(x, w, b, stride, padding, g)
        assert out.data.tobytes() == want_out.astype(np.float32).tobytes()
        got = out._grad_fn(g)
        assert len(got) == (3 if with_bias else 2)
        assert_grads_match(got, want, (True, weight_tracked, True))

    @pytest.mark.parametrize(
        "training,update_stats", [(True, True), (True, False), (False, False)],
        ids=["train", "train-no-update", "eval"],
    )
    @pytest.mark.parametrize("affine_tracked", [(True, True), (True, False), (False, True), (False, False)])
    @pytest.mark.parametrize("x_live", [True, False])
    def test_batch_norm_leaky_matches_composed_references(
        self, training, update_stats, affine_tracked, x_live
    ):
        rng = np.random.default_rng(18)
        x = (rng.standard_normal((3, 4, 5, 6)) * 2 + 0.5).astype(np.float32)
        gamma = rng.uniform(0.5, 1.5, (1, 4, 1, 1)).astype(np.float32)
        beta = rng.standard_normal((1, 4, 1, 1)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)
        lean_stats = ops.RunningStats(
            mean=rng.standard_normal(4).astype(np.float32),
            var=rng.uniform(0.5, 2.0, 4).astype(np.float32),
        )
        ref_stats = ops.RunningStats(lean_stats.mean.copy(), lean_stats.var.copy())
        out = ops.batch_norm_leaky(
            t4(x, x_live), t4(gamma, affine_tracked[0]), t4(beta, affine_tracked[1]),
            lean_stats, training, update_stats,
        )
        pre, bn_grads = batch_norm_keep_all(x, gamma, beta, ref_stats, training, update_stats)
        assert out.data.tobytes() == ref_leaky_relu(pre).tobytes()
        assert lean_stats.mean.tobytes() == ref_stats.mean.tobytes()
        assert lean_stats.var.tobytes() == ref_stats.var.tobytes()
        tracked = (x_live,) + affine_tracked
        if not any(tracked):
            assert out._grad_fn is None
            return
        # a later update of the running buffers must not reach the rebuilt x̂
        ops.batch_norm_leaky(t4(x * 3), t4(gamma), t4(beta), lean_stats, training=True)
        want = bn_grads(ref_leaky_relu_grad(pre, g))
        assert_grads_match(out._grad_fn(g), want, tracked)

    def test_col2im_peak_memory_stays_near_its_output(self):
        # the generator's 16 -> 32 stage on a 16-image eval chunk; a transposed
        # copy of the patch matrix alone would take 4x the output
        n, c, h, w, k, oh, ow = 16, 16, 32, 32, 4, 16, 16
        cols = np.random.default_rng(21).standard_normal((n, c * k * k, oh * ow)).astype(np.float32)
        tracemalloc.start()
        try:
            out = ops._col2im(cols, n, c, h, w, k, k, 2, 1, oh, ow)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * out.nbytes

    def test_closures_hold_no_rebuildable_buffers(self):
        models = trainer.build_models(trainer.desk_config())
        rng = np.random.default_rng(19)
        x, y = (t4(rng.uniform(-1, 1, (2, 3, 64, 64))) for _ in range(2))
        depth = rng.uniform(0, 1, (64, 64)).astype(np.float32)
        total, _ = losses.full_generator_loss(x, y, depth, models)
        nodes = topo_order(total)

        def owner(a):
            while a.base is not None:
                a = a.base
            return a

        held = {id(owner(t.data)) for t in nodes}
        in_graph = {id(t) for t in nodes}
        widest = max(t.shape[1] for t in nodes)  # a per-channel vector has this many values at most
        checked = 0
        for node in nodes:
            if node._grad_fn is None:
                continue
            for cell in node._grad_fn.__closure__ or ():
                v = cell.cell_contents
                if isinstance(v, dc.Tensor4):
                    assert id(v) in in_graph, f"{node}: closure holds a tensor outside the graph"
                elif isinstance(v, np.ndarray) and v.size > widest:
                    checked += 1
                    owned = id(owner(v)) in held
                    assert owned, f"{node}: closure holds a {v.shape} array no graph tensor owns"
        assert checked > 0  # the walk saw the weight and activation views


# ---------------------------------------------------------------------------
# backward mechanics


class TestBackward:
    def test_square_via_mul(self):
        x = t4(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        y = ops.mul(x, x)
        dc.backward(y)
        assert x.grad.reshape(-1)[0] == pytest.approx(6.0)

    def test_non_scalar_backward_rejected(self):
        x = t4(np.ones((1, 1, 2, 2)), requires_grad=True)
        with pytest.raises(dc.GraphError, match="scalar"):
            dc.backward(ops.scale(x, 2.0))

    def test_sum_of_losses_equals_sum_of_grads(self):
        rng = np.random.default_rng(7)
        make = lambda: t4(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        x = make()
        la = ops.mean_sq(x)
        lb = ops.mean_abs(x)
        dc.backward(ops.add(la, lb))
        combined = x.grad.copy()

        x.zero_grad()
        dc.backward(ops.mean_sq(x))
        dc.backward(ops.mean_abs(x))  # accumulates additively
        np.testing.assert_allclose(x.grad, combined, rtol=1e-6, atol=1e-7)

    def test_diamond_graph_accumulates_both_paths(self):
        x = t4(np.full((1, 1, 1, 1), 2.0), requires_grad=True)
        a = ops.scale(x, 3.0)
        b = ops.scale(x, 5.0)
        dc.backward(ops.mul(a, b))  # d/dx 15x^2 = 30x = 60
        assert x.grad.reshape(-1)[0] == pytest.approx(60.0)

    def test_only_leaves_receive_grad(self):
        x = t4(np.full((1, 1, 1, 1), 2.0), requires_grad=True)
        mid = ops.scale(x, 3.0)
        loss = ops.mul(mid, mid)
        dc.backward(loss)
        assert x.grad.reshape(-1)[0] == pytest.approx(36.0)
        assert mid.grad is None and loss.grad is None

    def test_shared_gradient_array_is_not_accumulated_in_place(self):
        # add hands one gradient array to both operands; a later contribution
        # to one of them must not leak into the other's
        x = t4(np.full((1, 1, 1, 1), 2.0), requires_grad=True)
        y = t4(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        p, q = ops.scale(x, 1.0), ops.scale(y, 1.0)
        dc.backward(ops.add(ops.add(p, q), ops.add(ops.scale(p, 5.0), ops.scale(q, 7.0))))
        assert x.grad.reshape(-1)[0] == 6.0 and y.grad.reshape(-1)[0] == 8.0

    def test_untracked_leaf_blocks_gradient(self):
        x = t4(np.full((1, 1, 1, 1), 2.0), requires_grad=True)
        y = ops.mul(dc.Tensor4(ops.scale(x, 2.0).data), x)  # treated as 4*x
        dc.backward(y)
        assert x.grad.reshape(-1)[0] == pytest.approx(4.0)


def ref_backward(loss):
    """The sweep before backward consumed its graph: every node stays attached.

    Same arithmetic and the same order of gradient additions as
    ``dc.backward``; only the release of the graph differs.
    """
    flow = {id(loss): np.ones(dc.SCALAR_SHAPE, dtype=dc.DTYPE)}
    for node in reversed(topo_order(loss)):
        g = flow.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is None:
            if node.requires_grad:
                node.accumulate_grad(g)
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if parent is None or pg is None:
                continue
            key = id(parent)
            flow[key] = flow[key] + pg if key in flow else pg


def phase_batch(seed, n, size):
    rng = np.random.default_rng(seed)
    x, y = (t4(rng.uniform(-1, 1, (n, 3, size, size))) for _ in range(2))
    return x, y, rng.uniform(0, 1, (size, size)).astype(np.float32)


def phase_backward(models, phase, x, y, depth, sweep):
    """Build a training phase's loss as ``trainer`` does and sweep it."""
    if phase == "generator":
        with trainer._frozen(models, trainer._DISCRIMINATORS):
            sweep(losses.full_generator_loss(x, y, depth, models)[0])
        return
    with trainer._frozen(models, trainer._GENERATORS):
        fake_y = models["gen_xy"].forward(x, training=True, update_stats=False)
        fake_x = models["gen_yx"].forward(y, training=True, update_stats=False)
    sweep(losses.separated_discriminator_losses(x, y, fake_x, fake_y, depth, models)[0])


class TestGraphConsumption:
    """backward consumes its graph: each node drops its edges once passed."""

    def test_second_backward_raises(self):
        x = t4(np.full((1, 1, 2, 2), 2.0), requires_grad=True)
        loss = ops.mean_sq(ops.scale(x, 3.0))
        dc.backward(loss)
        with pytest.raises(dc.GraphError, match="consumed by backward"):
            dc.backward(loss)

    def test_backward_from_a_passed_intermediate_raises(self):
        models = trainer.build_models(trainer.desk_config())
        x, y, depth = phase_batch(0, 2, 64)
        total, _, parts = losses.full_generator_loss(x, y, depth, models, return_parts=True)
        dc.backward(total)
        with pytest.raises(dc.GraphError, match="consumed by backward"):
            dc.backward(parts["combined_fg"])

    def test_op_on_a_consumed_tensor_raises_in_backward(self):
        x = t4(np.full((1, 1, 2, 2), 2.0), requires_grad=True)
        mid = ops.scale(x, 3.0)
        dc.backward(ops.mean_sq(mid))
        later = ops.mean_abs(mid)  # the forward still works on the held data
        assert later.item() == pytest.approx(6.0)
        with pytest.raises(dc.GraphError, match="consumed by backward"):
            dc.backward(later)

    def test_held_intermediates_keep_their_data(self):
        models = trainer.build_models(trainer.desk_config(seed=1))
        x, y, depth = phase_batch(1, 2, 64)
        fake_y = models["gen_xy"].forward(x, training=True)
        total, values, parts = losses.full_generator_loss(x, y, depth, models, return_parts=True)
        before = fake_y.data.copy()
        dc.backward(ops.add(total, ops.mean_sq(fake_y)))
        assert total.item() == values["attention_total"]
        assert parts["combined_fg"].item() == values["combined_fg"]
        assert np.array_equal(fake_y.data, before)
        assert fake_y.grad is None and not fake_y.is_leaf

    @pytest.mark.parametrize("phase", ["generator", "discriminator"])
    def test_grads_match_the_non_consuming_sweep_bytewise(self, phase):
        models = trainer.build_models(trainer.desk_config())
        x, y, depth = phase_batch(29, 5, 64)
        trained = trainer._GENERATORS if phase == "generator" else trainer._DISCRIMINATORS
        grads = []
        for sweep in (ref_backward, dc.backward):
            # training-mode forwards use batch moments: both graphs are equal
            for m in models.values():
                for p in m.params.values():
                    p.tensor.zero_grad()
            phase_backward(models, phase, x, y, depth, sweep)
            grads.append({
                f"{n}/{pid}": p.tensor.grad
                for n, m in models.items()
                for pid, p in m.params.items()
                if p.tensor.grad is not None
            })
        want, got = grads
        assert len(want) == sum(len(models[n].params) for n in trained)
        assert got.keys() == want.keys()
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), key

    def test_gradients_follow_the_flags_of_op_time(self):
        # a generator-phase graph built with the discriminators frozen, swept
        # after they thaw, still reaches the generators only
        models = trainer.build_models(trainer.desk_config())
        x, y, depth = phase_batch(31, 5, 64)
        with trainer._frozen(models, trainer._DISCRIMINATORS):
            total, _ = losses.full_generator_loss(x, y, depth, models)
        assert all(p.tensor.requires_grad for m in models.values() for p in m.params.values())
        dc.backward(total)
        got = {f"{n}/{pid}": p.tensor.grad for n, m in models.items()
               for pid, p in m.params.items() if p.tensor.grad is not None}
        assert len(got) == sum(len(models[n].params) for n in trainer._GENERATORS) == 32
        for m in models.values():
            for p in m.params.values():
                p.tensor.zero_grad()
        phase_backward(models, "generator", x, y, depth, ref_backward)
        for key, grad in got.items():
            n, pid = key.split("/", 1)
            assert grad.tobytes() == models[n].params[pid].tensor.grad.tobytes(), key

    @pytest.mark.parametrize("op", [ops.add, ops.sub, ops.mul, ops.concat_channels])
    def test_a_leaf_tracked_after_the_op_gets_no_gradient(self, op):
        late = t4(np.full((1, 1, 2, 2), 2.0))
        early = t4(np.full((1, 1, 2, 2), 3.0), requires_grad=True)
        out = op(late, early)
        assert out._needs == (False, True)
        late.requires_grad = True
        dc.backward(ops.mean_sq(out))
        assert late.grad is None and early.grad is not None

    def test_backward_frees_the_graph_as_it_sweeps(self):
        # Desk generator phase at batch 5; the graph holds 25.53 MB (traced) at
        # backward entry. With the non-consuming sweep (ref_backward's loop),
        # measured once: with `total` still held, 25.54 MB stayed above the
        # pre-forward size plus the generators' gradients (0.74 MB), and the
        # call peaked 6,335,727 B above its entry. The consuming sweep: 10 KB
        # and 1.50 MB.
        PEAK_BEFORE = 6_335_727
        models = trainer.build_models(trainer.desk_config())
        x, y, depth = phase_batch(23, 5, 64)
        tracemalloc.start()
        try:
            with trainer._frozen(models, trainer._DISCRIMINATORS):
                base = tracemalloc.get_traced_memory()[0]
                total, _ = losses.full_generator_loss(x, y, depth, models)
                entry = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                dc.backward(total)
                current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        grad_bytes = sum(p.tensor.grad.nbytes for n in trainer._GENERATORS for p in models[n].params.values())
        assert abs(current - (base + grad_bytes)) <= 1 << 20
        assert peak - entry <= 0.85 * PEAK_BEFORE


# ---------------------------------------------------------------------------
# optimizer


class TestAdam:
    def _param(self, value, pid="p"):
        return dc.Parameter(pid, t4(np.full((1, 1, 1, 1), value, np.float32)))

    def test_single_step_hand_value(self):
        # lr 0.01, b1 0.5, b2 0.999, g=1: mhat=1, vhat=1 -> theta = 1 - 0.01
        p = self._param(1.0)
        p.tensor.grad = np.ones((1, 1, 1, 1), np.float32)
        st = dc.AdamState(lr=0.01)
        dc.adam_step([p], st)
        assert p.tensor.data.reshape(-1)[0] == pytest.approx(0.99, abs=1e-6)
        assert p.tensor.grad is None  # grads dropped after the step

    def test_zero_grad_fresh_state_no_motion(self):
        p = self._param(1.0)
        p.tensor.grad = np.zeros((1, 1, 1, 1), np.float32)
        dc.adam_step([p], dc.AdamState())
        assert p.tensor.data.reshape(-1)[0] == 1.0

    def test_constant_gradient_step_size_approaches_lr(self):
        p = self._param(0.0)
        st = dc.AdamState(lr=2e-4)
        prev = 0.0
        for _ in range(50):
            p.tensor.grad = np.full((1, 1, 1, 1), 7.0, np.float32)
            dc.adam_step([p], st)
            step = prev - float(p.tensor.data.reshape(-1)[0])
            prev = float(p.tensor.data.reshape(-1)[0])
        assert step == pytest.approx(2e-4, rel=1e-3)

    def test_missing_grad_names_parameter(self):
        p = self._param(1.0, pid="gen/w")
        with pytest.raises(dc.GraphError, match="gen/w"):
            dc.adam_step([p], dc.AdamState())

    def test_state_is_per_parameter_id(self):
        a, b = self._param(1.0, "a"), self._param(1.0, "b")
        st = dc.AdamState()
        a.tensor.grad = np.ones((1, 1, 1, 1), np.float32)
        b.tensor.grad = -np.ones((1, 1, 1, 1), np.float32)
        dc.adam_step([a, b], st)
        assert set(st.m) == {"a", "b"}
        assert st.m["a"][0, 0, 0, 0] == -st.m["b"][0, 0, 0, 0]


# ---------------------------------------------------------------------------
# finite-difference harness


class TestGradCheck:
    def test_square_function_tight(self):
        x = t4(np.full((1, 1, 1, 1), 3.0, np.float32))
        res = dc.grad_check(lambda t: ops.mul(t, t), [x], name="square")
        assert res.passed and res.max_rel_error < 1e-4

    def test_detects_broken_gradient(self):
        def broken(t):
            out = ops.tanh(t)
            good = out._grad_fn
            out._grad_fn = lambda g: tuple(2.0 * p if p is not None else None for p in good(g))
            return out

        x = t4(np.linspace(-1, 1, 8, dtype=np.float32).reshape(1, 1, 2, 4))
        res = dc.grad_check(broken, [x], name="broken")
        assert not res.passed

    def test_non_contiguous_input_passes(self):
        # reshape(-1) of a transposed view is a copy: perturbing through one
        # would leave the op's input as it was and read every difference as 0
        rng = np.random.default_rng(7)
        x = t4((np.round(rng.uniform(-1, 1, (2, 3, 5, 4)) * 64) / 64).transpose(0, 1, 3, 2))
        assert not x.data.flags.c_contiguous
        w = t4(np.round(rng.uniform(-0.5, 0.5, (2, 3, 3, 3)) * 64) / 64)
        res = dc.grad_check(
            lambda x, w: ops.conv2d(x, w, None, stride=1, padding=1), [x, w], name="conv2d_t"
        )
        assert res.passed, res.summary()

    def test_registry_covers_all_ops_and_passes(self):
        res = dc.run_registry(seeds=(0, 1))
        assert all(r.passed for r in res), [r.summary() for r in res if not r.passed]
        names = {r.name.split("[")[0] for r in res}
        for op in (
            "conv2d",
            "conv_transpose2d",
            "batch_norm_leaky_train",
            "batch_norm_leaky_eval",
            "composite_chain",
            "tanh",
            "add",
            "sub",
            "mul",
            "mean_abs",
            "mean_sq",
            "concat_channels",
        ):
            assert op in names
