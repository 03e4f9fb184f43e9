"""NumPy behaviours that the byte-equal claims of ``sepattn.diffcore`` rest on.

Each is observed, not documented, NumPy behaviour. A re-blocked op is
byte-equal to the expression it replaces only while these hold, so a NumPy
upgrade that changes one fails a test named after it here rather than a
training gate further on. Data spans many orders of magnitude, so a
different summation order shows up in the bytes (each test checks that too).
"""
import numpy as np
import pytest

from sepattn.diffcore import ops


def wide(rng, shape, dtype=np.float32):
    """Normal values scaled over about seven decades: sums depend on their order."""
    return (rng.standard_normal(shape) * np.exp(rng.uniform(-8, 8, shape))).astype(dtype)


def per_plane_in_n_order(a: np.ndarray, run: int) -> np.ndarray:
    """Per channel: each (n, c) plane summed pairwise in runs of ``run`` values, added in n order."""
    n, c = a.shape[:2]
    out = np.zeros(c, np.float64)
    for ch in range(c):
        total = 0.0
        for i in range(n):
            flat = a[i, ch].reshape(-1)
            for at in range(0, flat.size, run):
                total = total + flat[at : at + run].astype(np.float64).sum()
        out[ch] = total
    return out


# the stage shapes of the desk networks at batch 5, and one full-scale stage
SHAPES = [(5, 16, 32, 32), (5, 32, 16, 16), (5, 64, 8, 8), (5, 16, 64, 64), (2, 4, 128, 128)]


class TestChannelReduction:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_float64_sum_is_one_pairwise_sum_per_plane_added_in_n_order(self, shape):
        a = wide(np.random.default_rng(1), shape, np.float64)
        got = a.sum(axis=(0, 2, 3))
        assert got.tobytes() == per_plane_in_n_order(a, a[0, 0].size).tobytes()
        in_flat_order = np.array([sum(map(float, a[:, ch].reshape(-1))) for ch in range(shape[1])])
        assert got.tobytes() != in_flat_order.tobytes()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_float32_sum_in_float64_adds_buffer_runs_per_plane_in_n_order(self, shape):
        # the cast goes through NumPy's buffer, so a plane larger than it is
        # summed one buffer run at a time; desk planes fit in one run
        a = wide(np.random.default_rng(2), shape)
        got = a.sum(axis=(0, 2, 3), dtype=np.float64)
        assert got.tobytes() == per_plane_in_n_order(a, np.getbufsize()).tobytes()
        if a[0, 0].size <= np.getbufsize():
            assert got.tobytes() == per_plane_in_n_order(a, a[0, 0].size).tobytes()
        assert a.mean(axis=(0, 2, 3), dtype=np.float64).tobytes() == (got / (a.size // shape[1])).tobytes()


class TestStackedMatmul:
    def test_one_gemm_per_stack_item(self):
        rng = np.random.default_rng(3)
        w = wide(rng, (16, 27))
        # conv2d's forward and conv_transpose2d's forward
        for mat, stack in ((w, wide(rng, (5, 27, 1024))), (w.T, wide(rng, (5, 16, 1024)))):
            got = np.matmul(mat, stack)
            assert got.tobytes() == np.stack([mat @ stack[i] for i in range(5)]).tobytes()

    def test_sum_over_the_stack_adds_items_in_order(self):
        rng = np.random.default_rng(4)
        g = wide(rng, (5, 16, 1024))
        cols = wide(rng, (5, 27, 1024))
        products = np.matmul(g, cols.transpose(0, 2, 1))
        assert products.tobytes() == np.stack([g[i] @ cols[i].T for i in range(5)]).tobytes()
        total = products[0]
        for i in range(1, 5):
            total = total + products[i]
        assert products.sum(axis=0).tobytes() == total.tobytes()
        backwards = products[4]
        for i in range(3, -1, -1):
            backwards = backwards + products[i]
        assert total.tobytes() != backwards.tobytes()


class TestLeakyMax:
    def test_max_equals_the_masked_select_bit_for_bit(self):
        f32 = np.finfo(np.float32)
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, f32.smallest_subnormal,
                   -f32.smallest_subnormal, f32.tiny, -f32.tiny, f32.max, -f32.max, 3.0, -3.0]
        b = np.concatenate([np.array(special, np.float32), wide(np.random.default_rng(5), 1000)])
        assert np.signbit(b[[1, 5]]).all()  # the -0.0 and the negative NaN are there
        got = np.maximum(b, ops.LEAKY_SLOPE * b)
        want = np.where(b >= 0, b, np.float32(ops.LEAKY_SLOPE) * b)
        assert got.dtype == want.dtype == np.float32
        assert got.view(np.uint32).tolist() == want.view(np.uint32).tolist()


class TestSignedZero:
    def test_adding_positive_zero_makes_negative_zero_positive(self):
        minus = np.full(4, -0.0, np.float32)
        for got in (minus + np.float32(0.0), np.float32(0.0) + minus, np.zeros(4, np.float32) + minus):
            assert got.view(np.uint32).tolist() == [0] * 4

    def test_adding_positive_zero_leaves_every_other_value(self):
        values = np.array([1.5, -1.5, np.inf, -np.inf, np.nan, -np.nan,
                           np.finfo(np.float32).smallest_subnormal], np.float32)
        plane = values.copy()
        plane += np.zeros_like(values)  # the in-place add of ``ops._col2im``
        assert plane.view(np.uint32).tolist() == values.view(np.uint32).tolist()
