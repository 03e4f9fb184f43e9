"""Foreground/background splitting against hand-checkable cases."""
import numpy as np
import pytest

from sepattn import attnmask
from sepattn.diffcore import ShapeError, Tensor4, backward, mean_abs


def timg(arr):
    return Tensor4(np.asarray(arr, dtype=np.float32))


def split(img, depth):
    return attnmask.split(img, attnmask.region_masks(depth, img.shape))


class TestValidateDepth:
    def test_reject_names_coordinate(self):
        d = np.zeros((4, 4), np.float32)
        d[2, 3] = 1.5
        with pytest.raises(attnmask.DepthRangeError, match=r"\[2, 3\].*1\.5"):
            attnmask.validate_depth(d)

    def test_nan_rejected(self):
        d = np.array([[np.nan]], np.float32)
        with pytest.raises(attnmask.DepthRangeError, match="finite"):
            attnmask.validate_depth(d)


class TestSplit:
    def test_all_foreground_when_depth_is_one(self):
        img = timg(np.random.default_rng(0).uniform(-1, 1, (2, 3, 4, 4)))
        fg, bg = split(img, np.ones((4, 4), np.float32))
        np.testing.assert_array_equal(fg.data, img.data)
        assert not bg.data.any()

    def test_all_background_when_depth_is_zero(self):
        img = timg(np.random.default_rng(1).uniform(-1, 1, (1, 3, 4, 4)))
        fg, bg = split(img, np.zeros((4, 4), np.float32))
        assert not fg.data.any()
        np.testing.assert_array_equal(bg.data, img.data)

    def test_half_depth_halves_exactly(self):
        img = timg(np.random.default_rng(2).uniform(-1, 1, (1, 3, 4, 4)))
        fg, bg = split(img, np.full((4, 4), 0.5, np.float32))
        np.testing.assert_array_equal(fg.data, bg.data)
        np.testing.assert_array_equal(fg.data, img.data * np.float32(0.5))

    @pytest.mark.parametrize("seed", range(10))
    def test_partition_identity(self, seed):
        rng = np.random.default_rng(seed)
        img = timg(rng.uniform(-1, 1, (2, 3, 8, 8)))
        depth = rng.uniform(0, 1, (8, 8)).astype(np.float32)
        fg, bg = split(img, depth)
        assert np.abs((fg.data + bg.data) - img.data).max() < 1e-6

    def test_per_item_depth(self):
        img = timg(np.ones((2, 1, 2, 2)))
        depth = np.stack(
            [np.zeros((2, 2), np.float32), np.ones((2, 2), np.float32)]
        )
        fg, _ = split(img, depth)
        assert not fg.data[0].any()
        np.testing.assert_array_equal(fg.data[1], img.data[1])

    def test_spatial_mismatch_names_both_shapes(self):
        img = timg(np.ones((1, 3, 4, 4)))
        with pytest.raises(ShapeError, match=r"\(3, 3\).*\(4, 4\)"):
            attnmask.region_masks(np.zeros((3, 3), np.float32), img.shape)

    def test_masks_for_another_shape_rejected(self):
        masks = attnmask.region_masks(np.zeros((4, 4), np.float32), (1, 3, 4, 4))
        with pytest.raises(ShapeError, match=r"\(2, 3, 4, 4\).*\(1, 3, 4, 4\)"):
            attnmask.split(timg(np.ones((2, 3, 4, 4))), masks)

    def test_one_mask_pair_serves_every_split(self):
        rng = np.random.default_rng(6)
        depth = rng.uniform(0, 1, (4, 4)).astype(np.float32)
        masks = attnmask.region_masks(depth, (2, 3, 4, 4))
        for seed in range(3):
            img = timg(np.random.default_rng(seed).uniform(-1, 1, (2, 3, 4, 4)))
            img.requires_grad = True
            fg, bg = attnmask.split(img, masks)
            assert fg._parents[1] is masks[0] and bg._parents[1] is masks[1]
            assert fg.data.tobytes() == (img.data * depth).tobytes()

    def test_batch_mismatch_rejected(self):
        img = timg(np.ones((2, 3, 4, 4)))
        with pytest.raises(ShapeError, match="batch"):
            split(img, np.zeros((3, 4, 4), np.float32))

    def test_out_of_range_depth_rejected(self):
        img = timg(np.ones((1, 1, 2, 2)))
        bad = np.array([[0.0, 2.0], [0.0, 0.0]], np.float32)
        with pytest.raises(attnmask.DepthRangeError, match=r"\[0, 1\]"):
            split(img, bad)

    def test_gradient_flows_to_image_scaled_by_mask(self):
        rng = np.random.default_rng(5)
        img = timg(rng.uniform(0.2, 1.0, (1, 1, 2, 2)))
        img.requires_grad = True
        depth = np.array([[1.0, 0.0], [0.5, 0.25]], np.float32)
        fg, _ = split(img, depth)
        backward(mean_abs(fg))
        # d mean|I*D| / dI = sign(I*D) * D / n, and I > 0 here
        want = depth / 4.0
        np.testing.assert_allclose(img.grad[0, 0], want, rtol=1e-6, atol=1e-7)

    def test_masks_carry_no_gradient(self):
        img = timg(np.ones((1, 1, 2, 2)))
        img.requires_grad = True
        fg, bg = split(img, np.full((2, 2), 0.3, np.float32))
        backward(mean_abs(fg))
        for parent in fg._parents:
            if parent is not img:
                assert parent.grad is None
