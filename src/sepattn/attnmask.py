"""Depth-driven foreground/background splitting.

A depth map assigns every pixel a value in [0, 1] — 1 meaning closest to the
camera. An image I splits into a foreground I * D and a background I * (1 - D)
(elementwise, broadcast across channels), so the two regions always sum back
to the original image. The depth map is a constant of the computation: masking
is differentiable with respect to the image only. A depth value that is not
finite or lies outside [0, 1] is rejected, never clipped.
"""
from __future__ import annotations

from typing import Tuple

import numpy as np

from .diffcore import DTYPE, ShapeError, Tensor4, mul

__all__ = [
    "DepthRangeError",
    "validate_depth",
    "region_masks",
    "split",
]


class DepthRangeError(ValueError):
    """A depth value lies outside [0, 1]; the message names the coordinate."""


def validate_depth(values: np.ndarray) -> np.ndarray:
    """Return a float32 copy of ``values`` guaranteed to lie in [0, 1].

    Raises :class:`DepthRangeError` naming the first offending coordinate.
    """
    arr = np.asarray(values, dtype=DTYPE)
    if arr.ndim not in (2, 3):
        raise ShapeError(f"depth must be (H, W) or (N, H, W), got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise DepthRangeError(f"depth{tuple(int(i) for i in bad)} is not finite")
    out_of_range = (arr < 0.0) | (arr > 1.0)
    if out_of_range.any():
        bad = np.argwhere(out_of_range)[0]
        idx = tuple(int(i) for i in bad)
        raise DepthRangeError(f"depth{list(idx)} = {float(arr[idx]):g} outside [0, 1]")
    return arr


def _broadcast_depth(depth: np.ndarray, batch: int, channels: int) -> np.ndarray:
    """Broadcast a depth map that ``validate_depth`` passed to (N, C, H, W)."""
    if depth.ndim == 2:
        d = np.broadcast_to(depth, (batch, channels) + depth.shape)
    else:
        if depth.shape[0] != batch:
            raise ShapeError(
                f"depth batch {depth.shape[0]} does not match image batch {batch} "
                f"(depth {depth.shape})"
            )
        d = np.broadcast_to(depth[:, None, :, :], (batch, channels) + depth.shape[1:])
    return np.ascontiguousarray(d, dtype=DTYPE)


def region_masks(depth: np.ndarray, shape: Tuple[int, int, int, int]) -> Tuple[Tensor4, Tensor4]:
    """Constant (fg, bg) mask tensors for images of ``shape`` (N, C, H, W): D and 1 - D.

    ``depth`` is (H, W) — shared by the whole batch — or (N, H, W). Validated
    and broadcast once; every :func:`split` of images of that shape reuses the pair.
    """
    n, c, h, w = shape
    d = np.asarray(depth)
    if d.shape[-2:] != (h, w):
        raise ShapeError(
            f"depth spatial dims {d.shape[-2:]} do not match image dims {(h, w)} "
            f"(images {tuple(shape)}, depth {d.shape})"
        )
    full = _broadcast_depth(validate_depth(d), n, c)
    return Tensor4(full), Tensor4(np.float32(1.0) - full)


def split(images: Tensor4, masks: Tuple[Tensor4, Tensor4]) -> Tuple[Tensor4, Tensor4]:
    """Split a batch into (foreground, background) with the :func:`region_masks` pair.

    Gradients flow through the images only; the masks are constants.
    """
    fg_mask, bg_mask = masks
    return mul(images, fg_mask), mul(images, bg_mask)
