"""Separated-attention adversarial and cycle objectives.

Two generators translate between a degraded domain X and a clean domain Y
(gen_xy: X->Y, gen_yx: Y->X); two discriminators judge each domain. Every
image is split by its depth map into foreground and background, and each
region gets its own full combined objective

    combined_r = adv(gen_xy)_r + adv(gen_yx)_r + cycle_weight * cycle_r

which the attention weights then mix into one training scalar:

    total = fg_attention * combined_fg + bg_attention * combined_bg.

Adversarial terms use the least-squares form (generator pushes fake scores
toward 1; discriminator pushes real toward 1 and fake toward 0). One
discriminator per domain scores both regions, always on channel-concatenated
(reference, candidate) pairs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple, Union

import numpy as np

from . import attnmask
from .diffcore import (
    ShapeError,
    Tensor4,
    add,
    concat_channels,
    mean_abs,
    mean_sq,
    scale,
    shift,
    sub,
)
from .util import check_fields

__all__ = [
    "ATTENTION_RANGE",
    "LOG_FIELDS",
    "LossWeights",
    "gan_generator_loss",
    "gan_discriminator_loss",
    "cycle_loss",
    "attention_objective",
    "full_generator_loss",
    "separated_discriminator_losses",
]

#: attention weights are expected inside this closed interval
ATTENTION_RANGE = (1.0, 10.0)

#: the training log's loss columns: ``full_generator_loss``'s six values (the
#: adversarial and cycle ones are raw fg + bg sums), then the discriminators' four
LOG_FIELDS = (
    "gan_g_xy", "gan_g_yx", "cycle", "combined_fg", "combined_bg", "attention_total",
    "disc_x_fg", "disc_x_bg", "disc_y_fg", "disc_y_bg",
)


@dataclass(frozen=True)
class LossWeights:
    """cycle_weight scales reconstruction; fg/bg attention mix the regions.

    Checked when built (``util.check_fields``); a bad value is a ValueError, ints become floats.
    """

    cycle_weight: float = 10.0
    fg_attention: float = 7.0
    bg_attention: float = 3.0

    def __post_init__(self) -> None:
        check_fields(self)
        if self.cycle_weight < 0:
            raise ValueError(f"cycle_weight must be >= 0, got {self.cycle_weight}")
        lo, hi = ATTENTION_RANGE
        for name, v in (("fg_attention", self.fg_attention), ("bg_attention", self.bg_attention)):
            if not (lo <= v <= hi):
                raise ValueError(f"{name} = {v} outside the supported range [{lo:g}, {hi:g}]")


# ---------------------------------------------------------------------------
# scalar loss atoms


def gan_generator_loss(fake_scores: Tensor4) -> Tensor4:
    """How far the discriminator is from calling the fakes real."""
    return mean_sq(shift(fake_scores, -1.0))


def gan_discriminator_loss(real_scores: Tensor4, fake_scores: Tensor4) -> Tensor4:
    """How far the discriminator is from scoring real as 1 and fake as 0."""
    return add(mean_sq(shift(real_scores, -1.0)), mean_sq(fake_scores))


def cycle_loss(reconstructed: Tensor4, original: Tensor4) -> Tensor4:
    """Mean absolute deviation of a round-trip translation."""
    return mean_abs(sub(reconstructed, original))


def attention_objective(
    fg_value: Union[float, Tensor4],
    bg_value: Union[float, Tensor4],
    weights: LossWeights,
) -> Union[float, Tensor4]:
    """fg_attention * fg + bg_attention * bg.

    Accepts plain floats or scalar tensors (the tensor form stays on the graph
    for backward). The float form accumulates the weighted sum exactly and
    rounds once, so decimal-friendly operands combine without drift
    (7*1.8 + 3*0.6 comes out as 14.4, not 14.399999999999999).
    """
    if isinstance(fg_value, Tensor4) or isinstance(bg_value, Tensor4):
        if not (isinstance(fg_value, Tensor4) and isinstance(bg_value, Tensor4)):
            raise TypeError("attention_objective needs both values as tensors or both as floats")
        return add(scale(fg_value, weights.fg_attention), scale(bg_value, weights.bg_attention))
    fg, bg = Fraction(float(fg_value)), Fraction(float(bg_value))
    return float(Fraction(weights.fg_attention) * fg + Fraction(weights.bg_attention) * bg)


# ---------------------------------------------------------------------------
# full objectives


def full_generator_loss(
    x: Tensor4,
    y: Tensor4,
    depth: np.ndarray,
    models: Dict[str, object],
    weights: LossWeights = LossWeights(),
    return_parts: bool = False,
):
    """Both generators' combined objective, separated by region and mixed by attention.

    Translations run on the full images; masking applies to the loss inputs.
    Discriminator scoring uses batch statistics but never updates
    discriminator norm buffers (that happens in the discriminator's own
    phase). Returns ``(total, values)``, ``values`` keyed by the first six
    ``LOG_FIELDS``; with ``return_parts`` also a dict holding the per-region
    combined scalars still attached to the graph.
    """
    if x.shape != y.shape:
        raise ShapeError(f"paired batch shapes differ: x {x.shape} vs y {y.shape}")
    gen_xy, gen_yx, disc_x, disc_y = (models[k] for k in ("gen_xy", "gen_yx", "disc_x", "disc_y"))

    fake_y = gen_xy.forward(x, training=True)
    fake_x = gen_yx.forward(y, training=True)
    recon_x = gen_yx.forward(fake_y, training=True)
    recon_y = gen_xy.forward(fake_x, training=True)

    masks = attnmask.region_masks(depth, x.shape)
    regions = {}
    for name, img in (
        ("x", x),
        ("y", y),
        ("fake_x", fake_x),
        ("fake_y", fake_y),
        ("recon_x", recon_x),
        ("recon_y", recon_y),
    ):
        regions[name] = attnmask.split(img, masks)

    parts: Dict[str, Tensor4] = {}
    region_values = {"gan_g_xy": [], "gan_g_yx": [], "cycle": []}  # [fg, bg] each
    for r, ridx in (("fg", 0), ("bg", 1)):
        score_y = disc_y.forward(
            concat_channels(regions["y"][ridx], regions["fake_y"][ridx]),
            training=True,
            update_stats=False,
        )
        score_x = disc_x.forward(
            concat_channels(regions["x"][ridx], regions["fake_x"][ridx]),
            training=True,
            update_stats=False,
        )
        gan_xy = gan_generator_loss(score_y)
        gan_yx = gan_generator_loss(score_x)
        cyc = add(
            cycle_loss(regions["recon_x"][ridx], regions["x"][ridx]),
            cycle_loss(regions["recon_y"][ridx], regions["y"][ridx]),
        )
        combined = add(add(gan_xy, gan_yx), scale(cyc, weights.cycle_weight))
        parts[f"combined_{r}"] = combined
        for key, term in (("gan_g_xy", gan_xy), ("gan_g_yx", gan_yx), ("cycle", cyc)):
            region_values[key].append(term.item())

    total = attention_objective(parts["combined_fg"], parts["combined_bg"], weights)
    values = {key: fg + bg for key, (fg, bg) in region_values.items()}
    values.update(
        combined_fg=parts["combined_fg"].item(),
        combined_bg=parts["combined_bg"].item(),
        attention_total=total.item(),
    )
    if return_parts:
        return total, values, parts
    return total, values


def separated_discriminator_losses(
    x: Tensor4,
    y: Tensor4,
    fake_x: Tensor4,
    fake_y: Tensor4,
    depth: np.ndarray,
    models: Dict[str, object],
    weights: LossWeights = LossWeights(),
) -> Tuple[Tensor4, Dict[str, float]]:
    """Per-domain, per-region discriminator losses.

    ``fake_x``/``fake_y`` must be detached from the generator graphs (this is
    the discriminators' phase; asserting real-vs-fake must not move the
    generators). Real pairs present the reference twice; fake pairs present
    (reference, candidate). Region terms carry the same attention weights as
    the generator objective, keeping the two phases of the minimax consistent.
    Returns the weighted total and the four raw scalars keyed
    disc_x_fg / disc_x_bg / disc_y_fg / disc_y_bg.
    """
    disc_x, disc_y = models["disc_x"], models["disc_y"]
    for name, fake in (("fake_x", fake_x), ("fake_y", fake_y)):
        if fake.requires_grad or not fake.is_leaf:
            raise ValueError(f"{name} must be detached before the discriminator phase")

    masks = attnmask.region_masks(depth, x.shape)
    rx, ry = attnmask.split(x, masks), attnmask.split(y, masks)
    rfx, rfy = attnmask.split(fake_x, masks), attnmask.split(fake_y, masks)

    def disc_loss(disc, real, fake):
        return gan_discriminator_loss(
            disc.forward(concat_channels(real, real), training=True),
            disc.forward(concat_channels(real, fake), training=True),
        )

    values: Dict[str, float] = {}
    region_totals = {}
    for r, ridx in (("fg", 0), ("bg", 1)):
        lx = disc_loss(disc_x, rx[ridx], rfx[ridx])
        ly = disc_loss(disc_y, ry[ridx], rfy[ridx])
        values[f"disc_x_{r}"] = lx.item()
        values[f"disc_y_{r}"] = ly.item()
        region_totals[r] = add(lx, ly)

    total = attention_objective(region_totals["fg"], region_totals["bg"], weights)
    return total, values
