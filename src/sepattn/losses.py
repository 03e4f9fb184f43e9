"""Separated-attention adversarial and cycle objectives.

Two generators translate between a degraded domain X and a clean domain Y
(gen_xy: X->Y, gen_yx: Y->X); two discriminators judge each domain. Every
image is split by its depth map into foreground and background, and each
region gets its own full combined objective

    combined_r = adv(gen_xy)_r + adv(gen_yx)_r + cycle_weight * cycle_r

which the attention weights then mix into one training scalar:

    total = fg_attention * combined_fg + bg_attention * combined_bg.

Adversarial terms default to the least-squares form (generator pushes fake
scores toward 1; discriminator pushes real toward 1 and fake toward 0); the
negative-log-likelihood form is kept available for comparison. Discriminators
score channel-concatenated (reference, candidate) pairs when built with twice
the image channels, or the bare candidate otherwise.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
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
    mean_softplus,
    mean_sq,
    scale,
    shift,
    sub,
)
from .netarch import Discriminator, Generator

__all__ = [
    "ATTENTION_RANGE",
    "GanLossKind",
    "LossWeights",
    "LossReport",
    "gan_generator_loss",
    "gan_discriminator_loss",
    "cycle_loss",
    "attention_objective",
    "check_models",
    "region_discriminator",
    "full_generator_loss",
    "separated_discriminator_losses",
]

#: attention weights are expected inside this closed interval
ATTENTION_RANGE = (1.0, 10.0)


class GanLossKind(str, Enum):
    LEAST_SQUARES = "least_squares"
    NEG_LOG_LIKELIHOOD = "neg_log_likelihood"


@dataclass(frozen=True)
class LossWeights:
    """cycle_weight scales reconstruction; fg/bg attention mix the regions."""

    cycle_weight: float = 10.0
    fg_attention: float = 7.0
    bg_attention: float = 3.0

    def validate(self, strict: bool = True) -> "LossWeights":
        if self.cycle_weight < 0:
            raise ValueError(f"cycle_weight must be >= 0, got {self.cycle_weight}")
        lo, hi = ATTENTION_RANGE
        for name, v in (("fg_attention", self.fg_attention), ("bg_attention", self.bg_attention)):
            if not (lo <= v <= hi):
                msg = f"{name} = {v} outside the supported range [{lo:g}, {hi:g}]"
                if strict:
                    raise ValueError(msg)
                warnings.warn(msg, stacklevel=2)
        return self


@dataclass
class LossReport:
    """One training step's scalar terms; adversarial/cycle values are the raw
    per-region sums (attention and cycle weighting applied only inside
    combined_fg/combined_bg/attention_total)."""

    gan_g_xy: float = 0.0
    gan_g_yx: float = 0.0
    cycle: float = 0.0
    combined_fg: float = 0.0
    combined_bg: float = 0.0
    attention_total: float = 0.0
    disc_x_fg: float = 0.0
    disc_x_bg: float = 0.0
    disc_y_fg: float = 0.0
    disc_y_bg: float = 0.0

    FIELDS = (
        "gan_g_xy",
        "gan_g_yx",
        "cycle",
        "combined_fg",
        "combined_bg",
        "attention_total",
        "disc_x_fg",
        "disc_x_bg",
        "disc_y_fg",
        "disc_y_bg",
    )

    def to_dict(self) -> Dict[str, float]:
        return {f: getattr(self, f) for f in self.FIELDS}


# ---------------------------------------------------------------------------
# scalar loss atoms


def gan_generator_loss(fake_scores: Tensor4, kind: GanLossKind = GanLossKind.LEAST_SQUARES) -> Tensor4:
    """How far the discriminator is from calling the fakes real."""
    if kind == GanLossKind.LEAST_SQUARES:
        return mean_sq(shift(fake_scores, -1.0))
    return mean_softplus(scale(fake_scores, -1.0))


def gan_discriminator_loss(
    real_scores: Tensor4,
    fake_scores: Tensor4,
    kind: GanLossKind = GanLossKind.LEAST_SQUARES,
) -> Tensor4:
    """How far the discriminator is from scoring real as 1 and fake as 0."""
    if kind == GanLossKind.LEAST_SQUARES:
        return add(mean_sq(shift(real_scores, -1.0)), mean_sq(fake_scores))
    return add(mean_softplus(scale(real_scores, -1.0)), mean_softplus(fake_scores))


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
    exact = Fraction(float(weights.fg_attention)) * Fraction(float(fg_value)) + Fraction(
        float(weights.bg_attention)
    ) * Fraction(float(bg_value))
    return float(exact)


# ---------------------------------------------------------------------------
# model plumbing


def check_models(models: Dict[str, object]) -> None:
    """Require both generators plus, per domain, a shared or per-region discriminator.

    Shared mode supplies ``disc_x``/``disc_y``; the ablation mode supplies all
    four of ``disc_x_fg``, ``disc_x_bg``, ``disc_y_fg``, ``disc_y_bg``.
    """
    missing = [k for k in ("gen_xy", "gen_yx") if k not in models]
    for dom in ("x", "y"):
        if f"disc_{dom}" in models:
            continue
        missing += [k for k in (f"disc_{dom}_fg", f"disc_{dom}_bg") if k not in models]
    if missing:
        raise KeyError(
            f"models dict is missing {missing}; needs gen_xy, gen_yx and per domain "
            "either disc_<d> or both disc_<d>_fg and disc_<d>_bg"
        )


def region_discriminator(models: Dict[str, object], domain: str, region: str) -> Discriminator:
    """The discriminator scoring (domain, region): per-region if present, else shared."""
    return models.get(f"disc_{domain}_{region}", models.get(f"disc_{domain}"))


def _disc_input(disc: Discriminator, reference: Tensor4, candidate: Tensor4) -> Tensor4:
    """Pair-scoring discriminators get (reference, candidate) stacked on channels."""
    if disc.config.in_channels == candidate.shape[1] * 2:
        return concat_channels(reference, candidate)
    if disc.config.in_channels == candidate.shape[1]:
        return candidate
    raise ShapeError(
        f"discriminator expects {disc.config.in_channels} channels; candidates have "
        f"{candidate.shape[1]} (neither bare nor paired input fits)"
    )


# ---------------------------------------------------------------------------
# full objectives


def full_generator_loss(
    x: Tensor4,
    y: Tensor4,
    depth: np.ndarray,
    models: Dict[str, object],
    weights: LossWeights = LossWeights(),
    kind: GanLossKind = GanLossKind.LEAST_SQUARES,
    training: bool = True,
    return_parts: bool = False,
):
    """Both generators' combined objective, separated by region and mixed by attention.

    Translations run on the full images; masking applies to the loss inputs.
    Discriminator scoring uses batch statistics in train mode but never
    updates discriminator norm buffers (that happens in the discriminator's
    own phase). Returns ``(total, report)`` — with ``return_parts`` also a
    dict holding the per-region combined scalars still attached to the graph.
    """
    if x.shape != y.shape:
        raise ShapeError(f"paired batch shapes differ: x {x.shape} vs y {y.shape}")
    check_models(models)
    gen_xy: Generator = models["gen_xy"]
    gen_yx: Generator = models["gen_yx"]

    fake_y = gen_xy.forward(x, training=training, update_stats=training)
    fake_x = gen_yx.forward(y, training=training, update_stats=training)
    recon_x = gen_yx.forward(fake_y, training=training, update_stats=training)
    recon_y = gen_xy.forward(fake_x, training=training, update_stats=training)

    regions = {}
    for name, img in (
        ("x", x),
        ("y", y),
        ("fake_x", fake_x),
        ("fake_y", fake_y),
        ("recon_x", recon_x),
        ("recon_y", recon_y),
    ):
        regions[name] = attnmask.split(img, depth)

    parts: Dict[str, Tensor4] = {}
    gan_xy_vals = {}
    gan_yx_vals = {}
    cyc_vals = {}
    for r, ridx in (("fg", 0), ("bg", 1)):
        disc_x = region_discriminator(models, "x", r)
        disc_y = region_discriminator(models, "y", r)
        score_y = disc_y.forward(
            _disc_input(disc_y, regions["y"][ridx], regions["fake_y"][ridx]),
            training=training,
            update_stats=False,
        )
        score_x = disc_x.forward(
            _disc_input(disc_x, regions["x"][ridx], regions["fake_x"][ridx]),
            training=training,
            update_stats=False,
        )
        gan_xy = gan_generator_loss(score_y, kind)
        gan_yx = gan_generator_loss(score_x, kind)
        cyc = add(
            cycle_loss(regions["recon_x"][ridx], regions["x"][ridx]),
            cycle_loss(regions["recon_y"][ridx], regions["y"][ridx]),
        )
        combined = add(add(gan_xy, gan_yx), scale(cyc, weights.cycle_weight))
        parts[f"combined_{r}"] = combined
        gan_xy_vals[r] = gan_xy.item()
        gan_yx_vals[r] = gan_yx.item()
        cyc_vals[r] = cyc.item()

    total = attention_objective(parts["combined_fg"], parts["combined_bg"], weights)
    report = LossReport(
        gan_g_xy=gan_xy_vals["fg"] + gan_xy_vals["bg"],
        gan_g_yx=gan_yx_vals["fg"] + gan_yx_vals["bg"],
        cycle=cyc_vals["fg"] + cyc_vals["bg"],
        combined_fg=parts["combined_fg"].item(),
        combined_bg=parts["combined_bg"].item(),
        attention_total=total.item(),
    )
    if return_parts:
        return total, report, parts
    return total, report


def separated_discriminator_losses(
    x: Tensor4,
    y: Tensor4,
    fake_x: Tensor4,
    fake_y: Tensor4,
    depth: np.ndarray,
    models: Dict[str, object],
    weights: LossWeights = LossWeights(),
    kind: GanLossKind = GanLossKind.LEAST_SQUARES,
    training: bool = True,
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
    check_models(models)
    for name, fake in (("fake_x", fake_x), ("fake_y", fake_y)):
        if fake.requires_grad or not fake.is_leaf:
            raise ValueError(f"{name} must be detached before the discriminator phase")

    split = lambda img: attnmask.split(img, depth)
    rx, ry = split(x), split(y)
    rfx, rfy = split(fake_x), split(fake_y)

    values: Dict[str, float] = {}
    region_totals = {}
    for r, ridx in (("fg", 0), ("bg", 1)):
        disc_x = region_discriminator(models, "x", r)
        disc_y = region_discriminator(models, "y", r)
        lx = gan_discriminator_loss(
            disc_x.forward(
                _disc_input(disc_x, rx[ridx], rx[ridx]), training=training, update_stats=training
            ),
            disc_x.forward(
                _disc_input(disc_x, rx[ridx], rfx[ridx]), training=training, update_stats=training
            ),
            kind,
        )
        ly = gan_discriminator_loss(
            disc_y.forward(
                _disc_input(disc_y, ry[ridx], ry[ridx]), training=training, update_stats=training
            ),
            disc_y.forward(
                _disc_input(disc_y, ry[ridx], rfy[ridx]), training=training, update_stats=training
            ),
            kind,
        )
        values[f"disc_x_{r}"] = lx.item()
        values[f"disc_y_{r}"] = ly.item()
        region_totals[r] = add(lx, ly)

    total = attention_objective(region_totals["fg"], region_totals["bg"], weights)
    return total, values
