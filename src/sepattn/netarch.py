"""Network builders: skip-connected encoder/decoder generator, patch discriminator.

One fixed recipe, after CycleGAN's: only the depth and the channel widths are
configurable, and each model pins the square input size it is built for.
Every down- and up-sampling stage has stride 2 and padding 1, so with the
generator's 4x4 kernels and the discriminator's 3x3 ones each stage halves (or
doubles) the image exactly.

The generator halves spatial resolution at every encoder stage
(conv -> batch norm -> leaky relu), doubles it back with transposed
convolutions, concatenates mirrored encoder activations onto the decoder
stream, and maps to [-1, 1] through a final tanh. The discriminator scores a
channel-concatenated (reference, candidate) pair: it stacks conv/bn/leaky-relu
blocks and projects to a one-channel patch map with a 1x1 convolution, so each
output score judges one receptive field.

Convolutions followed by a norm stage carry no bias (the norm's beta subsumes
it); only the discriminator's final projection keeps one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .diffcore import (
    DTYPE,
    Parameter,
    RunningStats,
    ShapeError,
    Tensor4,
    batch_norm_leaky,
    concat_channels,
    conv2d,
    conv_transpose2d,
    tanh,
)
from .util import check_fields

__all__ = [
    "ConfigError",
    "GeneratorConfig",
    "DiscriminatorConfig",
    "Model",
    "Generator",
    "Discriminator",
]

WEIGHT_SIGMA = 0.02
IMAGE_CHANNELS = 3  # RGB in, RGB out
PAIR_CHANNELS = 6  # a channel-concatenated (reference, candidate) pair
GEN_KERNEL = 4
DISC_KERNEL = 3
PADDING = 1  # with stride 2, either kernel halves an even size exactly


class ConfigError(ValueError):
    """A network config violates a structural constraint (message says which)."""


def _check_sizes(image_size: int, base_channels: int, max_channels: int) -> None:
    if not (image_size >= 1 and image_size & (image_size - 1) == 0):
        raise ConfigError(f"image_size must be a power of two, got {image_size}")
    if base_channels < 1 or max_channels < base_channels:
        raise ConfigError(
            f"need 1 <= base_channels <= max_channels, got {base_channels}/{max_channels}"
        )


@dataclass(frozen=True)
class GeneratorConfig:
    depth: int = 5
    base_channels: int = 16
    max_channels: int = 256

    def __post_init__(self) -> None:
        check_fields(self)

    def validate(self, image_size: int) -> None:
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        _check_sizes(image_size, self.base_channels, self.max_channels)
        if image_size < (1 << self.depth):
            raise ConfigError(
                f"image_size {image_size} cannot be halved {self.depth} times "
                f"(needs >= {1 << self.depth})"
            )

    def encoder_channels(self) -> List[int]:
        return [min(self.base_channels << i, self.max_channels) for i in range(self.depth)]


@dataclass(frozen=True)
class DiscriminatorConfig:
    num_layers: int = 2
    base_channels: int = 64
    max_channels: int = 512

    def __post_init__(self) -> None:
        check_fields(self)

    def validate(self, image_size: int) -> None:
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        _check_sizes(image_size, self.base_channels, self.max_channels)
        if image_size < (1 << self.num_layers):
            raise ConfigError(
                f"patch map collapses for {image_size}-px input with {self.num_layers} "
                f"stride-2 layers (needs >= {1 << self.num_layers})"
            )

    def conv_channels(self) -> List[int]:
        return [min(self.base_channels << i, self.max_channels) for i in range(self.num_layers)]


class Model:
    """Parameters, norm-stat buffers, and a forward pass, addressable by id."""

    def __init__(self, config, image_size: int):
        config.validate(image_size)
        self.config = config
        self.image_size = image_size
        self.params: Dict[str, Parameter] = {}
        self._stats: Dict[str, RunningStats] = {}

    # -- parameter bookkeeping ------------------------------------------------

    def _add_param(self, pid: str, data: np.ndarray) -> None:
        if pid in self.params:
            raise ValueError(f"duplicate parameter id {pid!r}")
        self.params[pid] = Parameter(pid, Tensor4(data.astype(DTYPE)))

    def _add_bn(self, stage: str, channels: int) -> None:
        self._add_param(f"{stage}/bn/gamma", np.ones((1, channels, 1, 1), DTYPE))
        self._add_param(f"{stage}/bn/beta", np.zeros((1, channels, 1, 1), DTYPE))
        self._stats[stage] = RunningStats.create(channels)

    def buffers(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for stage, stats in self._stats.items():
            out[f"{stage}/bn/mean"] = stats.mean
            out[f"{stage}/bn/var"] = stats.var
        return out

    # -- forward pieces shared by both networks -------------------------------

    def _bn_leaky(
        self, x: Tensor4, stage: str, training: bool, update_stats: Optional[bool]
    ) -> Tensor4:
        return batch_norm_leaky(
            x,
            self.params[f"{stage}/bn/gamma"].tensor,
            self.params[f"{stage}/bn/beta"].tensor,
            self._stats[stage],
            training=training,
            update_stats=update_stats,
        )

    def _check_input(self, x: Tensor4, channels: int, what: str) -> None:
        n, c, h, w = x.shape
        if c != channels:
            raise ShapeError(f"{what} expects {channels} channels, got input {x.shape}")
        size = self.image_size
        if (h, w) != (size, size):
            raise ShapeError(f"{what} is built for {size}x{size} inputs, got {h}x{w}")


class Generator(Model):
    """Skip-connected halve/double generator mapping images to images."""

    def __init__(self, config: GeneratorConfig, image_size: int, seed: int = 0):
        super().__init__(config, image_size)
        rng = np.random.default_rng(seed)
        k = GEN_KERNEL
        chans = config.encoder_channels()
        prev = IMAGE_CHANNELS
        for i, ch in enumerate(chans, start=1):
            self._add_param(
                f"e{i}/conv/weight", rng.normal(0.0, WEIGHT_SIGMA, (ch, prev, k, k))
            )
            self._add_bn(f"e{i}", ch)
            prev = ch
        depth = config.depth
        for j in range(1, depth + 1):
            # decoder stage j consumes the previous decoder output concatenated
            # with the mirrored encoder activation (none for the first stage)
            dec_in = chans[depth - 1] if j == 1 else chans[depth - j] * 2
            final = j == depth
            dec_out = IMAGE_CHANNELS if final else chans[depth - 1 - j]
            self._add_param(
                f"d{j}/tconv/weight", rng.normal(0.0, WEIGHT_SIGMA, (dec_in, dec_out, k, k))
            )
            if not final:
                self._add_bn(f"d{j}", dec_out)

    def forward(
        self,
        x: Tensor4,
        training: bool = False,
        update_stats: Optional[bool] = None,
    ) -> Tensor4:
        self._check_input(x, IMAGE_CHANNELS, "generator")
        depth = self.config.depth

        skips: List[Tensor4] = []
        hcur = x
        for i in range(1, depth + 1):
            hcur = conv2d(
                hcur, self.params[f"e{i}/conv/weight"].tensor, None, stride=2, padding=PADDING
            )
            hcur = self._bn_leaky(hcur, f"e{i}", training, update_stats)
            skips.append(hcur)

        for j in range(1, depth + 1):
            hcur = conv_transpose2d(
                hcur, self.params[f"d{j}/tconv/weight"].tensor, stride=2, padding=PADDING
            )
            if j == depth:
                return tanh(hcur)
            hcur = self._bn_leaky(hcur, f"d{j}", training, update_stats)
            mirror = depth - j  # encoder stage index (1-based) to merge in
            hcur = concat_channels(hcur, skips[mirror - 1])
        raise AssertionError("unreachable")  # pragma: no cover


class Discriminator(Model):
    """Stride-2 conv stack scoring one value per image patch."""

    def __init__(self, config: DiscriminatorConfig, image_size: int, seed: int = 0):
        super().__init__(config, image_size)
        rng = np.random.default_rng(seed)
        k = DISC_KERNEL
        prev = PAIR_CHANNELS
        for i, ch in enumerate(config.conv_channels(), start=1):
            self._add_param(
                f"c{i}/conv/weight", rng.normal(0.0, WEIGHT_SIGMA, (ch, prev, k, k))
            )
            self._add_bn(f"c{i}", ch)
            prev = ch
        self._add_param("proj/conv/weight", rng.normal(0.0, WEIGHT_SIGMA, (1, prev, 1, 1)))
        self._add_param("proj/conv/bias", np.zeros((1, 1, 1, 1), DTYPE))

    def forward(
        self,
        pair: Tensor4,
        training: bool = False,
        update_stats: Optional[bool] = None,
    ) -> Tensor4:
        self._check_input(pair, PAIR_CHANNELS, "discriminator")
        hcur = pair
        for i in range(1, self.config.num_layers + 1):
            hcur = conv2d(
                hcur, self.params[f"c{i}/conv/weight"].tensor, None, stride=2, padding=PADDING
            )
            hcur = self._bn_leaky(hcur, f"c{i}", training, update_stats)
        return conv2d(
            hcur,
            self.params["proj/conv/weight"].tensor,
            self.params["proj/conv/bias"].tensor,
            stride=1,
            padding=0,
        )
