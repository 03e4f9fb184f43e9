"""Network builders: skip-connected encoder/decoder generator, patch discriminator.

The generator halves spatial resolution at every encoder stage
(conv k=4 s=2 -> batch norm -> leaky relu), doubles it back with transposed
convolutions, concatenates mirrored encoder activations onto the decoder
stream, and maps to [-1, 1] through a final tanh. The discriminator stacks
stride-2 conv/bn/leaky-relu blocks and projects to a one-channel patch map
with a 1x1 convolution, so each output score judges one receptive field.

Convolutions followed by a norm stage carry no bias (the norm's beta subsumes
it); only the discriminator's final projection keeps one.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .diffcore import (
    DTYPE,
    Parameter,
    RunningStats,
    ShapeError,
    Tensor4,
    batch_norm,
    concat_channels,
    conv2d,
    conv_transpose2d,
    leaky_relu,
    tanh,
)

__all__ = [
    "ConfigError",
    "GeneratorConfig",
    "DiscriminatorConfig",
    "Generator",
    "Discriminator",
    "parameter_count",
]

WEIGHT_SIGMA = 0.02


class ConfigError(ValueError):
    """A network config violates a structural constraint (message says which)."""


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _halving_padding(kernel: int) -> int:
    # stride-2 padding that makes even dims halve exactly:
    # even k needs 2p = k - 2; odd k needs p = (k - 1) / 2
    return (kernel - 2) // 2 if kernel % 2 == 0 else (kernel - 1) // 2


@dataclass(frozen=True)
class GeneratorConfig:
    image_size: int = 256
    in_channels: int = 3
    depth: int = 5
    base_channels: int = 16
    max_channels: int = 256
    kernel: int = 4
    leaky_slope: float = 0.2
    bn_epsilon: float = 1e-5
    bn_momentum: float = 0.1

    def validate(self) -> None:
        if not _is_pow2(self.image_size):
            raise ConfigError(f"image_size must be a power of two, got {self.image_size}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.image_size < (1 << self.depth):
            raise ConfigError(
                f"image_size {self.image_size} cannot be halved {self.depth} times "
                f"(needs >= {1 << self.depth})"
            )
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.base_channels < 1 or self.max_channels < self.base_channels:
            raise ConfigError(
                f"need 1 <= base_channels <= max_channels, got "
                f"{self.base_channels}/{self.max_channels}"
            )
        if self.kernel % 2 != 0 or self.kernel < 2:
            raise ConfigError(
                f"generator kernel must be even and >= 2 for exact halving, got {self.kernel}"
            )
        if not (0.0 < self.leaky_slope < 1.0):
            raise ConfigError(f"leaky_slope must lie in (0, 1), got {self.leaky_slope}")

    def encoder_channels(self) -> List[int]:
        return [min(self.base_channels << i, self.max_channels) for i in range(self.depth)]


@dataclass(frozen=True)
class DiscriminatorConfig:
    in_channels: int = 6  # a channel-concatenated (reference, candidate) pair
    num_layers: int = 2
    base_channels: int = 64
    max_channels: int = 512
    kernel: int = 3
    stride: int = 2
    leaky_slope: float = 0.2
    bn_epsilon: float = 1e-5
    bn_momentum: float = 0.1
    image_size: Optional[int] = None  # set to validate patch-map collapse at build time

    def validate(self) -> None:
        if self.in_channels < 1:
            raise ConfigError(f"in_channels must be >= 1, got {self.in_channels}")
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.base_channels < 1 or self.max_channels < self.base_channels:
            raise ConfigError(
                f"need 1 <= base_channels <= max_channels, got "
                f"{self.base_channels}/{self.max_channels}"
            )
        if self.kernel < 2:
            raise ConfigError(f"kernel must be >= 2, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ConfigError(f"stride must be 1 or 2, got {self.stride}")
        if not (0.0 < self.leaky_slope < 1.0):
            raise ConfigError(f"leaky_slope must lie in (0, 1), got {self.leaky_slope}")
        if self.image_size is not None:
            if not _is_pow2(self.image_size):
                raise ConfigError(f"image_size must be a power of two, got {self.image_size}")
            ph, pw = self.patch_map_hw((self.image_size, self.image_size))
            if ph < 1 or pw < 1:
                raise ConfigError(
                    f"patch map collapses to {ph}x{pw} for {self.image_size}-px input "
                    f"with {self.num_layers} stride-{self.stride} layers"
                )

    def conv_channels(self) -> List[int]:
        return [min(self.base_channels << i, self.max_channels) for i in range(self.num_layers)]

    def patch_map_hw(self, image_hw: Tuple[int, int]) -> Tuple[int, int]:
        h, w = image_hw
        if self.stride == 1:
            return h, w
        return h >> self.num_layers, w >> self.num_layers


class Model:
    """Parameters, norm-stat buffers, and a forward pass, addressable by id."""

    def __init__(self, config):
        self.config = config
        self.params: Dict[str, Parameter] = {}
        self._stats: Dict[str, RunningStats] = {}

    # -- parameter bookkeeping ------------------------------------------------

    def _add_param(self, pid: str, data: np.ndarray) -> None:
        if pid in self.params:
            raise ValueError(f"duplicate parameter id {pid!r}")
        self.params[pid] = Parameter(pid, Tensor4(data.astype(DTYPE)))

    def _add_bn(self, stage: str, channels: int, momentum: float) -> None:
        self._add_param(f"{stage}/bn/gamma", np.ones((1, channels, 1, 1), DTYPE))
        self._add_param(f"{stage}/bn/beta", np.zeros((1, channels, 1, 1), DTYPE))
        self._stats[stage] = RunningStats.create(channels, momentum)

    def buffers(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for stage, stats in self._stats.items():
            out[f"{stage}/bn/mean"] = stats.mean
            out[f"{stage}/bn/var"] = stats.var
        return out

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.tensor.zero_grad()

    def load_arrays(self, params: Dict[str, np.ndarray], buffers: Dict[str, np.ndarray]) -> None:
        """Overwrite parameter/buffer values in place (shapes must match)."""
        missing = set(self.params) - set(params)
        extra = set(params) - set(self.params)
        if missing or extra:
            raise KeyError(
                f"parameter set mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}"
            )
        own_buffers = self.buffers()
        bmissing = set(own_buffers) - set(buffers)
        bextra = set(buffers) - set(own_buffers)
        if bmissing or bextra:
            raise KeyError(
                f"buffer set mismatch: missing {sorted(bmissing)}, unexpected {sorted(bextra)}"
            )
        for pid, arr in params.items():
            tensor = self.params[pid].tensor
            if arr.shape != tensor.shape:
                raise ShapeError(f"parameter {pid!r}: stored {arr.shape} vs model {tensor.shape}")
            tensor.data = arr.astype(DTYPE, copy=True)
            tensor.zero_grad()
        for bid, arr in buffers.items():
            target = own_buffers[bid]
            if arr.shape != target.shape:
                raise ShapeError(f"buffer {bid!r}: stored {arr.shape} vs model {target.shape}")
            target[:] = arr  # in place: RunningStats objects alias these


def parameter_count(model: Model) -> int:
    return int(sum(p.tensor.data.size for p in model.params.values()))


class Generator(Model):
    """Skip-connected halve/double generator mapping images to images."""

    def __init__(self, config: GeneratorConfig, seed: int = 0):
        config.validate()
        super().__init__(config)
        rng = np.random.default_rng(seed)
        k = config.kernel
        chans = config.encoder_channels()
        prev = config.in_channels
        for i, ch in enumerate(chans, start=1):
            self._add_param(
                f"e{i}/conv/weight", rng.normal(0.0, WEIGHT_SIGMA, (ch, prev, k, k))
            )
            self._add_bn(f"e{i}", ch, config.bn_momentum)
            prev = ch
        depth = config.depth
        for j in range(1, depth + 1):
            # decoder stage j consumes the previous decoder output concatenated
            # with the mirrored encoder activation (none for the first stage)
            dec_in = chans[depth - 1] if j == 1 else chans[depth - j] * 2
            final = j == depth
            dec_out = config.in_channels if final else chans[depth - 1 - j]
            self._add_param(
                f"d{j}/tconv/weight", rng.normal(0.0, WEIGHT_SIGMA, (dec_in, dec_out, k, k))
            )
            if not final:
                self._add_bn(f"d{j}", dec_out, config.bn_momentum)

    def forward(
        self,
        x: Tensor4,
        training: bool = False,
        update_stats: Optional[bool] = None,
    ) -> Tensor4:
        cfg: GeneratorConfig = self.config
        n, c, h, w = x.shape
        if c != cfg.in_channels:
            raise ShapeError(f"generator expects {cfg.in_channels} channels, got input {x.shape}")
        if (h, w) != (cfg.image_size, cfg.image_size):
            raise ShapeError(
                f"generator is built for {cfg.image_size}x{cfg.image_size} inputs, got {h}x{w}"
            )
        pad = _halving_padding(cfg.kernel)
        up = update_stats if update_stats is not None else training

        skips: List[Tensor4] = []
        hcur = x
        for i in range(1, cfg.depth + 1):
            hcur = conv2d(hcur, self.params[f"e{i}/conv/weight"].tensor, None, stride=2, padding=pad)
            hcur = batch_norm(
                hcur,
                self.params[f"e{i}/bn/gamma"].tensor,
                self.params[f"e{i}/bn/beta"].tensor,
                self._stats[f"e{i}"],
                training=training,
                epsilon=cfg.bn_epsilon,
                update_stats=up,
            )
            hcur = leaky_relu(hcur, cfg.leaky_slope)
            skips.append(hcur)

        for j in range(1, cfg.depth + 1):
            hcur = conv_transpose2d(
                hcur, self.params[f"d{j}/tconv/weight"].tensor, stride=2, padding=pad
            )
            if j == cfg.depth:
                return tanh(hcur)
            hcur = batch_norm(
                hcur,
                self.params[f"d{j}/bn/gamma"].tensor,
                self.params[f"d{j}/bn/beta"].tensor,
                self._stats[f"d{j}"],
                training=training,
                epsilon=cfg.bn_epsilon,
                update_stats=up,
            )
            hcur = leaky_relu(hcur, cfg.leaky_slope)
            mirror = cfg.depth - j  # encoder stage index (1-based) to merge in
            hcur = concat_channels(hcur, skips[mirror - 1])
        raise AssertionError("unreachable")  # pragma: no cover


class Discriminator(Model):
    """Stride-2 conv stack scoring one value per image patch."""

    def __init__(self, config: DiscriminatorConfig, seed: int = 0):
        config.validate()
        super().__init__(config)
        rng = np.random.default_rng(seed)
        k = config.kernel
        prev = config.in_channels
        for i, ch in enumerate(config.conv_channels(), start=1):
            self._add_param(
                f"c{i}/conv/weight", rng.normal(0.0, WEIGHT_SIGMA, (ch, prev, k, k))
            )
            self._add_bn(f"c{i}", ch, config.bn_momentum)
            prev = ch
        self._add_param("proj/conv/weight", rng.normal(0.0, WEIGHT_SIGMA, (1, prev, 1, 1)))
        self._add_param("proj/conv/bias", np.zeros((1, 1, 1, 1), DTYPE))

    def forward(
        self,
        pair: Tensor4,
        training: bool = False,
        update_stats: Optional[bool] = None,
    ) -> Tensor4:
        cfg: DiscriminatorConfig = self.config
        n, c, h, w = pair.shape
        if c != cfg.in_channels:
            raise ShapeError(
                f"discriminator expects {cfg.in_channels} channels, got input {pair.shape}"
            )
        if cfg.image_size is not None and (h, w) != (cfg.image_size, cfg.image_size):
            raise ShapeError(
                f"discriminator is built for {cfg.image_size}x{cfg.image_size} inputs, "
                f"got {h}x{w}"
            )
        pad = _halving_padding(cfg.kernel)
        up = update_stats if update_stats is not None else training
        if cfg.stride == 2:
            # the patch-map geometry promises dims / 2^num_layers exactly
            div = 1 << cfg.num_layers
            if h % div or w % div or h < div or w < div:
                raise ShapeError(
                    f"patch map collapses: {h}x{w} input cannot halve exactly through "
                    f"{cfg.num_layers} stride-2 layers (needs dims divisible by {div})"
                )
        hcur = pair
        for i in range(1, cfg.num_layers + 1):
            hcur = conv2d(
                hcur, self.params[f"c{i}/conv/weight"].tensor, None, stride=cfg.stride, padding=pad
            )
            hcur = batch_norm(
                hcur,
                self.params[f"c{i}/bn/gamma"].tensor,
                self.params[f"c{i}/bn/beta"].tensor,
                self._stats[f"c{i}"],
                training=training,
                epsilon=cfg.bn_epsilon,
                update_stats=up,
            )
            hcur = leaky_relu(hcur, cfg.leaky_slope)
        return conv2d(
            hcur,
            self.params["proj/conv/weight"].tensor,
            self.params["proj/conv/bias"].tensor,
            stride=1,
            padding=0,
        )
