"""Alternating adversarial training with separated-region losses.

Each step runs two phases: the generators minimize the attention-weighted
objective, then the discriminators minimize their own separated losses on
freshly generated fakes. Each phase freezes the models it does not update
(``requires_grad`` cleared on their parameters), so the discriminator phase
builds no graph through the generators. Checkpoints round-trip bit-exactly
and end in a CRC32 of their other bytes; the training log is bitwise
reproducible from (seed, config, dataset) — except the wall-clock ``ms``
column.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

from . import netarch
from .datapipe import (
    DatasetManifest,
    ImageRecord,
    PairedSample,
    from_model_space,
    load_pair,
    to_model_space,
)
from .diffcore import AdamState, Tensor4, adam_step, backward
from .losses import LossReport, LossWeights, full_generator_loss, separated_discriminator_losses
from .metrics import KNOWN_METRICS, MetricsReport, batch_report
from .netarch import Discriminator, DiscriminatorConfig, Generator, GeneratorConfig, Model
from .util import typed_fields

__all__ = [
    "LOG_HEADER",
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "CheckpointBundle",
    "TrainConfig",
    "TrainLogRow",
    "EvalResult",
    "desk_config",
    "build_models",
    "build_optimizers",
    "generator_phase",
    "discriminator_phase",
    "train_step",
    "train",
    "enhance_record",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
    "bundle_from_live",
    "restore_into",
    "load_generator",
    "config_hash",
]

LOG_FIELDS = LossReport.FIELDS
LOG_HEADER = "epoch,step," + ",".join(LOG_FIELDS) + ",ms"

CHECKPOINT_MAGIC = b"SATT"
CHECKPOINT_VERSION = 2  # version 1 had no CRC32 trailer; it still loads
_DTYPE_TAGS = {1: np.dtype("<f4"), 2: np.dtype("<f8")}

# fixed per-model seed offsets: every model gets its own init stream
_MODEL_SEED_OFFSETS = {"gen_xy": 0, "gen_yx": 1, "disc_x": 2, "disc_y": 3}
_GENERATORS = ("gen_xy", "gen_yx")
_DISCRIMINATORS = ("disc_x", "disc_y")

# keys of older configs, per section, and the values they may still hold; a
# nested image_size may also hold the config's own top-level image_size
_FIXED_LAYERS = {"leaky_slope": (netarch.LEAKY_SLOPE,), "bn_epsilon": (netarch.BN_EPSILON,),
                 "bn_momentum": (netarch.BN_MOMENTUM,)}
_RETIRED_KEYS = {
    "config": {"gan_kind": ("least_squares",), "shared_region_discriminators": (True,)},
    "generator": {"in_channels": (netarch.IMAGE_CHANNELS,), "kernel": (netarch.GEN_KERNEL,),
                  "image_size": (), **_FIXED_LAYERS},
    "discriminator": {"in_channels": (netarch.PAIR_CHANNELS,), "kernel": (netarch.DISC_KERNEL,),
                      "stride": (2,), "image_size": (None,), **_FIXED_LAYERS},
}


class CheckpointError(ValueError):
    """Unreadable, corrupt, or architecture-incompatible checkpoint."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainConfig:
    """Full training recipe; defaults are the full-scale profile."""

    cycle_weight: float = 10.0
    fg_attention: float = 7.0
    bg_attention: float = 3.0
    batch_size: int = 5
    lr: float = 2e-4
    epochs: int = 100
    image_size: int = 256
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    discriminator: DiscriminatorConfig = field(default_factory=DiscriminatorConfig)
    seed: int = 0
    checkpoint_every: int = 10

    @property
    def weights(self) -> LossWeights:
        return LossWeights(self.cycle_weight, self.fg_attention, self.bg_attention)

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        self.weights.validate()
        self.generator.validate(self.image_size)
        self.discriminator.validate(self.image_size)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "TrainConfig":
        """Typed config from a document; retired keys at their kept values are dropped."""
        doc = _drop_retired(doc, "config")
        image_size = doc.get("image_size", TrainConfig.image_size)
        for section in ("generator", "discriminator"):
            if isinstance(doc.get(section), dict):
                doc[section] = _drop_retired(doc[section], section, image_size)
        return TrainConfig(**typed_fields(TrainConfig, doc, "config"))


def _drop_retired(doc: dict, section: str, image_size=None) -> dict:
    """``doc`` without ``section``'s retired keys; each must hold a kept value.

    Any other value is a ValueError naming ``section.key``.
    """
    doc = dict(doc)
    for key, kept in _RETIRED_KEYS[section].items():
        if key in doc:
            value = doc.pop(key)
            if key == "image_size":
                kept = (image_size,) + kept
            if not any(type(value) is type(k) and value == k for k in kept):
                name = key if section == "config" else f"{section}.{key}"
                allowed = " or ".join(repr(k) for k in kept)
                raise ValueError(f"{name} = {value!r} is no longer supported; only {allowed} is")
    return doc


def desk_config(**overrides) -> TrainConfig:
    """Small profile sized to train end to end on one CPU in minutes."""
    cfg = TrainConfig(
        epochs=30,
        image_size=64,
        seed=7,
        checkpoint_every=10,
        generator=GeneratorConfig(depth=3, base_channels=16),
        discriminator=DiscriminatorConfig(num_layers=3, base_channels=16),
    )
    return replace(cfg, **overrides) if overrides else cfg


def config_hash(config: TrainConfig) -> str:
    """Identity of the training trajectory: everything but stopping/IO cadence.

    ``epochs`` and ``checkpoint_every`` are excluded so a run can be resumed
    with a higher epoch target; all architecture and semantics fields count.
    """
    doc = config.to_dict()
    doc.pop("epochs")
    doc.pop("checkpoint_every")
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


# ---------------------------------------------------------------------------
# model/optimizer construction


def build_models(config: TrainConfig) -> Dict[str, Model]:
    config.validate()
    models: Dict[str, Model] = {}
    for name, offset in _MODEL_SEED_OFFSETS.items():
        seed = int(np.random.SeedSequence([config.seed, offset]).generate_state(1)[0])
        if name in _GENERATORS:
            models[name] = Generator(config.generator, config.image_size, seed=seed)
        else:
            models[name] = Discriminator(config.discriminator, config.image_size, seed=seed)
    return models


def build_optimizers(models: Dict[str, Model], lr: float) -> Dict[str, AdamState]:
    return {name: AdamState(lr=lr) for name in models}


@contextmanager
def _frozen(models: Dict[str, Model], names: Iterable[str]):
    """Clear ``requires_grad`` on the named models' parameters; restore it on exit.

    Graphs built inside the block carry no gradient to those parameters, and
    the flags come back even if the block raises.
    """
    tensors = [p.tensor for n in names for p in models[n].params.values()]
    was_tracked = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, tracked in zip(tensors, was_tracked):
            t.requires_grad = tracked


# ---------------------------------------------------------------------------
# stepping


def _stack_batch(samples: Sequence[PairedSample]) -> Tuple[Tensor4, Tensor4, np.ndarray]:
    if not samples:
        raise ValueError("empty batch")
    x = Tensor4(np.concatenate([to_model_space(s.distorted).data for s in samples]))
    y = Tensor4(np.concatenate([to_model_space(s.clean).data for s in samples]))
    depth = np.stack([np.asarray(s.depth, dtype=np.float32) for s in samples])
    return x, y, depth


def _check_finite(values: Dict[str, float], epoch: int, step: int) -> None:
    for k, v in values.items():
        if not np.isfinite(v):
            raise FloatingPointError(
                f"non-finite loss term {k} = {v!r} at epoch {epoch} step {step}; aborting"
            )


def generator_phase(
    x: Tensor4,
    y: Tensor4,
    depth: np.ndarray,
    models: Dict[str, Model],
    optims: Dict[str, AdamState],
    config: TrainConfig,
    epoch: int = 0,
    step: int = 0,
) -> LossReport:
    """Minimize the attention objective over both generators; one Adam step each.

    The discriminators score the fakes inside the graph but are frozen for
    the phase: the backward pass flows through them to the generators and
    leaves every discriminator ``.grad`` untouched.
    """
    with _frozen(models, _DISCRIMINATORS):
        total, report = full_generator_loss(x, y, depth, models, config.weights)
        _check_finite(report.to_dict(), epoch, step)
        backward(total)
    for name in _GENERATORS:
        adam_step(models[name].params.values(), optims[name])
    return report


def discriminator_phase(
    x: Tensor4,
    y: Tensor4,
    depth: np.ndarray,
    models: Dict[str, Model],
    optims: Dict[str, AdamState],
    config: TrainConfig,
    epoch: int = 0,
    step: int = 0,
) -> Dict[str, float]:
    """Minimize the separated real/fake losses on fresh fakes.

    The generators are frozen while they make the fakes, so the fakes carry
    no graph and every generator ``.grad`` stays untouched.
    """
    with _frozen(models, _GENERATORS):
        fake_y = models["gen_xy"].forward(x, training=True, update_stats=False)
        fake_x = models["gen_yx"].forward(y, training=True, update_stats=False)
    total, values = separated_discriminator_losses(
        x, y, fake_x, fake_y, depth, models, config.weights
    )
    _check_finite(values, epoch, step)
    backward(total)
    for name in _DISCRIMINATORS:
        adam_step(models[name].params.values(), optims[name])
    return values


@dataclass(frozen=True)
class TrainLogRow:
    epoch: int
    step: int
    values: Dict[str, float]  # every LOG_FIELDS key
    ms: float

    def csv_line(self) -> str:
        # repr keeps full float precision so runs compare bitwise
        cells = [str(self.epoch), str(self.step)]
        cells += [repr(self.values[k]) for k in LOG_FIELDS]
        cells.append(repr(self.ms))
        return ",".join(cells)


def train_step(
    samples: Sequence[PairedSample],
    models: Dict[str, Model],
    optims: Dict[str, AdamState],
    config: TrainConfig,
    epoch: int = 1,
    step: int = 1,
) -> TrainLogRow:
    """One generator update followed by one discriminator update."""
    t0 = perf_counter()
    x, y, depth = _stack_batch(samples)
    report = generator_phase(x, y, depth, models, optims, config, epoch, step)
    disc_values = discriminator_phase(x, y, depth, models, optims, config, epoch, step)
    values = report.to_dict()
    values.update(disc_values)
    return TrainLogRow(epoch=epoch, step=step, values=values, ms=(perf_counter() - t0) * 1e3)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class CheckpointBundle:
    version: int
    config: dict  # TrainConfig.to_dict() snapshot
    tensors: Dict[str, np.ndarray]
    state: dict  # optim_steps, next_epoch, global_step, seed

    @property
    def hash(self) -> str:
        return config_hash(TrainConfig.from_dict(self.config))


def bundle_from_live(
    models: Dict[str, Model],
    optims: Dict[str, AdamState],
    config: TrainConfig,
    next_epoch: int,
    global_step: int,
) -> CheckpointBundle:
    tensors: Dict[str, np.ndarray] = {}
    for mname, model in models.items():
        for pid, p in model.params.items():
            tensors[f"model/{mname}/{pid}"] = p.tensor.data.copy()
        for bid, arr in model.buffers().items():
            tensors[f"model/{mname}/buffers/{bid}"] = arr.copy()
        st = optims[mname]
        for pid, arr in st.m.items():
            tensors[f"optim/{mname}/m/{pid}"] = arr.copy()
        for pid, arr in st.v.items():
            tensors[f"optim/{mname}/v/{pid}"] = arr.copy()
    state = {
        "optim_steps": {name: optims[name].step for name in optims},
        "next_epoch": next_epoch,
        "global_step": global_step,
        "seed": config.seed,
    }
    return CheckpointBundle(
        version=CHECKPOINT_VERSION, config=config.to_dict(), tensors=tensors, state=state
    )


def _write_block(out: List[bytes], payload: bytes) -> None:
    out.append(struct.pack("<I", len(payload)))
    out.append(payload)


def save_checkpoint(bundle: CheckpointBundle, path) -> None:
    """Write the bundle; a CRC32 of every byte before it ends the file.

    The layout is always the current one, so a bundle read from an older
    version is written as ``CHECKPOINT_VERSION``.
    """
    version = max(bundle.version, CHECKPOINT_VERSION)
    out: List[bytes] = [CHECKPOINT_MAGIC, struct.pack("<I", version)]
    _write_block(out, json.dumps(bundle.config, sort_keys=True, separators=(",", ":")).encode())
    out.append(struct.pack("<I", len(bundle.tensors)))
    for name in sorted(bundle.tensors):
        arr = bundle.tensors[name]
        if arr.dtype == np.float32:
            tag, cast = 1, "<f4"
        elif arr.dtype == np.float64:
            tag, cast = 2, "<f8"
        else:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        _write_block(out, name.encode())
        out.append(struct.pack("<BI", tag, arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(np.ascontiguousarray(arr, dtype=cast).tobytes())
    _write_block(out, json.dumps(bundle.state, sort_keys=True, separators=(",", ":")).encode())
    crc = 0
    for chunk in out:
        crc = zlib.crc32(chunk, crc)
    out.append(struct.pack("<I", crc))
    Path(path).write_bytes(b"".join(out))


class _Reader:
    def __init__(self, buf: bytes, path):
        self.buf = buf
        self.pos = 0
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.buf):
            raise CheckpointError(
                f"{self.path}: truncated at byte {self.pos} reading {what} "
                f"(need {n} bytes, have {len(self.buf) - self.pos})"
            )
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def block(self, what: str) -> bytes:
        return self.take(self.u32(what + " length"), what)


def load_checkpoint(path) -> CheckpointBundle:
    path = Path(path)
    r = _Reader(path.read_bytes(), path)
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r} (want {CHECKPOINT_MAGIC!r})")
    version = r.u32("version")
    if version not in (1, CHECKPOINT_VERSION):
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} (reader supports 1 to "
            f"{CHECKPOINT_VERSION})"
        )
    try:
        config = json.loads(r.block("config JSON"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupt config JSON: {exc}") from exc
    count = r.u32("tensor count")
    tensors: Dict[str, np.ndarray] = {}
    for _ in range(count):
        name = r.block("tensor name").decode(errors="replace")
        tag, rank = struct.unpack("<BI", r.take(5, f"tensor {name!r} header"))
        if tag not in _DTYPE_TAGS:
            raise CheckpointError(f"{path}: tensor {name!r} has unknown dtype tag {tag}")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, f"tensor {name!r} dims"))
        dtype = _DTYPE_TAGS[tag]
        nbytes = math.prod(dims) * dtype.itemsize
        raw = r.take(nbytes, f"tensor {name!r} data")
        try:
            tensors[name] = np.frombuffer(raw, dtype=dtype).reshape(dims).copy()
        except ValueError as exc:  # e.g. a corrupt rank beyond numpy's limit
            raise CheckpointError(f"{path}: tensor {name!r} has bad dims: {exc}") from exc
    try:
        state = json.loads(r.block("state JSON"))
    except ValueError as exc:
        raise CheckpointError(f"{path}: corrupt state JSON: {exc}") from exc
    if version >= 2:
        computed = zlib.crc32(memoryview(r.buf)[: r.pos])
        stored = r.u32("CRC32 trailer")
        if stored != computed:
            raise CheckpointError(
                f"{path}: checksum mismatch (stored CRC32 {stored:08x}, computed "
                f"{computed:08x}); the file is corrupt"
            )
    if r.pos != len(r.buf):
        raise CheckpointError(
            f"{path}: {len(r.buf) - r.pos} unexpected trailing bytes after the state block"
        )
    return CheckpointBundle(version=version, config=config, tensors=tensors, state=state)


def _load_model(bundle: CheckpointBundle, mname: str, model: Model) -> None:
    """Load the ``model/<mname>/`` params and buffers (strict names + shapes)."""
    prefix = f"model/{mname}/"
    bufprefix = prefix + "buffers/"
    params = {
        k[len(prefix) :]: v
        for k, v in bundle.tensors.items()
        if k.startswith(prefix) and not k.startswith(bufprefix)
    }
    buffers = {k[len(bufprefix) :]: v for k, v in bundle.tensors.items() if k.startswith(bufprefix)}
    try:
        model.load_arrays(params, buffers)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"checkpoint does not fit model {mname!r}: {exc}") from exc


def restore_into(
    bundle: CheckpointBundle, models: Dict[str, Model], optims: Dict[str, AdamState]
) -> None:
    """Load bundle tensors into live models/optimizers (strict names + shapes)."""
    for mname, model in models.items():
        _load_model(bundle, mname, model)
        st = optims[mname]
        st.m = {
            k[len(f"optim/{mname}/m/") :]: v.copy()
            for k, v in bundle.tensors.items()
            if k.startswith(f"optim/{mname}/m/")
        }
        st.v = {
            k[len(f"optim/{mname}/v/") :]: v.copy()
            for k, v in bundle.tensors.items()
            if k.startswith(f"optim/{mname}/v/")
        }
        st.step = int(bundle.state["optim_steps"].get(mname, 0))


def load_generator(checkpoint: Union[str, Path, CheckpointBundle]) -> Generator:
    """The X->Y generator (``gen_xy``) of a checkpoint path or loaded bundle.

    Builds that one model only: no discriminators and no optimizer state.
    """
    bundle = checkpoint if isinstance(checkpoint, CheckpointBundle) else load_checkpoint(checkpoint)
    config = TrainConfig.from_dict(bundle.config)
    config.validate()
    gen = Generator(config.generator, config.image_size)
    _load_model(bundle, "gen_xy", gen)
    return gen


# ---------------------------------------------------------------------------
# the loop


def _load_train_pairs(manifest: DatasetManifest, config: TrainConfig) -> List[PairedSample]:
    ids = manifest.ids("train")
    if not ids:
        raise ValueError("manifest has no training ids")
    pairs = [load_pair(manifest, i) for i in ids]
    for p in pairs:
        if p.clean.pixels.shape[1:] != (config.image_size, config.image_size):
            raise ValueError(
                f"sample {p.clean.id!r} is {p.clean.pixels.shape[1:]}, config wants "
                f"{(config.image_size, config.image_size)}"
            )
    return pairs


def _truncate_log(log_path: Path, global_step: int) -> None:
    """Keep the header and the complete rows up to ``global_step``.

    Rows past the checkpoint being resumed from were logged by a run that went
    on after it; the resumed run logs those steps again.
    """
    lines = log_path.read_text().splitlines(keepends=True)
    keep = lines[:1]
    for line in lines[1:]:
        cells = line.split(",")
        complete = line.endswith("\n") and len(cells) > 2 and cells[1].isdigit()
        if not complete or int(cells[1]) > global_step:
            break
        keep.append(line)
    log_path.write_text("".join(keep))


def train(
    manifest: DatasetManifest,
    config: TrainConfig,
    out_dir,
    resume_from=None,
) -> Tuple[CheckpointBundle, Path]:
    """Run the full schedule; returns (final bundle, log path).

    Fresh runs write the CSV header and an initial checkpoint; resumed runs
    cut the existing log back to the checkpoint's step counter and append from
    there. Shuffling is derived from (seed, epoch), so resuming at an epoch
    boundary sees the identical batch order the uninterrupted run would have.
    """
    config.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train_log.csv"

    models = build_models(config)
    optims = build_optimizers(models, config.lr)
    start_epoch = 0
    global_step = 0

    if resume_from is not None:
        bundle = load_checkpoint(resume_from)
        if bundle.hash != config_hash(config):
            raise CheckpointError(
                f"config hash mismatch: checkpoint {bundle.hash[:12]}… vs "
                f"current {config_hash(config)[:12]}…; refusing to resume"
            )
        restore_into(bundle, models, optims)
        start_epoch = int(bundle.state["next_epoch"])
        global_step = int(bundle.state["global_step"])
        if log_path.is_file():
            _truncate_log(log_path, global_step)
        else:
            log_path.write_text(LOG_HEADER + "\n")
    else:
        log_path.write_text(LOG_HEADER + "\n")
        save_checkpoint(
            bundle_from_live(models, optims, config, 0, 0), out_dir / "ckpt_init.satt"
        )

    pairs = _load_train_pairs(manifest, config)
    n = len(pairs)
    steps_per_epoch = -(-n // config.batch_size)

    with log_path.open("a") as log:
        for epoch in range(start_epoch, config.epochs):
            order = np.random.default_rng(
                np.random.SeedSequence([config.seed, epoch])
            ).permutation(n)
            for s in range(steps_per_epoch):
                batch = [pairs[i] for i in order[s * config.batch_size : (s + 1) * config.batch_size]]
                global_step += 1
                row = train_step(batch, models, optims, config, epoch=epoch + 1, step=global_step)
                log.write(row.csv_line() + "\n")
                log.flush()
            if config.checkpoint_every and (epoch + 1) % config.checkpoint_every == 0:
                save_checkpoint(
                    bundle_from_live(models, optims, config, epoch + 1, global_step),
                    out_dir / f"ckpt_epoch_{epoch + 1:04d}.satt",
                )
    final_bundle = bundle_from_live(
        models, optims, config, max(start_epoch, config.epochs), global_step
    )
    if config.epochs > start_epoch:
        save_checkpoint(final_bundle, out_dir / "ckpt_final.satt")
    return final_bundle, log_path


# ---------------------------------------------------------------------------
# evaluation


def enhance_record(gen: Generator, rec: ImageRecord) -> ImageRecord:
    """Run one image through a generator in eval mode (running norm stats)."""
    out = gen.forward(to_model_space(rec), training=False)
    return from_model_space(out, id=rec.id, source=rec.source)


@dataclass(frozen=True)
class EvalResult:
    """Model scores plus the untouched-input baseline over the same split."""

    model: MetricsReport
    input_baseline: MetricsReport

    def to_text(self) -> str:
        lines = []
        for label, rep in (("input", self.input_baseline), ("model", self.model)):
            agg = rep.aggregate()
            cells = [f"{m} {mean:.4f} ± {std:.4f}" for m, (mean, std) in agg.items()]
            lines.append(f"{label}: " + ", ".join(cells))
        return "\n".join(lines)


def evaluate(
    checkpoint: Union[str, Path, CheckpointBundle],
    manifest: DatasetManifest,
    split: str = "test",
    metric_names: Sequence[str] = KNOWN_METRICS,
) -> EvalResult:
    """Score generator outputs against clean targets on a manifest split.

    ``checkpoint`` may be a path, a loaded bundle, or the string ``identity``
    (passes inputs through untouched — the Input baseline as a pseudo-model).
    """
    ids = manifest.ids(split)
    if not ids:
        raise ValueError(f"split {split!r} is empty")

    if isinstance(checkpoint, str) and checkpoint == "identity":
        enhance = lambda rec: rec
    else:
        gen = load_generator(checkpoint)
        enhance = lambda rec: enhance_record(gen, rec)

    model_items = []
    input_items = []
    for i in ids:
        pair = load_pair(manifest, i)
        model_items.append((i, pair.clean.pixels, enhance(pair.distorted).pixels))
        input_items.append((i, pair.clean.pixels, pair.distorted.pixels))
    return EvalResult(
        model=batch_report(model_items, metric_names),
        input_baseline=batch_report(input_items, metric_names),
    )
