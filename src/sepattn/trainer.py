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
import os
import struct
import sys
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import islice
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from . import netarch
from .datapipe import (
    DatasetManifest,
    ImageRecord,
    PairedSample,
    check_pair_dims,
    from_model_space,
    load_image,
    load_pair,
    to_model_space,
)
from .diffcore import AdamState, ShapeError, Tensor4, adam_step, backward
from .losses import LOG_FIELDS, LossWeights, full_generator_loss, separated_discriminator_losses
from .metrics import KNOWN_METRICS, MetricsReport, batch_report, checked_metric_names
from .netarch import Discriminator, DiscriminatorConfig, Generator, GeneratorConfig, Model
from .util import check_fields, from_doc

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
    "ENHANCE_CHUNK_PIXELS",
    "enhance_records",
    "enhance_record",
    "enhancer",
    "evaluate",
    "save_checkpoint",
    "load_checkpoint",
    "bundle_from_live",
    "restore_into",
    "load_generator",
    "config_hash",
]

LOG_HEADER = "epoch,step," + ",".join(LOG_FIELDS) + ",ms"

CHECKPOINT_MAGIC = b"SATT"
CHECKPOINT_VERSION = 2  # the one layout read and written: records, then a CRC32 trailer
_DTYPE_TAGS = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_TAG_OF_DTYPE = {dtype: tag for tag, dtype in _DTYPE_TAGS.items()}

# fixed per-model seed offsets: every model gets its own init stream
_MODEL_SEED_OFFSETS = {"gen_xy": 0, "gen_yx": 1, "disc_x": 2, "disc_y": 3}
_GENERATORS = ("gen_xy", "gen_yx")
_DISCRIMINATORS = ("disc_x", "disc_y")


class CheckpointError(ValueError):
    """Unreadable, corrupt, or architecture-incompatible checkpoint."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainConfig:
    """Full training recipe; defaults are the full-scale profile.

    Checked when built, by ``replace`` and ``from_dict`` too (``util.check_fields``,
    then ranges): a bad value is a ValueError; ``fg_attention=7`` is stored as 7.0.
    """

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

    def __post_init__(self) -> None:
        check_fields(self)
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name, low in (("batch_size", 1), ("epochs", 0), ("checkpoint_every", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        self.weights  # builds a LossWeights, which checks itself
        self.generator.validate(self.image_size)
        self.discriminator.validate(self.image_size)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(doc: dict) -> "TrainConfig":
        return from_doc(TrainConfig(), doc, "config")


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
    x = to_model_space(*(s.distorted for s in samples))
    y = to_model_space(*(s.clean for s in samples))
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
) -> Dict[str, float]:
    """Minimize the attention objective over both generators; one Adam step each.

    The discriminators score the fakes inside the graph but are frozen for
    the phase: the backward pass flows through them to the generators and
    leaves every discriminator ``.grad`` untouched.
    """
    with _frozen(models, _DISCRIMINATORS):
        total, values = full_generator_loss(x, y, depth, models, config.weights)
        _check_finite(values, epoch, step)
        backward(total)
    for name in _GENERATORS:
        adam_step(models[name].params.values(), optims[name])
    return values


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
    values = generator_phase(x, y, depth, models, optims, config, epoch, step)
    values.update(discriminator_phase(x, y, depth, models, optims, config, epoch, step))
    return TrainLogRow(epoch=epoch, step=step, values=values, ms=(perf_counter() - t0) * 1e3)


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class CheckpointBundle:
    config: dict  # TrainConfig.to_dict() snapshot
    tensors: Dict[str, np.ndarray]
    state: dict  # optim_steps, next_epoch, global_step, seed

    @property
    def hash(self) -> str:
        return config_hash(TrainConfig.from_dict(self.config))


def _live_arrays(models: Dict[str, Model], optims: Dict[str, AdamState]) -> Dict[str, np.ndarray]:
    """Each checkpoint tensor name mapped to its live array (not a copy)."""
    live: Dict[str, np.ndarray] = {}
    for mname, model in models.items():
        for pid, p in model.params.items():
            live[f"model/{mname}/{pid}"] = p.tensor.data
        for bid, arr in model.buffers().items():
            live[f"model/{mname}/buffers/{bid}"] = arr
    for mname, st in optims.items():
        for which, moments in (("m", st.m), ("v", st.v)):
            for pid, arr in moments.items():
                live[f"optim/{mname}/{which}/{pid}"] = arr
    return live


def bundle_from_live(
    models: Dict[str, Model],
    optims: Dict[str, AdamState],
    config: TrainConfig,
    next_epoch: int,
    global_step: int,
) -> CheckpointBundle:
    tensors = {name: arr.copy() for name, arr in _live_arrays(models, optims).items()}
    state = {
        "optim_steps": {name: optims[name].step for name in optims},
        "next_epoch": next_epoch,
        "global_step": global_step,
        "seed": config.seed,
    }
    return CheckpointBundle(config=config.to_dict(), tensors=tensors, state=state)


def _write_block(out: List[bytes], payload: bytes) -> None:
    out.append(struct.pack("<I", len(payload)))
    out.append(payload)


def save_checkpoint(bundle: CheckpointBundle, path) -> None:
    """Write the bundle; a CRC32 of every byte before it ends the file."""
    out: List[bytes] = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    _write_block(out, json.dumps(bundle.config, sort_keys=True, separators=(",", ":")).encode())
    out.append(struct.pack("<I", len(bundle.tensors)))
    for name in sorted(bundle.tensors):
        arr = bundle.tensors[name]
        tag = _TAG_OF_DTYPE.get(arr.dtype)
        if tag is None:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        _write_block(out, name.encode())
        out.append(struct.pack("<BI", tag, arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(np.ascontiguousarray(arr, dtype=_DTYPE_TAGS[tag]).tobytes())
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
        self.end = len(buf)  # the CRC32 trailer is cut off before the records are read
        self.path = path

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > self.end:
            raise CheckpointError(
                f"{self.path}: truncated at byte {self.pos} reading {what} "
                f"(need {n} bytes, have {self.end - self.pos})"
            )
        chunk = self.buf[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def block(self, what: str) -> bytes:
        return self.take(self.u32(what + " length"), what)

    def json_block(self, what: str):
        raw = self.block(f"{what} JSON")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise CheckpointError(f"{self.path}: corrupt {what} JSON: {exc}") from exc


def load_checkpoint(path) -> CheckpointBundle:
    path = Path(path)
    if not path.is_file():
        raise CheckpointError(f"checkpoint not found: {path}")
    r = _Reader(path.read_bytes(), path)
    magic = r.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic {magic!r} (want {CHECKPOINT_MAGIC!r})")
    version = r.u32("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} (reader supports "
            f"{CHECKPOINT_VERSION})"
        )
    r.end -= 4
    if r.end < r.pos:
        raise CheckpointError(f"{path}: truncated before the CRC32 trailer")
    stored = struct.unpack_from("<I", r.buf, r.end)[0]
    computed = zlib.crc32(memoryview(r.buf)[: r.end])
    if stored != computed:
        raise CheckpointError(
            f"{path}: checksum mismatch (stored CRC32 {stored:08x}, computed "
            f"{computed:08x}); the file is corrupt"
        )
    config = r.json_block("config")
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
    state = r.json_block("state")
    if r.pos != r.end:
        raise CheckpointError(
            f"{path}: {r.end - r.pos} unexpected trailing bytes after the state block"
        )
    _check_blocks(config, state, path)
    return CheckpointBundle(config=config, tensors=tensors, state=state)


def _check_blocks(config, state, path) -> None:
    """Refuse config and state blocks that loading a model or resuming cannot use."""
    for what, block in (("config", config), ("state", state)):
        if not isinstance(block, dict):
            raise CheckpointError(
                f"{path}: {what} block must be a JSON object, got {type(block).__name__}"
            )
    try:
        TrainConfig.from_dict(config)
    except ValueError as exc:
        raise CheckpointError(f"{path}: config block: {exc}") from exc
    is_count = lambda v: type(v) is int and v >= 0
    for key in ("next_epoch", "global_step"):
        if not is_count(state.get(key)):
            raise CheckpointError(
                f"{path}: state {key!r} must be a non-negative integer, got {state.get(key)!r}"
            )
    steps = state.get("optim_steps")
    if not isinstance(steps, dict) or not all(map(is_count, steps.values())):
        raise CheckpointError(
            f"{path}: state 'optim_steps' must map model names to non-negative integers, "
            f"got {steps!r}"
        )


def restore_into(
    bundle: CheckpointBundle, models: Dict[str, Model], optims: Dict[str, AdamState]
) -> None:
    """Copy the bundle's tensors into the live models and optimizers in place.

    Each optimizer takes its step count from the bundle; once stepped it holds
    an Adam ``m`` and ``v`` per parameter, at step 0 none. The bundle's tensors
    under these models' names must match ``_live_arrays`` in names and shapes,
    else a CheckpointError names the first that differs. Gradients are dropped.
    """
    steps = bundle.state["optim_steps"]
    for mname, st in optims.items():
        st.step = int(steps.get(mname, 0))
        params = models[mname].params if st.step else {}
        st.m = {pid: np.zeros_like(p.tensor.data) for pid, p in params.items()}
        st.v = {pid: np.zeros_like(p.tensor.data) for pid, p in params.items()}
    live = _live_arrays(models, optims)
    prefixes = tuple(f"model/{m}/" for m in models) + tuple(f"optim/{m}/" for m in optims)
    stored = {k: v for k, v in bundle.tensors.items() if k.startswith(prefixes)}
    have = {k: v.shape for k, v in stored.items()}
    want = {k: v.shape for k, v in live.items()}
    if have != want:
        name = min(k for k in have.keys() | want.keys() if have.get(k) != want.get(k))
        mname = name.split("/")[1]
        raise CheckpointError(
            f"checkpoint does not fit model {mname!r} after {steps.get(mname, 0)} steps: "
            f"{name} is {have.get(name, 'absent')}, the model needs {want.get(name, 'none')}"
        )
    for name, arr in stored.items():
        live[name][...] = arr  # in place: the norm stats alias their buffers
    for model in models.values():
        for p in model.params.values():
            p.tensor.zero_grad()


def load_generator(checkpoint: Union[str, Path, CheckpointBundle]) -> Generator:
    """The X->Y generator (``gen_xy``) of a checkpoint path or loaded bundle.

    Builds that one model only: no discriminators and no optimizer state. Its
    parameters are untracked, so forwards through it build no graph.
    """
    bundle = checkpoint if isinstance(checkpoint, CheckpointBundle) else load_checkpoint(checkpoint)
    config = TrainConfig.from_dict(bundle.config)
    gen = Generator(config.generator, config.image_size)
    restore_into(bundle, {"gen_xy": gen}, {})
    for p in gen.params.values():
        p.tensor.requires_grad = False
    return gen


# ---------------------------------------------------------------------------
# the loop


def _warn_depth_fallback(manifest: DatasetManifest, ids: Sequence[str]) -> None:
    """One stderr line when some ids have no depth map and load all-ones depth."""
    missing = sum(not manifest.has_depth(i) for i in ids)
    if missing:
        print(
            f"warning: {missing} of {len(ids)} ids have no depth map and fall back to "
            "all-ones depth; their background stream is all zero",
            file=sys.stderr,
        )


def _train_pair(manifest: DatasetManifest, id: str, config: TrainConfig) -> PairedSample:
    """``load_pair``, refusing a pair that is not ``config.image_size`` square."""
    pair = load_pair(manifest, id)
    if pair.clean.pixels.shape[1:] != (config.image_size, config.image_size):
        raise ValueError(
            f"{manifest.path(id, 'clean')}: sample {id!r} is {pair.clean.pixels.shape[1:]}, "
            f"config wants {(config.image_size, config.image_size)}"
        )
    return pair


def _check_train_pairs(manifest: DatasetManifest, config: TrainConfig) -> List[str]:
    """The training ids, once every pair has loaded and checked; no pixels are kept."""
    ids = manifest.ids("train")
    if not ids:
        raise ValueError("manifest has no training ids")
    _warn_depth_fallback(manifest, ids)
    for i in ids:
        _train_pair(manifest, i, config)
    return ids


def _truncate_log(log_path: Path, global_step: int) -> None:
    """Keep the header and the complete rows up to ``global_step``.

    Rows past the checkpoint being resumed from were logged by a run that went
    on after it; the resumed run logs those steps again. The kept rows go to a
    temp file beside the log, synced, which then replaces the log: a crash
    leaves the old log or the new one, never a cut one. Nothing reads the temp
    file, and the next truncation overwrites one a crash left behind.
    """
    lines = log_path.read_text().splitlines(keepends=True)
    keep = lines[:1]
    for line in lines[1:]:
        cells = line.split(",")
        complete = line.endswith("\n") and len(cells) > 2 and cells[1].isdigit()
        if not complete or int(cells[1]) > global_step:
            break
        keep.append(line)
    tmp = log_path.with_name(log_path.name + ".tmp")
    with tmp.open("w") as f:
        f.write("".join(keep))
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, log_path)


def train(
    manifest: DatasetManifest,
    config: TrainConfig,
    out_dir,
    resume_from=None,
) -> Tuple[CheckpointBundle, Path]:
    """Run the full schedule; returns (final bundle, log path).

    Every training pair is loaded and checked once before anything is
    written, and none is kept: each step loads its own batch when it comes,
    so memory does not grow with the pair count. A pair file that breaks
    after that check stops the run with an error naming the file; the log and
    the checkpoints written until then stay as they are.

    Fresh runs write the CSV header and an initial checkpoint; resumed runs
    (``resume_from`` a checkpoint path or loaded bundle) cut the existing log
    back to the checkpoint's step counter and append from there.
    ``ckpt_final.satt`` is written only when the call trains an epoch.
    Shuffling is derived from (seed, epoch), so resuming at an epoch boundary
    sees the identical batch order the uninterrupted run would have.
    """
    ids = _check_train_pairs(manifest, config)  # bad data fails before any write
    n = len(ids)
    smallest_batch = n % config.batch_size or config.batch_size
    side = config.image_size >> max(config.generator.depth, config.discriminator.num_layers)
    if smallest_batch * side * side < 2:
        raise ValueError(
            f"batch_size {config.batch_size} over {n} training pairs leaves a batch of "
            f"{smallest_batch}; the innermost norm stage is {side}x{side}, and batch norm "
            "needs more than one value per channel"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "train_log.csv"

    models = build_models(config)
    optims = build_optimizers(models, config.lr)
    start_epoch = 0
    global_step = 0

    if resume_from is not None:
        bundle = resume_from
        if not isinstance(bundle, CheckpointBundle):
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

    steps_per_epoch = -(-n // config.batch_size)

    with log_path.open("a") as log:
        for epoch in range(start_epoch, config.epochs):
            order = np.random.default_rng(
                np.random.SeedSequence([config.seed, epoch])
            ).permutation(n)
            for s in range(steps_per_epoch):
                picked = order[s * config.batch_size : (s + 1) * config.batch_size]
                batch = [_train_pair(manifest, ids[i], config) for i in picked]
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


#: pixels per eval-mode generator forward: 16 images at 64 px, one at 256 px
ENHANCE_CHUNK_PIXELS = 16 * 64 * 64


def _per_forward(height: int, width: int) -> int:
    """Images of that size in one ``ENHANCE_CHUNK_PIXELS`` chunk; at least one."""
    return max(1, ENHANCE_CHUNK_PIXELS // (height * width))


def enhance_records(gen: Generator, records: Iterable[ImageRecord]) -> Iterator[ImageRecord]:
    """Run images through a generator in eval mode, several per forward.

    Records are read lazily, ``ENHANCE_CHUNK_PIXELS`` worth at a time, and the
    enhanced ones come out in input order. Eval-mode batch norm uses the
    running stats and each image's matmuls are separate BLAS calls within
    ``np.matmul``'s stack loop, so every output has the bytes of a one-image
    forward. A record of the wrong shape raises ``ShapeError`` naming its id
    before its chunk runs.
    """
    size = gen.image_size
    want = (netarch.IMAGE_CHANNELS, size, size)
    per_forward = _per_forward(size, size)
    it = iter(records)
    while chunk := list(islice(it, per_forward)):
        for rec in chunk:
            if rec.pixels.shape != want:
                c, h, w = rec.pixels.shape
                raise ShapeError(
                    f"{rec.id}: generator is built for {size}x{size} inputs with "
                    f"{want[0]} channels, got {h}x{w} with {c}"
                )
        out = gen.forward(to_model_space(*chunk), training=False).data
        for k, rec in enumerate(chunk):
            yield from_model_space(Tensor4(out[k : k + 1]), id=rec.id)


def enhance_record(gen: Generator, rec: ImageRecord) -> ImageRecord:
    """Run one image through a generator in eval mode (running norm stats)."""
    [out] = enhance_records(gen, [rec])
    return out


def enhancer(
    checkpoint: Union[str, Path, CheckpointBundle],
) -> Callable[[Iterable[ImageRecord]], Iterable[ImageRecord]]:
    """Records -> enhanced records, for a checkpoint path or a loaded bundle.

    The string ``identity`` passes records through untouched: the Input
    baseline as a pseudo-model.
    """
    if checkpoint == "identity":
        return lambda records: records
    return partial(enhance_records, load_generator(checkpoint))


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

    ``checkpoint`` is anything ``enhancer`` takes, ``identity`` included. The
    split is read once, one chunk at a time: as many ids as one generator
    forward takes at the size of the split's first distorted image (see
    ``ENHANCE_CHUNK_PIXELS``). Each chunk's images are loaded, checked by
    ``check_pair_dims``, enhanced and scored for the model and the input
    baseline; only the score rows are kept, so memory does not grow with the
    split. Depth is never read. Both reports list their rows sorted by id, as
    ``batch_report`` does.
    """
    ids = manifest.ids(split)
    if not ids:
        raise ValueError(f"split {split!r} is empty")
    metric_names = checked_metric_names(metric_names)
    _warn_depth_fallback(manifest, ids)

    enhance = enhancer(checkpoint)
    first = [load_image(manifest.path(ids[0], "distorted"))]  # the first chunk's first image
    per_chunk = _per_forward(first[0].height, first[0].width)
    model_rows, input_rows = [], []  # (id, row), chunk by chunk
    for at in range(0, len(ids), per_chunk):
        chunk = ids[at : at + per_chunk]
        distorted = first + [load_image(manifest.path(i, "distorted")) for i in chunk[len(first):]]
        first = []
        clean = [load_image(manifest.path(i, "clean")).pixels for i in chunk]
        for i, d, c in zip(chunk, distorted, clean):
            check_pair_dims(manifest, i, "distorted", d.pixels.shape[1:], c.shape[1:])
        enhanced = [rec.pixels for rec in enhance(distorted)]
        for rows, candidates in ((model_rows, enhanced), (input_rows, [d.pixels for d in distorted])):
            report = batch_report(zip(chunk, clean, candidates), metric_names)
            rows += zip(report.ids, report.rows)
    return EvalResult(
        model=_sorted_report(model_rows, metric_names),
        input_baseline=_sorted_report(input_rows, metric_names),
    )


def _sorted_report(rows: List[Tuple[str, dict]], metric_names: Tuple[str, ...]) -> MetricsReport:
    """One report of every chunk's rows, sorted by id like one ``batch_report`` call.

    Each chunk's report is already sorted, and the sort is stable, so rows
    with equal ids keep their split order, as in one call over the split.
    """
    rows.sort(key=lambda r: r[0])
    return MetricsReport(metric_names, [i for i, _ in rows], [row for _, row in rows])
