"""Image I/O, paired-dataset plumbing, and synthetic underwater degradation.

The mandatory on-disk formats are binary PPM (``P6``, color) and PGM (``P5``,
grayscale/depth) with an 8-bit maxval: both read and write bit-exactly with no
third-party decoder. PNG files can additionally be *read* when Pillow is
installed (the ``png`` extra).

Depth convention: 1.0 = nearest/foreground, 0.0 = farthest. The degradation
model therefore works on scene distance ``d = 1 - depth`` so near objects
degrade least.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .attnmask import validate_depth
from .diffcore import Tensor4
from .util import check_int_fields, map_units, typed_fields

_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"
_WSPACE = b" \t\r\n"

MANIFEST_NAME = "manifest.json"


class ParseError(ValueError):
    """Malformed image file; carries the byte offset of the problem."""

    def __init__(self, path, offset: int, message: str):
        self.path = str(path)
        self.offset = offset
        super().__init__(f"{path}: byte {offset}: {message}")


class LayoutError(ValueError):
    """Dataset directory layout does not match the expected structure."""


# ---------------------------------------------------------------------------
# records


@dataclass(frozen=True)
class ImageRecord:
    id: str
    pixels: np.ndarray  # (channels, height, width) uint8

    def __post_init__(self):
        p = self.pixels
        if not isinstance(p, np.ndarray) or p.dtype != np.uint8:
            raise TypeError("pixels must be a uint8 array")
        if p.ndim != 3 or p.shape[0] not in (1, 3):
            raise ValueError(f"pixels must be (1|3, H, W), got {p.shape}")
        if p.shape[1] < 1 or p.shape[2] < 1:
            raise ValueError(f"image dims must be positive, got {p.shape}")

    @property
    def channels(self) -> int:
        return self.pixels.shape[0]

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]


@dataclass(frozen=True)
class PairedSample:
    """One aligned (distorted, clean, depth) triple."""

    distorted: ImageRecord
    clean: ImageRecord
    depth: np.ndarray  # (H, W) float in [0, 1]

    def __post_init__(self):
        hw = self.clean.pixels.shape[1:]
        if self.distorted.pixels.shape[1:] != hw or self.depth.shape != hw:
            raise ValueError(
                "paired sample dims disagree: distorted "
                f"{self.distorted.pixels.shape[1:]}, clean {hw}, depth {self.depth.shape}"
            )


# ---------------------------------------------------------------------------
# PPM / PGM / PNG


def _next_token(buf: bytes, pos: int, path) -> Tuple[bytes, int, int]:
    """Skip whitespace/comments, return (token, token_start, next_pos)."""
    n = len(buf)
    while pos < n:
        ch = buf[pos]
        if ch in _WSPACE:
            pos += 1
        elif ch == 0x23:  # '#': comment runs to end of line
            while pos < n and buf[pos] not in b"\r\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise ParseError(path, pos, "unexpected end of file inside header")
    start = pos
    while pos < n and buf[pos] not in _WSPACE:
        pos += 1
    return buf[start:pos], start, pos


def _header_int(buf: bytes, pos: int, path, what: str) -> Tuple[int, int]:
    tok, start, pos = _next_token(buf, pos, path)
    if not tok.isdigit():
        raise ParseError(path, start, f"malformed {what}: {tok!r} is not an unsigned integer")
    return int(tok), pos


def _load_png(path: Path) -> ImageRecord:
    try:
        from PIL import Image  # noqa: PLC0415 — optional dependency
    except ImportError as exc:
        raise ParseError(
            path, 0, "PNG reading requires the optional 'png' extra (Pillow)"
        ) from exc
    with Image.open(path) as img:
        if img.mode == "L":
            arr = np.asarray(img, dtype=np.uint8)[None]
        else:
            arr = np.asarray(img.convert("RGB"), dtype=np.uint8).transpose(2, 0, 1)
    return ImageRecord(id=path.stem, pixels=arr)


def load_image(path) -> ImageRecord:
    """Read a binary PPM/PGM (or PNG, when Pillow is available)."""
    path = Path(path)
    buf = path.read_bytes()
    if buf[:8] == _PNG_MAGIC:
        return _load_png(path)
    magic = bytes(buf[:2])
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise ParseError(
            path, 0, f"unsupported format: magic bytes {magic!r} (need P6 or P5 binary)"
        )
    pos = 2
    width, pos = _header_int(buf, pos, path, "width")
    height, pos = _header_int(buf, pos, path, "height")
    if width < 1 or height < 1:
        raise ParseError(path, pos, f"image dims must be positive, got {width}x{height}")
    maxval, pos = _header_int(buf, pos, path, "maxval")
    if maxval != 255:
        raise ParseError(path, pos, f"maxval {maxval} unsupported; only 8-bit (255)")
    if pos >= len(buf) or buf[pos] not in _WSPACE:
        raise ParseError(path, pos, "expected single whitespace byte after maxval")
    pos += 1
    need = width * height * channels
    have = len(buf) - pos
    if have < need:
        raise ParseError(
            path, pos, f"truncated pixel data: need {need} bytes, found {have}"
        )
    flat = np.frombuffer(buf, dtype=np.uint8, count=need, offset=pos)
    if channels == 3:
        pixels = flat.reshape(height, width, 3).transpose(2, 0, 1)
    else:
        pixels = flat.reshape(1, height, width)
    return ImageRecord(id=path.stem, pixels=np.ascontiguousarray(pixels))


def save_image(record: ImageRecord, path) -> None:
    """Write a record as binary PPM (3-channel) or PGM (1-channel)."""
    path = Path(path)
    magic = b"P6" if record.channels == 3 else b"P5"
    header = magic + f"\n{record.width} {record.height}\n255\n".encode("ascii")
    if record.channels == 3:
        body = record.pixels.transpose(1, 2, 0).tobytes()
    else:
        body = record.pixels[0].tobytes()
    path.write_bytes(header + body)


def save_depth(depth: np.ndarray, path) -> None:
    """Write a [0,1] depth map as an 8-bit PGM (round-half-up)."""
    depth = validate_depth(depth)
    if depth.ndim != 2:
        raise ValueError(f"depth file must be a single (H, W) map, got {depth.shape}")
    q = np.floor(depth * 255.0 + 0.5).astype(np.uint8)
    save_image(ImageRecord(id="depth", pixels=q[None]), path)


def load_depth(path) -> np.ndarray:
    """Read an 8-bit PGM depth map back to float in [0, 1]."""
    rec = load_image(path)
    if rec.channels != 1:
        raise ParseError(path, 0, "depth map must be single-channel (PGM)")
    return rec.pixels[0].astype(np.float64) / 255.0


# ---------------------------------------------------------------------------
# model-space mapping


def to_model_space(*records: ImageRecord) -> Tensor4:
    """8-bit pixels -> float32 tensor in [-1, 1], shape (N, C, H, W), one image per record.

    The mapping is elementwise, so each image's values do not depend on the
    others stacked with it.
    """
    pixels = np.stack([r.pixels for r in records])
    return Tensor4(pixels.astype(np.float32) / np.float32(127.5) - np.float32(1.0))


def from_model_space(t: Tensor4, id: str = "") -> ImageRecord:
    """[-1, 1] tensor back to 8-bit pixels (round-half-up, clipped).

    Exact inverse of to_model_space on the 8-bit lattice; 0.0 maps to 128.
    """
    if t.shape[0] != 1:
        raise ValueError(f"expected a single-image batch, got batch {t.shape[0]}")
    v = t.data[0].astype(np.float64)
    q = np.floor((v + 1.0) * 127.5 + 0.5)
    return ImageRecord(id=id, pixels=np.clip(q, 0, 255).astype(np.uint8))


# ---------------------------------------------------------------------------
# degradation model


@dataclass(frozen=True)
class DegradeParams:
    """Two-term attenuation + backscatter model with contrast and sensor noise.

    beta orders red >= green >= blue: red light is absorbed fastest with
    distance, which is what gives degraded frames their blue/green cast.
    Checked when built, by ``replace`` too: a bad value, NaN and the
    infinities included, is a ValueError naming the field.
    """

    beta: Tuple[float, float, float] = (1.8, 0.9, 0.4)
    backscatter: Tuple[float, float, float] = (20.0, 120.0, 140.0)
    contrast_gain: float = 0.7
    noise_sigma: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        check_int_fields(self)
        br, bg, bb = self.beta
        if not (math.inf > br >= bg >= bb >= 0.0):
            raise ValueError(f"beta must satisfy red >= green >= blue >= 0, got {self.beta}")
        if any(not (0.0 <= b <= 255.0) for b in self.backscatter):
            raise ValueError(f"backscatter outside [0, 255]: {self.backscatter}")
        if not (0.0 < self.contrast_gain <= 1.0):
            raise ValueError(f"contrast_gain must be in (0, 1], got {self.contrast_gain}")
        if not (0.0 <= self.noise_sigma < math.inf):
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


DEGRADE_PRESETS: Dict[str, DegradeParams] = {
    "default": DegradeParams(),
    "mild": DegradeParams(beta=(0.9, 0.5, 0.25), backscatter=(30.0, 100.0, 120.0),
                          contrast_gain=0.85, noise_sigma=1.0),
    "murky": DegradeParams(beta=(2.6, 1.5, 0.8), backscatter=(15.0, 130.0, 150.0),
                           contrast_gain=0.55, noise_sigma=3.0),
}


def degrade_params_from(doc: dict, preset: str = "default") -> DegradeParams:
    """``preset`` with a config file's ``degrade`` section laid over it.

    The section's values are type-checked like the training config's, so a
    mistyped or unknown key is a ValueError naming it, and so is a bad value.
    """
    return replace(DEGRADE_PRESETS[preset], **typed_fields(DegradeParams, doc, "degrade"))


def degrade(clean: ImageRecord, depth: np.ndarray, params: DegradeParams) -> ImageRecord:
    """Apply attenuation, backscatter veil, contrast loss, and sensor noise.

    Per channel c with scene distance d = 1 - depth:
      t = exp(-beta_c * d);  v = clean * t + backscatter_c * (1 - t)
    then per-channel contrast v = mean + gain * (v - mean), then seeded
    Gaussian noise, clipped to [0, 255].
    """
    if clean.channels != 3:
        raise ValueError("degrade expects a 3-channel image")
    depth = validate_depth(depth)
    if depth.ndim != 2 or depth.shape != clean.pixels.shape[1:]:
        raise ValueError(
            f"depth shape {depth.shape} does not match image {clean.pixels.shape[1:]}"
        )
    d = 1.0 - depth.astype(np.float64)
    px = clean.pixels.astype(np.float64)
    out = np.empty_like(px)
    for c in range(3):
        t = np.exp(-params.beta[c] * d)
        v = px[c] * t + params.backscatter[c] * (1.0 - t)
        m = v.mean()
        out[c] = m + params.contrast_gain * (v - m)
    if params.noise_sigma > 0.0:
        rng = np.random.default_rng(params.seed)
        out += rng.normal(0.0, params.noise_sigma, out.shape)
    q = np.floor(np.clip(out, 0.0, 255.0) + 0.5)
    return ImageRecord(id=clean.id, pixels=np.clip(q, 0, 255).astype(np.uint8))


# ---------------------------------------------------------------------------
# dataset manifest


@dataclass
class DatasetManifest:
    root: str
    layout: str  # "synthetic"
    splits: Dict[str, List[str]]
    files: Dict[str, Dict[str, str]]  # id -> role -> relative path
    image_size: Optional[int] = None
    params: Optional[dict] = None
    depth_missing: bool = False
    extra: dict = field(default_factory=dict)

    def ids(self, split: str) -> List[str]:
        if split not in self.splits:
            raise LayoutError(f"unknown split {split!r}; have {sorted(self.splits)}")
        return list(self.splits[split])

    def has_depth(self, id: str) -> bool:
        """False when ``id`` falls back to all-ones depth (see ``load_pair``)."""
        return not self.depth_missing and "depth" in self.files[id]

    def path(self, id: str, role: str) -> Path:
        return Path(self.root) / self.files[id][role]

    def to_json(self) -> str:
        # root intentionally omitted: the manifest lives inside its tree, so
        # two generations of the same seed stay byte-identical anywhere
        doc = {
            "layout": self.layout,
            "splits": self.splits,
            "files": self.files,
            "image_size": self.image_size,
            "params": self.params,
            "depth_missing": self.depth_missing,
            "extra": self.extra,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_manifest(root) -> DatasetManifest:
    root = Path(root)
    mpath = root / MANIFEST_NAME
    if not mpath.is_file():
        raise LayoutError(f"no {MANIFEST_NAME} under {root}")
    try:
        doc = json.loads(mpath.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise LayoutError(f"{mpath}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise LayoutError(f"{mpath}: top level must be a JSON object")
    for key, kind in (("layout", str), ("splits", dict), ("files", dict)):
        if not isinstance(doc.get(key), kind):
            raise LayoutError(f"{mpath}: required key {key!r} is missing or not a {kind.__name__}")
    seen: Dict[str, str] = {}
    for split, names in doc["splits"].items():
        if not isinstance(names, list):
            raise LayoutError(f"{mpath}: split {split!r} must be a list of ids")
        for i in names:
            if isinstance(i, str) and seen.setdefault(i, split) != split:
                raise LayoutError(f"{mpath}: id {i!r} appears in both {seen[i]!r} and {split!r}")
            roles = doc["files"].get(i) if isinstance(i, str) else None
            if not isinstance(roles, dict) or not {"distorted", "clean"} <= roles.keys():
                raise LayoutError(
                    f"{mpath}: id {i!r} in split {split!r} lacks a 'distorted' or 'clean' file"
                )
            for role, rel in roles.items():
                if not isinstance(rel, str):
                    raise LayoutError(f"{mpath}: id {i!r} has a non-string {role!r} path: {rel!r}")
    depth_missing = doc.get("depth_missing", False)
    if not isinstance(depth_missing, bool):
        raise LayoutError(f"{mpath}: 'depth_missing' must be true or false, got {depth_missing!r}")
    return DatasetManifest(
        root=str(root),
        layout=doc["layout"],
        splits=doc["splits"],
        files=doc["files"],
        image_size=doc.get("image_size"),
        params=doc.get("params"),
        depth_missing=depth_missing,
        extra=doc.get("extra", {}),
    )


def load_pair(manifest: DatasetManifest, id: str) -> PairedSample:
    distorted = load_image(manifest.path(id, "distorted"))
    clean = load_image(manifest.path(id, "clean"))
    if manifest.has_depth(id):
        depth = load_depth(manifest.path(id, "depth"))
    else:
        depth = np.ones(clean.pixels.shape[1:], dtype=np.float64)
    return PairedSample(distorted=distorted, clean=clean, depth=depth)


# ---------------------------------------------------------------------------
# synthetic scenes


def _render_scene(ss: np.random.SeedSequence, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """One clean scene: smooth background ramp + 2-5 colored shapes.

    Returns (pixels uint8 (3,size,size), depth float (size,size)); shapes sit
    nearer (depth in [0.5, 1.0]) than the background, whose depth falls from
    0.35 at the top to 0.02 at the bottom.
    """
    rng = np.random.default_rng(ss)
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")

    c0, c1 = rng.uniform(30.0, 225.0, (2, 3))
    ang = rng.uniform(0.0, 2.0 * math.pi)
    ramp = math.cos(ang) * ii + math.sin(ang) * jj
    lo, hi = ramp.min(), ramp.max()
    ramp = (ramp - lo) / (hi - lo) if hi > lo else np.zeros_like(ramp)
    img = c0[:, None, None] + (c1 - c0)[:, None, None] * ramp

    depth = 0.35 + (0.02 - 0.35) * (ii / max(size - 1, 1))

    for _ in range(int(rng.integers(2, 6))):
        color = rng.uniform(0.0, 255.0, 3)
        z = rng.uniform(0.5, 1.0)
        cy, cx = rng.uniform(0.1, 0.9, 2) * size
        if rng.random() < 0.5:
            r = rng.uniform(size / 8, size / 3)
            mask = (ii - cy) ** 2 + (jj - cx) ** 2 <= r * r
        else:
            hh, ww = rng.uniform(size / 8, size / 3, 2)
            mask = (np.abs(ii - cy) <= hh) & (np.abs(jj - cx) <= ww)
        img[:, mask] = color[:, None]
        depth[mask] = z

    pixels = np.floor(np.clip(img, 0.0, 255.0) + 0.5).astype(np.uint8)
    return pixels, depth


def generate_synthetic_dataset(
    count: int,
    image_size: int,
    params: DegradeParams,
    seed: int,
    out_root,
) -> DatasetManifest:
    """Render `count` paired samples under out_root, fully seed-determined.

    Tree: out_root/{clean,distorted}/NNNNN.ppm, out_root/depth/NNNNN.pgm,
    plus manifest.json. Split: first 90% train, last 10% test (empty test
    below 10 samples). Honors SATT_THREADS; per-sample derived seeds keep
    parallel output byte-identical to serial.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    if image_size < 8:
        raise ValueError(f"image_size must be >= 8, got {image_size}")
    root = Path(out_root)
    for sub in ("clean", "distorted", "depth"):
        (root / sub).mkdir(parents=True, exist_ok=True)

    ids = [f"{i:05d}" for i in range(count)]

    def build_one(i: int) -> None:
        pixels, depth = _render_scene(np.random.SeedSequence([seed, i]), image_size)
        clean = ImageRecord(id=ids[i], pixels=pixels)
        distorted = degrade(clean, depth, replace(params, seed=params.seed ^ i))
        save_image(clean, root / "clean" / f"{ids[i]}.ppm")
        save_image(distorted, root / "distorted" / f"{ids[i]}.ppm")
        save_depth(depth, root / "depth" / f"{ids[i]}.pgm")

    map_units(build_one, range(count))

    n_test = count // 10
    files = {
        i: {
            "clean": f"clean/{i}.ppm",
            "distorted": f"distorted/{i}.ppm",
            "depth": f"depth/{i}.pgm",
        }
        for i in ids
    }
    manifest = DatasetManifest(
        root=str(root),
        layout="synthetic",
        splits={
            "train": ids[: count - n_test],
            "val": [],
            "test": ids[count - n_test :],
        },
        files=files,
        image_size=image_size,
        params={
            "beta": list(params.beta),
            "backscatter": list(params.backscatter),
            "contrast_gain": params.contrast_gain,
            "noise_sigma": params.noise_sigma,
            "seed": params.seed,
        },
        extra={"scene_seed": seed, "count": count},
    )
    (root / MANIFEST_NAME).write_text(manifest.to_json())
    return manifest
