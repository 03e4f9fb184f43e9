"""Command-line surface: dataset generation, training, enhancement, scoring.

Exit codes are a stable scripting contract: 0 success, 1 runtime failure,
2 usage or validation error (argparse's own convention). Every command is
deterministic given its flags; `SATT_THREADS` caps worker concurrency.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from .datapipe import (
    DEGRADE_PRESETS,
    ImageRecord,
    LayoutError,
    ParseError,
    degrade_params_from,
    generate_synthetic_dataset,
    load_depth,
    load_image,
    load_manifest,
    save_image,
)
from .diffcore.gradcheck import OP_CASES, run_registry
from .metrics import KNOWN_METRICS
from .trainer import (
    CheckpointError,
    TrainConfig,
    desk_config,
    enhance_record,
    evaluate,
    load_generator,
    train,
)

_IMAGE_SUFFIXES = (".ppm", ".pgm", ".png")


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _fail_runtime(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# config file handling


def _load_config_doc(path: Optional[str]) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"config file {p} must hold a JSON object")
    return doc


def _merge_train_doc(doc: dict, desk: bool) -> TrainConfig:
    """Layer a config-file document over the base profile (file wins)."""
    base = desk_config() if desk else TrainConfig()
    merged = base.to_dict()
    for key, value in doc.items():
        if key in ("generator", "discriminator") and isinstance(value, dict):
            merged[key] = {**merged[key], **value}
        else:
            merged[key] = value
    return TrainConfig.from_dict(merged)  # rejects unknown keys


def _train_config_from(doc: dict, args) -> TrainConfig:
    config = _merge_train_doc(doc, args.desk)
    overrides = {}
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# commands


def cmd_generate_data(args) -> int:
    try:
        doc = _load_config_doc(args.config)
        degrade_doc = doc.pop("degrade", {})
        if doc:
            # shared config files may carry training keys; still validate them
            _merge_train_doc(doc, desk=False)
        params = degrade_params_from(degrade_doc, args.preset)
        if args.count <= 0:
            raise ValueError(f"--count must be positive, got {args.count}")
        if args.size < 8:
            raise ValueError(f"--size must be >= 8, got {args.size}")
    except ValueError as exc:
        return _fail_usage(str(exc))
    try:
        manifest = generate_synthetic_dataset(
            args.count, args.size, params, seed=args.seed, out_root=args.out
        )
    except OSError as exc:
        return _fail_runtime(f"cannot write dataset: {exc}")
    n_train = len(manifest.splits["train"])
    n_test = len(manifest.splits["test"])
    print(
        f"wrote {args.count} paired samples ({n_train} train / {n_test} test) "
        f"under {args.out}"
    )
    return 0


def cmd_train(args) -> int:
    try:
        doc = _load_config_doc(args.config)
        doc.pop("degrade", None)  # generate-data section is legal in a shared file
        config = _train_config_from(doc, args)
    except ValueError as exc:
        return _fail_usage(str(exc))
    try:
        manifest = load_manifest(args.data)
        bundle, log_path = train(manifest, config, args.out, resume_from=args.resume)
    except (OSError, LayoutError, ParseError, CheckpointError, ValueError,
            FloatingPointError) as exc:
        return _fail_runtime(str(exc))
    print(f"trained {bundle.state['global_step']} steps; log at {log_path}")
    print(f"final checkpoint: {Path(args.out) / 'ckpt_final.satt'}")
    return 0


def _iter_input_images(path: Path) -> List[Path]:
    if path.is_dir():
        found = sorted(
            p for p in path.iterdir() if p.is_file() and p.suffix.lower() in _IMAGE_SUFFIXES
        )
        if not found:
            raise ValueError(f"no images ({'/'.join(_IMAGE_SUFFIXES)}) under {path}")
        return found
    if path.is_file():
        return [path]
    raise ValueError(f"input not found: {path}")


def cmd_enhance(args) -> int:
    try:
        if args.checkpoint == "identity":
            enhance = lambda rec: rec
        else:
            ckpt_path = Path(args.checkpoint)
            if not ckpt_path.is_file():
                raise ValueError(f"checkpoint not found: {ckpt_path}")
            gen = load_generator(ckpt_path)
            enhance = lambda rec: enhance_record(gen, rec)
        in_path = Path(getattr(args, "in"))
        inputs = _iter_input_images(in_path)
        out = Path(args.out)
        if in_path.is_dir():
            out.mkdir(parents=True, exist_ok=True)
            targets = [out / p.name for p in inputs]
        else:
            if out.parent != Path(""):
                out.parent.mkdir(parents=True, exist_ok=True)
            targets = [out]
        for src, dst in zip(inputs, targets):
            save_image(enhance(load_image(src)), dst)
    except (OSError, ValueError, CheckpointError) as exc:
        return _fail_runtime(str(exc))
    print(f"enhanced {len(inputs)} image(s) -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    metric_names = tuple(m.strip() for m in args.metrics.split(",") if m.strip())
    unknown = [m for m in metric_names if m not in KNOWN_METRICS]
    if unknown or not metric_names:
        return _fail_usage(
            f"unknown metrics {unknown or '(none given)'}; known: {', '.join(KNOWN_METRICS)}"
        )
    try:
        manifest = load_manifest(args.data)
        if args.split not in manifest.splits:
            return _fail_usage(
                f"unknown split {args.split!r}; manifest has {sorted(manifest.splits)}"
            )
        if not manifest.splits[args.split]:
            return _fail_usage(f"split {args.split!r} is empty")
    except (LayoutError, OSError) as exc:
        return _fail_runtime(str(exc))
    try:
        result = evaluate(
            args.checkpoint, manifest, split=args.split, metric_names=metric_names
        )
    except (OSError, ValueError, CheckpointError, ParseError) as exc:
        return _fail_runtime(str(exc))
    print(result.to_text())
    if args.csv:
        try:
            Path(args.csv).write_text(result.model.to_csv())
        except OSError as exc:
            return _fail_runtime(f"cannot write CSV: {exc}")
        print(f"per-image CSV -> {args.csv}")
    return 0


def cmd_mask_preview(args) -> int:
    try:
        image = load_image(args.image)
        depth = load_depth(args.depth)
    except (OSError, ParseError) as exc:
        return _fail_runtime(str(exc))
    if depth.shape != image.pixels.shape[1:]:
        return _fail_usage(
            f"depth dims {depth.shape} do not match image {image.pixels.shape[1:]}"
        )
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        # integer partition: fg + bg reassembles the input pixel-exactly
        # (depth <= 1 so floor(I*D + 0.5) <= I and the difference never wraps)
        fg = np.floor(image.pixels.astype(np.float64) * depth + 0.5).astype(np.int16)
        bg = image.pixels.astype(np.int16) - fg
        save_image(ImageRecord(id="foreground", pixels=fg.astype(np.uint8)),
                   out / "foreground.ppm")
        save_image(ImageRecord(id="background", pixels=bg.astype(np.uint8)),
                   out / "background.ppm")
    except OSError as exc:
        return _fail_runtime(str(exc))
    print(f"wrote {out / 'foreground.ppm'} and {out / 'background.ppm'}")
    return 0


def cmd_grad_check(args) -> int:
    if args.ops == "all":
        only = None
    else:
        only = [o.strip() for o in args.ops.split(",") if o.strip()]
        unknown = [o for o in only if o not in OP_CASES]
        if unknown or not only:
            return _fail_usage(
                f"unknown op(s) {unknown or '(none given)'}; known: {', '.join(sorted(OP_CASES))}"
            )
    seeds = [args.seed + k for k in range(5)]
    results = run_registry(seeds=seeds, only=only)
    failed = []
    worst = {}
    for r in results:
        op = r.name.split("[")[0]
        worst[op] = max(worst.get(op, 0.0), r.max_rel_error)
        if not r.passed:
            failed.append(r)
    for op in sorted(worst):
        print(f"{op}: max rel err {worst[op]:.3e} over {len(seeds)} seeds")
    if failed:
        for r in failed:
            print(f"FAIL {r.summary()}", file=sys.stderr)
        return 1
    print(f"all {len(worst)} ops within tolerance")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepattn",
        description="Separated-attention adversarial image translation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="render a paired synthetic dataset")
    p.add_argument("--count", type=int, required=True, help="number of paired samples")
    p.add_argument("--size", type=int, default=64, help="square image size (default 64)")
    p.add_argument("--preset", choices=sorted(DEGRADE_PRESETS), default="default")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="JSON file; its 'degrade' section overrides the preset")
    p.add_argument("--out", required=True, help="dataset root directory")
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("train", help="run the training schedule")
    p.add_argument("--config", help="JSON config mirroring the training schema")
    p.add_argument("--data", required=True, help="dataset root with manifest.json")
    p.add_argument("--out", required=True, help="run directory for logs/checkpoints")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--desk", action="store_true", help="start from the small desk profile")
    p.add_argument("--epochs", type=int, help="override epoch count")
    p.add_argument("--seed", type=int, help="override seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("enhance", help="run images through a trained generator")
    p.add_argument("--checkpoint", required=True, help="checkpoint path or 'identity'")
    p.add_argument("--in", required=True, help="input image or directory")
    p.add_argument("--out", required=True, help="output image or directory")
    p.set_defaults(func=cmd_enhance)

    p = sub.add_parser("eval", help="score a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True, help="checkpoint path or 'identity'")
    p.add_argument("--data", required=True, help="dataset root with manifest.json")
    p.add_argument("--split", default="test")
    p.add_argument("--metrics", default=",".join(KNOWN_METRICS))
    p.add_argument("--csv", help="write the per-image report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("mask-preview", help="write foreground/background mask splits")
    p.add_argument("--image", required=True)
    p.add_argument("--depth", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_mask_preview)

    p = sub.add_parser("grad-check", help="finite-difference check of autodiff ops")
    p.add_argument("--ops", default="all", help="'all' or comma-separated op names")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_grad_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
