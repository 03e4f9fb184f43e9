"""Per-layer tracing of the sepattn package, done entirely from outside it.

A :class:`Tracer` replaces the package's public functions with timing
wrappers inside its ``with`` block and puts the originals back when it exits.
Modules bind many of these names at import (``from .diffcore import conv2d``),
so every ``sepattn`` module attribute that *is* a traced function is patched,
not just the defining module's. Each differentiable op also gets its output's
``_grad_fn`` closure wrapped, which times the op's backward inside
``diffcore.backward``. Layers are the package modules; span names are
``<layer>.<function>``.
"""
from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, Tuple

from harness import SpanTable, conv2d_flops, conv_transpose2d_flops

import sepattn.cli  # noqa: F401  (imports every traced module)
from sepattn import netarch
from sepattn.diffcore import ops as _ops
from sepattn.diffcore.tensor import Tensor4

#: ops timed one by one; every other op in ``diffcore.ops`` counts as elementwise
OP_GROUPS = ("conv2d", "conv_transpose2d", "batch_norm", "leaky_relu", "elementwise")

#: (module, function, span name) for every plain function traced as a span
SPANS = (
    ("sepattn.diffcore.tensor", "backward", "diffcore.backward"),
    ("sepattn.diffcore.optim", "adam_step", "diffcore.adam_step"),
    ("sepattn.attnmask", "split", "attnmask.split"),
    ("sepattn.losses", "full_generator_loss", "losses.full_generator_loss"),
    ("sepattn.losses", "separated_discriminator_losses", "losses.separated_discriminator_losses"),
    ("sepattn.trainer", "train", "trainer.train"),
    ("sepattn.trainer", "train_step", "trainer.train_step"),
    ("sepattn.trainer", "generator_phase", "trainer.generator_phase"),
    ("sepattn.trainer", "discriminator_phase", "trainer.discriminator_phase"),
    ("sepattn.trainer", "build_models", "trainer.build_models"),
    ("sepattn.trainer", "bundle_from_live", "trainer.bundle_from_live"),
    ("sepattn.trainer", "save_checkpoint", "trainer.save_checkpoint"),
    ("sepattn.trainer", "load_checkpoint", "trainer.load_checkpoint"),
    ("sepattn.trainer", "restore_into", "trainer.restore_into"),
    ("sepattn.trainer", "evaluate", "trainer.evaluate"),
    ("sepattn.trainer", "enhance_record", "trainer.enhance_record"),
    ("sepattn.datapipe", "load_image", "datapipe.load_image"),
    ("sepattn.datapipe", "save_image", "datapipe.save_image"),
    ("sepattn.datapipe", "load_depth", "datapipe.load_depth"),
    ("sepattn.datapipe", "load_pair", "datapipe.load_pair"),
    ("sepattn.datapipe", "load_manifest", "datapipe.load_manifest"),
    ("sepattn.datapipe", "to_model_space", "datapipe.to_model_space"),
    ("sepattn.datapipe", "from_model_space", "datapipe.from_model_space"),
    ("sepattn.metrics", "psnr", "metrics.psnr"),
    ("sepattn.metrics", "ssim", "metrics.ssim"),
    ("sepattn.metrics", "uiqm", "metrics.uiqm"),
    ("sepattn.metrics", "batch_report", "metrics.batch_report"),
    ("sepattn.cli", "cmd_enhance", "cli.enhance"),
    ("sepattn.cli", "cmd_eval", "cli.eval"),
)

#: model forwards are methods, so they are patched on the class
METHODS = (
    (netarch.Generator, "forward", "netarch.generator_forward"),
    (netarch.Discriminator, "forward", "netarch.discriminator_forward"),
)


def _live(t: Tensor4) -> bool:
    # the condition the ops themselves use to decide whether to build an input gradient
    return t.requires_grad or t._grad_fn is not None


def _conv2d_cost(operands, out) -> Tuple[int, int]:
    x, w = operands[0], operands[1]
    fwd = conv2d_flops(x.shape, w.shape, out.shape)
    return fwd, fwd * (2 if _live(x) else 1)  # weight grad always, input grad if live


def _conv_transpose2d_cost(operands, out) -> Tuple[int, int]:
    y, w = operands[0], operands[1]
    fwd = conv_transpose2d_flops(y.shape, w.shape)
    return fwd, fwd * (2 if _live(y) else 1)


_CONV_COST = {"conv2d": _conv2d_cost, "conv_transpose2d": _conv_transpose2d_cost}


class Tracer:
    """Context manager that traces every call into the package while installed.

    Counters accumulate across ``with`` blocks, so one tracer can cover several
    runs with untraced runs in between. While ``active`` is false the wrappers
    stay in place but only pass calls through, which lets untraced and traced
    train steps alternate within one run. ``scope`` names the spans whose
    nested self times the closure check sums (see :class:`SpanTable`).
    ``conv_flops`` and ``bytes_moved`` are computed from operand shapes:
    convolution multiply-adds, and the bytes of every op's operands and
    result plus, in backward, of the incoming and outgoing gradients.
    """

    def __init__(self, scope=()):
        self.table = SpanTable(scope)
        self.active = True
        self.conv_flops = 0
        self.bytes_moved = 0
        self._wrappers: Dict[int, Callable] = {}
        self._originals: Dict[int, Callable] = {}
        for mod_name, attr, name in SPANS:
            fn = getattr(sys.modules[mod_name], attr)
            self._add(fn, self._span(name, fn))
        for op in _ops.__all__:
            fn = getattr(_ops, op)
            if op == "backward" or not callable(fn) or isinstance(fn, type):
                continue
            group = op if op in OP_GROUPS else "elementwise"
            self._add(fn, self._op(group, _CONV_COST.get(op), fn))
        self._methods = [
            (cls, attr, self._span(name, getattr(cls, attr))) for cls, attr, name in METHODS
        ]
        self._patched: list = []

    def _add(self, original: Callable, wrapper: Callable) -> None:
        self._wrappers[id(original)] = wrapper
        self._originals[id(original)] = original  # keeps ids valid

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn: Callable) -> Callable:
        table = self.table

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            table.enter(name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                table.leave(name, perf_counter() - t0)

        return traced

    def _op(self, group: str, cost, fn: Callable) -> Callable:
        table = self.table
        fwd_name = f"diffcore.{group}.fwd"
        bwd_name = f"diffcore.{group}.bwd"

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            table.enter(fwd_name)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                table.leave(fwd_name, perf_counter() - t0)
            operands = [a for a in args if isinstance(a, Tensor4)]
            operands += [a for a in kwargs.values() if isinstance(a, Tensor4)]
            self.bytes_moved += sum(t.data.nbytes for t in operands) + out.data.nbytes
            bwd_flops = 0
            if cost is not None:
                fwd_flops, bwd_flops = cost(operands, out)
                self.conv_flops += fwd_flops
            if out._grad_fn is not None:
                out._grad_fn = self._grad(bwd_name, out._grad_fn, bwd_flops)
            return out

        return traced

    def _grad(self, name: str, grad_fn: Callable, flops: int) -> Callable:
        table = self.table

        def traced(g):
            table.enter(name)
            t0 = perf_counter()
            try:
                grads = grad_fn(g)
            finally:
                table.leave(name, perf_counter() - t0)
            self.bytes_moved += g.nbytes + sum(x.nbytes for x in grads if x is not None)
            self.conv_flops += flops
            return grads

        return traced

    # -- patching -------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "sepattn" or mod_name.startswith("sepattn.")) or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and self._originals[id(value)] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for cls, attr, wrapper in self._methods:
            self._patched.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, inside: int, outside: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer rows per train step or image.

    Work recorded inside a scope span is divided by ``inside``, the steps or
    images traced; work between them (loading pairs, checkpoints) by
    ``outside``, the steps or images it served.
    """
    t = tracer.table

    def ms(name: str) -> Tuple[float, str]:
        return 1e3 * t.per(t.total, [name], inside, outside), "ms"

    def self_ms(*names: str) -> Tuple[float, str]:
        return 1e3 * t.per(t.self_time, names, inside, outside), "ms"

    def calls(name: str) -> Tuple[float, str]:
        return t.per(t.calls, [name], inside, outside), "count"

    out: Dict[str, Tuple[float, str]] = {}
    for g in OP_GROUPS:
        out[f"diffcore.{g}.fwd_ms"] = ms(f"diffcore.{g}.fwd")
        out[f"diffcore.{g}.bwd_ms"] = ms(f"diffcore.{g}.bwd")
        out[f"diffcore.{g}.calls"] = calls(f"diffcore.{g}.fwd")
    out["diffcore.ops.calls"] = (sum(out[f"diffcore.{g}.calls"][0] for g in OP_GROUPS), "count")
    out["diffcore.backward.self_ms"] = self_ms("diffcore.backward")
    out["diffcore.adam_step.ms"] = ms("diffcore.adam_step")
    # every op runs inside a step or image, so the computed costs divide by ``inside``
    out["diffcore.conv.gflop"] = (tracer.conv_flops / inside / 1e9, "gflop-computed")
    out["diffcore.bytes_moved_mb"] = (tracer.bytes_moved / inside / 1e6, "MB-computed")
    for fwd in ("generator_forward", "discriminator_forward"):
        out[f"netarch.{fwd}.calls"] = calls(f"netarch.{fwd}")
        out[f"netarch.{fwd}.ms"] = ms(f"netarch.{fwd}")
    out["netarch.self_ms"] = self_ms("netarch.generator_forward", "netarch.discriminator_forward")
    for fn in ("full_generator_loss", "separated_discriminator_losses"):
        out[f"losses.{fn}.self_ms"] = self_ms(f"losses.{fn}")
    out["attnmask.split.calls"] = calls("attnmask.split")
    out["attnmask.split.ms"] = ms("attnmask.split")
    for fn in ("generator_phase", "discriminator_phase", "bundle_from_live", "save_checkpoint",
               "load_checkpoint", "restore_into", "build_models"):
        out[f"trainer.{fn}.ms"] = ms(f"trainer.{fn}")
    for fn in ("train", "train_step", "evaluate", "enhance_record"):
        out[f"trainer.{fn}.self_ms"] = self_ms(f"trainer.{fn}")
    for fn in ("load_image", "save_image", "load_pair", "load_depth", "load_manifest",
               "to_model_space", "from_model_space"):
        out[f"datapipe.{fn}.ms"] = ms(f"datapipe.{fn}")
    for fn in ("psnr", "ssim", "uiqm"):
        out[f"metrics.{fn}.ms"] = ms(f"metrics.{fn}")
    out["metrics.batch_report.self_ms"] = self_ms("metrics.batch_report")
    out["cli.enhance.self_ms"] = self_ms("cli.enhance")
    out["cli.eval.self_ms"] = self_ms("cli.eval")
    return out

