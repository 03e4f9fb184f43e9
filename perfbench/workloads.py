"""The benchmark's three workloads: set-up, measured window and correctness checks.

Each workload drives the package through its public functions only: the
measured work calls ``trainer.train`` or ``cli.main``; set-up calls
``datapipe.generate_synthetic_dataset`` and builds the models or loads the
checkpoint; the checks use the checkpoint and evaluation helpers. End-to-end figures
come from runs with tracing off and are read at the reference host speed: the
:mod:`speed` probe runs between train steps, CLI calls and set-up repeats, and
every end-to-end timing is scaled by its factor (the raw figures are report
lines). With ``trace`` set, untraced and traced train steps (or enhance + eval
passes) alternate so that the tracing overhead and the closure of the per-layer
self times are measured under the same machine load; those figures are raw.
"""
from __future__ import annotations

import contextlib
import ctypes
import ctypes.util
import gc
import hashlib
import io
import math
import os
import resource
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from harness import percentile, tail_percentile
from layers import Tracer, layer_metrics
from speed import Speed
from sepattn import cli, datapipe, trainer

try:  # glibc: hands freed heap pages back to the kernel
    _malloc_trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

#: set-up runs this many times before and after the measured window; ``setup_s`` is the median
SETUP_BEFORE, SETUP_AFTER = 3, 2
#: the desk_train per-layer self times must sum to within this share of the untraced step
CLOSURE_TOLERANCE = 0.10

#: per-layer metrics a run adds to :func:`layers.layer_metrics`
EXTRA_LAYER_METRICS = (
    "datapipe.generate_synthetic_dataset.s",
    "trace.untraced_step_ms_p50",
    "trace.traced_step_ms_p50",
    "trace.overhead_ms",
    "trace.self_sum_ms",
)


@dataclass
class Outcome:
    """What a workload hands back to the runner."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)
    inputs: dict = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        self.problems.append(message)


@contextlib.contextmanager
def timed_steps(sink: List[Tuple[float, bool]], tracer: Optional[Tracer] = None,
                speed: Optional[Speed] = None, probe_reps: int = 1):
    """Time every ``trainer.train_step`` call from outside as (seconds, traced).

    With an installed ``tracer``, every second step in ``sink`` is traced and
    the others run with the tracer dormant, so traced and untraced steps
    interleave under the same machine load. Between steps it stays active.
    With a ``speed``, the probe runs ``probe_reps`` times before each step,
    outside its timing; the seconds it took are summed in ``speed.probe_s``.
    """
    original = trainer.train_step

    def timed(*args, **kwargs):
        if speed is not None:
            speed.probe_s += speed.probe(probe_reps)
        traced = tracer is not None and len(sink) % 2 == 1
        if tracer is not None:
            tracer.active = traced
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds = perf_counter() - t0
            sink.append((seconds, traced))
            if tracer is not None:
                if not traced:  # keep the dormant step out of the enclosing span's self time
                    tracer.table.untraced(seconds)
                tracer.active = True

    trainer.train_step = timed
    try:
        yield
    finally:
        trainer.train_step = original


def tree_digest(*paths: Path) -> str:
    """SHA-256 over the relative names and bytes of every file under ``paths``."""
    h = hashlib.sha256()
    for root in paths:
        if root.is_dir():
            files = sorted((str(p.relative_to(root)), p) for p in root.rglob("*") if p.is_file())
        else:
            files = [(root.name, root)]
        for name, p in files:
            h.update(name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def degrade_params(seed: int):
    return replace(datapipe.DEGRADE_PRESETS["default"], seed=seed)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _same_tensors(a: Dict, b: Dict) -> bool:
    if a.keys() != b.keys():
        return False
    return all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()
        for k in a
    )


class SetUp:
    """A workload's set-up, run and timed several times in one run.

    ``build(dir)`` returns (value, render seconds, paths whose bytes the seed
    fixes); every repeat must produce identical files. The speed probe runs
    before each repeat, outside its timing. :meth:`before` runs ahead of the
    measured window and hands its first value to the window; :meth:`after`
    repeats once the window is over, so that ``seconds`` samples the host's
    file system at both ends of the run (set-up is mostly file writes, whose
    kernel time drifts over tens of seconds on a shared VM).
    """

    def __init__(self, work: Path, build: Callable, outcome: Outcome, speed: Speed):
        self.work, self.build, self.outcome, self.speed = work, build, outcome, speed
        self.seconds: List[float] = []
        self.render_s: List[float] = []
        self._digests: set = set()

    def _once(self, d: Path):
        self.speed.probe(3)
        t0 = perf_counter()
        value, render, fixed = self.build(d)
        self.seconds.append(perf_counter() - t0)
        self.render_s.append(render)
        self._digests.add(tree_digest(*fixed))
        return value

    def before(self):
        value = self._once(self.work / "setup0")
        for k in range(1, SETUP_BEFORE):
            self._once(self.work / f"setup{k}")
            shutil.rmtree(self.work / f"setup{k}")
        return value

    def after(self) -> None:
        for _ in range(SETUP_AFTER):
            self._once(self.work / "setup_late")
            shutil.rmtree(self.work / "setup_late")
        if len(self._digests) != 1:
            self.outcome.fail(1, "set-up with one seed produced different files on repeat")


def _units(seconds: float, min_units: int, modes: list):
    """Yield (index, tracer-or-None) until ``seconds`` pass and ``min_units`` of each mode ran.

    Modes alternate, and a started round of modes is always completed. Before
    each unit, outside its timing, garbage left by set-up or the last unit is
    collected and the freed heap pages are handed back to the kernel, so that no
    unit pays for or carries the leftovers of another.
    """
    start = perf_counter()
    i = 0
    while i < min_units * len(modes) or perf_counter() - start < seconds or i % len(modes):
        gc.collect()
        if _malloc_trim is not None:
            _malloc_trim(0)
        yield i, modes[i % len(modes)]
        i += 1


def _closure(outcome: Outcome, tracer: Tracer, per: int, untraced_ms: List[float],
             traced_ms: List[float], check: bool, what: str) -> None:
    untraced, traced = median(untraced_ms), median(traced_ms)
    self_sum = 1e3 * tracer.table.scoped_self / per  # every self time inside the scope spans
    outcome.metrics["trace.untraced_step_ms_p50"] = (untraced, "ms")
    outcome.metrics["trace.traced_step_ms_p50"] = (traced, "ms")
    outcome.metrics["trace.overhead_ms"] = (traced - untraced, "ms")
    outcome.metrics["trace.self_sum_ms"] = (self_sum, "ms")
    ratio = self_sum / untraced
    outcome.report.append(
        f"closure: per-layer self times sum to {self_sum:.3f} ms per {what}, "
        f"{ratio:.3f} x the untraced p50 {untraced:.3f} ms; tracing overhead "
        f"{traced - untraced:+.3f} ms ({traced / untraced - 1:+.1%})"
    )
    if check and abs(ratio - 1.0) > CLOSURE_TOLERANCE:
        outcome.fail(per, f"per-layer self times sum to {ratio:.3f} x the untraced step "
                          f"(allowed 1 +- {CLOSURE_TOLERANCE})")


# ---------------------------------------------------------------------------
# training workloads


@dataclass(frozen=True)
class TrainSpec:
    count: int  # pairs rendered; a tenth go to the test split
    size: int
    config: Callable  # seed -> TrainConfig for one trainer.train call
    min_units: int
    check_closure: bool
    probe_reps: int  # speed samples before each step


TRAIN_SPECS = {
    # 200 pairs -> 180 train pairs -> 36 steps of 5 per epoch; two or more
    # identical one-epoch calls, whose logs the determinism check compares
    "desk_train": TrainSpec(200, 64, lambda seed: trainer.desk_config(epochs=1, seed=seed), 2, True, 1),
    # 5 pairs -> 5 train pairs (no test split below 10) -> one full-scale step of
    # 5 per call, so the window ends within about a step; two or more calls
    "full_train": TrainSpec(5, 256, lambda seed: trainer.TrainConfig(epochs=1, seed=seed), 2, False, 8),
}


def _check_train_call(outcome: Outcome, bundle, log_path: Path, out_dir: Path,
                      expected_steps: int, reference: Optional[List[str]]) -> List[str]:
    """Check one trainer.train call; returns its loss columns (log minus ``ms``).

    A step fails when its losses are not finite or differ from the reference
    call's, which ran with the same seed. Every step fails when the log is
    short or the final checkpoint does not reload to the returned tensors.
    """
    rows = log_path.read_text().splitlines()[1:]
    losses = [r.rsplit(",", 1)[0] for r in rows]
    outcome.attempted += expected_steps
    bad = {i for i, r in enumerate(losses)
           if not all(math.isfinite(float(v)) for v in r.split(",")[2:])}
    problems = [f"non-finite losses in log rows {sorted(bad)[:5]}"] if bad else []
    if reference is not None:
        differ = {i for i, (a, b) in enumerate(zip(losses, reference)) if a != b}
        if differ:
            bad |= differ
            problems.append(f"same seed, different loss columns in rows {sorted(differ)[:5]}")
    if len(rows) != expected_steps:
        bad = set(range(expected_steps))
        problems.append(f"log has {len(rows)} rows, expected {expected_steps}")
    loaded = trainer.load_checkpoint(out_dir / "ckpt_final.satt")
    if not (_same_tensors(bundle.tensors, loaded.tensors) and bundle.state == loaded.state
            and bundle.config == loaded.config):
        bad = set(range(expected_steps))
        problems.append("final checkpoint does not reload to equal tensors")
    if bad:
        outcome.fail(len(bad), "; ".join(problems))
    return losses


def train_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    spec = TRAIN_SPECS[name]
    config = spec.config(seed)
    outcome = Outcome()

    def build(d: Path):
        t0 = perf_counter()
        manifest = datapipe.generate_synthetic_dataset(
            spec.count, spec.size, degrade_params(seed), seed, d / "data"
        )
        render = perf_counter() - t0
        trainer.build_models(config)
        return manifest, render, [d / "data"]

    speed = Speed()
    setup = SetUp(work, build, outcome, speed)
    manifest = setup.before()
    n_train = len(manifest.ids("train"))
    steps_per_call = -(-n_train // config.batch_size) * config.epochs
    outcome.inputs = {
        "pairs": spec.count, "train_pairs": n_train, "image_px": spec.size,
        "batch": config.batch_size, "epochs_per_call": config.epochs, "steps_per_call": steps_per_call,
        "generator_depth": config.generator.depth, "generator_base_channels": config.generator.base_channels,
        "discriminator_layers": config.discriminator.num_layers,
        "discriminator_base_channels": config.discriminator.base_channels,
    }

    # traced runs keep the tracer installed and alternate it per step (see
    # timed_steps)
    tracer = Tracer(scope=("trainer.train_step",)) if trace else None
    steps: List[Tuple[float, bool]] = []
    rates: List[float] = []
    reference = None
    for i, _ in _units(seconds, max(spec.min_units, 2) if trace else spec.min_units, [tracer]):
        out_dir = work / f"call{i}"
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer)
            stack.enter_context(timed_steps(steps, tracer, None if trace else speed, spec.probe_reps))
            speed.probe_s = 0.0
            t0 = perf_counter()
            bundle, log_path = trainer.train(manifest, config, out_dir)
            rates.append(n_train * config.epochs / (perf_counter() - t0 - speed.probe_s))
        losses = _check_train_call(outcome, bundle, Path(log_path), out_dir, steps_per_call, reference)
        reference = reference or losses
        shutil.rmtree(out_dir)
    peak_mb = peak_rss_mb()
    setup.after()

    untraced_ms = [1e3 * s for s, traced in steps if not traced]
    if not trace:
        tail = tail_percentile(len(untraced_ms))
        f = speed.factor
        outcome.metrics = {
            "setup_s": (median(setup.seconds) * f, "s"),
            "step_ms_p50": (median(untraced_ms) * f, "ms"),
            "throughput_per_s": (median(rates) / f, "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        outcome.report += [
            speed.report(),
            f"setup_s {median(setup.seconds):.4f} s (median of {len(setup.seconds)} set-ups)",
            f"train_step_ms_p50 {median(untraced_ms):.3f} ms (n={len(untraced_ms)} steps)",
            (f"train_step_ms_tail {percentile(untraced_ms, tail):.3f} ms = p{tail:g} "
             f"of n={len(untraced_ms)} steps" if tail is not None else
             f"train_step_ms_tail n/a: n={len(untraced_ms)} steps leave fewer than 10 beyond the median"),
            f"train_samples_per_s {median(rates):.4f} 1/s (median of {len(rates)} trainer.train calls)",
        ]
        return outcome

    traced_ms = [1e3 * s for s, traced in steps if traced]
    outcome.metrics = layer_metrics(tracer, len(traced_ms), len(steps))
    outcome.metrics["datapipe.generate_synthetic_dataset.s"] = (median(setup.render_s), "s")
    _closure(outcome, tracer, len(traced_ms), untraced_ms, traced_ms, spec.check_closure, "train step")
    return outcome


# ---------------------------------------------------------------------------
# inference and scoring workload

INFER_PAIRS = 300  # sepattn enhance runs on every distorted image
INFER_CKPT_PAIRS = 11  # 10 train pairs -> 2 desk steps make the checkpoint
#: eval scores the 270 train-split images: none of them trained the checkpoint,
#: which comes from a separately seeded set, and the test split holds only 30
EVAL_SPLIT = "train"


def _load_generator(ckpt: Path):
    bundle = trainer.load_checkpoint(ckpt)
    config = trainer.TrainConfig.from_dict(bundle.config)
    models = trainer.build_models(config)
    trainer.restore_into(bundle, models, trainer.build_optimizers(models, config.lr))
    return models["gen_xy"]


@dataclass
class _Pass:
    """One ``sepattn enhance`` + ``sepattn eval`` pass over the image set."""

    traced: bool
    enhance_s: float
    eval_s: float
    digests: Dict[str, str]  # enhanced file name -> SHA-256
    eval_out: str  # what eval printed
    eval_ok: bool  # exit 0 and a complete, finite CSV


def _digests(directory: Path) -> Dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in directory.iterdir()}


def _after_label(text: str, label: str) -> Optional[str]:
    """The rest of the first line of ``text`` that starts with ``label``."""
    return next((ln[len(label):] for ln in text.splitlines() if ln.startswith(label)), None)


def _check_eval_csv(csv: Path, n_eval: int) -> bool:
    lines = csv.read_text().splitlines()
    if len(lines) != n_eval + 3 or not lines[-2].startswith("MEAN,") or not lines[-1].startswith("STD,"):
        return False
    return all(math.isfinite(float(v)) for ln in lines[1:] for v in ln.split(",")[1:])


def infer_workload(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    outcome = Outcome()
    data_seed, ckpt_seed = 2 * seed, 2 * seed + 1  # disjoint scenes for every --seed

    def build(d: Path):
        t0 = perf_counter()
        manifest = datapipe.generate_synthetic_dataset(
            INFER_PAIRS, 64, degrade_params(data_seed), data_seed, d / "data"
        )
        render = perf_counter() - t0
        small = datapipe.generate_synthetic_dataset(
            INFER_CKPT_PAIRS, 64, degrade_params(ckpt_seed), ckpt_seed, d / "ckpt_data"
        )
        trainer.train(small, trainer.desk_config(epochs=1, seed=seed), d / "ckpt")
        ckpt = d / "ckpt" / "ckpt_final.satt"
        return (manifest, ckpt, _load_generator(ckpt)), render, [d / "data", ckpt]

    speed = Speed()
    setup = SetUp(work, build, outcome, speed)
    manifest, ckpt, gen = setup.before()
    data = Path(manifest.root)
    inputs = sorted((data / "distorted").iterdir())
    n_enh, n_eval = len(inputs), len(manifest.ids(EVAL_SPLIT))
    outcome.inputs = {
        "enhance_images": n_enh, "eval_images": n_eval, "eval_split": EVAL_SPLIT, "image_px": 64,
        "checkpoint": f"desk profile, {INFER_CKPT_PAIRS - 1} pairs x 1 epoch",
    }

    tracer = Tracer(scope=("cli.enhance", "cli.eval")) if trace else None
    modes = [None, tracer] if trace else [None]
    passes: List[_Pass] = []
    out_dir, csv = work / "enhanced", work / "report.csv"
    enhance_args = ["enhance", "--checkpoint", str(ckpt), "--in", str(data / "distorted"), "--out", str(out_dir)]
    # Every pass enhances into the same output directory, whose files an
    # untimed first call creates. On this kind of VM creating 300 files in a
    # fresh directory costs about five times the kernel time of rewriting them
    # and swings with the host's file system state, which would swamp the
    # package's own time. Each pass first truncates the files, outside its
    # timing, so a file the pass failed to write cannot pass the output check.
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(enhance_args)
    for _, mode in _units(seconds, 2, modes):
        for out in out_dir.iterdir():
            os.truncate(out, 0)
        stdout = io.StringIO()
        with contextlib.ExitStack() as stack:
            if mode is not None:
                stack.enter_context(mode)
            stack.enter_context(contextlib.redirect_stdout(stdout))
            if not trace:
                speed.probe(3)
            t0 = perf_counter()
            rc_enh = cli.main(enhance_args)
            enhance_s = perf_counter() - t0
            if not trace:
                speed.probe(3)
            t0 = perf_counter()
            rc_eval = cli.main(["eval", "--checkpoint", str(ckpt), "--data", str(data),
                                "--split", EVAL_SPLIT, "--csv", str(csv)])
            eval_s = perf_counter() - t0
        passes.append(_Pass(
            traced=mode is not None, enhance_s=enhance_s, eval_s=eval_s,
            digests=_digests(out_dir) if rc_enh == 0 else {},
            eval_out=stdout.getvalue(), eval_ok=rc_eval == 0 and _check_eval_csv(csv, n_eval),
        ))
    peak_mb = peak_rss_mb()  # before the checks below, which hold reference outputs
    setup.after()

    # references, computed after the window: enhance_record per image, identity eval
    ref_dir = work / "reference"
    ref_dir.mkdir()
    for src in inputs:
        datapipe.save_image(trainer.enhance_record(gen, datapipe.load_image(src)), ref_dir / src.name)
    reference = _digests(ref_dir)
    identity = trainer.evaluate("identity", manifest, split=EVAL_SPLIT)
    ident_text = identity.to_text()
    if not (identity.model.ids == identity.input_baseline.ids
            and identity.model.rows == identity.input_baseline.rows
            and _after_label(ident_text, "input:") == _after_label(ident_text, "model:")):
        outcome.fail(n_eval, "evaluate('identity') differs from the input baseline")
    for p in passes:
        outcome.attempted += n_enh + n_eval
        bad_enh = sum(p.digests.get(k) != v for k, v in reference.items())
        if bad_enh:
            outcome.fail(bad_enh, f"sepattn enhance: {bad_enh} outputs missing or unlike enhance_record")
        if not (p.eval_ok and _after_label(p.eval_out, "input:") == _after_label(ident_text, "input:")):
            outcome.fail(n_eval, "sepattn eval: bad exit or CSV, or input baseline unlike identity eval")

    untraced = [p for p in passes if not p.traced]
    if not trace:
        f = speed.factor
        outcome.metrics = {
            "setup_s": (median(setup.seconds) * f, "s"),
            "step_ms_p50": (median([1e3 * p.enhance_s / n_enh for p in untraced]) * f, "ms"),
            "throughput_per_s": (median([n_eval / p.eval_s for p in untraced]) / f, "1/s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        outcome.report += [
            speed.report(),
            f"setup_s {median(setup.seconds):.4f} s (median of {len(setup.seconds)} set-ups)",
            f"enhance_images_per_s {median([n_enh / p.enhance_s for p in untraced]):.4f} 1/s "
            f"(median of {len(untraced)} passes over {n_enh} images)",
            f"eval_images_per_s {median([n_eval / p.eval_s for p in untraced]):.4f} 1/s "
            f"(median of {len(untraced)} passes over {n_eval} images)",
        ]
        return outcome

    traced = [p for p in passes if p.traced]
    per = len(traced) * (n_enh + n_eval)
    outcome.metrics = layer_metrics(tracer, per, per)
    outcome.metrics["datapipe.generate_synthetic_dataset.s"] = (median(setup.render_s), "s")
    per_image = [[1e3 * (p.enhance_s + p.eval_s) / (n_enh + n_eval) for p in ps] for ps in (untraced, traced)]
    _closure(outcome, tracer, per, per_image[0], per_image[1], False, "image")
    return outcome


def run(name: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    if name == "infer_eval":
        return infer_workload(seed, seconds, trace, work)
    return train_workload(name, seed, seconds, trace, work)
