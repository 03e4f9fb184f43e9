"""Headline acceptance gates, one test per guarantee.

The full-scale reference results quoted in test 1 are not reachable on a
desktop CPU, so everything below accepts on properties and oracles: exact
worked values, independent scalar re-evaluations, partition identities,
determinism, and a small end-to-end training run with pinned improvement
floors.
"""
import csv
import hashlib
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sepattn import attnmask, losses, metrics
from sepattn.datapipe import DEGRADE_PRESETS, generate_synthetic_dataset, load_pair
from sepattn.diffcore import Tensor4, backward
from sepattn.diffcore.gradcheck import OP_CASES, run_registry
from sepattn.losses import LossWeights
from sepattn.trainer import (
    build_models,
    build_optimizers,
    bundle_from_live,
    desk_config,
    discriminator_phase,
    evaluate,
    generator_phase,
    load_checkpoint,
    restore_into,
    save_checkpoint,
    train,
    train_step,
)

# full-scale reference results (EUVP corpus, 60K-70K GPU iterations)
FULL_SCALE_RESULTS = {"psnr": (23.79, 2.53), "ssim": (0.741, 0.046), "uiqm": (3.17, 0.302)}
FULL_SCALE_ITERATIONS = 60_000

# desk-run improvement floors on the held-out split
MIN_PSNR_GAIN_DB = 1.0
MIN_SSIM_GAIN = 0.02
MAX_DESK_SECONDS = 30 * 60


# ---------------------------------------------------------------------------
# shared desk-scale run (tests 6 and 7)


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """200-pair synthetic dataset, full desk training schedule, timed."""
    root = tmp_path_factory.mktemp("desk")
    manifest = generate_synthetic_dataset(
        200, 64, DEGRADE_PRESETS["default"], seed=7, out_root=root / "data"
    )
    config = desk_config()
    t0 = time.perf_counter()
    bundle, log_path = train(manifest, config, root / "run")
    seconds = time.perf_counter() - t0
    return manifest, config, bundle, Path(log_path), seconds


def param_hashes(models) -> dict:
    out = {}
    for name, model in models.items():
        h = hashlib.sha256()
        for pid in sorted(model.params):
            h.update(model.params[pid].tensor.data.tobytes())
        out[name] = h.hexdigest()
    return out


def small_batch(manifest, config):
    ids = manifest.ids("train")[: config.batch_size]
    return [load_pair(manifest, i) for i in ids]


# ---------------------------------------------------------------------------
# 1. scope statement


def test_1_full_scale_reference_results_out_of_desk_scope():
    """Published full-scale numbers need EUVP + GPU-scale iteration counts.

    PSNR 23.79 +/- 2.53 dB, SSIM 0.741 +/- 0.046, UIQM 3.17 +/- 0.302 come
    from a 60K-70K-iteration schedule over the EUVP corpus. The desk profile
    runs under 2% of that schedule at a quarter of the linear resolution, so
    those numbers are out of scope here and the remaining tests accept on
    properties and oracles instead.
    """
    config = desk_config()
    steps_per_epoch = math.ceil(180 / config.batch_size)
    desk_steps = config.epochs * steps_per_epoch
    assert desk_steps < FULL_SCALE_ITERATIONS // 50
    assert config.image_size <= 256 // 4
    for name, (mean, std) in FULL_SCALE_RESULTS.items():
        assert std > 0, name  # quoted as mean +/- std, both positive
    print(
        "full-scale reference results "
        + ", ".join(f"{k} {m} +/- {s}" for k, (m, s) in FULL_SCALE_RESULTS.items())
        + f" are out of desk scope ({desk_steps} desk steps vs "
        f"{FULL_SCALE_ITERATIONS}+ full-scale iterations)"
    )


# ---------------------------------------------------------------------------
# 2. gradient suite


def test_2_gradient_suite_five_seeds_within_tolerance_under_60s():
    t0 = time.perf_counter()
    results = run_registry(seeds=(0, 1, 2, 3, 4), epsilon=1e-3, tolerance=1e-3)
    elapsed = time.perf_counter() - t0
    per_op = {}
    for r in results:
        per_op.setdefault(r.name.split("[")[0], []).append(r)
    assert sorted(per_op) == sorted(OP_CASES)
    for op, rs in per_op.items():
        assert len(rs) >= 5, op
        worst = max(r.max_rel_error for r in rs)
        assert worst < 1e-3, f"{op}: max rel err {worst:.3e}"
        assert all(r.passed for r in rs), op
    assert elapsed < 60.0, f"registry took {elapsed:.1f}s"
    print(f"{len(per_op)} ops x 5 seeds in {elapsed:.1f}s, all < 1e-3")


# ---------------------------------------------------------------------------
# 3. masking partition identity


def test_3_mask_partition_identity_on_100_pairs_plus_edge_depths():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        img = Tensor4(rng.uniform(-1, 1, (2, 3, 16, 16)).astype(np.float32))
        depth = rng.uniform(0, 1, (16, 16)).astype(np.float32)
        fg, bg = attnmask.split(img, depth)
        worst = max(worst, float(np.abs(fg.data + bg.data - img.data).max()))
    assert worst < 1e-6, f"partition residual {worst:.2e}"

    img = Tensor4(rng.uniform(-1, 1, (1, 3, 8, 8)).astype(np.float32))
    for const in (0.0, 1.0, 0.5):
        depth = np.full((8, 8), const, np.float32)
        fg, bg = attnmask.split(img, depth)
        assert np.array_equal(fg.data, img.data * np.float32(const))
        assert np.array_equal(fg.data + bg.data, img.data)
    print(f"100 random pairs max residual {worst:.2e}; depth 0/1/0.5 exact")


# ---------------------------------------------------------------------------
# 4. loss algebra


def test_4_loss_algebra_worked_values_and_gradient_decomposition():
    rng = np.random.default_rng(4)
    img = Tensor4(rng.uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32))
    assert losses.cycle_loss(img, img).item() == 0.0

    ones = Tensor4(np.ones((2, 1, 4, 4), np.float32))
    zeros = Tensor4(np.zeros((2, 1, 4, 4), np.float32))
    assert losses.gan_generator_loss(ones).item() == 0.0
    assert losses.gan_discriminator_loss(ones, zeros).item() == 0.0

    w = LossWeights()  # cycle 10, fg 7, bg 3
    assert losses.attention_objective(1.8, 0.6, w) == 14.4

    # grad(total) = mu * grad(L_fg) + alpha * grad(L_bg), per generator param
    from sepattn import netarch

    gen_cfg = netarch.GeneratorConfig(depth=2, base_channels=4, max_channels=8)
    disc_cfg = netarch.DiscriminatorConfig(num_layers=2, base_channels=4)
    worst_rel = 0.0
    for seed in (0, 1, 2):
        models = {
            "gen_xy": netarch.Generator(gen_cfg, 16, seed=seed),
            "gen_yx": netarch.Generator(gen_cfg, 16, seed=seed + 1),
            "disc_x": netarch.Discriminator(disc_cfg, 16, seed=seed + 2),
            "disc_y": netarch.Discriminator(disc_cfg, 16, seed=seed + 3),
        }
        g = np.random.default_rng(seed)
        x = Tensor4(g.uniform(-1, 1, (2, 3, 16, 16)).astype(np.float32))
        y = Tensor4(g.uniform(-1, 1, (2, 3, 16, 16)).astype(np.float32))
        depth = g.uniform(0, 1, (16, 16)).astype(np.float32)

        def grads_of(scalar, models=models):
            for m in models.values():
                m.zero_grads()
            backward(scalar)
            return {
                f"{n}/{pid}": (p.tensor.grad.copy() if p.tensor.grad is not None else 0.0)
                for n in ("gen_xy", "gen_yx")
                for pid, p in models[n].params.items()
            }

        total, _, parts = losses.full_generator_loss(
            x, y, depth, models, w, return_parts=True
        )
        g_total = grads_of(total)
        g_fg = grads_of(parts["combined_fg"])
        g_bg = grads_of(parts["combined_bg"])
        for key, got in g_total.items():
            want = w.fg_attention * g_fg[key] + w.bg_attention * g_bg[key]
            scale = max(np.abs(got).max(), 1e-12)
            rel = np.abs(got - want).max() / scale
            worst_rel = max(worst_rel, rel)
            assert rel < 1e-5, f"{key}: rel {rel:.2e}"
    print(f"loss algebra exact; decomposition worst rel {worst_rel:.2e} over 3 seeds")


# ---------------------------------------------------------------------------
# 5. metric oracles


def _ref_psnr(a, b):
    se, n = 0.0, 0
    for x, y in zip(a.reshape(-1).tolist(), b.reshape(-1).tolist()):
        se += (float(x) - float(y)) ** 2
        n += 1
    mse = se / n
    return 99.0 if mse == 0 else 10.0 * math.log10(255.0**2 / mse)


def _ref_luma(img):
    if img.shape[0] == 1:
        return img[0].astype(np.float64)
    r, g, b = (img[i].astype(np.float64) for i in range(3))
    return 0.299 * r + 0.587 * g + 0.114 * b


def _ref_ssim_global(a, b):
    x, y = _ref_luma(a).reshape(-1).tolist(), _ref_luma(b).reshape(-1).tolist()
    n = len(x)
    mx, my = sum(x) / n, sum(y) / n
    vx = sum((v - mx) ** 2 for v in x) / n
    vy = sum((v - my) ** 2 for v in y) / n
    cov = sum((u - mx) * (v - my) for u, v in zip(x, y)) / n
    c1, c2 = 6.5025, 58.5225
    return ((2 * mx * my + c1) * (2 * cov + c2)) / ((mx**2 + my**2 + c1) * (vx + vy + c2))


def test_5_metric_oracles_match_independent_scalar_references():
    rng = np.random.default_rng(5)
    worst_p = worst_s = 0.0
    for _ in range(20):
        a = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
        b = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
        worst_p = max(worst_p, abs(metrics.psnr(a, b) - _ref_psnr(a, b)) / _ref_psnr(a, b))
        ref = _ref_ssim_global(a, b)
        worst_s = max(worst_s, abs(metrics.ssim(a, b) - ref) / abs(ref))
    assert worst_p < 1e-9
    assert worst_s < 1e-9

    black = np.zeros((3, 8, 8), np.uint8)
    white = np.full((3, 8, 8), 255, np.uint8)
    assert metrics.psnr(black, white) == 0.0
    off_by_one = black.copy()
    off_by_one += 1  # MSE exactly 1
    assert metrics.psnr(black, off_by_one) == pytest.approx(10 * math.log10(255**2), abs=1e-9)
    assert 48.12 < metrics.psnr(black, off_by_one) < 48.14

    assert metrics.ssim(black, black) == 1.0
    opposite = metrics.ssim(black, white)
    assert opposite == pytest.approx(6.5025 / 65031.5025, rel=1e-12)
    assert opposite == pytest.approx(9.999e-5, abs=1e-8)

    gray = np.full((3, 16, 16), 128, np.uint8)
    assert metrics.uiqm(gray) == 0.0
    vivid = rng.integers(0, 256, (3, 32, 32), dtype=np.uint8)
    direct = 0.0282 * metrics.uicm(vivid) + 0.2953 * metrics.uism(vivid) + 3.5753 * metrics.uiconm(vivid)
    assert metrics.uiqm(vivid) == pytest.approx(direct, rel=1e-9)
    print(f"psnr worst rel {worst_p:.1e}, ssim worst rel {worst_s:.1e}; worked values exact")


# ---------------------------------------------------------------------------
# 6 + 7. end-to-end desk-scale training


def test_6_desk_training_improves_heldout_psnr_and_ssim(desk_run):
    manifest, config, bundle, log_path, seconds = desk_run
    assert seconds < MAX_DESK_SECONDS, f"desk run took {seconds:.0f}s"
    result = evaluate(bundle, manifest, split="test", metric_names=("psnr", "ssim"))
    model = result.model.aggregate()
    base = result.input_baseline.aggregate()
    dpsnr = model["psnr"][0] - base["psnr"][0]
    dssim = model["ssim"][0] - base["ssim"][0]
    assert dpsnr >= MIN_PSNR_GAIN_DB, f"PSNR gain {dpsnr:+.2f} dB < +{MIN_PSNR_GAIN_DB}"
    assert dssim >= MIN_SSIM_GAIN, f"SSIM gain {dssim:+.4f} < +{MIN_SSIM_GAIN}"
    print(
        f"held-out gains: PSNR {dpsnr:+.2f} dB (floor +{MIN_PSNR_GAIN_DB}), "
        f"SSIM {dssim:+.4f} (floor +{MIN_SSIM_GAIN}); wall {seconds:.0f}s"
    )


def test_7_cycle_term_at_least_halves_over_desk_run(desk_run):
    _, config, _, log_path, _ = desk_run
    by_epoch = {}
    with open(log_path) as fh:
        for row in csv.DictReader(fh):
            by_epoch.setdefault(int(row["epoch"]), []).append(float(row["cycle"]))
    assert len(by_epoch) == config.epochs
    first_epoch, last_epoch = min(by_epoch), max(by_epoch)
    first = sum(by_epoch[first_epoch]) / len(by_epoch[first_epoch])
    last = sum(by_epoch[last_epoch]) / len(by_epoch[last_epoch])
    assert last <= 0.5 * first, f"cycle {first:.4f} -> {last:.4f} (needs <= 50%)"
    print(f"epoch-avg cycle {first:.4f} -> {last:.4f} ({last / first:.1%})")


# ---------------------------------------------------------------------------
# 8. determinism & persistence


def test_8_first_10_log_steps_bitwise_identical_and_checkpoint_roundtrip(tmp_path):
    # 22 pairs -> 20 train pairs -> exactly 10 steps at batch 2
    manifest = generate_synthetic_dataset(
        22, 64, DEGRADE_PRESETS["default"], seed=13, out_root=tmp_path / "data"
    )
    config = replace(desk_config(), epochs=1, batch_size=2, checkpoint_every=1)

    def first_10_rows(out):
        train(manifest, config, out)
        rows = (out / "train_log.csv").read_text().splitlines()[1:11]
        assert len(rows) == 10
        return [r.rsplit(",", 1)[0] for r in rows]  # drop wall-clock ms

    assert first_10_rows(tmp_path / "run_a") == first_10_rows(tmp_path / "run_b")

    # round-trip: a restored checkpoint reproduces the next step bitwise
    models = build_models(config)
    optims = build_optimizers(models, config.lr)
    batch = small_batch(manifest, config)
    train_step(batch, models, optims, config, 0, 1)
    save_checkpoint(bundle_from_live(models, optims, config, 1, 1), tmp_path / "c.satt")

    fresh = build_models(config)
    fresh_opt = build_optimizers(fresh, config.lr)
    restore_into(load_checkpoint(tmp_path / "c.satt"), fresh, fresh_opt)
    row_live = train_step(batch, models, optims, config, 0, 2)
    row_restored = train_step(batch, fresh, fresh_opt, config, 0, 2)
    live = row_live.csv_line().rsplit(",", 1)[0]
    restored = row_restored.csv_line().rsplit(",", 1)[0]
    assert live == restored
    print("first 10 log rows identical across runs; round-trip step bitwise equal")


# ---------------------------------------------------------------------------
# 9. parameter partition


def test_9_phase_updates_touch_only_their_own_parameters(tmp_path):
    manifest = generate_synthetic_dataset(
        6, 16, DEGRADE_PRESETS["default"], seed=21, out_root=tmp_path / "data"
    )
    from sepattn.netarch import DiscriminatorConfig, GeneratorConfig
    from sepattn.trainer import TrainConfig

    config = TrainConfig(
        batch_size=2,
        epochs=1,
        image_size=16,
        seed=9,
        generator=GeneratorConfig(depth=2, base_channels=4, max_channels=8),
        discriminator=DiscriminatorConfig(num_layers=2, base_channels=4),
    )
    models = build_models(config)
    optims = build_optimizers(models, config.lr)
    from sepattn import trainer as trainer_mod

    x, y, depth = trainer_mod._stack_batch(small_batch(manifest, config))

    before = param_hashes(models)
    generator_phase(x, y, depth, models, optims, config)
    after_g = param_hashes(models)
    assert after_g["disc_x"] == before["disc_x"]
    assert after_g["disc_y"] == before["disc_y"]
    assert after_g["gen_xy"] != before["gen_xy"]
    assert after_g["gen_yx"] != before["gen_yx"]

    discriminator_phase(x, y, depth, models, optims, config)
    after_d = param_hashes(models)
    assert after_d["gen_xy"] == after_g["gen_xy"]
    assert after_d["gen_yx"] == after_g["gen_yx"]
    assert after_d["disc_x"] != after_g["disc_x"]
    assert after_d["disc_y"] != after_g["disc_y"]
    print("generator phase froze discriminators; discriminator phase froze generators")
