"""Training loop behavior: stepping, partition, determinism, checkpoints."""
import hashlib
import json
import math
import re
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sepattn import cli, datapipe, trainer
from sepattn.datapipe import DegradeParams, generate_synthetic_dataset, load_pair
from sepattn.diffcore import ShapeError, Tensor4, adam_step, backward
from sepattn.losses import full_generator_loss
from sepattn.metrics import batch_report
from sepattn.netarch import DiscriminatorConfig, Generator, GeneratorConfig
from sepattn.trainer import (
    LOG_FIELDS,
    LOG_HEADER,
    CheckpointBundle,
    CheckpointError,
    TrainConfig,
    build_models,
    build_optimizers,
    bundle_from_live,
    config_hash,
    desk_config,
    discriminator_phase,
    evaluate,
    generator_phase,
    load_checkpoint,
    load_generator,
    restore_into,
    save_checkpoint,
    train,
    train_step,
)


# SHA-256 of the checkpoint ``TestCheckpoint.test_layout_is_pinned`` writes
PINNED_LAYOUT_SHA256 = "ff69f070de95b49ab97ed862e875e71332212cfb096cb76a38224bcb82500398"


def tiny_config(**overrides) -> TrainConfig:
    cfg = TrainConfig(
        batch_size=2,
        epochs=2,
        image_size=16,
        seed=3,
        checkpoint_every=2,
        generator=GeneratorConfig(depth=2, base_channels=4, max_channels=8),
        discriminator=DiscriminatorConfig(num_layers=2, base_channels=4),
    )
    return replace(cfg, **overrides) if overrides else cfg


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    return generate_synthetic_dataset(8, 16, DegradeParams(), seed=5, out_root=root)


def first_batch(manifest, config):
    ids = manifest.ids("train")[: config.batch_size]
    return [load_pair(manifest, i) for i in ids]


def model_bytes(model) -> bytes:
    h = hashlib.sha256()
    for pid in sorted(model.params):
        h.update(model.params[pid].tensor.data.tobytes())
    for bid, arr in sorted(model.buffers().items()):
        h.update(arr.tobytes())
    return h.digest()


def as_version_1(raw: bytes) -> bytes:
    """A saved checkpoint in the retired version 1 layout: same records, no CRC32 trailer."""
    return raw[:4] + (1).to_bytes(4, "little") + raw[8:-4]


def sealed_body(body: bytes) -> bytes:
    """``body`` with the CRC32 trailer a checkpoint ends in."""
    return body + zlib.crc32(body).to_bytes(4, "little")


def strip_ms(csv_text: str) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in csv_text.strip().splitlines())


class TestConfig:
    def test_full_scale_defaults(self):
        cfg = TrainConfig()
        assert cfg.cycle_weight == 10.0
        assert cfg.fg_attention == 7.0
        assert cfg.bg_attention == 3.0
        assert cfg.batch_size == 5
        assert cfg.lr == 2e-4
        assert cfg.epochs == 100
        assert cfg.image_size == 256

    def test_desk_profile(self):
        cfg = desk_config()
        assert cfg.image_size == 64
        assert cfg.epochs == 30
        assert cfg.generator.depth == 3
        assert cfg.generator.base_channels == 16
        assert cfg.discriminator.num_layers == 3
        assert cfg.seed == 7

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="batch_size"):
            tiny_config(batch_size=0)
        with pytest.raises(ValueError, match="lr"):
            tiny_config(lr=0.0)
        with pytest.raises(ValueError, match="fg_attention"):
            tiny_config(fg_attention=0.5)

    def test_every_construction_checks(self):
        with pytest.raises(ValueError, match="lr must be positive"):
            replace(desk_config(), lr=0.0)
        with pytest.raises(ValueError, match="epochs must be >= 0"):
            TrainConfig.from_dict({"epochs": -1})

    @pytest.mark.parametrize(
        "key, value",
        [("lr", math.nan), ("lr", math.inf), ("cycle_weight", math.nan), ("fg_attention", math.nan)],
    )
    def test_non_finite_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})

    @pytest.mark.parametrize(
        "build, field, value",
        [
            (TrainConfig, "epochs", math.nan),
            (TrainConfig, "batch_size", math.nan),
            (TrainConfig, "seed", math.nan),
            (TrainConfig, "epochs", 2.5),
            (TrainConfig, "checkpoint_every", 10.0),
            (TrainConfig, "image_size", 64.0),
            (TrainConfig, "batch_size", True),
            (GeneratorConfig, "depth", math.nan),
            (GeneratorConfig, "base_channels", 16.0),
            (GeneratorConfig, "max_channels", False),
            (DiscriminatorConfig, "num_layers", math.nan),
            (DiscriminatorConfig, "base_channels", True),
            (DiscriminatorConfig, "max_channels", 512.0),
        ],
    )
    def test_int_fields_refuse_bool_float_and_nan(self, build, field, value):
        message = f"{build.__name__} field {field!r} must be int, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(**{field: value})

    def test_int_fields_take_numpy_ints(self):
        assert TrainConfig(epochs=np.int64(3), seed=np.int32(1)).epochs == 3

    @pytest.mark.parametrize("key, value", [("epochs", 2.5), ("batch_size", True), ("seed", 1.0)])
    def test_json_int_fields_keep_their_message(self, key, value):
        doc = {**tiny_config().to_dict(), key: value}
        with pytest.raises(ValueError, match=re.escape(f"config key {key!r} must be int, got {value!r}")):
            TrainConfig.from_dict(doc)

    def test_dict_round_trip(self):
        cfg = tiny_config()
        back = TrainConfig.from_dict(cfg.to_dict())
        assert back == cfg

    @pytest.mark.parametrize(
        "key, value",
        [
            ("gan_kind", "neg_log_likelihood"),
            ("shared_region_discriminators", False),
            ("shared_region_discriminators", 1),
        ],
    )
    def test_retired_modes_rejected(self, key, value):
        doc = {**tiny_config().to_dict(), key: value}
        with pytest.raises(ValueError, match=key):
            TrainConfig.from_dict(doc)

    # keys earlier configs carried, each at the one value it could still hold
    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "gan_kind", "least_squares"),
            (None, "shared_region_discriminators", True),
            ("generator", "image_size", 16),
            ("generator", "in_channels", 3),
            ("generator", "kernel", 4),
            ("generator", "leaky_slope", 0.2),
            ("generator", "bn_epsilon", 1e-5),
            ("generator", "bn_momentum", 0.1),
            ("discriminator", "image_size", None),
            ("discriminator", "in_channels", 6),
            ("discriminator", "kernel", 3),
            ("discriminator", "stride", 2),
            ("discriminator", "leaky_slope", 0.2),
            ("discriminator", "bn_epsilon", 1e-5),
            ("discriminator", "bn_momentum", 0.1),
        ],
    )
    def test_retired_keys_are_unknown(self, section, key, value):
        doc = tiny_config().to_dict()
        if section is None:
            doc[key] = value
            message = f"unknown config keys [{key!r}]"
        else:
            doc[section] = {**doc[section], key: value}
            message = f"unknown {section} keys ['{section}.{key}']"
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig.from_dict(doc)

    def test_bare_candidate_discriminator_rejected(self):
        doc = tiny_config().to_dict()
        doc["discriminator"] = {**doc["discriminator"], "in_channels": 3}
        with pytest.raises(ValueError, match="discriminator.in_channels"):
            TrainConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"batch_size": "5"}, "batch_size"),
            ({"epochs": 1.5}, "epochs"),
            ({"seed": True}, "seed"),
            ({"lr": "fast"}, "lr"),
            ({"generator": 5}, "generator"),
            ({"generator": None}, "generator"),
            ({"generator": {"depth": "3"}}, "depth"),
            ({"discriminator": {"image_size": 16.0}}, "image_size"),
            ({"cycle_weight": float("nan")}, "cycle_weight"),
            ({"lr": float("inf")}, "lr"),
            ({"fg_attention": float("-inf")}, "fg_attention"),
            ({"lr": 10**400}, "lr"),
        ],
    )
    def test_mistyped_values_rejected(self, override, key):
        doc = {**tiny_config().to_dict(), **override}
        with pytest.raises(ValueError, match=key):
            TrainConfig.from_dict(doc)

    def test_float_fields_take_ints(self):
        doc = {**tiny_config().to_dict(), "lr": 1, "fg_attention": 7}
        cfg = TrainConfig.from_dict(doc)
        assert type(cfg.lr) is float and cfg.lr == 1.0
        assert config_hash(cfg) == config_hash(replace(cfg, fg_attention=7.0))

    def test_unknown_keys_rejected(self):
        doc = tiny_config().to_dict()
        doc["momentum"] = 0.9
        with pytest.raises(ValueError, match="momentum"):
            TrainConfig.from_dict(doc)

    def test_unknown_nested_keys_rejected(self):
        doc = tiny_config().to_dict()
        doc["generator"]["dropout"] = 0.5
        with pytest.raises(ValueError, match="dropout"):
            TrainConfig.from_dict(doc)

    def test_hash_ignores_stopping_fields_only(self):
        base = tiny_config()
        assert config_hash(base) == config_hash(replace(base, epochs=99))
        assert config_hash(base) == config_hash(replace(base, checkpoint_every=1))
        assert config_hash(base) != config_hash(replace(base, lr=1e-3))
        assert config_hash(base) != config_hash(replace(base, seed=4))


class TestBuildModels:
    def test_shared_mode_names(self):
        models = build_models(tiny_config())
        assert sorted(models) == ["disc_x", "disc_y", "gen_xy", "gen_yx"]

    def test_build_is_deterministic(self):
        a = build_models(tiny_config())
        b = build_models(tiny_config())
        for name in a:
            assert model_bytes(a[name]) == model_bytes(b[name])

    def test_generators_differ_from_each_other(self):
        models = build_models(tiny_config())
        assert model_bytes(models["gen_xy"]) != model_bytes(models["gen_yx"])


class TestTrainStep:
    def test_log_header_is_pinned(self):
        assert LOG_HEADER == (
            "epoch,step,gan_g_xy,gan_g_yx,cycle,combined_fg,combined_bg,"
            "attention_total,disc_x_fg,disc_x_bg,disc_y_fg,disc_y_bg,ms"
        )

    def test_row_has_every_field_finite(self, tiny_dataset):
        cfg = tiny_config()
        models = build_models(cfg)
        optims = build_optimizers(models, cfg.lr)
        row = train_step(first_batch(tiny_dataset, cfg), models, optims, cfg, 1, 1)
        assert set(row.values) == set(LOG_FIELDS)
        assert all(np.isfinite(v) for v in row.values.values())
        line = row.csv_line()
        assert line.startswith("1,1,")
        assert len(line.split(",")) == len(LOG_HEADER.split(","))

    def test_updates_are_live(self, tiny_dataset):
        cfg = tiny_config()
        models = build_models(cfg)
        optims = build_optimizers(models, cfg.lr)
        before = {n: model_bytes(m) for n, m in models.items()}
        train_step(first_batch(tiny_dataset, cfg), models, optims, cfg, 1, 1)
        after = {n: model_bytes(m) for n, m in models.items()}
        assert all(before[n] != after[n] for n in models)

    def test_phase_parameter_partition(self, tiny_dataset):
        cfg = tiny_config()
        models = build_models(cfg)
        optims = build_optimizers(models, cfg.lr)
        batch = first_batch(tiny_dataset, cfg)
        x, y, depth = trainer._stack_batch(batch)

        disc_before = {n: model_bytes(models[n]) for n in ("disc_x", "disc_y")}
        generator_phase(x, y, depth, models, optims, cfg)
        assert all(model_bytes(models[n]) == disc_before[n] for n in disc_before)

        gen_before = {n: model_bytes(models[n]) for n in ("gen_xy", "gen_yx")}
        discriminator_phase(x, y, depth, models, optims, cfg)
        assert all(model_bytes(models[n]) == gen_before[n] for n in gen_before)

    def test_discriminator_phase_leaves_generator_grads_empty(self, tiny_dataset):
        cfg = tiny_config()
        models = build_models(cfg)
        optims = build_optimizers(models, cfg.lr)
        x, y, depth = trainer._stack_batch(first_batch(tiny_dataset, cfg))
        discriminator_phase(x, y, depth, models, optims, cfg)
        for n in ("gen_xy", "gen_yx"):
            assert all(p.tensor.grad is None for p in models[n].params.values())

    def test_generator_phase_freezes_discriminators(self, tiny_dataset, monkeypatch):
        cfg = tiny_config()
        x, y, depth = trainer._stack_batch(first_batch(tiny_dataset, cfg))

        # reference: the same backward with every discriminator parameter tracked
        ref_models = build_models(cfg)
        total, _ = full_generator_loss(x, y, depth, ref_models, cfg.weights)
        backward(total)
        want = {
            (n, pid): p.tensor.grad.copy()
            for n in ("gen_xy", "gen_yx")
            for pid, p in ref_models[n].params.items()
        }
        assert any(p.tensor.grad is not None for p in ref_models["disc_x"].params.values())

        models = build_models(cfg)
        optims = build_optimizers(models, cfg.lr)
        owner = {id(st): n for n, st in optims.items()}
        seen = {}

        def recording_adam_step(params, state):
            for p in params:
                seen[owner[id(state)], p.id] = p.tensor.grad.copy()
            return adam_step(params, state)

        monkeypatch.setattr(trainer, "adam_step", recording_adam_step)
        generator_phase(x, y, depth, models, optims, cfg)
        assert seen.keys() == want.keys()
        for key, g in want.items():
            assert seen[key].tobytes() == g.tobytes(), key
        for n in ("disc_x", "disc_y"):
            for p in models[n].params.values():
                assert p.tensor.grad is None
                assert p.tensor.requires_grad

    def test_generator_phase_unfreezes_discriminators_on_error(self, tiny_dataset):
        cfg = tiny_config()
        models = build_models(cfg)
        optims = build_optimizers(models, cfg.lr)
        next(iter(models["gen_xy"].params.values())).tensor.data[...] = np.nan
        x, y, depth = trainer._stack_batch(first_batch(tiny_dataset, cfg))
        with pytest.raises(FloatingPointError, match="non-finite loss term"):
            generator_phase(x, y, depth, models, optims, cfg)
        for n in ("disc_x", "disc_y"):
            assert all(p.tensor.requires_grad for p in models[n].params.values())

    def test_discriminator_phase_freezes_generators(self, tiny_dataset, monkeypatch):
        cfg = tiny_config()
        x, y, depth = trainer._stack_batch(first_batch(tiny_dataset, cfg))

        # reference: fakes made on tracked generators, then cut from their graphs
        ref_models = build_models(cfg)
        fake_y = Tensor4(ref_models["gen_xy"].forward(x, training=True, update_stats=False).data)
        fake_x = Tensor4(ref_models["gen_yx"].forward(y, training=True, update_stats=False).data)
        total, _ = trainer.separated_discriminator_losses(
            x, y, fake_x, fake_y, depth, ref_models, cfg.weights
        )
        backward(total)
        want = {
            (n, pid): p.tensor.grad.copy()
            for n in ("disc_x", "disc_y")
            for pid, p in ref_models[n].params.items()
        }

        models = build_models(cfg)
        optims = build_optimizers(models, cfg.lr)
        owner = {id(st): n for n, st in optims.items()}
        seen = {}
        fakes = []
        losses_fn = trainer.separated_discriminator_losses

        def recording_losses(x, y, fake_x, fake_y, *args, **kwargs):
            fakes.extend([fake_x, fake_y])
            return losses_fn(x, y, fake_x, fake_y, *args, **kwargs)

        def recording_adam_step(params, state):
            for p in params:
                seen[owner[id(state)], p.id] = p.tensor.grad.copy()
            return adam_step(params, state)

        monkeypatch.setattr(trainer, "separated_discriminator_losses", recording_losses)
        monkeypatch.setattr(trainer, "adam_step", recording_adam_step)
        discriminator_phase(x, y, depth, models, optims, cfg)
        assert all(f.is_leaf and not f.requires_grad for f in fakes) and len(fakes) == 2
        assert seen.keys() == want.keys()
        for key, g in want.items():
            assert seen[key].tobytes() == g.tobytes(), key
        for n in ("gen_xy", "gen_yx"):
            for p in models[n].params.values():
                assert p.tensor.grad is None
                assert p.tensor.requires_grad

    def test_discriminator_phase_unfreezes_generators_on_error(self, tiny_dataset, monkeypatch):
        cfg = tiny_config()
        models = build_models(cfg)
        optims = build_optimizers(models, cfg.lr)
        x, y, depth = trainer._stack_batch(first_batch(tiny_dataset, cfg))

        def broken_forward(*args, **kwargs):
            assert not any(p.tensor.requires_grad for p in models["gen_xy"].params.values())
            raise RuntimeError("forward failed")

        monkeypatch.setattr(models["gen_yx"], "forward", broken_forward)
        with pytest.raises(RuntimeError, match="forward failed"):
            discriminator_phase(x, y, depth, models, optims, cfg)
        for n in ("gen_xy", "gen_yx"):
            assert all(p.tensor.requires_grad for p in models[n].params.values())

    def test_two_runs_are_bitwise_identical(self, tiny_dataset):
        cfg = tiny_config()
        lines = []
        for _ in range(2):
            models = build_models(cfg)
            optims = build_optimizers(models, cfg.lr)
            batch = first_batch(tiny_dataset, cfg)
            rows = [
                train_step(batch, models, optims, cfg, 1, s + 1).csv_line()
                for s in range(2)
            ]
            lines.append(strip_ms("\n".join(rows)))
        assert lines[0] == lines[1]

    def test_non_finite_loss_aborts_with_term_name(self, tiny_dataset):
        cfg = tiny_config()
        models = build_models(cfg)
        optims = build_optimizers(models, cfg.lr)
        w = next(iter(models["gen_xy"].params.values()))
        w.tensor.data[...] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite loss term"):
            train_step(first_batch(tiny_dataset, cfg), models, optims, cfg, 1, 1)

    def test_empty_batch_rejected(self):
        cfg = tiny_config()
        models = build_models(cfg)
        optims = build_optimizers(models, cfg.lr)
        with pytest.raises(ValueError, match="empty"):
            train_step([], models, optims, cfg, 1, 1)


class TestCheckpoint:
    def _live(self, cfg=None, steps=1, dataset=None):
        cfg = cfg or tiny_config()
        models = build_models(cfg)
        optims = build_optimizers(models, cfg.lr)
        if steps and dataset is not None:
            batch = first_batch(dataset, cfg)
            for s in range(steps):
                train_step(batch, models, optims, cfg, 1, s + 1)
        return cfg, models, optims

    def test_round_trip_bitwise(self, tmp_path, tiny_dataset):
        cfg, models, optims = self._live(dataset=tiny_dataset)
        bundle = bundle_from_live(models, optims, cfg, 1, 1)
        p = tmp_path / "c.satt"
        save_checkpoint(bundle, p)
        back = load_checkpoint(p)
        assert back.config == bundle.config
        assert back.state == bundle.state
        assert set(back.tensors) == set(bundle.tensors)
        for k in bundle.tensors:
            assert back.tensors[k].dtype == bundle.tensors[k].dtype
            assert np.array_equal(back.tensors[k], bundle.tensors[k])

    def test_restore_reproduces_next_step(self, tmp_path, tiny_dataset):
        cfg, models, optims = self._live(dataset=tiny_dataset)
        bundle = bundle_from_live(models, optims, cfg, 1, 1)
        p = tmp_path / "c.satt"
        save_checkpoint(bundle, p)

        fresh = build_models(cfg)
        fresh_opt = build_optimizers(fresh, cfg.lr)
        restore_into(load_checkpoint(p), fresh, fresh_opt)
        for n in models:
            assert model_bytes(fresh[n]) == model_bytes(models[n])

        batch = first_batch(tiny_dataset, cfg)
        live_row = train_step(batch, models, optims, cfg, 1, 2)
        restored_row = train_step(batch, fresh, fresh_opt, cfg, 1, 2)
        assert strip_ms(live_row.csv_line()) == strip_ms(restored_row.csv_line())
        for n in models:
            assert model_bytes(fresh[n]) == model_bytes(models[n])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "c.satt"
        p.write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(p)

    def test_bad_version(self, tmp_path):
        raw = self._saved(tmp_path)
        p = tmp_path / "c.satt"
        p.write_bytes(raw[:4] + (77).to_bytes(4, "little") + raw[8:])
        with pytest.raises(CheckpointError, match="version 77"):
            load_checkpoint(p)

    def test_version_1_refused(self, tmp_path):
        p = tmp_path / "v1.satt"
        p.write_bytes(as_version_1(self._saved(tmp_path)))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{p}: unsupported checkpoint version 1 (reader supports 2)")):
            load_checkpoint(p)

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()],
                             ids=["missing", "directory"])
    def test_absent_file_is_not_found(self, tmp_path, make):
        p = tmp_path / "c.satt"
        make(p)
        with pytest.raises(CheckpointError, match=re.escape(f"checkpoint not found: {p}")):
            load_checkpoint(p)

    def test_file_ends_with_crc32_of_the_rest(self, tmp_path):
        cfg, models, optims = self._live(steps=0)
        p = tmp_path / "c.satt"
        save_checkpoint(bundle_from_live(models, optims, cfg, 0, 0), p)
        raw = p.read_bytes()
        assert raw[4:8] == (2).to_bytes(4, "little")
        assert raw[-4:] == zlib.crc32(raw[:-4]).to_bytes(4, "little")

    @staticmethod
    def _tensor_data_spans(raw: bytes):
        """(start, end) of every tensor's data bytes, walking the record layout."""
        pos = 12 + int.from_bytes(raw[8:12], "little")
        count = int.from_bytes(raw[pos : pos + 4], "little")
        pos += 4
        spans = []
        for _ in range(count):
            pos += 4 + int.from_bytes(raw[pos : pos + 4], "little")  # name
            tag, rank = raw[pos], int.from_bytes(raw[pos + 1 : pos + 5], "little")
            dims = np.frombuffer(raw[pos + 5 : pos + 5 + 4 * rank], "<u4")
            pos += 5 + 4 * rank
            nbytes = int(np.prod(dims)) * (4 if tag == 1 else 8)
            spans.append((pos, pos + nbytes))
            pos += nbytes
        return spans

    def test_bit_flips_in_tensor_data_rejected(self, tmp_path, tiny_dataset):
        cfg, models, optims = self._live(dataset=tiny_dataset)
        bundle = bundle_from_live(models, optims, cfg, 1, 1)
        p = tmp_path / "c.satt"
        save_checkpoint(bundle, p)
        raw = p.read_bytes()
        spans = self._tensor_data_spans(raw)
        assert len(spans) == len(bundle.tensors)
        assert sum(e - s for s, e in spans) == sum(a.nbytes for a in bundle.tensors.values())
        # every tensor, at its first, middle and last byte, low and high bit
        for start, end in spans:
            for pos in {start, (start + end) // 2, end - 1}:
                for bit in (0, 7):
                    bad = bytearray(raw)
                    bad[pos] ^= 1 << bit
                    p.write_bytes(bytes(bad))
                    with pytest.raises(CheckpointError, match="checksum mismatch"):
                        load_checkpoint(p)

    def test_header_bit_flips_report_checksum_mismatch(self, tmp_path):
        cfg, models, optims = self._live(steps=0)
        p = tmp_path / "c.satt"
        save_checkpoint(bundle_from_live(models, optims, cfg, 0, 0), p)
        raw = p.read_bytes()
        # the config length and the start of the config JSON: the CRC is
        # checked before any length is trusted
        for pos in range(8, 64):
            for bit in range(8):
                bad = bytearray(raw)
                bad[pos] ^= 1 << bit
                p.write_bytes(bytes(bad))
                with pytest.raises(CheckpointError, match="checksum mismatch"):
                    load_checkpoint(p)

    def test_bit_flips_anywhere_rejected(self, tmp_path):
        cfg, models, optims = self._live(steps=0)
        p = tmp_path / "c.satt"
        save_checkpoint(bundle_from_live(models, optims, cfg, 0, 0), p)
        raw = p.read_bytes()
        # headers, config and state JSON and the trailer too: never a silent load
        for pos in sorted(set(range(64)) | set(np.linspace(0, len(raw) - 1, 200).astype(int))):
            bad = bytearray(raw)
            bad[pos] ^= 0x04
            p.write_bytes(bytes(bad))
            with pytest.raises(CheckpointError):
                load_checkpoint(p)

    def _saved(self, tmp_path) -> bytes:
        cfg, models, optims = self._live(steps=0)
        p = tmp_path / "c.satt"
        save_checkpoint(bundle_from_live(models, optims, cfg, 0, 0), p)
        return p.read_bytes()

    # a sealed file carries a valid CRC32 of its edited body, so it reaches
    # the structural checks
    @pytest.mark.parametrize(
        "sealed, keep, match",
        [
            (False, 100, "checksum mismatch"),
            (False, 10, "truncated before the CRC32 trailer"),
            (True, 100, "truncated at byte"),
        ],
    )
    def test_truncated_file(self, tmp_path, sealed, keep, match):
        raw = self._saved(tmp_path)
        p = tmp_path / "t.satt"
        p.write_bytes(sealed_body(raw[:-4][:keep]) if sealed else raw[:keep])
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(p)

    @pytest.mark.parametrize(
        "sealed, match", [(False, "checksum mismatch"), (True, "7 unexpected trailing bytes")]
    )
    def test_trailing_bytes_rejected(self, tmp_path, sealed, match):
        raw = self._saved(tmp_path)
        p = tmp_path / "t.satt"
        p.write_bytes(sealed_body(raw[:-4] + b"GARBAGE") if sealed else raw + b"GARBAGE")
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(p)

    @pytest.mark.parametrize("block", ["config", "state"])
    def test_block_cut_short_is_named_once(self, tmp_path, block):
        body = self._saved(tmp_path)[:-4]
        config_len = int.from_bytes(body[8:12], "little")
        if block == "config":
            pos, need = 8, config_len
        else:
            pos = body.rindex(b'{"global_step"') - 4
            need = len(body) - pos - 4
        p = tmp_path / "t.satt"
        p.write_bytes(sealed_body(body[: pos + 4 + 10]))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(p)
        assert str(err.value) == (
            f"{p}: truncated at byte {pos + 4} reading {block} JSON (need {need} bytes, have 10)"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda c: c["generator"].update(kernel=4),
             "unknown generator keys ['generator.kernel']"),  # an older schema's key
            (lambda c: c.update(batch_size=0), "batch_size must be >= 1"),
        ],
    )
    def test_config_block_refused_naming_file_and_key(self, tmp_path, edit, message):
        cfg, models, optims = self._live(steps=0)
        bundle = bundle_from_live(models, optims, cfg, 0, 0)
        edit(bundle.config)
        p = tmp_path / "c.satt"
        save_checkpoint(bundle, p)
        with pytest.raises(CheckpointError, match=re.escape(f"{p}: config block: {message}")):
            load_checkpoint(p)

    def test_layout_is_pinned(self, tmp_path):
        """The bytes of one fixed bundle; a change here must bump CHECKPOINT_VERSION."""
        tensors = {
            "a/f32": np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7,
            "b/f64": np.arange(5, dtype=np.float64) - 2.5,
            "c/scalar": np.array(3.25, dtype=np.float32),
        }
        state = {"global_step": 3, "next_epoch": 1, "optim_steps": {"gen_xy": 3}, "seed": 7}
        p = tmp_path / "pin.satt"
        save_checkpoint(CheckpointBundle(desk_config().to_dict(), tensors, state), p)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == PINNED_LAYOUT_SHA256

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda b: setattr(b, "config", [1, 2]), "config block must be a JSON object"),
            (lambda b: setattr(b, "state", "state"), "state block must be a JSON object"),
            (lambda b: setattr(b, "state", {}), "'next_epoch'"),
            (lambda b: b.state.update(next_epoch=-1), "'next_epoch'"),
            (lambda b: b.state.update(next_epoch=1.0), "'next_epoch'"),
            (lambda b: b.state.update(global_step="0"), "'global_step'"),
            (lambda b: b.state.update(global_step=True), "'global_step'"),
            (lambda b: b.state.pop("optim_steps"), "'optim_steps'"),
            (lambda b: b.state.update(optim_steps=[0, 0, 0, 0]), "'optim_steps'"),
            (lambda b: b.state["optim_steps"].update(gen_xy=None), "'optim_steps'"),
        ],
    )
    def test_malformed_blocks_rejected(self, tmp_path, edit, match):
        cfg, models, optims = self._live(steps=0)
        bundle = bundle_from_live(models, optims, cfg, 0, 0)
        edit(bundle)
        p = tmp_path / "c.satt"
        save_checkpoint(bundle, p)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(p)

    def test_architecture_mismatch_names_tensor(self, tmp_path):
        cfg, models, optims = self._live(steps=0)
        p = tmp_path / "c.satt"
        save_checkpoint(bundle_from_live(models, optims, cfg, 0, 0), p)
        other = tiny_config(
            generator=GeneratorConfig(depth=2, base_channels=8, max_channels=16)
        )
        fresh = build_models(other)
        fresh_opt = build_optimizers(fresh, other.lr)
        with pytest.raises(CheckpointError, match="does not fit model"):
            restore_into(load_checkpoint(p), fresh, fresh_opt)


    def test_load_generator_matches_full_restore(self, tmp_path, tiny_dataset):
        cfg, models, optims = self._live(dataset=tiny_dataset, steps=2)
        p = tmp_path / "c.satt"
        save_checkpoint(bundle_from_live(models, optims, cfg, 1, 2), p)
        batch = first_batch(tiny_dataset, cfg)
        x = trainer._stack_batch(batch)[0]
        rec = batch[0].distorted

        # reference: every model and its optimizer state restored, then gen_xy
        ref_models = build_models(cfg)
        restore_into(load_checkpoint(p), ref_models, build_optimizers(ref_models, cfg.lr))
        ref = ref_models["gen_xy"]
        want = ref.forward(x, training=False).data.tobytes()
        want_rec = trainer.enhance_record(ref, rec).pixels.tobytes()

        for source in (p, load_checkpoint(p)):
            gen = load_generator(source)
            assert model_bytes(gen) == model_bytes(ref)
            # untracked parameters: eval-mode forwards build no graph
            assert not any(q.tensor.requires_grad for q in gen.params.values())
            out = gen.forward(x, training=False)
            assert out._grad_fn is None and out.data.tobytes() == want
            assert trainer.enhance_record(gen, rec).pixels.tobytes() == want_rec

    def test_load_generator_without_generator_tensors(self, tmp_path):
        cfg, models, optims = self._live(steps=0)
        bundle = bundle_from_live(models, optims, cfg, 0, 0)
        bundle.tensors = {k: v for k, v in bundle.tensors.items() if not k.startswith("model/gen_xy/")}
        with pytest.raises(CheckpointError, match="does not fit model 'gen_xy'"):
            load_generator(bundle)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t.pop("model/gen_xy/e1/conv/weight"),
             "model/gen_xy/e1/conv/weight is absent, the model needs (4, 3, 4, 4)"),
            (lambda t: t.update({"model/gen_xy/e1/conv/weight": np.zeros((4, 1, 4, 4),
                                                                         np.float32)}),
             "model/gen_xy/e1/conv/weight is (4, 1, 4, 4), the model needs (4, 3, 4, 4)"),
            (lambda t: t.pop("model/disc_x/buffers/c1/bn/var"),
             "model/disc_x/buffers/c1/bn/var is absent, the model needs (4,)"),
            (lambda t: t.update({"model/gen_xy/e9/conv/weight": np.zeros((1, 1, 1, 1),
                                                                         np.float32)}),
             "model/gen_xy/e9/conv/weight is (1, 1, 1, 1), the model needs none"),
        ],
        ids=["missing-parameter", "parameter-shape", "missing-buffer", "extra-tensor"],
    )
    def test_misfit_tensor_is_named(self, edit, message):
        cfg, models, optims = self._live(steps=0)
        bundle = bundle_from_live(models, optims, cfg, 0, 0)
        edit(bundle.tensors)
        fresh = build_models(cfg)
        with pytest.raises(CheckpointError, match=re.escape(message)):
            restore_into(bundle, fresh, build_optimizers(fresh, cfg.lr))

    def test_restored_arrays_do_not_alias_the_bundle(self, tiny_dataset):
        cfg, models, optims = self._live(dataset=tiny_dataset)
        bundle = bundle_from_live(models, optims, cfg, 1, 1)
        fresh = build_models(cfg)
        fresh_opt = build_optimizers(fresh, cfg.lr)
        restore_into(bundle, fresh, fresh_opt)
        for n, model in fresh.items():
            assert model_bytes(model) == model_bytes(models[n])
            live = [p.tensor.data for p in model.params.values()]
            live += [*model.buffers().values(), *fresh_opt[n].m.values(), *fresh_opt[n].v.values()]
            assert len(live) == sum(k.split("/")[1] == n for k in bundle.tensors)
            for arr in live:
                assert not any(np.shares_memory(arr, t) for t in bundle.tensors.values())

    def test_restore_drops_gradients(self):
        cfg, models, optims = self._live(steps=0)
        bundle = bundle_from_live(models, optims, cfg, 0, 0)
        fresh = build_models(cfg)
        params = [p for model in fresh.values() for p in model.params.values()]
        for p in params:
            p.tensor.grad = np.ones_like(p.tensor.data)
        restore_into(bundle, fresh, build_optimizers(fresh, cfg.lr))
        assert all(p.tensor.grad is None for p in params)


class TestTrainLoop:
    def test_log_and_checkpoints_layout(self, tmp_path, tiny_dataset):
        cfg = tiny_config()  # 8 train ids? dataset has 8; split: 8 - 0 test
        bundle, log_path = train(tiny_dataset, cfg, tmp_path)
        lines = log_path.read_text().strip().splitlines()
        n_train = len(tiny_dataset.ids("train"))
        steps_per_epoch = -(-n_train // cfg.batch_size)
        assert lines[0] == LOG_HEADER
        assert len(lines) == 1 + cfg.epochs * steps_per_epoch
        assert (tmp_path / "ckpt_init.satt").is_file()
        assert (tmp_path / "ckpt_epoch_0002.satt").is_file()
        assert (tmp_path / "ckpt_final.satt").is_file()
        assert bundle.state["next_epoch"] == cfg.epochs
        assert bundle.state["global_step"] == cfg.epochs * steps_per_epoch
        # epochs strictly non-decreasing, steps strictly increasing
        rows = [l.split(",") for l in lines[1:]]
        steps = [int(r[1]) for r in rows]
        epochs = [int(r[0]) for r in rows]
        assert steps == sorted(steps) and len(set(steps)) == len(steps)
        assert epochs == sorted(epochs)

    def test_epochs_zero_emits_initial_checkpoint_only(self, tmp_path, tiny_dataset):
        cfg = tiny_config(epochs=0)
        bundle, log_path = train(tiny_dataset, cfg, tmp_path)
        assert log_path.read_text() == LOG_HEADER + "\n"
        assert (tmp_path / "ckpt_init.satt").is_file()
        assert not (tmp_path / "ckpt_final.satt").exists()
        assert bundle.state["global_step"] == 0

    def test_two_full_runs_bitwise_identical(self, tmp_path, tiny_dataset):
        cfg = tiny_config(epochs=1)
        logs, ckpts = [], []
        for d in ("a", "b"):
            _, log_path = train(tiny_dataset, cfg, tmp_path / d)
            logs.append(strip_ms(log_path.read_text()))
            ckpts.append((tmp_path / d / "ckpt_final.satt").read_bytes())
        assert logs[0] == logs[1]
        assert ckpts[0] == ckpts[1]

    def test_resume_continues_step_counter(self, tmp_path, tiny_dataset):
        cfg1 = tiny_config(epochs=1)
        train(tiny_dataset, cfg1, tmp_path)
        cfg2 = tiny_config(epochs=2)  # same trajectory hash, later stop
        bundle, log_path = train(
            tiny_dataset, cfg2, tmp_path, resume_from=tmp_path / "ckpt_final.satt"
        )
        lines = log_path.read_text().strip().splitlines()
        n_train = len(tiny_dataset.ids("train"))
        steps_per_epoch = -(-n_train // cfg1.batch_size)
        assert len(lines) == 1 + 2 * steps_per_epoch
        steps = [int(l.split(",")[1]) for l in lines[1:]]
        assert steps == list(range(1, 2 * steps_per_epoch + 1))
        assert bundle.state["next_epoch"] == 2

    def test_resume_matches_uninterrupted_run(self, tmp_path, tiny_dataset):
        # stop-and-resume must land exactly where the straight run lands
        cfg_full = tiny_config(epochs=2)
        train(tiny_dataset, cfg_full, tmp_path / "full")
        train(tiny_dataset, tiny_config(epochs=1), tmp_path / "parts")
        train(
            tiny_dataset,
            cfg_full,
            tmp_path / "parts",
            resume_from=tmp_path / "parts" / "ckpt_final.satt",
        )
        full = (tmp_path / "full" / "ckpt_final.satt").read_bytes()
        parts = (tmp_path / "parts" / "ckpt_final.satt").read_bytes()
        assert full == parts
        assert strip_ms((tmp_path / "full" / "train_log.csv").read_text()) == strip_ms(
            (tmp_path / "parts" / "train_log.csv").read_text()
        )

    def test_resume_from_older_checkpoint_rewrites_later_rows(self, tmp_path, tiny_dataset):
        cfg = tiny_config(epochs=2, checkpoint_every=1)
        _, log_path = train(tiny_dataset, cfg, tmp_path)
        want_log = strip_ms(log_path.read_text())
        want_final = (tmp_path / "ckpt_final.satt").read_bytes()
        with log_path.open("a") as log:
            log.write("2,99,0.5")  # a row cut short by a crash
        train(tiny_dataset, cfg, tmp_path, resume_from=tmp_path / "ckpt_epoch_0001.satt")
        assert strip_ms(log_path.read_text()) == want_log
        assert (tmp_path / "ckpt_final.satt").read_bytes() == want_final

    @pytest.mark.parametrize("fail_at", ["write", "fsync"])
    def test_failed_log_truncation_keeps_the_log(self, tmp_path, tiny_dataset, monkeypatch, fail_at):
        cfg = tiny_config(epochs=2, checkpoint_every=1)
        _, log_path = train(tiny_dataset, cfg, tmp_path)
        before = log_path.read_bytes()
        real_open = Path.open

        class HalfWrite:
            """A file whose one write stores half its text, then fails."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")

        def opener(path, mode="r", *args, **kwargs):
            f = real_open(path, mode, *args, **kwargs)
            return HalfWrite(f) if "w" in mode else f

        def no_fsync(fd):
            raise OSError(5, "Input/output error")

        if fail_at == "write":
            monkeypatch.setattr(Path, "open", opener)
        else:
            monkeypatch.setattr(trainer.os, "fsync", no_fsync)
        with pytest.raises(OSError):
            trainer._truncate_log(log_path, 1)
        assert log_path.read_bytes() == before
        assert (tmp_path / "train_log.csv.tmp").is_file()  # what the crash left behind

    def test_leftover_temp_log_is_never_read(self, tmp_path, tiny_dataset):
        cfg = tiny_config(epochs=2, checkpoint_every=1)
        _, log_path = train(tiny_dataset, cfg, tmp_path)
        want_log = log_path.read_text()
        leftover = tmp_path / "train_log.csv.tmp"
        leftover.write_text(LOG_HEADER + "\n9,99,not,a,row\n")
        train(tiny_dataset, cfg, tmp_path, resume_from=tmp_path / "ckpt_epoch_0001.satt")
        assert strip_ms(log_path.read_text()) == strip_ms(want_log)
        assert not leftover.exists()

    def test_each_step_loads_its_own_batch(self, tmp_path, tiny_dataset, monkeypatch):
        # one check pass over every pair, then one load per pair per epoch
        cfg = tiny_config(epochs=2)
        loaded = []
        real = trainer.load_pair
        monkeypatch.setattr(trainer, "load_pair", lambda m, i: loaded.append(i) or real(m, i))
        step = trainer.train_step

        def held_at_step(samples, *args, **kwargs):
            held = len(loaded)
            assert all(s.clean.id == i for s, i in zip(samples, loaded[held - len(samples):]))
            return step(samples, *args, **kwargs)

        monkeypatch.setattr(trainer, "train_step", held_at_step)
        train(tiny_dataset, cfg, tmp_path)
        ids = tiny_dataset.ids("train")
        assert loaded[: len(ids)] == ids
        assert sorted(loaded[len(ids):]) == sorted(ids * cfg.epochs)

    def test_resume_rejects_changed_config(self, tmp_path, tiny_dataset):
        train(tiny_dataset, tiny_config(epochs=1), tmp_path)
        with pytest.raises(CheckpointError, match="config hash mismatch"):
            train(
                tiny_dataset,
                tiny_config(epochs=2, lr=1e-3),
                tmp_path,
                resume_from=tmp_path / "ckpt_final.satt",
            )

    def test_wrong_image_size_rejected(self, tmp_path, tiny_dataset):
        cfg = tiny_config(
            image_size=32,
            generator=GeneratorConfig(depth=2, base_channels=4, max_channels=8),
            discriminator=DiscriminatorConfig(num_layers=2, base_channels=4),
        )
        with pytest.raises(ValueError, match="config wants"):
            train(tiny_dataset, cfg, tmp_path)


def enhance_one_by_one(gen, records):
    """The one-image-per-forward inference every batched output must equal."""
    return [
        datapipe.from_model_space(gen.forward(datapipe.to_model_space(r), training=False), id=r.id)
        for r in records
    ]


class TestBatchedEnhance:
    @pytest.fixture(scope="class")
    def desk_gen(self):
        """A 64 px desk generator whose running stats spread outputs over [-1, 1]."""
        gen = Generator(desk_config().generator, 64, seed=4)
        rng = np.random.default_rng(4)
        for stats in gen._stats.values():
            stats.mean[:] = rng.normal(0.0, 0.01, stats.mean.shape)
            stats.var[:] = rng.uniform(5e-4, 2e-3, stats.var.shape)
        return gen

    @staticmethod
    def records(n, size=64, seed=0):
        rng = np.random.default_rng(seed)
        return [
            datapipe.ImageRecord(f"im{k:02d}", rng.integers(0, 256, (3, size, size), np.uint8))
            for k in range(n)
        ]

    def test_desk_chunks_match_one_image_forwards(self, desk_gen):
        per = trainer.ENHANCE_CHUNK_PIXELS // (64 * 64)
        assert per == 16 and trainer.ENHANCE_CHUNK_PIXELS // (256 * 256) == 1
        recs = self.records(2 * per + 3)
        want = enhance_one_by_one(desk_gen, recs)
        assert len({r.pixels.tobytes() for r in want}) == len(want)
        assert len(np.unique(np.concatenate([r.pixels.ravel() for r in want]))) > 200
        # one image, a chunk less one, a whole chunk, a chunk plus one, a ragged third chunk
        for n in (1, per - 1, per, per + 1, len(recs)):
            got = list(trainer.enhance_records(desk_gen, recs[:n]))
            assert [r.id for r in got] == [r.id for r in want[:n]]
            assert [r.pixels.tobytes() for r in got] == [r.pixels.tobytes() for r in want[:n]]
        one = trainer.enhance_record(desk_gen, recs[5])
        assert one.id == "im05" and one.pixels.tobytes() == want[5].pixels.tobytes()

    def test_reads_one_chunk_ahead_only(self, desk_gen):
        recs = self.records(40)
        read = []

        def source():
            for r in recs:
                read.append(r.id)
                yield r

        it = trainer.enhance_records(desk_gen, source())
        next(it)
        assert len(read) == 16

    def test_wrong_shape_names_the_record(self, desk_gen):
        small = datapipe.ImageRecord("small", np.zeros((3, 32, 32), np.uint8))
        gray = datapipe.ImageRecord("gray", np.zeros((1, 64, 64), np.uint8))
        with pytest.raises(ShapeError, match="small: generator is built for 64x64 inputs "
                                             "with 3 channels, got 32x32 with 3"):
            list(trainer.enhance_records(desk_gen, self.records(3) + [small]))
        with pytest.raises(ShapeError, match="gray: .* got 64x64 with 1"):
            trainer.enhance_record(desk_gen, gray)


def ref_evaluate(checkpoint, manifest, split, metric_names):
    """``evaluate`` before it streamed: the whole split loaded, enhanced and scored at once."""
    ids = manifest.ids(split)
    distorted = [datapipe.load_image(manifest.path(i, "distorted")) for i in ids]
    clean = [datapipe.load_image(manifest.path(i, "clean")).pixels for i in ids]
    enhanced = [rec.pixels for rec in trainer.enhancer(checkpoint)(distorted)]
    return trainer.EvalResult(
        model=batch_report(list(zip(ids, clean, enhanced)), metric_names),
        input_baseline=batch_report(
            [(i, c, d.pixels) for i, c, d in zip(ids, clean, distorted)], metric_names
        ),
    )


@pytest.fixture(scope="module")
def shuffled_split(tmp_path_factory):
    """A hand-written manifest listing 37 ids of a 16 px set out of id order."""
    root = tmp_path_factory.mktemp("shuffled")
    rendered = generate_synthetic_dataset(40, 16, DegradeParams(seed=8), seed=8, out_root=root / "set")
    ids = sorted(rendered.files)[:37]
    listed = [ids[k] for k in np.random.default_rng(8).permutation(len(ids))]
    assert listed != ids
    files = {i: {role: f"../set/{rel}" for role, rel in rendered.files[i].items()} for i in ids}
    (root / "m").mkdir()
    (root / "m" / "manifest.json").write_text(json.dumps({"splits": {"eval": listed}, "files": files}))
    return root / "m"


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory, tiny_dataset):
    out = tmp_path_factory.mktemp("tinyrun")
    train(tiny_dataset, tiny_config(epochs=1), out)
    return out / "ckpt_final.satt"


class TestEvaluate:
    @pytest.mark.parametrize("per_chunk", [None, 5], ids=["whole-split-chunk", "chunks-of-5"])
    @pytest.mark.parametrize("model", ["checkpoint", "identity"])
    def test_streamed_equals_all_at_once(self, shuffled_split, tiny_checkpoint, tmp_path,
                                         capsys, monkeypatch, model, per_chunk):
        checkpoint = str(tiny_checkpoint) if model == "checkpoint" else "identity"
        manifest = datapipe.load_manifest(shuffled_split)
        metric_names = ("uiqm", "psnr")
        want = ref_evaluate(checkpoint, manifest, "eval", metric_names)
        if per_chunk:  # 37 ids: seven chunks of 5 and a ragged one of 2
            monkeypatch.setattr(trainer, "ENHANCE_CHUNK_PIXELS", per_chunk * 16 * 16)
        got = evaluate(checkpoint, manifest, split="eval", metric_names=metric_names)
        assert got.model.ids == sorted(manifest.ids("eval"))
        assert got.to_text() == want.to_text()
        assert got.model.to_csv() == want.model.to_csv()
        assert got.input_baseline.to_csv() == want.input_baseline.to_csv()
        csv = tmp_path / "report.csv"
        assert cli.main(["eval", "--checkpoint", checkpoint, "--data", str(shuffled_split),
                         "--split", "eval", "--metrics", "uiqm,psnr", "--csv", str(csv)]) == 0
        assert capsys.readouterr().out == f"{want.to_text()}\nper-image CSV -> {csv}\n"
        assert csv.read_text() == want.model.to_csv()

    def test_reads_one_chunk_at_a_time(self, shuffled_split, monkeypatch):
        manifest = datapipe.load_manifest(shuffled_split)
        monkeypatch.setattr(trainer, "ENHANCE_CHUNK_PIXELS", 5 * 16 * 16)
        held = []
        real = trainer.batch_report

        def scored(items, metric_names):
            items = list(items)
            held.append(len(items))
            return real(items, metric_names)

        monkeypatch.setattr(trainer, "batch_report", scored)
        evaluate("identity", manifest, split="eval", metric_names=("psnr",))
        assert held == [5, 5] * 7 + [2, 2]

    def test_identity_pseudo_checkpoint_equals_input_baseline(self, tiny_dataset):
        res = evaluate("identity", tiny_dataset, split="train", metric_names=("psnr", "ssim"))
        assert res.model.to_csv() == res.input_baseline.to_csv()

    def test_real_checkpoint_evaluates(self, tmp_path, tiny_dataset):
        cfg = tiny_config(epochs=1)
        train(tiny_dataset, cfg, tmp_path)
        res = evaluate(tmp_path / "ckpt_final.satt", tiny_dataset, split="train")
        assert res.model.ids == sorted(tiny_dataset.ids("train"))
        rerun = evaluate(tmp_path / "ckpt_final.satt", tiny_dataset, split="train")
        assert rerun.model.to_csv() == res.model.to_csv()
        assert "input:" in res.to_text() and "model:" in res.to_text()

    def test_checkpoint_matches_per_image_reference(self, tmp_path, tiny_dataset, monkeypatch):
        train(tiny_dataset, tiny_config(epochs=1), tmp_path)
        ckpt = tmp_path / "ckpt_final.satt"
        ids = tiny_dataset.ids("train")
        distorted = [datapipe.load_image(tiny_dataset.path(i, "distorted")) for i in ids]
        clean = [datapipe.load_image(tiny_dataset.path(i, "clean")).pixels for i in ids]
        enhanced = enhance_one_by_one(load_generator(ckpt), distorted)
        want = trainer.EvalResult(
            model=batch_report([(i, c, e.pixels) for i, c, e in zip(ids, clean, enhanced)]),
            input_baseline=batch_report([(i, c, d.pixels) for i, c, d in zip(ids, clean, distorted)]),
        )
        # the whole split in one forward, then three images per forward with a ragged tail
        assert len(ids) % 3
        for chunk_pixels in (trainer.ENHANCE_CHUNK_PIXELS, 3 * 16 * 16):
            monkeypatch.setattr(trainer, "ENHANCE_CHUNK_PIXELS", chunk_pixels)
            got = evaluate(ckpt, tiny_dataset, split="train")
            assert got.model.ids == want.model.ids and got.model.rows == want.model.rows
            assert got.input_baseline.rows == want.input_baseline.rows
            assert got.to_text() == want.to_text()

    def test_empty_split_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="empty"):
            evaluate("identity", tiny_dataset, split="val")

    def test_scores_without_reading_depth(self, tiny_dataset, monkeypatch):
        cfg = tiny_config()
        models = build_models(cfg)
        bundle = bundle_from_live(models, build_optimizers(models, cfg.lr), cfg, 0, 0)
        want = evaluate(bundle, tiny_dataset, split="train")

        def no_depth(path):
            raise AssertionError(f"evaluate read depth {path}")

        monkeypatch.setattr(datapipe, "load_depth", no_depth)
        got = evaluate(bundle, tiny_dataset, split="train")
        assert got.model.to_csv() == want.model.to_csv()
        assert got.input_baseline.to_csv() == want.input_baseline.to_csv()
