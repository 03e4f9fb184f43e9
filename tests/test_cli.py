"""Command-line contract: exit codes, determinism, file outputs."""
import ast
import hashlib
import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from sepattn import cli, datapipe, trainer
from sepattn.datapipe import load_depth, load_image, save_depth, save_image
from sepattn.diffcore import Tensor4, ops
from sepattn.diffcore.gradcheck import OP_CASES, _rand
from sepattn.trainer import load_checkpoint, save_checkpoint


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def tree_bytes(root: Path) -> bytes:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.digest()


TINY_TRAIN = {
    "batch_size": 2,
    "epochs": 1,
    "image_size": 16,
    "seed": 3,
    "checkpoint_every": 1,
    "generator": {"depth": 2, "base_channels": 4, "max_channels": 8},
    "discriminator": {"num_layers": 2, "base_channels": 4},
}


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("clidata") / "d"
    assert run_cli("generate-data", "--count", "10", "--size", "16",
                   "--seed", "3", "--out", str(root)) == 0
    return root


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("clicfg") / "tiny.json"
    path.write_text(json.dumps(TINY_TRAIN))
    return path


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, dataset, config_file):
    out = tmp_path_factory.mktemp("clirun") / "run"
    assert run_cli("train", "--config", str(config_file),
                   "--data", str(dataset), "--out", str(out)) == 0
    return out


class TestGenerateData:
    def test_writes_manifest_and_splits(self, dataset):
        manifest = datapipe.load_manifest(dataset)
        assert len(manifest.splits["train"]) == 9
        assert len(manifest.splits["test"]) == 1
        assert all(manifest.path(i, role).is_file() for i, roles in manifest.files.items()
                   for role in roles)

    def test_repeat_same_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("generate-data", "--count", "5", "--size", "16",
                           "--seed", "9", "--out", str(out)) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_count_zero_is_usage_error(self, tmp_path, capsys):
        assert run_cli("generate-data", "--count", "0", "--out", str(tmp_path / "x")) == 2
        assert "--count" in capsys.readouterr().err

    def test_preset_changes_output(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("generate-data", "--count", "3", "--size", "16", "--out", str(a))
        run_cli("generate-data", "--count", "3", "--size", "16",
                "--preset", "murky", "--out", str(b))
        assert tree_bytes(a) != tree_bytes(b)

    def test_degrade_section_in_config_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"degrade": {"noise_sigma": 0.0}}))
        assert run_cli("generate-data", "--count", "3", "--size", "16",
                       "--config", str(cfg), "--out", str(tmp_path / "d")) == 0

    def test_unknown_degrade_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"degrade": {"fog": 1.0}}))
        assert run_cli("generate-data", "--count", "3",
                       "--config", str(cfg), "--out", str(tmp_path / "d")) == 2
        assert "fog" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "degrade, key",
        [
            ({"seed": 1.5}, "seed"),
            ({"noise_sigma": "2"}, "noise_sigma"),
            ({"contrast_gain": None}, "contrast_gain"),
            ({"beta": "abc"}, "beta"),
            ({"beta": [1.8, 0.9]}, "beta"),
            ({"backscatter": [20, 120, "x"]}, "backscatter"),
            ({"noise_sigma": float("inf")}, "noise_sigma"),
            ({"noise_sigma": float("nan")}, "noise_sigma"),
            ({"beta": [float("inf"), 0.9, 0.4]}, "beta"),
            (5, "degrade"),
        ],
    )
    def test_mistyped_degrade_value_is_usage_error(self, tmp_path, capsys, degrade, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"degrade": degrade}))
        assert run_cli("generate-data", "--count", "3", "--size", "16",
                       "--config", str(cfg), "--out", str(tmp_path / "d")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "d").exists()

    def test_training_keys_train_refuses_are_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"batch_size": 0}))
        assert run_cli("generate-data", "--count", "2", "--size", "16",
                       "--config", str(cfg), "--out", str(tmp_path / "d")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "batch_size" in err
        assert not (tmp_path / "d").exists()

    def test_degrade_lists_take_ints(self, tmp_path):
        ints, floats = tmp_path / "i.json", tmp_path / "f.json"
        ints.write_text(json.dumps({"degrade": {"backscatter": [20, 120, 140]}}))
        floats.write_text(json.dumps({"degrade": {"backscatter": [20.0, 120.0, 140.0]}}))
        for cfg in (ints, floats):
            assert run_cli("generate-data", "--count", "3", "--size", "16", "--config",
                           str(cfg), "--out", str(tmp_path / cfg.stem)) == 0
        assert tree_bytes(tmp_path / "i") == tree_bytes(tmp_path / "f")


class TestTrain:
    def test_writes_log_and_checkpoints(self, trained_run):
        assert (trained_run / "train_log.csv").is_file()
        assert (trained_run / "ckpt_init.satt").is_file()
        assert (trained_run / "ckpt_final.satt").is_file()
        lines = (trained_run / "train_log.csv").read_text().splitlines()
        # 9 train pairs at batch 2 -> 5 steps per epoch (trailing short batch)
        assert len(lines) == 1 + 5

    def test_resume_continues_step_numbering(self, dataset, config_file, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(config_file),
                       "--data", str(dataset), "--out", str(out)) == 0
        assert run_cli("train", "--config", str(config_file), "--epochs", "2",
                       "--data", str(dataset), "--out", str(out),
                       "--resume", str(out / "ckpt_epoch_0001.satt")) == 0
        rows = (out / "train_log.csv").read_text().splitlines()[1:]
        steps = [int(r.split(",")[1]) for r in rows]
        assert steps == list(range(1, 11))

    def test_resume_from_init_checkpoint_matches_fresh_run(self, dataset, config_file,
                                                           trained_run, tmp_path):
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(config_file), "--data", str(dataset),
                       "--out", str(out), "--resume", str(trained_run / "ckpt_init.satt")) == 0
        assert (out / "ckpt_final.satt").read_bytes() == (
            trained_run / "ckpt_final.satt").read_bytes()

    def test_unknown_config_key_is_usage_error(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY_TRAIN, "warmup": 5}))
        assert run_cli("train", "--config", str(cfg), "--data", str(dataset),
                       "--out", str(tmp_path / "r")) == 2
        assert "warmup" in capsys.readouterr().err

    def test_zero_fg_attention_is_usage_error(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY_TRAIN, "fg_attention": 0}))
        assert run_cli("train", "--config", str(cfg), "--data", str(dataset),
                       "--out", str(tmp_path / "r")) == 2
        assert "fg_attention" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"batch_size": "5"}, "batch_size"),
            ({"generator": 5}, "generator"),
            ({"generator": {"depth": "3"}}, "depth"),
            ({"epochs": 1.5}, "epochs"),
            ({"cycle_weight": float("nan")}, "cycle_weight"),
            ({"degrade": {"noise_sigma": "loud"}}, "noise_sigma"),
            ({"degrade": {"noise_sigma": float("inf")}}, "noise_sigma"),
        ],
    )
    def test_mistyped_config_value_is_usage_error(self, dataset, tmp_path, capsys,
                                                  override, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(override))
        assert run_cli("train", "--desk", "--config", str(cfg), "--data", str(dataset),
                       "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "override, key",
        [
            ({"gan_kind": "neg_log_likelihood"}, "gan_kind"),
            ({"shared_region_discriminators": False}, "shared_region_discriminators"),
            ({"discriminator": {"in_channels": 3}}, "in_channels"),
            ({"discriminator": {"stride": 1}}, "discriminator.stride"),
            ({"generator": {"kernel": 3}}, "generator.kernel"),
            ({"generator": {"image_size": 32}}, "generator.image_size"),
        ],
    )
    def test_removed_mode_is_usage_error(self, dataset, tmp_path, capsys, override, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY_TRAIN, **override}))
        assert run_cli("train", "--config", str(cfg), "--data", str(dataset),
                       "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_malformed_json_is_usage_error(self, dataset, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert run_cli("train", "--config", str(cfg), "--data", str(dataset),
                       "--out", str(tmp_path / "r")) == 2

    @pytest.mark.parametrize("command", ["train", "generate-data"])
    def test_non_utf8_config_names_the_file(self, dataset, tmp_path, capsys, command):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff\xfe{}")
        argv = {"train": ["--data", str(dataset)], "generate-data": ["--count", "2"]}[command]
        assert run_cli(command, "--config", str(cfg), *argv, "--out", str(tmp_path / "r")) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:") and str(cfg) in err

    def test_flags_lie_over_the_config_file(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY_TRAIN, "epochs": -1}))
        argv = ["train", "--config", str(cfg), "--data", str(dataset)]
        assert run_cli(*argv, "--out", str(tmp_path / "a")) == 2
        assert "epochs must be >= 0" in capsys.readouterr().err
        assert run_cli(*argv, "--out", str(tmp_path / "b"), "--epochs", "1") == 0
        # a flag replaces a file's value, but does not excuse a mistyped one
        cfg.write_text(json.dumps({**TINY_TRAIN, "epochs": "x"}))
        assert run_cli(*argv, "--out", str(tmp_path / "c"), "--epochs", "1") == 2
        assert "'epochs' must be int" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda b: setattr(b, "state", {}), "'next_epoch'"),
            (lambda b: b.state.update(optim_steps=[1, 1, 1, 1]), "'optim_steps'"),
            (lambda b: setattr(b, "config", []), "config block"),
            # a broadcastable moment of the wrong shape, one missing, moments before any step
            (lambda b: b.tensors.update({"optim/gen_xy/m/e1/bn/gamma": np.zeros((1, 1, 1, 1),
                                                                                np.float32)}),
             "m/e1/bn/gamma is (1, 1, 1, 1), the model needs (1, 4, 1, 1)"),
            (lambda b: b.tensors.pop("optim/gen_xy/v/e1/bn/gamma"), "v/e1/bn/gamma is absent"),
            (lambda b: b.state["optim_steps"].update(disc_y=0), "model 'disc_y' after 0 steps"),
        ],
    )
    def test_malformed_checkpoint_block_is_runtime_error(self, dataset, config_file,
                                                          trained_run, tmp_path, capsys,
                                                          edit, match):
        bundle = load_checkpoint(trained_run / "ckpt_epoch_0001.satt")
        edit(bundle)
        ckpt = tmp_path / "bad.satt"
        save_checkpoint(bundle, ckpt)
        assert run_cli("train", "--config", str(config_file), "--epochs", "2",
                       "--data", str(dataset), "--out", str(tmp_path / "r"),
                       "--resume", str(ckpt)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and match in err

    def test_missing_manifest_is_runtime_error(self, config_file, tmp_path, capsys):
        assert run_cli("train", "--config", str(config_file),
                       "--data", str(tmp_path / "nowhere"),
                       "--out", str(tmp_path / "r")) == 1
        assert "manifest" in capsys.readouterr().err


def _absent(ckpt, trained_run):
    return f"checkpoint not found: {ckpt}"


def _directory(ckpt, trained_run):
    ckpt.mkdir()
    return f"checkpoint not found: {ckpt}"


def _version_1(ckpt, trained_run):
    raw = (trained_run / "ckpt_final.satt").read_bytes()
    ckpt.write_bytes(raw[:4] + (1).to_bytes(4, "little") + raw[8:-4])  # no CRC32 trailer
    return f"{ckpt}: unsupported checkpoint version 1 (reader supports 2)"


def _retired_config_key(ckpt, trained_run):
    bundle = load_checkpoint(trained_run / "ckpt_init.satt")
    bundle.config["generator"]["kernel"] = 4
    save_checkpoint(bundle, ckpt)
    return (f"{ckpt}: config block: unknown generator keys ['generator.kernel']; "
            "known keys: ['base_channels', 'depth', 'max_channels']")


class TestCheckpointRefused:
    """enhance, eval and train --resume refuse an unloadable checkpoint alike."""

    @pytest.mark.parametrize("command", ["enhance", "eval", "train"])
    @pytest.mark.parametrize("make", [_absent, _directory, _version_1, _retired_config_key])
    def test_same_one_line_runtime_error(self, dataset, config_file, trained_run, tmp_path,
                                         capsys, command, make):
        ckpt = tmp_path / "c.satt"
        message = make(ckpt, trained_run)
        argv = {
            "enhance": ["--checkpoint", str(ckpt), "--in", str(dataset / "distorted" / "00000.ppm"),
                        "--out", str(tmp_path / "o.ppm")],
            "eval": ["--checkpoint", str(ckpt), "--data", str(dataset)],
            "train": ["--resume", str(ckpt), "--config", str(config_file), "--data", str(dataset),
                      "--out", str(tmp_path / "r")],
        }[command]
        assert run_cli(command, *argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestEnhance:
    def test_single_file_same_dims(self, dataset, trained_run, tmp_path):
        src = dataset / "distorted" / "00000.ppm"
        dst = tmp_path / "out.ppm"
        assert run_cli("enhance", "--checkpoint", str(trained_run / "ckpt_final.satt"),
                       "--in", str(src), "--out", str(dst)) == 0
        assert load_image(dst).pixels.shape == load_image(src).pixels.shape

    def test_directory_keeps_basenames(self, dataset, trained_run, tmp_path):
        out = tmp_path / "batch"
        assert run_cli("enhance", "--checkpoint", str(trained_run / "ckpt_final.satt"),
                       "--in", str(dataset / "distorted"), "--out", str(out)) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(p.name for p in (dataset / "distorted").iterdir())

    def test_identity_checkpoint_passthrough(self, dataset, tmp_path):
        src = dataset / "distorted" / "00001.ppm"
        dst = tmp_path / "copy.ppm"
        assert run_cli("enhance", "--checkpoint", "identity",
                       "--in", str(src), "--out", str(dst)) == 0
        assert np.array_equal(load_image(dst).pixels, load_image(src).pixels)

    def test_missing_checkpoint_is_runtime_error(self, dataset, tmp_path, capsys):
        assert run_cli("enhance", "--checkpoint", str(tmp_path / "no.satt"),
                       "--in", str(dataset / "distorted" / "00000.ppm"),
                       "--out", str(tmp_path / "o.ppm")) == 1
        assert "checkpoint" in capsys.readouterr().err

    def test_checkpoint_without_generator_is_runtime_error(self, dataset, trained_run,
                                                          tmp_path, capsys):
        bundle = load_checkpoint(trained_run / "ckpt_final.satt")
        bundle.tensors = {k: v for k, v in bundle.tensors.items()
                          if not k.startswith("model/gen_xy/")}
        ckpt = tmp_path / "nogen.satt"
        save_checkpoint(bundle, ckpt)
        assert run_cli("enhance", "--checkpoint", str(ckpt),
                       "--in", str(dataset / "distorted" / "00000.ppm"),
                       "--out", str(tmp_path / "o.ppm")) == 1
        err = capsys.readouterr().err
        assert "gen_xy" in err and "Traceback" not in err
        assert not (tmp_path / "o.ppm").exists()

    def test_corrupt_checkpoint_is_runtime_error(self, dataset, trained_run, tmp_path,
                                                 capsys):
        raw = bytearray((trained_run / "ckpt_final.satt").read_bytes())
        weight = load_checkpoint(trained_run / "ckpt_final.satt").tensors[
            "model/gen_xy/e1/conv/weight"]
        raw[raw.index(weight.tobytes()) + weight.nbytes // 2] ^= 0x10
        ckpt = tmp_path / "bad.satt"
        ckpt.write_bytes(bytes(raw))
        src = dataset / "distorted" / "00000.ppm"
        assert run_cli("enhance", "--checkpoint", str(ckpt), "--in", str(src),
                       "--out", str(tmp_path / "o.ppm")) == 1
        assert "checksum mismatch" in capsys.readouterr().err
        assert not (tmp_path / "o.ppm").exists()

    @pytest.mark.skipif(importlib.util.find_spec("PIL") is not None,
                        reason="Pillow is installed")
    def test_png_without_pillow_is_runtime_error(self, tmp_path, capsys):
        src = tmp_path / "in.png"
        src.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(32))
        assert run_cli("enhance", "--checkpoint", "identity", "--in", str(src),
                       "--out", str(tmp_path / "o.ppm")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'png' extra" in err and "Traceback" not in err
        assert not (tmp_path / "o.ppm").exists()

    def test_wrong_image_size_is_runtime_error(self, trained_run, tmp_path):
        rec = datapipe.ImageRecord(
            id="big", pixels=np.zeros((3, 32, 32), dtype=np.uint8))
        save_image(rec, tmp_path / "big.ppm")
        assert run_cli("enhance", "--checkpoint", str(trained_run / "ckpt_final.satt"),
                       "--in", str(tmp_path / "big.ppm"),
                       "--out", str(tmp_path / "o.ppm")) == 1

    def test_wrong_size_in_directory_names_the_file(self, tmp_path, capsys):
        cfg = trainer.TrainConfig.from_dict({**TINY_TRAIN, "image_size": 64})
        models = trainer.build_models(cfg)
        ckpt = tmp_path / "c64.satt"
        save_checkpoint(trainer.bundle_from_live(
            models, trainer.build_optimizers(models, cfg.lr), cfg, 0, 0), ckpt)
        src = tmp_path / "in"
        src.mkdir()
        rng = np.random.default_rng(0)
        for k in range(5):
            save_image(datapipe.ImageRecord(
                str(k), rng.integers(0, 256, (3, 64, 64), np.uint8)), src / f"{k}.ppm")
        save_image(datapipe.ImageRecord(
            "s", np.zeros((3, 32, 32), np.uint8)), src / "2b_small.ppm")
        assert run_cli("enhance", "--checkpoint", str(ckpt), "--in", str(src),
                       "--out", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
        assert str(src / "2b_small.ppm") in err and "64x64" in err and "32x32" in err

    def test_directory_matches_enhance_record(self, dataset, trained_run, tmp_path):
        ckpt = trained_run / "ckpt_final.satt"
        out = tmp_path / "batch"
        assert run_cli("enhance", "--checkpoint", str(ckpt),
                       "--in", str(dataset / "distorted"), "--out", str(out)) == 0
        gen = trainer.load_generator(ckpt)
        for src in sorted((dataset / "distorted").iterdir()):
            want = trainer.enhance_record(gen, load_image(src)).pixels
            assert load_image(out / src.name).pixels.tobytes() == want.tobytes()


class TestEval:
    def test_csv_rows_and_aggregates(self, dataset, trained_run, tmp_path):
        csv = tmp_path / "r.csv"
        assert run_cli("eval", "--checkpoint", str(trained_run / "ckpt_final.satt"),
                       "--data", str(dataset), "--csv", str(csv)) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "id,psnr_db,ssim,uiqm"
        assert lines[-2].startswith("MEAN,")
        assert lines[-1].startswith("STD,")
        assert len(lines) == 1 + 1 + 2  # header + one test image + aggregates

    def test_metrics_flag_restricts_columns(self, dataset, tmp_path):
        csv = tmp_path / "r.csv"
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(dataset),
                       "--metrics", "psnr", "--csv", str(csv)) == 0
        assert csv.read_text().splitlines()[0] == "id,psnr_db"

    def test_identity_model_equals_input_baseline(self, dataset, capsys):
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(dataset)) == 0
        out = capsys.readouterr().out.splitlines()
        input_line = next(l for l in out if l.startswith("input:"))
        model_line = next(l for l in out if l.startswith("model:"))
        assert input_line.split(":", 1)[1] == model_line.split(":", 1)[1]

    def test_unknown_metric_is_usage_error(self, dataset, capsys):
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(dataset),
                       "--metrics", "vibes") == 2
        assert "vibes" in capsys.readouterr().err

    def test_manifest_without_splits_is_runtime_error(self, dataset, tmp_path, capsys):
        broken = tmp_path / "d"
        broken.mkdir()
        doc = json.loads((dataset / "manifest.json").read_text())
        del doc["splits"]
        (broken / "manifest.json").write_text(json.dumps(doc))
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(broken)) == 1
        err = capsys.readouterr().err
        assert "splits" in err and "Traceback" not in err

    @pytest.mark.parametrize("role", [None, "distorted"])
    def test_manifest_id_without_file_roles_is_runtime_error(self, dataset, tmp_path,
                                                             capsys, role):
        broken = tmp_path / "d"
        broken.mkdir()
        doc = json.loads((dataset / "manifest.json").read_text())
        test_id = doc["splits"]["test"][0]
        if role is None:
            del doc["files"][test_id]
        else:
            del doc["files"][test_id][role]
        (broken / "manifest.json").write_text(json.dumps(doc))
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(broken)) == 1
        err = capsys.readouterr().err
        assert test_id in err and "Traceback" not in err

    def test_csv_in_missing_directory_is_runtime_error(self, dataset, tmp_path, capsys,
                                                       monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("scored images before checking the CSV path")

        monkeypatch.setattr(cli, "evaluate", never)
        csv = tmp_path / "nodir" / "x.csv"
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(dataset),
                       "--csv", str(csv)) == 1
        assert capsys.readouterr().err.startswith("error: cannot write CSV")
        assert not csv.exists()

    def test_repeated_metric_is_usage_error(self, dataset, tmp_path, capsys):
        csv = tmp_path / "r.csv"
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(dataset),
                       "--metrics", "psnr,psnr,ssim", "--csv", str(csv)) == 2
        assert "more than once: psnr" in capsys.readouterr().err
        assert not csv.exists()

    @pytest.mark.parametrize("metrics_arg", [",", ""])
    def test_empty_metric_list_is_usage_error(self, dataset, capsys, metrics_arg):
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(dataset),
                       "--metrics", metrics_arg) == 2
        assert capsys.readouterr().err.startswith("error: no metrics given")

    def test_unknown_split_is_usage_error(self, dataset):
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(dataset),
                       "--split", "holdout") == 2


class TestDepthFallback:
    """train and eval name the ids that train on all-ones depth, in one line."""

    @staticmethod
    def _manifest(dataset, root, depth_missing, with_depth):
        shutil.copytree(dataset, root)
        ids = [f"{i:05d}" for i in range(10)]
        files = {i: {"distorted": f"distorted/{i}.ppm", "clean": f"clean/{i}.ppm"} for i in ids}
        for i in ids[:with_depth]:
            files[i]["depth"] = f"depth/{i}.pgm"
        (root / "manifest.json").write_text(json.dumps({
            "layout": "synthetic",
            "splits": {"train": ids[:9], "test": ids[9:]},
            "files": files,
            "depth_missing": depth_missing,
        }))

    @pytest.mark.parametrize("depth_missing, with_depth, n_train", [(True, 10, 9), (False, 6, 3)])
    def test_train_and_eval_warn(self, dataset, config_file, tmp_path, capsys,
                                 depth_missing, with_depth, n_train):
        root = tmp_path / "d"
        self._manifest(dataset, root, depth_missing, with_depth)
        assert run_cli("train", "--config", str(config_file), "--data", str(root),
                       "--out", str(tmp_path / "r")) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"warning: {n_train} of 9 ids have no depth map")
        assert "background stream is all zero" in err
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(root)) == 0
        assert capsys.readouterr().err.startswith("warning: 1 of 1 ids have no depth map")

    def test_no_warning_when_every_id_has_depth(self, dataset, config_file, tmp_path, capsys):
        assert run_cli("train", "--config", str(config_file), "--data", str(dataset),
                       "--out", str(tmp_path / "r")) == 0
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(dataset)) == 0
        assert capsys.readouterr().err == ""


class TestMaskPreview:
    def test_partition_sums_back_exactly(self, dataset, tmp_path):
        out = tmp_path / "m"
        image = dataset / "clean" / "00000.ppm"
        assert run_cli("mask-preview", "--image", str(image),
                       "--depth", str(dataset / "depth" / "00000.pgm"),
                       "--out", str(out)) == 0
        fg = load_image(out / "foreground.ppm").pixels.astype(np.int32)
        bg = load_image(out / "background.ppm").pixels.astype(np.int32)
        assert np.array_equal(fg + bg, load_image(image).pixels.astype(np.int32))

    def test_all_ones_depth_gives_black_background(self, dataset, tmp_path):
        depth = tmp_path / "ones.pgm"
        save_depth(np.ones((16, 16)), depth)
        assert np.all(load_depth(depth) == 1.0)
        out = tmp_path / "m"
        assert run_cli("mask-preview", "--image", str(dataset / "clean" / "00001.ppm"),
                       "--depth", str(depth), "--out", str(out)) == 0
        assert np.all(load_image(out / "background.ppm").pixels == 0)

    def test_mismatched_dims_is_usage_error(self, dataset, tmp_path, capsys):
        depth = tmp_path / "small.pgm"
        save_depth(np.ones((8, 8)) * 0.5, depth)
        assert run_cli("mask-preview", "--image", str(dataset / "clean" / "00000.ppm"),
                       "--depth", str(depth), "--out", str(tmp_path / "m")) == 2
        assert "dims" in capsys.readouterr().err


def _broken_case(rng):
    # finite differences see the untracked branch (shared buffer); backward
    # does not, so the reported gradient is half the true one
    x = _rand(rng, 1, 2, 4, 4)

    def f(x):
        return ops.add(ops.mean_sq(x), ops.mean_sq(Tensor4(x.data)))

    return f, [x]


class TestGradCheck:
    def test_all_ops_pass(self, capsys):
        assert run_cli("grad-check", "--ops", "all") == 0
        out = capsys.readouterr().out
        for op in OP_CASES:
            assert f"{op}: max rel err" in out

    def test_subset_run(self, capsys):
        assert run_cli("grad-check", "--ops", "add,tanh", "--seed", "2") == 0
        out = capsys.readouterr().out
        assert "add: max rel err" in out
        assert "conv2d" not in out

    def test_broken_op_fails_and_is_named(self, monkeypatch, capsys):
        monkeypatch.setitem(OP_CASES, "broken_detach", _broken_case)
        assert run_cli("grad-check", "--ops", "broken_detach") == 1
        assert "broken_detach" in capsys.readouterr().err

    @pytest.mark.parametrize("ops_arg", [",", "", " , "])
    def test_empty_op_list_is_usage_error(self, capsys, ops_arg):
        assert run_cli("grad-check", "--ops", ops_arg) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "none given" in captured.err
        assert "within tolerance" not in captured.out

    def test_unknown_op_is_usage_error(self, capsys):
        assert run_cli("grad-check", "--ops", "nosuchop") == 2
        assert "nosuchop" in capsys.readouterr().err


class TestParser:
    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["grad-check", "--bogus"])
        assert exc.value.code == 2


def _dataset_with_manifest(dataset, root, edit):
    """A copy of ``dataset`` whose manifest document went through ``edit``."""
    shutil.copytree(dataset, root)
    doc = json.loads((root / "manifest.json").read_text())
    edit(doc)
    (root / "manifest.json").write_text(json.dumps(doc))
    return root


class TestBadInvocation:
    """Each ends in its exit code and exactly one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize(
        "edit, overrides",
        [
            (lambda doc: doc["splits"].pop("train"), {}),
            (lambda doc: doc["splits"].update(train=[]), {}),
            (lambda doc: None, {"image_size": 32}),
            (lambda doc: doc["files"][doc["splits"]["train"][0]].update(clean=5), {}),
            # 9 pairs at batch 2 end in a batch of one, and 16 px halved 4 times is 1x1
            (lambda doc: None, {"generator": {"depth": 4, "base_channels": 4, "max_channels": 8}}),
        ],
        ids=["no-train-split", "empty-train-split", "wrong-image-size", "non-string-path",
             "single-value-norm-stage"],
    )
    def test_bad_training_data_writes_nothing(self, dataset, tmp_path, capsys, edit, overrides):
        data = _dataset_with_manifest(dataset, tmp_path / "d", edit)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY_TRAIN, **overrides}))
        out = tmp_path / "r"
        assert run_cli("train", "--config", str(cfg), "--data", str(data),
                       "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (out / "ckpt_init.satt").exists()

    def test_resume_on_bad_training_data_keeps_the_log(self, dataset, config_file, trained_run,
                                                      tmp_path, capsys):
        run = tmp_path / "run"
        shutil.copytree(trained_run, run)
        log = (run / "train_log.csv").read_bytes()
        data = _dataset_with_manifest(dataset, tmp_path / "d",
                                      lambda doc: doc["splits"].update(train=[]))
        assert run_cli("train", "--config", str(config_file), "--data", str(data),
                       "--out", str(run), "--resume", str(run / "ckpt_init.satt")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert (run / "train_log.csv").read_bytes() == log

    @pytest.mark.parametrize(
        "threads, argv",
        [
            (None, ["generate-data", "--count", "2", "--size", "16", "--seed", "-1",
                    "--out", "{tmp}/g"]),
            (None, ["grad-check", "--ops", "add", "--seed", "-1"]),
            ("abc", ["generate-data", "--count", "2", "--size", "16", "--out", "{tmp}/g"]),
            ("abc", ["eval", "--checkpoint", "identity", "--data", "{data}"]),
        ],
        ids=["generate-data-negative-seed", "grad-check-negative-seed",
             "generate-data-bad-threads", "eval-bad-threads"],
    )
    def test_usage_error(self, dataset, tmp_path, capsys, monkeypatch, threads, argv):
        if threads is not None:
            monkeypatch.setenv("SATT_THREADS", threads)
        assert run_cli(*(a.format(tmp=tmp_path, data=dataset) for a in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "g").exists()


#: per command: how to make the library call it makes raise, and its arguments
_INJECT = {
    "generate-data": (lambda mp, f: mp.setattr(cli, "generate_synthetic_dataset", f),
                      ["--count", "2", "--size", "16", "--out", "{tmp}/g"]),
    "train": (lambda mp, f: mp.setattr(cli, "train", f),
              ["--config", "{cfg}", "--data", "{data}", "--out", "{tmp}/r"]),
    "enhance": (lambda mp, f: mp.setattr(cli, "save_image", f),
                ["--checkpoint", "identity", "--in", "{data}/distorted", "--out", "{tmp}/e"]),
    "eval": (lambda mp, f: mp.setattr(cli, "evaluate", f),
             ["--checkpoint", "identity", "--data", "{data}"]),
    "mask-preview": (lambda mp, f: mp.setattr(cli, "load_depth", f),
                     ["--image", "{data}/clean/00000.ppm", "--depth", "{data}/depth/00000.pgm",
                      "--out", "{tmp}/m"]),
    # a registry case that raises while it builds its inputs
    "grad-check": (lambda mp, f: mp.setitem(OP_CASES, "raises", f), ["--ops", "raises"]),
}


class TestFailurePolicy:
    """``main`` alone turns a command's failure into its exit code and one line."""

    @pytest.mark.parametrize("exc_type", [OSError, ValueError, FloatingPointError])
    @pytest.mark.parametrize("command", sorted(_INJECT))
    def test_library_failure_is_one_line_exit_1(self, dataset, config_file, tmp_path, capsys,
                                                monkeypatch, command, exc_type):
        def fail(*args, **kwargs):
            raise exc_type("injected failure")

        inject, argv = _INJECT[command]
        inject(monkeypatch, fail)
        argv = [a.format(tmp=tmp_path, data=dataset, cfg=config_file) for a in argv]
        assert run_cli(command, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "injected failure" in err and "Traceback" not in err

    def test_only_main_prints_errors(self):
        """No handler in a command reports or swallows: each one re-raises."""
        source = Path(cli.__file__).read_text()
        functions = [n for n in ast.parse(source).body if isinstance(n, ast.FunctionDef)]
        printers = [f.name for f in functions if "error:" in ast.get_source_segment(source, f)]
        assert printers == ["main"]
        for f in functions:
            if f.name.startswith("cmd_"):
                for handler in (n for n in ast.walk(f) if isinstance(n, ast.ExceptHandler)):
                    assert isinstance(handler.body[-1], ast.Raise), f"{f.name}:{handler.lineno}"
