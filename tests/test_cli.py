"""Command-line contract: exit codes, determinism, file outputs."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from sepattn import cli, datapipe
from sepattn.datapipe import load_depth, load_image, save_depth, save_image
from sepattn.diffcore import ops
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
        manifest.validate()

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

    def test_retired_keys_at_kept_values_train(self, dataset, trained_run, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            **TINY_TRAIN, "gan_kind": "least_squares", "shared_region_discriminators": True,
            "generator": {**TINY_TRAIN["generator"], "image_size": 16, "in_channels": 3,
                          "kernel": 4, "leaky_slope": 0.2, "bn_epsilon": 1e-5,
                          "bn_momentum": 0.1},
            "discriminator": {**TINY_TRAIN["discriminator"], "image_size": 16,
                              "in_channels": 6, "kernel": 3, "stride": 2,
                              "leaky_slope": 0.2, "bn_epsilon": 1e-5, "bn_momentum": 0.1},
        }))
        out = tmp_path / "r"
        assert run_cli("train", "--config", str(cfg), "--data", str(dataset),
                       "--out", str(out)) == 0
        assert (out / "ckpt_final.satt").read_bytes() == (
            trained_run / "ckpt_final.satt").read_bytes()

    def test_malformed_json_is_usage_error(self, dataset, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert run_cli("train", "--config", str(cfg), "--data", str(dataset),
                       "--out", str(tmp_path / "r")) == 2

    def test_missing_manifest_is_runtime_error(self, config_file, tmp_path, capsys):
        assert run_cli("train", "--config", str(config_file),
                       "--data", str(tmp_path / "nowhere"),
                       "--out", str(tmp_path / "r")) == 1
        assert "manifest" in capsys.readouterr().err


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

    def test_wrong_image_size_is_runtime_error(self, trained_run, tmp_path):
        rec = datapipe.ImageRecord(
            id="big", pixels=np.zeros((3, 32, 32), dtype=np.uint8))
        save_image(rec, tmp_path / "big.ppm")
        assert run_cli("enhance", "--checkpoint", str(trained_run / "ckpt_final.satt"),
                       "--in", str(tmp_path / "big.ppm"),
                       "--out", str(tmp_path / "o.ppm")) == 1


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

    def test_csv_in_missing_directory_is_runtime_error(self, dataset, tmp_path, capsys):
        csv = tmp_path / "nodir" / "x.csv"
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(dataset),
                       "--csv", str(csv)) == 1
        assert capsys.readouterr().err.startswith("error: cannot write CSV")
        assert not csv.exists()

    def test_unknown_split_is_usage_error(self, dataset):
        assert run_cli("eval", "--checkpoint", "identity", "--data", str(dataset),
                       "--split", "holdout") == 2


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
    # finite differences see the detached branch (shared buffer); backward
    # does not, so the reported gradient is half the true one
    x = _rand(rng, 1, 2, 4, 4)

    def f(x):
        return ops.add(ops.mean_sq(x), ops.mean_sq(x.detach()))

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
