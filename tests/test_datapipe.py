"""I/O round-trips, degradation model math, and dataset generation."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sepattn import datapipe, metrics
from sepattn.datapipe import (
    DegradeParams,
    ImageRecord,
    LayoutError,
    ParseError,
    degrade,
    from_model_space,
    generate_synthetic_dataset,
    load_depth,
    load_image,
    load_manifest,
    load_pair,
    save_depth,
    save_image,
    to_model_space,
)

# frozen regression bound: mean PSNR(distorted, clean) over the 50-sample
# default-preset dataset below measured once at 14.91 dB; held to +/- 1 dB
PSNR_BAND_CENTER = 14.91
PSNR_BAND_HALF_WIDTH = 1.0


def random_record(seed=0, channels=3, h=6, w=5, id="img"):
    rng = np.random.default_rng(seed)
    return ImageRecord(id=id, pixels=rng.integers(0, 256, (channels, h, w), dtype=np.uint8))


class TestPpmIo:
    @pytest.mark.parametrize("channels", [1, 3])
    def test_round_trip_identity(self, tmp_path, channels):
        rec = random_record(channels=channels)
        ext = "ppm" if channels == 3 else "pgm"
        p = tmp_path / f"x.{ext}"
        save_image(rec, p)
        back = load_image(p)
        assert back.channels == channels
        assert np.array_equal(back.pixels, rec.pixels)
        assert back.id == "x"

    def test_hand_crafted_color_layout(self, tmp_path):
        # 2x1 image: left pixel pure red, right pixel pure green; data is
        # row-major interleaved RGB, records are channel-major
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 255, 0]))
        rec = load_image(p)
        assert rec.pixels.shape == (3, 1, 2)
        assert list(rec.pixels[:, 0, 0]) == [255, 0, 0]
        assert list(rec.pixels[:, 0, 1]) == [0, 255, 0]

    def test_header_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5 # camera\n# second note\n 3\t2 #w h\n255\n" + bytes(6))
        rec = load_image(p)
        assert rec.pixels.shape == (1, 2, 3)

    def test_truncated_data_names_counts(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n4 4\n255\n" + bytes(30))  # needs 48
        with pytest.raises(ParseError, match=r"truncated.*need 48.*found 30"):
            load_image(p)

    def test_unsupported_magic_named(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P4\n4 4\n" + bytes(8))
        with pytest.raises(ParseError, match=r"P4"):
            load_image(p)

    def test_wrong_maxval_rejected(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 2\n15\n" + bytes(4))
        with pytest.raises(ParseError, match="maxval 15"):
            load_image(p)

    def test_malformed_width_reports_offset(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\nxx 2\n255\n" + bytes(12))
        with pytest.raises(ParseError, match=r"byte 3.*width.*b'xx'"):
            load_image(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"")
        with pytest.raises(ParseError, match="unsupported format"):
            load_image(p)

    def test_trailing_bytes_tolerated(self, tmp_path):
        p = tmp_path / "t.pgm"
        p.write_bytes(b"P5\n2 1\n255\n" + bytes([7, 9]) + b"\n")
        assert list(load_image(p).pixels[0, 0]) == [7, 9]

    def test_depth_round_trip(self, tmp_path):
        depth = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        p = tmp_path / "d.pgm"
        save_depth(depth, p)
        back = load_depth(p)
        assert back.shape == (4, 4)
        assert np.all((back >= 0) & (back <= 1))
        # 8-bit quantization error at most half a level
        assert np.max(np.abs(back - depth)) <= 0.5 / 255 + 1e-12
        assert back[0, 0] == 0.0 and back[3, 3] == 1.0

    def test_record_validation(self):
        with pytest.raises(ValueError, match=r"\(1\|3, H, W\)"):
            ImageRecord(id="b", pixels=np.zeros((2, 4, 4), np.uint8))
        with pytest.raises(TypeError, match="uint8"):
            ImageRecord(id="b", pixels=np.zeros((3, 4, 4), np.float32))


class TestModelSpace:
    def test_endpoints(self):
        rec = ImageRecord(id="e", pixels=np.array([[[0, 255]]], np.uint8))
        t = to_model_space(rec)
        assert t.shape == (1, 1, 1, 2)
        assert t.data[0, 0, 0, 0] == -1.0
        assert t.data[0, 0, 0, 1] == 1.0

    def test_zero_maps_to_128(self):
        from sepattn.diffcore import Tensor4

        t = Tensor4(np.zeros((1, 1, 1, 1), np.float32))
        assert from_model_space(t).pixels[0, 0, 0] == 128

    def test_full_lattice_round_trip(self):
        px = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
        rec = ImageRecord(id="l", pixels=px)
        back = from_model_space(to_model_space(rec), id="l")
        assert np.array_equal(back.pixels, px)

    def test_out_of_range_clipped(self):
        from sepattn.diffcore import Tensor4

        t = Tensor4(np.array([[[[-2.0, 2.0]]]], np.float32))
        assert list(from_model_space(t).pixels[0, 0]) == [0, 255]


class TestDegrade:
    def flat(self, value, h=4, w=4):
        return ImageRecord(id="f", pixels=np.full((3, h, w), value, np.uint8))

    def test_zero_attenuation_is_identity(self):
        params = DegradeParams(beta=(0.0, 0.0, 0.0), contrast_gain=1.0, noise_sigma=0.0)
        rec = random_record(3)
        out = degrade(rec, np.full(rec.pixels.shape[1:], 0.25), params)
        assert np.array_equal(out.pixels, rec.pixels)

    def test_half_transmission_worked_value(self):
        # clean 200, veil 50, beta*d = ln 2 -> t = 0.5 -> 125
        d = 0.5
        b = math.log(2.0) / d
        params = DegradeParams(
            beta=(b, b, b), backscatter=(50.0, 50.0, 50.0), contrast_gain=1.0, noise_sigma=0.0
        )
        out = degrade(self.flat(200), np.full((4, 4), 1.0 - d), params)
        assert np.all(out.pixels == 125)

    def test_full_veil_limit(self):
        params = DegradeParams(
            beta=(1e4, 1e4, 1e4), backscatter=(20.0, 120.0, 140.0),
            contrast_gain=1.0, noise_sigma=0.0,
        )
        out = degrade(random_record(1), np.zeros((6, 5)), params)  # d = 1 everywhere
        assert np.all(out.pixels[0] == 20)
        assert np.all(out.pixels[1] == 120)
        assert np.all(out.pixels[2] == 140)

    def test_contrast_pulls_toward_channel_mean(self):
        px = np.zeros((3, 1, 2), np.uint8)
        px[:, 0, 0] = 100
        px[:, 0, 1] = 200
        params = DegradeParams(beta=(0.0, 0.0, 0.0), contrast_gain=0.5, noise_sigma=0.0)
        out = degrade(ImageRecord(id="c", pixels=px), np.ones((1, 2)), params)
        assert np.all(out.pixels[:, 0, 0] == 125)  # mean 150, halved spread
        assert np.all(out.pixels[:, 0, 1] == 175)

    def test_noise_is_seed_deterministic(self):
        rec = random_record(5)
        depth = np.full(rec.pixels.shape[1:], 0.5)
        a = degrade(rec, depth, DegradeParams(seed=3))
        b = degrade(rec, depth, DegradeParams(seed=3))
        c = degrade(rec, depth, DegradeParams(seed=4))
        assert np.array_equal(a.pixels, b.pixels)
        assert not np.array_equal(a.pixels, c.pixels)

    def test_monotone_toward_veil(self):
        # raising beta_R moves every red pixel strictly toward the veil color
        rng = np.random.default_rng(8)
        px = rng.integers(150, 256, (3, 8, 8), dtype=np.uint8)
        rec = ImageRecord(id="m", pixels=px)
        depth = rng.uniform(0.0, 0.7, (8, 8))  # d >= 0.3 everywhere
        veil = 20.0
        outs = []
        for beta_r in (0.5, 1.5):
            params = DegradeParams(
                beta=(beta_r, 0.4, 0.2), backscatter=(veil, veil, veil),
                contrast_gain=1.0, noise_sigma=0.0,
            )
            outs.append(degrade(rec, depth, params).pixels[0].astype(float))
        assert np.all(np.abs(outs[1] - veil) < np.abs(outs[0] - veil))

    def test_heavier_water_lowers_psnr(self):
        rng = np.random.default_rng(9)
        rec = ImageRecord(id="p", pixels=rng.integers(0, 256, (3, 16, 16), dtype=np.uint8))
        depth = rng.uniform(0.0, 0.8, (16, 16))
        scores = []
        for scale in (0.25, 1.0):
            params = DegradeParams(
                beta=(1.8 * scale, 0.9 * scale, 0.4 * scale), noise_sigma=0.0
            )
            out = degrade(rec, depth, params)
            scores.append(metrics.psnr(rec.pixels, out.pixels))
        assert scores[0] > scores[1]

    def test_param_validation(self):
        with pytest.raises(ValueError, match="red >= green >= blue"):
            DegradeParams(beta=(0.4, 0.9, 1.8))
        with pytest.raises(ValueError, match="contrast_gain"):
            DegradeParams(contrast_gain=0.0)
        with pytest.raises(ValueError, match="noise_sigma"):
            DegradeParams(noise_sigma=-1.0)
        with pytest.raises(ValueError, match="backscatter"):
            DegradeParams(backscatter=(300.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="seed"):
            replace(DegradeParams(), seed=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_sigma", math.nan),
            ("noise_sigma", math.inf),
            ("contrast_gain", math.nan),
            ("beta", (math.inf, 0.9, 0.4)),
            ("beta", (1.8, math.nan, 0.4)),
            ("backscatter", (math.nan, 120.0, 140.0)),
        ],
    )
    def test_non_finite_params_rejected(self, field, value):
        # NaN noise once rendered no noise at all: nan > 0 is false
        with pytest.raises(ValueError, match=field):
            DegradeParams(**{field: value})

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            degrade(random_record(), np.zeros((9, 9)), DegradeParams())


def tree_bytes(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


class TestSyntheticDataset:
    def test_layout_splits_and_dims(self, tmp_path):
        man = generate_synthetic_dataset(20, 16, DegradeParams(), seed=5, out_root=tmp_path)
        assert man.layout == "synthetic"
        assert len(man.splits["train"]) == 18
        assert len(man.splits["test"]) == 2
        assert man.splits["val"] == []
        assert all((tmp_path / rel).is_file() for roles in man.files.values() for rel in roles.values())
        pair = load_pair(man, man.splits["test"][0])
        assert pair.clean.pixels.shape == (3, 16, 16)
        assert pair.distorted.pixels.shape == (3, 16, 16)
        assert pair.depth.shape == (16, 16)

    def test_same_seed_is_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            generate_synthetic_dataset(6, 16, DegradeParams(), seed=2, out_root=tmp_path / d)
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        generate_synthetic_dataset(3, 16, DegradeParams(), seed=2, out_root=tmp_path / "a")
        generate_synthetic_dataset(3, 16, DegradeParams(), seed=3, out_root=tmp_path / "b")
        assert tree_bytes(tmp_path / "a") != tree_bytes(tmp_path / "b")

    def test_parallel_generation_matches_serial(self, tmp_path, monkeypatch):
        generate_synthetic_dataset(6, 16, DegradeParams(), seed=4, out_root=tmp_path / "s")
        monkeypatch.setenv("SATT_THREADS", "4")
        generate_synthetic_dataset(6, 16, DegradeParams(), seed=4, out_root=tmp_path / "p")
        assert tree_bytes(tmp_path / "s") == tree_bytes(tmp_path / "p")

    def test_manifest_reload_round_trip(self, tmp_path):
        man = generate_synthetic_dataset(4, 16, DegradeParams(), seed=1, out_root=tmp_path)
        back = load_manifest(tmp_path)
        assert back.splits == man.splits
        assert back.files == man.files
        assert back.image_size == 16
        assert back.params["beta"] == [1.8, 0.9, 0.4]
        assert all(back.path(i, role).is_file() for i, roles in back.files.items() for role in roles)

    @pytest.mark.parametrize(
        "edit,match",
        [
            (lambda doc: doc.pop("splits"), "'splits' is missing"),
            (lambda doc: doc.pop("files"), "'files' is missing"),
            (lambda doc: doc.update(splits=["train"]), "'splits' is missing or not a dict"),
            (lambda doc: doc.update(layout=3), "'layout' is missing or not a str"),
            (lambda doc: doc["files"].pop("00000"), "'00000'.*lacks a 'distorted' or 'clean'"),
            (lambda doc: doc["files"]["00001"].pop("clean"), "'00001'.*lacks a 'distorted' or 'clean'"),
            (lambda doc: doc["splits"].update(train="00000"), "split 'train' must be a list"),
            (lambda doc: doc["splits"]["test"].append("00001"), "'00001' appears in both 'test' and 'train'"),
            (lambda doc: doc.update(depth_missing="false"), "'depth_missing' must be true or false"),
            (lambda doc: doc["files"]["00001"].update(clean=5), "'00001' has a non-string 'clean' path: 5"),
            (lambda doc: doc["files"]["00000"].update(depth=None), "'00000' has a non-string 'depth' path: None"),
        ],
    )
    def test_malformed_manifest_is_layout_error(self, tmp_path, edit, match):
        generate_synthetic_dataset(2, 16, DegradeParams(), seed=1, out_root=tmp_path)
        mpath = tmp_path / "manifest.json"
        doc = json.loads(mpath.read_text())
        edit(doc)
        mpath.write_text(json.dumps(doc))
        with pytest.raises(LayoutError, match=match):
            load_manifest(tmp_path)

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
    def test_non_object_manifest_is_layout_error(self, tmp_path, text):
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(LayoutError, match="manifest.json"):
            load_manifest(tmp_path)

    def test_missing_file_is_found_at_load(self, tmp_path):
        man = generate_synthetic_dataset(3, 16, DegradeParams(), seed=1, out_root=tmp_path)
        (tmp_path / "clean" / "00001.ppm").unlink()
        with pytest.raises(FileNotFoundError, match="00001"):
            load_pair(man, "00001")

    @pytest.mark.parametrize("depth_missing", [True, False])
    def test_ids_without_depth_load_all_ones(self, tmp_path, depth_missing):
        generate_synthetic_dataset(2, 16, DegradeParams(), seed=1, out_root=tmp_path)
        files = {i: {"distorted": f"distorted/{i}.ppm", "clean": f"clean/{i}.ppm"}
                 for i in ("00000", "00001")}
        if depth_missing:  # depth files listed, but the manifest says not to use them
            for i, roles in files.items():
                roles["depth"] = f"depth/{i}.pgm"
        (tmp_path / "manifest.json").write_text(json.dumps({
            "layout": "synthetic", "splits": {"train": ["00000", "00001"]},
            "files": files, "depth_missing": depth_missing,
        }))
        man = load_manifest(tmp_path)
        assert man.depth_missing is depth_missing
        for i in files:
            assert not man.has_depth(i)
            assert np.all(load_pair(man, i).depth == 1.0)

    def test_depth_has_near_shapes_and_far_background(self, tmp_path):
        man = generate_synthetic_dataset(5, 32, DegradeParams(), seed=6, out_root=tmp_path)
        saw_near = False
        for i in sorted(man.files):
            depth = load_pair(man, i).depth
            assert depth.min() >= 0.0 and depth.max() <= 1.0
            saw_near |= bool((depth >= 0.5).any())
        assert saw_near

    def test_count_validation(self, tmp_path):
        with pytest.raises(ValueError, match="count"):
            generate_synthetic_dataset(0, 16, DegradeParams(), seed=1, out_root=tmp_path)

    def test_mean_psnr_regression_band(self, tmp_path):
        man = generate_synthetic_dataset(50, 64, DegradeParams(), seed=11, out_root=tmp_path)
        vals = [
            metrics.psnr(load_pair(man, i).clean.pixels, load_pair(man, i).distorted.pixels)
            for i in sorted(man.files)
        ]
        mean = float(np.mean(vals))
        assert abs(mean - PSNR_BAND_CENTER) <= PSNR_BAND_HALF_WIDTH
