"""Metric values against independent scalar-loop references and hand cases."""
import math

import numpy as np
import pytest

from sepattn import metrics
from sepattn.datapipe import DegradeParams, generate_synthetic_dataset, load_image
from sepattn.metrics import MetricInputError


# ---------------------------------------------------------------------------
# independent double-precision references (plain python loops, no numpy math)


def ref_psnr(a, b):
    s = 0.0
    n = 0
    for u, v in zip(a.reshape(-1).tolist(), b.reshape(-1).tolist()):
        s += (float(u) - float(v)) ** 2
        n += 1
    mse = s / n
    if mse == 0.0:
        return 99.0
    return 10.0 * math.log10(255.0 * 255.0 / mse)


def ref_luma(img):
    if img.ndim == 2:
        return [[float(v) for v in row] for row in img.tolist()]
    out = []
    for i in range(img.shape[1]):
        row = []
        for j in range(img.shape[2]):
            row.append(
                0.299 * float(img[0, i, j]) + 0.587 * float(img[1, i, j]) + 0.114 * float(img[2, i, j])
            )
        out.append(row)
    return out


def ref_ssim_global(a, b):
    x = [v for row in ref_luma(a) for v in row]
    y = [v for row in ref_luma(b) for v in row]
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    vx = sum((u - mx) ** 2 for u in x) / n
    vy = sum((u - my) ** 2 for u in y) / n
    cov = sum((u - mx) * (v - my) for u, v in zip(x, y)) / n
    c1, c2 = 6.5025, 58.5225
    return ((2 * mx * my + c1) * (2 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2))


def gray(value, h=16, w=16):
    return np.full((3, h, w), value, np.uint8)


# ---------------------------------------------------------------------------
# UIQM in its plain float64 form: stable sort, per-plane np.pad Sobel and
# strided block reductions. The module's exact shortcuts must match it bytewise.


def ref_trimmed_mean(values):
    s = np.sort(values, kind="stable")
    k = s.size
    t_lo = int(np.ceil(0.1 * k))
    t_hi = int(np.floor(0.1 * k))
    kept = k - t_lo - t_hi
    if kept <= 0:
        return 0.0
    return float(s[t_lo : k - t_hi].sum() / kept)


def ref_uicm(image):
    img = image.astype(np.float64)
    rg = (img[0] - img[1]).reshape(-1)
    yb = ((img[0] + img[1]) / 2.0 - img[2]).reshape(-1)
    mu_rg = ref_trimmed_mean(rg)
    mu_yb = ref_trimmed_mean(yb)
    var_rg = float(np.mean((rg - mu_rg) ** 2))
    var_yb = float(np.mean((yb - mu_yb) ** 2))
    return -0.0268 * float(np.hypot(mu_rg, mu_yb)) + 0.1586 * float(np.sqrt(var_rg + var_yb))


def ref_sobel_magnitude(plane, magnitude=np.hypot):
    p = np.pad(plane, 1, mode="symmetric")
    gx = (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:]) - (p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2])
    gy = (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:]) - (p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:])
    return magnitude(gx, gy)


def ref_blocks(plane):
    k1, k2 = plane.shape[0] // 8, plane.shape[1] // 8
    return plane[: k1 * 8, : k2 * 8].reshape(k1, 8, k2, 8).swapaxes(1, 2)


def ref_eme(plane):
    b = ref_blocks(plane)
    bmax = b.max(axis=(2, 3))
    bmin = b.min(axis=(2, 3))
    ok = (bmin > 0) & (bmax > 0)
    total = float(np.sum(np.log(bmax[ok] / bmin[ok])))
    k1, k2 = b.shape[:2]
    return 2.0 / (k1 * k2) * total


def ref_uism(image, magnitude=np.hypot):
    total = 0.0
    for weight, plane in zip((0.299, 0.587, 0.114), image.astype(np.float64)):
        total += weight * ref_eme(ref_sobel_magnitude(plane, magnitude) * plane)
    return total


def ref_uiconm(image):
    f = image.astype(np.float64)
    b = ref_blocks(0.299 * f[0] + 0.587 * f[1] + 0.114 * f[2])
    bmax = b.max(axis=(2, 3))
    bmin = b.min(axis=(2, 3))
    top = bmax - bmin
    bot = bmax + bmin
    ok = (bot > 0) & (top > 0)
    m = top[ok] / bot[ok]
    k1, k2 = b.shape[:2]
    return -1.0 / (k1 * k2) * float(np.sum(m * np.log(m)))


def ref_uiqm(image):
    return 0.0282 * ref_uicm(image) + 0.2953 * ref_uism(image) + 3.5753 * ref_uiconm(image)


def uiqm_cases():
    rng = np.random.default_rng(31)
    cases = []
    for h, w in ((8, 8), (9, 17), (61, 45), (64, 64), (256, 256)):
        lo = int(rng.integers(0, 250))
        cases += [
            (f"random-{h}x{w}", rng.integers(0, 256, (3, h, w), dtype=np.uint8)),
            (f"narrow-{h}x{w}", rng.integers(lo, lo + 6, (3, h, w), dtype=np.uint8)),
            (f"binary-{h}x{w}", (rng.integers(0, 2, (3, h, w)) * 255).astype(np.uint8)),
            (f"zeros-{h}x{w}", np.zeros((3, h, w), np.uint8)),
            (f"full-{h}x{w}", np.full((3, h, w), 255, np.uint8)),
        ]
    return cases


UIQM_CASES = uiqm_cases()


# ---------------------------------------------------------------------------


class TestPsnr:
    def test_identical_hits_cap(self):
        img = np.random.default_rng(0).integers(0, 256, (3, 8, 8), dtype=np.uint8)
        assert metrics.psnr(img, img) == 99.0

    def test_farthest_constant_pair_is_zero_db(self):
        assert metrics.psnr(gray(0), gray(255)) == pytest.approx(0.0, abs=1e-12)

    def test_single_pixel_off_by_16_in_16x16(self):
        a = np.full((16, 16), 100, np.uint8)
        b = a.copy()
        b[3, 5] = 100 + 16  # MSE = 256/256 = 1
        assert metrics.psnr(a, b) == pytest.approx(10 * math.log10(255**2), abs=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
        b = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
        assert metrics.psnr(a, b) == pytest.approx(ref_psnr(a, b), rel=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricInputError, match="differ"):
            metrics.psnr(gray(0), gray(0, h=8))

    def test_non_uint8_rejected(self):
        with pytest.raises(MetricInputError, match="uint8"):
            metrics.psnr(np.zeros((4, 4), np.float32), np.zeros((4, 4), np.float32))


class TestSsim:
    def test_self_similarity_is_exactly_one(self):
        img = np.random.default_rng(1).integers(0, 256, (3, 16, 16), dtype=np.uint8)
        assert metrics.ssim(img, img) == 1.0

    def test_opposite_constants_worked_value(self):
        # zero variance, means 0 and 255: c1 / (255^2 + c1)
        want = 6.5025 / (65025.0 + 6.5025)
        assert metrics.ssim(gray(0), gray(255)) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_global_matches_scalar_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
        b = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
        assert metrics.ssim(a, b) == pytest.approx(ref_ssim_global(a, b), rel=1e-9)

    def test_color_reduces_to_luma(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
        b = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
        la = np.asarray(ref_luma(a))
        lb = np.asarray(ref_luma(b))
        # same statistics through the formula, computed from float luma
        got = metrics.ssim(a, b)
        mx, my = la.mean(), lb.mean()
        vx, vy = la.var(), lb.var()
        cov = ((la - mx) * (lb - my)).mean()
        want = ((2 * mx * my + 6.5025) * (2 * cov + 58.5225)) / (
            (mx**2 + my**2 + 6.5025) * (vx + vy + 58.5225)
        )
        assert got == pytest.approx(want, rel=1e-9)


class TestUiqmComponents:
    def test_uniform_gray_scores_zero_everywhere(self):
        img = gray(128)
        assert metrics.uicm(img) == 0.0
        assert metrics.uism(img) == 0.0
        assert metrics.uiconm(img) == 0.0
        assert metrics.uiqm(img) == 0.0

    def test_uicm_constant_chroma_offset(self):
        # R = G = B + 10: RG plane 0, YB plane 10 everywhere -> only the
        # trimmed-mean term contributes
        img = np.zeros((3, 16, 16), np.uint8)
        img[0] = 60
        img[1] = 60
        img[2] = 50
        assert metrics.uicm(img) == pytest.approx(-0.0268 * 10.0, rel=1e-12)

    def test_uicm_trimming_discards_tails(self):
        # one spike pixel in a 4x4 image; with 10% trimming (ceil/floor of
        # 1.6 -> 2 low, 1 high) the spike is dropped from the trimmed mean
        # but still counts toward the spread term
        img = np.zeros((3, 4, 4), np.uint8)
        img[0] = 100
        img[1] = 100
        img[2] = 60
        img[0, 0, 0] = 200  # RG spike of +100, YB spike of +50

        def trimmed(plane):
            s = np.sort(plane.reshape(-1))
            t_lo, t_hi = math.ceil(0.1 * 16), math.floor(0.1 * 16)
            mu = s[t_lo : 16 - t_hi].sum() / (16 - t_lo - t_hi)
            var = float(np.mean((plane - mu) ** 2))
            return mu, var

        rg = img[0].astype(float) - img[1].astype(float)
        yb = (img[0].astype(float) + img[1].astype(float)) / 2 - img[2].astype(float)
        mu_rg, var_rg = trimmed(rg)
        mu_yb, var_yb = trimmed(yb)
        want = -0.0268 * math.hypot(mu_rg, mu_yb) + 0.1586 * math.sqrt(var_rg + var_yb)
        assert metrics.uicm(img) == pytest.approx(want, rel=1e-12)

    def test_uiconm_single_block_hand_value(self):
        # one 8x8 block, equal channels: luma min 50, max 150
        img = np.full((3, 8, 8), 50, np.uint8)
        img[:, 0, 0] = 150
        m = (150 - 50) / (150 + 50)
        assert metrics.uiconm(img) == pytest.approx(-m * math.log(m), rel=1e-9)

    def test_uism_positive_on_smooth_ramp(self):
        # a ramp has strictly positive gradient magnitude everywhere, so no
        # block is skipped by the zero-minimum guard
        i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        plane = (10 + 5 * i + 7 * j).astype(np.uint8)
        img = np.stack([plane, plane, plane])
        assert metrics.uism(img) > 0.0

    def test_uism_step_edge_blocks_hit_zero_guard(self):
        # a hard step leaves zero-valued edge-map pixels in every block, so
        # each block is skipped and the sharpness score collapses to zero
        img = np.zeros((3, 16, 16), np.uint8)
        img[:, :, 8:] = 200
        assert metrics.uism(img) == 0.0

    def test_uism_scalar_loop_reference(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)

        def sobel_ref(p):
            h, w = p.shape
            pad = np.pad(p, 1, mode="symmetric")
            out = np.zeros((h, w))
            kx = [[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]]
            ky = [[-1, -2, -1], [0, 0, 0], [1, 2, 1]]
            for i in range(h):
                for j in range(w):
                    gx = gy = 0.0
                    for u in range(3):
                        for v in range(3):
                            gx += kx[u][v] * pad[i + u, j + v]
                            gy += ky[u][v] * pad[i + u, j + v]
                    out[i, j] = math.hypot(gx, gy)
            return out

        def eme_ref(p):
            k1, k2 = p.shape[0] // 8, p.shape[1] // 8
            total = 0.0
            for bi in range(k1):
                for bj in range(k2):
                    blk = p[bi * 8 : bi * 8 + 8, bj * 8 : bj * 8 + 8]
                    lo, hi = blk.min(), blk.max()
                    if lo > 0 and hi > 0:
                        total += math.log(hi / lo)
            return 2.0 / (k1 * k2) * total

        want = 0.0
        for weight, c in zip((0.299, 0.587, 0.114), img.astype(np.float64)):
            want += weight * eme_ref(sobel_ref(c) * c)
        assert metrics.uism(img) == pytest.approx(want, rel=1e-9)

    def test_uiqm_definitional_consistency(self):
        rng = np.random.default_rng(12)
        img = rng.integers(0, 256, (3, 24, 24), dtype=np.uint8)
        parts = (
            0.0282 * metrics.uicm(img)
            + 0.2953 * metrics.uism(img)
            + 3.5753 * metrics.uiconm(img)
        )
        assert metrics.uiqm(img) == parts

    def test_uiqm_prefers_vivid_over_flat(self):
        rng = np.random.default_rng(4)
        vivid = rng.integers(0, 256, (3, 32, 32), dtype=np.uint8)
        flat = (vivid // 4 + 96).astype(np.uint8)  # compressed contrast
        assert metrics.uiqm(vivid) > metrics.uiqm(flat)

    def test_uiqm_requires_color(self):
        with pytest.raises(MetricInputError, match="color"):
            metrics.uiqm(np.zeros((8, 8), np.uint8))

    def test_too_small_for_blocks_rejected(self):
        with pytest.raises(MetricInputError, match="block"):
            metrics.uiqm(np.zeros((3, 4, 4), np.uint8))

    @pytest.mark.parametrize("term", [metrics.uism, metrics.uiconm])
    @pytest.mark.parametrize("shape", [(3, 7, 64), (3, 64, 7)])
    def test_block_terms_reject_under_one_block(self, term, shape):
        with pytest.raises(MetricInputError, match="block"):
            term(np.zeros(shape, np.uint8))


class TestUiqmBitExact:
    @staticmethod
    def assert_same_bytes(img):
        for name, ref in (("uicm", ref_uicm), ("uism", ref_uism),
                          ("uiconm", ref_uiconm), ("uiqm", ref_uiqm)):
            got = np.float64(getattr(metrics, name)(img)).tobytes()
            assert got == np.float64(ref(img)).tobytes(), name

    @pytest.mark.parametrize("img", [c for _, c in UIQM_CASES],
                             ids=[label for label, _ in UIQM_CASES])
    def test_matches_float64_reference_bytewise(self, img):
        self.assert_same_bytes(img)

    def test_rendered_scenes_match_float64_reference_bytewise(self, tmp_path):
        generate_synthetic_dataset(40, 64, DegradeParams(), seed=8, out_root=tmp_path)
        paths = sorted(tmp_path.glob("*/*.ppm"))
        assert len(paths) == 80
        for path in paths:
            self.assert_same_bytes(load_image(path).pixels)

    def test_hypot_rounding_reaches_uism_bytes(self):
        # on this single block, sqrt(gx*gx + gy*gy) rounds one block extreme
        # differently from np.hypot, and UISM's bytes show it
        img = np.random.default_rng(675).integers(100, 256, (3, 8, 8), dtype=np.uint8)
        sqrt_uism = ref_uism(img, magnitude=lambda gx, gy: np.sqrt(gx * gx + gy * gy))
        assert np.float64(sqrt_uism).tobytes() != np.float64(ref_uism(img)).tobytes()
        self.assert_same_bytes(img)

    def test_checkerboard_reaches_largest_sobel_value(self):
        # 4 px squares of 0 and 255: three rows inside one square see a full
        # 0 -> 255 column step, the largest |gx| an 8-bit image allows
        img = np.broadcast_to(
            (np.indices((64, 64)) // 4).sum(axis=0) % 2 * 255, (3, 64, 64)
        ).astype(np.uint8)
        gx = ref_sobel_magnitude(img[0].astype(np.float64), lambda gx, gy: gx)
        assert np.abs(gx).max() == 1020
        self.assert_same_bytes(img)

    def test_sobel_magnitude_is_hypot_on_every_pair(self):
        g = np.arange(-1020, 1021, dtype=np.int16)
        gx, gy = np.meshgrid(g, g, indexing="ij")  # all 2041² signed pairs
        got = metrics._sobel_magnitude(gx, gy)
        assert got.tobytes() == np.hypot(gx.astype(np.float64), gy.astype(np.float64)).tobytes()

    def test_trimmed_mean_ignores_order(self):
        rng = np.random.default_rng(32)
        img = rng.integers(0, 256, (3, 64, 64)).astype(np.float64)
        values = ((img[0] + img[1]) / 2.0 - img[2]).reshape(-1)
        want = np.float64(ref_trimmed_mean(values)).tobytes()
        for _ in range(3):
            got = metrics._trimmed_mean(rng.permutation(values))
            assert np.float64(got).tobytes() == want


class TestBatchReport:
    def _items(self, n=3, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            ref = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
            cand = rng.integers(0, 256, (3, 16, 16), dtype=np.uint8)
            out.append((f"img{i:03d}", ref, cand))
        return out

    def test_rows_and_aggregate(self):
        items = self._items()
        rep = metrics.batch_report(items)
        assert rep.ids == ["img000", "img001", "img002"]
        agg = rep.aggregate()
        vals = [r["psnr"] for r in rep.rows]
        assert agg["psnr"][0] == pytest.approx(np.mean(vals), rel=1e-12)
        assert agg["psnr"][1] == pytest.approx(np.std(vals, ddof=1), rel=1e-12)

    def test_sample_std_worked_pair(self):
        rep = metrics.MetricsReport(
            metric_names=("psnr",), ids=["a", "b"], rows=[{"psnr": 10.0}, {"psnr": 20.0}]
        )
        mean, std = rep.aggregate()["psnr"]
        assert mean == 15.0
        assert std == pytest.approx(math.sqrt(50.0), rel=1e-12)  # ~7.071

    def test_single_row_std_is_zero(self):
        rep = metrics.batch_report(self._items(n=1))
        assert rep.aggregate()["ssim"][1] == 0.0

    def test_rows_sorted_by_id_regardless_of_input_order(self):
        items = self._items()
        fwd = metrics.batch_report(items)
        rev = metrics.batch_report(list(reversed(items)))
        assert fwd.ids == rev.ids == sorted(fwd.ids)
        assert fwd.to_csv() == rev.to_csv()

    def test_csv_layout(self):
        rep = metrics.batch_report(self._items(n=2))
        lines = rep.to_csv().strip().split("\n")
        assert lines[0] == "id,psnr_db,ssim,uiqm"
        assert lines[-2].startswith("MEAN,")
        assert lines[-1].startswith("STD,")
        assert len(lines) == 2 + 2 + 1
        # six decimal places everywhere
        for cell in lines[1].split(",")[1:]:
            assert len(cell.split(".")[1]) == 6

    def test_metric_subset_restricts_columns(self):
        rep = metrics.batch_report(self._items(n=1), metrics=("psnr",))
        assert rep.to_csv().splitlines()[0] == "id,psnr_db"

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            metrics.batch_report(self._items(n=1), metrics=("psnr", "vmaf"))

    def test_repeated_metric_rejected(self):
        with pytest.raises(ValueError, match="more than once.*psnr"):
            metrics.batch_report(self._items(n=1), metrics=("psnr", "psnr", "ssim"))

    def test_missing_reference_rejected_for_full_reference_metric(self):
        items = [("a", None, gray(5))]
        with pytest.raises(MetricInputError, match="reference"):
            metrics.batch_report(items, metrics=("psnr",))

    def test_uiqm_only_needs_no_reference(self):
        items = [("a", None, np.random.default_rng(0).integers(0, 256, (3, 16, 16), dtype=np.uint8))]
        rep = metrics.batch_report(items, metrics=("uiqm",))
        assert np.isfinite(rep.rows[0]["uiqm"])


    def test_threaded_scoring_matches_serial(self, monkeypatch):
        items = self._items(n=4, seed=3)
        serial = metrics.batch_report(items)
        monkeypatch.setenv("SATT_THREADS", "3")
        threaded = metrics.batch_report(items)
        assert threaded.to_csv() == serial.to_csv()


class TestInvariants:
    def test_psnr_strictly_decreases_with_noise_amplitude(self):
        rng = np.random.default_rng(21)
        clean = rng.integers(60, 196, (3, 32, 32), dtype=np.uint8)
        scores = []
        for amp in (1, 2, 4, 8, 16):
            noise = rng.integers(-amp, amp + 1, clean.shape)
            noisy = np.clip(clean.astype(int) + noise, 0, 255).astype(np.uint8)
            scores.append(metrics.psnr(clean, noisy))
        assert all(a > b for a, b in zip(scores, scores[1:]))

    def test_psnr_invariant_under_shared_permutation(self):
        rng = np.random.default_rng(22)
        a = rng.integers(0, 256, (3, 8, 8), dtype=np.uint8)
        b = rng.integers(0, 256, (3, 8, 8), dtype=np.uint8)
        perm = rng.permutation(a.size)
        pa = a.reshape(-1)[perm].reshape(a.shape)
        pb = b.reshape(-1)[perm].reshape(b.shape)
        assert metrics.psnr(pa, pb) == pytest.approx(metrics.psnr(a, b), rel=1e-12)

    def test_ssim_symmetric_and_bounded(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            a = rng.integers(0, 256, (16, 16), dtype=np.uint8)
            b = rng.integers(0, 256, (16, 16), dtype=np.uint8)
            s_ab = metrics.ssim(a, b)
            s_ba = metrics.ssim(b, a)
            assert s_ab == pytest.approx(s_ba, rel=1e-12)
            assert -1.0 < s_ab <= 1.0

    def test_uicm_zero_when_chroma_planes_vanish(self):
        # R = G and (R+G)/2 = B pointwise kills both difference signals
        rng = np.random.default_rng(24)
        r = (rng.integers(0, 128, (16, 16)) * 2).astype(np.uint8)  # even values
        img = np.stack([r, r, r])
        assert metrics.uicm(img) == 0.0

    def test_uicm_invariant_to_common_channel_shift(self):
        rng = np.random.default_rng(25)
        img = rng.integers(0, 200, (3, 16, 16), dtype=np.uint8)
        shifted = (img + 40).astype(np.uint8)
        assert metrics.uicm(shifted) == pytest.approx(metrics.uicm(img), rel=1e-12)
