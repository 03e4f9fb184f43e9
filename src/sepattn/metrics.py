"""Image quality metrics over 8-bit images: PSNR, SSIM, UIQM.

All arithmetic runs in float64. Inputs are uint8 arrays shaped (H, W) for
grayscale or (3, H, W) for color; color collapses to ITU-R 601 luma
(0.299 R + 0.587 G + 0.114 B, kept as floats) where a metric is defined on
intensity.

UIQM is the weighted sum of a colorfulness term (UICM, asymmetric
alpha-trimmed chroma statistics), a sharpness term (UISM, Sobel-edge contrast
per channel), and a contrast term (UIConM, log-entropy of block contrast).
Block terms that would divide by zero or take log of zero contribute zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .util import map_units

__all__ = [
    "PSNR_CAP_DB",
    "SSIM_C1",
    "SSIM_C2",
    "psnr",
    "ssim",
    "uicm",
    "uism",
    "uiconm",
    "uiqm",
    "MetricsReport",
    "batch_report",
    "KNOWN_METRICS",
]

PSNR_CAP_DB = 99.0
PEAK = 255.0

# SSIM stabilizers: (0.01 * 255)^2 and (0.03 * 255)^2
SSIM_C1 = 6.5025
SSIM_C2 = 58.5225
_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5

# UIQM mixing and UICM coefficients
_UIQM_C = (0.0282, 0.2953, 3.5753)
_UICM_MU_COEF = -0.0268
_UICM_SIGMA_COEF = 0.1586
_TRIM_ALPHA = 0.1
_BLOCK = 8

_LUMA = (0.299, 0.587, 0.114)

KNOWN_METRICS = ("psnr", "ssim", "uiqm")

# CSV column labels where they differ from the metric key
_CSV_LABELS = {"psnr": "psnr_db"}


class MetricInputError(ValueError):
    """Metric inputs are malformed (dtype, shape, or pairing)."""


def _check_image(img: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(img)
    if arr.dtype != np.uint8:
        raise MetricInputError(f"{name} must be uint8 (8-bit), got dtype {arr.dtype}")
    if arr.ndim == 2:
        return arr
    if arr.ndim == 3 and arr.shape[0] == 3:
        return arr
    raise MetricInputError(
        f"{name} must be (H, W) gray or (3, H, W) color, got shape {arr.shape}"
    )


def _check_pair(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    a = _check_image(a, "reference")
    b = _check_image(b, "candidate")
    if a.shape != b.shape:
        raise MetricInputError(f"image shapes differ: reference {a.shape} vs candidate {b.shape}")
    return a, b


def _luma(img: np.ndarray) -> np.ndarray:
    """(H, W) float64 intensity; color via ITU-R 601 weights, gray as-is."""
    f = img.astype(np.float64)
    if img.ndim == 2:
        return f
    r, g, b = _LUMA
    return r * f[0] + g * f[1] + b * f[2]


# ---------------------------------------------------------------------------
# PSNR


def psnr(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB against a 255 peak.

    Identical images have infinite ratio; that is reported as the 99 dB cap.
    """
    a, b = _check_pair(reference, candidate)
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return PSNR_CAP_DB
    return float(10.0 * np.log10(PEAK * PEAK / mse))


# ---------------------------------------------------------------------------
# SSIM


def _gaussian_kernel() -> np.ndarray:
    half = (_SSIM_WINDOW - 1) / 2.0
    x = np.arange(_SSIM_WINDOW, dtype=np.float64) - half
    k = np.exp(-(x * x) / (2.0 * _SSIM_SIGMA * _SSIM_SIGMA))
    return k / k.sum()


def _sep_valid(img: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Valid-mode correlation with the separable window k (outer) k."""
    v = sliding_window_view(img, k.size, axis=1) @ k
    v = sliding_window_view(v, k.size, axis=0) @ k
    return v


def _ssim_formula(mx, my, vx, vy, cov):
    num = (2.0 * mx * my + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
    return num / den


def ssim(reference: np.ndarray, candidate: np.ndarray, mode: str = "global") -> float:
    """Structural similarity on intensity.

    ``mode="global"`` treats the whole image as a single window (two-pass
    population moments); ``mode="windowed"`` averages the index over an 11x11
    Gaussian window (sigma 1.5) at every fully-contained position.
    """
    if mode not in ("global", "windowed"):
        raise ValueError(f"unknown ssim mode {mode!r}; use 'global' or 'windowed'")
    a, b = _check_pair(reference, candidate)
    x = _luma(a)
    y = _luma(b)
    if mode == "global":
        mx = float(x.mean())
        my = float(y.mean())
        dx = x - mx
        dy = y - my
        vx = float(np.mean(dx * dx))
        vy = float(np.mean(dy * dy))
        cov = float(np.mean(dx * dy))
        return float(_ssim_formula(mx, my, vx, vy, cov))
    h, w = x.shape
    if h < _SSIM_WINDOW or w < _SSIM_WINDOW:
        raise MetricInputError(
            f"windowed ssim needs at least {_SSIM_WINDOW}x{_SSIM_WINDOW} pixels, got {h}x{w}"
        )
    k = _gaussian_kernel()
    mx = _sep_valid(x, k)
    my = _sep_valid(y, k)
    vx = _sep_valid(x * x, k) - mx * mx
    vy = _sep_valid(y * y, k) - my * my
    cov = _sep_valid(x * y, k) - mx * my
    return float(np.mean(_ssim_formula(mx, my, vx, vy, cov)))


# ---------------------------------------------------------------------------
# UIQM


def _require_color(img: np.ndarray, name: str) -> np.ndarray:
    arr = _check_image(img, name)
    if arr.ndim != 3:
        raise MetricInputError(f"{name} must be color (3, H, W) for UIQM, got {arr.shape}")
    return arr


def _trimmed_mean(values: np.ndarray) -> float:
    """Asymmetric alpha-trimmed mean: drop ceil(aK) low and floor(aK) high."""
    s = np.sort(values, kind="stable")
    k = s.size
    t_lo = int(np.ceil(_TRIM_ALPHA * k))
    t_hi = int(np.floor(_TRIM_ALPHA * k))
    kept = k - t_lo - t_hi
    if kept <= 0:
        return 0.0
    return float(s[t_lo : k - t_hi].sum() / kept)


def uicm(image: np.ndarray) -> float:
    """Colorfulness from the two opponent chroma planes."""
    img = _require_color(image, "image").astype(np.float64)
    rg = (img[0] - img[1]).reshape(-1)
    yb = ((img[0] + img[1]) / 2.0 - img[2]).reshape(-1)
    mu_rg = _trimmed_mean(rg)
    mu_yb = _trimmed_mean(yb)
    var_rg = float(np.mean((rg - mu_rg) ** 2))
    var_yb = float(np.mean((yb - mu_yb) ** 2))
    return _UICM_MU_COEF * float(np.hypot(mu_rg, mu_yb)) + _UICM_SIGMA_COEF * float(
        np.sqrt(var_rg + var_yb)
    )


def _sobel_magnitude(plane: np.ndarray) -> np.ndarray:
    """Classic 3x3 Sobel gradient magnitude with edge-reflected borders."""
    p = np.pad(plane, 1, mode="symmetric")
    # horizontal derivative: smooth vertically, difference horizontally
    gx = (
        (p[:-2, 2:] + 2.0 * p[1:-1, 2:] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[1:-1, :-2] + p[2:, :-2])
    )
    gy = (
        (p[2:, :-2] + 2.0 * p[2:, 1:-1] + p[2:, 2:])
        - (p[:-2, :-2] + 2.0 * p[:-2, 1:-1] + p[:-2, 2:])
    )
    return np.hypot(gx, gy)


def _blocks(plane: np.ndarray) -> np.ndarray:
    """(k1, k2, B, B) view of the plane's complete 8x8 blocks."""
    h, w = plane.shape
    k1, k2 = h // _BLOCK, w // _BLOCK
    if k1 < 1 or k2 < 1:
        raise MetricInputError(
            f"UIQM needs at least one {_BLOCK}x{_BLOCK} block, got {h}x{w} pixels"
        )
    trimmed = plane[: k1 * _BLOCK, : k2 * _BLOCK]
    return trimmed.reshape(k1, _BLOCK, k2, _BLOCK).swapaxes(1, 2)


def _eme(plane: np.ndarray) -> float:
    """2/(k1 k2) * sum log(max/min) over blocks; zero-valued blocks contribute 0."""
    b = _blocks(plane)
    bmax = b.max(axis=(2, 3))
    bmin = b.min(axis=(2, 3))
    ok = (bmin > 0) & (bmax > 0)
    total = float(np.sum(np.log(bmax[ok] / bmin[ok])))
    k1, k2 = b.shape[:2]
    return 2.0 / (k1 * k2) * total


def uism(image: np.ndarray) -> float:
    """Sharpness: per-channel Sobel edge maps scored by block contrast."""
    img = _require_color(image, "image").astype(np.float64)
    total = 0.0
    for weight, plane in zip(_LUMA, img):
        edge = _sobel_magnitude(plane) * plane
        total += weight * _eme(edge)
    return total


def uiconm(image: np.ndarray) -> float:
    """Contrast: -1/(k1 k2) * sum (t/b) log(t/b) of block Michelson contrast."""
    img = _require_color(image, "image")
    b = _blocks(_luma(img))
    bmax = b.max(axis=(2, 3))
    bmin = b.min(axis=(2, 3))
    top = bmax - bmin
    bot = bmax + bmin
    ok = (bot > 0) & (top > 0)
    m = top[ok] / bot[ok]
    k1, k2 = b.shape[:2]
    return -1.0 / (k1 * k2) * float(np.sum(m * np.log(m)))


def uiqm(image: np.ndarray) -> float:
    """0.0282 * UICM + 0.2953 * UISM + 3.5753 * UIConM."""
    c1, c2, c3 = _UIQM_C
    return c1 * uicm(image) + c2 * uism(image) + c3 * uiconm(image)


# ---------------------------------------------------------------------------
# batch scoring


@dataclass
class MetricsReport:
    """Per-image metric rows plus exact aggregates over them."""

    metric_names: Tuple[str, ...]
    ids: List[str]
    rows: List[Dict[str, float]]

    def aggregate(self) -> Dict[str, Tuple[float, float]]:
        """(mean, sample std) per metric, recomputed from the rows.

        A single-row report has no spread to estimate; its std is 0.0.
        """
        out = {}
        for m in self.metric_names:
            vals = np.array([r[m] for r in self.rows], dtype=np.float64)
            std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
            out[m] = (float(vals.mean()), std)
        return out

    def to_csv(self) -> str:
        lines = ["id," + ",".join(_CSV_LABELS.get(m, m) for m in self.metric_names)]
        for id_, row in zip(self.ids, self.rows):
            lines.append(id_ + "," + ",".join(f"{row[m]:.6f}" for m in self.metric_names))
        agg = self.aggregate()
        lines.append("MEAN," + ",".join(f"{agg[m][0]:.6f}" for m in self.metric_names))
        lines.append("STD," + ",".join(f"{agg[m][1]:.6f}" for m in self.metric_names))
        return "\n".join(lines) + "\n"


def _score_one(
    item: Tuple[str, Optional[np.ndarray], np.ndarray],
    metrics: Sequence[str],
) -> Dict[str, float]:
    id_, ref, cand = item
    row: Dict[str, float] = {}
    for m in metrics:
        if m == "psnr":
            row[m] = psnr(ref, cand)
        elif m == "ssim":
            row[m] = ssim(ref, cand)
        elif m == "uiqm":
            row[m] = uiqm(cand)
    return row


def batch_report(
    items: Iterable[Tuple[str, Optional[np.ndarray], np.ndarray]],
    metrics: Sequence[str] = KNOWN_METRICS,
) -> MetricsReport:
    """Score (id, reference, candidate) triples.

    The reference may be None only when no requested metric needs one (UIQM is
    no-reference; PSNR and SSIM are full-reference).
    """
    metrics = tuple(metrics)
    unknown = [m for m in metrics if m not in KNOWN_METRICS]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}; known: {list(KNOWN_METRICS)}")
    if not metrics:
        raise ValueError("no metrics requested")
    items = list(items)
    needs_ref = any(m in ("psnr", "ssim") for m in metrics)
    for id_, ref, _ in items:
        if needs_ref and ref is None:
            raise MetricInputError(
                f"item {id_!r} has no reference image but {metrics} includes a "
                "full-reference metric"
            )
    # aggregates must not depend on arrival order
    items.sort(key=lambda it: it[0])
    rows = map_units(lambda it: _score_one(it, metrics), items)
    return MetricsReport(metric_names=metrics, ids=[it[0] for it in items], rows=rows)
