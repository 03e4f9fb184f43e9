"""Image quality metrics over 8-bit images: PSNR, SSIM, UIQM.

All arithmetic runs in float64. Inputs are uint8 arrays shaped (H, W) for
grayscale or (3, H, W) for color; color collapses to ITU-R 601 luma
(0.299 R + 0.587 G + 0.114 B, kept as floats) where a metric is defined on
intensity.

UIQM is the weighted sum of a colorfulness term (UICM, asymmetric
alpha-trimmed chroma statistics), a sharpness term (UISM, Sobel-edge contrast
per channel), and a contrast term (UIConM, log-entropy of block contrast).
Block terms that would divide by zero or take log of zero contribute zero.

UIQM takes shortcuts that are exact only because inputs are 8-bit: Sobel
runs in int16 (integers within +-1020), and the trimmed mean sums partitioned
rather than sorted chroma values (exact multiples of 0.5, so no partial sum
rounds). The Sobel magnitude is the correctly rounded sqrt(gx² + gy²) (the sum
of squares is an exact integer) plus a per-pair correction to np.hypot's
rounding, read from a table built once from np.hypot itself. Each step yields
the same float64 bytes as the plain float64 form with np.hypot.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

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
    "checked_metric_names",
    "KNOWN_METRICS",
]

PSNR_CAP_DB = 99.0
PEAK = 255.0

# SSIM stabilizers: (0.01 * 255)^2 and (0.03 * 255)^2
SSIM_C1 = 6.5025
SSIM_C2 = 58.5225

# UIQM mixing and UICM coefficients
_UIQM_C = (0.0282, 0.2953, 3.5753)
_UICM_MU_COEF = -0.0268
_UICM_SIGMA_COEF = 0.1586
_TRIM_ALPHA = 0.1
_BLOCK = 8
_SOBEL_MAX = 4 * 255  # largest |gx| or |gy| of a Sobel pass over 8-bit values

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


def ssim(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Structural similarity on intensity, the whole image as one window.

    Means, variances and covariance are two-pass population moments.
    """
    a, b = _check_pair(reference, candidate)
    x = _luma(a)
    y = _luma(b)
    mx = float(x.mean())
    my = float(y.mean())
    dx = x - mx
    dy = y - my
    vx = float(np.mean(dx * dx))
    vy = float(np.mean(dy * dy))
    cov = float(np.mean(dx * dy))
    num = (2.0 * mx * my + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
    return float(num / den)


# ---------------------------------------------------------------------------
# UIQM


def _require_color(img: np.ndarray, name: str) -> np.ndarray:
    arr = _check_image(img, name)
    if arr.ndim != 3:
        raise MetricInputError(f"{name} must be color (3, H, W) for UIQM, got {arr.shape}")
    return arr


def _trimmed_mean(values: np.ndarray) -> float:
    """Asymmetric alpha-trimmed mean: drop ceil(aK) low and floor(aK) high.

    A partition at the two cut ranks gathers the kept values without a full
    sort, in some order. The values are chroma differences of 8-bit channels,
    multiples of 0.5 within +-255, so every partial sum is exact in float64
    and the kept sum does not depend on the order of its terms.
    """
    k = values.size
    t_lo = int(np.ceil(_TRIM_ALPHA * k))
    t_hi = int(np.floor(_TRIM_ALPHA * k))
    kept = k - t_lo - t_hi
    if kept <= 0:
        return 0.0
    s = np.partition(values, (t_lo, k - t_hi - 1))
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


def _block_extremes(planes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(max, min) of each plane's complete 8x8 blocks, both shaped (C, k1, k2)."""
    c, h, w = planes.shape
    k1, k2 = h // _BLOCK, w // _BLOCK
    if k1 < 1 or k2 < 1:
        raise MetricInputError(
            f"UIQM needs at least one {_BLOCK}x{_BLOCK} block, got {h}x{w} pixels"
        )
    b = planes[:, : k1 * _BLOCK, : k2 * _BLOCK].reshape(c, k1, _BLOCK, k2, _BLOCK)
    # one contiguous copy makes each block a row, reduced faster than 2 axes
    b = b.transpose(0, 1, 3, 2, 4).reshape(c, k1, k2, _BLOCK * _BLOCK)
    return b.max(axis=-1), b.min(axis=-1)


@cache
def _hypot_ulp_fix() -> np.ndarray:
    """np.hypot(a, b) minus sqrt(a² + b²) in ulps, for 0 <= a, b <= 1020, flat int8.

    Entry a * 1021 + b. Both values are positive floats, so the difference of
    their bit patterns counts the ulps between them, across binade edges too.
    Built in blocks of 32 rows to keep the float64 temporaries small.
    """
    n = _SOBEL_MAX + 1
    fix = np.empty((n, n), dtype=np.int8)
    b = np.arange(n, dtype=np.float64)
    for r0 in range(0, n, 32):
        a = np.arange(r0, min(r0 + 32, n), dtype=np.float64)[:, None]
        diff = np.hypot(a, b).view(np.int64) - np.sqrt(a * a + b * b).view(np.int64)
        if np.abs(diff).max() > np.iinfo(np.int8).max:
            raise ArithmeticError("np.hypot is more than 127 ulps from sqrt(a² + b²)")
        fix[r0 : r0 + len(a)] = diff
    return fix.reshape(-1)


def _sobel_magnitude(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """np.hypot(gx, gy) in float64 for integer arrays within +-1020, without calling it.

    gx² + gy² is an exact integer, so np.sqrt of it is correctly rounded; the
    table moves it by the ulps np.hypot differs (hypot takes |gx| and |gy|).
    """
    ax = np.abs(gx).astype(np.intp)
    ay = np.abs(gy).astype(np.intp)
    mag = np.sqrt(ax * ax + ay * ay)
    mag.view(np.int64)[...] += _hypot_ulp_fix().take(ax * (_SOBEL_MAX + 1) + ay)
    return mag


def uism(image: np.ndarray) -> float:
    """Sharpness: per-channel Sobel edge maps scored by block contrast.

    Sobel runs separably (smooth, then difference) on edge-replicated borders,
    concatenated as np.pad costs 4-5x more. The magnitude has np.hypot's bytes
    (see ``_sobel_magnitude``). EME per channel is 2/(k1 k2) * sum log(max/min)
    over blocks, zero blocks giving 0.
    """
    img = _require_color(image, "image")
    p = np.concatenate([img[:, :1], img, img[:, -1:]], axis=1)
    p = np.concatenate([p[:, :, :1], p, p[:, :, -1:]], axis=2).astype(np.int16)
    down = p[:, :-2] + 2 * p[:, 1:-1] + p[:, 2:]
    across = p[:, :, :-2] + 2 * p[:, :, 1:-1] + p[:, :, 2:]
    gx = down[:, :, 2:] - down[:, :, :-2]
    gy = across[:, 2:] - across[:, :-2]
    bmax, bmin = _block_extremes(_sobel_magnitude(gx, gy) * img)
    total = 0.0
    for weight, hi, lo in zip(_LUMA, bmax, bmin):
        ok = lo > 0  # edge values are >= 0, so hi >= lo > 0
        total += weight * (2.0 / hi.size * float(np.sum(np.log(hi[ok] / lo[ok]))))
    return total


def uiconm(image: np.ndarray) -> float:
    """Contrast: -1/(k1 k2) * sum (t/b) log(t/b) of block Michelson contrast."""
    img = _require_color(image, "image")
    bmax, bmin = _block_extremes(_luma(img)[np.newaxis])
    top = bmax - bmin
    bot = bmax + bmin
    ok = (bot > 0) & (top > 0)
    m = top[ok] / bot[ok]
    return -1.0 / bmax.size * float(np.sum(m * np.log(m)))


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


def checked_metric_names(names: Iterable[str]) -> Tuple[str, ...]:
    """``names`` as a tuple; a ValueError if there are none, or one is unknown or repeated."""
    names = tuple(names)
    known = ", ".join(KNOWN_METRICS)
    if not names:
        raise ValueError(f"no metrics given; known: {known}")
    unknown = [m for m in names if m not in KNOWN_METRICS]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}; known: {known}")
    repeated = sorted({m for m in names if names.count(m) > 1})
    if repeated:
        raise ValueError(f"metrics named more than once: {', '.join(repeated)}")
    return names


def batch_report(
    items: Iterable[Tuple[str, Optional[np.ndarray], np.ndarray]],
    metrics: Sequence[str] = KNOWN_METRICS,
) -> MetricsReport:
    """Score (id, reference, candidate) triples.

    The reference may be None only when no requested metric needs one: UIQM is
    no-reference, while PSNR and SSIM refuse a missing reference with
    ``MetricInputError``.
    """
    metrics = checked_metric_names(metrics)
    items = list(items)
    # aggregates must not depend on arrival order
    items.sort(key=lambda it: it[0])
    rows = map_units(lambda it: _score_one(it, metrics), items)
    return MetricsReport(metric_names=metrics, ids=[it[0] for it in items], rows=rows)
