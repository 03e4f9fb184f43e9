"""Image quality metrics over 8-bit images: PSNR, SSIM, UIQM.

Inputs are uint8 arrays shaped (H, W) for grayscale or (3, H, W) for color;
color collapses to ITU-R 601 luma (0.299 R + 0.587 G + 0.114 B, kept as
floats) where a metric is defined on intensity. Every score is a float64, with
the bytes of the plain float64 form (np.hypot for the Sobel magnitude, a
stable sort for the trimmed mean); the tests hold a copy of that form.

UIQM is the weighted sum of a colorfulness term (UICM, asymmetric
alpha-trimmed chroma statistics), a sharpness term (UISM, Sobel-edge contrast
per channel), and a contrast term (UIConM, log-entropy of block contrast).
Block terms that would divide by zero or take log of zero contribute zero.

Where the values are integers, the work runs in integers, exact because the
inputs are 8-bit:

* PSNR sums squared differences (each <= 255²) in int64. The float64 mean
  summed the same exact integers while the total stays below 2⁵³, which holds
  up to about 1.4·10¹¹ pixels (2⁵³ / 255²).
* UISM pads the channels into one int16 buffer and runs Sobel in int16
  (|gx|, |gy| <= 4·255 = 1020). The magnitude squared, at most 2·1020², and
  the ulp-table index |gx|·1021 + |gy|, at most 1020·1021 + 1020, are int32.
  np.sqrt of the exact sum of squares is correctly rounded, and a per-pair
  correction to np.hypot's rounding, read from a table built once from
  np.hypot itself, gives np.hypot's bytes.
* UICM keeps its opponent planes in int16: R - G, and twice YB as
  R + G - 2B. The trimmed mean counts the values (np.bincount) rather than
  sorting them and sums the kept ones in int64, exact in any order; halving
  that sum is exact in float64.
* The 8x8 block maxima and minima of UISM and UIConM reduce the int64 bit
  patterns of their values, which are all >= +0.0 and so order as the floats.
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
    sq = a.astype(np.int32) - b
    sq *= sq
    mse = int(sq.sum(dtype=np.int64)) / a.size
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


def _trimmed_mean(values: np.ndarray, scale: int = 1) -> float:
    """Asymmetric alpha-trimmed mean of ``values / scale``: drop ceil(aK) low and floor(aK) high.

    ``values`` are integers, counted rather than sorted: the r smallest sum to
    every value below the bin holding rank r, plus that bin's value once for
    each rank it still gives. The int64 sums are exact, so the kept sum does
    not depend on the order of ``values``, and dividing it by ``scale`` (1 or
    2) is exact in float64.
    """
    k = values.size
    t_lo = int(np.ceil(_TRIM_ALPHA * k))
    t_hi = int(np.floor(_TRIM_ALPHA * k))
    kept = k - t_lo - t_hi
    if kept <= 0:
        return 0.0
    low = int(values.min())
    counts = np.bincount(values - low)
    ranks = counts.cumsum()  # how many values are <= low + bin
    sums = (counts * np.arange(low, low + counts.size)).cumsum()

    def smallest(r: int) -> int:
        b = int(ranks.searchsorted(r))
        return int(sums[b]) - (int(ranks[b]) - r) * (low + b)

    return (smallest(k - t_hi) - smallest(t_lo)) / scale / kept


def uicm(image: np.ndarray) -> float:
    """Colorfulness from the two opponent chroma planes.

    The planes are int16: RG = R - G and twice YB, R + G - 2B, so no value is
    halved. YB's spread term works on the doubled plane and scales back by 1/4;
    both steps are exact powers of two, so the bytes are those of YB itself.
    """
    img = _require_color(image, "image").astype(np.int16)
    rg = (img[0] - img[1]).reshape(-1)
    yb2 = (img[0] + img[1] - 2 * img[2]).reshape(-1)
    mu_rg = _trimmed_mean(rg)
    mu_yb = _trimmed_mean(yb2, 2)
    var_rg = float(np.mean((rg - mu_rg) ** 2))
    var_yb = float(np.mean((yb2 - 2.0 * mu_yb) ** 2)) / 4.0
    return _UICM_MU_COEF * float(np.hypot(mu_rg, mu_yb)) + _UICM_SIGMA_COEF * float(
        np.sqrt(var_rg + var_yb)
    )


def _block_grid(h: int, w: int) -> Tuple[int, int]:
    """Rows and columns of complete 8x8 blocks in an h x w image; there must be some."""
    k1, k2 = h // _BLOCK, w // _BLOCK
    if k1 < 1 or k2 < 1:
        raise MetricInputError(
            f"UIQM needs at least one {_BLOCK}x{_BLOCK} block, got {h}x{w} pixels"
        )
    return k1, k2


def _block_extremes(planes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(max, min) of each plane's complete 8x8 blocks, both shaped (C, k1, k2).

    ``planes`` are float64 values >= +0.0 (no -0.0, no NaN), whose int64 bit
    patterns order as the values do; int64 reductions run faster.
    """
    c, h, w = planes.shape
    k1, k2 = _block_grid(h, w)
    b = planes[:, : k1 * _BLOCK, : k2 * _BLOCK].reshape(c, k1, _BLOCK, k2, _BLOCK)
    # one contiguous copy makes each block a row, reduced faster than 2 axes
    b = b.transpose(0, 1, 3, 2, 4).reshape(c, k1, k2, _BLOCK * _BLOCK).view(np.int64)
    return b.max(axis=-1).view(np.float64), b.min(axis=-1).view(np.float64)


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

    In int32, gx² + gy² <= 2 * 1020² is exact, so np.sqrt of it is correctly
    rounded; the table, indexed by |gx| * 1021 + |gy| <= 1020 * 1021 + 1020,
    moves it by the ulps np.hypot differs (hypot takes |gx| and |gy|).
    """
    ax = np.abs(gx).astype(np.int32)
    ay = np.abs(gy).astype(np.int32)
    sq = ax * ax
    sq += ay * ay
    mag = np.sqrt(sq)
    ax *= _SOBEL_MAX + 1
    ax += ay
    mag.view(np.int64)[...] += _hypot_ulp_fix().take(ax)
    return mag


def uism(image: np.ndarray) -> float:
    """Sharpness: per-channel Sobel edge maps scored by block contrast.

    The channels sit in one int16 buffer with edge-replicated borders, and
    Sobel runs separably (smooth, then difference) on it as one flat array, a
    row being w + 2 entries apart: positions on the border or straddling two
    channels get values too (still within +-1020), and are never read. The
    magnitude has np.hypot's bytes (see ``_sobel_magnitude``). EME per channel
    is 2/(k1 k2) * sum log(max/min) over blocks, zero blocks giving 0.
    """
    img = _require_color(image, "image")
    c, h, w = img.shape
    _block_grid(h, w)  # refuse an image with no block before padding it
    p = np.empty((c, h + 2, w + 2), np.int16)
    p[:, 1:-1, 1:-1] = img
    p[:, 0, 1:-1] = img[:, 0]
    p[:, -1, 1:-1] = img[:, -1]
    p[:, :, 0] = p[:, :, 1]
    p[:, :, -1] = p[:, :, -2]
    f = p.reshape(-1)
    r = w + 2
    down = f[: -2 * r] + 2 * f[r:-r] + f[2 * r :]
    across = f[:-2] + 2 * f[1:-1] + f[2:]
    # both are the gradient at flat position r + 1 + index
    gx = down[2:] - down[:-2]
    gy = across[2 * r :] - across[: -2 * r]
    edges = np.empty(p.shape)
    np.multiply(_sobel_magnitude(gx, gy), f[r + 1 : -r - 1], out=edges.reshape(-1)[r + 1 : -r - 1])
    bmax, bmin = _block_extremes(edges[:, 1:-1, 1:-1])
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
