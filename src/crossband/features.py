"""Harris corner detection with windowed non-maximal suppression."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .image import (MAX_SIGMA, _banded, _blur_rows, _gradient_rows, as_gray,
                    gaussian_kernel, require_finite)


@dataclass(frozen=True)
class HarrisConfig:
    k: float = field(default=0.04, metadata={
        "key": "harris.k", "help": "corner score sensitivity"})
    window_sigma: float = field(default=1.5, metadata={
        "key": "harris.window_sigma", "help": "structure-tensor Gaussian sigma",
        "max": MAX_SIGMA})
    nms_window: int = field(default=7, metadata={
        "key": "harris.nms_window", "help": "odd corner suppression window"})
    max_corners: int = field(default=400, metadata={
        "key": "harris.max_corners", "help": "corner count cap per image"})
    min_score: float = field(default=0.01, metadata={
        "key": "harris.min_score", "help": "corner threshold relative to max score"})

    def __post_init__(self):
        if not 0.0 < self.k < 0.25:
            raise ValueError(f"k must be in (0, 0.25), got {self.k}")
        if self.nms_window < 3 or self.nms_window % 2 == 0:
            raise ValueError(f"nms_window must be odd and >= 3, got {self.nms_window}")
        if self.max_corners < 4:
            raise ValueError(f"max_corners must be >= 4, got {self.max_corners}")
        if not self.window_sigma > 0:
            raise ValueError(f"window_sigma must be > 0, got {self.window_sigma}")
        if not 0.0 <= self.min_score <= 1.0:
            raise ValueError(f"min_score must be in [0, 1], got {self.min_score}")


@dataclass(frozen=True)
class Corner:
    x: int
    y: int
    score: float


def harris_score_map(img, cfg: HarrisConfig | None = None) -> np.ndarray:
    """Per-pixel corner score det(A) - k * trace(A)^2.

    A is the Gaussian-weighted structure tensor of the Sobel gradients. The
    returned map is signed and unclamped. Raises ValueError when the input's
    values are so large that a score overflows.
    """
    if cfg is None:
        cfg = HarrisConfig()
    arr = require_finite(as_gray(img), "input")
    h = arr.shape[0]
    if h < 3 or arr.shape[1] < 3:
        raise ValueError(f"image must be at least 3x3, got {arr.shape}")
    out = np.empty(arr.shape)
    k = gaussian_kernel(cfg.window_sigma)
    radius = k.size // 2

    def band(y0, y1):
        # the kept rows' blurs read gradients `radius` rows beyond them
        g0, g1 = max(0, y0 - radius), min(h, y1 + radius)
        ix, iy = _gradient_rows(arr, slice(g0, g1))
        # products and blurs replace their inputs, so few band arrays live
        sxy = ix * iy
        ix *= ix
        iy *= iy
        rows = slice(y0 - g0, y1 - g0)
        sxx = _blur_rows(ix, k, rows)
        del ix
        syy = _blur_rows(iy, k, rows)
        del iy
        sxy = _blur_rows(sxy, k, rows)
        trace = sxx + syy
        out[y0:y1] = sxx * syy - sxy * sxy - cfg.k * trace * trace
        # an overflow anywhere in the band leaves an inf or NaN score
        if not np.isfinite(out[y0:y1]).all():
            raise ValueError(
                "input image values overflow the Harris score (largest "
                f"magnitude {np.abs(arr).max():g}); scale the image down")

    with np.errstate(over="ignore", invalid="ignore"):
        _banded(band, h)
    return out


def detect_corners(score, cfg: HarrisConfig | None = None) -> list[Corner]:
    """Strict local maxima of the score map, thresholded and capped.

    A pixel is emitted when it beats every neighbor in its nms_window x
    nms_window neighborhood; equal-valued contenders within the window are
    resolved in favor of the smallest row-major index. Output is sorted by
    descending score and truncated to max_corners.

    The window maxima are `_window_max` over 64-row bands, equal to
    ndimage.maximum_filter with a -inf border.
    """
    if cfg is None:
        cfg = HarrisConfig()
    s = require_finite(as_gray(score), "score")
    smax = float(s.max())
    radius = cfg.nms_window // 2
    h = s.shape[0]
    cand = np.empty(s.shape, dtype=bool)

    def band(y0, y1):
        lo, hi = max(0, y0 - radius), min(h, y1 + radius)
        window_max = _window_max(s[lo:hi], cfg.nms_window)
        kept = s[y0:y1]
        cand[y0:y1] = ((kept == window_max[y0 - lo:y1 - lo]) & (kept > 0.0)
                       & (kept >= cfg.min_score * smax))

    _banded(band, h)
    ys, xs = np.divmod(np.flatnonzero(cand), s.shape[1])
    vals = s[ys, xs]

    # a candidate survives unless an earlier pixel (row-major) in its window
    # holds its value; the zero padding never equals a positive candidate
    pw = s.shape[1] + 2 * radius
    padded = np.pad(s, radius).ravel()
    at = (ys + radius) * pw + (xs + radius)
    first = np.ones(len(vals), dtype=bool)
    for dy in range(-radius, 1):
        for dx in range(-radius, radius + 1 if dy < 0 else 0):
            first &= padded[at + dy * pw + dx] != vals
    kx, ky, ks = xs[first], ys[first], vals[first]
    order = np.lexsort((kx, ky, -ks))[:cfg.max_corners]
    return [Corner(x, y, v) for x, y, v in
            zip(kx[order].tolist(), ky[order].tolist(), ks[order].tolist())]


def _window_max(a: np.ndarray, size: int) -> np.ndarray:
    """ndimage.maximum_filter(a, size, mode="constant", cval=-inf) for an
    odd size, as separable runs of np.maximum.

    Along each axis of the -inf padded array, maxima over runs of 1, 2, 4,
    ... elements double the run until the next doubling would exceed size;
    one more maximum of two overlapping runs then covers size elements.
    Max is exact, so the result equals ndimage's whatever the order.
    """
    m = np.pad(a, size // 2, constant_values=-np.inf)
    for axis in (0, 1):
        m = np.moveaxis(m, axis, 0)  # a view: run along the leading axis
        n = len(m) - size + 1
        width = 1
        while 2 * width <= size:
            m = np.maximum(m[:-width], m[width:])
            width *= 2
        m = np.moveaxis(np.maximum(m[:n], m[size - width:size - width + n]), 0, axis)
    return m
