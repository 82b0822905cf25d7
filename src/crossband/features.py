"""Harris corner detection with windowed non-maximal suppression."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .image import (MAX_SIGMA, _banded, _blur_rows, _unit_field, as_gray,
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
    """Per-pixel corner score det(A) - k * trace(A)^2, as float32.

    A is the Gaussian-weighted structure tensor of the Sobel gradients of
    the GRADIENT_SIGMA blur (scale-adapted Harris), all in float32 on the
    image scaled by a power of two (image._unit_field). No finite input
    overflows it. The returned map is signed and unclamped.
    """
    if cfg is None:
        cfg = HarrisConfig()
    arr = require_finite(as_gray(img), "input")
    return _harris_score_map(_unit_field(arr), arr.shape, cfg)


def _harris_score_map(field, shape: tuple[int, int], cfg: HarrisConfig) -> np.ndarray:
    """harris_score_map of a finite image, read through its float32
    gradient field."""
    h = shape[0]
    if h < 3 or shape[1] < 3:
        raise ValueError(f"image must be at least 3x3, got {shape}")
    out = np.empty(shape, np.float32)
    k = gaussian_kernel(cfg.window_sigma)
    radius = k.size // 2

    def band(y0, y1):
        # the kept rows' blurs read gradients `radius` rows beyond them
        g0, g1 = max(0, y0 - radius), min(h, y1 + radius)
        ix, iy = field(slice(g0, g1))
        rows = slice(y0 - g0, y1 - g0)
        sxx = _blur_rows(ix * ix, k, rows)
        syy = _blur_rows(iy * iy, k, rows)
        sxy = _blur_rows(ix * iy, k, rows)
        trace = sxx + syy
        out[y0:y1] = sxx * syy - sxy * sxy - cfg.k * trace * trace

    _banded(band, h)
    return out


def detect_corners(score, cfg: HarrisConfig | None = None) -> list[Corner]:
    """Strict local maxima of the score map, thresholded and capped.

    A pixel is emitted when it beats every neighbor in its nms_window x
    nms_window neighborhood; equal-valued contenders within the window are
    resolved in favor of the smallest row-major index. Output is sorted by
    descending score and truncated to max_corners.

    The window maxima are `_window_max` over 64-row bands of one -inf padded
    copy, equal to ndimage.maximum_filter with a -inf border.
    """
    if cfg is None:
        cfg = HarrisConfig()
    arr = np.asarray(score)
    # a float32 map, as harris_score_map returns it, is read without a copy
    arr = as_gray(arr, np.float32 if arr.dtype == np.float32 else np.float64)
    xs, ys, vals = _detect_corners(require_finite(arr, "score"), cfg)
    return [Corner(x, y, v) for x, y, v in
            zip(xs.tolist(), ys.tolist(), vals.tolist())]


def _detect_corners(s: np.ndarray, cfg: HarrisConfig):
    """detect_corners of a score map known to be finite, as the arrays
    (xs, ys, scores) in detect_corners' order."""
    # the threshold is compared in float64, so a float32 map and its float64
    # copy give the same candidates
    threshold = np.float64(cfg.min_score * float(s.max()))
    radius = cfg.nms_window // 2
    h, w = s.shape
    # one -inf border serves the window maxima and the first-in-window
    # check: -inf never equals a positive candidate
    padded = np.pad(s, radius, constant_values=-np.inf)
    cand = np.empty(s.shape, dtype=bool)

    def band(y0, y1):
        window_max = _window_max(padded[y0:y1 + 2 * radius], cfg.nms_window)
        kept = s[y0:y1]
        cand[y0:y1] = ((kept == window_max) & (kept > 0.0)
                       & (kept >= threshold))

    _banded(band, h)
    ys, xs = np.divmod(np.flatnonzero(cand), w)
    vals = s[ys, xs]

    # a candidate survives unless an earlier pixel (row-major) in its window
    # holds its value
    pw = w + 2 * radius
    flat = padded.ravel()
    at = (ys + radius) * pw + (xs + radius)
    first = np.ones(len(vals), dtype=bool)
    for dy in range(-radius, 1):
        for dx in range(-radius, radius + 1 if dy < 0 else 0):
            first &= flat[at + dy * pw + dx] != vals
    kx, ky, ks = xs[first], ys[first], vals[first]
    order = np.lexsort((kx, ky, -ks))[:cfg.max_corners]
    return kx[order], ky[order], ks[order]


def _window_max(m: np.ndarray, size: int) -> np.ndarray:
    """The size x size window maxima of the interior of m, an array padded
    by size // 2 on every side, for an odd size: with m = np.pad(a, size //
    2, constant_values=-inf) it equals ndimage.maximum_filter(a, size,
    mode="constant", cval=-inf). Computed as separable runs of np.maximum.

    Along each axis, maxima over runs of 1, 2, 4, ... elements double the
    run until the next doubling would exceed size; one more maximum of two
    overlapping runs then covers size elements. Max is exact, so the result
    equals ndimage's whatever the order.
    """
    for axis in (0, 1):
        m = np.moveaxis(m, axis, 0)  # a view: run along the leading axis
        n = len(m) - size + 1
        width = 1
        while 2 * width <= size:
            m = np.maximum(m[:-width], m[width:])
            width *= 2
        m = np.moveaxis(np.maximum(m[:n], m[size - width:size - width + n]), 0, axis)
    return m
