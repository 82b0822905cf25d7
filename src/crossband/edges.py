"""Canny edge maps and full-circle gradient-direction quantization.

The edge raster and the per-pixel direction raster are computed together:
descriptors window into both, and directions are needed wherever the other
image might carry an edge, so the direction index is defined at every pixel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .image import (MAX_SIGMA, _banded, _blur_rows, _gradient_rows, as_gray,
                    gaussian_kernel, require_finite)

DEFAULT_DIRECTION_BINS = 16


@dataclass(frozen=True)
class CannyConfig:
    blur_sigma: float = field(default=1.0, metadata={
        "key": "canny.blur_sigma", "help": "pre-smoothing sigma for edge detection",
        "max": MAX_SIGMA})
    low_ratio: float = field(default=0.1, metadata={
        "key": "canny.low_ratio", "help": "low hysteresis threshold / max magnitude"})
    high_ratio: float = field(default=0.2, metadata={
        "key": "canny.high_ratio", "help": "high hysteresis threshold / max magnitude"})

    def __post_init__(self):
        if not self.blur_sigma > 0:
            raise ValueError(f"blur_sigma must be > 0, got {self.blur_sigma}")
        if not 0.0 < self.low_ratio < self.high_ratio <= 1.0:
            raise ValueError(
                f"need 0 < low_ratio < high_ratio <= 1, got "
                f"low_ratio={self.low_ratio}, high_ratio={self.high_ratio}")


@dataclass(frozen=True)
class EdgeMap:
    edges: np.ndarray       # uint8 raster, 1 = edge pixel
    directions: np.ndarray  # uint8 raster of direction bin indices
    n_bins: int

    def __post_init__(self):
        if self.edges.shape != self.directions.shape:
            raise ValueError("edge and direction rasters must share dimensions")


def quantize_direction(ix, iy, n_bins: int = DEFAULT_DIRECTION_BINS):
    """Quantize gradient angles over the full circle into n_bins indices.

    bin = floor(((atan2(iy, ix) + 2*pi) mod 2*pi) / (2*pi / n_bins)); a zero
    gradient lands in bin 0. Accepts scalars or arrays.
    """
    if n_bins < 2:
        raise ValueError(f"n_bins must be >= 2, got {n_bins}")
    bins = _angle_bins(np.arctan2(iy, ix), n_bins)
    if np.isscalar(ix) and np.isscalar(iy):
        return int(bins)
    return bins


def _angle_bins(angle, n_bins: int):
    """quantize_direction's bins of atan2 angles. angle + 2*pi lies in [pi,
    3*pi], where taking 2*pi off is exact, so this equals np.mod bit for bit."""
    full = angle + 2.0 * np.pi
    full = np.where(full >= 2.0 * np.pi, full - 2.0 * np.pi, full)
    return np.floor(full / (2.0 * np.pi / n_bins)).astype(np.int64) % n_bins


# Gradient-axis sectors for the interpolation-free suppression step: the two
# compared neighbors lie along the quantized gradient direction.
_SECTOR_OFFSETS = (
    ((0, 1), (0, -1)),     # near-horizontal gradient
    ((1, 1), (-1, -1)),    # 45 degrees
    ((1, 0), (-1, 0)),     # near-vertical
    ((1, -1), (-1, 1)),    # 135 degrees
)


def canny(img, cfg: CannyConfig | None = None,
          n_bins: int = DEFAULT_DIRECTION_BINS) -> EdgeMap:
    """Classic Canny pipeline producing a binary edge raster plus the
    quantized direction raster of the blurred gradients.

    Stages: Gaussian blur, Sobel gradients, gradient-magnitude non-maximum
    suppression against the two 8-neighbors along the gradient axis (ties
    keep the pixel against the positive-offset neighbor and suppress it
    against the negative one, so plateau ridges thin to one pixel), then
    double-threshold hysteresis over 8-connected components.
    """
    if cfg is None:
        cfg = CannyConfig()
    arr = require_finite(as_gray(img), "input")
    h, w = arr.shape
    if h < 5 or w < 5:
        raise ValueError(f"image must be at least 5x5 for edge detection, got {arr.shape}")
    mag = np.empty((h, w))
    directions = np.empty((h, w), dtype=np.uint8)
    keep = np.zeros((h, w), dtype=bool)
    blur = gaussian_kernel(cfg.blur_sigma)

    def band(lo, hi, y0, y1):
        # the suppression reads magnitudes one row beyond the kept rows, and
        # their gradients read blurred rows one further
        a, b = max(y0 - 1, lo), min(y1 + 1, hi)
        g0 = max(a - 1, lo)
        blurred = _blur_rows(arr[lo:hi], blur, slice(g0 - lo, min(b + 1, hi) - lo))
        ix, iy = _gradient_rows(blurred, slice(a - g0, b - g0))
        rows = slice(y0 - a, y1 - a)
        angle = np.arctan2(iy[rows], ix[rows])
        # the zero padding stands for rows beyond the image only: at a band's
        # cut, the row beyond is in ix and iy
        padded = np.pad(np.hypot(ix, iy), 1, mode="constant")
        mag[y0:y1] = m = padded[1:-1, 1:-1][rows]
        directions[y0:y1] = _angle_bins(angle, n_bins)
        # angle mod pi as np.mod gives it, except that pi stays pi: sector 0 too
        axis = np.where(angle < 0.0, angle + np.pi, angle)
        sector = np.floor((axis + np.pi / 8) / (np.pi / 4)).astype(np.uint8) & 3
        k = keep[y0:y1]
        for s, ((dy1, dx1), (dy2, dx2)) in enumerate(_SECTOR_OFFSETS):
            n1 = padded[1 + dy1:, 1 + dx1:][rows, :w]
            n2 = padded[1 + dy2:, 1 + dx2:][rows, :w]
            k |= (sector == s) & (m >= n1) & (m > n2)

    # stencil: blur, Sobel, then the suppression's 8-neighbours
    _banded(band, h, blur.size // 2 + 2)

    mag_max = float(mag.max())
    weak = keep & (mag >= cfg.low_ratio * mag_max)
    strong = keep & (mag >= cfg.high_ratio * mag_max)
    labels, n_labels = ndimage.label(weak, structure=np.ones((3, 3), dtype=int))
    # strong pixels are weak too, so the background label 0 stays unmarked
    reaches_strong = np.zeros(n_labels + 1, dtype=np.uint8)
    reaches_strong[labels[strong]] = 1
    return EdgeMap(reaches_strong.take(labels), directions, n_bins)
