"""Canny edge maps and full-circle gradient-direction quantization.

The edge raster and the per-pixel direction raster are computed together:
descriptors window into both, and directions are needed wherever the other
image might carry an edge, so the direction index is defined at every pixel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .image import _banded, _field_rows, _magnitudes, as_gray, require_finite

DIRECTION_BINS = 16


@dataclass(frozen=True)
class CannyConfig:
    low_ratio: float = field(default=0.1, metadata={
        "key": "canny.low_ratio", "help": "low hysteresis threshold / max magnitude"})
    high_ratio: float = field(default=0.2, metadata={
        "key": "canny.high_ratio", "help": "high hysteresis threshold / max magnitude"})

    def __post_init__(self):
        if not 0.0 < self.low_ratio < self.high_ratio <= 1.0:
            raise ValueError(
                f"need 0 < low_ratio < high_ratio <= 1, got "
                f"low_ratio={self.low_ratio}, high_ratio={self.high_ratio}")


@dataclass(frozen=True)
class EdgeMap:
    edges: np.ndarray       # uint8 raster, 1 = edge pixel
    directions: np.ndarray  # uint8 raster of direction bin indices

    def __post_init__(self):
        if self.edges.shape != self.directions.shape:
            raise ValueError("edge and direction rasters must share dimensions")


def quantize_direction(ix, iy):
    """Quantize gradient angles over the full circle into DIRECTION_BINS bins.

    bin = floor(((atan2(iy, ix) + 2*pi) mod 2*pi) / (2*pi / DIRECTION_BINS));
    a zero gradient lands in bin 0. Accepts scalars or arrays.
    """
    bins = _angle_bins(np.arctan2(iy, ix))
    if np.isscalar(ix) and np.isscalar(iy):
        return int(bins)
    return bins.astype(np.int64)


def _angle_bins(angle):
    """quantize_direction's bins of atan2 angles, as float64 integers.

    Equal, bit for bit, to np.floor(np.mod(angle + 2*pi, 2*pi) / (2*pi / n))
    % n with n = DIRECTION_BINS, without a branch per value: angle + 2*pi
    lies in [pi, 3*pi], where taking 2*pi off is exact, and below 2*pi the
    rounded quotient can reach n but no more, so that one value wraps to 0.
    """
    full = angle + 2.0 * np.pi
    full -= 2.0 * np.pi * (full >= 2.0 * np.pi)
    bins = np.floor(full / (2.0 * np.pi / DIRECTION_BINS))
    bins -= DIRECTION_BINS * (bins >= DIRECTION_BINS)
    return bins


# Gradient-axis sectors for the interpolation-free suppression step: a pixel
# is compared with its neighbours at +(dy, dx) and -(dy, dx), along the
# 45-degree sector ((b + 1) // 2) % 4 that holds its direction bin b.
_SECTOR_STEPS = (
    (0, 1),     # near-horizontal gradient
    (1, 1),     # 45 degrees
    (1, 0),     # near-vertical
    (1, -1),    # 135 degrees
)


def canny(img, cfg: CannyConfig | None = None) -> EdgeMap:
    """Classic Canny pipeline producing a binary edge raster plus the
    quantized direction raster of the blurred gradients.

    Stages: Gaussian blur, Sobel gradients, non-maximum suppression of the
    magnitudes against the two 8-neighbors along each direction bin's axis
    (ties keep the pixel against the positive-offset neighbor and suppress
    it against the negative one, so plateau ridges thin to one pixel), then
    double-threshold hysteresis over 8-connected components.

    The magnitudes are image._magnitudes(ix, iy), sqrt(ix*ix + iy*iy)
    wherever that square neither overflows nor underflows.
    """
    if cfg is None:
        cfg = CannyConfig()
    arr = require_finite(as_gray(img), "input")
    return _canny(lambda rows: _field_rows(arr, rows), arr.shape, cfg)


def _canny(field, shape: tuple[int, int], cfg: CannyConfig) -> EdgeMap:
    """canny of a finite image, read through its gradient field."""
    h, w = shape
    if h < 5 or w < 5:
        raise ValueError(f"image must be at least 5x5 for edge detection, got {shape}")
    directions = np.empty((h, w), dtype=np.uint8)

    def band(y0, y1):
        # the field one row beyond the kept rows, for the suppression
        a, b = max(y0 - 1, 0), min(y1 + 1, h)
        ix, iy = field(slice(a, b))
        rows = slice(y0 - a, y1 - a)
        directions[y0:y1] = _angle_bins(np.arctan2(iy[rows], ix[rows]))
        # the zero padding stands for rows beyond the image only: at a band's
        # cut, the row beyond is in ix and iy
        padded = np.pad(_magnitudes(ix, iy), 1, mode="constant")
        m = padded[1:-1, 1:-1][rows]
        maxima.append(m.max())
        at = np.flatnonzero(_suppress(padded, y0 - a + 1, directions[y0:y1]))
        found.append((at + y0 * w, m.ravel().take(at)))

    maxima, found = [], []
    _banded(band, h)

    mag_max = np.max(maxima)
    t_low, t_high = cfg.low_ratio * mag_max, cfg.high_ratio * mag_max
    weak = np.zeros(h * w, dtype=bool)
    strong = []
    while found:  # a band's kept pixels are dropped once thresholded
        kept, values = found.pop()
        weak[kept[values >= t_low]] = True
        strong.append(kept[values >= t_high])
    labels, n_labels = ndimage.label(weak.reshape(h, w),
                                     structure=np.ones((3, 3), dtype=int))
    # strong pixels are weak too, so the background label 0 stays unmarked
    reaches_strong = np.zeros(n_labels + 1, dtype=np.uint8)
    reaches_strong[labels.ravel().take(np.concatenate(strong))] = 1
    return EdgeMap(reaches_strong.take(labels), directions)


def _suppress(padded, top, bins):
    """Suppression mask of the rows of `padded` from `top` on, one per row of
    direction `bins`: >= the neighbour at +step, > the one at -step, steps
    from each bin's sector. `padded` holds the magnitudes in a ring of zeros."""
    n, w = bins.shape
    stride = w + 2
    at = np.arange(top, top + n)[:, None] * stride + np.arange(1, w + 1)
    steps = np.array([dy * stride + dx for dy, dx in _SECTOR_STEPS])
    step = steps[(np.arange(DIRECTION_BINS) + 1) // 2 % 4].take(bins)
    flat = padded.ravel()
    m = padded[top:top + n, 1:-1]
    return (m >= flat.take(at + step)) & (m > flat.take(at - step))
