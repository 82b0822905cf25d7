"""Canny edge maps and full-circle gradient-direction quantization.

The edge raster and the per-pixel direction raster are computed together:
descriptors window into both, and directions are needed wherever the other
image might carry an edge, so the direction index is defined at every pixel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .image import _banded, _unit_field, as_gray, require_finite

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


def _angle_bins(angle):
    """The DIRECTION_BINS full-circle bins of atan2 angles, as integers in
    the angles' float dtype, with 2*pi rounded to that dtype. A zero
    gradient, atan2(0, 0) = 0, lands in bin 0.

    Equal, bit for bit, to np.floor(np.mod(angle + 2*pi, 2*pi) / (2*pi / n))
    % n with n = DIRECTION_BINS, without a branch per value: angle + 2*pi
    lies in [pi, 3*pi], where taking 2*pi off is exact, and below 2*pi the
    rounded quotient can reach n but no more, so that one value wraps to 0.
    """
    full = angle + 2.0 * np.pi
    # numpy scalars of the angles' dtype, so float32 angles stay float32
    two_pi, n = full.dtype.type(2.0 * np.pi), full.dtype.type(DIRECTION_BINS)
    full -= two_pi * (full >= two_pi)
    bins = np.floor(full / (two_pi / n))
    bins -= n * (bins >= n)
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

    The field, its magnitudes sqrt(ix*ix + iy*iy), its direction bins and
    the thresholds are float32, on the image scaled by a power of two
    (image._unit_field). There the square is at most 128, so it cannot
    overflow. It underflows only for a gradient below 2**-63 (a square
    below 2**-126), which lies under the low threshold whenever the largest
    magnitude is above 2**-23 and low_ratio above 2**-40.
    """
    if cfg is None:
        cfg = CannyConfig()
    arr = require_finite(as_gray(img), "input")
    return _canny(_unit_field(arr), arr.shape, cfg)


def _canny(field, shape: tuple[int, int], cfg: CannyConfig) -> EdgeMap:
    """canny of a finite image, read through its float32 gradient field."""
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
        padded = np.pad(np.sqrt(ix * ix + iy * iy), 1, mode="constant")
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
