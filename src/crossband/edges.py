"""Canny edge maps and full-circle gradient-direction quantization.

The edge raster and the per-pixel direction raster are computed together:
descriptors window into both, and directions are needed wherever the other
image might carry an edge, so the direction index is defined at every pixel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .image import (MAX_SIGMA, NORM_SQ_MAX, NORM_SQ_MIN, NORM_TOL, _banded,
                    _blur_rows, _gradient_rows, as_gray, gaussian_kernel,
                    require_finite)

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
    return bins.astype(np.int64)


def _angle_bins(angle, n_bins: int):
    """quantize_direction's bins of atan2 angles, as float64 integers.

    Equal, bit for bit, to np.floor(np.mod(angle + 2*pi, 2*pi) / (2*pi /
    n_bins)) % n_bins, without a branch per value: angle + 2*pi lies in
    [pi, 3*pi], where taking 2*pi off is exact, and below 2*pi the rounded
    quotient can reach n_bins but no more, so that one value wraps to 0.
    """
    full = angle + 2.0 * np.pi
    full -= 2.0 * np.pi * (full >= 2.0 * np.pi)
    bins = np.floor(full / (2.0 * np.pi / n_bins))
    bins -= n_bins * (bins >= n_bins)
    return bins


# Gradient-axis sectors for the interpolation-free suppression step: a pixel
# is compared with its neighbours at +(dy, dx) and -(dy, dx), which lie
# along the quantized gradient direction.
_SECTOR_STEPS = (
    (0, 1),     # near-horizontal gradient
    (1, 1),     # 45 degrees
    (1, 0),     # near-vertical
    (1, -1),    # 135 degrees
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

    The edges are those of the np.hypot(ix, iy) magnitudes, bit for bit,
    but most magnitudes are taken as sqrt(ix*ix + iy*iy), within a relative
    2**-50 of np.hypot's (see image.NORM_TOL). np.hypot is computed only
    where the two could decide a comparison differently: where ix*ix +
    iy*iy lies outside [NORM_SQ_MIN, NORM_SQ_MAX], in a band where two
    compared neighbours lie within a relative NORM_TOL of each other, for
    the values within NORM_TOL of each band's largest, and for kept pixels
    within NORM_TOL of either threshold, from the gradients that each band
    stores with its kept pixels.
    """
    if cfg is None:
        cfg = CannyConfig()
    arr = require_finite(as_gray(img), "input")
    h, w = arr.shape
    if h < 5 or w < 5:
        raise ValueError(f"image must be at least 5x5 for edge detection, got {arr.shape}")
    directions = np.empty((h, w), dtype=np.uint8)
    blur = gaussian_kernel(cfg.blur_sigma)

    def band(y0, y1):
        # rows [a, b) of gradients(gaussian_blur(arr)), one beyond the kept
        # rows for the suppression: the same bits for any rows, since
        # _correlate_rows replicates only beyond the image
        a, b = max(y0 - 1, 0), min(y1 + 1, h)
        g0, g1 = max(a - 1, 0), min(b + 1, h)
        ix, iy = _gradient_rows(_blur_rows(arr, blur, slice(g0, g1)),
                                slice(a - g0, b - g0))
        rows = slice(y0 - a, y1 - a)
        angle = np.arctan2(iy[rows], ix[rows])
        # the zero padding stands for rows beyond the image only: at a band's
        # cut, the row beyond is in ix and iy
        padded = np.pad(_magnitudes(ix, iy), 1, mode="constant")
        m = padded[1:-1, 1:-1][rows]
        # the band's largest magnitude is among the values within NORM_TOL
        # of its largest value (all of them when one is NaN, as np.max is)
        near = ~(m < m.max() * (1 - NORM_TOL))
        maxima.append(np.hypot(ix[rows][near], iy[rows][near]).max())
        directions[y0:y1] = _angle_bins(angle, n_bins)
        # angle mod pi as np.mod gives it, except that pi stays pi: sector 0 too
        axis = angle + np.pi * (angle < 0.0)
        sector = np.floor((axis + np.pi / 8) / (np.pi / 4)).astype(np.uint8) & 3
        at = np.flatnonzero(_suppress(padded, y0 - a + 1, sector, ix, iy))
        found.append((at + y0 * w, m.ravel().take(at),
                      ix[rows].ravel().take(at), iy[rows].ravel().take(at)))

    maxima, found = [], []
    _banded(band, h)

    mag_max = np.max(maxima)
    t_low, t_high = cfg.low_ratio * mag_max, cfg.high_ratio * mag_max
    weak = np.zeros(h * w, dtype=bool)
    strong = []
    while found:  # a band's kept pixels are dropped once thresholded
        kept, values, kx, ky = found.pop()
        low, high = values * (1 - NORM_TOL), values * (1 + NORM_TOL)
        near = ((low < t_low) & (high >= t_low)) | ((low < t_high) & (high >= t_high))
        values[near] = np.hypot(kx[near], ky[near])
        weak[kept[values >= t_low]] = True
        strong.append(kept[values >= t_high])
    labels, n_labels = ndimage.label(weak.reshape(h, w),
                                     structure=np.ones((3, 3), dtype=int))
    # strong pixels are weak too, so the background label 0 stays unmarked
    reaches_strong = np.zeros(n_labels + 1, dtype=np.uint8)
    reaches_strong[labels.ravel().take(np.concatenate(strong))] = 1
    return EdgeMap(reaches_strong.take(labels), directions, n_bins)


def _magnitudes(ix, iy):
    """sqrt(ix*ix + iy*iy), with np.hypot wherever the square lies outside
    [NORM_SQ_MIN, NORM_SQ_MAX]: within a relative 2**-50 of np.hypot(ix,
    iy) everywhere, and equal to it outside that range."""
    with np.errstate(over="ignore"):
        q = ix * ix
        q += iy * iy
    mag = np.sqrt(q)
    np.hypot(ix, iy, out=mag, where=~((q >= NORM_SQ_MIN) & (q <= NORM_SQ_MAX)))
    return mag


def _suppress(padded, top, sector, ix, iy):
    """Suppression mask of the rows of `padded` from `top` on, one per row of
    `sector`: >= the neighbour at +step, > the one at -step.

    `padded` holds `_magnitudes(ix, iy)` in a ring of zeros. A pixel is
    decided on those values unless its magnitude lies within a relative
    NORM_TOL of a neighbour's; then on np.hypot of the three, taken for the
    whole band at once (ties are rare in a textured image and common in a
    flat or quantized one).
    """
    n, w = sector.shape
    stride = w + 2
    at = np.arange(top, top + n)[:, None] * stride + np.arange(1, w + 1)
    step = np.array([dy * stride + dx for dy, dx in _SECTOR_STEPS]).take(sector)
    flat = padded.ravel()
    n1, n2 = flat.take(at + step), flat.take(at - step)
    m = padded[top:top + n, 1:-1]
    low, high = m * (1 - NORM_TOL), m * (1 + NORM_TOL)
    keep = (low >= n1) & (low > n2)
    close = np.flatnonzero(((high >= n1) & (high > n2)) & ~keep)
    if close.size:
        exact = np.pad(np.hypot(ix, iy), 1).ravel()
        at, step = at.ravel()[close], step.ravel()[close]
        me = exact.take(at)
        keep.ravel()[close] = (me >= exact.take(at + step)) & (me > exact.take(at - step))
    return keep
