"""Core raster operations: grayscale buffers, color conversion, separable
Gaussian smoothing, Sobel gradients, and affine warping.

Images are plain numpy arrays: a gray image is a float64 array of shape
(height, width) with intensities in [0, 1]; a color image is (height, width,
3) with R, G, B planes. Pixel coordinates are (x, y) = (column, row). All
functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .transform import AffineTransform

# BT.601 luma weights; the conventional choice for R/G/B -> Y.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)
# largest Gaussian sigma: a 601-tap kernel, reading 300 rows beyond a band
MAX_SIGMA = 100.0

# Norms as np.sqrt(x*x + y*y) in place of np.hypot(x, y), which costs about
# ten times as much. Where q = x*x + y*y lies in [NORM_SQ_MIN, NORM_SQ_MAX],
# no square overflows and an underflowed one is negligible against q; there
# sqrt(q) is within about 1.1 ulp of the exact norm and np.hypot within
# about 0.55 ulp (measured on 1e5 random pairs against 50-digit decimals),
# so the two lie within a relative 2**-50 of each other. They still differ
# in the last bit on about a sixth of pairs, so wherever a comparison's
# operands lie within a relative NORM_TOL of each other, or q is outside the
# range, np.hypot decides it. NORM_TOL leaves a 2**10 margin.
NORM_SQ_MIN = 2.0 ** -960
NORM_SQ_MAX = 2.0 ** 960
NORM_TOL = 2.0 ** -40


def as_gray(img) -> np.ndarray:
    """Validate and return a 2D float64 gray image."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"gray image must be 2D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image must be at least 1x1, got shape {arr.shape}")
    return arr


def as_color(img) -> np.ndarray:
    """Validate and return an (H, W, 3) float64 color image."""
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"color image must have shape (H, W, 3), got {arr.shape}")
    return arr


def require_finite(img: np.ndarray, name: str) -> np.ndarray:
    """Return img, or raise ValueError naming it if any pixel is NaN or inf."""
    bad = img.size - np.count_nonzero(np.isfinite(img))
    if bad:
        raise ValueError(f"{name} image has {bad} non-finite pixel(s) (NaN or inf)")
    return img


# Kept rows per band of a banded raster stage: a band's temporaries then
# stay in a core's own cache between the stage's passes.
_BAND_ROWS = 64


def _banded(stage, height: int) -> None:
    """Run a row-local raster stage over bands of rows, top to bottom.

    stage(y0, y1) must compute output rows [y0, y1) and store them. It reads
    the neighbouring rows its stencil needs from the whole image, so every
    kept row sees the same inputs and operations as on the whole image, and
    the output does not depend on the band height.
    """
    for y0 in range(0, height, _BAND_ROWS):
        stage(y0, min(y0 + _BAND_ROWS, height))


def replicate3(gray) -> np.ndarray:
    """Stack a gray image into an R=G=B color image."""
    g = as_gray(gray)
    return np.repeat(g[:, :, None], 3, axis=2)


def to_luminance(img) -> np.ndarray:
    """Convert a color image to its luminance channel.

    Y = 0.299 R + 0.587 G + 0.114 B per pixel.
    """
    arr = as_color(img)
    w = np.asarray(LUMA_WEIGHTS, dtype=np.float64)
    return arr @ w


def gaussian_kernel(sigma: float) -> np.ndarray:
    """1D Gaussian kernel with radius ceil(3*sigma), normalized to sum 1.

    sigma must lie in (0, MAX_SIGMA], which bounds the kernel at 601 taps.
    """
    if not 0 < sigma <= MAX_SIGMA:
        raise ValueError(
            f"sigma must be finite, > 0 and at most {MAX_SIGMA:g}, got {sigma}")
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def gaussian_blur(img, sigma: float) -> np.ndarray:
    """Separable Gaussian smoothing with replicate-border extension.

    Computed a band of rows at a time; the result does not depend on the
    band height.
    """
    arr = as_gray(img)
    k = gaussian_kernel(sigma)
    out = np.empty(arr.shape)

    def band(y0, y1):
        out[y0:y1] = _blur_rows(arr, k, slice(y0, y1))

    _banded(band, arr.shape[0])
    return out


# Separable Sobel: smooth [1, 2, 1] across the derivative axis, central
# difference [-1, 0, 1] along it. Positive x-derivative means intensity
# grows to the right; positive y-derivative grows downward.
_SOBEL_SMOOTH = np.array([1.0, 2.0, 1.0])
_SOBEL_DIFF = np.array([-1.0, 0.0, 1.0])


def gradients(img) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical Sobel derivatives with replicate border.

    Returns (ix, iy), signed and unclamped, same shape as the input.
    """
    arr = as_gray(img)
    if arr.shape[0] < 3 or arr.shape[1] < 3:
        raise ValueError(f"image must be at least 3x3 for gradients, got {arr.shape}")
    ix, iy = np.empty(arr.shape), np.empty(arr.shape)

    def band(y0, y1):
        ix[y0:y1], iy[y0:y1] = _gradient_rows(arr, slice(y0, y1))

    _banded(band, arr.shape[0])
    return ix, iy


def _correlate_rows(arr: np.ndarray, k: np.ndarray, rows: slice) -> np.ndarray:
    """ndimage.correlate1d(arr, k, axis=0, mode="nearest")[rows], bit for bit,
    computed on those rows alone.

    k has odd length and is symmetric or antisymmetric, as every kernel here
    is. ndimage then takes the centre tap, and adds each pair of taps from
    the outermost in: (left + right) * w or (left - right) * w, w being the
    left weight. This does the same in the same order, a whole row at a
    time, which numpy vectorises where ndimage walks each column; on a
    band of rows that stays in cache that is faster than ndimage's pass.
    It is the library's one vertical pass. Every raster stage calls it
    through _blur_rows and _gradient_rows, a band of 64 rows at a time:
    gaussian_blur, gradients, harris_score_map, canny, and every fusion
    scale (fuse_single_scale, fuse_hplp, fuse_pair).
    """
    n = arr.shape[0]
    start, stop, _ = rows.indices(n)
    r, m = k.size // 2, stop - start
    if start - r >= 0 and stop + r <= n:
        ext = arr[start - r:stop + r]
    else:  # replicate the edge rows, as mode="nearest" does
        ext = arr[np.clip(np.arange(start - r, stop + r), 0, n - 1)]
    pair = np.add if k[r + 1] == k[r - 1] else np.subtract
    out = ext[r:r + m] * k[r]
    tmp = np.empty_like(out)
    for j in range(r, 0, -1):
        pair(ext[r - j:r - j + m], ext[r + j:r + j + m], out=tmp)
        tmp *= k[r - j]
        out += tmp
    return out


def _blur_rows(arr: np.ndarray, k: np.ndarray, rows: slice) -> np.ndarray:
    """gaussian_blur(arr, sigma)[rows], computed on those rows alone; k is
    gaussian_kernel(sigma), made once by the caller rather than per band."""
    return ndimage.correlate1d(_correlate_rows(arr, k, rows), k, axis=1,
                               mode="nearest")


def _gradient_rows(arr: np.ndarray, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """(ix[rows], iy[rows]) of gradients(arr), computed on those rows alone."""
    ix = ndimage.correlate1d(_correlate_rows(arr, _SOBEL_SMOOTH, rows),
                             _SOBEL_DIFF, axis=1, mode="nearest")
    iy = ndimage.correlate1d(_correlate_rows(arr, _SOBEL_DIFF, rows),
                             _SOBEL_SMOOTH, axis=1, mode="nearest")
    return ix, iy


def warp_affine(img, t: AffineTransform, out_w: int | None = None,
                out_h: int | None = None, fill: float = 0.0) -> np.ndarray:
    """Warp an image by an affine transform.

    The transform maps input coordinates to output coordinates; resampling
    is done by inverse mapping with bilinear interpolation. Samples whose
    source coordinate falls outside [0, w-1] x [0, h-1] take `fill`.
    Output rows are resampled one band at a time.
    """
    arr = as_gray(img)
    h, w = arr.shape
    if out_w is None:
        out_w = w
    if out_h is None:
        out_h = h
    if out_w < 1 or out_h < 1:
        raise ValueError(
            f"output must be at least 1x1, got out_w={out_w}, out_h={out_h}")
    if not np.isfinite(t.m).all():
        raise ValueError(f"transform has non-finite entries: {t.m.tolist()}")
    m = t.inverse().m
    flat = arr.ravel()
    xx = np.arange(out_w, dtype=np.float64)
    # the x terms of the source coordinates are the same on every row
    mx0, mx1 = m[0, 0] * xx, m[1, 0] * xx
    out = np.empty((out_h, out_w))

    def band(y0, y1):
        # the bilinear formula's order of operations: sx = (m00 x + m01 y)
        # + m02, each tap weighted as (a (1 - fx)) (1 - fy), the four summed
        # left to right; updated in place, so few band arrays live at once
        yy = np.arange(y0, y1, dtype=np.float64)[:, None]
        sx = mx0 + m[0, 1] * yy
        sx += m[0, 2]
        sy = mx1 + m[1, 1] * yy
        sy += m[1, 2]
        valid = (sx >= 0.0) & (sx <= w - 1) & (sy >= 0.0) & (sy <= h - 1)
        col = np.floor(sx).astype(np.intp)
        row = np.floor(sy).astype(np.intp)
        fx = np.subtract(sx, col, out=sx)
        fy = np.subtract(sy, row, out=sy)
        gx = 1 - fx
        gy = 1 - fy
        c0 = np.clip(col, 0, w - 1)
        col += 1
        c1 = np.clip(col, 0, w - 1, out=col)
        r0 = np.clip(row, 0, h - 1)
        r0 *= w
        row += 1
        r1 = np.clip(row, 0, h - 1, out=row)
        r1 *= w
        res, tap, idx = out[y0:y1], np.empty_like(fx), np.empty_like(c0)
        flat.take(np.add(r0, c0, out=idx), out=res)
        res *= gx
        res *= gy
        for r, c, wx, wy in ((r0, c1, fx, gy), (r1, c0, gx, fy), (r1, c1, fx, fy)):
            flat.take(np.add(r, c, out=idx), out=tap)
            tap *= wx
            tap *= wy
            res += tap
        np.copyto(res, float(fill), where=~valid)

    _banded(band, out_h)
    return out


def clamp01(img) -> np.ndarray:
    return np.clip(img, 0.0, 1.0)
