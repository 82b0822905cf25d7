"""Core raster operations: grayscale buffers, color conversion, separable
Gaussian smoothing, Sobel gradients, and affine warping.

Images are plain numpy arrays: a gray image is a float64 array of shape
(height, width) with intensities in [0, 1]; a color image is (height, width,
3) with R, G, B planes. Pixel coordinates are (x, y) = (column, row). All
functions are pure and never mutate their inputs.

The registration front end (the gradient field, Harris and Canny) works in
float32, on each image scaled by a power of two (`_unit_field`). The
separable passes follow their input's dtype. On float32 both passes are
one numpy tap loop (`_taps`) in ndimage.correlate1d's order, rounding to
float32 at every tap. On float64 the vertical pass is that loop and the
horizontal pass is ndimage.correlate1d, both ndimage's bit for bit, so
gaussian_blur, gradients and fusion are ndimage's float64 passes.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from .transform import AffineTransform

# BT.601 luma weights; the conventional choice for R/G/B -> Y.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)
# largest Gaussian sigma: a 601-tap kernel, reading 300 rows beyond a band
MAX_SIGMA = 100.0
# the blur under each image's gradient field, which Harris and Canny read
GRADIENT_SIGMA = 1.0

# outside [NORM_SQ_MIN, NORM_SQ_MAX], the float64 x*x + y*y of a point
# distance may overflow or underflow
NORM_SQ_MIN = 2.0 ** -960
NORM_SQ_MAX = 2.0 ** 960


def as_gray(img, dtype=np.float64) -> np.ndarray:
    """Validate and return a 2D gray image, as float64 unless dtype says."""
    arr = np.asarray(img, dtype=dtype)
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


def _magnitudes(x, y):
    """The library's norm of (x, y), for any shapes that broadcast:
    sqrt(x*x + y*y), or np.hypot(x, y) where that square lies outside
    [NORM_SQ_MIN, NORM_SQ_MAX]. Point distances are this value."""
    with np.errstate(over="ignore"):
        q = x * x + y * y
    mag = np.sqrt(q)
    # a masked np.hypot costs a pass even when it masks every value out
    if q.size and not (q.min() >= NORM_SQ_MIN and q.max() <= NORM_SQ_MAX):
        np.hypot(x, y, out=mag, where=~((q >= NORM_SQ_MIN) & (q <= NORM_SQ_MAX)))
    return mag


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


def _taps(ext: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """The correlation of k along ext's first axis: out[i] is k against
    ext[i:i + k.size], for i < n.

    k has odd length, is symmetric or antisymmetric, as every kernel here
    is, and has ext's dtype. The sum is ndimage.correlate1d's, in its
    order: the centre tap, then each pair of taps from the outermost in,
    (left + right) * w or (left - right) * w with w the left weight, added
    to the sum. Each step rounds to ext's dtype.
    """
    r = k.size // 2
    pair = np.add if k[r + 1] == k[r - 1] else np.subtract
    out = ext[r:r + n] * k[r]
    tmp = np.empty_like(out)
    for j in range(r, 0, -1):
        pair(ext[r - j:r - j + n], ext[r + j:r + j + n], out=tmp)
        tmp *= k[r - j]
        out += tmp
    return out


def _correlate_rows(arr: np.ndarray, k: np.ndarray, rows: slice) -> np.ndarray:
    """ndimage.correlate1d(arr, k, axis=0, mode="nearest")[rows], bit for bit
    on float64, computed on those rows alone.

    It is _taps over those rows and the k.size // 2 rows either side, the
    edge rows replicated beyond the image, a whole row at a time: numpy
    vectorises what ndimage walks one column at a time, and on a band of
    rows that stays in cache that is faster than ndimage's pass. It is the
    vertical pass of every raster stage, through _blur_rows and
    _gradient_rows, a band of 64 rows at a time: gaussian_blur, gradients,
    harris_score_map, canny, and every fusion scale (fuse_single_scale,
    fuse_hplp, fuse_pair).

    It follows arr's dtype: k is cast to it, and a float32 band rounds to
    float32 at every tap (ndimage would sum it in float64 and round once).
    """
    k = k.astype(arr.dtype, copy=False)
    n = arr.shape[0]
    start, stop, _ = rows.indices(n)
    r = k.size // 2
    if start - r >= 0 and stop + r <= n:
        ext = arr[start - r:stop + r]
    else:  # replicate the edge rows, as mode="nearest" does
        ext = arr[np.clip(np.arange(start - r, stop + r), 0, n - 1)]
    return _taps(ext, k, stop - start)


def _separable_rows(arr: np.ndarray, down: np.ndarray, across: np.ndarray,
                    rows: slice) -> np.ndarray:
    """Rows `rows` of arr correlated with `down` along its columns, then
    with `across` along its rows, mode="nearest", computed on those rows
    alone. Both kernels are cast to arr's dtype, and so is the result.

    The vertical pass is _correlate_rows. The horizontal pass is
    ndimage.correlate1d on float64: there it is _taps bit for bit, and
    faster than _taps on fusion's long kernels. On float32 it is _taps,
    rounding at every tap: the band is copied into a buffer of rows with r
    = across.size // 2 edge-value columns on either side, and _taps runs
    along the buffer's flat view, in which a shift by j columns is an
    offset of j. The sums that straddle two rows land in the padding
    columns, which are dropped.
    """
    across = across.astype(arr.dtype, copy=False)
    if arr.dtype != np.float32:
        return ndimage.correlate1d(_correlate_rows(arr, down, rows), across,
                                   axis=1, mode="nearest")
    mid = _correlate_rows(arr, down, rows)
    (m, w), r = mid.shape, across.size // 2
    width = w + 2 * r
    # the last row's padding-column sums read 2 * r values past its end
    flat = np.empty(m * width + r * 2, arr.dtype)
    flat[m * width:] = 0.0
    ext = flat[:m * width].reshape(m, width)
    ext[:, r:r + w] = mid
    ext[:, :r] = mid[:, :1]
    ext[:, r + w:] = mid[:, -1:]
    return _taps(flat, across, m * width).reshape(m, width)[:, :w]


def _blur_rows(arr: np.ndarray, k: np.ndarray, rows: slice) -> np.ndarray:
    """gaussian_blur(arr, sigma)[rows], computed on those rows alone; k is
    gaussian_kernel(sigma), made once by the caller rather than per band.

    Both passes use k cast to arr's dtype, and the result has that dtype. A
    float64 blur is ndimage's two passes bit for bit; a float32 one rounds
    to float32 at every tap of both passes (_separable_rows).
    """
    return _separable_rows(arr, k, k, rows)


def _gradient_rows(arr: np.ndarray, rows: slice) -> tuple[np.ndarray, np.ndarray]:
    """(ix[rows], iy[rows]) of gradients(arr), computed on those rows alone,
    in arr's dtype."""
    return (_separable_rows(arr, _SOBEL_SMOOTH, _SOBEL_DIFF, rows),
            _separable_rows(arr, _SOBEL_DIFF, _SOBEL_SMOOTH, rows))


# rows beyond its own that a row of the field reads: the blur's, then Sobel's
_FIELD_REACH = gaussian_kernel(GRADIENT_SIGMA).size // 2 + 1


def _unit_field(arr: np.ndarray):
    """The registration front end's gradient field of a finite float64
    image, as a reader: rows -> (ix[rows], iy[rows]), both float32.

    The field is the Sobel gradients of the GRADIENT_SIGMA blur of arr
    times 2**-e, cast to float32, with e the integer that puts the largest
    |pixel| in (0.5, 1]. The scale is exact (np.ldexp in float64; the one
    rounding is the cast), and the identity on an image whose largest
    |pixel| already lies there. Harris and Canny threshold relative to
    each image's largest score and magnitude, so no power-of-two scale of
    the input changes what they find, and every finite input lands in
    float32's range: |ix| and |iy| are at most 8, Harris's products stay
    under 2**12, and ix*ix + iy*iy is at most 128.

    Each call scales and casts only the rows it reads, and gives the same
    bits for any rows: its passes replicate rows only beyond the image.
    """
    h, w = arr.shape
    frac, e = np.frexp(max(float(arr.max()), -float(arr.min())))
    # a power of two scales to 1, not to 0.5; a Python int, which np.ldexp
    # takes without a cast
    shift = int(frac == 0.5) - int(e)
    k = gaussian_kernel(GRADIENT_SIGMA)

    def field(rows):
        a, b, _ = rows.indices(h)
        lo, hi = max(a - _FIELD_REACH, 0), min(b + _FIELD_REACH, h)
        unit = np.ldexp(arr[lo:hi], shift, out=np.empty((hi - lo, w), np.float32))
        # the blur one row beyond the kept rows, for Sobel
        g0, g1 = max(a - 1, lo), min(b + 1, hi)
        blurred = _blur_rows(unit, k, slice(g0 - lo, g1 - lo))
        return _gradient_rows(blurred, slice(a - g0, b - g0))

    return field


def _gradient_field(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The whole (ix, iy) of _unit_field(arr), built a band of rows at a
    time."""
    field = _unit_field(arr)
    ix, iy = np.empty(arr.shape, np.float32), np.empty(arr.shape, np.float32)

    def band(y0, y1):
        ix[y0:y1], iy[y0:y1] = field(slice(y0, y1))

    _banded(band, arr.shape[0])
    return ix, iy


def warp_affine(img, t: AffineTransform, fill: float = 0.0) -> np.ndarray:
    """Warp an image by an affine transform, onto an output of its shape.

    The transform maps input coordinates to output coordinates; resampling
    is done by inverse mapping with bilinear interpolation. Samples whose
    source coordinate falls outside [0, w-1] x [0, h-1] take `fill`, and
    every other sample has full bilinear support. Output rows are resampled
    one band at a time.
    """
    arr = as_gray(img)
    h, w = arr.shape
    if not np.isfinite(t.m).all():
        raise ValueError(f"transform has non-finite entries: {t.m.tolist()}")
    m = t.inverse().m
    flat = arr.ravel()
    xx = np.arange(w, dtype=np.float64)
    # the x terms of the source coordinates are the same on every row
    mx0, mx1 = m[0, 0] * xx, m[1, 0] * xx
    out = np.empty((h, w))

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

    _banded(band, h)
    return out


def clamp01(img) -> np.ndarray:
    return np.clip(img, 0.0, 1.0)
