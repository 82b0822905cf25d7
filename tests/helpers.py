"""Shared oracles and fixture builders for the test suite."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import ndimage

from crossband.image import GRADIENT_SIGMA, gaussian_kernel


@contextmanager
def row_bands(rows):
    """Run the banded raster stages with `rows` kept rows per band."""
    from crossband import image
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(image, "_BAND_ROWS", rows)
        yield


def correlate2d_replicate(img, kernel):
    """Dense 2D correlation with replicate border; brute-force oracle."""
    kh, kw = kernel.shape
    rh, rw = kh // 2, kw // 2
    padded = np.pad(img, ((rh, rh), (rw, rw)), mode="edge")
    h, w = img.shape
    out = np.zeros((h, w), dtype=np.float64)
    for y in range(h):
        for x in range(w):
            out[y, x] = float((padded[y:y + kh, x:x + kw] * kernel).sum())
    return out


def sobel_kernels():
    smooth = np.array([1.0, 2.0, 1.0])
    diff = np.array([-1.0, 0.0, 1.0])
    return np.outer(smooth, diff), np.outer(diff, smooth)


def gaussian_kernel_2d(sigma):
    k = gaussian_kernel(sigma)
    return np.outer(k, k)


def gaussian_blur_oracle(img, sigma):
    """gaussian_blur as ndimage's two whole-image passes."""
    k = gaussian_kernel(sigma)
    tmp = ndimage.correlate1d(np.asarray(img, dtype=np.float64), k, axis=0,
                              mode="nearest")
    return ndimage.correlate1d(tmp, k, axis=1, mode="nearest")


def gradients_oracle(img):
    """gradients as ndimage's whole-image Sobel passes: (ix, iy)."""
    arr = np.asarray(img, dtype=np.float64)
    smooth, diff = np.array([1.0, 2.0, 1.0]), np.array([-1.0, 0.0, 1.0])
    tmp = ndimage.correlate1d(arr, smooth, axis=0, mode="nearest")
    ix = ndimage.correlate1d(tmp, diff, axis=1, mode="nearest")
    tmp = ndimage.correlate1d(arr, diff, axis=0, mode="nearest")
    iy = ndimage.correlate1d(tmp, smooth, axis=1, mode="nearest")
    return ix, iy


def checkerboard(side, cell, lo=0.2, hi=0.8):
    idx = np.add.outer(np.arange(side) // cell, np.arange(side) // cell)
    return np.where(idx % 2 == 0, lo, hi).astype(np.float64)


def dyadic_image(shape, rng, lsb_bits=10):
    """Random image quantized to multiples of 2**-lsb_bits (exact doubles)."""
    q = 1 << lsb_bits
    return rng.integers(0, q + 1, size=shape).astype(np.float64) / q


def circular_bin_distance(a, b):
    d = abs(int(a) - int(b)) % 16
    return min(d, 16 - d)


def similarity_oracle(ep, gp, eq, gq):
    """Direct per-pixel evaluation of the edge correlation score."""
    ep = np.asarray(ep).ravel()
    gp = np.asarray(gp).ravel()
    eq = np.asarray(eq).ravel()
    gq = np.asarray(gq).ravel()
    denom = int(np.count_nonzero(eq))
    if denom == 0:
        return 0.0
    num = 0
    for e1, g1, e2, g2 in zip(ep, gp, eq, gq):
        if e1 and e2 and circular_bin_distance(g1, g2) <= 1:
            num += 1
    return num / np.sqrt(denom)


def same_grad(gp, gq):
    """True when two of the 16 direction bins differ by at most one bin,
    circularly (the first and last bins are adjacent). Accepts scalars or
    arrays.
    """
    d = np.mod(np.asarray(gp, dtype=np.int64) - np.asarray(gq, dtype=np.int64),
               16)
    hit = np.minimum(d, 16 - d) <= 1
    if np.isscalar(gp) and np.isscalar(gq):
        return bool(hit)
    return hit


def scalar_similarity(dp, dq):
    """One pair's direct descriptor score, from whole-window masks.

    The per-pair form of score_matrix, equal to it bit for bit: 0 when dq
    carries no edge pixels, else sqrt(num^2 / count).
    """
    if dq.edge_count == 0:
        return 0.0
    hits = same_grad(dp.directions, dq.directions)
    num = int(np.count_nonzero((dp.edges != 0) & (dq.edges != 0) & hits))
    return math.sqrt(num * num / dq.edge_count)


def random_descriptor(rng, window=15, density=0.3, x=100, y=100):
    from crossband.descriptor import EdgeDescriptor
    e = (rng.random((window, window)) < density).astype(np.uint8)
    g = rng.integers(0, 16, size=(window, window)).astype(np.uint8)
    return EdgeDescriptor(x=x, y=y, edges=e, directions=g,
                          edge_count=int(e.sum()))


def residual(t, match, src_positions, dst_positions):
    """Distance between one transformed source corner and its matched corner."""
    p = t.apply(np.asarray(src_positions[match.src_index], dtype=np.float64))
    q = np.asarray(dst_positions[match.dst_index], dtype=np.float64)
    return float(np.hypot(p[0] - q[0], p[1] - q[1]))


def norm_oracle(x, y):
    """The norm of (x, y), elementwise over arrays that broadcast:
    sqrt(q) with q = x**2 + y**2 where q lies in [2**-960, 2**960], where it
    neither overflows nor underflows, and np.hypot(x, y) elsewhere (a NaN q
    included)."""
    with np.errstate(over="ignore"):
        q = np.square(x) + np.square(y)
        exact = np.hypot(x, y)
    return np.where((q >= 2.0 ** -960) & (q <= 2.0 ** 960), np.sqrt(q), exact)


def residuals_oracle(m, src, dst):
    """Distances between the transformed source points and their partners.

    `m` is one 2x3 matrix, giving shape (n,), or a stack (b, 2, 3), giving
    (b, n): the norm_oracle of every residual.
    """
    from crossband.transform import project
    x, y = project(m, src)
    return norm_oracle(x - dst[:, 0], y - dst[:, 1])


def normalize_oracle(points):
    """(normalized points, centroid, scale) of one point set, or None when
    its points all lie within 1e-12 of their centroid: the centroid moves
    to the origin and the mean distance from it becomes sqrt(2)."""
    centroid = points.mean(axis=0)
    shifted = points - centroid
    mean_dist = float(np.hypot(shifted[:, 0], shifted[:, 1]).mean())
    if mean_dist < 1e-12:
        return None
    scale = np.sqrt(2.0) / mean_dist
    return shifted * scale, centroid, scale


def design_matrix_oracle(points, model):
    """The (2n, 4) similarity or (2n, 6) affine design matrix of a point
    set, one x row and one y row per point; the parameters are (a, b, tx,
    ty) of [[a, -b, tx], [b, a, ty]], or the affine matrix row by row."""
    from crossband.transform import TransformKind
    n = len(points)
    x, y = points[:, 0], points[:, 1]
    if model == TransformKind.SIMILARITY:
        a_mat = np.zeros((2 * n, 4))
        a_mat[0::2, 0], a_mat[0::2, 1], a_mat[0::2, 2] = x, -y, 1.0
        a_mat[1::2, 0], a_mat[1::2, 1], a_mat[1::2, 3] = y, x, 1.0
    else:
        a_mat = np.zeros((2 * n, 6))
        a_mat[0::2, 0], a_mat[0::2, 1], a_mat[0::2, 2] = x, y, 1.0
        a_mat[1::2, 3], a_mat[1::2, 4], a_mat[1::2, 5] = x, y, 1.0
    return a_mat


def fit_sample_oracle(src, dst, model):
    """Scalar least-squares fit of one point set, or None if unusable.

    The consensus fit, written out one set at a time through the normal
    equations of the normalized design: a set with two points closer than
    1e-9 on either side, points all at their centroid, a normal matrix that
    is not finite or has cond > 1e12, or a fitted |det| < 1e-6 is unusable.
    Returns the 2x3 matrix otherwise.
    """
    from crossband.transform import TransformKind
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = len(src)
    if model == TransformKind.TRANSLATION:
        t = (dst - src).mean(axis=0)
        return np.array([[1.0, 0.0, t[0]], [0.0, 1.0, t[1]]])
    for i in range(n):
        for j in range(i + 1, n):
            if (np.hypot(*(src[i] - src[j])) < 1e-9
                    or np.hypot(*(dst[i] - dst[j])) < 1e-9):
                return None

    src_norm, dst_norm = normalize_oracle(src), normalize_oracle(dst)
    if src_norm is None or dst_norm is None:
        return None
    (ns, cs, ss), (nd, cd, sd) = src_norm, dst_norm
    a_mat = design_matrix_oracle(ns, model)
    rhs = nd.reshape(-1)
    ata = a_mat.T @ a_mat
    if not np.isfinite(ata).all() or np.linalg.cond(ata) > 1e12:
        return None
    params = np.linalg.solve(ata, a_mat.T @ rhs)
    if model == TransformKind.SIMILARITY:
        an, bn, txn, tyn = params
        a, b = an * ss / sd, bn * ss / sd
        lin = np.array([[a, -b], [b, a]])
        t = (np.array([txn, tyn]) / sd + cd) - lin @ cs
    else:
        lin = params.reshape(2, 3)[:, :2] * (ss / sd)
        t = (params.reshape(2, 3)[:, 2] / sd + cd) - lin @ cs
    if abs(lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0]) < 1e-6:
        return None
    return np.column_stack([lin, t])


def unfilter_oracle(scanlines, bpp):
    """Reverse the PNG per-scanline filters (types 0-4) one byte at a time.

    `scanlines` is (h, 1 + stride) uint8, each row led by its filter byte;
    returns the (h, stride) uint8 image. Unknown filter types raise
    ValueError.
    """
    h, stride1 = scanlines.shape
    stride = stride1 - 1
    out = np.zeros((h, stride), dtype=np.uint8)
    prior = np.zeros(stride, dtype=np.int64)
    for y in range(h):
        ftype = scanlines[y, 0]
        line = scanlines[y, 1:].astype(np.int64)
        if ftype == 0:
            recon = line
        elif ftype == 1:  # Sub
            recon = line.copy()
            for i in range(bpp, stride):
                recon[i] = (recon[i] + recon[i - bpp]) & 0xFF
        elif ftype == 2:  # Up
            recon = (line + prior) & 0xFF
        elif ftype == 3:  # Average
            recon = line.copy()
            for i in range(stride):
                left = recon[i - bpp] if i >= bpp else 0
                recon[i] = (recon[i] + (left + prior[i]) // 2) & 0xFF
        elif ftype == 4:  # Paeth
            recon = line.copy()
            for i in range(stride):
                left = recon[i - bpp] if i >= bpp else 0
                up = prior[i]
                ul = prior[i - bpp] if i >= bpp else 0
                p = left + up - ul
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                if pa <= pb and pa <= pc:
                    pred = left
                elif pb <= pc:
                    pred = up
                else:
                    pred = ul
                recon[i] = (recon[i] + pred) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter type {ftype}")
        out[y] = recon.astype(np.uint8)
        prior = recon
    return out


def canny_oracle(img, cfg=None):
    """Canny with `np.mgrid` neighbour gathers and `np.isin` hysteresis.

    Returns (edges, directions) as uint8 rasters: blur, Sobel gradients,
    norm_oracle magnitudes, 16 full-circle direction bins, suppression
    against the two 8-neighbours along the axis of the 45-degree sector that
    holds each pixel's bin (>= the positive-offset one, > the negative one),
    then 8-connected hysteresis.
    """
    from crossband.edges import CannyConfig
    if cfg is None:
        cfg = CannyConfig()
    ix, iy = gradients_oracle(gaussian_blur_oracle(img, GRADIENT_SIGMA))
    return canny_field_oracle(ix, iy, cfg)


def canny_field_oracle(ix, iy, cfg):
    """canny_oracle from the whole gradient field (ix, iy)."""
    h, w = ix.shape
    mag = norm_oracle(ix, iy)
    full = np.mod(np.arctan2(iy, ix) + 2.0 * np.pi, 2.0 * np.pi)
    directions = (np.floor(full / (2.0 * np.pi / 16)).astype(np.int64)
                  % 16).astype(np.uint8)
    mag_max = float(mag.max())
    if mag_max <= 0.0:
        return np.zeros((h, w), np.uint8), directions

    # bins 2s - 1 and 2s (mod 16) make up sector s
    sector = (directions.astype(int) + 1) // 2 % 4
    offsets = (((0, 1), (0, -1)), ((1, 1), (-1, -1)),
               ((1, 0), (-1, 0)), ((1, -1), (-1, 1)))
    padded = np.pad(mag, 1, mode="constant")
    yy, xx = np.mgrid[0:h, 0:w]
    keep = np.zeros((h, w), dtype=bool)
    for s, ((dy1, dx1), (dy2, dx2)) in enumerate(offsets):
        n1 = padded[yy + 1 + dy1, xx + 1 + dx1]
        n2 = padded[yy + 1 + dy2, xx + 1 + dx2]
        keep |= (sector == s) & (mag >= n1) & (mag > n2)

    weak = keep & (mag >= cfg.low_ratio * mag_max)
    strong = keep & (mag >= cfg.high_ratio * mag_max)
    labels, n_labels = ndimage.label(weak, structure=np.ones((3, 3), dtype=int))
    if n_labels == 0:
        return np.zeros((h, w), np.uint8), directions
    strong_labels = np.unique(labels[strong])
    strong_labels = strong_labels[strong_labels > 0]
    return np.isin(labels, strong_labels).astype(np.uint8), directions


def harris_oracle(img, cfg=None):
    """harris_score_map computed on the whole image at once: the structure
    tensor of the Sobel gradients of the GRADIENT_SIGMA blur."""
    from crossband.features import HarrisConfig
    if cfg is None:
        cfg = HarrisConfig()
    ix, iy = gradients_oracle(gaussian_blur_oracle(img, GRADIENT_SIGMA))
    return harris_field_oracle(ix, iy, cfg)


def harris_field_oracle(ix, iy, cfg):
    """harris_oracle from the whole gradient field (ix, iy)."""
    sxx = gaussian_blur_oracle(ix * ix, cfg.window_sigma)
    syy = gaussian_blur_oracle(iy * iy, cfg.window_sigma)
    sxy = gaussian_blur_oracle(ix * iy, cfg.window_sigma)
    trace = sxx + syy
    return sxx * syy - sxy * sxy - cfg.k * trace * trace


def detect_corners_oracle(score, cfg=None):
    """detect_corners with one window scan per candidate for the tie rule."""
    from crossband.features import Corner, HarrisConfig
    if cfg is None:
        cfg = HarrisConfig()
    s = np.asarray(score, dtype=np.float64)
    smax = float(s.max()) if s.size else 0.0
    if smax <= 0.0:
        return []
    radius = cfg.nms_window // 2
    window_max = ndimage.maximum_filter(s, size=cfg.nms_window,
                                        mode="constant", cval=-np.inf)
    cand = (s == window_max) & (s > 0.0) & (s >= cfg.min_score * smax)
    h, w = s.shape
    keep = []
    for y, x in zip(*np.nonzero(cand)):
        v = s[y, x]
        y0, y1 = max(0, y - radius), min(h, y + radius + 1)
        x0, x1 = max(0, x - radius), min(w, x + radius + 1)
        ty, tx = np.nonzero(s[y0:y1, x0:x1] == v)
        if np.min((ty + y0) * w + (tx + x0)) == y * w + x:
            keep.append((x, y, v))
    keep.sort(key=lambda c: (-c[2], c[1], c[0]))
    return [Corner(int(x), int(y), float(v))
            for x, y, v in keep[:cfg.max_corners]]


def gate_oracle(scores, src_positions, dst_positions, t, max_dist):
    """registration._gate with a norm_oracle for every (source, candidate)
    pair."""
    projected = t.apply(src_positions)
    dist = norm_oracle(projected[:, None, 0] - dst_positions[None, :, 0],
                       projected[:, None, 1] - dst_positions[None, :, 1])
    return np.where(dist <= max_dist, scores, 0.0)


def best_matches_oracle(scores, src_positions, dst_positions, gate):
    """registration._best_matches as plain loops: after gate_oracle, keep a
    (source, destination) pair when the destination is the source's first
    maximum, the source is the destination's first maximum, and their score
    is above zero; sort by (-score, source, destination)."""
    from crossband.registration import Match
    if gate is not None:
        scores = gate_oracle(scores, src_positions, dst_positions, *gate)

    def first_max(values):
        best = 0
        for i, v in enumerate(values):
            if v > values[best]:
                best = i
        return best
    n_src, n_dst = scores.shape
    row_best = [first_max([scores[p, q] for q in range(n_dst)])
                for p in range(n_src)]
    col_best = [first_max([scores[p, q] for p in range(n_src)])
                for q in range(n_dst)]
    matches = [Match(p, q, float(scores[p, q])) for p, q in enumerate(row_best)
               if col_best[q] == p and scores[p, q] > 0.0]
    matches.sort(key=lambda m: (-m.score, m.src_index, m.dst_index))
    return matches


def inliers_oracle(m, src, dst, r):
    """registration._inliers with a norm_oracle for every match."""
    return residuals_oracle(m, src, dst) <= r


def score_matrix_oracle(src, dst, polarity="direct"):
    """score_matrix from `scalar_similarity`, one pair at a time."""
    from crossband.descriptor import EdgeDescriptor

    def flipped(d):
        dirs = (d.directions.astype(int) - 8) % 16
        return EdgeDescriptor(x=d.x, y=d.y, edges=d.edges,
                              directions=dirs.astype(np.uint8),
                              edge_count=d.edge_count)
    direct = np.array([[scalar_similarity(p, q) for q in dst] for p in src])
    if polarity == "direct":
        return direct
    flip = np.array([[scalar_similarity(flipped(p), q) for q in dst]
                     for p in src])
    return flip if polarity == "flipped" else np.maximum(direct, flip)


def warp_oracle(img, t, out_w=None, out_h=None, fill=0.0):
    """warp_affine over the whole output at once, from `np.mgrid` coordinates."""
    arr = np.asarray(img, dtype=np.float64)
    h, w = arr.shape
    if out_w is None:
        out_w = w
    if out_h is None:
        out_h = h
    yy, xx = np.mgrid[0:out_h, 0:out_w].astype(np.float64)
    m = t.inverse().m
    sx = m[0, 0] * xx + m[0, 1] * yy + m[0, 2]
    sy = m[1, 0] * xx + m[1, 1] * yy + m[1, 2]

    valid = (sx >= 0.0) & (sx <= w - 1) & (sy >= 0.0) & (sy <= h - 1)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    fx = sx - x0
    fy = sy - y0
    x0c = np.clip(x0, 0, w - 1)
    x1c = np.clip(x0 + 1, 0, w - 1)
    y0c = np.clip(y0, 0, h - 1)
    y1c = np.clip(y0 + 1, 0, h - 1)

    out = (arr[y0c, x0c] * (1 - fx) * (1 - fy)
           + arr[y0c, x1c] * fx * (1 - fy)
           + arr[y1c, x0c] * (1 - fx) * fy
           + arr[y1c, x1c] * fx * fy)
    return np.where(valid, out, float(fill))


def fuse_single_scale_oracle(yv, ir, sigma, alpha, gain):
    """fuse_single_scale on whole images, through `gaussian_blur_oracle`."""
    yv = np.asarray(yv, dtype=np.float64)
    ir = np.asarray(ir, dtype=np.float64)
    lp_v = gaussian_blur_oracle(yv, sigma)
    lp_i = gaussian_blur_oracle(ir, sigma)
    hp_v = yv - lp_v
    hp_i = ir - lp_i
    lp = alpha * lp_v + (1.0 - alpha) * lp_i
    hp = np.where(np.abs(hp_v) >= np.abs(hp_i), hp_v, hp_i)
    return lp + gain * hp


def fuse_pair_oracle(visible, infrared, cfg=None):
    """fuse_pair on whole images: three scales, their mean, then colour."""
    from crossband.fusion import FusionConfig
    from crossband.image import to_luminance
    if cfg is None:
        cfg = FusionConfig()
    v = np.asarray(visible, dtype=np.float64)
    luma = to_luminance(v)
    scales = [fuse_single_scale_oracle(luma, infrared, sigma, cfg.alpha, cfg.gain)
              for sigma in cfg.sigmas]
    fused = np.clip((scales[0] + scales[1] + scales[2]) / 3.0, 0.0, 1.0)
    ratio = fused / np.maximum(luma, cfg.color_eps)
    return fused, np.clip(v * ratio[:, :, None], 0.0, 1.0)
