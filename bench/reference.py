"""Benchmark-local fixture writers and independent output references.

Nothing here calls into crossband: the PNG/PNM writers produce the files the
`codec` workload decodes, and the fusion/warp references re-derive the
`fuse` workload's outputs from the formulas with scipy, so a fault in the
library cannot hide behind itself.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
from scipy import ndimage

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
LUMA = (0.299, 0.587, 0.114)


# ---------------------------------------------------------------------------
# PNG / PNM fixture writers

def filter_candidates(raw: np.ndarray, bpp: int) -> np.ndarray:
    """All five PNG filter residuals of every scanline, shape (5, h, stride).

    Filtering reads only unfiltered bytes, so every row and filter type is
    computed at once.
    """
    x = raw.astype(np.int16)
    left = np.zeros_like(x)
    left[:, bpp:] = x[:, :-bpp]
    up = np.zeros_like(x)
    up[1:] = x[:-1]
    upleft = np.zeros_like(x)
    upleft[1:, bpp:] = x[:-1, :-bpp]

    p = left + up - upleft
    pa, pb, pc = np.abs(p - left), np.abs(p - up), np.abs(p - upleft)
    paeth = np.where((pa <= pb) & (pa <= pc), left, np.where(pb <= pc, up, upleft))
    residuals = np.stack([x, x - left, x - up, x - (left + up) // 2, x - paeth])
    return (residuals & 0xFF).astype(np.uint8)


def choose_filters(candidates: np.ndarray) -> np.ndarray:
    """Per-row filter type with the least sum of |residual as signed byte|.

    This is libpng's default heuristic; ties go to the lower filter type.
    """
    signed = candidates.astype(np.int16)
    magnitude = np.where(signed >= 128, 256 - signed, signed)
    return np.argmin(magnitude.sum(axis=2), axis=0)


def encode_png(codes: np.ndarray, bitdepth: int) -> tuple[bytes, np.ndarray]:
    """PNG bytes for integer codes of shape (h, w) or (h, w, 3).

    Returns the file bytes and the filter type chosen for each row.
    """
    if bitdepth not in (8, 16):
        raise ValueError(f"bitdepth must be 8 or 16, got {bitdepth}")
    h, w = codes.shape[:2]
    color = codes.ndim == 3
    dtype = np.uint8 if bitdepth == 8 else np.dtype(">u2")
    raw = np.ascontiguousarray(codes.astype(dtype)).view(np.uint8).reshape(h, -1)
    bpp = (3 if color else 1) * (bitdepth // 8)
    candidates = filter_candidates(raw, bpp)
    ftypes = choose_filters(candidates)
    rows = candidates[ftypes, np.arange(h)]
    body = np.concatenate([ftypes.astype(np.uint8)[:, None], rows], axis=1)
    ihdr = struct.pack(">IIBBBBB", w, h, bitdepth, 2 if color else 0, 0, 0, 0)
    payload = (PNG_SIGNATURE + _chunk(b"IHDR", ihdr)
               + _chunk(b"IDAT", zlib.compress(body.tobytes()))
               + _chunk(b"IEND", b""))
    return payload, ftypes


def _chunk(ctype: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(payload, zlib.crc32(ctype))))


def encode_pnm(codes: np.ndarray, bitdepth: int) -> bytes:
    """Binary PGM (gray) or PPM (RGB) bytes for integer codes."""
    h, w = codes.shape[:2]
    magic = b"P6" if codes.ndim == 3 else b"P5"
    dtype = np.uint8 if bitdepth == 8 else np.dtype(">u2")
    header = magic + b"\n%d %d\n%d\n" % (w, h, (1 << bitdepth) - 1)
    return header + np.ascontiguousarray(codes.astype(dtype)).tobytes()


def quantize(img: np.ndarray, bitdepth: int) -> np.ndarray:
    """Integer codes of [0, 1] intensities, round half up."""
    maxcode = (1 << bitdepth) - 1
    codes = np.floor(np.clip(img, 0.0, 1.0) * maxcode + 0.5)
    return codes.astype(np.uint8 if bitdepth == 8 else np.uint16)


# ---------------------------------------------------------------------------
# Output references

def hplp_reference(rgb: np.ndarray, aligned: np.ndarray, alpha: float,
                   gain: float, sigmas, color_eps: float):
    """Three-scale high-pass/low-pass fusion and colour restoration.

    Written straight from the formula: per scale, blend the Gaussian low
    bands, keep the larger-magnitude high band (ties to visible), add it back
    with the gain; average the scales, clamp, and scale the visible RGB by
    fused / max(luma, eps). Blurs use scipy's separable Gaussian with a
    3-sigma radius and replicated borders.
    """
    luma = rgb[:, :, 0] * LUMA[0] + rgb[:, :, 1] * LUMA[1] + rgb[:, :, 2] * LUMA[2]
    total = np.zeros_like(luma)
    for sigma in sigmas:
        lp_v = ndimage.gaussian_filter(luma, sigma, mode="nearest", truncate=3.0)
        lp_i = ndimage.gaussian_filter(aligned, sigma, mode="nearest", truncate=3.0)
        hp_v, hp_i = luma - lp_v, aligned - lp_i
        hp = np.where(np.abs(hp_v) >= np.abs(hp_i), hp_v, hp_i)
        total += alpha * lp_v + (1.0 - alpha) * lp_i + gain * hp
    fused = np.clip(total / len(sigmas), 0.0, 1.0)
    color = np.clip(rgb * (fused / np.maximum(luma, color_eps))[:, :, None], 0.0, 1.0)
    return fused, color


def warp_reference(img: np.ndarray, m: np.ndarray):
    """Bilinear samples of img at m @ (x, y, 1) for every output pixel.

    Returns the samples, zero where the source falls outside the image, and a
    mask of pixels whose source lies at least 1e-6 px away from the image's
    border, where rounding cannot flip the inside/outside decision.
    """
    h, w = img.shape
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    sx = m[0, 0] * xx + m[0, 1] * yy + m[0, 2]
    sy = m[1, 0] * xx + m[1, 1] * yy + m[1, 2]
    inside = (sx >= 0) & (sx <= w - 1) & (sy >= 0) & (sy <= h - 1)
    samples = ndimage.map_coordinates(img, [sy, sx], order=1, mode="nearest")
    margin = np.minimum(np.minimum(np.abs(sx), np.abs(sx - (w - 1))),
                        np.minimum(np.abs(sy), np.abs(sy - (h - 1))))
    return np.where(inside, samples, 0.0), margin >= 1e-6
