"""Minimal PNG and binary PGM/PPM codecs.

Supported formats: 8- and 16-bit PNG (grayscale and RGB, non-interlaced) and
binary Netpbm P5/P6 with maxval 255 or 65535. Integer codes map linearly to
[0, 1] via v = code / maxcode; writing inverts the mapping with
round-half-up. 16-bit samples are big-endian in both formats.

PNG writes put filter type 1 (Sub) on every scanline, built as one array
subtract, and deflate at zlib level 1. PNG reads decode a None or Sub row
whole when the row below it starts a chain of its own; only the chains
of two or more rows (a None or Sub row and the rows that read the row
above after it) go to a wavefront of w + L - 1 vector steps over lanes of
at most L rows, L the longest such chain. A file this module writes has
no such chain, so it reads back with no wavefront step. Row 0 reads zeros
above it, so an Up or Paeth row 0 decodes as None or Sub.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from .errors import ImageIOError
from .image import require_finite

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
MAX_PNG_PIXELS = 1 << 25  # larger IHDR dimensions are rejected before inflating
# so is a larger w + h: _unfilter takes w + L - 1 steps, and L, the longest
# chain of rows that read the row above, is h when every row does
MAX_PNG_SIDES = 1 << 16
# zlib level of the Sub-filtered IDAT. On a 640x480 8-bit RGB image (one
# core, best of 7) level 1 takes 14 ms for 342 kB, level 3 18 ms for 320 kB
# and level 6 40 ms for 298 kB; None-filtered bytes at level 6 took 21 ms
# for 439 kB
_ZLIB_LEVEL = 1
_MAX_PNM_DIGITS = 10  # a longer PNM header field is rejected before int()


def read_image(path) -> np.ndarray:
    """Read a PNG/PGM/PPM file into a float64 array in [0, 1].

    Returns an (H, W) array for grayscale sources and (H, W, 3) for RGB.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ImageIOError(path, f"cannot read file: {exc.strerror}") from exc
    if data.startswith(_PNG_SIGNATURE):
        return _decode_png(path, data)
    if data[:2] in (b"P5", b"P6"):
        return _decode_pnm(path, data)
    raise ImageIOError(path, "unsupported image format (expected PNG, PGM, or PPM)")


def write_image(path, img, bitdepth: int = 8) -> None:
    """Write [0, 1] intensities as PNG, PGM, or PPM, chosen by the extension
    of the file name: the text after its last dot.

    Values outside [0, 1] are clipped; NaN or inf pixels, and an image
    with no rows or no columns, raise ValueError.
    """
    if bitdepth not in (8, 16):
        raise ValueError(f"bitdepth must be 8 or 16, got {bitdepth}")
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 2:
        color = False
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color = True
    else:
        raise ValueError(f"expected (H, W) or (H, W, 3) image, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"image must be at least 1x1, got shape {arr.shape}")
    require_finite(arr, "output")

    maxcode = (1 << bitdepth) - 1
    # floor(clip(arr, 0, 1) * maxcode + 0.5) in one temporary: on [0, 1]
    # the clip is the identity, rounding is monotone and 1 * maxcode is
    # exact, so clipping after the scale gives the same sums, and astype
    # truncates values >= 0.5 as floor does. A huge pixel scales to inf,
    # which the clip maps to maxcode.
    with np.errstate(over="ignore"):
        codes = arr * maxcode
    codes += 0.5
    np.clip(codes, 0.5, maxcode + 0.5, out=codes)
    codes = codes.astype(np.uint8 if bitdepth == 8 else ">u2")

    name = os.path.basename(os.fspath(path))
    if "." not in name:
        raise ValueError("output file name has no extension "
                         "(use .png, .pgm, or .ppm)")
    suffix = name.rsplit(".", 1)[1].lower()
    if suffix == "png":
        payload = _encode_png(codes, color, bitdepth)
    elif suffix == "pgm":
        if color:
            raise ValueError("PGM stores grayscale; got a color image")
        payload = _encode_pnm(codes, b"P5", maxcode)
    elif suffix == "ppm":
        if not color:
            raise ValueError("PPM stores color; got a gray image")
        payload = _encode_pnm(codes, b"P6", maxcode)
    else:
        raise ValueError(f"unsupported output extension '.{suffix}' "
                         "(use .png, .pgm, or .ppm)")
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise ImageIOError(path, f"cannot write file: {exc.strerror}") from exc


# ---------------------------------------------------------------------------
# PNG

def _decode_png(path, data: bytes) -> np.ndarray:
    pos = len(_PNG_SIGNATURE)
    ihdr = None
    idat = []
    seen_iend = False
    while pos + 8 <= len(data):
        length, ctype = struct.unpack(">I4s", data[pos:pos + 8])
        chunk = data[pos + 8:pos + 8 + length]
        if len(chunk) != length or pos + 12 + length > len(data):
            raise ImageIOError(path, "truncated PNG stream")
        crc = struct.unpack(">I", data[pos + 8 + length:pos + 12 + length])[0]
        if zlib.crc32(chunk, zlib.crc32(ctype)) != crc:
            raise ImageIOError(path, f"CRC mismatch in {ctype.decode('latin1')} chunk")
        if ctype == b"IHDR":
            ihdr = chunk
        elif ctype == b"IDAT":
            idat.append(chunk)
        elif ctype == b"IEND":
            seen_iend = True
            break
        pos += 12 + length
    if ihdr is None or not seen_iend:
        raise ImageIOError(path, "truncated PNG stream")
    if len(ihdr) != 13:
        raise ImageIOError(path, f"malformed PNG IHDR chunk ({len(ihdr)} bytes, not 13)")

    w, h, bitdepth, colortype, compression, filt, interlace = struct.unpack(
        ">IIBBBBB", ihdr)
    if bitdepth not in (8, 16):
        raise ImageIOError(path, f"unsupported PNG bit depth {bitdepth}")
    if colortype not in (0, 2):
        raise ImageIOError(
            path, f"unsupported PNG color type {colortype} (grayscale or RGB only)")
    if compression != 0 or filt != 0:
        raise ImageIOError(path, "unsupported PNG compression/filter method")
    if interlace != 0:
        raise ImageIOError(path, "interlaced PNG is not supported")
    if w < 1 or h < 1:
        raise ImageIOError(path, "degenerate PNG dimensions")
    if w * h > MAX_PNG_PIXELS:
        raise ImageIOError(
            path, f"PNG dimensions {w}x{h} exceed the {MAX_PNG_PIXELS}-pixel limit")
    if w + h > MAX_PNG_SIDES:
        raise ImageIOError(
            path, f"PNG dimensions {w}x{h} exceed the {MAX_PNG_SIDES} "
                  "width + height limit")

    channels = 3 if colortype == 2 else 1
    sample_bytes = bitdepth // 8
    bpp = channels * sample_bytes
    stride = w * bpp
    size = h * (stride + 1)
    inflater = zlib.decompressobj()
    try:
        # inflate at most one byte past the image, so hostile data cannot
        # grow without bound and a longer stream still shows
        raw = inflater.decompress(b"".join(idat), size + 1)
    except zlib.error as exc:
        raise ImageIOError(path, f"corrupt PNG pixel data: {exc}") from exc
    if len(raw) > size:
        raise ImageIOError(path, "PNG pixel data is longer than the image")
    if not inflater.eof:
        raise ImageIOError(path, "corrupt PNG pixel data: truncated stream")
    if len(raw) != size:
        raise ImageIOError(path, "truncated PNG pixel data")

    scanlines = np.frombuffer(raw, dtype=np.uint8).reshape(h, stride + 1)
    unfiltered = _unfilter(path, scanlines, bpp)

    if bitdepth == 8:
        pixels = unfiltered
    else:
        pixels = unfiltered.reshape(h, -1).view(">u2")
    pixels = pixels.reshape(h, w, channels).astype(np.float64)
    pixels /= (1 << bitdepth) - 1
    return pixels[:, :, 0] if channels == 1 else pixels


# Each PNG filter type (0 None, 1 Sub, 2 Up, 3 Average, 4 Paeth) as predictor
# weights: pred = ((a * wa + b * wb) >> shift) + paeth * wp
_PREDICTOR_WEIGHTS = np.array([
    [0, 0, 0, 0],  # None: 0
    [1, 0, 0, 0],  # Sub: a
    [0, 1, 0, 0],  # Up: b
    [1, 1, 1, 0],  # Average: (a + b) >> 1
    [0, 0, 0, 1],  # Paeth
], dtype=np.int16)
# the filter type each type decodes as on row 0, whose upper neighbours are
# zero: Up as None, Paeth (which then picks a) as Sub
_ROW0_FILTERS = np.array([0, 1, 0, 3, 1], dtype=np.uint8)


def _lanes(ftypes: np.ndarray):
    """Pack the chains of rows into the lanes that `_unfilter` decodes side
    by side.

    A None or Sub row does not read the row above, so it starts a chain of
    rows that do. A chain of one such row decodes whole, so it enters no
    lane. Returns `rows`, the image rows of the other chains in order; the
    index in `rows` of each lane's first row; and L, the longest of those
    chains (0 when there is none, and then no lane). Each lane is a run of
    whole consecutive chains, as many as fit in L rows, so two consecutive
    lanes always hold more than L rows and padding every lane to L rows at
    most about doubles the lane rows.
    """
    h = len(ftypes)
    bounds = np.concatenate(([0], np.flatnonzero(ftypes[1:] < 2) + 1, [h]))
    lengths = np.diff(bounds)
    # row 0 starts a chain whatever its filter. `_unfilter` decodes a row-0
    # Up as None and Paeth as Sub, but a lone Average row 0 still goes to
    # the wavefront: there it is x + floor(a / 2), a recurrence along the row
    laned = (lengths > 1) | (ftypes[bounds[:-1]] > 1)
    firsts, lengths = bounds[:-1][laned], lengths[laned]
    longest = int(lengths.max(initial=0))
    # at[i]: where chain i starts among the lane rows
    at = np.concatenate(([0], np.cumsum(lengths)))
    # index of the last chain boundary within L rows of each boundary
    reach = (np.searchsorted(at, at + longest, side="right") - 1).tolist()
    starts, i = [], 0
    while i < len(lengths):
        starts.append(i)
        i = reach[i]
    rows = np.repeat(firsts - at[:-1], lengths) + np.arange(at[-1])
    return rows, at[starts], longest


def _unfilter(path, scanlines: np.ndarray, bpp: int) -> np.ndarray:
    """Reverse the PNG per-scanline filters (types 0-4).

    Row 0 reads zeros above it (RFC 2083 section 6), so an Up row 0 decodes
    as None and a Paeth row 0 as Sub. A None or Sub row with no Up, Average
    or Paeth row below it is a chain of one row, and decodes whole: a None
    row is its raw bytes, and a Sub row their running sum over bytes bpp
    apart, modulo 256, all such rows at once. Every file `write_image`
    writes is such rows only. A None or Sub row that starts a longer chain
    stays in the wavefront, where its predictor costs no extra step.

    The longer chains go to a wavefront. A byte of pixel (r, c) is
    predicted from the same byte of its left (a), upper (b) and upper-left
    (c) neighbours only, so all pixels on an anti-diagonal r + c = d decode
    at once (Lamport's wavefront method). The chains are independent, so
    they are packed into K lanes of at most L rows (`_lanes`, L the longest
    of them) and one wavefront runs over all lanes side by side: w + L - 1
    vector steps, each computing every predictor for its pixels and keeping
    the one its row's filter byte selects. With no such chain, no step
    runs. Only the last three diagonals are kept, each as (lane row, lane,
    byte) after a zero row, so a step's neighbours are contiguous slices of
    the two diagonals before it and neighbours outside the image read zero.
    A step reads its raw pixels from one int16 copy of the lanes and writes
    the decoded ones back in their place. Memory stays linear in the image.
    """
    h, stride1 = scanlines.shape
    w = (stride1 - 1) // bpp
    ftypes = scanlines[:, 0]
    bad = np.flatnonzero(ftypes > 4)
    if bad.size:
        raise ImageIOError(path, f"unknown PNG filter type {ftypes[bad[0]]}")
    ftypes = ftypes.copy()  # the scanlines may be a read-only buffer
    ftypes[0] = _ROW0_FILTERS[ftypes[0]]
    chained, starts, L = _lanes(ftypes)
    out = np.empty((h, w * bpp), dtype=np.uint8)
    lone = np.ones(h, dtype=bool)
    lone[chained] = False
    out[lone] = scanlines[lone, 1:]
    sub = lone & (ftypes == 1)
    # uint8 accumulation wraps modulo 256
    out[sub] = np.cumsum(out[sub].reshape(-1, w, bpp), axis=1,
                         dtype=np.uint8).reshape(-1, w * bpp)
    K = len(starts)
    if not K:
        return out
    # row r of lane k is image row chained[starts[k] + r] and row k * L + r of
    # `lanes`; rows past a lane's end are None-filtered padding. The lanes
    # are int16 like the diagonals, so a pixel copies between them as one
    # item.
    filled = (np.arange(L) < np.diff(starts, append=len(chained))[:, None]).ravel()
    lanes = np.empty((K * L, w * bpp), dtype=np.int16)
    lanes[~filled] = 0
    lanes[filled] = scanlines[chained, 1:]
    lane_ftypes = np.zeros(K * L, dtype=np.uint8)
    lane_ftypes[filled] = ftypes[chained]
    # predictor weights by (lane row, lane, byte), the diagonals' order
    wa, wb, shift, wp = (np.repeat(col[lane_ftypes.reshape(K, L).T], bpp, axis=1)
                         for col in _PREDICTOR_WEIGHTS.T)
    # a pixel's bytes as one item: pixel (r, c) of lane k is pixels[r * w + c, k]
    pixel = np.dtype((np.void, 2 * bpp))
    pixels = lanes.view(pixel).reshape(K, L * w).T
    # ring[d % 3] holds diagonal d, lane row r at its row r + 1; row 0, and
    # rows the diagonals have not reached yet, stay zero
    ring = [np.zeros((L + 1, K * bpp), dtype=np.int16) for _ in range(3)]
    ring_pixels = [diagonal.view(pixel) for diagonal in ring]
    step = max(w - 1, 1)  # at w = 1 a diagonal is one pixel per lane
    for d in range(w + L - 1):
        lo, hi = max(0, d - w + 1), min(L, d + 1)
        i = d % 3
        rows, here = slice(lo, hi), slice(lo + 1, hi + 1)
        a, b, c = ring[i - 1][here], ring[i - 1][rows], ring[i - 2][rows]
        ac, bc = a - c, b - c
        pa, pb, pc = np.abs(bc), np.abs(ac), np.abs(ac + bc)
        # Paeth, as an offset from c: a if pa <= pb, pc; else b if pb <= pc
        paeth = (pb <= pc) * bc
        paeth += (pa <= np.minimum(pb, pc)) * (ac - paeth)
        paeth += c
        pred = (a * wa[rows] + b * wb[rows]) >> shift[rows]
        pred += paeth * wp[rows]
        at = slice(lo * (w - 1) + d, (hi - 1) * (w - 1) + d + 1, step)
        ring_pixels[i][here] = pixels[at]
        decoded = ring[i][here]
        decoded += pred
        decoded &= 0xFF
        pixels[at] = ring_pixels[i][here]
    out[chained] = lanes[filled]  # bytes, so the cast to uint8 is exact
    return out


def _png_chunk(ctype: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(payload, zlib.crc32(ctype))))


def _encode_png(codes: np.ndarray, color: bool, bitdepth: int) -> bytes:
    h, w = codes.shape[:2]
    bpp = (3 if color else 1) * bitdepth // 8
    ihdr = struct.pack(">IIBBBBB", w, h, bitdepth, 2 if color else 0, 0, 0, 0)
    rows = codes.reshape(h, -1).view(np.uint8)
    # filter type 1 (Sub) on every scanline: each byte minus the same byte
    # of the pixel to its left, modulo 256 (uint8 wraps)
    body = np.empty((h, 1 + w * bpp), dtype=np.uint8)
    body[:, 0] = 1
    body[:, 1:1 + bpp] = rows[:, :bpp]
    np.subtract(rows[:, bpp:], rows[:, :-bpp], out=body[:, 1 + bpp:])
    return (_PNG_SIGNATURE
            + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(body, _ZLIB_LEVEL))
            + _png_chunk(b"IEND", b""))


# ---------------------------------------------------------------------------
# Netpbm (binary P5/P6)

def _decode_pnm(path, data: bytes) -> np.ndarray:
    magic = data[:2]
    fields, offset = _pnm_header_fields(path, data)
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ImageIOError(path, "degenerate PNM dimensions")
    if maxval == 255:
        dtype, sample_bytes = np.uint8, 1
    elif maxval == 65535:
        dtype, sample_bytes = np.dtype(">u2"), 2
    else:
        raise ImageIOError(path, f"unsupported PNM maxval {maxval} (255 or 65535)")
    channels = 3 if magic == b"P6" else 1
    count = w * h * channels
    body = data[offset:offset + count * sample_bytes]
    if len(body) != count * sample_bytes:
        raise ImageIOError(path, "truncated PNM pixel data")
    pixels = np.frombuffer(body, dtype=dtype).astype(np.float64) / maxval
    if channels == 1:
        return pixels.reshape(h, w)
    return pixels.reshape(h, w, 3)


def _pnm_header_fields(path, data: bytes):
    """Parse `width height maxval` after the magic, honoring '#' comments."""
    fields = []
    pos = 2
    while len(fields) < 3:
        if pos >= len(data):
            raise ImageIOError(path, "truncated PNM header")
        c = data[pos:pos + 1]
        if c in b" \t\r\n":
            pos += 1
        elif c == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise ImageIOError(path, "truncated PNM header")
            pos = nl + 1
        elif c.isdigit():
            end = pos
            while end < len(data) and data[end:end + 1].isdigit():
                end += 1
                if end - pos > _MAX_PNM_DIGITS:
                    name = ("width", "height", "maxval")[len(fields)]
                    raise ImageIOError(
                        path, f"PNM {name} has more than {_MAX_PNM_DIGITS} digits")
            fields.append(int(data[pos:end]))
            pos = end
        else:
            raise ImageIOError(path, f"malformed PNM header near byte {pos}")
    if pos >= len(data) or data[pos:pos + 1] not in b" \t\r\n":
        raise ImageIOError(path, "malformed PNM header")
    return tuple(fields), pos + 1  # single whitespace separates header and body


def _encode_pnm(codes: np.ndarray, magic: bytes, maxcode: int) -> bytes:
    h, w = codes.shape[:2]
    header = magic + b"\n%d %d\n%d\n" % (w, h, maxcode)
    return header + codes.tobytes()
