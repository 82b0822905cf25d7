"""Minimal PNG and binary PGM/PPM codecs.

Supported formats: 8- and 16-bit PNG (grayscale and RGB, non-interlaced) and
binary Netpbm P5/P6 with maxval 255 or 65535. Integer codes map linearly to
[0, 1] via v = code / maxcode; writing inverts the mapping with
round-half-up. 16-bit samples are big-endian in both formats.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import ImageIOError

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"
MAX_PNG_PIXELS = 1 << 25  # larger IHDR dimensions are rejected before inflating


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
    """Write [0, 1] intensities as PNG, PGM, or PPM, chosen by extension."""
    if bitdepth not in (8, 16):
        raise ValueError(f"bitdepth must be 8 or 16, got {bitdepth}")
    arr = np.asarray(img, dtype=np.float64)
    if arr.ndim == 2:
        color = False
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color = True
    else:
        raise ValueError(f"expected (H, W) or (H, W, 3) image, got shape {arr.shape}")

    maxcode = (1 << bitdepth) - 1
    codes = np.floor(np.clip(arr, 0.0, 1.0) * maxcode + 0.5)
    codes = codes.astype(np.uint8 if bitdepth == 8 else ">u2")

    suffix = str(path).lower().rsplit(".", 1)[-1]
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


def _unfilter(path, scanlines: np.ndarray, bpp: int) -> np.ndarray:
    """Reverse the PNG per-scanline filters (types 0-4)."""
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
            raise ImageIOError(path, f"unknown PNG filter type {ftype}")
        out[y] = recon.astype(np.uint8)
        prior = recon
    return out


def _png_chunk(ctype: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + ctype + payload
            + struct.pack(">I", zlib.crc32(payload, zlib.crc32(ctype))))


def _encode_png(codes: np.ndarray, color: bool, bitdepth: int) -> bytes:
    if color:
        h, w, _ = codes.shape
        colortype = 2
    else:
        h, w = codes.shape
        colortype = 0
    ihdr = struct.pack(">IIBBBBB", w, h, bitdepth, colortype, 0, 0, 0)
    rows = codes.reshape(h, -1).view(np.uint8).reshape(h, -1)
    # filter type 0 (None) on every scanline
    raw = b"".join(b"\x00" + rows[y].tobytes() for y in range(h))
    return (_PNG_SIGNATURE
            + _png_chunk(b"IHDR", ihdr)
            + _png_chunk(b"IDAT", zlib.compress(raw))
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
