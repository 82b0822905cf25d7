import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossband import image_io
from crossband.errors import ImageIOError
from crossband.evaluation import synthetic_texture
from crossband.image_io import _lanes, _unfilter, read_image, write_image
from helpers import quantize_oracle, unfilter_oracle


def _png_bytes(chunks):
    blob = b"\x89PNG\r\n\x1a\n"
    for ctype, payload in chunks:
        blob += struct.pack(">I", len(payload)) + ctype + payload
        blob += struct.pack(">I", zlib.crc32(payload, zlib.crc32(ctype)))
    return blob


def _png(path, chunks):
    path.write_bytes(_png_bytes(chunks))


def _ihdr(w, h, bitdepth, colortype, interlace=0):
    return struct.pack(">IIBBBBB", w, h, bitdepth, colortype, 0, 0, interlace)


def test_write_read_8bit_png_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.random((9, 13))
    p = tmp_path / "img.png"
    write_image(p, img, bitdepth=8)
    back = read_image(p)
    assert back.shape == img.shape
    assert np.max(np.abs(back - img)) <= 1.0 / (2 * 255)


def test_write_read_16bit_roundtrips(tmp_path):
    rng = np.random.default_rng(1)
    gray = rng.random((7, 5))
    color = rng.random((6, 4, 3))
    bound = 1.0 / (2 * 65535)
    for name, img in (("g.png", gray), ("c.png", color),
                      ("g.pgm", gray), ("c.ppm", color)):
        p = tmp_path / name
        write_image(p, img, bitdepth=16)
        back = read_image(p)
        assert back.shape == img.shape
        assert np.max(np.abs(back - img)) <= bound


def test_pgm_single_pixel_255(tmp_path):
    p = tmp_path / "one.pgm"
    p.write_bytes(b"P5\n1 1\n255\n\xff")
    img = read_image(p)
    assert img.shape == (1, 1)
    assert img[0, 0] == 1.0


def test_integer_code_mapping_is_exact(tmp_path):
    p = tmp_path / "codes.pgm"
    codes = np.arange(256, dtype=np.uint8).reshape(16, 16)
    p.write_bytes(b"P5\n16 16\n255\n" + codes.tobytes())
    img = read_image(p)
    assert np.array_equal(img, codes.astype(np.float64) / 255)


def test_write_rounds_half_up(tmp_path):
    # 10.5/255 sits exactly between codes 10 and 11
    p = tmp_path / "half.pgm"
    write_image(p, np.full((1, 1), 10.5 / 255))
    assert p.read_bytes()[-1] == 11


@st.composite
def _codec_cases(draw):
    """An image of 1-24 px per side for one format and bit depth, with
    samples on, halfway between and beyond the integer codes."""
    suffix, color = draw(st.sampled_from([(".png", False), (".png", True),
                                          (".pgm", False), (".ppm", True)]))
    bitdepth = draw(st.sampled_from([8, 16]))
    side = st.integers(1, 24)
    h, w = draw(st.sampled_from([(draw(side), draw(side)), (1, draw(side)),
                                 (draw(side), 1)]))
    shape = (h, w, 3) if color else (h, w)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    maxcode = (1 << bitdepth) - 1
    codes = rng.integers(0, maxcode + 1, size=shape).astype(np.float64)
    offsets = rng.choice([0.0, 0.5, -0.5, 0.49], size=shape)
    img = (codes + offsets) / maxcode
    img.flat[rng.integers(0, img.size, size=2)] = rng.choice([-0.3, 1.7], size=2)
    return suffix, bitdepth, img


@settings(max_examples=120, deadline=None)
@given(_codec_cases())
def test_codec_roundtrip_is_the_rounded_codes(tmp_path_factory, case):
    suffix, bitdepth, img = case
    maxcode = (1 << bitdepth) - 1
    codes = quantize_oracle(img, bitdepth)
    p = tmp_path_factory.mktemp("codec") / ("img" + suffix)
    write_image(p, img, bitdepth=bitdepth)
    back = read_image(p)
    assert back.dtype == np.float64 and back.shape == img.shape
    assert np.array_equal(back, codes / maxcode)


def _written_pnm_codes(path, img, bitdepth):
    """The codes `write_image` stores for img, read from a PGM's body."""
    write_image(path, img, bitdepth=bitdepth)
    body = path.read_bytes()[-img.size * bitdepth // 8:]
    return np.frombuffer(body, dtype=np.uint8 if bitdepth == 8 else ">u2")


_QUANTIZER_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
                       np.finfo(np.float64).max, -np.finfo(np.float64).max]


@pytest.mark.parametrize("bitdepth", [8, 16])
def test_quantizer_equals_the_oracle_on_specials_and_half_codes(tmp_path, bitdepth):
    maxcode = (1 << bitdepth) - 1
    half = (np.arange(maxcode) + 0.5) / maxcode
    values = np.concatenate([_QUANTIZER_SPECIALS, half,
                             np.nextafter(half, -np.inf)])[None]
    got = _written_pnm_codes(tmp_path / "q.pgm", values, bitdepth)
    assert np.array_equal(got, quantize_oracle(values, bitdepth).ravel())


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([8, 16]),
       st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=64))
def test_quantizer_equals_the_oracle_on_drawn_values(tmp_path_factory, bitdepth,
                                                     values):
    values = np.array(values)[None]
    path = tmp_path_factory.mktemp("quantize") / "q.pgm"
    got = _written_pnm_codes(path, values, bitdepth)
    assert np.array_equal(got, quantize_oracle(values, bitdepth).ravel())


def _idat_scanlines(blob, h):
    """The inflated IDAT of a PNG file as (h, 1 + stride) uint8 scanlines."""
    pos, idat = 8, b""
    while pos < len(blob):
        length, ctype = struct.unpack(">I4s", blob[pos:pos + 8])
        if ctype == b"IDAT":
            idat += blob[pos + 8:pos + 8 + length]
        pos += 12 + length
    return np.frombuffer(zlib.decompress(idat), dtype=np.uint8).reshape(h, -1)


def _code_rows(img, bitdepth):
    """The rounded codes of img as PNG scanline bytes, big-endian, one row
    of the image per row."""
    codes = quantize_oracle(img, bitdepth).astype(">u2" if bitdepth == 16 else np.uint8)
    return codes.reshape(img.shape[0], -1).view(np.uint8)


@settings(max_examples=120, deadline=None)
@given(_codec_cases().filter(lambda case: case[0] == ".png"))
def test_png_writer_sub_filters_every_scanline(tmp_path_factory, case):
    _, bitdepth, img = case
    channels = 3 if img.ndim == 3 else 1
    p = tmp_path_factory.mktemp("sub") / "img.png"
    write_image(p, img, bitdepth=bitdepth)
    scanlines = _idat_scanlines(p.read_bytes(), img.shape[0])
    assert np.all(scanlines[:, 0] == 1)
    assert np.array_equal(unfilter_oracle(scanlines, channels * bitdepth // 8),
                          _code_rows(img, bitdepth))


def test_writing_an_image_twice_gives_identical_files(tmp_path):
    img = np.random.default_rng(5).random((31, 17, 3))
    for name, bitdepth in (("a.png", 8), ("b.png", 16), ("c.ppm", 16)):
        write_image(tmp_path / ("1" + name), img, bitdepth=bitdepth)
        write_image(tmp_path / ("2" + name), img, bitdepth=bitdepth)
        assert (tmp_path / ("1" + name)).read_bytes() == (tmp_path / ("2" + name)).read_bytes()


@pytest.mark.parametrize("bitdepth", [8, 16])
def test_png_of_a_smooth_texture_is_no_larger_than_none_at_level_6(tmp_path, bitdepth):
    img = synthetic_texture(160, 120, seed=3)
    p = tmp_path / "t.png"
    write_image(p, img, bitdepth=bitdepth)
    rows = _code_rows(img, bitdepth)
    none = np.concatenate([np.zeros((len(rows), 1), np.uint8), rows], axis=1)
    # the same file but for its IDAT, None-filtered at zlib level 6
    idat = zlib.compress(none.tobytes(), 6)
    none_size = 8 + 25 + 12 + len(idat) + 12
    assert p.stat().st_size <= none_size


@pytest.mark.parametrize("shape, bitdepth", [((1, 65535), 8), ((7, 9, 3), 16),
                                             ((480, 640, 3), 8)])
def test_a_written_png_decodes_without_a_wavefront(tmp_path, monkeypatch,
                                                   shape, bitdepth):
    # the wavefront reads the predictor weights; with none, it cannot run
    monkeypatch.setattr(image_io, "_PREDICTOR_WEIGHTS", None)
    img = np.random.default_rng(6).random(shape)
    p = tmp_path / "w.png"
    write_image(p, img, bitdepth=bitdepth)
    maxcode = (1 << bitdepth) - 1
    assert np.array_equal(read_image(p), quantize_oracle(img, bitdepth) / maxcode)


# row 0 reads zeros above it, so Up there is None and Paeth is Sub; Average
# there is x + floor(a / 2), a recurrence along the row, and is not tested
@pytest.mark.parametrize("ftype", [0, 1, 2, 4])
def test_a_1x65535_none_sub_up_or_paeth_strip_decodes_without_a_wavefront(
        tmp_path, monkeypatch, ftype):
    monkeypatch.setattr(image_io, "_PREDICTOR_WEIGHTS", None)
    rng = np.random.default_rng(7)
    scanlines = rng.integers(0, 256, size=(1, 1 + 65535), dtype=np.uint8)
    scanlines[0, 0] = ftype
    p = tmp_path / "strip.png"
    _png(p, [(b"IHDR", _ihdr(65535, 1, 8, 0)),
             (b"IDAT", zlib.compress(scanlines.tobytes())), (b"IEND", b"")])
    want = unfilter_oracle(scanlines, 1)
    assert np.array_equal(read_image(p), want / 255.0)


def test_pnm_header_comments(tmp_path):
    p = tmp_path / "c.pgm"
    p.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n\x00\xff")
    img = read_image(p)
    assert np.array_equal(img, np.array([[0.0, 1.0]]))


def test_ppm_color_roundtrip_8bit(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.random((3, 4, 3))
    p = tmp_path / "c.ppm"
    write_image(p, img)
    assert np.max(np.abs(read_image(p) - img)) <= 1.0 / (2 * 255)


def test_read_missing_file_names_path():
    with pytest.raises(ImageIOError, match="no-such-file"):
        read_image("no-such-file.png")


def test_unsupported_format(tmp_path):
    p = tmp_path / "x.png"
    p.write_bytes(b"GIF89a....")
    with pytest.raises(ImageIOError, match="unsupported"):
        read_image(p)


def test_truncated_png(tmp_path):
    src = tmp_path / "ok.png"
    write_image(src, np.ones((4, 4)))
    broken = tmp_path / "broken.png"
    broken.write_bytes(src.read_bytes()[:-8])
    with pytest.raises(ImageIOError, match="truncated"):
        read_image(broken)


def test_png_inflation_is_bounded_by_the_header(tmp_path):
    # a 1x1 image whose IDAT inflates to 50 MB of zeros
    deflate = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    idat = b"".join(deflate.compress(zeros) for _ in range(50)) + deflate.flush()
    path = tmp_path / "bomb.png"
    _png(path, [(b"IHDR", _ihdr(1, 1, 8, 0)), (b"IDAT", idat), (b"IEND", b"")])
    del zeros
    tracemalloc.start()
    try:
        with pytest.raises(ImageIOError):
            read_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_png_pixel_count_is_capped_before_inflating(tmp_path):
    # a 50 KB file whose header claims 20000x20000 over 50 MB of zeros
    deflate = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    idat = b"".join(deflate.compress(zeros) for _ in range(50)) + deflate.flush()
    path = tmp_path / "huge.png"
    _png(path, [(b"IHDR", _ihdr(20000, 20000, 8, 0)), (b"IDAT", idat),
                (b"IEND", b"")])
    del zeros
    tracemalloc.start()
    try:
        with pytest.raises(ImageIOError, match="20000x20000 exceed"):
            read_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_png_width_plus_height_is_capped(tmp_path):
    # within the pixel cap, but a 65536x1 strip would take 65536 unfilter steps
    path = tmp_path / "strip.png"
    _png(path, [(b"IHDR", _ihdr(1 << 16, 1, 8, 0)),
                (b"IDAT", zlib.compress(bytes((1 << 16) + 1))), (b"IEND", b"")])
    with pytest.raises(ImageIOError, match="65536x1 exceed the 65536 width"):
        read_image(path)


def test_png_truncated_zlib_stream(tmp_path):
    raw = b"\x00\x80"  # one 1x1 gray scanline, filter 0
    idat = zlib.compress(raw)[:-4]  # drop the adler32 trailer
    path = tmp_path / "cut.png"
    _png(path, [(b"IHDR", _ihdr(1, 1, 8, 0)), (b"IDAT", idat), (b"IEND", b"")])
    with pytest.raises(ImageIOError, match="truncated"):
        read_image(path)


def test_png_crc_mismatch(tmp_path):
    src = tmp_path / "ok.png"
    write_image(src, np.zeros((2, 2)))
    blob = bytearray(src.read_bytes())
    blob[-5] ^= 0xFF  # corrupt IEND CRC
    bad = tmp_path / "bad.png"
    bad.write_bytes(bytes(blob))
    with pytest.raises(ImageIOError, match="CRC"):
        read_image(bad)


@pytest.mark.parametrize("length", [0, 12, 14])
def test_png_ihdr_of_the_wrong_length(tmp_path, length):
    p = tmp_path / "h.png"
    _png(p, [(b"IHDR", (_ihdr(1, 1, 8, 0) + b"\x00")[:length]),
             (b"IDAT", zlib.compress(b"\x00\x00")), (b"IEND", b"")])
    with pytest.raises(ImageIOError, match=f"malformed PNG IHDR chunk \\({length} bytes"):
        read_image(p)


def test_png_unsupported_bitdepth(tmp_path):
    p = tmp_path / "b.png"
    raw = zlib.compress(b"\x00\x00")
    _png(p, [(b"IHDR", _ihdr(1, 1, 4, 0)), (b"IDAT", raw), (b"IEND", b"")])
    with pytest.raises(ImageIOError, match="bit depth"):
        read_image(p)


def test_png_unsupported_color_type(tmp_path):
    p = tmp_path / "p.png"
    raw = zlib.compress(b"\x00\x00")
    _png(p, [(b"IHDR", _ihdr(1, 1, 8, 3)), (b"IDAT", raw), (b"IEND", b"")])
    with pytest.raises(ImageIOError, match="color type"):
        read_image(p)


def test_png_interlace_rejected(tmp_path):
    p = tmp_path / "i.png"
    raw = zlib.compress(b"\x00\x00")
    _png(p, [(b"IHDR", _ihdr(1, 1, 8, 0, interlace=1)),
             (b"IDAT", raw), (b"IEND", b"")])
    with pytest.raises(ImageIOError, match="interlaced"):
        read_image(p)


def test_pnm_unsupported_maxval(tmp_path):
    p = tmp_path / "m.pgm"
    p.write_bytes(b"P5\n1 1\n100\n\x00")
    with pytest.raises(ImageIOError, match="maxval"):
        read_image(p)


def test_pnm_truncated_body(tmp_path):
    p = tmp_path / "t.pgm"
    p.write_bytes(b"P5\n4 4\n255\n\x00\x01")
    with pytest.raises(ImageIOError, match="truncated"):
        read_image(p)


@pytest.mark.parametrize("field", range(3))
def test_pnm_header_field_with_5000_digits(tmp_path, field):
    # int() of a run this long raises a bare ValueError (its digit limit)
    fields = [b"4", b"4", b"255"]
    fields[field] = b"1" * 5000
    p = tmp_path / "d.pgm"
    p.write_bytes(b"P5\n" + b" ".join(fields) + b"\n\x00")
    name = ("width", "height", "maxval")[field]
    with pytest.raises(ImageIOError, match=f"PNM {name} has more than 10 digits"):
        read_image(p)


def _filter_forward(rows, bpp, ftypes):
    """Independent forward PNG filtering, to exercise the reader's inverse."""
    h, stride = rows.shape
    out = bytearray()
    prior = np.zeros(stride, dtype=np.int64)
    for y in range(h):
        cur = rows[y].astype(np.int64)
        f = ftypes[y % len(ftypes)]
        line = np.zeros(stride, dtype=np.int64)
        for i in range(stride):
            left = cur[i - bpp] if i >= bpp else 0
            up = prior[i]
            ul = prior[i - bpp] if i >= bpp else 0
            if f == 0:
                pred = 0
            elif f == 1:
                pred = left
            elif f == 2:
                pred = up
            elif f == 3:
                pred = (left + up) // 2
            else:
                p = left + up - ul
                pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
                pred = left if (pa <= pb and pa <= pc) else (up if pb <= pc else ul)
            line[i] = (cur[i] - pred) & 0xFF
        out += bytes([f]) + bytes(line.astype(np.uint8))
        prior = cur
    return bytes(out)


@pytest.mark.parametrize("ftypes", [(0,), (1,), (2,), (3,), (4,), (0, 1, 2, 3, 4)])
def test_png_reader_inverts_all_filters(tmp_path, ftypes):
    rng = np.random.default_rng(sum(ftypes) + 10)
    codes = rng.integers(0, 256, size=(6, 5, 3)).astype(np.uint8)
    raw = _filter_forward(codes.reshape(6, -1), bpp=3, ftypes=ftypes)
    p = tmp_path / "f.png"
    _png(p, [(b"IHDR", _ihdr(5, 6, 8, 2)),
             (b"IDAT", zlib.compress(raw)), (b"IEND", b"")])
    img = read_image(p)
    assert np.array_equal(img, codes.astype(np.float64) / 255)


@st.composite
def _filtered_scanlines(draw):
    bpp = draw(st.sampled_from([1, 2, 3, 6]))
    h = draw(st.integers(1, 40))
    w = draw(st.integers(1, 40))
    shape = draw(st.sampled_from([(h, w), (1, w), (h, 1)]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = shape[0]
    scanlines = rng.integers(0, 256, size=(rows, 1 + shape[1] * bpp),
                             dtype=np.uint8)
    column = draw(st.sampled_from(["mixed", "chains", "one chain", "no chains"]))
    if column == "mixed":
        ftypes = rng.integers(0, 5, size=rows)
    elif column == "no chains":  # None and Sub rows only
        ftypes = rng.integers(0, 2, size=rows)
    else:
        # runs of Up/Average/Paeth rows, each run after a None or Sub row
        # that starts its chain; row 0 starts the first chain, whatever it is
        ftypes = rng.integers(2, 5, size=rows)
        if column == "chains":
            lengths = draw(st.lists(st.integers(1, rows), min_size=1))
            starts = np.cumsum(lengths)
            starts = starts[starts < rows]
            ftypes[starts] = rng.integers(0, 2, size=starts.size)
        ftypes[0] = rng.integers(0, 5)
    scanlines[:, 0] = ftypes
    return scanlines, bpp


@settings(max_examples=300, deadline=None)
@given(_filtered_scanlines())
def test_unfilter_equals_per_byte_oracle(case):
    scanlines, bpp = case
    got = _unfilter("x.png", scanlines, bpp)
    assert got.dtype == np.uint8
    assert np.array_equal(got, unfilter_oracle(scanlines, bpp))


def test_png_unknown_filter_type(tmp_path):
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 256, size=(6, 5, 3)).astype(np.uint8)
    raw = bytearray(_filter_forward(codes.reshape(6, -1), bpp=3, ftypes=(0, 1, 2, 3, 4)))
    raw[3 * (1 + 5 * 3)] = 5  # filter byte of row 3
    p = tmp_path / "f5.png"
    _png(p, [(b"IHDR", _ihdr(5, 6, 8, 2)),
             (b"IDAT", zlib.compress(bytes(raw))), (b"IEND", b"")])
    with pytest.raises(ImageIOError, match="unknown PNG filter type 5"):
        read_image(p)


def _cycling_filters(h):
    return np.arange(h) % 5


def _chains_of_1_and_40_rows(h):
    # a Sub row alone, then a Sub row and 39 Paeth rows, and again
    return np.where(np.arange(h) % 41 < 2, 1, 4)


@settings(max_examples=300, deadline=None)
@given(_filtered_scanlines())
def test_lanes_are_runs_of_whole_chains_at_most_the_longest_chain(case):
    ftypes = case[0][:, 0]
    h = len(ftypes)
    rows, starts, longest = _lanes(ftypes)
    chain_starts = [0] + [r for r in range(1, h) if ftypes[r] < 2]
    chains = dict(zip(chain_starts, np.diff(chain_starts + [h]).tolist()))
    # a lone None or Sub row is decoded whole; every other chain is laned
    laned = {first: n for first, n in chains.items() if n > 1 or ftypes[first] > 1}
    assert longest == max(laned.values(), default=0)
    # every row of every laned chain exactly once, in order, and no other row
    assert rows.tolist() == [r for first, n in laned.items()
                             for r in range(first, first + n)]
    assert starts.tolist()[:1] == ([0] if laned else [])
    lanes = np.split(rows, starts[1:]) if laned else []
    assert all(1 <= len(lane) <= longest for lane in lanes)
    # each lane starts a chain and ends where the next chain would not fit
    assert all(lane[0] in laned for lane in lanes)
    for lane, second in zip(lanes, lanes[1:]):
        assert len(lane) + laned[second[0]] > longest


def test_a_16384x1_strip_of_cycling_filters_takes_at_most_4_steps():
    # `_unfilter` takes w + L - 1 steps; here the chains are 1 and 4 rows
    _, _, longest = _lanes(_cycling_filters(1 << 14))
    assert 1 + longest - 1 <= 4


@pytest.mark.parametrize("h, w, bpp, filters", [
    pytest.param(4000, 64, 3, _cycling_filters, id="4000-64-3"),
    pytest.param(64, 4000, 3, _cycling_filters, id="64-4000-3"),
    pytest.param(1, 1 << 14, 1, _cycling_filters, id="1-16384-1"),
    pytest.param(1 << 14, 1, 1, _cycling_filters, id="16384-1-1"),
    pytest.param(480, 640, 3, lambda h: np.full(h, 4), id="480-640-3-paeth"),
    pytest.param(480, 640, 3, _chains_of_1_and_40_rows, id="480-640-3-chains-1-40"),
])
def test_unfilter_memory_is_linear_in_the_image(h, w, bpp, filters):
    rng = np.random.default_rng(4)
    scanlines = rng.integers(0, 256, size=(h, 1 + w * bpp), dtype=np.uint8)
    scanlines[:, 0] = filters(h)
    tracemalloc.start()
    try:
        _unfilter("x.png", scanlines, bpp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * h * w * bpp + (1 << 20)


def test_png_16bit_big_endian_samples(tmp_path):
    p = tmp_path / "be.png"
    # single pixel with value 0x0102
    raw = zlib.compress(b"\x00\x01\x02")
    _png(p, [(b"IHDR", _ihdr(1, 1, 16, 0)), (b"IDAT", raw), (b"IEND", b"")])
    img = read_image(p)
    assert img[0, 0] == pytest.approx(0x0102 / 65535, abs=1e-12)


def test_write_rejects_bad_inputs(tmp_path):
    with pytest.raises(ValueError, match="bitdepth"):
        write_image(tmp_path / "x.png", np.zeros((2, 2)), bitdepth=12)
    with pytest.raises(ValueError, match="grayscale"):
        write_image(tmp_path / "x.pgm", np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="color"):
        write_image(tmp_path / "x.ppm", np.zeros((2, 2)))
    with pytest.raises(ValueError, match="extension"):
        write_image(tmp_path / "x.tiff", np.zeros((2, 2)))


def test_write_reads_the_extension_from_the_file_name_alone(tmp_path):
    (tmp_path / "d.png").mkdir()
    for path in (tmp_path / "d.png" / "out", tmp_path / "noext"):
        with pytest.raises(ValueError, match="file name has no extension"):
            write_image(path, np.zeros((2, 2)))
        assert not path.exists()
    with pytest.raises(ValueError, match=r"unsupported output extension '\.tiff'"):
        write_image(tmp_path / "d.png" / "x.tiff", np.zeros((2, 2)))
    write_image(tmp_path / "d.png" / ".png", np.full((2, 2), 1.0))
    assert np.array_equal(read_image(tmp_path / "d.png" / ".png"), np.ones((2, 2)))


def test_write_clamps_out_of_range(tmp_path):
    p = tmp_path / "clamp.pgm"
    write_image(p, np.array([[-0.5, 1.5]]))
    assert p.read_bytes()[-2:] == b"\x00\xff"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["x.png", "x.pgm"])
def test_write_rejects_non_finite_pixels(tmp_path, bad, name):
    img = np.full((3, 4), 0.5)
    img[1, 2] = bad
    with pytest.raises(ValueError, match="1 non-finite"):
        write_image(tmp_path / name, img)
    assert not (tmp_path / name).exists()


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
@pytest.mark.parametrize("name", ["x.png", "x.pgm", "x.ppm"])
def test_write_rejects_empty_images(tmp_path, shape, name):
    # an empty PNG failed inside numpy's reshape, and an empty PGM was
    # written as a file that read_image rejects
    if name.endswith(".ppm"):
        shape += (3,)
    with pytest.raises(ValueError, match=r"at least 1x1, got shape \(\d+, \d+"):
        write_image(tmp_path / name, np.zeros(shape))
    assert not (tmp_path / name).exists()


# --- fuzz: hostile bytes fail with ImageIOError, or decode ---------------------

def _fuzz_seeds():
    """Small valid files: PNGs (chunk lists) of every filter type, and PNMs."""
    rng = np.random.default_rng(21)
    pngs = {}
    for name, bitdepth, colortype, channels in (("png8-gray", 8, 0, 1),
                                               ("png16-rgb", 16, 2, 3)):
        bpp = channels * bitdepth // 8
        rows = rng.integers(0, 256, size=(6, 5 * bpp), dtype=np.uint8)
        raw = _filter_forward(rows, bpp=bpp, ftypes=(0, 1, 2, 3, 4))
        pngs[name] = [(b"IHDR", _ihdr(5, 6, bitdepth, colortype)),
                      (b"IDAT", zlib.compress(raw)), (b"IEND", b"")]
    files = {name: _png_bytes(chunks) for name, chunks in pngs.items()}
    files["pgm8"] = b"P5\n# fuzz\n5 6\n255\n" + rng.bytes(30)
    files["ppm16"] = b"P6\n5 6\n65535\n" + rng.bytes(180)
    return pngs, files


_FUZZ_PNGS, _FUZZ_FILES = _fuzz_seeds()
_edits = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                  max_size=4)
_cut = st.none() | st.integers(0, 1 << 16)


def _mutate(data: bytes, edits, cut, extra=b"") -> bytes:
    out = bytearray(data)
    for pos, value in edits:
        if out:
            out[pos % len(out)] = value
    if cut is not None:
        del out[cut % (len(out) + 1):]
    return bytes(out) + extra


def _read_fuzzed(tmp_path_factory, data: bytes) -> None:
    path = tmp_path_factory.getbasetemp() / "fuzz.img"
    path.write_bytes(data)
    try:
        img = read_image(path)
    except ImageIOError:
        return
    assert img.dtype == np.float64 and img.ndim in (2, 3)
    assert np.all((img >= 0.0) & (img <= 1.0))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_FILES)), _edits, _cut, st.binary(max_size=8))
def test_read_image_of_mutated_bytes_raises_only_image_io_error(
        tmp_path_factory, name, edits, cut, extra):
    _read_fuzzed(tmp_path_factory, _mutate(_FUZZ_FILES[name], edits, cut, extra))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_FUZZ_PNGS)), st.sampled_from([0, 1, 2]),
       st.booleans(), _edits, _cut, st.binary(max_size=8))
def test_read_image_of_mutated_png_payloads_raises_only_image_io_error(
        tmp_path_factory, name, which, inflated, edits, cut, extra):
    # the chunk CRCs are recomputed, so the mutation reaches the header
    # checks, the inflater and the unfilter; `inflated` mutates the IDAT's
    # scanlines (filter bytes included) and compresses them again
    chunks = list(_FUZZ_PNGS[name])
    ctype, payload = chunks[which]
    if inflated and ctype == b"IDAT":
        payload = zlib.compress(_mutate(zlib.decompress(payload), edits, cut, extra))
    else:
        payload = _mutate(payload, edits, cut, extra)
    chunks[which] = (ctype, payload)
    _read_fuzzed(tmp_path_factory, _png_bytes(chunks))
