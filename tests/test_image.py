import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from crossband import image
from crossband.edges import canny
from crossband.errors import SingularTransformError
from crossband.image import (MAX_SIGMA, gaussian_blur, gaussian_kernel, gradients,
                             replicate3, to_luminance, warp_affine)
from crossband.transform import AffineTransform

from helpers import (canny_oracle, correlate2d_replicate, gaussian_blur_oracle,
                     gaussian_kernel_2d, gradients_oracle, row_bands,
                     sobel_kernels, warp_oracle)


def test_luminance_gray_fixed_point():
    img = np.full((4, 6, 3), 0.5)
    assert np.allclose(to_luminance(img), 0.5)


def test_luminance_pure_red():
    img = np.zeros((3, 3, 3))
    img[:, :, 0] = 1.0
    assert np.allclose(to_luminance(img), 0.299)


def test_luminance_matches_per_pixel_oracle():
    rng = np.random.default_rng(0)
    img = rng.random((8, 8, 3))
    got = to_luminance(img)
    for y in range(8):
        for x in range(8):
            r, g, b = img[y, x]
            expected = 0.299 * r + 0.587 * g + 0.114 * b
            assert got[y, x] == pytest.approx(expected, abs=1e-15)


def test_luminance_idempotent_on_gray_replication():
    rng = np.random.default_rng(1)
    g = rng.random((10, 7))
    assert np.max(np.abs(to_luminance(replicate3(g)) - g)) < 1e-6


def test_luminance_rejects_gray_input():
    with pytest.raises(ValueError):
        to_luminance(np.zeros((4, 4)))


def test_gaussian_kernel_shape_and_mass():
    k = gaussian_kernel(1.0)
    assert k.size == 2 * 3 + 1
    assert k.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(k == k[::-1])


def test_blur_preserves_constant():
    for sigma in (0.5, 1.0, 3.7):
        img = np.full((16, 16), 0.37)
        out = gaussian_blur(img, sigma)
        assert np.max(np.abs(out - 0.37)) < 1e-12


def test_blur_impulse_is_sampled_gaussian():
    img = np.zeros((31, 31))
    img[15, 15] = 1.0
    out = gaussian_blur(img, 1.0)
    kernel2d = gaussian_kernel_2d(1.0)
    r = kernel2d.shape[0] // 2
    window = out[15 - r:15 + r + 1, 15 - r:15 + r + 1]
    assert np.allclose(window, kernel2d, atol=1e-14)
    # everything outside the kernel support stays zero
    mask = np.ones_like(out, dtype=bool)
    mask[15 - r:15 + r + 1, 15 - r:15 + r + 1] = False
    assert np.all(out[mask] == 0.0)


def test_blur_tiny_sigma_close_to_identity():
    rng = np.random.default_rng(2)
    img = rng.random((12, 12))
    out = gaussian_blur(img, 0.1)
    dense = correlate2d_replicate(img, gaussian_kernel_2d(0.1))
    assert np.max(np.abs(out - dense)) < 1e-12
    assert np.max(np.abs(out - img)) < 1e-3


def test_blur_matches_dense_oracle():
    rng = np.random.default_rng(3)
    img = rng.random((10, 14))
    out = gaussian_blur(img, 1.3)
    dense = correlate2d_replicate(img, gaussian_kernel_2d(1.3))
    assert np.max(np.abs(out - dense)) < 1e-12


def test_blur_rejects_bad_sigma():
    with pytest.raises(ValueError):
        gaussian_blur(np.zeros((4, 4)), 0.0)
    with pytest.raises(ValueError):
        gaussian_blur(np.zeros((4, 4)), -1.0)
    for sigma in (np.nan, np.inf, np.nextafter(MAX_SIGMA, np.inf), 1e6):
        with pytest.raises(ValueError, match="finite"):
            gaussian_kernel(sigma)
    assert gaussian_kernel(MAX_SIGMA).size == 601


def test_blur_mean_preservation():
    img = np.full((32, 32), 0.41)
    assert abs(gaussian_blur(img, 2.0).mean() - img.mean()) < 1e-6
    rng = np.random.default_rng(4)
    tex = rng.random((64, 64))
    out = gaussian_blur(tex, 2.0)
    r = int(np.ceil(3 * 2.0))
    assert abs(out[r:-r, r:-r].mean() - tex[r:-r, r:-r].mean()) < 1e-3


def test_gradients_constant_is_zero():
    ix, iy = gradients(np.full((8, 8), 0.6))
    assert np.all(ix == 0.0)
    assert np.all(iy == 0.0)


def test_gradients_ramp():
    w = 12
    img = np.tile(np.arange(w, dtype=np.float64) / w, (8, 1))
    ix, iy = gradients(img)
    interior = (slice(1, -1), slice(1, -1))
    assert np.allclose(ix[interior], 8.0 / w, atol=1e-12)  # [1,2,1] sums to 4, diff spans 2
    assert np.allclose(iy[interior], 0.0, atol=1e-12)
    assert np.all(ix[interior] > 0)


def test_gradients_match_dense_convolution_exactly():
    rng = np.random.default_rng(5)
    img = (rng.integers(0, 2, size=(8, 8))).astype(np.float64)  # checkerboard-ish 0/1
    ix, iy = gradients(img)
    kx, ky = sobel_kernels()
    assert np.array_equal(ix, correlate2d_replicate(img, kx))
    assert np.array_equal(iy, correlate2d_replicate(img, ky))


def test_gradients_linear_in_intensity():
    rng = np.random.default_rng(6)
    # dyadic values keep every intermediate sum exact, so 2*I + 0.25 scales
    # the derivatives bit-for-bit
    img = rng.integers(0, 1025, size=(9, 9)).astype(np.float64) / 1024
    ix, iy = gradients(img)
    jx, jy = gradients(2.0 * img + 0.25)
    assert np.array_equal(jx, 2.0 * ix)
    assert np.array_equal(jy, 2.0 * iy)


def test_gradients_reject_small_images():
    with pytest.raises(ValueError):
        gradients(np.zeros((2, 5)))


def test_warp_identity_is_bitwise_equal():
    rng = np.random.default_rng(7)
    img = rng.random((20, 24))
    out = warp_affine(img, AffineTransform.identity())
    assert np.array_equal(out, img)


def test_warp_integer_translation_exact():
    rng = np.random.default_rng(8)
    img = rng.random((30, 30))
    out = warp_affine(img, AffineTransform.translation(3, 4), fill=-1.0)
    assert np.array_equal(out[4:, 3:], img[:-4, :-3])
    assert np.all(out[:4, :] == -1.0)
    assert np.all(out[:, :3] == -1.0)


def test_warp_half_pixel_ramp_is_linear_interpolation():
    w = 16
    img = np.tile(np.arange(w, dtype=np.float64) / w, (6, 1))
    out = warp_affine(img, AffineTransform.translation(0.5, 0.0), fill=0.0)
    expected = (np.arange(1, w) - 0.5) / w
    assert np.allclose(out[:, 1:], np.tile(expected, (6, 1)), atol=1e-12)


def test_warp_roundtrip_interior():
    rng = np.random.default_rng(9)
    img = gaussian_blur(rng.random((48, 48)), 2.0)
    t = AffineTransform.similarity(1.02, 0.01, 1.7, -2.3)
    back = warp_affine(warp_affine(img, t), t.inverse())
    # restrict to pixels whose bilinear support stayed in-domain both ways
    interior = (slice(8, -8), slice(8, -8))
    assert np.max(np.abs(back[interior] - img[interior])) < 2e-2


def test_warp_rejects_singular():
    t = AffineTransform(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    with pytest.raises(SingularTransformError):
        warp_affine(np.zeros((8, 8)), t)


def test_warp_output_size_override():
    img = np.ones((10, 10))
    out = warp_affine(img, AffineTransform.identity(), out_w=5, out_h=7)
    assert out.shape == (7, 5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_warp_rejects_non_finite_transform(bad):
    m = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    m[0, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        warp_affine(np.zeros((8, 8)), AffineTransform(m))


@pytest.mark.parametrize("size", [dict(out_w=0), dict(out_h=0),
                                  dict(out_w=-3, out_h=4), dict(out_w=5, out_h=-1)])
def test_warp_rejects_empty_or_negative_output_size(size):
    with pytest.raises(ValueError, match="out_w=.*out_h="):
        warp_affine(np.ones((5, 5)), AffineTransform.identity(), **size)


@st.composite
def _warp_cases(draw):
    """An image of 1-40 px a side, an output size, a fill and a transform:
    a random affine, or a scale of 0.5, 1 or 2 with a translation in half
    pixels, so that source coordinates land on whole and half pixels and on
    the border itself, or a shift that maps everything outside."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    img = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).random((h, w))
    kind = draw(st.sampled_from(["affine", "grid", "outside"]))
    if kind == "affine":
        m = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6)))
        m[[2, 5]] *= 20.0
        m = m.reshape(2, 3)
        assume(abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) > 1e-3)
    elif kind == "grid":
        s = draw(st.sampled_from([0.5, 1.0, 2.0]))
        tx, ty = (draw(st.integers(-20, 20)) / 2.0 for _ in range(2))
        m = np.array([[s, 0.0, tx], [0.0, s, ty]])
    else:
        m = np.array([[1.0, 0.0, draw(st.sampled_from([-500.0, 500.0]))],
                      [0.0, 1.0, draw(st.sampled_from([-500.0, 0.0, 500.0]))]])
    size = draw(st.sampled_from([{}, {"out_w": draw(st.integers(1, 40)),
                                      "out_h": draw(st.integers(1, 40))}]))
    return img, AffineTransform(m), size, draw(st.sampled_from([0.0, -1.5, 7.25]))


@settings(max_examples=200, deadline=None)
@given(_warp_cases(), st.integers(1, 9))
def test_warp_equals_oracle_in_row_bands(case, band_rows):
    img, t, size, fill = case
    with row_bands(band_rows):
        got = warp_affine(img, t, fill=fill, **size)
    assert got.tobytes() == warp_oracle(img, t, fill=fill, **size).tobytes()


def test_warp_equals_oracle_at_640x480():
    img = np.random.default_rng(23).random((480, 640))
    t = AffineTransform(np.array([[0.99, 0.03, 2.75], [-0.02, 1.01, -3.5]]))
    assert warp_affine(img, t).tobytes() == warp_oracle(img, t).tobytes()


def test_warp_memory_is_output_plus_a_few_bands():
    img = np.random.default_rng(24).random((480, 640))
    t = AffineTransform.similarity(1.01, 0.02, 3.3, -2.2)
    band = 64 * 640 * 8
    with row_bands(64):
        warp_affine(img, t)
        tracemalloc.start()
        try:
            out = warp_affine(img, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak <= out.nbytes + 12 * band


# --- row bands ---------------------------------------------------------------

def test_banded_band_taller_than_image_is_one_call():
    calls = []
    with row_bands(10):
        image._banded(lambda *rows: calls.append(rows), 10)
    assert calls == [(0, 10)]


def test_banded_covers_every_row_once():
    calls = []
    with row_bands(4):
        image._banded(lambda *rows: calls.append(rows), 10)
    assert calls == [(0, 4), (4, 8), (8, 10)]


def test_banded_stages_from_concurrent_callers():
    rng = np.random.default_rng(6)
    imgs = [rng.random((30, 20)) for _ in range(6)]
    results = [None] * len(imgs)

    def work(i):
        results[i] = canny(imgs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with row_bands(3):
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(imgs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for img, out in zip(imgs, results):
        edges, directions = canny_oracle(img)
        assert np.array_equal(out.edges, edges)
        assert np.array_equal(out.directions, directions)


def test_blur_rows_is_the_blur_then_the_rows():
    img = np.random.default_rng(9).random((23, 17))
    for rows in (slice(None), slice(3, 11), slice(0, 1), slice(20, 23)):
        assert (image._blur_rows(img, gaussian_kernel(1.3), rows).tobytes()
                == gaussian_blur_oracle(img, 1.3)[rows].tobytes())


@pytest.mark.parametrize("kernel", [gaussian_kernel(0.6), gaussian_kernel(1.5),
                                    np.array([1.0, 2.0, 1.0]),
                                    np.array([-1.0, 0.0, 1.0])])
def test_correlate_rows_is_ndimage_bit_for_bit(kernel):
    from scipy import ndimage
    rng = np.random.default_rng(10)
    for trial in range(60):
        h, w = int(rng.integers(1, 30)), int(rng.integers(1, 12))
        if trial % 3 == 0:  # signed zeros and exact ties
            img = rng.choice([-0.0, 0.0, -1.0, 0.5, 1.0], size=(h, w))
        else:
            img = rng.standard_normal((h, w)) * 10.0 ** rng.integers(-200, 200)
        whole = ndimage.correlate1d(img, kernel, axis=0, mode="nearest")
        y0 = int(rng.integers(0, h))
        y1 = int(rng.integers(y0 + 1, h + 1))
        for rows in (slice(None), slice(y0, y1)):
            assert (image._correlate_rows(img, kernel, rows).tobytes()
                    == whole[rows].tobytes())


def test_gradient_rows_are_the_gradients_then_the_rows():
    img = np.random.default_rng(11).random((19, 13))
    ix, iy = gradients_oracle(img)
    for rows in (slice(None), slice(4, 9), slice(0, 2), slice(17, 19)):
        got_x, got_y = image._gradient_rows(img, rows)
        assert got_x.tobytes() == ix[rows].tobytes()
        assert got_y.tobytes() == iy[rows].tobytes()


@st.composite
def _rasters(draw, min_side):
    """A (h, w) image of 1-40 px per side (at least min_side), its band
    height, and whether it holds signed zeros and ties or magnitudes of
    1e-200 to 1e200."""
    h = draw(st.one_of(st.just(min_side), st.integers(min_side, 40)))
    w = draw(st.one_of(st.just(min_side), st.integers(min_side, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        img = rng.choice([-0.0, 0.0, -1.0, 0.5, 1.0], size=(h, w))
    else:
        img = rng.standard_normal((h, w)) * 10.0 ** rng.integers(-200, 200)
    return img, draw(st.integers(1, 9))


@settings(max_examples=200, deadline=None)
@given(_rasters(1), st.sampled_from([0.1, 0.6, 1.5, 4.0, 20.0]))
def test_gaussian_blur_is_the_whole_image_passes_bit_for_bit(case, sigma):
    # sigma 4 and 20 give kernels of 25 and 121 taps, longer than the image
    img, rows = case
    with row_bands(rows):
        got = gaussian_blur(img, sigma)
        expected = gaussian_blur_oracle(img, sigma)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=150, deadline=None)
@given(_rasters(3))
def test_gradients_are_the_whole_image_passes_bit_for_bit(case):
    img, rows = case
    with row_bands(rows):
        got = gradients(img)
        expected = gradients_oracle(img)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
