import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from crossband.features import (Corner, HarrisConfig, _window_max, detect_corners,
                                harris_score_map)
from crossband.image import GRADIENT_SIGMA, gradients

from helpers import correlate2d_replicate, gaussian_kernel_2d, harris_oracle, row_bands


def _square_image():
    img = np.full((16, 16), 0.2)
    img[5:11, 5:11] = 0.9
    return img


def test_config_validation():
    with pytest.raises(ValueError):
        HarrisConfig(k=0.3)
    with pytest.raises(ValueError):
        HarrisConfig(nms_window=4)
    with pytest.raises(ValueError):
        HarrisConfig(max_corners=2)
    with pytest.raises(ValueError):
        HarrisConfig(window_sigma=0.0)


def test_score_constant_is_zero():
    s = harris_score_map(np.full((12, 12), 0.5))
    assert np.all(s == 0.0)


def test_score_nonpositive_on_straight_edge():
    img = np.full((20, 20), 0.1)
    img[:, 10:] = 0.9  # vertical step
    s = harris_score_map(img)
    # along the edge interior one eigenvalue dominates: det ~ 0, trace > 0
    assert np.all(s[5:15, 9:12] <= 1e-12)


def test_score_matches_dense_eigenvalue_oracle():
    img = _square_image()
    cfg = HarrisConfig()
    got = harris_score_map(img, cfg)

    ix, iy = gradients(correlate2d_replicate(img, gaussian_kernel_2d(GRADIENT_SIGMA)))
    w2d = gaussian_kernel_2d(cfg.window_sigma)
    sxx = correlate2d_replicate(ix * ix, w2d)
    syy = correlate2d_replicate(iy * iy, w2d)
    sxy = correlate2d_replicate(ix * iy, w2d)
    oracle = np.zeros_like(img)
    for y in range(16):
        for x in range(16):
            a = np.array([[sxx[y, x], sxy[y, x]], [sxy[y, x], syy[y, x]]])
            l1, l2 = np.linalg.eigvalsh(a)
            oracle[y, x] = l1 * l2 - cfg.k * (l1 + l2) ** 2
    # the map is float32 (the image's largest pixel, 0.9, needs no scale):
    # within 64 units of float32's 2**-24 unit roundoff
    assert got.dtype == np.float32
    assert np.max(np.abs(got - oracle)) < 2.0 ** -18 * max(1.0, np.max(np.abs(oracle)))


def test_square_corners_found_near_truth():
    img = _square_image()
    cfg = HarrisConfig(nms_window=5)
    corners = detect_corners(harris_score_map(img, cfg), cfg)[:4]
    assert len(corners) == 4
    truth = [(5, 5), (5, 10), (10, 5), (10, 10)]
    for c in corners:
        assert min(max(abs(c.x - tx), abs(c.y - ty)) for tx, ty in truth) <= 2
    scores = [c.score for c in corners]
    assert scores == sorted(scores, reverse=True)


def test_detect_all_zero_map_empty():
    assert detect_corners(np.zeros((10, 10))) == []


def test_detect_single_positive_pixel():
    s = np.zeros((10, 10))
    s[4, 7] = 1.0
    corners = detect_corners(s)
    assert corners == [Corner(7, 4, 1.0)]


def _brute_force_nms(score, cfg):
    """Independent O(N * w^2) scan with the same strict-max + tie rule."""
    h, w = score.shape
    smax = score.max()
    if smax <= 0:
        return []
    r = cfg.nms_window // 2
    out = []
    for y in range(h):
        for x in range(w):
            v = score[y, x]
            if v <= 0 or v < cfg.min_score * smax:
                continue
            ok = True
            for ny in range(max(0, y - r), min(h, y + r + 1)):
                for nx in range(max(0, x - r), min(w, x + r + 1)):
                    if (ny, nx) == (y, x):
                        continue
                    nv = score[ny, nx]
                    if nv > v or (nv == v and ny * w + nx < y * w + x):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(Corner(x, y, float(v)))
    out.sort(key=lambda c: (-c.score, c.y, c.x))
    return out[:cfg.max_corners]


def test_detect_matches_brute_force_with_ties():
    rng = np.random.default_rng(10)
    cfg = HarrisConfig(nms_window=5, max_corners=50, min_score=0.05)
    # small integer scores force plenty of exact ties
    score = rng.integers(0, 6, size=(24, 24)).astype(np.float64)
    got = detect_corners(score, cfg)
    assert got == _brute_force_nms(score, cfg)


def test_detect_matches_brute_force_on_smooth_map():
    rng = np.random.default_rng(11)
    cfg = HarrisConfig(nms_window=7, max_corners=20)
    score = rng.random((32, 32))
    assert detect_corners(score, cfg) == _brute_force_nms(score, cfg)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.integers(2, 4),
       st.sampled_from([3, 5, 7, 9]), st.sampled_from([0.0001, 0.3, 0.7]),
       st.sampled_from([4, 12, 600]), st.integers(1, 9),
       st.integers(0, 2 ** 32 - 1))
def test_detect_matches_brute_force_on_quantised_maps(h, w, n_levels, window,
                                                      min_score, max_corners,
                                                      band_rows, seed):
    # few levels make ties dense; shapes below the window exercise borders;
    # bands of a few rows put window-wide plateaus across band edges
    rng = np.random.default_rng(seed)
    levels = rng.choice([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0], n_levels, replace=False)
    score = rng.choice(levels, size=(h, w))
    cfg = HarrisConfig(nms_window=window, min_score=min_score,
                       max_corners=max_corners)
    with row_bands(band_rows):
        got = detect_corners(score, cfg)
    assert got == _brute_force_nms(score, cfg)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 40), st.integers(3, 40), st.sampled_from([0.5, 1.0, 1.5, 2.5]),
       st.sampled_from([0.04, 0.15]), st.integers(1, 9),
       st.integers(0, 2 ** 32 - 1))
def test_harris_equals_oracle_in_row_bands(h, w, sigma, k, band_rows, seed):
    img = np.random.default_rng(seed).random((h, w))
    cfg = HarrisConfig(k=k, window_sigma=sigma)
    with row_bands(band_rows):
        got = harris_score_map(img, cfg)
    assert got.tobytes() == harris_oracle(img, cfg).tobytes()


@pytest.mark.parametrize("size", range(3, 16, 2))
@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (1, 9), (9, 1),
                                   (1, 40), (40, 1), (3, 5), (33, 47)])
def test_window_max_equals_maximum_filter(size, shape):
    rng = np.random.default_rng(size * 100 + shape[0] * 7 + shape[1])
    a = rng.integers(-3, 4, size=shape) * rng.choice([0.5, 1e-300, 1e300], size=shape)
    expected = ndimage.maximum_filter(a, size=size, mode="constant", cval=-np.inf)
    padded = np.pad(a, size // 2, constant_values=-np.inf)
    assert np.array_equal(_window_max(padded, size), expected)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 20), st.integers(1, 20), st.sampled_from(range(3, 16, 2)),
       st.integers(0, 2**32 - 1))
def test_window_max_equals_maximum_filter_on_drawn_maps(h, w, size, seed):
    rng = np.random.default_rng(seed)
    a = rng.choice([-np.inf, -1.0, -0.0, 0.0, 5e-324, 0.25, 0.5, 7.0], size=(h, w))
    expected = ndimage.maximum_filter(a, size=size, mode="constant", cval=-np.inf)
    padded = np.pad(a, size // 2, constant_values=-np.inf)
    assert np.array_equal(_window_max(padded, size), expected)


def test_emitted_corners_are_window_separated():
    rng = np.random.default_rng(12)
    cfg = HarrisConfig(nms_window=7)
    score = rng.random((48, 48))
    corners = detect_corners(score, cfg)
    min_sep = (cfg.nms_window + 1) // 2
    for i, a in enumerate(corners):
        for b in corners[i + 1:]:
            assert max(abs(a.x - b.x), abs(a.y - b.y)) >= min_sep


def test_corner_positions_invariant_to_intensity_scaling():
    rng = np.random.default_rng(13)
    img = rng.integers(0, 1025, size=(40, 40)).astype(np.float64) / 1024
    cfg = HarrisConfig()
    base = detect_corners(harris_score_map(img, cfg), cfg)
    scaled = detect_corners(harris_score_map(2.0 * img + 0.25, cfg), cfg)
    assert [(c.x, c.y) for c in base] == [(c.x, c.y) for c in scaled]


@pytest.mark.parametrize("gain", [2.0 ** -900, 0.25, 4.0, 2.0 ** 1000])
def test_score_is_invariant_to_power_of_two_gains(gain):
    # the map is that of the image scaled so its largest |pixel| lies in
    # (0.5, 1], so any power-of-two gain gives the same map, bit for bit
    img = np.random.default_rng(13).random((40, 40))
    cfg = HarrisConfig()
    assert (harris_score_map(gain * img, cfg).tobytes()
            == harris_score_map(img, cfg).tobytes())


def test_detect_reads_a_float32_map_as_its_float64_copy():
    img = np.random.default_rng(15).random((60, 70))
    cfg = HarrisConfig(nms_window=3, min_score=0.001)
    m32 = harris_score_map(img, cfg)
    assert m32.dtype == np.float32
    corners = detect_corners(m32, cfg)
    assert len(corners) > 20
    assert corners == detect_corners(m32.astype(np.float64), cfg)


def test_max_corners_cap():
    rng = np.random.default_rng(14)
    cfg = HarrisConfig(nms_window=3, max_corners=5, min_score=0.0001)
    corners = detect_corners(rng.random((40, 40)), cfg)
    assert len(corners) == 5


def test_score_rejects_tiny_images():
    with pytest.raises(ValueError):
        harris_score_map(np.zeros((2, 8)))


def test_score_rejects_non_finite_pixels():
    img = np.random.default_rng(15).random((32, 32))
    img[7, 9] = np.nan
    with pytest.raises(ValueError, match="1 non-finite"):
        harris_score_map(img)


@pytest.mark.parametrize("scale", [1e80, 1e300])
def test_score_of_large_finite_input_is_finite(scale):
    # in float64, 1e80 overflowed the structure tensor's products and 1e300
    # the gradients; scaled into (0.5, 1] first, the map is finite and finds
    # the corners of the unscaled image
    img = np.random.default_rng(15).random((32, 32))
    score = harris_score_map(img * scale)
    assert np.isfinite(score).all()
    assert ([(c.x, c.y) for c in detect_corners(score)]
            == [(c.x, c.y) for c in detect_corners(harris_score_map(img))])


def test_detect_rejects_non_finite_scores():
    score = np.random.default_rng(16).random((32, 32))
    score[3, 30] = np.nan
    with pytest.raises(ValueError, match="score image has 1 non-finite"):
        detect_corners(score)
