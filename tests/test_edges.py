import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import ndimage

from crossband.edges import (DIRECTION_BINS, CannyConfig, EdgeMap, _SECTOR_STEPS,
                             _angle_bins, _canny, _suppress, canny)
from crossband.evaluation import synthetic_texture
from crossband.image import GRADIENT_SIGMA, _magnitudes, gaussian_blur, gradients

from helpers import blur_f32_oracle, canny_oracle, row_bands


def test_quantize_examples():
    assert _angle_bins(np.arctan2(0.0, 1.0)) == 0
    assert _angle_bins(np.arctan2(1.0, 0.0)) == 4
    # atan2(-1, -1) = -3pi/4 -> 5pi/4 -> bin 10
    assert _angle_bins(np.arctan2(-1.0, -1.0)) == 10


def test_quantize_zero_gradient_is_bin_zero():
    assert _angle_bins(np.arctan2(0.0, 0.0)) == 0


def test_quantize_array_form():
    ix = np.array([1.0, 0.0, -1.0])
    iy = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(_angle_bins(np.arctan2(iy, ix)), [0, 4, 8])


def test_quantize_rot90_property():
    rng = np.random.default_rng(0)
    ix = rng.normal(size=200)
    iy = rng.normal(size=200)
    q = _angle_bins(np.arctan2(iy, ix))
    # rotating the gradient by 90 degrees maps (ix, iy) -> (-iy, ix)
    q_rot = _angle_bins(np.arctan2(ix, -iy))
    assert np.array_equal(q_rot, (q + 4) % 16)


def test_quantize_bins_in_range():
    rng = np.random.default_rng(1)
    q = _angle_bins(np.arctan2(rng.normal(size=500), rng.normal(size=500)))
    assert DIRECTION_BINS == 16
    assert q.min() >= 0 and q.max() < 16


def test_angle_bins_equal_the_mod_form():
    # in the angles' own dtype: Canny's are float32
    for dtype in (np.float64, np.float32):
        step = 2.0 * np.pi / 16
        edge = np.arange(16 + 1, dtype=dtype) * step
        # every bin edge and one ulp either side, as atan2 angles and as
        # angle + 2*pi, the value that is divided
        near = [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
        angle = np.concatenate([*near, *(v - 2.0 * np.pi for v in near),
                                np.array([np.pi, -np.pi, 0.0, -0.0], dtype)])
        angle = angle[np.abs(angle) <= np.pi]
        expected = (np.floor(np.mod(angle + 2.0 * np.pi, 2.0 * np.pi) / step)
                    .astype(np.int64) % 16)
        assert angle.dtype == dtype
        assert np.array_equal(_angle_bins(angle), expected)


def _bin_sector(b):
    return (b + 1) // 2 % 4


def _neighbours_except(step, centre, plus, minus):
    """3x3 magnitudes in a ring of zeros: `centre` in the middle, `plus` at
    +step and `minus` at -step from it, 3 at the other neighbours."""
    dy, dx = step
    mag = np.full((3, 3), 3.0)
    mag[1, 1], mag[1 + dy, 1 + dx], mag[1 - dy, 1 - dx] = centre, plus, minus
    return np.pad(mag, 1)


def test_suppress_steps_along_each_bins_sector():
    for b in range(16):
        step = _SECTOR_STEPS[_bin_sector(b)]
        bins = np.full((3, 3), b, np.uint8)
        # kept only against its own sector's neighbours: >= at +step ...
        kept = _suppress(_neighbours_except(step, 2.0, 2.0, 1.0), 1, bins)
        assert kept[1, 1], b
        # ... and > at -step
        tied = _suppress(_neighbours_except(step, 2.0, 1.0, 2.0), 1, bins)
        assert not tied[1, 1], b


def _sector_edge_gradients():
    """At most one gradient (ix, iy) per odd multiple k*pi/8, with iy within
    200 ulps of 2*sin(k*pi/8), whose bin's sector differs from the sector
    that rounding the angle mod pi to a multiple of pi/4 gives."""
    found = []
    for k in range(-7, 8, 2):
        ix, iy = 2.0 * np.cos(k * np.pi / 8), 2.0 * np.sin(k * np.pi / 8)
        ys = iy + np.arange(-200, 201) * np.spacing(iy)
        angle = np.arctan2(ys, ix)
        axis = angle + np.pi * (angle < 0.0)
        rounded = np.floor((axis + np.pi / 8) / (np.pi / 4)).astype(int) % 4
        differ = np.flatnonzero(rounded != _bin_sector(_angle_bins(angle)))
        found += [(ix, ys[j]) for j in differ[:1]]
    return found


def test_canny_suppresses_along_the_sector_of_the_bin():
    cases = _sector_edge_gradients()
    assert cases  # the two rules disagree somewhere near the sector edges
    for gx, gy in cases:
        b = int(_angle_bins(np.arctan2(gy, gx)))
        dy, dx = _SECTOR_STEPS[_bin_sector(b)]
        # magnitude 3 all round, 1 at the two neighbours along the bin's
        # sector, and about 2 in the middle
        ix, iy = np.full((5, 5), 3.0), np.zeros((5, 5))
        ix[2 + dy, 2 + dx] = ix[2 - dy, 2 - dx] = 1.0
        ix[2, 2], iy[2, 2] = gx, gy
        out = _canny(lambda rows: (ix[rows], iy[rows]), (5, 5), CannyConfig())
        assert out.directions[2, 2] == b
        assert out.edges[2, 2] == 1, (gx, gy)


def test_config_validation():
    with pytest.raises(ValueError):
        CannyConfig(low_ratio=0.3, high_ratio=0.2)
    with pytest.raises(ValueError):
        CannyConfig(low_ratio=0.0)


def test_edge_map_shape_mismatch():
    with pytest.raises(ValueError):
        EdgeMap(np.zeros((4, 4), np.uint8), np.zeros((4, 5), np.uint8))


def test_canny_constant_no_edges():
    out = canny(np.full((16, 16), 0.5))
    assert np.all(out.edges == 0)
    assert out.directions.shape == (16, 16)


def test_canny_rejects_small_image():
    with pytest.raises(ValueError):
        canny(np.zeros((4, 10)))


def test_canny_rejects_non_finite_pixels():
    img = np.random.default_rng(5).random((32, 32))
    img[20, 4] = np.nan
    with pytest.raises(ValueError, match="1 non-finite"):
        canny(img)


def test_canny_vertical_step_single_pixel_chain():
    img = np.full((32, 32), 0.1)
    img[:, 16:] = 0.9  # contrast 0.8 at x = 16
    out = canny(img, CannyConfig())

    # 1D hand-trace of the same row profile, in float32 as canny computes
    # it: the blur, central difference with the smoothing weight 4 of the
    # cross direction, then 1D suppression. The step's two sides tie in
    # exact arithmetic, so the float32 rounding of the blur decides the side
    blurred = blur_f32_oracle(img, GRADIENT_SIGMA)[0]
    deriv = np.zeros_like(blurred)
    deriv[1:-1] = 4.0 * (blurred[2:] - blurred[:-2])
    mag = np.abs(deriv)
    expected_cols = [x for x in range(1, 31)
                     if mag[x] >= mag[x + 1] and mag[x] > mag[x - 1]
                     and mag[x] >= 0.2 * mag.max()]
    assert len(expected_cols) == 1

    interior = out.edges[4:-4, :]
    assert np.all(interior.sum(axis=1) == 1)
    cols = np.flatnonzero(interior[0])
    assert list(cols) == expected_cols
    # the whole chain is a straight vertical line
    assert np.all(interior[:, cols[0]] == 1)


def test_canny_weak_step_suppressed_by_threshold():
    img = np.full((24, 48), 0.1)
    img[:, 16:] += 0.8    # strong step at 16
    img[:, 36:] += 0.05   # weak step at 36
    out = canny(img, CannyConfig(low_ratio=0.1, high_ratio=0.2))
    # weak step magnitude is 0.05/0.8 = 6.25% of max, below the low threshold
    assert np.any(out.edges[:, 14:19] == 1)
    assert np.all(out.edges[:, 33:40] == 0)


def test_canny_polarity_invariance():
    rng = np.random.default_rng(2)
    img = gaussian_blur(rng.random((48, 48)), 1.5)
    a = canny(img)
    b = canny(1.0 - img)
    assert np.array_equal(a.edges, b.edges)
    # directions flip by half a circle wherever the gradient is nonzero
    ix, iy = gradients(gaussian_blur(img, GRADIENT_SIGMA))
    nonzero = np.hypot(ix, iy) > 1e-12
    diff = (b.directions.astype(int) - a.directions.astype(int)) % 16
    assert np.all(diff[nonzero] == 8)


def test_canny_hysteresis_invariant():
    rng = np.random.default_rng(3)
    img = gaussian_blur(rng.random((64, 64)), 1.2)
    cfg = CannyConfig()
    out = canny(img, cfg)
    ix, iy = gradients(gaussian_blur(img, GRADIENT_SIGMA))
    mag = _magnitudes(ix, iy)
    edges = out.edges.astype(bool)
    assert np.all(mag[edges] >= cfg.low_ratio * mag.max() - 1e-12)
    # every edge component carries at least one strong pixel
    labels, n = ndimage.label(edges, structure=np.ones((3, 3), int))
    strong = mag >= cfg.high_ratio * mag.max()
    for lab in range(1, n + 1):
        assert np.any(strong[labels == lab])


def test_canny_memory_is_rasters_plus_a_few_bands():
    img = synthetic_texture(640, 480, seed=5)
    band = 64 * 640 * 8
    with row_bands(64):
        canny(img)
        tracemalloc.start()
        try:
            out = canny(img)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # the two uint8 outputs, the int32 labels and the bands; the kept
    # pixels' indices and magnitudes are a few bands more (9.3 bands in all
    # with numpy 2 on x86-64)
    assert peak <= out.edges.nbytes + out.directions.nbytes + 4 * img.size + 11 * band


def test_canny_directions_defined_everywhere():
    rng = np.random.default_rng(4)
    out = canny(rng.random((32, 32)))
    assert out.directions.shape == (32, 32)
    assert out.directions.max() < 16
    assert set(np.unique(out.edges)) <= {0, 1}


@st.composite
def _canny_cases(draw):
    h, w = draw(st.integers(5, 40)), draw(st.integers(5, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "constant", "plateaus", "ramp",
                                 "levels"]))
    if kind == "random":
        img = rng.random((h, w))
    elif kind == "constant":
        img = np.full((h, w), rng.random())
    elif kind == "plateaus":
        # 2-3 grey levels on blocks: flat runs tie in magnitude and angle
        levels = rng.random(draw(st.integers(2, 3)))
        cell = draw(st.integers(1, 8))
        coarse = rng.integers(0, len(levels), size=(h // cell + 1, w // cell + 1))
        img = levels[np.kron(coarse, np.ones((cell, cell), int))[:h, :w]]
    elif kind == "ramp":
        # a linear ramp: neighbouring magnitudes tie, or nearly
        img = np.add.outer(np.arange(h) * rng.random(), np.arange(w) * rng.random())
    else:
        # pixels quantized to a few levels: magnitudes tie exactly
        img = np.round(rng.random((h, w)) * draw(st.integers(1, 4))) / 4
    # scaled by 1e-300 or 1e300, ix*ix + iy*iy underflows or overflows
    img = img * draw(st.sampled_from([1.0, 1e-300, 1e300]))
    # high_ratio 1.0 puts the high threshold on the maximum
    high = draw(st.sampled_from([0.2, 1.0]))
    return img, CannyConfig(high_ratio=high), draw(st.integers(1, 9))


@settings(max_examples=200, deadline=None)
@given(_canny_cases())
def test_canny_equals_oracle(case):
    img, cfg, band_rows = case
    with row_bands(band_rows):
        out = canny(img, cfg)
    edges, directions = canny_oracle(img, cfg)
    assert out.edges.dtype == np.uint8 and out.directions.dtype == np.uint8
    assert np.array_equal(out.edges, edges)
    assert np.array_equal(out.directions, directions)
