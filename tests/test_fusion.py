import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from crossband.fusion import (FusionConfig, fuse_hplp, fuse_pair, fuse_scales,
                              fuse_single_scale, restore_color, split_frequencies)
from crossband.image import gaussian_blur, replicate3, to_luminance
from crossband.evaluation import synthetic_texture

from helpers import (checkerboard, fuse_pair_oracle, fuse_single_scale_oracle,
                     gaussian_kernel_2d, row_bands)


def test_config_validation():
    with pytest.raises(ValueError):
        FusionConfig(alpha=1.5)
    with pytest.raises(ValueError):
        FusionConfig(gain=-0.1)
    with pytest.raises(ValueError):
        FusionConfig(sigmas=(2.0, 1.0, 4.0))
    with pytest.raises(ValueError):
        FusionConfig(sigmas=(1.0, 2.0))
    with pytest.raises(ValueError):
        FusionConfig(color_eps=0.0)


def test_split_constant():
    lp, hp = split_frequencies(np.full((12, 12), 0.3), 2.0)
    assert np.allclose(lp, 0.3, atol=1e-12)
    assert np.allclose(hp, 0.0, atol=1e-12)


def test_split_high_pass_is_exact_residual():
    rng = np.random.default_rng(0)
    img = rng.random((20, 20))
    lp, hp = split_frequencies(img, 1.5)
    assert np.array_equal(hp, img - lp)
    assert np.array_equal(lp, gaussian_blur(img, 1.5))


def test_split_gives_the_same_bytes_on_every_call():
    # a longdouble holds padding bytes on x86-64 (6 of 16); they must not
    # keep whatever bytes freed memory leaves behind
    img = synthetic_texture(40, 32, seed=1)
    first = [a.tobytes() for a in split_frequencies(img, 2.0)]
    nbytes = img.size * np.dtype(np.longdouble).itemsize
    junk = [np.full(nbytes, 0xFF, np.uint8) for _ in range(4)]
    del junk
    second = [a.tobytes() for a in split_frequencies(img, 2.0)]
    assert first == second


def test_split_impulse_matches_kernel_oracle():
    img = np.zeros((21, 21))
    img[10, 10] = 1.0
    lp, hp = split_frequencies(img, 1.0)
    k2d = gaussian_kernel_2d(1.0)
    r = k2d.shape[0] // 2
    expected = img.copy()
    expected[10 - r:10 + r + 1, 10 - r:10 + r + 1] -= k2d
    assert np.allclose(hp, expected, atol=1e-14)


def test_single_scale_identity_when_inputs_equal():
    rng = np.random.default_rng(1)
    img = 0.05 + 0.9 * rng.random((24, 24))
    out = fuse_single_scale(img, img, 2.0, alpha=0.5, gain=1.0)
    assert np.max(np.abs(out - img)) < 1e-15


def test_single_scale_constants_alpha_blend():
    yv = np.full((16, 16), 0.2)
    ir = np.full((16, 16), 0.8)
    out = fuse_single_scale(yv, ir, 1.0, alpha=0.5, gain=1.5)
    assert np.allclose(out, 0.5, atol=1e-12)


def test_single_scale_impulse_response_oracle():
    yv = np.full((21, 21), 0.5)
    ir = np.full((21, 21), 0.5)
    ir[10, 10] += 0.3
    sigma, gain = 1.0, 2.0
    out = fuse_single_scale(yv, ir, sigma, alpha=0.5, gain=gain)
    # oracle from kernel arithmetic: lp mix + gain * hp_ir at the impulse
    k0 = gaussian_kernel_2d(sigma)[3, 3]  # center weight, radius 3
    lp_ir_center = 0.5 + 0.3 * k0
    hp_ir_center = 0.3 * (1.0 - k0)
    expected = 0.5 * 0.5 + 0.5 * lp_ir_center + gain * hp_ir_center
    assert out[10, 10] == pytest.approx(expected, abs=1e-12)


def test_single_scale_selector_takes_larger_magnitude():
    rng = np.random.default_rng(2)
    yv = gaussian_blur(rng.random((32, 32)), 1.0)
    ir = gaussian_blur(rng.random((32, 32)), 1.0)
    sigma = 2.0
    out = fuse_single_scale(yv, ir, sigma, alpha=0.3, gain=1.0)
    lv, hv = split_frequencies(yv, sigma)
    li, hi = split_frequencies(ir, sigma)
    hp_contrib = out - (0.3 * lv + 0.7 * li)
    expected = np.where(np.abs(hv) >= np.abs(hi), hv, hi)
    assert np.allclose(hp_contrib, expected, atol=1e-12)
    assert np.allclose(np.abs(expected), np.maximum(np.abs(hv), np.abs(hi)),
                       atol=1e-15)


def test_single_scale_dimension_mismatch():
    with pytest.raises(ValueError):
        fuse_single_scale(np.zeros((8, 8)), np.zeros((8, 9)), 1.0, 0.5, 1.0)


def test_hplp_identity_within_tolerance():
    rng = np.random.default_rng(3)
    img = 0.05 + 0.9 * rng.random((32, 32))
    out = fuse_hplp(img, img, FusionConfig(gain=1.0))
    assert np.max(np.abs(out - img)) < 1e-6


def test_hplp_constants():
    yv = np.full((32, 32), 0.2)
    ir = np.full((32, 32), 0.8)
    out = fuse_hplp(yv, ir, FusionConfig(alpha=0.5))
    assert np.allclose(out, 0.5, atol=1e-9)


def test_hplp_blob_beats_alpha_blend():
    yv = np.full((48, 48), 0.4)
    ir = np.full((48, 48), 0.4)
    ir[20:28, 20:28] = 0.9  # bright blob only in the second band
    cfg = FusionConfig(alpha=0.5, gain=1.5)
    fused = fuse_hplp(yv, ir, cfg)
    alpha_only = 0.5 * yv + 0.5 * ir
    blob_contrast = fused[24, 24] - fused[4, 4]
    alpha_contrast = alpha_only[24, 24] - alpha_only[4, 4]
    assert blob_contrast >= alpha_contrast


def test_hplp_clamps_to_unit_range():
    rng = np.random.default_rng(4)
    yv = rng.random((24, 24))
    ir = rng.random((24, 24))
    out = fuse_hplp(yv, ir, FusionConfig(gain=8.0))
    assert out.min() >= 0.0 and out.max() <= 1.0


def test_flat_region_alpha_blend_property():
    cfg = FusionConfig()
    yv = np.full((64, 64), 0.25)
    ir = np.full((64, 64), 0.75)
    yv[:16, :] = 0.9  # structure far from the flat center
    ir[:16, :] = 0.1
    out = fuse_hplp(yv, ir, cfg)
    # center is constant over radius > 3 * sigma3; high bands vanish there
    expected = cfg.alpha * 0.25 + (1 - cfg.alpha) * 0.75
    assert np.max(np.abs(out[40:56, 24:40] - expected)) < 1e-4


def test_alpha_monotonicity_on_constants():
    yv = np.full((16, 16), 0.7)
    ir = np.full((16, 16), 0.3)
    outs = [fuse_hplp(yv, ir, FusionConfig(alpha=a))[8, 8]
            for a in (0.0, 0.5, 1.0)]
    assert outs[0] == pytest.approx(0.3, abs=1e-9)
    assert outs[1] == pytest.approx(0.5, abs=1e-9)
    assert outs[2] == pytest.approx(0.7, abs=1e-9)
    # affine in alpha: midpoint equals the average of the endpoints
    assert outs[1] == pytest.approx((outs[0] + outs[2]) / 2, abs=1e-9)


def test_restore_color_ratio_one_is_exact():
    rng = np.random.default_rng(5)
    v = 0.1 + 0.8 * rng.random((16, 16, 3))
    f = to_luminance(v)
    out = restore_color(f, v)
    assert np.array_equal(out, v)


def test_restore_color_gray_input_takes_fused_value():
    rng = np.random.default_rng(6)
    g = 0.1 + 0.8 * rng.random((12, 12))
    v = replicate3(g)
    f = 0.1 + 0.8 * rng.random((12, 12))
    out = restore_color(f, v)
    for c in range(3):
        assert np.allclose(out[:, :, c], np.clip(f * g / np.maximum(g, 1 / 255), 0, 1),
                           atol=1e-12)


def test_restore_color_pixel_oracle_with_clamp():
    v = np.array([[[0.6, 0.3, 0.3]]])
    y = 0.299 * 0.6 + 0.587 * 0.3 + 0.114 * 0.3  # 0.3897
    f = np.array([[2.0 * y]])                     # 0.7794, ratio exactly 2
    out = restore_color(f, v)
    assert out[0, 0, 0] == 1.0                    # clamped from 1.2
    assert out[0, 0, 1] == pytest.approx(0.6, abs=1e-12)
    assert out[0, 0, 2] == pytest.approx(0.6, abs=1e-12)


def test_restore_color_preserves_hue_ratios():
    rng = np.random.default_rng(7)
    v = 0.05 + 0.9 * rng.random((20, 20, 3))
    f = 0.2 + 0.6 * rng.random((20, 20))
    eps = 1 / 255
    out = restore_color(f, v, eps)
    unclamped = np.all(out < 1.0, axis=2) & np.all(v >= eps, axis=2)
    ratios = out[unclamped] / v[unclamped]
    spread = ratios.max(axis=1) - ratios.min(axis=1)
    assert np.max(spread) < 1e-6


def test_restore_color_eps_guards_dark_pixels():
    v = np.zeros((4, 4, 3))
    f = np.full((4, 4), 0.5)
    out = restore_color(f, v)
    assert np.all(np.isfinite(out))
    assert np.all(out == 0.0)  # zero channels scale to zero


def test_fuse_pair_self_fusion_close_to_input():
    rng = np.random.default_rng(8)
    v = np.stack([synthetic_texture(64, seed=s) for s in (30, 31, 32)], axis=2)
    f, fc = fuse_pair(v, to_luminance(v), FusionConfig(gain=1.0))
    assert np.max(np.abs(f - to_luminance(v))) < 2e-2
    assert np.max(np.abs(fc - v)) < 2e-2


def test_fuse_pair_gray_replication():
    g = synthetic_texture(64, seed=33)
    f, fc = fuse_pair(replicate3(g), g, FusionConfig(gain=1.0))
    assert np.max(np.abs(f - g)) < 2e-2


def test_fuse_pair_checkerboard_keeps_contrast():
    board = checkerboard(64, 8, 0.2, 0.8)
    v = replicate3(board)
    flat = np.full((64, 64), 0.5)
    cfg = FusionConfig(alpha=0.5, gain=1.5)
    f, _ = fuse_pair(v, flat, cfg)
    in_contrast = board.max() - board.min()
    out_contrast = f[8:-8, 8:-8].max() - f[8:-8, 8:-8].min()
    assert out_contrast >= cfg.alpha * in_contrast


def test_fuse_pair_dimension_mismatch():
    with pytest.raises(ValueError):
        fuse_hplp(np.zeros((8, 8)), np.zeros((10, 10)))


def _fuse_one_scale(visible_luma, infrared):
    return fuse_single_scale(visible_luma, infrared, 2.0, 0.5, 1.5)


@pytest.mark.parametrize("band", ["visible", "infrared"])
def test_fuse_pair_rejects_non_finite_pixels(band):
    # fuse_hplp, fuse_scales and fuse_single_scale take the visible
    # luminance, fuse_pair RGB
    g = synthetic_texture(64, seed=9)
    for fuse, visible in ((fuse_pair, replicate3(g)), (fuse_hplp, g),
                          (fuse_scales, g), (_fuse_one_scale, g)):
        for bad in (np.nan, np.inf):
            images = {"visible": visible.copy(), "infrared": g.copy()}
            images[band].flat[500] = bad
            with pytest.raises(ValueError, match=f"{band} image has 1 non-finite"):
                fuse(images["visible"], images["infrared"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_split_frequencies_rejects_non_finite_pixels(bad):
    img = synthetic_texture(32, seed=9)
    img.flat[500] = bad
    with pytest.raises(ValueError, match="input image has 1 non-finite"):
        split_frequencies(img, 2.0)


# --- row bands -----------------------------------------------------------------

@st.composite
def _fusion_inputs(draw):
    """A visible RGB image and an infrared band of the same shape, 1-40 px a
    side. "negated" makes every |hp_v| == |hp_i| a tie of opposite signs;
    "quantised" draws 3-level plateaus of 1-8 px cells, inside which both
    high bands can be exactly zero, a tie of equal signs."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "equal", "negated", "quantised"]))
    if kind == "quantised":
        cell = draw(st.integers(1, 8))
        levels = np.array([0.25, 0.5, 0.75])

        def plateaus(*depth):
            grid = levels[rng.integers(0, 3, size=(-(-h // cell), -(-w // cell)) + depth)]
            return grid.repeat(cell, axis=0).repeat(cell, axis=1)[:h, :w]
        rgb, ir = plateaus(3), plateaus()
    else:
        rgb = rng.random((h, w, 3))
        ir = {"random": rng.random((h, w)), "equal": to_luminance(rgb),
              "negated": -to_luminance(rgb)}[kind]
    return rgb, ir


_SIGMAS = st.lists(st.sampled_from([0.3, 0.7, 1.0, 1.6, 2.0, 3.1, 4.0]),
                   min_size=3, max_size=3, unique=True).map(sorted)


@settings(max_examples=150, deadline=None)
@given(_fusion_inputs(), st.sampled_from([0.3, 1.0, 2.0, 4.0]),
       st.floats(0.0, 1.0), st.floats(0.0, 8.0), st.integers(1, 9))
def test_fuse_single_scale_equals_oracle_in_row_bands(pair, sigma, alpha, gain,
                                                      band_rows):
    rgb, ir = pair
    yv = to_luminance(rgb)
    with row_bands(band_rows):
        got = fuse_single_scale(yv, ir, sigma, alpha, gain)
    want = fuse_single_scale_oracle(yv, ir, sigma, alpha, gain)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(_fusion_inputs(), _SIGMAS, st.floats(0.0, 1.0), st.floats(0.0, 8.0),
       st.integers(1, 9))
def test_fuse_pair_equals_oracle_in_row_bands(pair, sigmas, alpha, gain, band_rows):
    rgb, ir = pair
    cfg = FusionConfig(alpha=alpha, gain=gain, sigmas=tuple(sigmas))
    with row_bands(band_rows):
        fused, color = fuse_pair(rgb, ir, cfg)
        hplp = fuse_hplp(to_luminance(rgb), ir, cfg)
    want_fused, want_color = fuse_pair_oracle(rgb, ir, cfg)
    assert fused.tobytes() == want_fused.tobytes()
    assert hplp.tobytes() == want_fused.tobytes()
    assert color.tobytes() == want_color.tobytes()


def test_fuse_pair_equals_oracle_at_640x480():
    rng = np.random.default_rng(21)
    rgb = np.stack([synthetic_texture(640, 480, seed=s) for s in (40, 41, 42)], axis=2)
    ir = np.clip(1.0 - rgb[:, :, 1] + rng.normal(0.0, 0.02, (480, 640)), 0.0, 1.0)
    fused, color = fuse_pair(rgb, ir)
    want_fused, want_color = fuse_pair_oracle(rgb, ir)
    assert fused.tobytes() == want_fused.tobytes()
    assert color.tobytes() == want_color.tobytes()


def test_fuse_pair_memory_is_outputs_plus_a_few_bands():
    rng = np.random.default_rng(22)
    rgb, ir = rng.random((480, 640, 3)), rng.random((480, 640))
    band = 64 * 640 * 8
    with row_bands(64):
        fuse_pair(rgb, ir)
        tracemalloc.start()
        try:
            fused, color = fuse_pair(rgb, ir)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    # the outputs, the visible luminance (one gray image) and the bands
    assert peak <= 2 * fused.nbytes + color.nbytes + 10 * band
