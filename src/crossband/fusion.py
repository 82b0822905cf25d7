"""High-pass/low-pass fusion of an aligned visible/infrared pair.

At each of three Gaussian scales the images split into a low-pass band,
blended linearly, and a high-pass residual, merged by picking the channel
with the larger absolute value per pixel. The per-scale results recombine
with a sharpness gain and average into the fused gray image; color is then
restored by scaling the visible RGB so chromatic ratios survive the
luminance replacement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .image import (MAX_SIGMA, _banded, _blur_rows, as_color, as_gray,
                    gaussian_blur, gaussian_kernel, require_finite, to_luminance)


@dataclass(frozen=True)
class FusionConfig:
    alpha: float = field(default=0.5, metadata={
        "key": "fusion.alpha", "help": "low-pass blend weight of the visible band"})
    gain: float = field(default=1.5, metadata={
        "key": "fusion.gain", "help": "high-pass sharpness gain"})
    sigmas: tuple[float, float, float] = field(default=(1.0, 2.0, 4.0), metadata={
        "key": "fusion.sigmas", "help": "three increasing fusion scales",
        "max": MAX_SIGMA})
    color_eps: float = field(default=1.0 / 255.0, metadata={
        "key": "fusion.color_eps", "help": "luminance guard for color restore"})

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.gain < np.inf:
            raise ValueError(f"gain must be in [0, inf), got {self.gain}")
        sig = tuple(float(s) for s in self.sigmas)
        if len(sig) != 3 or not (0.0 < sig[0] < sig[1] < sig[2]):
            raise ValueError(
                f"sigmas must be three strictly increasing positives, got {self.sigmas}")
        object.__setattr__(self, "sigmas", sig)
        if not 0.0 < self.color_eps < np.inf:
            raise ValueError(f"color_eps must be in (0, inf), got {self.color_eps}")


def split_frequencies(img, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """Low-pass (Gaussian blur) and signed high-pass residual lp, img - lp.

    Both arrays are ``np.longdouble``. lp holds exactly the float64
    ``gaussian_blur`` values; hp = img - lp is computed in the wider type,
    so lp + hp reproduces img bit for bit wherever the subtraction is exact.
    With the 64-bit significand of x87 extended precision it is exact when
    img and lp have the same sign and lie within a factor 2**11 of each
    other (2**10 when the signs differ), or when either is zero; IEEE quad
    allows about 2**60. Outside that range it rounds: img =
    2**-16 * (1 + 2**-52) against lp ~ 0.5 needs 67 bits. Where
    ``np.longdouble`` is float64 (MSVC, macOS arm64) hp is the ordinary
    rounded subtraction, which the README shows cannot be exact.
    """
    arr = as_gray(img)
    lp = gaussian_blur(arr, sigma).astype(np.longdouble)
    return lp, arr - lp


def fuse_single_scale(visible_luma, infrared, sigma: float,
                      alpha: float, gain: float) -> np.ndarray:
    """One-scale fusion: alpha-blend the low bands, keep the stronger
    high band per pixel (ties take the visible channel), recombine with
    gain on the high band. Signed, unclamped float64 output.

    The bands split in float64 (blur, then the rounded residual), not
    through the extended-precision ``split_frequencies``: the output stays
    float64, and a longdouble cast and subtract costs about ten times the
    float64 subtract.
    """
    yv, ir = _same_shape(visible_luma, infrared)
    k = gaussian_kernel(sigma)
    out = np.empty(yv.shape)

    def band(y0, y1):
        out[y0:y1] = _scale_rows(yv, ir, k, slice(y0, y1), alpha, gain)

    _banded(band, yv.shape[0])
    return out


def _same_shape(visible_luma, infrared) -> tuple[np.ndarray, np.ndarray]:
    """Both bands as gray images, or ValueError if their shapes differ."""
    yv = as_gray(visible_luma)
    ir = as_gray(infrared)
    if yv.shape != ir.shape:
        raise ValueError(f"image dimensions differ: {yv.shape} vs {ir.shape}")
    return yv, ir


def _scale_rows(yv: np.ndarray, ir: np.ndarray, k: np.ndarray, rows: slice,
                alpha: float, gain: float) -> np.ndarray:
    """fuse_single_scale(yv, ir, sigma, alpha, gain)[rows], computed on
    those rows alone; k is gaussian_kernel(sigma).

    lp = alpha lp_v + (1 - alpha) lp_i and lp + gain hp are formed in
    place, operands swapped where that leaves the bits alone.
    """
    lp_v = _blur_rows(yv, k, rows)
    lp_i = _blur_rows(ir, k, rows)
    hp_v = yv[rows] - lp_v
    hp_i = ir[rows] - lp_i
    lp_v *= alpha
    lp_i *= 1.0 - alpha
    lp_v += lp_i
    # the stronger high band per pixel, ties to the visible one
    visible = np.abs(hp_v, out=lp_i) >= np.abs(hp_i)
    _select(visible, hp_v, hp_i)
    hp_i *= gain
    lp_v += hp_i
    return lp_v


def _select(mask: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """b[...] = np.where(mask, a, b), bit for bit; a is overwritten.

    A bitwise blend of the float64 bit patterns, b ^ ((a ^ b) & -mask).
    np.where branches per element, which costs about 5 ns a pixel when the
    choice is as unpredictable as the stronger high band is; this takes
    about 1.5 ns (64x640 bands, x86-64).
    """
    ai, bi = a.view(np.int64), b.view(np.int64)
    np.bitwise_xor(ai, bi, out=ai)
    ai &= np.negative(mask.view(np.int8), dtype=np.int64)
    bi ^= ai


def fuse_scales(visible_luma, infrared, cfg: FusionConfig | None = None
                ) -> list[np.ndarray]:
    """The three per-scale fusions (signed, unclamped), for inspection."""
    if cfg is None:
        cfg = FusionConfig()
    yv, ir = _same_shape(visible_luma, infrared)
    return [fuse_single_scale(yv, ir, sigma, cfg.alpha, cfg.gain)
            for sigma in cfg.sigmas]


def fuse_hplp(visible_luma, infrared, cfg: FusionConfig | None = None) -> np.ndarray:
    """Equal-weight average of the three per-scale fusions, clamped to [0, 1]."""
    if cfg is None:
        cfg = FusionConfig()
    yv, ir = _same_shape(visible_luma, infrared)
    return _fuse(yv, ir, cfg)[0]


def _fuse(yv: np.ndarray, ir: np.ndarray, cfg: FusionConfig, visible=None
          ) -> tuple[np.ndarray, np.ndarray | None]:
    """(fuse_hplp(yv, ir, cfg), colour), computed one band of rows at a
    time. colour is restore_color of the fused gray onto `visible`, the RGB
    image whose luminance is yv, or None without it."""
    kernels = [gaussian_kernel(sigma) for sigma in cfg.sigmas]
    fused = np.empty(yv.shape)
    color = None if visible is None else np.empty(visible.shape)

    def band(y0, y1):
        rows = slice(y0, y1)
        s0, s1, s2 = (_scale_rows(yv, ir, k, rows, cfg.alpha, cfg.gain)
                      for k in kernels)
        # (s0 + s1 + s2) / 3.0, clamped to [0, 1]
        s0 += s1
        s0 += s2
        s0 /= 3.0
        f = np.clip(s0, 0.0, 1.0, out=fused[rows])
        if color is not None:
            _color_rows(f, visible[rows], yv[rows], cfg.color_eps, color[rows])

    _banded(band, yv.shape[0])
    return fused, color


def restore_color(fused, visible, color_eps: float = 1.0 / 255.0) -> np.ndarray:
    """Scale the visible RGB so its luminance is replaced by the fused gray.

    Each channel is multiplied by fused / max(Y, eps) and clamped to [0, 1];
    the eps guard keeps near-black pixels finite.
    """
    f = as_gray(fused)
    v = as_color(visible)
    if f.shape != v.shape[:2]:
        raise ValueError(f"image dimensions differ: {f.shape} vs {v.shape[:2]}")
    return _color_rows(f, v, to_luminance(v), color_eps, np.empty(v.shape))


def _color_rows(fused: np.ndarray, visible: np.ndarray, luma: np.ndarray,
                color_eps: float, out: np.ndarray) -> np.ndarray:
    """restore_color into `out`, given the visible image's luminance."""
    ratio = np.maximum(luma, color_eps)
    np.divide(fused, ratio, out=ratio)
    np.multiply(visible, ratio[:, :, None], out=out)
    return np.clip(out, 0.0, 1.0, out=out)


def fuse_pair(visible, infrared, cfg: FusionConfig | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Full fusion of a registered pair: returns (fused gray, fused color)."""
    if cfg is None:
        cfg = FusionConfig()
    v = require_finite(as_color(visible), "visible")
    ir = require_finite(as_gray(infrared), "infrared")
    # one luminance for the blend and the colour: a per-band `@` is not
    # known to give the same bits
    yv, ir = _same_shape(to_luminance(v), ir)
    return _fuse(yv, ir, cfg, v)
