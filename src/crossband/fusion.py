"""High-pass/low-pass fusion of an aligned visible/infrared pair.

At each of three Gaussian scales the images split into a low-pass band,
blended linearly, and a high-pass residual, merged by picking the channel
with the larger absolute value per pixel. The per-scale results recombine
with a sharpness gain and average into the fused gray image; color is then
restored by scaling the visible RGB so chromatic ratios survive the
luminance replacement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .image import (as_color, as_gray, clamp01, gaussian_blur, require_finite,
                    to_luminance)


@dataclass(frozen=True)
class FusionConfig:
    alpha: float = 0.5                      # low-pass blend weight of the visible band
    gain: float = 1.5                       # high-pass emphasis
    sigmas: tuple[float, float, float] = (1.0, 2.0, 4.0)
    color_eps: float = 1.0 / 255.0          # guards division by the luminance

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.gain < 0.0:
            raise ValueError(f"gain must be >= 0, got {self.gain}")
        sig = tuple(float(s) for s in self.sigmas)
        if len(sig) != 3 or not (0.0 < sig[0] < sig[1] < sig[2]):
            raise ValueError(
                f"sigmas must be three strictly increasing positives, got {self.sigmas}")
        object.__setattr__(self, "sigmas", sig)
        if self.color_eps <= 0.0:
            raise ValueError(f"color_eps must be > 0, got {self.color_eps}")


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
    yv = as_gray(visible_luma)
    ir = as_gray(infrared)
    if yv.shape != ir.shape:
        raise ValueError(f"image dimensions differ: {yv.shape} vs {ir.shape}")
    lp_v = gaussian_blur(yv, sigma)
    lp_i = gaussian_blur(ir, sigma)
    hp_v = yv - lp_v
    hp_i = ir - lp_i
    lp = alpha * lp_v + (1.0 - alpha) * lp_i
    hp = np.where(np.abs(hp_v) >= np.abs(hp_i), hp_v, hp_i)
    return lp + gain * hp


def fuse_scales(visible_luma, infrared, cfg: FusionConfig | None = None
                ) -> list[np.ndarray]:
    """The three per-scale fusions (signed, unclamped), for inspection."""
    if cfg is None:
        cfg = FusionConfig()
    yv = as_gray(visible_luma)
    ir = as_gray(infrared)
    if yv.shape != ir.shape:
        raise ValueError(f"image dimensions differ: {yv.shape} vs {ir.shape}")
    return [fuse_single_scale(yv, ir, sigma, cfg.alpha, cfg.gain)
            for sigma in cfg.sigmas]


def fuse_hplp(visible_luma, infrared, cfg: FusionConfig | None = None) -> np.ndarray:
    """Equal-weight average of the three per-scale fusions, clamped to [0, 1]."""
    scales = fuse_scales(visible_luma, infrared, cfg)
    return clamp01((scales[0] + scales[1] + scales[2]) / 3.0)


def restore_color(fused, visible, color_eps: float = 1.0 / 255.0) -> np.ndarray:
    """Scale the visible RGB so its luminance is replaced by the fused gray.

    Each channel is multiplied by fused / max(Y, eps) and clamped to [0, 1];
    the eps guard keeps near-black pixels finite.
    """
    f = as_gray(fused)
    v = as_color(visible)
    if f.shape != v.shape[:2]:
        raise ValueError(f"image dimensions differ: {f.shape} vs {v.shape[:2]}")
    luma = to_luminance(v)
    ratio = f / np.maximum(luma, color_eps)
    return clamp01(v * ratio[:, :, None])


def fuse_pair(visible, infrared, cfg: FusionConfig | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Full fusion of a registered pair: returns (fused gray, fused color)."""
    if cfg is None:
        cfg = FusionConfig()
    v = require_finite(as_color(visible), "visible")
    ir = require_finite(as_gray(infrared), "infrared")
    fused = fuse_hplp(to_luminance(v), ir, cfg)
    return fused, restore_color(fused, v, cfg.color_eps)
