"""Harris corner detection with windowed non-maximal suppression."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .image import as_gray, gaussian_blur, gradients


@dataclass(frozen=True)
class HarrisConfig:
    k: float = 0.04                # corner-score sensitivity
    window_sigma: float = 1.5      # Gaussian weighting of the structure tensor
    nms_window: int = 7            # odd suppression window side
    max_corners: int = 400
    min_score: float = 0.01        # threshold relative to the maximum score

    def __post_init__(self):
        if not 0.0 < self.k < 0.25:
            raise ValueError(f"k must be in (0, 0.25), got {self.k}")
        if self.nms_window < 3 or self.nms_window % 2 == 0:
            raise ValueError(f"nms_window must be odd and >= 3, got {self.nms_window}")
        if self.max_corners < 4:
            raise ValueError(f"max_corners must be >= 4, got {self.max_corners}")
        if not self.window_sigma > 0:
            raise ValueError(f"window_sigma must be > 0, got {self.window_sigma}")


@dataclass(frozen=True)
class Corner:
    x: int
    y: int
    score: float


def harris_score_map(img, cfg: HarrisConfig | None = None) -> np.ndarray:
    """Per-pixel corner score det(A) - k * trace(A)^2.

    A is the Gaussian-weighted structure tensor of the Sobel gradients. The
    returned map is signed and unclamped.
    """
    if cfg is None:
        cfg = HarrisConfig()
    arr = as_gray(img)
    if arr.shape[0] < 3 or arr.shape[1] < 3:
        raise ValueError(f"image must be at least 3x3, got {arr.shape}")
    ix, iy = gradients(arr)
    sxx = gaussian_blur(ix * ix, cfg.window_sigma)
    syy = gaussian_blur(iy * iy, cfg.window_sigma)
    sxy = gaussian_blur(ix * iy, cfg.window_sigma)
    trace = sxx + syy
    return sxx * syy - sxy * sxy - cfg.k * trace * trace


def detect_corners(score, cfg: HarrisConfig | None = None) -> list[Corner]:
    """Strict local maxima of the score map, thresholded and capped.

    A pixel is emitted when it beats every neighbor in its nms_window x
    nms_window neighborhood; equal-valued contenders within the window are
    resolved in favor of the smallest row-major index. Output is sorted by
    descending score and truncated to max_corners.
    """
    if cfg is None:
        cfg = HarrisConfig()
    s = as_gray(score)
    smax = float(s.max())
    radius = cfg.nms_window // 2
    window_max = ndimage.maximum_filter(s, size=cfg.nms_window,
                                        mode="constant", cval=-np.inf)
    cand = (s == window_max) & (s > 0.0) & (s >= cfg.min_score * smax)
    ys, xs = np.nonzero(cand)
    vals = s[ys, xs]

    # a candidate survives unless an earlier pixel (row-major) in its window
    # holds its value; the zero padding never equals a positive candidate
    pw = s.shape[1] + 2 * radius
    padded = np.pad(s, radius).ravel()
    at = (ys + radius) * pw + (xs + radius)
    first = np.ones(len(vals), dtype=bool)
    for dy in range(-radius, 1):
        for dx in range(-radius, radius + 1 if dy < 0 else 0):
            first &= padded[at + dy * pw + dx] != vals
    kx, ky, ks = xs[first], ys[first], vals[first]
    order = np.lexsort((kx, ky, -ks))[:cfg.max_corners]
    return [Corner(int(kx[i]), int(ky[i]), float(ks[i])) for i in order]
