"""Desk-scale evaluation of the registration pipeline.

Known transforms are planted between synthesized cross-modal pairs, the
pipeline recovers them, and translation accuracy statistics accumulate into
a CSV-serializable report. An exhaustive integer-shift edge-overlap search
serves as an independent comparator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import median

import numpy as np

from .descriptor import MatchingConfig
from .edges import CannyConfig, EdgeMap
from .errors import RegistrationError
from .features import HarrisConfig
from .image import as_gray, clamp01, gaussian_blur, warp_affine
from .registration import RansacConfig, register
from .transform import AffineTransform

MODALITY_MODELS = ("identity", "invert", "gamma", "invert+gamma")
_MIN_VALID_SIDE = 64


@dataclass(frozen=True)
class SimulationSpec:
    translation_range: float = field(default=20.0, metadata={
        "key": "eval.translation_range", "help": "planted shift range (+/- px)"})
    scales: tuple[float, ...] = field(default=(1.0,), metadata={
        "key": "eval.scales", "help": "planted scale sweep"})
    modality: str = field(default="identity", metadata={
        "key": "eval.modality", "choices": MODALITY_MODELS,
        "help": "photometric model of the second band"})
    gamma: float = field(default=2.2, metadata={
        "key": "eval.gamma", "help": "gamma exponent of the modality model"})
    noise_sigma: float = field(default=0.02, metadata={
        "key": "eval.noise_sigma", "help": "additive noise level"})
    trials: int = field(default=20, metadata={
        "key": "eval.trials", "help": "trials per scale"})
    rng_seed: int = field(default=0, metadata={
        "key": "eval.seed", "help": "benchmark seed"})

    def __post_init__(self):
        if self.modality not in MODALITY_MODELS:
            raise ValueError(
                f"modality must be one of {MODALITY_MODELS}, got {self.modality!r}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise_sigma must be in [0, inf), got {self.noise_sigma}")
        scales = tuple(float(s) for s in self.scales)
        if not scales or any(s <= 0 for s in scales):
            raise ValueError(f"scales must be positive, got {self.scales}")
        object.__setattr__(self, "scales", scales)
        if not 0 <= self.translation_range < np.inf:
            raise ValueError(
                f"translation_range must be in [0, inf), got {self.translation_range}")


@dataclass(frozen=True)
class TrialResult:
    trial: int
    scale: float
    tx_true: float
    ty_true: float
    tx_est: float
    ty_est: float
    error_px: float
    support: int
    status: str  # "ok" or "failed"


@dataclass
class AccuracyReport:
    rows: list[TrialResult] = field(default_factory=list)

    @property
    def errors(self) -> list[float]:
        return [r.error_px for r in self.rows if r.status == "ok"]

    @property
    def failures(self) -> int:
        return sum(1 for r in self.rows if r.status != "ok")

    @property
    def mean_error(self) -> float:
        e = self.errors
        return float(np.mean(e)) if e else float("nan")

    @property
    def median_error(self) -> float:
        e = self.errors
        return float(median(e)) if e else float("nan")

    @property
    def max_error(self) -> float:
        e = self.errors
        return float(max(e)) if e else float("nan")

    def per_scale_mean(self) -> dict[float, float]:
        out: dict[float, float] = {}
        for scale in sorted({r.scale for r in self.rows}):
            e = [r.error_px for r in self.rows
                 if r.scale == scale and r.status == "ok"]
            out[scale] = float(np.mean(e)) if e else float("nan")
        return out

    def to_csv(self) -> str:
        lines = ["trial,scale,tx_true,ty_true,tx_est,ty_est,error_px,support,status"]
        for r in self.rows:
            lines.append(
                f"{r.trial},{r.scale:.6f},{r.tx_true:.6f},{r.ty_true:.6f},"
                f"{r.tx_est:.6f},{r.ty_est:.6f},{r.error_px:.6f},"
                f"{r.support},{r.status}")
        return "\n".join(lines) + "\n"


def apply_modality(img, spec: SimulationSpec) -> np.ndarray:
    """Photometric model of the second band: identity, inversion, gamma
    power law, or gamma applied after inversion."""
    arr = as_gray(img)
    if spec.modality == "identity":
        return arr.copy()
    if spec.modality == "invert":
        return 1.0 - arr
    if spec.modality == "gamma":
        return np.power(np.clip(arr, 0.0, 1.0), spec.gamma)
    return np.power(np.clip(1.0 - arr, 0.0, 1.0), spec.gamma)


def _common_valid_box(t: AffineTransform, width: int, height: int):
    """Axis-aligned pixel box whose warped samples all kept full support.

    Starts from the transformed corners of the source domain and shrinks
    until an explicit coverage mask validates every pixel inside.
    """
    corners = t.apply(np.array([[0.0, 0.0], [width - 1.0, 0.0],
                                [0.0, height - 1.0],
                                [width - 1.0, height - 1.0]]))
    x_lo = max(corners[0, 0], corners[2, 0], 0.0)
    x_hi = min(corners[1, 0], corners[3, 0], width - 1.0)
    y_lo = max(corners[0, 1], corners[1, 1], 0.0)
    y_hi = min(corners[2, 1], corners[3, 1], height - 1.0)
    x0, x1 = int(np.ceil(x_lo)), int(np.floor(x_hi)) + 1
    y0, y1 = int(np.ceil(y_lo)), int(np.floor(y_hi)) + 1

    mask = warp_affine(np.ones((height, width)), t, fill=0.0) >= 0.999
    for _ in range(8):
        if x1 <= x0 or y1 <= y0:
            break
        box = mask[y0:y1, x0:x1]
        if box.all():
            break
        if not box[0, :].all():
            y0 += 1
        if not box[-1, :].all():
            y1 -= 1
        if not box[:, 0].all():
            x0 += 1
        if not box[:, -1].all():
            x1 -= 1
    return x0, x1, y0, y1


def simulate_pair(base, t_true: AffineTransform, spec: SimulationSpec,
                  rng: np.random.Generator | None = None):
    """Synthesize a cross-modal pair with a planted transform.

    The first image is the noisy base; the second is the warped base pushed
    through the modality model plus independent noise. Both are cropped to
    the common region where the warp kept full bilinear support, so fill
    values never enter the pipeline. Because cropping re-origins the pixel
    grid, the transform that actually relates the returned pair differs from
    t_true in its translation; it is returned alongside the images.

    Returns (img_v, img_ir, t_effective).
    """
    arr = as_gray(base)
    if rng is None:
        rng = np.random.default_rng(spec.rng_seed)
    h, w = arr.shape
    warped = warp_affine(arr, t_true, fill=0.0)
    x0, x1, y0, y1 = _common_valid_box(t_true, w, h)
    if x1 - x0 < _MIN_VALID_SIDE or y1 - y0 < _MIN_VALID_SIDE:
        raise ValueError(
            f"common valid region {x1 - x0}x{y1 - y0} is smaller than "
            f"{_MIN_VALID_SIDE}x{_MIN_VALID_SIDE}")

    img_v = arr[y0:y1, x0:x1]
    img_ir = apply_modality(warped, spec)[y0:y1, x0:x1]
    if spec.noise_sigma > 0:
        img_v = img_v + rng.normal(0.0, spec.noise_sigma, img_v.shape)
        img_ir = img_ir + rng.normal(0.0, spec.noise_sigma, img_ir.shape)
        img_v = clamp01(img_v)
        img_ir = clamp01(img_ir)
    else:
        img_v = img_v.copy()

    origin = np.array([x0, y0], dtype=np.float64)
    lin = t_true.m[:, :2]
    t_shifted = t_true.m[:, 2] + lin @ origin - origin
    t_eff = AffineTransform(np.column_stack([lin, t_shifted]), t_true.kind)
    return img_v, img_ir, t_eff


def translation_error(t_est: AffineTransform, t_true: AffineTransform) -> float:
    """Euclidean distance between the two transforms' translation parts."""
    d = t_est.translation_part - t_true.translation_part
    return float(np.hypot(d[0], d[1]))


def run_benchmark(bases, spec: SimulationSpec,
                  harris_cfg: HarrisConfig | None = None,
                  canny_cfg: CannyConfig | None = None,
                  window: int = MatchingConfig.window,
                  ransac_cfg: RansacConfig | None = None,
                  polarity: str = MatchingConfig.polarity) -> AccuracyReport:
    """Plant seeded transforms on the base images, register, and score.

    For every scale in the spec's sweep, `trials` pairs are simulated with
    per-trial RNGs derived as rng_seed + trial index. A registration failure
    is recorded in its row rather than aborting the run.
    """
    bases = [as_gray(b) for b in bases]
    if not bases:
        raise ValueError("need at least one base image")
    if ransac_cfg is None:
        ransac_cfg = RansacConfig()
    report = AccuracyReport()
    trial = 0
    for scale in spec.scales:
        for _ in range(spec.trials):
            rng = np.random.default_rng(spec.rng_seed + trial)
            tx, ty = rng.uniform(-spec.translation_range,
                                 spec.translation_range, size=2)
            if scale == 1.0:
                t_true = AffineTransform.translation(float(tx), float(ty))
            else:
                t_true = AffineTransform.similarity(float(scale), 0.0,
                                                    float(tx), float(ty))
            img_v, img_ir, t_eff = simulate_pair(bases[trial % len(bases)],
                                                 t_true, spec, rng)
            try:
                result = register(img_v, img_ir, harris_cfg, canny_cfg,
                                  window, ransac_cfg, polarity)
            except RegistrationError:
                report.rows.append(TrialResult(
                    trial, scale, float(t_eff.m[0, 2]), float(t_eff.m[1, 2]),
                    float("nan"), float("nan"), float("nan"), 0, "failed"))
                trial += 1
                continue
            est = result.transform
            report.rows.append(TrialResult(
                trial, scale, float(t_eff.m[0, 2]), float(t_eff.m[1, 2]),
                float(est.m[0, 2]), float(est.m[1, 2]),
                translation_error(est, t_eff), result.support, "ok"))
            trial += 1
    return report


def brute_force_translation(edge_v: EdgeMap, edge_ir: EdgeMap,
                            max_shift: int) -> AffineTransform:
    """Exhaustive integer-shift search maximizing edge overlap.

    Scores every shift d in [-max_shift, max_shift]^2 by the number of
    positions carrying an edge in both rasters after shifting the second by
    d; ties prefer the smallest shift norm, then lexicographic (dy, dx).
    Serves as an independent oracle for the feature-based pipeline.
    """
    ev = edge_v.edges != 0
    ei = edge_ir.edges != 0
    hv, wv = ev.shape
    hi, wi = ei.shape
    best = None
    for dy in range(-max_shift, max_shift + 1):
        for dx in range(-max_shift, max_shift + 1):
            # overlap of v-pixel x with ir-pixel x + d
            x0 = max(0, -dx)
            x1 = min(wv, wi - dx)
            y0 = max(0, -dy)
            y1 = min(hv, hi - dy)
            if x1 <= x0 or y1 <= y0:
                continue
            score = int(np.count_nonzero(
                ev[y0:y1, x0:x1] & ei[y0 + dy:y1 + dy, x0 + dx:x1 + dx]))
            key = (-score, dx * dx + dy * dy, dy, dx)
            if best is None or key < best[0]:
                best = (key, (dx, dy))
    dx, dy = best[1]
    return AffineTransform.translation(float(dx), float(dy))


def synthetic_texture(width: int = 512, height: int | None = None,
                      seed: int = 0) -> np.ndarray:
    """Reproducible natural-looking test texture in [0.05, 0.95].

    Layers coarse blocks, smooth noise, and a scatter of moderate-contrast
    rectangles and discs, so corner detection finds features of comparable
    strength all over the frame.
    """
    if height is None:
        height = width
    h, w = int(height), int(width)
    if h < 32 or w < 32:
        raise ValueError(f"texture must be at least 32x32, got {w}x{h}")
    rng = np.random.default_rng(seed)
    coarse = rng.random((h // 16 + 1, w // 16 + 1))
    img = np.repeat(np.repeat(coarse, 16, axis=0), 16, axis=1)[:h, :w] * 0.35
    img = img + gaussian_blur(rng.random((h, w)), 3.0) * 0.5

    for _ in range(max(12, (h * w) // 4400)):
        x0 = int(rng.integers(0, max(1, w - 60)))
        y0 = int(rng.integers(0, max(1, h - 60)))
        rw = int(rng.integers(12, 55))
        rh = int(rng.integers(12, 55))
        img[y0:y0 + rh, x0:x0 + rw] += rng.uniform(-0.28, 0.28)

    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(max(6, (h * w) // 10500)):
        cx = int(rng.integers(20, max(21, w - 20)))
        cy = int(rng.integers(20, max(21, h - 20)))
        rad = int(rng.integers(5, 18))
        img[(xx - cx) ** 2 + (yy - cy) ** 2 <= rad * rad] += rng.uniform(-0.25, 0.25)

    img = gaussian_blur(img, 0.8)
    img -= img.min()
    peak = img.max()
    if peak > 0:
        img /= peak
    return img * 0.9 + 0.05
