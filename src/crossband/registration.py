"""Cross-spectral registration: corner matching, least-squares transform
fitting, and a three-iteration consensus protocol.

The pipeline detects corners and edge maps in both images, matches corner
descriptors, and estimates the geometric transform in three rounds: round
one matches without any geometric gate and accepts a coarse consensus
radius; rounds two and three gate candidate matches by the previous round's
transform and progressively tighten both the gating and the consensus
radius, so the final transform is fitted from tightly consistent matches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptor import EdgeDescriptor, score_matrix
from .edges import CannyConfig, canny
from .errors import DegenerateFitError, RegistrationError
from .features import HarrisConfig, detect_corners, harris_score_map
from .image import as_gray, require_finite
from .transform import AffineTransform, TransformKind
from . import descriptor as _descriptor

MIN_REGISTER_SIDE = 64   # below this, corner statistics collapse
_MIN_DET = 1e-6          # consensus hypotheses with smaller |det| are discarded


@dataclass(frozen=True)
class Match:
    src_index: int
    dst_index: int
    score: float


@dataclass(frozen=True)
class RansacConfig:
    model: TransformKind = TransformKind.TRANSLATION
    samples_per_iter: int = 1000
    inlier_dist_coarse: float = 5.0   # consensus radius for iterations 1 and 2
    inlier_dist_fine: float = 2.0     # consensus radius for iteration 3
    gate_dist_coarse: float = 15.0    # match gating radius for iteration 2
    gate_dist_fine: float = 5.0       # match gating radius for iteration 3
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "model", TransformKind(self.model))
        if self.samples_per_iter < 1:
            raise ValueError(
                f"samples_per_iter must be >= 1, got {self.samples_per_iter}")
        if not 0 < self.inlier_dist_fine < self.inlier_dist_coarse:
            raise ValueError(
                "inlier_dist_fine must be positive and below inlier_dist_coarse, "
                f"got {self.inlier_dist_fine} vs {self.inlier_dist_coarse}")
        if not 0 < self.gate_dist_fine < self.gate_dist_coarse:
            raise ValueError(
                "gate_dist_fine must be positive and below gate_dist_coarse, "
                f"got {self.gate_dist_fine} vs {self.gate_dist_coarse}")


@dataclass(frozen=True)
class RegistrationResult:
    transform: AffineTransform
    inliers: list[Match]
    support: int
    per_iteration: tuple[tuple[AffineTransform, int], ...]


def positions_of(descriptors: list[EdgeDescriptor]) -> np.ndarray:
    return np.array([[d.x, d.y] for d in descriptors], dtype=np.float64)


def match_all(src_descriptors: list[EdgeDescriptor],
              dst_descriptors: list[EdgeDescriptor],
              gate: tuple[AffineTransform, float] | None = None,
              polarity: str = "direct") -> list[Match]:
    """Best destination candidate for every source descriptor.

    An optional gate (transform, max_distance) admits only candidates whose
    position lies within max_distance of the source's transformed position.
    Sources whose candidates are all gated out or all score zero produce no
    match; ties go to the smallest destination index. The result is sorted
    by descending score (ties by source index).
    """
    scores = score_matrix(src_descriptors, dst_descriptors, polarity)
    return _best_matches(scores, positions_of(src_descriptors),
                         positions_of(dst_descriptors), gate)


def _best_matches(scores: np.ndarray, src_positions: np.ndarray,
                  dst_positions: np.ndarray,
                  gate: tuple[AffineTransform, float] | None) -> list[Match]:
    """match_all on a precomputed (n_src, n_dst) score matrix."""
    if gate is not None:
        t, max_dist = gate
        projected = t.apply(src_positions)
        dist = np.hypot(projected[:, None, 0] - dst_positions[None, :, 0],
                        projected[:, None, 1] - dst_positions[None, :, 1])
        scores = np.where(dist <= max_dist, scores, 0.0)
    best = np.argmax(scores, axis=1)
    top = scores[np.arange(len(scores)), best]
    matches = [Match(int(p), int(best[p]), float(top[p]))
               for p in np.flatnonzero(top > 0.0)]
    matches.sort(key=lambda m: (-m.score, m.src_index, m.dst_index))
    return matches


def _match_arrays(matches, src_positions, dst_positions):
    src = np.array([src_positions[m.src_index] for m in matches], dtype=np.float64)
    dst = np.array([dst_positions[m.dst_index] for m in matches], dtype=np.float64)
    return src.reshape(-1, 2), dst.reshape(-1, 2)


def residual(t: AffineTransform, match: Match, src_positions, dst_positions) -> float:
    """Distance between the transformed source corner and its matched corner."""
    p = t.apply(np.asarray(src_positions[match.src_index], dtype=np.float64))
    q = np.asarray(dst_positions[match.dst_index], dtype=np.float64)
    return float(np.hypot(p[0] - q[0], p[1] - q[1]))


def _residuals(t: AffineTransform, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    projected = src @ t.m[:, :2].T + t.m[:, 2]
    return np.hypot(projected[:, 0] - dst[:, 0], projected[:, 1] - dst[:, 1])


def fit_least_squares(matches: list[Match], src_positions, dst_positions,
                      model: TransformKind) -> AffineTransform:
    """Least-squares transform over the matched corner pairs.

    Each match contributes two linear constraints; the normal equations are
    solved directly. Raises DegenerateFitError for too few matches or
    ill-conditioned (coincident/collinear) configurations.
    """
    model = TransformKind(model)
    if len(matches) < model.min_matches:
        raise DegenerateFitError(
            f"{model.value} fit needs at least {model.min_matches} matches, "
            f"got {len(matches)}")
    src, dst = _match_arrays(matches, src_positions, dst_positions)
    return _fit_points(src, dst, model)


def _normalize(points: np.ndarray):
    """Centroid shift + mean-distance scaling for numerical conditioning."""
    centroid = points.mean(axis=0)
    shifted = points - centroid
    mean_dist = float(np.hypot(shifted[:, 0], shifted[:, 1]).mean())
    if mean_dist < 1e-12:
        raise DegenerateFitError("all points coincide")
    scale = np.sqrt(2.0) / mean_dist
    return shifted * scale, centroid, scale


def _fit_points(src: np.ndarray, dst: np.ndarray,
                model: TransformKind) -> AffineTransform:
    if model == TransformKind.TRANSLATION:
        t = (dst - src).mean(axis=0)
        return AffineTransform.translation(float(t[0]), float(t[1]))

    ns, cs, ss = _normalize(src)
    nd, cd, sd = _normalize(dst)
    n = len(src)
    if model == TransformKind.SIMILARITY:
        a_mat = np.zeros((2 * n, 4))
        rhs = np.empty(2 * n)
        a_mat[0::2, 0] = ns[:, 0]
        a_mat[0::2, 1] = -ns[:, 1]
        a_mat[0::2, 2] = 1.0
        a_mat[1::2, 0] = ns[:, 1]
        a_mat[1::2, 1] = ns[:, 0]
        a_mat[1::2, 3] = 1.0
        rhs[0::2] = nd[:, 0]
        rhs[1::2] = nd[:, 1]
        params = _solve_normal(a_mat, rhs)
        an, bn, txn, tyn = params
        # undo both normalizations: T = denorm(dst) o T_n o norm(src)
        a = an * ss / sd
        b = bn * ss / sd
        lin = np.array([[a, -b], [b, a]])
        t = (np.array([txn, tyn]) / sd + cd) - lin @ cs
        return AffineTransform.similarity(a, b, float(t[0]), float(t[1]))

    a_mat = np.zeros((2 * n, 6))
    rhs = np.empty(2 * n)
    a_mat[0::2, 0] = ns[:, 0]
    a_mat[0::2, 1] = ns[:, 1]
    a_mat[0::2, 2] = 1.0
    a_mat[1::2, 3] = ns[:, 0]
    a_mat[1::2, 4] = ns[:, 1]
    a_mat[1::2, 5] = 1.0
    rhs[0::2] = nd[:, 0]
    rhs[1::2] = nd[:, 1]
    params = _solve_normal(a_mat, rhs)
    lin_n = params.reshape(2, 3)[:, :2]
    t_n = params.reshape(2, 3)[:, 2]
    lin = lin_n * (ss / sd)
    t = (t_n / sd + cd) - lin @ cs
    return AffineTransform(np.column_stack([lin, t]), TransformKind.AFFINE)


def _solve_normal(a_mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    ata = a_mat.T @ a_mat
    if not np.isfinite(ata).all() or np.linalg.cond(ata) > 1e12:
        raise DegenerateFitError(
            "normal matrix is singular or near-singular (degenerate geometry)")
    return np.linalg.solve(ata, a_mat.T @ rhs)


def _degenerate_sample(src: np.ndarray, dst: np.ndarray) -> bool:
    """Minimal samples with coincident points on either side are unusable."""
    n = len(src)
    for i in range(n):
        for j in range(i + 1, n):
            if (np.hypot(*(src[i] - src[j])) < 1e-9
                    or np.hypot(*(dst[i] - dst[j])) < 1e-9):
                return True
    return False


def ransac_once(matches: list[Match], src_positions, dst_positions,
                cfg: RansacConfig, consensus_dist: float,
                rng: np.random.Generator | None = None
                ) -> tuple[AffineTransform, int]:
    """One consensus round: sample minimal match subsets, fit, keep the
    hypothesis with the largest support, then refit on its full inlier set.

    The refit transform is returned only when its support is at least the
    sampled winner's, so the returned support is maximal over everything
    considered. Ties between sampled hypotheses go to the earlier sample.
    """
    sample_size = cfg.model.min_matches
    if len(matches) < sample_size:
        raise ValueError(
            f"need at least {sample_size} matches for a {cfg.model.value} "
            f"sample, got {len(matches)}")
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    src, dst = _match_arrays(matches, src_positions, dst_positions)
    n = len(matches)

    best_support = -1
    best_t = None
    for _ in range(cfg.samples_per_iter):
        sel = rng.choice(n, size=sample_size, replace=False)
        s, d = src[sel], dst[sel]
        if sample_size >= 2 and _degenerate_sample(s, d):
            continue
        try:
            hypothesis = _fit_points(s, d, cfg.model)
        except DegenerateFitError:
            continue
        if abs(hypothesis.det()) < _MIN_DET:
            continue
        support = int(np.count_nonzero(_residuals(hypothesis, src, dst)
                                       <= consensus_dist))
        if support > best_support:
            best_support = support
            best_t = hypothesis
    if best_t is None:
        raise RegistrationError(
            f"all {cfg.samples_per_iter} sampled match subsets were degenerate")

    inlier_mask = _residuals(best_t, src, dst) <= consensus_dist
    try:
        refit = _fit_points(src[inlier_mask], dst[inlier_mask], cfg.model)
        if abs(refit.det()) >= _MIN_DET:
            refit_support = int(np.count_nonzero(
                _residuals(refit, src, dst) <= consensus_dist))
            if refit_support >= best_support:
                return refit, refit_support
    except DegenerateFitError:
        pass
    return best_t, best_support


def register(visible, infrared, harris_cfg: HarrisConfig | None = None,
             canny_cfg: CannyConfig | None = None,
             window: int = _descriptor.DEFAULT_WINDOW,
             cfg: RansacConfig | None = None,
             polarity: str = "both") -> RegistrationResult:
    """Estimate the transform mapping visible-image coordinates onto the
    infrared image.

    Three match-and-consensus iterations are run; the returned result
    carries the final transform, its inliers under the fine consensus
    radius, and the per-iteration (transform, support) records. The default
    polarity mode "both" also scores candidate pairs under a half-circle
    direction shift, which keeps matching effective when one band inverts
    contrast relative to the other.
    """
    if harris_cfg is None:
        harris_cfg = HarrisConfig()
    if canny_cfg is None:
        canny_cfg = CannyConfig()
    if cfg is None:
        cfg = RansacConfig()

    vis = as_gray(visible)
    ir = as_gray(infrared)
    for name, img in (("visible", vis), ("infrared", ir)):
        if img.shape[0] < MIN_REGISTER_SIDE or img.shape[1] < MIN_REGISTER_SIDE:
            raise ValueError(
                f"{name} image must be at least {MIN_REGISTER_SIDE}x"
                f"{MIN_REGISTER_SIDE}, got {img.shape}")
        require_finite(img, name)

    descs = {}
    for name, img in (("visible", vis), ("infrared", ir)):
        corners = detect_corners(harris_score_map(img, harris_cfg), harris_cfg)
        edge_map = canny(img, canny_cfg)
        descs[name] = _descriptor.build_descriptors(corners, edge_map, window)
        if len(descs[name]) < 4:
            raise RegistrationError(
                f"corner detection: only {len(descs[name])} descriptorized "
                f"corners in the {name} image (need 4)")
    desc_v, desc_ir = descs["visible"], descs["infrared"]
    pos_v = positions_of(desc_v)
    pos_ir = positions_of(desc_ir)
    scores = score_matrix(desc_v, desc_ir, polarity)

    rng = np.random.default_rng(cfg.rng_seed)
    per_iteration = []
    t_prev = None
    for it in range(1, 4):
        if it == 1:
            gate = None
            consensus = cfg.inlier_dist_coarse
        elif it == 2:
            gate = (t_prev, cfg.gate_dist_coarse)
            consensus = cfg.inlier_dist_coarse
        else:
            gate = (t_prev, cfg.gate_dist_fine)
            consensus = cfg.inlier_dist_fine
        matches = _best_matches(scores, pos_v, pos_ir, gate)
        if len(matches) < cfg.model.min_matches:
            raise RegistrationError(
                f"iteration {it} matching: {len(matches)} matches, need "
                f"at least {cfg.model.min_matches} for a {cfg.model.value} fit")
        try:
            t_prev, support = ransac_once(matches, pos_v, pos_ir, cfg,
                                          consensus, rng)
        except RegistrationError as exc:
            raise RegistrationError(f"iteration {it} consensus: {exc}") from exc
        per_iteration.append((t_prev, support))
        final_matches = matches

    t_final = per_iteration[-1][0]
    src, dst = _match_arrays(final_matches, pos_v, pos_ir)
    inlier_mask = _residuals(t_final, src, dst) <= cfg.inlier_dist_fine
    inliers = [m for m, ok in zip(final_matches, inlier_mask) if ok]
    return RegistrationResult(transform=t_final, inliers=inliers,
                              support=len(inliers),
                              per_iteration=tuple(per_iteration))
