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

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .descriptor import EdgeDescriptor, MatchingConfig, score_matrix
from .edges import CannyConfig, canny
from .errors import DegenerateFitError, RegistrationError
from .features import HarrisConfig, detect_corners, harris_score_map
from .image import NORM_SQ_MAX, NORM_SQ_MIN, NORM_TOL, as_gray, require_finite
from .transform import AffineTransform, TransformKind, project
from . import descriptor as _descriptor

MIN_REGISTER_SIDE = 64   # below this, corner statistics collapse
_MIN_DET = 1e-6          # fits with smaller |det| are discarded
_SCORE_BLOCK = 1 << 16   # residuals per consensus scoring block


@dataclass(frozen=True)
class Match:
    src_index: int
    dst_index: int
    score: float


@dataclass(frozen=True)
class RansacConfig:
    model: TransformKind = field(default=TransformKind.TRANSLATION, metadata={
        "key": "ransac.model",
        "help": "transform model: translation, similarity, or affine"})
    samples_per_iter: int = field(default=1000, metadata={
        "key": "ransac.samples_per_iter", "help": "consensus samples per iteration"})
    inlier_dist_coarse: float = field(default=5.0, metadata={
        "key": "ransac.inlier_dist_coarse",
        "help": "consensus radius (px), iterations 1-2"})
    inlier_dist_fine: float = field(default=2.0, metadata={
        "key": "ransac.inlier_dist_fine", "help": "consensus radius (px), iteration 3"})
    gate_dist_coarse: float = field(default=15.0, metadata={
        "key": "ransac.gate_dist_coarse",
        "help": "match gating radius (px), iteration 2"})
    gate_dist_fine: float = field(default=5.0, metadata={
        "key": "ransac.gate_dist_fine",
        "help": "match gating radius (px), iteration 3"})
    rng_seed: int = field(default=0, metadata={
        "key": "ransac.seed", "help": "consensus sampling seed"})

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
    """match_all on a precomputed (n_src, n_dst) score matrix.

    A gate zeroes the scores that `_gate` rules out; the hypot of a pair is
    computed only where its squared distance is within a relative 2**-40 of
    max_distance**2.
    """
    if gate is not None:
        scores = _gate(scores, src_positions, dst_positions, *gate)
    best = np.argmax(scores, axis=1)
    top = scores[np.arange(len(scores)), best]
    matches = [Match(int(p), int(best[p]), float(top[p]))
               for p in np.flatnonzero(top > 0.0)]
    matches.sort(key=lambda m: (-m.score, m.src_index, m.dst_index))
    return matches


def _gate(scores: np.ndarray, src_positions: np.ndarray,
          dst_positions: np.ndarray, t: AffineTransform,
          max_dist: float) -> np.ndarray:
    """scores where hypot(t(src) - dst) <= max_dist, else 0."""
    projected = t.apply(src_positions)
    near = _within(projected[:, None, 0] - dst_positions[None, :, 0],
                   projected[:, None, 1] - dst_positions[None, :, 1], max_dist)
    return np.where(near, scores, 0.0)


def _within(dx: np.ndarray, dy: np.ndarray, r: float) -> np.ndarray:
    """np.hypot(dx, dy) <= r, for any shapes that broadcast, with np.hypot
    taken only where q = dx*dx + dy*dy lies within a relative NORM_TOL of
    r*r.

    Exact: for r*r in [NORM_SQ_MIN, NORM_SQ_MAX], q is off the exact squared
    norm by a relative 2**-51 plus at most 2**-1073 from underflowed
    squares, or overflows only far above r*r, so q < r*r*(1 - NORM_TOL)
    puts np.hypot below r and q > r*r*(1 + NORM_TOL) puts it above. For any
    other r the band holds every pair. NaN offsets fail both forms.
    """
    with np.errstate(over="ignore"):
        r2 = r * r
        q = dx * dx + dy * dy
    lo, hi = ((r2 * (1 - NORM_TOL), r2 * (1 + NORM_TOL))
              if r > 0 and NORM_SQ_MIN <= r2 <= NORM_SQ_MAX else (0.0, np.inf))
    inside = q < lo
    band = (q <= hi) ^ inside
    shape = band.shape
    inside[band] = np.hypot(np.broadcast_to(dx, shape)[band],
                            np.broadcast_to(dy, shape)[band]) <= r
    return inside


def _inliers(m: np.ndarray, src: np.ndarray, dst: np.ndarray,
             r: float) -> np.ndarray:
    """hypot(m(src) - dst) <= r, through `_within`.

    `m` is one 2x3 matrix, giving shape (n,), or a stack (b, 2, 3), giving
    (b, n). A matrix gets the same mask alone or inside a stack, and the
    points the same projections as from `AffineTransform.apply`.
    """
    x, y = project(m, src)
    return _within(x - dst[:, 0], y - dst[:, 1], r)


def _match_arrays(matches, src_positions, dst_positions):
    src = np.array([src_positions[m.src_index] for m in matches], dtype=np.float64)
    dst = np.array([dst_positions[m.dst_index] for m in matches], dtype=np.float64)
    return src.reshape(-1, 2), dst.reshape(-1, 2)


def fit_least_squares(matches: list[Match], src_positions, dst_positions,
                      model: TransformKind) -> AffineTransform:
    """Least-squares transform over the matched corner pairs.

    The fit is closed-form on the centred, normalized points (see
    `_fit_points`). Raises DegenerateFitError for too few matches,
    coincident points, an ill-conditioned affine fit (collinear points), or
    a fitted |det| below 1e-6.
    """
    model = TransformKind(model)
    if len(matches) < model.min_matches:
        raise DegenerateFitError(
            f"{model.value} fit needs at least {model.min_matches} matches, "
            f"got {len(matches)}")
    src, dst = _match_arrays(matches, src_positions, dst_positions)
    m, usable = _fit_points(src[None], dst[None], model)
    if not usable[0]:
        raise DegenerateFitError(
            f"{model.value} fit is degenerate (coincident or collinear "
            "points, or a near-singular transform)")
    return AffineTransform(m[0], model)


def _normalize(points: np.ndarray):
    """Centroid shift + mean-distance scaling of each set in a (B, k, 2)
    batch, for numerical conditioning. Also returns the mask of sets whose
    points do not all coincide."""
    centroid = points.mean(axis=1)
    shifted = points - centroid[:, None]
    mean_dist = np.hypot(shifted[..., 0], shifted[..., 1]).mean(axis=1)
    usable = mean_dist >= 1e-12
    scale = np.sqrt(2.0) / np.where(usable, mean_dist, 1.0)
    return shifted * scale[:, None, None], centroid, scale, usable


def _fit_points(src: np.ndarray, dst: np.ndarray,
                model: TransformKind) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares fits of a batch of point sets: (B, k, 2) -> (B, 2, 3).

    Closed forms (Umeyama, TPAMI 1991) on the `_normalize`d points, from
    their moments M = [[Sxx, Sxy], [Sxy, Syy]] and cross moments
    C = [[Sxu, Sxv], [Syu, Syv]] about each set's mean: similarity takes
    a = (Sxu + Syv) / S, b = (Sxv - Syu) / S with S = Sxx + Syy; affine
    solves M r = C for both rows r at once. The intercept maps the source
    mean onto the destination mean.

    Returns the matrices and the mask of usable fits. A fit is unusable when
    its points coincide (in a minimal sample, any two closer than 1e-9 on
    either side; in any set, all within 1e-12 of their centroid), when its
    moments are not finite, when the fitted |det| is below _MIN_DET, or
    (affine) when its normal matrix, with eigenvalues M's l1 >= l2 and k,
    has cond = max(l1, k) / min(l2, k) above 1e12. Similarity skips that
    check: its normal matrix is diag(S, S, k, k), and with mean distance
    sqrt(2), S / k lies in [2, 2k]. Unusable rows hold placeholders.
    """
    b, k = src.shape[:2]
    if model == TransformKind.TRANSLATION:
        m = np.zeros((b, 2, 3))
        m[:, 0, 0] = m[:, 1, 1] = 1.0
        m[:, :, 2] = (dst - src).mean(axis=1)
        return m, np.ones(b, dtype=bool)

    usable = np.ones(b, dtype=bool)
    if k == model.min_matches:
        for i, j in itertools.combinations(range(k), 2):
            for pts in (src, dst):
                usable &= np.hypot(*(pts[:, i] - pts[:, j]).T) >= 1e-9
    ns, cs, ss, src_spread = _normalize(src)
    nd, cd, sd, dst_spread = _normalize(dst)
    usable &= src_spread & dst_spread
    mean_s, mean_d = ns.mean(axis=1), nd.mean(axis=1)
    p, q = ns - mean_s[:, None], nd - mean_d[:, None]
    moments, cross = (np.einsum("bki,bkj->bij", p, r) for r in (p, q))
    usable &= np.isfinite([moments, cross]).all(axis=(0, 2, 3))
    with np.errstate(divide="ignore", invalid="ignore"):
        if model == TransformKind.SIMILARITY:
            s = moments[:, 0, 0] + moments[:, 1, 1]
            a = (cross[:, 0, 0] + cross[:, 1, 1]) / s
            c = (cross[:, 0, 1] - cross[:, 1, 0]) / s
            lin_n = np.array([[a, -c], [c, a]]).transpose(2, 0, 1)
        else:
            sxx, sxy, syy = moments[:, 0, 0], moments[:, 0, 1], moments[:, 1, 1]
            l1 = (sxx + syy) / 2 + np.hypot((sxx - syy) / 2, sxy)
            l2 = (sxx * syy - sxy * sxy) / l1
            # cond <= 1e12, written so that l2 <= 0 fails it too
            usable &= np.maximum(l1, k) <= 1e12 * np.minimum(l2, k)
            moments = np.where(usable[:, None, None], moments, np.eye(2))
            lin_n = np.linalg.solve(moments, cross).transpose(0, 2, 1)
    t_n = mean_d - (lin_n @ mean_s[..., None])[..., 0]
    # undo both normalizations: T = denorm(dst) o T_n o norm(src)
    lin = lin_n * (ss / sd)[:, None, None]
    t = (t_n / sd[:, None] + cd) - (lin @ cs[..., None])[..., 0]
    det = lin[:, 0, 0] * lin[:, 1, 1] - lin[:, 0, 1] * lin[:, 1, 0]
    usable &= np.abs(det) >= _MIN_DET
    return np.concatenate([lin, t[..., None]], axis=2), usable


def _minimal_samples(n: int, k: int, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Index rows of one round's minimal samples, shape (B, k).

    When the n matches have at most `count` k-subsets, every subset is
    listed in lexicographic order and `rng` is left untouched. Otherwise
    `count` subsets are drawn by Floyd's method: column j draws from
    [0, n-k+j] and takes n-k+j instead when the draw repeats an earlier
    column, so each row holds k distinct indices, a uniform k-subset.
    """
    if math.comb(n, k) <= count:
        flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
        return np.fromiter(flat, dtype=np.intp).reshape(-1, k)
    samples = np.empty((count, k), dtype=np.intp)
    for j, top in enumerate(range(n - k, n)):
        draw = rng.integers(0, top + 1, size=count)
        repeat = (samples[:, :j] == draw[:, None]).any(axis=1)
        samples[:, j] = np.where(repeat, top, draw)
    return samples


def ransac_once(matches: list[Match], src_positions, dst_positions,
                cfg: RansacConfig, consensus_dist: float,
                rng: np.random.Generator | None = None
                ) -> tuple[AffineTransform, int]:
    """One consensus round: fit minimal match subsets, keep the hypothesis
    with the largest support, then refit on its full inlier set.

    The round fits every minimal subset when there are at most
    cfg.samples_per_iter of them, without drawing from `rng`, and otherwise
    cfg.samples_per_iter subsets drawn from `rng`. All samples are fitted
    as one batch and scored in blocks; ties go to the earlier sample.
    Support is the number of `_inliers`: matches whose transformed source
    lies within consensus_dist of its partner, counted without a hypot
    except where the squared distance is within a relative 2**-40 of
    consensus_dist**2.
    The refit transform is returned only when its support is at least the
    winner's, so the returned support is maximal over everything
    considered.
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

    samples = _minimal_samples(n, sample_size, cfg.samples_per_iter, rng)
    hypotheses, usable = _fit_points(src[samples], dst[samples], cfg.model)
    hypotheses = hypotheses[usable]
    if len(hypotheses) == 0:
        raise RegistrationError(
            f"all {len(samples)} sampled match subsets were degenerate")
    per_block = max(1, _SCORE_BLOCK // n)
    support = np.concatenate([
        np.count_nonzero(_inliers(hypotheses[i:i + per_block], src, dst,
                                  consensus_dist), axis=1)
        for i in range(0, len(hypotheses), per_block)])
    best_t = hypotheses[np.argmax(support)]

    inlier_mask = _inliers(best_t, src, dst, consensus_dist)
    best_support = int(np.count_nonzero(inlier_mask))
    if best_support >= sample_size:
        refit, ok = _fit_points(src[inlier_mask][None], dst[inlier_mask][None],
                                cfg.model)
        if ok[0]:
            refit_support = int(np.count_nonzero(
                _inliers(refit[0], src, dst, consensus_dist)))
            if refit_support >= best_support:
                return AffineTransform(refit[0], cfg.model), refit_support
    return AffineTransform(best_t, cfg.model), best_support


def register(visible, infrared, harris_cfg: HarrisConfig | None = None,
             canny_cfg: CannyConfig | None = None,
             window: int = MatchingConfig.window,
             cfg: RansacConfig | None = None,
             polarity: str = MatchingConfig.polarity) -> RegistrationResult:
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
    estimate = None
    # (gate radius about the previous round's estimate, consensus radius)
    rounds = ((None, cfg.inlier_dist_coarse),
              (cfg.gate_dist_coarse, cfg.inlier_dist_coarse),
              (cfg.gate_dist_fine, cfg.inlier_dist_fine))
    for it, (gate_dist, consensus) in enumerate(rounds, 1):
        gate = None if gate_dist is None else (estimate, gate_dist)
        matches = _best_matches(scores, pos_v, pos_ir, gate)
        if len(matches) < cfg.model.min_matches:
            raise RegistrationError(
                f"iteration {it} matching: {len(matches)} matches, need "
                f"at least {cfg.model.min_matches} for a {cfg.model.value} fit")
        try:
            estimate, support = ransac_once(matches, pos_v, pos_ir, cfg,
                                            consensus, rng)
        except RegistrationError as exc:
            raise RegistrationError(f"iteration {it} consensus: {exc}") from exc
        per_iteration.append((estimate, support))

    src, dst = _match_arrays(matches, pos_v, pos_ir)
    inlier_mask = _inliers(estimate.m, src, dst, cfg.inlier_dist_fine)
    inliers = [m for m, ok in zip(matches, inlier_mask) if ok]
    return RegistrationResult(transform=estimate, inliers=inliers,
                              support=len(inliers),
                              per_iteration=tuple(per_iteration))
