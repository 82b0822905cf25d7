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

from .descriptor import (EdgeDescriptor, MatchingConfig, _cut_windows, _scores,
                         score_matrix)
from .edges import CannyConfig, _canny
from .errors import DegenerateFitError, RegistrationError
from .features import HarrisConfig, _detect_corners, _harris_score_map
from .image import _gradient_field, _magnitudes, as_gray, require_finite
from .transform import AffineTransform, TransformKind, project

MIN_REGISTER_SIDE = 64   # below this, corner statistics collapse
_MIN_DET = 1e-6          # fits with smaller |det| are discarded
_SAMPLE_CHUNK = 100      # minimal samples drawn, fitted and scored at a time
_CONFIDENCE = 0.999      # wanted chance of drawing one all-inlier sample


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
        "key": "ransac.samples_per_iter",
        "help": "consensus samples per iteration, or fewer once enough agree"})
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
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


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
    """One-to-one matches: the source and destination descriptors that are
    each other's best candidate.

    An optional gate (transform, max_distance) admits only candidates whose
    position lies within max_distance of the source's transformed position.
    A source is matched to its best admitted destination only when that
    destination's best admitted source is this source and their score is
    above zero; ties go to the smallest index on both sides. So no two
    matches share a source or a destination. The result is sorted by
    descending score (ties by source index).
    """
    scores = score_matrix(src_descriptors, dst_descriptors, polarity)
    return _matches(scores, *_mutual_best(
        scores, positions_of(src_descriptors), positions_of(dst_descriptors),
        gate))


def _mutual_best(scores: np.ndarray, src_positions: np.ndarray,
                 dst_positions: np.ndarray,
                 gate: tuple[AffineTransform, float] | None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """match_all on a precomputed (n_src, n_dst) score matrix, as source
    and destination index arrays in match_all's order; a gate zeroes the
    scores that `_gate` rules out. A pair is kept when it is the first
    maximum of its row and of its column, and above zero."""
    if gate is not None:
        scores = _gate(scores, src_positions, dst_positions, *gate)
    rows = np.arange(len(scores))
    best = np.argmax(scores, axis=1)
    top = scores[rows, best]
    src = np.flatnonzero((np.argmax(scores, axis=0)[best] == rows) & (top > 0.0))
    # sources ascend, so a stable sort breaks score ties by source
    src = src[np.argsort(-top[src], kind="stable")]
    return src, best[src]


def _matches(scores: np.ndarray, src: np.ndarray, dst: np.ndarray) -> list[Match]:
    """Match objects of index pairs, with their scores. A gate keeps a
    score or zeroes it, so a kept pair's score is read from the ungated
    matrix."""
    return [Match(p, q, v) for p, q, v in
            zip(src.tolist(), dst.tolist(), scores[src, dst].tolist())]


def _gate(scores: np.ndarray, src_positions: np.ndarray,
          dst_positions: np.ndarray, t: AffineTransform,
          max_dist: float) -> np.ndarray:
    """scores where the distance from t(src) to dst is at most max_dist,
    else 0; distances are image._magnitudes of the offsets."""
    projected = t.apply(src_positions)
    dist = _magnitudes(projected[:, None, 0] - dst_positions[None, :, 0],
                       projected[:, None, 1] - dst_positions[None, :, 1])
    return np.where(dist <= max_dist, scores, 0.0)


def _inliers(m: np.ndarray, src: np.ndarray, dst: np.ndarray,
             r: float) -> np.ndarray:
    """_magnitudes(m(src) - dst) <= r.

    `m` is one 2x3 matrix, giving shape (n,), or a stack (b, 2, 3), giving
    (b, n). A matrix gets the same mask alone or inside a stack, and the
    points the same projections as from `AffineTransform.apply`.
    """
    x, y = project(m, src)
    return _magnitudes(x - dst[:, 0], y - dst[:, 1]) <= r


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
    """`count` minimal samples of k of the n matches, drawn from `rng` by
    Floyd's method, shape (count, k): column j draws from [0, n-k+j] and
    takes n-k+j instead when the draw repeats an earlier column, so each
    row holds k distinct indices, a uniform k-subset.
    """
    samples = np.empty((count, k), dtype=np.intp)
    for j, top in enumerate(range(n - k, n)):
        draw = rng.integers(0, top + 1, size=count)
        repeat = (samples[:, :j] == draw[:, None]).any(axis=1)
        samples[:, j] = np.where(repeat, top, draw)
    return samples


def _samples_needed(w: float, k: int) -> float:
    """Samples of k matches that hold an all-inlier one with probability
    _CONFIDENCE when a fraction w of the matches are inliers: N = log(1 - p)
    / log(1 - w**k) (Fischler & Bolles 1981); 0 once w**k is 1, inf at w = 0.
    """
    p_good = w ** k
    if p_good >= 1.0:
        return 0
    if p_good <= 0.0:
        return math.inf
    return math.ceil(math.log1p(-_CONFIDENCE) / math.log1p(-p_good))


def ransac_once(matches: list[Match], src_positions, dst_positions,
                cfg: RansacConfig, consensus_dist: float,
                rng: np.random.Generator | None = None
                ) -> tuple[AffineTransform, int]:
    """One consensus round: fit minimal match subsets, keep the hypothesis
    with the largest support, then fit least squares to its inliers.

    A match is an inlier (`_inliers`) when its transformed source lies
    within consensus_dist of its partner, and support is the number of
    inlier matches. `match_all`'s matches are one-to-one, so a
    near-singular transform that sends many sources onto one popular corner
    finds at most one match there.

    The round always draws its subsets from `rng`, however few matches
    there are, in chunks of _SAMPLE_CHUNK, and stops once
    ceil(log(1 - p) / log(1 - w**k)) subsets are drawn, with p = _CONFIDENCE,
    k the sample size and w the best support so far over the match count,
    or at cfg.samples_per_iter subsets. Ties go to the earlier sample.

    Returns the least-squares fit of the winner's inliers (LO-RANSAC's
    local optimisation, Chum, Matas & Kittler 2003) and that fit's support,
    which may differ from the winner's; or the winner and its support when
    the fit is unusable or the winner has fewer inliers than a sample holds.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    src, dst = _match_arrays(matches, src_positions, dst_positions)
    t, inliers = _consensus(src, dst, cfg, consensus_dist, rng)
    return t, int(np.count_nonzero(inliers))


def _consensus(src: np.ndarray, dst: np.ndarray, cfg: RansacConfig,
               consensus_dist: float, rng: np.random.Generator
               ) -> tuple[AffineTransform, np.ndarray]:
    """ransac_once on the matched points, src[i] matched to dst[i]: the
    transform and its inlier mask over the matches, whose count is the
    support."""
    sample_size = cfg.model.min_matches
    n = len(src)
    if n < sample_size:
        raise ValueError(
            f"need at least {sample_size} matches for a {cfg.model.value} "
            f"sample, got {n}")
    cap = cfg.samples_per_iter

    best_support, best_t, tried, limit = -1, None, 0, cap
    while tried < limit:
        samples = _minimal_samples(n, sample_size,
                                   min(_SAMPLE_CHUNK, limit - tried), rng)
        tried += len(samples)
        hypotheses, usable = _fit_points(src[samples], dst[samples], cfg.model)
        hypotheses = hypotheses[usable]
        support = np.count_nonzero(
            _inliers(hypotheses, src, dst, consensus_dist), axis=1)
        if len(support) and support.max() > best_support:
            j = int(np.argmax(support))
            best_support, best_t = int(support[j]), hypotheses[j]
        limit = min(cap, _samples_needed(max(best_support, 0) / n, sample_size))
    if best_t is None:
        raise RegistrationError(
            f"all {tried} sampled match subsets were degenerate")

    inliers = _inliers(best_t, src, dst, consensus_dist)
    if best_support >= sample_size:
        refit, ok = _fit_points(src[inliers][None], dst[inliers][None], cfg.model)
        if ok[0]:
            best_t = refit[0]
            inliers = _inliers(best_t, src, dst, consensus_dist)
    return AffineTransform(best_t, cfg.model), inliers


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
        if window > min(img.shape):
            raise ValueError(f"descriptor window {window} exceeds the {name} "
                             f"image's smaller side, {min(img.shape)}")
        require_finite(img, name)
    # an even window or an unknown polarity fails before any raster work
    matching = MatchingConfig(window, polarity)

    windows = {}
    for name, img in (("visible", vis), ("infrared", ir)):
        # the input was checked finite above, so the stages skip their own
        # checks; the field is float32, of the image scaled by a power of two
        ix, iy = _gradient_field(img)
        field = lambda rows: (ix[rows], iy[rows])  # noqa: E731
        xs, ys, _ = _detect_corners(
            _harris_score_map(field, img.shape, harris_cfg), harris_cfg)
        edge_map = _canny(field, img.shape, canny_cfg)
        del ix, iy  # release this image's field before the next is built
        windows[name] = _cut_windows(xs, ys, edge_map, matching.window)
        n = len(windows[name].counts)
        if n < 4:
            raise RegistrationError(
                f"corner detection: only {n} descriptorized corners in the "
                f"{name} image (need 4)")
    win_v, win_ir = windows["visible"], windows["infrared"]
    pos_v, pos_ir = win_v.positions, win_ir.positions
    scores = _scores(win_v, win_ir, matching.polarity)

    rng = np.random.default_rng(cfg.rng_seed)
    per_iteration = []
    estimate = None
    # (gate radius about the previous round's estimate, consensus radius)
    rounds = ((None, cfg.inlier_dist_coarse),
              (cfg.gate_dist_coarse, cfg.inlier_dist_coarse),
              (cfg.gate_dist_fine, cfg.inlier_dist_fine))
    for it, (gate_dist, consensus) in enumerate(rounds, 1):
        gate = None if gate_dist is None else (estimate, gate_dist)
        src, dst = _mutual_best(scores, pos_v, pos_ir, gate)
        if len(src) < cfg.model.min_matches:
            raise RegistrationError(
                f"iteration {it} matching: {len(src)} matches, need "
                f"at least {cfg.model.min_matches} for a {cfg.model.value} fit")
        try:
            estimate, agree = _consensus(pos_v[src], pos_ir[dst], cfg,
                                         consensus, rng)
        except RegistrationError as exc:
            raise RegistrationError(f"iteration {it} consensus: {exc}") from exc
        per_iteration.append((estimate, int(np.count_nonzero(agree))))

    # the last round's consensus radius is the fine one
    inliers = _matches(scores, src[agree], dst[agree])
    return RegistrationResult(transform=estimate, inliers=inliers,
                              support=len(inliers),
                              per_iteration=tuple(per_iteration))
