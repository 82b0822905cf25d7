import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crossband import registration
from crossband.descriptor import EdgeDescriptor, build_descriptors
from crossband.edges import EdgeMap, canny
from crossband.errors import DegenerateFitError, RegistrationError
from crossband.evaluation import (SimulationSpec, simulate_pair, synthetic_texture,
                                  translation_error)
from crossband.features import HarrisConfig, detect_corners, harris_score_map
from crossband.image import _magnitudes
from crossband.registration import (Match, RansacConfig, _fit_points, _inliers,
                                    _matches, _minimal_samples, _mutual_best,
                                    fit_least_squares, match_all, positions_of,
                                    ransac_once, register)
from crossband.transform import AffineTransform, TransformKind

from helpers import (best_matches_oracle, canny_field_oracle, corner_arrays_oracle,
                     cut_windows_oracle, design_matrix_oracle, field_oracle,
                     fit_sample_oracle, harris_field_oracle, inliers_oracle,
                     mutual_best_oracle, norm_oracle, normalize_oracle,
                     random_descriptor, residual, residuals_oracle, row_bands,
                     scores_oracle)


def _descriptor_grid(rng, n=12, window=15, spacing=40, origin=(30, 30)):
    descs = []
    for i in range(n):
        x = origin[0] + spacing * (i % 4)
        y = origin[1] + spacing * (i // 4)
        descs.append(random_descriptor(rng, window=window, density=0.35, x=x, y=y))
    return descs


def _best_matches(scores, src, dst, gate):
    """The Match list of `_mutual_best`'s index pairs, as match_all builds it."""
    return _matches(scores, *_mutual_best(scores, src, dst, gate))


def _shift_descriptors(descs, dx, dy):
    return [EdgeDescriptor(x=d.x + dx, y=d.y + dy, edges=d.edges,
                           directions=d.directions, edge_count=d.edge_count)
            for d in descs]


# --- match_all ---------------------------------------------------------------

def test_match_all_self_match():
    rng = np.random.default_rng(0)
    descs = _descriptor_grid(rng)
    matches = match_all(descs, descs)
    assert len(matches) == len(descs)
    for m in matches:
        assert m.src_index == m.dst_index
        assert m.score == np.sqrt(descs[m.src_index].edge_count)
    scores = [m.score for m in matches]
    assert scores == sorted(scores, reverse=True)


def test_match_all_gate_zero_disjoint_positions():
    rng = np.random.default_rng(1)
    a = _descriptor_grid(rng, n=4)
    b = _shift_descriptors(a, 500, 500)
    gate = (AffineTransform.translation(0.0, 0.0), 0.0)
    assert match_all(a, b, gate=gate) == []


def test_match_all_planted_translation():
    rng = np.random.default_rng(2)
    a = _descriptor_grid(rng, n=16, spacing=35)
    b = _shift_descriptors(a, 7, -3)
    matches = match_all(a, b)
    agree = sum(1 for m in matches if m.src_index == m.dst_index)
    assert agree >= 0.9 * len(a)


@st.composite
def _score_cases(draw):
    """A score matrix on a small set of values (so rows and columns tie),
    with some rows and columns zeroed, integer corner positions, and a gate:
    none, one at radius 0 about a half-pixel shift (admits nothing), one
    that admits everything, or one between."""
    n_src, n_dst = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    values = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0])
    scores = np.array(draw(st.lists(values, min_size=n_src * n_dst,
                                    max_size=n_src * n_dst))).reshape(n_src, n_dst)
    scores[draw(st.lists(st.integers(0, n_src - 1), max_size=2)), :] = 0.0
    scores[:, draw(st.lists(st.integers(0, n_dst - 1), max_size=2))] = 0.0
    corners = st.tuples(st.integers(0, 20), st.integers(0, 20))
    src = np.array(draw(st.lists(corners, min_size=n_src, max_size=n_src)), float)
    dst = np.array(draw(st.lists(corners, min_size=n_dst, max_size=n_dst)), float)
    radius = draw(st.one_of(st.none(), st.sampled_from([0.0, 1e6]),
                            st.floats(0.0, 15.0)))
    gate = (None if radius is None
            else (AffineTransform.translation(0.5, 0.25), radius))
    return scores, src, dst, gate


@settings(max_examples=300, deadline=None)
@given(_score_cases())
def test_best_matches_equal_oracle(case):
    scores, src, dst, gate = case
    matches = _best_matches(scores, src, dst, gate)
    assert matches == best_matches_oracle(scores, src, dst, gate)
    assert len({m.dst_index for m in matches}) == len(matches)


def test_match_all_rejects_empty():
    rng = np.random.default_rng(3)
    d = [random_descriptor(rng)]
    with pytest.raises(ValueError):
        match_all([], d)
    with pytest.raises(ValueError):
        match_all(d, [])


# --- residual ----------------------------------------------------------------

def test_residual_examples():
    src = np.array([[0.0, 0.0]])
    m = Match(0, 0, 1.0)
    assert residual(AffineTransform.translation(0.0, 0.0), m, src, src) == 0.0
    t34 = AffineTransform.translation(3, 4)
    assert residual(t34, m, src, np.array([[3.0, 4.0]])) == 0.0
    assert residual(t34, m, src, np.array([[0.0, 0.0]])) == 5.0


# --- fit_least_squares ---------------------------------------------------------

def test_fit_translation_single_match():
    t = fit_least_squares([Match(0, 0, 1.0)], np.array([[0.0, 0.0]]),
                          np.array([[3.0, 4.0]]), TransformKind.TRANSLATION)
    assert t.kind == TransformKind.TRANSLATION
    assert np.allclose(t.m[:, 2], [3, 4])


def test_fit_translation_is_mean_displacement():
    src = np.array([[0.0, 0.0], [1.0, 1.0]])
    dst = np.array([[2.0, 0.0], [5.0, 1.0]])
    t = fit_least_squares([Match(0, 0, 1), Match(1, 1, 1)], src, dst,
                          TransformKind.TRANSLATION)
    assert np.allclose(t.m[:, 2], [3.0, 0.0])


def test_fit_affine_recovers_exact_transform():
    truth = AffineTransform(np.array([[1.1, 0.0, 2.0], [0.0, 0.9, -1.0]]))
    src = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    dst = truth.apply(src)
    matches = [Match(i, i, 1.0) for i in range(3)]
    t = fit_least_squares(matches, src, dst, TransformKind.AFFINE)
    assert np.max(np.abs(t.m - truth.m)) < 1e-9


def test_fit_similarity_recovers_exact_transform():
    truth = AffineTransform.similarity(1.05, -0.1, 4.0, 7.0)
    rng = np.random.default_rng(4)
    src = rng.uniform(0, 100, size=(5, 2))
    dst = truth.apply(src)
    matches = [Match(i, i, 1.0) for i in range(5)]
    t = fit_least_squares(matches, src, dst, TransformKind.SIMILARITY)
    assert t.kind == TransformKind.SIMILARITY
    assert np.max(np.abs(t.m - truth.m)) < 1e-9


def test_fit_rejects_too_few_matches():
    src = np.array([[0.0, 0.0]])
    with pytest.raises(DegenerateFitError):
        fit_least_squares([Match(0, 0, 1)], src, src, TransformKind.AFFINE)
    with pytest.raises(DegenerateFitError):
        fit_least_squares([], src, src, TransformKind.TRANSLATION)


def test_fit_rejects_collinear_affine():
    for src in (np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]),
                np.column_stack([np.arange(10.0), 3.0 * np.arange(10.0) - 7.0])):
        dst = src + 1.0
        matches = [Match(i, i, 1.0) for i in range(len(src))]
        with pytest.raises(DegenerateFitError):
            fit_least_squares(matches, src, dst, TransformKind.AFFINE)


def test_fit_rejects_coincident_points():
    src = np.zeros((3, 2))
    dst = np.zeros((3, 2))
    matches = [Match(i, i, 1.0) for i in range(3)]
    with pytest.raises(DegenerateFitError):
        fit_least_squares(matches, src, dst, TransformKind.SIMILARITY)


@pytest.mark.parametrize("kind", [TransformKind.SIMILARITY, TransformKind.AFFINE])
def test_fit_normal_equation_stationarity(kind):
    rng = np.random.default_rng(5)
    src = rng.uniform(0, 60, size=(40, 2))
    truth = AffineTransform(np.array([[1.02, 0.05, 3.0], [-0.04, 0.98, -2.0]]))
    dst = truth.apply(src) + rng.normal(0, 0.5, size=(40, 2))
    matches = [Match(i, i, 1.0) for i in range(40)]
    t = fit_least_squares(matches, src, dst, kind)

    # residual of the raw (unnormalized) design must be orthogonal to its columns
    n = len(src)
    if kind == TransformKind.SIMILARITY:
        a = np.zeros((2 * n, 4))
        a[0::2, 0], a[0::2, 1], a[0::2, 2] = src[:, 0], -src[:, 1], 1.0
        a[1::2, 0], a[1::2, 1], a[1::2, 3] = src[:, 1], src[:, 0], 1.0
        params = np.array([t.m[0, 0], t.m[1, 0], t.m[0, 2], t.m[1, 2]])
    else:
        a = np.zeros((2 * n, 6))
        a[0::2, 0], a[0::2, 1], a[0::2, 2] = src[:, 0], src[:, 1], 1.0
        a[1::2, 3], a[1::2, 4], a[1::2, 5] = src[:, 0], src[:, 1], 1.0
        params = t.m.reshape(-1)
    b = dst.reshape(-1)
    r = a @ params - b
    assert np.max(np.abs(a.T @ r)) < 1e-8


_GRID = st.integers(-50, 50)
_SAMPLE_CASES = ("similarity", "affine", "random", "collinear", "collapsed",
                 "src-coincident", "dst-coincident", "src-near", "dst-near")


@st.composite
def _minimal_sample_batches(draw):
    """(model, src, dst): a batch of minimal samples on an integer grid, one
    per case in a drawn order: mapped by a random similarity or affine,
    random, collinear, mapped by |det| = 1e-8, or with two points coincident
    or 1e-10 apart on one side."""
    model = draw(st.sampled_from(list(TransformKind)))
    k = model.min_matches
    src, dst = [], []
    for case in draw(st.permutations(_SAMPLE_CASES)):
        s = np.array([[draw(_GRID), draw(_GRID)] for _ in range(k)], float)
        d = np.array([[draw(_GRID), draw(_GRID)] for _ in range(k)], float)
        if case in ("similarity", "affine"):
            angle = draw(st.floats(-np.pi, np.pi))
            rot = np.array([[np.cos(angle), -np.sin(angle)],
                            [np.sin(angle), np.cos(angle)]])
            scale = draw(st.floats(0.5, 2.0))
            lin = scale * rot
            if case == "affine":
                lin = np.array([[scale, draw(st.floats(-0.5, 0.5))],
                                [0.0, draw(st.floats(0.5, 2.0))]]) @ rot
            d = s @ lin.T + np.array([draw(st.floats(-100, 100)),
                                      draw(st.floats(-100, 100))])
        elif case == "collinear":
            step = np.array([draw(st.integers(-5, 5)), draw(st.integers(-5, 5))])
            s = s[0] + np.arange(k)[:, None] * step
        elif case == "collapsed":
            d = s * 1e-4 + d[0]  # |det| = 1e-8
        elif "-" in case and k >= 2:
            side, gap = case.split("-")
            pts = s if side == "src" else d
            pts[1] = pts[0] + (1e-10 if gap == "near" else 0.0)
        src.append(s)
        dst.append(d)
    return model, np.array(src), np.array(dst)


@given(_minimal_sample_batches())
def test_batched_fit_matches_per_sample_oracle(batch):
    model, src, dst = batch
    m, usable = _fit_points(src, dst, model)
    assert m.shape == (len(src), 2, 3)
    for b in range(len(src)):
        expected = fit_sample_oracle(src[b], dst[b], model)
        assert usable[b] == (expected is not None)
        if expected is not None:
            assert np.allclose(m[b], expected, rtol=1e-9, atol=1e-9)


@st.composite
def _refit_sets(draw):
    """(model, src, dst): one noisy set of min + 1 to 60 matches, mapped by
    a random similarity or affine, with one point moved 1e4 times further
    from the origin, or (affine) near-collinear to a drawn relative width."""
    model = draw(st.sampled_from([TransformKind.SIMILARITY, TransformKind.AFFINE]))
    k = draw(st.integers(model.min_matches + 1, 60))
    case = draw(st.sampled_from(
        ["mapped", "outlier"] + (["collinear"] if model == TransformKind.AFFINE
                                 else [])))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    src = rng.uniform(-100.0, 100.0, size=(k, 2))
    if case == "collinear":
        width = 10.0 ** draw(st.floats(-12.0, -1.0))
        along = rng.uniform(-100.0, 100.0, size=(k, 1))
        across = rng.uniform(-100.0, 100.0, size=(k, 1)) * width
        direction = rng.normal(size=2)
        direction /= np.hypot(*direction)
        normal = np.array([-direction[1], direction[0]])
        src = rng.uniform(-50.0, 50.0, size=2) + along * direction + across * normal
    angle = rng.uniform(-np.pi, np.pi)
    lin = rng.uniform(0.5, 2.0) * np.array([[np.cos(angle), -np.sin(angle)],
                                            [np.sin(angle), np.cos(angle)]])
    if model == TransformKind.AFFINE:
        lin = np.array([[1.0, rng.uniform(-0.5, 0.5)],
                        [0.0, rng.uniform(0.5, 2.0)]]) @ lin
    dst = src @ lin.T + rng.uniform(-100.0, 100.0, size=2)
    dst += rng.normal(0.0, 10.0 ** draw(st.floats(-6.0, 1.0)), size=(k, 2))
    if case == "outlier":
        side = draw(st.sampled_from([src, dst]))
        side[draw(st.integers(0, k - 1))] *= 1e4
    # the oracle rejects two points closer than 1e-9 at any size, the
    # library only in minimal samples
    for pts in (src, dst):
        gaps = np.hypot(*(pts[:, None] - pts[None]).T)
        assume(gaps[np.triu_indices(k, 1)].min() >= 1e-9)
    return model, src, dst


def _rss(m, src, dst):
    return float((residuals_oracle(m, src, dst) ** 2).sum())


@settings(max_examples=300, deadline=None)
@given(_refit_sets())
def test_refit_sized_fit_matches_oracle(case):
    # Two fits of an ill-conditioned set may judge it differently near
    # the cond = 1e12 line, so draws whose oracle cond lies in [1e9, 1e15]
    # are skipped; the others must agree on usability, and a usable fit must
    # leave no more than (1 + 1e-5) times the oracle's squared residuals.
    model, src, dst = case
    a_mat = design_matrix_oracle(normalize_oracle(src)[0], model)
    assume(not 1e9 <= np.linalg.cond(a_mat.T @ a_mat) <= 1e15)
    expected = fit_sample_oracle(src, dst, model)
    m, usable = _fit_points(src[None], dst[None], model)
    assert usable[0] == (expected is not None)
    if expected is not None:
        assert _rss(m[0], src, dst) <= (1 + 1e-5) * _rss(expected, src, dst)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 60), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([0.0, 1e-9, 1e-3, 1.0]))
def test_similarity_normal_matrix_condition_is_at_most_2k(k, seed, spread):
    # Why the similarity fit needs no condition check: its normalized
    # normal matrix is diag(S, S, k, k) up to rounding, and with mean
    # distance sqrt(2) from the centroid S / k lies in [2, 2k]. Sets with
    # all but a few points within `spread` of one spot give the largest S / k.
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1e3, 1e3, size=(k, 2))
    n_far = rng.integers(1, k + 1)
    points[n_far:] = points[0] + rng.uniform(-spread, spread, size=(k - n_far, 2))
    normalized = normalize_oracle(points)
    assume(normalized is not None)
    a_mat = design_matrix_oracle(normalized[0], TransformKind.SIMILARITY)
    assert np.linalg.cond(a_mat.T @ a_mat) <= 2 * k


def test_fit_rejects_points_within_1e_12_of_their_centroid():
    src = 5.0 + np.array([[0.0, 0.0], [1e-13, 0.0], [0.0, 1e-13], [1e-13, 1e-13]])
    dst = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
    matches = [Match(i, i, 1.0) for i in range(4)]
    with pytest.raises(DegenerateFitError):
        fit_least_squares(matches, src, dst, TransformKind.SIMILARITY)


def test_fit_rejects_near_singular_transform():
    src = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]])
    dst = src * 1e-4
    matches = [Match(i, i, 1.0) for i in range(3)]
    with pytest.raises(DegenerateFitError):
        fit_least_squares(matches, src, dst, TransformKind.AFFINE)


# --- ransac_once ----------------------------------------------------------------

def test_ransac_all_consistent_translation():
    rng = np.random.default_rng(6)
    src = rng.uniform(0, 200, size=(30, 2))
    dst = src + np.array([3.0, 4.0])
    matches = [Match(i, i, 1.0) for i in range(30)]
    cfg = RansacConfig(model=TransformKind.TRANSLATION, rng_seed=0)
    t, support = ransac_once(matches, src, dst, cfg, consensus_dist=2.0)
    assert support == 30
    assert np.allclose(t.m[:, 2], [3, 4], atol=1e-12)


def test_ransac_majority_inliers_beats_outliers():
    rng = np.random.default_rng(7)
    n_in, n_out = 140, 60
    src = rng.uniform(0, 400, size=(n_in + n_out, 2))
    dst = np.empty_like(src)
    dst[:n_in] = src[:n_in] + np.array([5.0, 0.0]) + rng.normal(0, 0.3, (n_in, 2))
    dst[n_in:] = rng.uniform(0, 400, size=(n_out, 2))
    matches = [Match(i, i, 1.0) for i in range(n_in + n_out)]
    cfg = RansacConfig(model=TransformKind.TRANSLATION, rng_seed=1)
    t, _ = ransac_once(matches, src, dst, cfg, consensus_dist=2.0)
    assert np.hypot(t.m[0, 2] - 5.0, t.m[1, 2]) < 0.5
    assert _is_a_single_match_refit(t, src, dst, 2.0)


def _is_a_single_match_refit(t, src, dst, r):
    """Whether translation t is, within 1e-12, the mean displacement over
    the inliers (within r) of some single match's displacement: the
    least-squares fit of a one-match hypothesis's inliers."""
    shifts = dst - src
    for d in shifts:
        inliers = inliers_oracle(AffineTransform.translation(*d).m, src, dst, r)
        if np.abs(shifts[inliers].mean(axis=0) - t.m[:, 2]).max() <= 1e-12:
            return True
    return False


def test_ransac_translation_is_sub_pixel_on_integer_corners():
    # corners on the pixel grid, planted shift (3.4, -1.6): every one-match
    # hypothesis is an integer shift, and only the fit of its inliers
    # averages the rounding out
    rng = np.random.default_rng(0)
    src = rng.integers(0, 600, size=(200, 2)).astype(np.float64)
    dst = np.round(src + np.array([3.4, -1.6]) + rng.normal(0, 0.7, (200, 2)))
    dst[150:] = rng.integers(0, 600, size=(50, 2))
    matches = [Match(i, i, 1.0) for i in range(200)]
    cfg = RansacConfig(model=TransformKind.TRANSLATION)
    t, _ = ransac_once(matches, src, dst, cfg, 2.0, np.random.default_rng(0))
    assert np.hypot(t.m[0, 2] - 3.4, t.m[1, 2] + 1.6) <= 0.25
    assert _is_a_single_match_refit(t, src, dst, 2.0)


def test_ransac_two_disagreeing_matches_keep_one_displacement():
    src = np.array([[0.0, 0.0], [10.0, 0.0]])
    dst = np.array([[1.0, 0.0], [20.0, 0.0]])  # displacement (1,0) vs (10,0)
    matches = [Match(0, 0, 1.0), Match(1, 1, 1.0)]
    cfg = RansacConfig(model=TransformKind.TRANSLATION, samples_per_iter=50,
                       rng_seed=2)
    t, support = ransac_once(matches, src, dst, cfg, consensus_dist=2.0)
    # each hypothesis supports only itself; the tie goes to the earlier
    # sample, and the fit of its one inlier keeps its displacement
    assert support == 1
    assert np.allclose(t.m[:, 2], dst[0] - src[0]) or \
        np.allclose(t.m[:, 2], dst[1] - src[1])


def test_ransac_higher_support_hypothesis_wins():
    # displacements (0,0) and (0.5,0) support each other; (10,0) is alone
    src = np.array([[0.0, 0.0], [5.0, 0.0], [9.0, 0.0]])
    dst = np.array([[0.0, 0.0], [5.5, 0.0], [19.0, 0.0]])
    matches = [Match(i, i, 1.0) for i in range(3)]
    cfg = RansacConfig(model=TransformKind.TRANSLATION, samples_per_iter=100,
                       rng_seed=4)
    t, support = ransac_once(matches, src, dst, cfg, consensus_dist=1.0)
    assert support == 2
    # refit over the two-inlier consensus: mean displacement (0.25, 0)
    assert np.allclose(t.m[:, 2], [0.25, 0.0], atol=1e-12)


def test_ransac_requires_minimum_matches():
    cfg = RansacConfig(model=TransformKind.AFFINE)
    src = np.zeros((2, 2))
    with pytest.raises(ValueError):
        ransac_once([Match(0, 0, 1), Match(1, 1, 1)], src, src, cfg, 2.0)


def test_ransac_all_degenerate_samples():
    # two matches sharing one source position: every similarity sample is
    # degenerate
    src = np.array([[5.0, 5.0], [5.0, 5.0]])
    dst = np.array([[1.0, 1.0], [9.0, 9.0]])
    matches = [Match(0, 0, 1.0), Match(1, 1, 1.0)]
    cfg = RansacConfig(model=TransformKind.SIMILARITY, samples_per_iter=20,
                       rng_seed=3)
    with pytest.raises(RegistrationError):
        ransac_once(matches, src, dst, cfg, 2.0)


def test_ransac_deterministic():
    rng = np.random.default_rng(8)
    src = rng.uniform(0, 300, size=(50, 2))
    dst = src * 1.04 + np.array([2.0, -7.0])
    dst[::5] = rng.uniform(0, 300, size=(10, 2))
    matches = [Match(i, i, 1.0) for i in range(50)]
    cfg = RansacConfig(model=TransformKind.SIMILARITY, rng_seed=9)
    t1, s1 = ransac_once(matches, src, dst, cfg, 2.0)
    t2, s2 = ransac_once(matches, src, dst, cfg, 2.0)
    assert np.array_equal(t1.m, t2.m)
    assert s1 == s2


def _planted_matches(kind, n, seed):
    """n matches, the first 70% mapped by a planted transform of `kind`."""
    rng = np.random.default_rng(seed)
    truth = {TransformKind.TRANSLATION: AffineTransform.translation(6.0, -4.0),
             TransformKind.SIMILARITY: AffineTransform.similarity(
                 1.03, 0.05, 6.0, -4.0),
             TransformKind.AFFINE: AffineTransform(
                 np.array([[1.04, 0.03, 6.0], [-0.02, 0.97, -4.0]]))}[kind]
    src = rng.uniform(0, 400, size=(n, 2))
    dst = truth.apply(src) + rng.normal(0, 0.3, size=(n, 2))
    n_in = int(0.7 * n)
    dst[n_in:] = rng.uniform(0, 400, size=(n - n_in, 2))
    return [Match(i, i, 1.0) for i in range(n)], src, dst


@pytest.mark.parametrize("kind", list(TransformKind))
@pytest.mark.parametrize("samples", [40, 1000])
def test_ransac_support_is_the_residual_count(kind, samples):
    matches, src, dst = _planted_matches(kind, 200, seed=11)
    cfg = RansacConfig(model=kind, samples_per_iter=samples, rng_seed=5)
    t, support = ransac_once(matches, src, dst, cfg, consensus_dist=2.0)
    assert t.kind == kind
    assert support == np.count_nonzero(residuals_oracle(t.m, src, dst) <= 2.0)


def _drawn_chunks(seed, n, k, sizes):
    """A generator seeded like ransac_once's after it draws these chunks of
    k of n matches: one `integers` call per sample column."""
    rng = np.random.default_rng(seed)
    for size in sizes:
        for top in range(n - k, n):
            rng.integers(0, top + 1, size=size)
    return rng.bit_generator.state


def _mostly_outliers(kind, n, seed, inlier_share=0.1):
    """n matches, the first inlier_share of them on a planted transform."""
    matches, src, dst = _planted_matches(kind, n, seed)
    rng = np.random.default_rng(seed + 1)
    n_in = int(inlier_share * n)
    dst[n_in:] = rng.uniform(0, 400, size=(n - n_in, 2))
    return matches, src, dst


@pytest.mark.parametrize("kind", list(TransformKind))
def test_ransac_stops_after_one_chunk_when_every_match_agrees(kind):
    # the round draws even where C(60, k) <= 1000 (translation: 60 subsets);
    # the first chunk's winner holds every match, so w = 1 and no second
    # chunk is drawn
    truth = (AffineTransform.translation(6.0, -4.0)
             if kind == TransformKind.TRANSLATION else
             AffineTransform(np.array([[1.03, -0.05, 6.0], [0.05, 1.03, -4.0]])))
    src = np.random.default_rng(13).uniform(0, 400, size=(60, 2))
    matches = [Match(i, i, 1.0) for i in range(60)]
    cfg = RansacConfig(model=kind, samples_per_iter=1000)
    rng = np.random.default_rng(3)
    t, support = ransac_once(matches, src, truth.apply(src), cfg, 2.0, rng)
    assert support == 60
    assert rng.bit_generator.state != np.random.default_rng(3).bit_generator.state
    assert rng.bit_generator.state == _drawn_chunks(
        3, 60, kind.min_matches, [registration._SAMPLE_CHUNK])


@pytest.mark.parametrize("kind", [TransformKind.SIMILARITY, TransformKind.AFFINE])
def test_ransac_draws_the_cap_at_a_low_inlier_ratio(kind):
    # 5% inliers: 0.05**k is so small that the stopping rule asks for more
    # than samples_per_iter subsets, so every chunk up to the cap is drawn
    matches, src, dst = _mostly_outliers(kind, 300, seed=14, inlier_share=0.05)
    cfg = RansacConfig(model=kind, samples_per_iter=1000)
    rng = np.random.default_rng(4)
    ransac_once(matches, src, dst, cfg, 2.0, rng)
    assert rng.bit_generator.state == _drawn_chunks(
        4, 300, kind.min_matches, [registration._SAMPLE_CHUNK] * 10)


@pytest.mark.parametrize("share", [0.05, 1.0])
def test_ransac_draws_exactly_a_cap_below_one_chunk(share):
    kind = TransformKind.AFFINE
    matches, src, dst = _mostly_outliers(kind, 100, seed=15, inlier_share=share)
    cfg = RansacConfig(model=kind, samples_per_iter=40)
    rng = np.random.default_rng(5)
    ransac_once(matches, src, dst, cfg, 2.0, rng)
    assert rng.bit_generator.state == _drawn_chunks(5, 100, 3, [40])


@pytest.mark.parametrize("kind", list(TransformKind))
def test_ransac_memory_stays_within_a_few_chunk_arrays(kind):
    # one chunk's support is scored in one pass: its residual temporaries
    # are a few (_SAMPLE_CHUNK, n) float64 arrays (about 6.4 measured), far
    # below the (n, n) score matrix that register holds anyway
    n = 2000
    matches, src, dst = _mostly_outliers(kind, n, seed=17, inlier_share=0.05)
    cfg = RansacConfig(model=kind)
    tracemalloc.start()
    try:
        ransac_once(matches, src, dst, cfg, 2.0, np.random.default_rng(7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * registration._SAMPLE_CHUNK * n * 8


@pytest.mark.parametrize("kind", [TransformKind.SIMILARITY, TransformKind.AFFINE])
@pytest.mark.parametrize("share", [0.05, 0.3, 0.7])
def test_ransac_drawn_rounds_are_bit_identical(kind, share):
    matches, src, dst = _mostly_outliers(kind, 200, seed=16, inlier_share=share)
    cfg = RansacConfig(model=kind, samples_per_iter=1000)
    runs = []
    for _ in range(2):
        rng = np.random.default_rng(6)
        t, support = ransac_once(matches, src, dst, cfg, 2.0, rng)
        runs.append((t.m.tobytes(), support, rng.bit_generator.state))
    assert runs[0] == runs[1]


def test_one_to_one_matching_leaves_no_collapse(monkeypatch):
    # 15 sources on a similarity, and 40 scattered sources scored onto two
    # infrared corners 1 px apart, above every true pair. Taken row by row,
    # all 40 would pile onto the two corners; one-to-one, each corner keeps
    # one match, its first best.
    rng = np.random.default_rng(12)
    truth = AffineTransform.similarity(1.02, 0.03, 6.0, -4.0)
    n_true, n_pile = 15, 40
    src = rng.uniform(0, 400, size=(n_true + n_pile, 2))
    dst = np.vstack([truth.apply(src[:n_true]), [[200.0, 200.0], [201.0, 200.0]]])
    scores = np.zeros((n_true + n_pile, n_true + 2))
    scores[np.arange(n_true), np.arange(n_true)] = 1.0
    scores[n_true + np.arange(n_pile), n_true + np.arange(n_pile) % 2] = 2.0
    assert np.bincount(np.argmax(scores, axis=1))[n_true:].tolist() == [20, 20]

    def descriptors(points):
        return [random_descriptor(rng, x=x, y=y) for x, y in points]
    monkeypatch.setattr(registration, "score_matrix", lambda p, q, polarity: scores)
    matches = match_all(descriptors(src), descriptors(dst))
    assert sorted((m.src_index, m.dst_index) for m in matches) == (
        [(i, i) for i in range(n_true + 2)])

    cfg = RansacConfig(model=TransformKind.SIMILARITY)
    t, support = ransac_once(matches, src, dst, cfg, consensus_dist=5.0)
    assert np.allclose(t.m, truth.m, atol=1e-9)
    assert support == n_true


def test_ransac_degenerate_error_counts_every_sample_tried():
    # every match shares one source position: each drawn pair is degenerate
    src = np.full((40, 2), 5.0)
    dst = np.random.default_rng(17).uniform(0, 100, size=(40, 2))
    matches = [Match(i, i, 1.0) for i in range(40)]
    cfg = RansacConfig(model=TransformKind.SIMILARITY, samples_per_iter=250)
    with pytest.raises(RegistrationError, match="all 250 sampled"):
        ransac_once(matches, src, dst, cfg, 2.0)


def _near(r):
    """Values at, and one ulp either side of, +-r: the circle's crossings of
    the axes (one ulp beyond the largest double is inf)."""
    out = []
    with np.errstate(over="ignore"):
        for v in (r, -r):
            out += [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]
    return out


_MAX = float(np.finfo(np.float64).max)
_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, 1e-300]


@st.composite
def _offsets(draw):
    # 1e-160 and up: r*r is subnormal or overflows; no pair is within -2
    r = draw(st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 2.0, 5.0, 15.0,
                                        1e-160, 1e160, 1e300, _MAX, -2.0]),
                       st.floats(0.0, 1e3)))
    value = st.one_of(st.sampled_from(_SPECIAL + _near(r)),
                      st.floats(-2 * abs(r) - 1, 2 * abs(r) + 1),
                      st.floats(-2.0, 2.0).map(lambda v: v * r),
                      st.floats(allow_nan=True, allow_infinity=True))
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        # on the circle: np.hypot within an ulp or two of r
        theta = np.array(draw(st.lists(st.floats(0.0, 2.0 * np.pi),
                                       min_size=n, max_size=n)))
        return r * np.cos(theta), r * np.sin(theta), r
    dx = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    dy = np.array(draw(st.lists(value, min_size=n, max_size=n)))
    return dx, dy, r


@settings(max_examples=500, deadline=None)
@given(_offsets())
def test_distance_test_equals_norm_oracle(case):
    dx, dy, r = case
    n = len(dx)
    # matrix b of the stack sends the origin to (dx[b], 0), and match j's
    # partner is (0, -dy[j]), so the inlier test sees the offset (dx[b], dy[j])
    stack = np.tile(np.eye(2, 3), (n, 1, 1))
    stack[:, 0, 2] = dx
    dst = np.column_stack([np.zeros(n), -dy])
    with np.errstate(over="ignore"):  # hypot of two huge finite offsets
        for x, y in ((dx, dy), (dx[:, None], dy[None, :])):
            assert _magnitudes(x, y).tobytes() == norm_oracle(x, y).tobytes()
        assert np.array_equal(_inliers(stack, np.zeros((n, 2)), dst, r),
                              norm_oracle(dx[:, None], dy[None, :]) <= r)


@settings(max_examples=500, deadline=None)
@given(_offsets())
def test_magnitudes_within_2_to_minus_50_of_hypot(case):
    dx, dy, _ = case
    x, y = dx[:, None], dy[None, :]
    with np.errstate(over="ignore"):
        mag, exact = _magnitudes(x, y), np.hypot(x, y)
        q = x * x + y * y
    inside = (q >= 2.0 ** -960) & (q <= 2.0 ** 960)
    assert np.array_equal(mag[~inside], exact[~inside], equal_nan=True)
    assert np.all(np.abs(mag[inside] - exact[inside]) <= 2.0 ** -50 * exact[inside])


def test_inliers_of_a_stack_equal_each_matrix_alone():
    # consensus scores the winner inside a stack, then recounts it alone
    rng = np.random.default_rng(12)
    stack = rng.normal(size=(7, 2, 3))
    src = rng.uniform(0, 400, size=(50, 2))
    dst = rng.uniform(0, 400, size=(50, 2))
    seen = set()
    for r in (2.0, 50.0, 400.0):
        together = _inliers(stack, src, dst, r)
        assert together.shape == (7, 50)
        seen.update(together.ravel().tolist())
        for m, row in zip(stack, together):
            assert np.array_equal(_inliers(m, src, dst, r), row)
            assert np.array_equal(inliers_oracle(m, src, dst, r), row)
    assert seen == {False, True}


def test_minimal_samples_are_uniform_distinct_subsets():
    rng = np.random.default_rng(13)
    n, k = 40, 3
    counts = np.zeros(n)
    for _ in range(100):
        samples = _minimal_samples(n, k, 500, rng)
        assert samples.shape == (500, k)
        assert ((samples >= 0) & (samples < n)).all()
        assert (np.sort(samples, axis=1)[:, 1:]
                != np.sort(samples, axis=1)[:, :-1]).all()
        counts += np.bincount(samples.ravel(), minlength=n)
    # each index has probability k/n per sample: 3750 expected, sd ~59
    assert np.abs(counts - 100 * 500 * k / n).max() < 400


@pytest.mark.parametrize("n,k", [(1, 1), (3, 3), (5, 3), (60, 1)])
def test_minimal_samples_draw_spaces_no_larger_than_the_count(n, k):
    rng = np.random.default_rng(14)
    samples = _minimal_samples(n, k, 100, rng)
    assert samples.shape == (100, k)
    assert ((samples >= 0) & (samples < n)).all()
    assert (np.sort(samples, axis=1)[:, 1:]
            != np.sort(samples, axis=1)[:, :-1]).all()
    # integers(0, 1) consumes nothing, so only a one-match space leaves
    # the generator where it was
    advanced = rng.bit_generator.state != np.random.default_rng(14).bit_generator.state
    assert advanced == (n > 1)


def test_ransac_config_validation():
    with pytest.raises(ValueError):
        RansacConfig(samples_per_iter=0)
    with pytest.raises(ValueError):
        RansacConfig(inlier_dist_fine=5.0, inlier_dist_coarse=2.0)
    with pytest.raises(ValueError):
        RansacConfig(gate_dist_fine=20.0, gate_dist_coarse=15.0)
    with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
        RansacConfig(rng_seed=-1)


# --- register -------------------------------------------------------------------

def test_register_self_is_identity():
    img = synthetic_texture(128, seed=20)
    result = register(img, img)
    t = result.transform
    assert np.hypot(t.m[0, 2], t.m[1, 2]) < 0.5
    assert result.support >= 4
    assert len(result.per_iteration) == 3


def test_register_inverted_translation():
    base = synthetic_texture(256, seed=21)
    spec = SimulationSpec(modality="invert", noise_sigma=0.0, rng_seed=5)
    v, ir, t_eff = simulate_pair(base, AffineTransform.translation(7, -3), spec)
    result = register(v, ir)
    err = np.hypot(result.transform.m[0, 2] - t_eff.m[0, 2],
                   result.transform.m[1, 2] - t_eff.m[1, 2])
    assert err < 1.0


def test_register_no_common_content():
    a = synthetic_texture(128, seed=22)
    b = synthetic_texture(128, seed=23)
    try:
        result = register(a, b)
    except RegistrationError:
        return  # an outright failure is acceptable for unrelated content
    matches = max(len(result.inliers), 1)
    total_possible = 400
    assert result.support < 0.10 * total_possible or result.support < 10


def test_register_deterministic():
    base = synthetic_texture(160, seed=24)
    spec = SimulationSpec(modality="invert", noise_sigma=0.02, rng_seed=6)
    v, ir, _ = simulate_pair(base, AffineTransform.translation(4, 2), spec)
    r1 = register(v, ir)
    r2 = register(v, ir)
    assert np.array_equal(r1.transform.m, r2.transform.m)
    assert r1.support == r2.support
    assert r1.inliers == r2.inliers
    assert all(np.array_equal(a[0].m, b[0].m) and a[1] == b[1]
               for a, b in zip(r1.per_iteration, r2.per_iteration))


@pytest.mark.parametrize("model", list(TransformKind))
def test_register_is_invariant_to_power_of_two_band_scales(model):
    # the front end scales each band so that its largest |pixel| lies in
    # (0.5, 1] before its float32 cast, exactly, so a power-of-two scale of
    # a band changes nothing, even where float64 would overflow or lose its
    # significands to underflow at the parent's 2**1000 and 2**-900
    base = synthetic_texture(256, seed=34)
    spec = SimulationSpec(modality="invert+gamma", rng_seed=9)
    t_true = AffineTransform.similarity(1.03, -0.04, 6.5, -4.0)
    v, ir, _ = simulate_pair(base, t_true, spec)
    cfg = RansacConfig(model=model)
    want = register(v, ir, cfg=cfg)
    for a, b in ((4.0, 0.25), (2.0 ** 100, 2.0 ** -100), (2.0 ** -60, 1.0),
                 (2.0 ** 1000, 1.0), (1.0, 2.0 ** -900)):
        got = register(a * v, b * ir, cfg=cfg)
        assert got.transform.m.tobytes() == want.transform.m.tobytes()
        assert got.inliers == want.inliers
        assert ([(t.m.tobytes(), n) for t, n in got.per_iteration]
                == [(t.m.tobytes(), n) for t, n in want.per_iteration])


def _register_translation_input(seed, op):
    """The benchmark's register-translation input number `op` for `seed`: a
    640x480 texture, a translation of up to 20 px each way, and an
    invert+gamma pair registered with the translation model."""
    rng = np.random.default_rng([seed, zlib.crc32(b"register-translation"), op])
    base = synthetic_texture(640, 480, seed=int(rng.integers(1 << 31)))
    tx, ty = rng.uniform(-20.0, 20.0, size=2)
    spec = SimulationSpec(modality="invert+gamma", gamma=2.2, noise_sigma=0.02)
    v, ir, _ = simulate_pair(base, AffineTransform.translation(float(tx), float(ty)),
                             spec, rng)
    return v, ir, TransformKind.TRANSLATION


def _metamorphic_input(case):
    workload, op = case
    if workload == "translation":
        return _register_translation_input(14, op)
    v, ir, _, _, model = _register_scaled_input(14, op)
    return v, ir, model


def _frame_gap(a, b, shape):
    """Largest distance between where two transforms put the four corners
    of a frame of this shape."""
    h, w = shape
    corners = np.array([[0.0, 0.0], [w - 1.0, 0.0], [0.0, h - 1.0],
                        [w - 1.0, h - 1.0]])
    d = a(corners) - b(corners)
    return float(np.max(np.hypot(d[:, 0], d[:, 1])))


# Seed 14: translation ops 0 and 1; scaled ops 0 and 2 (similarity) and 1 and
# 3 (affine), the benchmark's inputs.
_METAMORPHIC_CASES = [("translation", 0), ("translation", 1), ("scaled", 0),
                      ("scaled", 1), ("scaled", 2), ("scaled", 3)]


@pytest.mark.parametrize("case", _METAMORPHIC_CASES)
def test_register_swapped_bands_give_the_inverse(case):
    # registering infrared onto visible estimates the inverse map; the
    # bound is the largest gap measured at the frame corners over 20 ops of
    # each register workload (0.161 px scaled, 0.008 px translation)
    v, ir, model = _metamorphic_input(case)
    cfg = RansacConfig(model=model)
    forward = register(v, ir, cfg=cfg, polarity="both").transform
    backward = register(ir, v, cfg=cfg, polarity="both").transform
    tolerance = 0.008 if model == TransformKind.TRANSLATION else 0.161
    assert _frame_gap(backward.apply, forward.inverse().apply, ir.shape) <= tolerance


@pytest.mark.parametrize("case", _METAMORPHIC_CASES)
def test_register_mirrored_bands_give_the_mirrored_transform(case):
    # mirroring both bands left to right mirrors the estimate: x -> w - 1 - x
    # on each side of it, within 1.5 px at the frame corners
    v, ir, model = _metamorphic_input(case)
    cfg = RansacConfig(model=model)
    forward = register(v, ir, cfg=cfg, polarity="both").transform
    mirrored = register(np.fliplr(v), np.fliplr(ir), cfg=cfg,
                        polarity="both").transform

    def mirror(p, w):
        return np.column_stack([w - 1.0 - p[:, 0], p[:, 1]])

    def want(p):
        return mirror(forward.apply(mirror(p, v.shape[1])), ir.shape[1])
    assert _frame_gap(mirrored.apply, want, v.shape) <= 1.5


def test_register_inliers_recheck():
    base = synthetic_texture(160, seed=25)
    spec = SimulationSpec(modality="invert", noise_sigma=0.01, rng_seed=7)
    v, ir, _ = simulate_pair(base, AffineTransform.translation(-5, 6), spec)
    cfg = RansacConfig()
    result = register(v, ir, cfg=cfg)

    harris_cfg, canny_cfg = HarrisConfig(), None
    # rebuild descriptor positions the same way register does
    from crossband.edges import CannyConfig
    canny_cfg = CannyConfig()
    dv = build_descriptors(
        detect_corners(harris_score_map(v, harris_cfg), harris_cfg),
        canny(v, canny_cfg), 31)
    di = build_descriptors(
        detect_corners(harris_score_map(ir, harris_cfg), harris_cfg),
        canny(ir, canny_cfg), 31)
    pv, pi = positions_of(dv), positions_of(di)
    for m in result.inliers:
        assert residual(result.transform, m, pv, pi) <= cfg.inlier_dist_fine + 1e-9


def _planted_pair():
    base = synthetic_texture(128, seed=29)
    spec = SimulationSpec(modality="invert", noise_sigma=0.01, rng_seed=8)
    t_true = AffineTransform.similarity(1.02, 0.03, 3.0, -2.0)
    v, ir, _ = simulate_pair(base, t_true, spec)
    return v, ir


@pytest.mark.parametrize("model", list(TransformKind))
def test_register_equals_oracle_front_end(model, monkeypatch):
    v, ir = _planted_pair()
    cfg = RansacConfig(model=model)
    fast = register(v, ir, cfg=cfg)

    # the whole-image float32 field through the oracles, then both stages
    # from it
    monkeypatch.setattr(registration, "_gradient_field", field_oracle)
    monkeypatch.setattr(
        registration, "_harris_score_map",
        lambda field, shape, c: harris_field_oracle(*field(slice(None)), c))
    monkeypatch.setattr(
        registration, "_canny",
        lambda field, shape, c: EdgeMap(*canny_field_oracle(*field(slice(None)), c)))
    monkeypatch.setattr(registration, "_detect_corners", corner_arrays_oracle)
    monkeypatch.setattr(registration, "_cut_windows", cut_windows_oracle)
    monkeypatch.setattr(registration, "_scores", scores_oracle)
    monkeypatch.setattr(registration, "_mutual_best", mutual_best_oracle)
    monkeypatch.setattr(registration, "_inliers", inliers_oracle)
    slow = register(v, ir, cfg=cfg)
    assert fast.transform.m.tobytes() == slow.transform.m.tobytes()
    assert fast.inliers == slow.inliers
    assert ([(t.m.tobytes(), n) for t, n in fast.per_iteration]
            == [(t.m.tobytes(), n) for t, n in slow.per_iteration])
    assert len(fast.inliers) >= model.min_matches


def test_the_front_end_runs_without_ndimage_correlate1d(monkeypatch):
    # the float32 front end makes both passes with its own tap loop; only
    # the float64 stages (fusion here) call ndimage's
    from crossband import image
    from crossband.fusion import fuse_pair

    def refuse(*args, **kwargs):
        raise AssertionError("ndimage.correlate1d was called")

    v, ir = _planted_pair()
    monkeypatch.setattr(image.ndimage, "correlate1d", refuse)
    result = register(v, ir)
    assert len(result.inliers) >= 4
    harris_score_map(v)
    canny(ir)
    rgb = np.repeat(v[:, :, None], 3, axis=2)
    with pytest.raises(AssertionError, match="correlate1d was called"):
        fuse_pair(rgb, ir)
    monkeypatch.undo()
    fuse_pair(rgb, ir)


def test_register_differentiates_each_row_once(monkeypatch):
    from crossband import edges, features, image
    rows = []
    gradient_rows = image._gradient_rows

    def counted(arr, r):
        rows.append(len(range(*r.indices(arr.shape[0]))))
        return gradient_rows(arr, r)

    # in every front-end module, so a stage that differentiates on its own
    # is counted too
    for module in (image, features, edges):
        monkeypatch.setattr(module, "_gradient_rows", counted, raising=False)
    v = synthetic_texture(157, 126, seed=30)
    ir = synthetic_texture(157, 126, seed=31)
    register(v, ir)
    assert sum(rows) == v.shape[0] + ir.shape[0]


def test_register_makes_no_descriptors_and_one_match_per_inlier(monkeypatch):
    made = {EdgeDescriptor: 0, Match: 0}

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            made[cls] += 1
            init(self, *args, **kwargs)
        return counted

    for cls in made:
        monkeypatch.setattr(cls, "__init__", counting(cls))
    v, ir = _planted_pair()
    result = register(v, ir)
    assert made[EdgeDescriptor] == 0
    assert made[Match] == len(result.inliers) >= 4


def test_register_front_end_equals_the_public_stages(monkeypatch):
    v, ir = _planted_pair()
    harris_cfg = HarrisConfig()
    seen = []
    cut = registration._cut_windows

    def recording(xs, ys, edge_map, window):
        seen.append((xs, ys, edge_map))
        return cut(xs, ys, edge_map, window)

    monkeypatch.setattr(registration, "_cut_windows", recording)
    register(v, ir, harris_cfg)
    assert len(seen) == 2
    for img, (xs, ys, edge_map) in zip((v, ir), seen):
        corners = detect_corners(harris_score_map(img, harris_cfg), harris_cfg)
        assert (xs.tolist(), ys.tolist()) == ([c.x for c in corners],
                                              [c.y for c in corners])
        public = canny(img)
        assert edge_map.edges.tobytes() == public.edges.tobytes()
        assert edge_map.directions.tobytes() == public.directions.tobytes()


def test_register_peak_memory_on_a_640x480_pair():
    # per image, a float32 field built band by band and a float32 Harris
    # map: a traced peak of 8.4 MiB (numpy 2.4, x86-64) on the benchmark's
    # register-scaled seed-61 op 0, where the float64 front end took 11.8
    v, ir, _, _, model = _register_scaled_input(61, 0)
    cfg = RansacConfig(model=model)
    register(v, ir, cfg=cfg, polarity="both")
    tracemalloc.start()
    try:
        register(v, ir, cfg=cfg, polarity="both")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2 ** 20


def test_register_rejects_a_window_wider_than_an_image():
    big, small = synthetic_texture(128, seed=32), synthetic_texture(128, 96, seed=33)
    with pytest.raises(ValueError, match="window 201 exceeds the visible image's"):
        register(big, big, window=201)
    with pytest.raises(ValueError, match="window 97 exceeds the infrared image's "
                                         "smaller side, 96"):
        register(big, small, window=97)


@pytest.mark.parametrize("option, message", [
    ({"window": 30}, r"window must be odd and in \[5, 4095\], got 30"),
    ({"polarity": "sideways"}, "unknown polarity mode 'sideways'"),
], ids=["even-window", "unknown-polarity"])
def test_register_rejects_a_bad_window_or_polarity_before_raster_work(
        monkeypatch, option, message):
    def no_raster_work(img):
        raise AssertionError("the gradient field was built")
    monkeypatch.setattr(registration, "_gradient_field", no_raster_work)
    img = synthetic_texture(96, seed=34)
    with pytest.raises(ValueError, match=message):
        register(img, img, **option)


@pytest.mark.parametrize("model", list(TransformKind))
def test_register_same_for_any_band_height(model):
    v, ir = _planted_pair()
    cfg = RansacConfig(model=model)
    results = []
    for rows in (16, v.shape[0]):  # many bands, then the whole image as one
        with row_bands(rows):
            results.append(register(v, ir, cfg=cfg))
    banded, whole = results
    assert banded.transform.m.tobytes() == whole.transform.m.tobytes()
    assert banded.inliers == whole.inliers
    assert len(banded.inliers) >= model.min_matches


def test_register_rejects_small_images():
    with pytest.raises(ValueError):
        register(np.zeros((32, 128)), np.zeros((128, 128)))


@pytest.mark.parametrize("band", ["visible", "infrared"])
def test_register_rejects_non_finite_pixels(band):
    images = {"visible": synthetic_texture(96, seed=27),
              "infrared": synthetic_texture(96, seed=28)}
    images[band][40, 50] = np.inf
    with pytest.raises(ValueError, match=f"{band} image has 1 non-finite"):
        register(images["visible"], images["infrared"])


def test_register_checks_each_band_finite_once(monkeypatch):
    from crossband import edges, features
    calls = []

    def counting(module):
        check = module.require_finite

        def counted(img, name):
            calls.append((module.__name__, name))
            return check(img, name)
        return counted

    for module in (registration, features, edges):
        monkeypatch.setattr(module, "require_finite", counting(module))
    v, ir = _planted_pair()
    register(v, ir)
    assert calls == [("crossband.registration", "visible"),
                     ("crossband.registration", "infrared")]


def _register_scaled_input(seed, op):
    """The benchmark's register-scaled input number `op` for `seed`: a
    640x480 texture, a similarity planted about the frame centre, and an
    invert+gamma pair; even ops use the similarity model, odd ops affine."""
    rng = np.random.default_rng([seed, zlib.crc32(b"register-scaled"), op])
    base = synthetic_texture(640, 480, seed=int(rng.integers(1 << 31)))
    scale, angle = rng.uniform(0.9, 1.1), np.deg2rad(rng.uniform(-2.0, 2.0))
    shift = rng.uniform(-10.0, 10.0, size=2)
    lin = scale * np.array([[np.cos(angle), -np.sin(angle)],
                            [np.sin(angle), np.cos(angle)]])
    centre = np.array([639 / 2.0, 479 / 2.0])
    t = centre + shift - lin @ centre
    t_true = AffineTransform.similarity(float(lin[0, 0]), float(lin[1, 0]),
                                        float(t[0]), float(t[1]))
    spec = SimulationSpec(modality="invert+gamma", gamma=2.2, noise_sigma=0.02)
    v, ir, t_eff = simulate_pair(base, t_true, spec, rng)
    model = (TransformKind.SIMILARITY, TransformKind.AFFINE)[op % 2]
    return v, ir, t_eff, t_true.scale(), model


@pytest.mark.parametrize("op", [31, 36])
def test_register_scaled_seed_46_lands_within_criterion_2(op):
    # op 36 once collapsed onto two infrared corners (scale 0.017), and op 31
    # locked onto a wrong anisotropic fit after a round-1 winner of support 7
    v, ir, t_eff, scale, model = _register_scaled_input(46, op)
    result = register(v, ir, cfg=RansacConfig(model=model), polarity="both")
    assert translation_error(result.transform, t_eff) <= 2.0
    assert abs(result.transform.scale() - scale) <= 0.01


@pytest.mark.parametrize("scale", [1e80, 1e300])
def test_register_large_finite_input_registers(scale):
    # in float64 the Harris score of 1e80-scaled input overflowed
    tex = synthetic_texture(128, seed=1) * scale
    t = register(tex, tex).transform
    assert np.hypot(t.m[0, 2], t.m[1, 2]) < 0.5


def test_register_featureless_image_fails_with_stage():
    flat = np.full((96, 96), 0.5)
    tex = synthetic_texture(96, seed=26)
    with pytest.raises(RegistrationError, match="corner detection"):
        register(flat, tex)


def test_gate_admissibility_nests():
    rng = np.random.default_rng(9)
    a = _descriptor_grid(rng, n=16, spacing=25)
    b = _shift_descriptors(a, 3, 1)
    t = AffineTransform.translation(0.0, 0.0)
    small = match_all(a, b, gate=(t, 5.0))
    large = match_all(a, b, gate=(t, 50.0))
    small_pairs = {(m.src_index, m.dst_index) for m in small}
    projected, pos_b = t.apply(positions_of(a)), positions_of(b)
    dist = _magnitudes(projected[:, None, 0] - pos_b[None, :, 0],
                       projected[:, None, 1] - pos_b[None, :, 1])
    # every pair admissible under the small gate stays admissible under the
    # large one (the chosen assignment may legitimately differ)
    for p, q in small_pairs:
        assert dist[p, q] <= 50.0
    # a large-gate match that the small gate admits is a small-gate match:
    # removing candidates cannot unseat the first best of a row and a column
    inside = {(m.src_index, m.dst_index) for m in large
              if dist[m.src_index, m.dst_index] <= 5.0}
    assert inside and inside <= small_pairs


def test_larger_gate_can_move_a_match_to_another_source():
    # mutual-best matching: at r = 50 source 1 also reaches the one
    # destination and outscores source 0, which is then left unmatched
    scores = np.array([[1.0], [2.0]])
    src = np.array([[0.0, 0.0], [10.0, 0.0]])
    dst = np.array([[0.0, 0.0]])
    t = AffineTransform.translation(0.0, 0.0)
    assert _best_matches(scores, src, dst, (t, 5.0)) == [Match(0, 0, 1.0)]
    assert _best_matches(scores, src, dst, (t, 50.0)) == [Match(1, 0, 2.0)]
