import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crossband import registration
from crossband.descriptor import EdgeDescriptor, build_descriptors
from crossband.edges import EdgeMap, canny
from crossband.errors import DegenerateFitError, RegistrationError
from crossband.evaluation import SimulationSpec, simulate_pair, synthetic_texture
from crossband.features import HarrisConfig, detect_corners, harris_score_map
from crossband.registration import (Match, RansacConfig, _fit_points,
                                    _inliers, _minimal_samples, _within,
                                    fit_least_squares, match_all, positions_of,
                                    ransac_once, register)
from crossband.transform import AffineTransform, TransformKind

from helpers import (canny_oracle, design_matrix_oracle, detect_corners_oracle,
                     fit_sample_oracle, gate_oracle, inliers_oracle,
                     normalize_oracle, random_descriptor, residual,
                     residuals_oracle, row_bands, score_matrix_oracle)


def _descriptor_grid(rng, n=12, window=15, spacing=40, origin=(30, 30)):
    descs = []
    for i in range(n):
        x = origin[0] + spacing * (i % 4)
        y = origin[1] + spacing * (i // 4)
        descs.append(random_descriptor(rng, window=window, density=0.35, x=x, y=y))
    return descs


def _shift_descriptors(descs, dx, dy):
    return [EdgeDescriptor(x=d.x + dx, y=d.y + dy, edges=d.edges,
                           directions=d.directions, n_bins=d.n_bins,
                           edge_count=d.edge_count) for d in descs]


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
    gate = (AffineTransform.identity(), 0.0)
    assert match_all(a, b, gate=gate) == []


def test_match_all_planted_translation():
    rng = np.random.default_rng(2)
    a = _descriptor_grid(rng, n=16, spacing=35)
    b = _shift_descriptors(a, 7, -3)
    matches = match_all(a, b)
    agree = sum(1 for m in matches if m.src_index == m.dst_index)
    assert agree >= 0.9 * len(a)


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
    assert residual(AffineTransform.identity(), m, src, src) == 0.0
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
    t, support = ransac_once(matches, src, dst, cfg, consensus_dist=2.0)
    assert np.hypot(t.m[0, 2] - 5.0, t.m[1, 2]) < 0.5

    # exhaustive single-hypothesis oracle: every match displacement as T
    best_single = 0
    for i in range(len(matches)):
        d = dst[i] - src[i]
        res = np.hypot(*(src + d - dst).T)
        best_single = max(best_single, int((res <= 2.0).sum()))
    assert support >= best_single


def test_ransac_two_matches_exhaustive():
    src = np.array([[0.0, 0.0], [10.0, 0.0]])
    dst = np.array([[1.0, 0.0], [20.0, 0.0]])  # displacement (1,0) vs (10,0)
    matches = [Match(0, 0, 1.0), Match(1, 1, 1.0)]
    cfg = RansacConfig(model=TransformKind.TRANSLATION, samples_per_iter=50,
                       rng_seed=2)
    t, support = ransac_once(matches, src, dst, cfg, consensus_dist=2.0)
    # each hypothesis supports only itself; tie goes to the earliest sampled,
    # and the refit keeps the winning displacement
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


@pytest.mark.parametrize("kind,n", [(TransformKind.TRANSLATION, 40),
                                    (TransformKind.SIMILARITY, 30),
                                    (TransformKind.AFFINE, 12)])
def test_ransac_enumerates_small_sample_spaces(kind, n):
    # C(n, k) <= samples_per_iter: every subset is fitted and none is drawn
    matches, src, dst = _planted_matches(kind, n, seed=10)
    cfg = RansacConfig(model=kind, samples_per_iter=1000)
    results = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        state = rng.bit_generator.state
        results.append(ransac_once(matches, src, dst, cfg, 2.0, rng))
        assert rng.bit_generator.state == state
    results.append(ransac_once(matches, src, dst, cfg, 2.0))
    for t, support in results[1:]:
        assert np.array_equal(t.m, results[0][0].m)
        assert support == results[0][1]


@pytest.mark.parametrize("kind", list(TransformKind))
@pytest.mark.parametrize("samples", [40, 1000])
def test_ransac_support_is_the_residual_count(kind, samples):
    matches, src, dst = _planted_matches(kind, 200, seed=11)
    cfg = RansacConfig(model=kind, samples_per_iter=samples, rng_seed=5)
    t, support = ransac_once(matches, src, dst, cfg, consensus_dist=2.0)
    assert t.kind == kind
    assert support == np.count_nonzero(residuals_oracle(t.m, src, dst) <= 2.0)


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
def test_within_equals_hypot_compare(case):
    dx, dy, r = case
    with np.errstate(over="ignore"):  # hypot of two huge finite offsets
        assert np.array_equal(_within(dx, dy, r), np.hypot(dx, dy) <= r)
        assert np.array_equal(_within(dx[:, None], dy[None, :], r),
                              np.hypot(dx[:, None], dy[None, :]) <= r)


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


def test_minimal_samples_lists_small_spaces_in_order():
    rng = np.random.default_rng(14)
    state = rng.bit_generator.state
    samples = _minimal_samples(5, 3, 10, rng)
    assert samples.tolist() == [list(c) for c in itertools.combinations(range(5), 3)]
    assert rng.bit_generator.state == state


def test_ransac_config_validation():
    with pytest.raises(ValueError):
        RansacConfig(samples_per_iter=0)
    with pytest.raises(ValueError):
        RansacConfig(inlier_dist_fine=5.0, inlier_dist_coarse=2.0)
    with pytest.raises(ValueError):
        RansacConfig(gate_dist_fine=20.0, gate_dist_coarse=15.0)


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

    monkeypatch.setattr(registration, "canny",
                        lambda img, c: EdgeMap(*canny_oracle(img, c), 16))
    monkeypatch.setattr(registration, "detect_corners", detect_corners_oracle)
    monkeypatch.setattr(registration, "score_matrix", score_matrix_oracle)
    monkeypatch.setattr(registration, "_gate", gate_oracle)
    monkeypatch.setattr(registration, "_inliers", inliers_oracle)
    slow = register(v, ir, cfg=cfg)
    assert fast.transform.m.tobytes() == slow.transform.m.tobytes()
    assert fast.inliers == slow.inliers
    assert ([(t.m.tobytes(), n) for t, n in fast.per_iteration]
            == [(t.m.tobytes(), n) for t, n in slow.per_iteration])
    assert len(fast.inliers) >= model.min_matches


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


def test_register_finite_input_overflowing_harris_names_the_input():
    tex = synthetic_texture(128, seed=1) * 1e80
    with pytest.raises(ValueError, match="input image values overflow the Harris score"):
        register(tex, tex)


def test_register_featureless_image_fails_with_stage():
    flat = np.full((96, 96), 0.5)
    tex = synthetic_texture(96, seed=26)
    with pytest.raises(RegistrationError, match="corner detection"):
        register(flat, tex)


def test_gate_admissibility_nests():
    rng = np.random.default_rng(9)
    a = _descriptor_grid(rng, n=16, spacing=25)
    b = _shift_descriptors(a, 3, 1)
    t = AffineTransform.identity()
    small = match_all(a, b, gate=(t, 5.0))
    large = match_all(a, b, gate=(t, 50.0))
    small_pairs = {(m.src_index, m.dst_index) for m in small}
    pos_b = positions_of(b)
    # every pair admissible under the small gate stays admissible under the
    # large one (the chosen assignment may legitimately differ)
    for p, q in small_pairs:
        dist = np.hypot(*(pos_b[q] - t.apply(np.array([a[p].x, a[p].y],
                                                      dtype=float))))
        assert dist <= 50.0
    assert {m.src_index for m in small} <= {m.src_index for m in large}
