import math
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from crossband import descriptor
from crossband.descriptor import (EdgeDescriptor, MatchingConfig, build_descriptors,
                                  score_matrix, similarity)
from crossband.edges import CannyConfig, EdgeMap, canny
from crossband.features import Corner
from crossband.registration import Match, match_all
from crossband.transform import AffineTransform

from helpers import (cut_windows_oracle, random_descriptor, same_grad,
                     scalar_similarity, score_matrix_oracle, similarity_oracle)


def _map_from(e, g):
    return EdgeMap(e.astype(np.uint8), g.astype(np.uint8))


def _descriptor(e, g, x=50, y=50):
    e = np.asarray(e, dtype=np.uint8)
    return EdgeDescriptor(x=x, y=y, edges=e, directions=np.asarray(g, np.uint8),
                          edge_count=int(e.sum()))


# --- build -----------------------------------------------------------------

def test_build_all_edge_window():
    e = np.ones((50, 50))
    g = np.zeros((50, 50))
    [d] = build_descriptors([Corner(25, 25, 1.0)], _map_from(e, g), window=5)
    assert d.edge_count == 25
    assert d.edges.shape == (5, 5)


def test_build_rejects_border_corner():
    em = _map_from(np.ones((100, 100)), np.zeros((100, 100)))
    assert build_descriptors([Corner(1, 1, 1.0)], em, window=31) == []
    assert len(build_descriptors([Corner(15, 15, 1.0)], em, window=31)) == 1
    assert build_descriptors([Corner(85, 15, 1.0)], em, window=31) == []


def test_build_rejects_bad_window():
    em = _map_from(np.ones((50, 50)), np.zeros((50, 50)))
    with pytest.raises(ValueError):
        build_descriptors([Corner(25, 25, 1.0)], em, window=6)
    with pytest.raises(ValueError):
        build_descriptors([Corner(25, 25, 1.0)], em, window=3)


def test_window_above_4095_is_rejected():
    # a 4095 window's counts stay below 2**24, exact in float32 sums
    assert MatchingConfig(window=4095).window == 4095
    with pytest.raises(ValueError, match=r"in \[5, 4095\], got 4097"):
        MatchingConfig(window=4097)


def test_build_windows_match_full_map():
    rng = np.random.default_rng(0)
    e = (rng.random((60, 60)) < 0.3)
    g = rng.integers(0, 16, size=(60, 60))
    em = _map_from(e, g)
    [d] = build_descriptors([Corner(30, 20, 1.0)], em, window=7)
    assert np.array_equal(d.edges, e[17:24, 27:34].astype(np.uint8))
    assert np.array_equal(d.directions, g[17:24, 27:34].astype(np.uint8))


def test_build_descriptors_skips_rejections():
    em = _map_from(np.ones((100, 100)), np.zeros((100, 100)))
    corners = [Corner(1, 1, 1.0), Corner(50, 50, 2.0), Corner(99, 50, 1.5)]
    descs = build_descriptors(corners, em, window=31)
    assert len(descs) == 1
    assert (descs[0].x, descs[0].y) == (50, 50)


def _corners_around(rng, shape, n=80):
    """n corners inside, on and beyond the border band of a map, unsorted."""
    return (rng.integers(-3, shape[1] + 3, size=n),
            rng.integers(-3, shape[0] + 3, size=n))


@pytest.mark.parametrize("shape", [(60, 70), (9, 40), (40, 9)])
def test_cut_windows_equal_one_slice_per_corner(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    em = _map_from(rng.random(shape) < 0.3, rng.integers(0, 16, size=shape))
    xs, ys = _corners_around(rng, shape)
    got = descriptor._cut_windows(xs, ys, em, 9)
    for a, b in zip(got, cut_windows_oracle(xs, ys, em, 9)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_cut_windows_of_a_map_narrower_than_the_window_are_empty():
    rng = np.random.default_rng(18)
    em = _map_from(np.ones((8, 40)), np.zeros((8, 40)))
    got = descriptor._cut_windows(*_corners_around(rng, (8, 40)), em, 9)
    assert got.edges.shape == got.directions.shape == (0, 9, 9)
    assert len(got.xs) == len(got.ys) == len(got.counts) == 0


def test_window_matches_canny_rerun_on_padded_subimage():
    # a single bright square provides the only (and strongest) edges, so the
    # full-image and sub-image relative thresholds coincide
    img = np.full((100, 100), 0.3)
    img[40:60, 40:60] = 0.8
    cfg = CannyConfig()
    full = canny(img, cfg)
    corner = Corner(40, 40, 1.0)
    window = 31
    [d] = build_descriptors([corner], full, window)

    pad = 8  # covers the blur radius and derivative support
    r = window // 2
    sub = img[corner.y - r - pad:corner.y + r + pad + 1,
              corner.x - r - pad:corner.x + r + pad + 1]
    sub_map = canny(sub, cfg)
    rerun = sub_map.edges[pad:pad + window, pad:pad + window]
    margin = 5
    center = (slice(margin, window - margin), slice(margin, window - margin))
    assert np.array_equal(d.edges[center], rerun[center])


# --- same_grad ---------------------------------------------------------------

def test_same_grad_examples():
    assert same_grad(3, 3) is True
    assert same_grad(0, 15) is True      # circular distance 1
    assert same_grad(2, 7) is False      # distance 5
    assert same_grad(0, 8) is False      # opposite directions


def test_same_grad_arrays():
    gp = np.array([0, 1, 2, 15])
    gq = np.array([15, 1, 7, 0])
    assert np.array_equal(same_grad(gp, gq), [True, True, False, True])


# --- similarity --------------------------------------------------------------

def test_self_similarity_is_exact_sqrt():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = random_descriptor(rng)
        if d.edge_count:
            assert similarity(d, d) == math.sqrt(d.edge_count)


def test_disjoint_similarity_zero():
    e1 = np.zeros((5, 5)); e1[0, :] = 1
    e2 = np.zeros((5, 5)); e2[4, :] = 1
    g = np.zeros((5, 5))
    assert similarity(_descriptor(e1, g), _descriptor(e2, g)) == 0.0


def test_similarity_row_fixture():
    # five edge pixels, directions one bin apart: 5 / sqrt(5)
    e = np.zeros((5, 5)); e[2, :] = 1
    gp = np.full((5, 5), 4); gq = np.full((5, 5), 5)
    dp, dq = _descriptor(e, gp), _descriptor(e, gq)
    assert similarity(dp, dq) == pytest.approx(5 / math.sqrt(5), abs=1e-12)
    assert similarity(dp, dq) == pytest.approx(
        similarity_oracle(e, gp, e, gq), abs=1e-12)


def test_similarity_zero_edge_candidate():
    e = np.zeros((5, 5))
    d_empty = _descriptor(e, np.zeros((5, 5)))
    d_full = _descriptor(np.ones((5, 5)), np.zeros((5, 5)))
    assert similarity(d_full, d_empty) == 0.0


def test_similarity_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(15):
        dp = random_descriptor(rng, window=9)
        dq = random_descriptor(rng, window=9)
        assert similarity(dp, dq) == pytest.approx(
            similarity_oracle(dp.edges, dp.directions, dq.edges, dq.directions),
            abs=1e-12)


def test_similarity_window_mismatch():
    with pytest.raises(ValueError):
        similarity(random_descriptor(np.random.default_rng(3), window=9),
                   random_descriptor(np.random.default_rng(4), window=11))


def test_similarity_cauchy_style_bound():
    rng = np.random.default_rng(5)
    for _ in range(30):
        dp = random_descriptor(rng, window=11)
        dq = random_descriptor(rng, window=11)
        s = similarity(dp, dq)
        if dq.edge_count:
            num = s * math.sqrt(dq.edge_count)
            assert num <= min(dp.edge_count, dq.edge_count) + 1e-9
        assert s <= math.sqrt(max(dp.edge_count, 1)) + 1e-9


def test_similarity_collapses_under_half_circle_shift():
    # inverting one image's contrast shifts every direction by half a circle;
    # the tolerance of one bin then captures nothing
    rng = np.random.default_rng(6)
    e = (rng.random((9, 9)) < 0.5)
    g = rng.integers(0, 16, size=(9, 9))
    dp = _descriptor(e, g)
    dq = _descriptor(e, (g + 8) % 16)
    assert similarity(dp, dq) == 0.0


def test_similarity_is_asymmetric_with_symmetric_numerator():
    e_p = np.zeros((7, 7)); e_p[3, :] = 1            # 7 edges
    e_q = np.zeros((7, 7)); e_q[3, 2:5] = 1          # 3 edges
    g = np.ones((7, 7))
    dp, dq = _descriptor(e_p, g), _descriptor(e_q, g)
    spq, sqp = similarity(dp, dq), similarity(dq, dp)
    assert spq != sqp
    assert spq * math.sqrt(dq.edge_count) == pytest.approx(
        sqp * math.sqrt(dp.edge_count), abs=1e-12)


# --- score_matrix ------------------------------------------------------------

def _shifted(d, shift):
    return EdgeDescriptor(
        x=d.x, y=d.y, edges=d.edges,
        directions=((d.directions.astype(int) + shift) % 16).astype(np.uint8),
        edge_count=d.edge_count)


@st.composite
def _descriptor_sets(draw):
    window = draw(st.sampled_from([5, 7, 9, 15, 51]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def one():
        density = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
        return random_descriptor(rng, window=window, density=density)
    src = [one() for _ in range(draw(st.integers(1, 4)))]
    dst = [one() for _ in range(draw(st.integers(1, 4)))]
    return src, dst


@settings(max_examples=150, deadline=None)
@given(_descriptor_sets())
def test_score_matrix_equals_scalar_similarity(sets):
    src, dst = sets
    direct = np.array([[scalar_similarity(p, q) for q in dst] for p in src])
    flipped = np.array([[scalar_similarity(_shifted(p, -8), q) for q in dst]
                        for p in src])
    for polarity, expected in (("direct", direct), ("flipped", flipped),
                               ("both", np.maximum(direct, flipped))):
        got = score_matrix(src, dst, polarity)
        assert got.shape == (len(src), len(dst))
        assert np.array_equal(got, expected), polarity


def test_score_matrix_across_candidate_blocks():
    rng = np.random.default_rng(15)
    per_block = descriptor._BLOCK_BYTES // (31 * 31 * 16 * 4)  # float32 columns
    n_dst = 2 * per_block + per_block // 2 + 1   # two full blocks and a partial
    src = [random_descriptor(rng, window=31, density=d)
           for d in (0.0, 0.1, 0.4)]
    dst = [random_descriptor(rng, window=31, density=rng.choice([0.0, 0.1, 0.3]))
           for _ in range(n_dst)]
    for polarity in ("direct", "flipped", "both"):
        assert np.array_equal(score_matrix(src, dst, polarity),
                              score_matrix_oracle(src, dst, polarity)), polarity


def test_score_matrix_across_source_blocks(monkeypatch):
    # blocks of at most 100 edge pixels; a denser source is a block alone
    monkeypatch.setattr(descriptor, "_SOURCE_EDGES", 100)
    rng = np.random.default_rng(17)
    src = [random_descriptor(rng, window=15, density=d)
           for d in (0.0, 0.1, 0.2, 0.6, 0.1, 0.3, 0.05)]
    dst = [random_descriptor(rng, window=15, density=d) for d in (0.0, 0.2, 0.5)]
    counts = np.array([d.edge_count for d in src])
    assert len(list(descriptor._source_blocks(counts))) >= 4
    for polarity in ("direct", "flipped", "both"):
        assert np.array_equal(score_matrix(src, dst, polarity),
                              score_matrix_oracle(src, dst, polarity)), polarity


def test_score_matrix_memory_stays_within_a_few_blocks():
    # 30% edges, and every pixel an edge: the sources come in blocks too
    for density in (0.3, 1.0):
        rng = np.random.default_rng(16)
        src = [random_descriptor(rng, window=31, density=density) for _ in range(400)]
        dst = [random_descriptor(rng, window=31, density=density) for _ in range(400)]
        unblocked = len(dst) * 31 * 31 * 16 * 4   # the whole float32 dense side
        tracemalloc.start()
        try:
            score_matrix(src, dst, "both")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * descriptor._BLOCK_BYTES < unblocked, density


def test_score_matrix_rejects_out_of_range_bins():
    # bin 17 would wrap to bin 1 and score as it
    e = np.ones((5, 5))
    good = _descriptor(e, np.ones((5, 5)))
    bad = _descriptor(e, np.full((5, 5), 17))
    for src, dst in (([bad], [good]), ([good], [bad])):
        for polarity in ("direct", "both"):
            with pytest.raises(ValueError,
                               match=r"direction bin 17 is outside \[0, 16\)"):
                score_matrix(src, dst, polarity)


def test_score_matrix_rejects_mixed_windows():
    rng = np.random.default_rng(14)
    with pytest.raises(ValueError):
        score_matrix([random_descriptor(rng, window=9)],
                     [random_descriptor(rng, window=11)])


# --- best match of one source (match_all) --------------------------------------

def test_best_match_prefers_self():
    rng = np.random.default_rng(7)
    dp = random_descriptor(rng, density=0.4)
    disjoint = _descriptor(np.zeros((15, 15)), np.zeros((15, 15)))
    assert match_all([dp], [disjoint, dp]) == [
        Match(0, 1, math.sqrt(dp.edge_count))]


def test_best_match_gate_excludes_everything():
    rng = np.random.default_rng(8)
    dp = random_descriptor(rng, x=10, y=10)
    dq = random_descriptor(rng, x=200, y=200)
    gate = (AffineTransform.translation(0.0, 0.0), 0.0)
    assert match_all([dp], [dq], gate=gate) == []


def test_best_match_three_synthetic_candidates():
    e_base = np.zeros((9, 9)); e_base[4, 2:7] = 1    # 5 edge pixels
    g = np.full((9, 9), 3)
    dp = _descriptor(e_base, g)
    c0 = _descriptor(e_base, g)                       # score sqrt(5)
    e_three = np.zeros((9, 9)); e_three[4, 2:5] = 1
    c1 = _descriptor(e_three, g)                      # score 3/sqrt(3) = sqrt(3)
    c2 = _descriptor(np.roll(e_base, 3, axis=0), g)   # disjoint: score 0
    [hit] = match_all([dp], [c0, c1, c2])
    assert hit.dst_index == 0
    assert hit.score == pytest.approx(math.sqrt(5), abs=1e-12)


def test_best_match_none_when_all_scores_zero():
    empty = _descriptor(np.zeros((5, 5)), np.zeros((5, 5)))
    dp = _descriptor(np.ones((5, 5)), np.zeros((5, 5)))
    assert match_all([dp], [empty, empty]) == []


def test_best_match_requires_candidates():
    dp = random_descriptor(np.random.default_rng(9))
    with pytest.raises(ValueError):
        match_all([dp], [])


def test_best_match_no_gate_equals_infinite_gate():
    rng = np.random.default_rng(10)
    dp = random_descriptor(rng, density=0.35)
    candidates = [random_descriptor(rng, x=30 * i, y=10 * i, density=0.35)
                  for i in range(6)]
    ungated = match_all([dp], candidates)
    gated = match_all([dp], candidates,
                      gate=(AffineTransform.translation(0.0, 0.0), np.inf))
    assert ungated == gated


def test_best_match_tie_breaks_to_smallest_index():
    d = random_descriptor(np.random.default_rng(11), density=0.4)
    twin = EdgeDescriptor(x=d.x + 5, y=d.y, edges=d.edges.copy(),
                          directions=d.directions.copy(), edge_count=d.edge_count)
    [hit] = match_all([d], [twin, d])
    assert hit.dst_index == 0


def test_best_match_flipped_polarity_finds_inverted_twin():
    rng = np.random.default_rng(12)
    d = random_descriptor(rng, density=0.4)
    flipped = _shifted(d, 8)
    assert match_all([d], [flipped], polarity="direct") == []
    assert match_all([d], [flipped], polarity="flipped") == [
        Match(0, 0, math.sqrt(d.edge_count))]
    [hit_both] = match_all([d], [flipped, d], polarity="both")
    assert hit_both.score == math.sqrt(d.edge_count)


def test_best_match_rejects_unknown_polarity():
    d = random_descriptor(np.random.default_rng(13))
    with pytest.raises(ValueError):
        match_all([d], [d], polarity="sideways")
