import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crossband.errors import SingularTransformError
from crossband.transform import (AffineTransform, TransformKind, format_matrix_text,
                                 from_json_dict, load_transform, parse_matrix_text,
                                 to_json_dict)


def test_kind_parameter_counts():
    assert TransformKind.TRANSLATION.n_params == 2
    assert TransformKind.SIMILARITY.n_params == 4
    assert TransformKind.AFFINE.n_params == 6
    assert TransformKind.TRANSLATION.min_matches == 1
    assert TransformKind.SIMILARITY.min_matches == 2
    assert TransformKind.AFFINE.min_matches == 3


def test_translation_constructor_and_apply():
    t = AffineTransform.translation(3.0, -4.0)
    assert t.kind == TransformKind.TRANSLATION
    assert np.allclose(t.apply([1.0, 2.0]), [4.0, -2.0])
    pts = np.array([[0.0, 0.0], [5.0, 5.0]])
    assert np.allclose(t.apply(pts), [[3.0, -4.0], [8.0, 1.0]])


def test_kind_invariants_enforced():
    with pytest.raises(ValueError):
        AffineTransform(np.array([[2.0, 0, 0], [0, 1.0, 0]]),
                        TransformKind.TRANSLATION)
    with pytest.raises(ValueError):
        AffineTransform(np.array([[1.0, 0.5, 0], [0.2, 1.0, 0]]),
                        TransformKind.SIMILARITY)
    with pytest.raises(ValueError):
        AffineTransform(np.zeros((3, 3)))


def test_similarity_scale_and_det():
    t = AffineTransform.similarity(0.6, 0.8, 0.0, 0.0)  # scale 1 rotation
    assert t.scale() == pytest.approx(1.0, abs=1e-12)
    assert t.det() == pytest.approx(1.0, abs=1e-12)


def test_compose_stays_within_kind():
    a = AffineTransform.translation(1, 2)
    b = AffineTransform.translation(3, 4)
    c = a.compose(b)
    assert c.kind == TransformKind.TRANSLATION
    assert np.allclose(c.m[:, 2], [4, 6])

    s1 = AffineTransform.similarity(1.1, 0.1, 1, 0)
    s2 = AffineTransform.similarity(0.9, -0.2, 0, 1)
    s = s1.compose(s2)
    assert s.kind == TransformKind.SIMILARITY

    mixed = s1.compose(AffineTransform(np.array([[1.0, 0.1, 0], [0, 1.0, 0]])))
    assert mixed.kind == TransformKind.AFFINE


def test_compose_order():
    scale = AffineTransform.similarity(2.0, 0.0, 0.0, 0.0)
    shift = AffineTransform.translation(1.0, 0.0)
    p = np.array([1.0, 1.0])
    assert np.allclose(scale.compose(shift).apply(p), scale.apply(shift.apply(p)))


def test_inverse_roundtrip():
    t = AffineTransform.similarity(1.3, -0.4, 5.0, -2.0)
    r = t.compose(t.inverse())
    assert np.allclose(r.m, AffineTransform.identity().m, atol=1e-12)
    assert t.inverse().kind == TransformKind.SIMILARITY


def test_inverse_singular_raises():
    # the second matrix is finite, but its determinant overflows to NaN
    for m in ([[1.0, 2.0, 0.0], [0.5, 1.0, 0.0]],
              [[1e200, 1e200, 0.0], [1e200, 1e200, 0.0]]):
        t = AffineTransform(np.array(m))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SingularTransformError):
            t.inverse()


def test_json_roundtrip():
    t = AffineTransform.similarity(1.05, 0.02, 7.25, -3.5)
    obj = to_json_dict(t, support=42, inliers=42)
    assert obj["model"] == "similarity"
    assert obj["support"] == 42
    back = from_json_dict(json.loads(json.dumps(obj)))
    assert back.kind == t.kind
    assert np.array_equal(back.m, t.m)


def test_json_malformed():
    with pytest.raises(ValueError):
        from_json_dict({"model": "spline", "matrix": [[1, 0, 0], [0, 1, 0]]})
    with pytest.raises(ValueError):
        from_json_dict({"matrix": [[1, 0, 0], [0, 1, 0]]})


def test_matrix_text_roundtrip():
    t = AffineTransform(np.array([[1.125, -0.25, 12.5], [0.25, 1.125, -7.75]]))
    back = parse_matrix_text(format_matrix_text(t))
    assert np.array_equal(back.m, t.m)


def test_matrix_text_malformed():
    with pytest.raises(ValueError):
        parse_matrix_text("1 0 0\n")
    with pytest.raises(ValueError):
        parse_matrix_text("1 0\n0 1\n")


def test_load_transform_sniffs_format(tmp_path):
    t = AffineTransform.translation(3, 4)
    jpath = tmp_path / "t.json"
    jpath.write_text(json.dumps(to_json_dict(t)))
    tpath = tmp_path / "t.txt"
    tpath.write_text(format_matrix_text(t))
    assert np.array_equal(load_transform(jpath).m, t.m)
    assert np.array_equal(load_transform(tpath).m, t.m)


@pytest.mark.parametrize("name, text", [
    ("nan.json", '{"model": "affine", "matrix": [[NaN, 0, 0], [0, 1, 0]]}'),
    # the finite check comes before the similarity form's, which NaN fails
    ("sim.json", '{"model": "similarity", "matrix": [[NaN, 0, 0], [0, NaN, 0]]}'),
    ("inf.txt", "1 0 inf\n0 1 0\n"),
    ("neg.txt", "1 0 0\n0 -inf 0\n"),
], ids=["nan-json", "nan-similarity-json", "inf-text", "neg-inf-text"])
def test_load_transform_rejects_non_finite_entries(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ValueError,
                       match=f"{name}: transform matrix holds a non-finite entry"):
        load_transform(path)


def test_load_transform_names_a_malformed_file(tmp_path):
    path = tmp_path / "cut.json"
    path.write_text('{"model": "affine", "matrix": [[1, 0, 0]')
    with pytest.raises(ValueError, match="cut.json: "):
        load_transform(path)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-4.0, 4.0), min_size=4, max_size=4),
       st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2),
       st.integers(1, 400), st.integers(0, 2**32 - 1))
def test_apply_maps_a_point_alike_alone_or_in_a_batch(lin, shift, n, seed):
    t = AffineTransform(np.array([[lin[0], lin[1], shift[0]],
                                  [lin[2], lin[3], shift[1]]]))
    points = np.random.default_rng(seed).uniform(-1e3, 1e3, size=(n, 2))
    batch = t.apply(points)
    assert batch.shape == (n, 2)
    for i in range(n):
        assert np.array_equal(batch[i], t.apply(points[i]))


# Tolerances for the compose/inverse identities, in units of EPS. With
# kappa = max|a_ij|^2 / |det| (at least half the max-norm condition number
# of the linear part), inverting rounds each entry of the linear part to a
# relative error of a few EPS * kappa, and the identities below lose at most
# 16 EPS * kappa, times the size of the translation where one enters.
# Matrices with |det| <= 1e-12 are singular to `inverse` and are excluded.
EPS = np.finfo(np.float64).eps
_entry = st.floats(-4.0, 4.0)
_shift = st.floats(-1e3, 1e3)


@st.composite
def _transforms(draw):
    kind = draw(st.sampled_from(list(TransformKind)))
    tx, ty = draw(_shift), draw(_shift)
    if kind == TransformKind.TRANSLATION:
        return AffineTransform.translation(tx, ty)
    if kind == TransformKind.SIMILARITY:
        return AffineTransform.similarity(draw(_entry), draw(_entry), tx, ty)
    a, b, c, d = (draw(_entry) for _ in range(4))
    return AffineTransform(np.array([[a, b, tx], [c, d, ty]]))


def _kappa(t):
    return np.abs(t.m[:, :2]).max() ** 2 / abs(t.det())


def _invertible(t):
    return abs(t.det()) > 1e-12


@settings(max_examples=300, deadline=None)
@given(_transforms())
def test_compose_with_inverse_is_identity(t):
    assume(_invertible(t))
    inv = t.inverse()
    assert inv.kind == t.kind
    tol = 16 * EPS * _kappa(t)
    shift = 1.0 + np.abs(t.m[:, 2]).max()
    for r in (t.compose(inv), inv.compose(t)):
        assert np.abs(r.m[:, :2] - np.eye(2)).max() <= tol
        assert np.abs(r.m[:, 2]).max() <= tol * shift


@settings(max_examples=300, deadline=None)
@given(_transforms())
def test_inverse_of_inverse_is_the_transform(t):
    assume(_invertible(t))
    back = t.inverse().inverse()
    assert back.kind == t.kind
    tol = 16 * EPS * _kappa(t)
    err = np.abs(back.m - t.m)
    assert err[:, :2].max() <= tol * np.abs(t.m[:, :2]).max()
    assert err[:, 2].max() <= tol * (1.0 + np.abs(t.m[:, 2]).max())


@settings(max_examples=300, deadline=None)
@given(_transforms(), st.sampled_from(list(TransformKind)))
def test_identity_is_neutral_for_compose(t, kind):
    identity = AffineTransform.identity(kind)
    for r in (t.compose(identity), identity.compose(t)):
        assert np.array_equal(r.m, t.m)
        assert r.kind == max(t.kind, kind, key=list(TransformKind).index)


@settings(max_examples=300, deadline=None)
@given(_transforms(), _transforms(), _transforms())
def test_compose_is_associative(a, b, c):
    # each entry is a sum of at most 8 rounded products: 8 EPS times the
    # entry's magnitude bound, from the max-row-sum norms of the factors,
    # plus 8 roundings at the subnormal spacing where products underflow
    left, right = a.compose(b).compose(c), a.compose(b.compose(c))
    assert left.kind == right.kind

    def norm(t):
        return np.abs(t.m[:, :2]).sum(axis=1).max()
    lin = norm(a) * norm(b) * norm(c)
    shift = norm(a) * (norm(b) * np.abs(c.m[:, 2]).max()
                       + np.abs(b.m[:, 2]).max()) + np.abs(a.m[:, 2]).max()
    err = np.abs(left.m - right.m)
    tiny = 8 * np.finfo(np.float64).smallest_subnormal
    assert err[:, :2].max() <= 8 * EPS * lin + tiny
    assert err[:, 2].max() <= 8 * EPS * shift + tiny
