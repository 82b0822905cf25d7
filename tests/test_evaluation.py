import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crossband.edges import EdgeMap
from crossband.evaluation import (MODALITY_MODELS, AccuracyReport, SimulationSpec,
                                  TrialResult, apply_modality,
                                  brute_force_translation, run_benchmark,
                                  simulate_pair, synthetic_texture,
                                  translation_error)
from crossband.image import warp_affine
from crossband.transform import AffineTransform, TransformKind
from crossband import evaluation

from helpers import simulate_pair_oracle


def test_spec_validation():
    with pytest.raises(ValueError):
        SimulationSpec(modality="thermal")
    with pytest.raises(ValueError):
        SimulationSpec(gamma=0.0)
    with pytest.raises(ValueError):
        SimulationSpec(trials=0)
    with pytest.raises(ValueError):
        SimulationSpec(scales=())
    with pytest.raises(ValueError):
        SimulationSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError, match="rng_seed must be >= 0, got -1"):
        SimulationSpec(rng_seed=-1)


def test_simulate_identity_noiseless_returns_base():
    base = synthetic_texture(96, seed=0)
    spec = SimulationSpec(modality="identity", noise_sigma=0.0)
    v, ir, t_eff = simulate_pair(base, AffineTransform.translation(0.0, 0.0), spec)
    assert np.array_equal(v, base)
    assert np.array_equal(ir, base)
    assert np.allclose(t_eff.m, AffineTransform.translation(0.0, 0.0).m)


def test_simulate_invert_noiseless():
    base = synthetic_texture(96, seed=1)
    spec = SimulationSpec(modality="invert", noise_sigma=0.0)
    t = AffineTransform.translation(3, 0)
    v, ir, t_eff = simulate_pair(base, t, spec)
    warped = warp_affine(base, t)
    x0, y0 = 3, 0
    assert np.array_equal(ir, 1.0 - warped[y0:, x0:][:ir.shape[0], :ir.shape[1]])
    # pure translation: cropping does not change the planted translation
    assert np.allclose(t_eff.m[:, 2], [3, 0])


def test_simulate_gamma_pow_oracle():
    ramp = np.tile(np.linspace(0, 1, 96), (96, 1))
    spec = SimulationSpec(modality="gamma", gamma=2.2, noise_sigma=0.0)
    out = apply_modality(ramp, spec)
    assert np.allclose(out, ramp ** 2.2, atol=1e-14)
    spec_ig = SimulationSpec(modality="invert+gamma", gamma=2.2, noise_sigma=0.0)
    out_ig = apply_modality(ramp, spec_ig)
    assert np.allclose(out_ig, (1 - ramp) ** 2.2, atol=1e-14)


def test_simulate_scale_crop_adjusts_translation():
    base = synthetic_texture(128, seed=2)
    spec = SimulationSpec(modality="identity", noise_sigma=0.0)
    t = AffineTransform.similarity(0.9, 0.0, 5.0, -2.0)
    v, ir, t_eff = simulate_pair(base, t, spec)
    assert v.shape == ir.shape
    assert v.shape[0] >= 64 and v.shape[1] >= 64
    # the effective transform maps cropped-v pixels onto cropped-ir pixels:
    # verify on the corner pixel via the original frames
    assert t_eff.kind == TransformKind.SIMILARITY
    assert t_eff.m[0, 0] == pytest.approx(0.9)


def test_simulate_pair_rejects_tiny_valid_region():
    base = synthetic_texture(96, seed=3)
    spec = SimulationSpec(modality="identity", noise_sigma=0.0)
    with pytest.raises(ValueError, match="valid region"):
        simulate_pair(base, AffineTransform.translation(50, 0), spec)


@pytest.mark.parametrize("angle", [np.pi / 2, np.pi / 3])
def test_simulate_pair_reports_an_empty_region_as_empty(angle):
    # the box's far side falls below its near side: once read as -510x-510
    base = synthetic_texture(96, seed=3)
    spec = SimulationSpec(modality="identity", noise_sigma=0.0)
    t = AffineTransform.similarity(1.0, angle, 0.0, 0.0)
    with pytest.raises(ValueError, match=r"common valid region \(empty\) is "
                                         r"smaller than 64x64"):
        simulate_pair(base, t, spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_pair_rejects_a_non_finite_base(bad):
    # NaN marks the warp's unsupported samples, so the base must be finite
    base = synthetic_texture(96, seed=3)
    base[40, 50] = bad
    spec = SimulationSpec(modality="identity", noise_sigma=0.0)
    with pytest.raises(ValueError, match="base image has 1 non-finite"):
        simulate_pair(base, AffineTransform.translation(2.0, 1.0), spec)


@st.composite
def _planted_pairs(draw):
    """A base texture, a small planted similarity or translation (one that
    may leave too small a region), a spec and a seed."""
    side = draw(st.sampled_from([72, 96, 128]))
    base = synthetic_texture(side, seed=draw(st.integers(0, 50)))
    tx, ty = (draw(st.floats(-12.0, 12.0)) for _ in range(2))
    if draw(st.booleans()):
        t = AffineTransform.translation(tx, ty)
    else:
        t = AffineTransform.similarity(draw(st.floats(0.85, 1.15)),
                                       draw(st.floats(-0.15, 0.15)), tx, ty)
    spec = SimulationSpec(modality=draw(st.sampled_from(MODALITY_MODELS)),
                          noise_sigma=draw(st.sampled_from([0.0, 0.02])))
    return base, t, spec, draw(st.integers(0, 2 ** 32 - 1))


def _assert_equals_the_second_warp_box_rule(base, t, spec, seed):
    want = simulate_pair_oracle(base, t, spec, np.random.default_rng(seed))
    if want is None:
        with pytest.raises(ValueError, match="valid region"):
            simulate_pair(base, t, spec, np.random.default_rng(seed))
        return
    got = simulate_pair(base, t, spec, np.random.default_rng(seed))
    for g, w in zip(got[:2], want[:2]):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()
    assert got[2].m.tobytes() == want[2].m.tobytes()
    assert got[2].kind == want[2].kind


@settings(max_examples=60, deadline=None)
@given(_planted_pairs())
def test_simulate_pair_equals_the_second_warp_box_rule(case):
    _assert_equals_the_second_warp_box_rule(*case)


@pytest.mark.parametrize("planted", [(0.9, 7.0, 2.5), (0.9, 2.5, 0.75),
                                     (1.05, 6.25, -6.75)])
def test_simulate_pair_shrinks_the_box_like_the_second_warp(planted):
    # on a 96x96 base these leave a box edge whose inverse-mapped samples
    # round just outside the source, so the box must shrink past the
    # warped frame's corners
    s, tx, ty = planted
    t = AffineTransform.similarity(s, 0.0, tx, ty)
    _assert_equals_the_second_warp_box_rule(
        synthetic_texture(96, seed=12), t,
        SimulationSpec(modality="gamma", noise_sigma=0.02), 5)


def test_simulate_pair_warps_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return warp_affine(*args, **kwargs)

    monkeypatch.setattr(evaluation, "warp_affine", counted)
    base = synthetic_texture(128, seed=11)
    t = AffineTransform.similarity(1.05, 0.05, 3.5, -2.0)
    simulate_pair(base, t, SimulationSpec(modality="invert+gamma"))
    assert calls == [t]


def test_simulate_noise_respects_unit_range():
    base = synthetic_texture(96, seed=4)
    spec = SimulationSpec(modality="invert", noise_sigma=0.1, rng_seed=1)
    v, ir, _ = simulate_pair(base, AffineTransform.translation(1, 1), spec)
    for img in (v, ir):
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_translation_error_examples():
    t0 = AffineTransform.translation(0, 0)
    assert translation_error(t0, t0) == 0.0
    assert translation_error(AffineTransform.translation(3, 4), t0) == 5.0
    est = AffineTransform.translation(7.2, -2.6)
    true = AffineTransform.translation(7.0, -3.0)
    assert translation_error(est, true) == pytest.approx(np.sqrt(0.2), abs=1e-12)


def test_translation_error_is_a_metric():
    rng = np.random.default_rng(5)
    ts = [AffineTransform.translation(*rng.uniform(-10, 10, 2)) for _ in range(6)]
    for a in ts:
        for b in ts:
            assert translation_error(a, b) == pytest.approx(
                translation_error(b, a), abs=1e-12)
            for c in ts:
                assert translation_error(a, c) <= (translation_error(a, b)
                                                   + translation_error(b, c) + 1e-12)


def test_benchmark_with_stubbed_registration(monkeypatch):
    base = synthetic_texture(96, seed=6)
    fixed = AffineTransform.translation(4.0, -1.0)

    def fake_simulate(b, t_true, spec, rng=None):
        return b, b, fixed

    class FakeResult:
        transform = fixed
        support = 99

    monkeypatch.setattr(evaluation, "simulate_pair", fake_simulate)
    monkeypatch.setattr(evaluation, "register",
                        lambda *a, **k: FakeResult())
    spec = SimulationSpec(trials=5, rng_seed=0)
    report = run_benchmark([base], spec)
    assert len(report.rows) == 5
    assert report.failures == 0
    assert report.mean_error == 0.0


def test_benchmark_row_count_bookkeeping():
    bases = [synthetic_texture(128, seed=s) for s in (7, 8)]
    spec = SimulationSpec(translation_range=20.0, modality="invert",
                          noise_sigma=0.0, trials=20, rng_seed=3)
    report = run_benchmark(bases, spec)
    assert len(report.rows) == 20
    csv = report.to_csv()
    lines = csv.strip().split("\n")
    assert len(lines) == 21
    assert lines[0] == "trial,scale,tx_true,ty_true,tx_est,ty_est,error_px,support,status"


def test_benchmark_near_degenerate_sanity():
    base = synthetic_texture(160, seed=9)
    spec = SimulationSpec(translation_range=0.0, modality="identity",
                          noise_sigma=0.0, trials=2, rng_seed=4)
    report = run_benchmark([base], spec)
    assert report.failures == 0
    assert report.mean_error < 0.5


def test_benchmark_failures_recorded_not_raised(monkeypatch):
    from crossband.errors import RegistrationError

    def explode(*a, **k):
        raise RegistrationError("nope")

    monkeypatch.setattr(evaluation, "register", explode)
    base = synthetic_texture(96, seed=10)
    spec = SimulationSpec(trials=3, rng_seed=0)
    report = run_benchmark([base], spec)
    assert report.failures == 3
    assert all(r.status == "failed" for r in report.rows)
    assert np.isnan(report.mean_error)
    assert "failed" in report.to_csv()


def test_benchmark_determinism():
    base = synthetic_texture(128, seed=11)
    spec = SimulationSpec(modality="invert", trials=2, rng_seed=5)
    a = run_benchmark([base], spec).to_csv()
    b = run_benchmark([base], spec).to_csv()
    assert a == b


def test_benchmark_requires_bases():
    with pytest.raises(ValueError):
        run_benchmark([], SimulationSpec())


def test_report_aggregates_recomputable():
    rows = [TrialResult(0, 1.0, 0, 0, 1, 0, 1.0, 5, "ok"),
            TrialResult(1, 1.0, 0, 0, 0, 3, 3.0, 5, "ok"),
            TrialResult(2, 1.0, 0, 0, float("nan"), float("nan"),
                        float("nan"), 0, "failed")]
    rep = AccuracyReport(rows=rows)
    assert rep.mean_error == 2.0
    assert rep.median_error == 2.0
    assert rep.failures == 1


def test_brute_force_translation_exact_shift():
    rng = np.random.default_rng(12)
    e = (rng.random((64, 64)) < 0.1).astype(np.uint8)
    g = np.zeros_like(e)
    shifted = np.zeros_like(e)
    shifted[:, :] = 0
    # ir(x + d) should equal v(x): place v's edges at +d in ir
    dy, dx = -2, 3
    shifted[max(0, dy):64 + min(0, dy), max(0, dx):64 + min(0, dx)] = \
        e[max(0, -dy):64 - max(0, dy), max(0, -dx):64 - max(0, dx)]
    t = brute_force_translation(EdgeMap(e, g), EdgeMap(shifted, g), 8)
    assert (t.m[0, 2], t.m[1, 2]) == (dx, dy)


def test_brute_force_translation_identity():
    rng = np.random.default_rng(13)
    e = (rng.random((48, 48)) < 0.15).astype(np.uint8)
    g = np.zeros_like(e)
    t = brute_force_translation(EdgeMap(e, g), EdgeMap(e, g), 6)
    assert (t.m[0, 2], t.m[1, 2]) == (0, 0)


def test_brute_force_translation_with_bit_flips():
    rng = np.random.default_rng(14)
    e = (rng.random((96, 96)) < 0.12).astype(np.uint8)
    g = np.zeros_like(e)
    dy, dx = 4, -3
    shifted = np.zeros_like(e)
    shifted[max(0, dy):96 + min(0, dy), max(0, dx):96 + min(0, dx)] = \
        e[max(0, -dy):96 - max(0, dy), max(0, -dx):96 - max(0, dx)]
    flips = rng.random(shifted.shape) < 0.10
    noisy = np.where(flips, 1 - shifted, shifted).astype(np.uint8)
    t = brute_force_translation(EdgeMap(e, g), EdgeMap(noisy, g), 8)
    assert np.hypot(t.m[0, 2] - dx, t.m[1, 2] - dy) <= 1.0


def test_synthetic_texture_properties():
    a = synthetic_texture(96, seed=42)
    b = synthetic_texture(96, seed=42)
    assert np.array_equal(a, b)
    assert a.shape == (96, 96)
    assert a.min() >= 0.05 - 1e-12 and a.max() <= 0.95 + 1e-12
    rect = synthetic_texture(80, height=50, seed=1)
    assert rect.shape == (50, 80)
