"""Tests of the benchmark's own helpers: the tail statistic, the PNG fixture
writer, the fusion reference and the traced replays.

    python3 -m pytest bench
"""

import json
from pathlib import Path

import numpy as np
import pytest

from crossband.evaluation import SimulationSpec, simulate_pair, synthetic_texture
from crossband.fusion import FusionConfig, fuse_pair
from crossband.image import warp_affine
from crossband.image_io import read_image
from crossband.transform import AffineTransform, TransformKind

import reference
import run
import spans
import workloads


@pytest.mark.parametrize("n, value, percentile, beyond", [
    (25, 14, 60.0, 10),
    (100, 89, 90.0, 10),
    (11, 0, 100 / 11, 10),
    (5, 0, 20.0, 4),
])
def test_tail_is_highest_sample_with_ten_above(n, value, percentile, beyond):
    samples = list(np.random.default_rng(n).permutation(n))
    assert run.tail(samples) == (value, pytest.approx(percentile), beyond)


def _filters_by_definition(raw, bpp):
    """The five PNG filters written out per byte, as the PNG spec states them."""
    h, stride = raw.shape
    out = np.zeros((5, h, stride), dtype=np.uint8)
    for y in range(h):
        for i in range(stride):
            x = int(raw[y, i])
            a = int(raw[y, i - bpp]) if i >= bpp else 0
            b = int(raw[y - 1, i]) if y > 0 else 0
            c = int(raw[y - 1, i - bpp]) if y > 0 and i >= bpp else 0
            p = a + b - c
            pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            paeth = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
            for f, pred in enumerate((0, a, b, (a + b) // 2, paeth)):
                out[f, y, i] = (x - pred) & 0xFF
    return out


def test_filter_candidates_match_the_png_definitions():
    raw = np.random.default_rng(3).integers(0, 256, size=(9, 24), dtype=np.uint8)
    for bpp in (1, 2, 3):
        np.testing.assert_array_equal(reference.filter_candidates(raw, bpp),
                                      _filters_by_definition(raw, bpp))


def test_heuristic_picks_the_least_absolute_residual():
    ramp = np.arange(40, dtype=np.uint8)
    raw = np.stack([ramp, ramp])  # row 0: a ramp, row 1: a repeat of row 0
    chosen = reference.choose_filters(reference.filter_candidates(raw, 1))
    assert list(chosen) == [1, 2]  # Sub, then Up (ties go to the lower type)


@pytest.mark.parametrize("shape, bitdepth", [
    ((37, 29, 3), 8), ((31, 23), 16), ((20, 24), 8), ((12, 17, 3), 16)])
def test_png_fixture_decodes_to_its_codes(tmp_path, shape, bitdepth):
    rng = np.random.default_rng(sum(shape) + bitdepth)
    img = synthetic_texture(64, seed=5)[:shape[0], :shape[1]]
    if len(shape) == 3:
        img = np.stack([img, img ** 2, 1.0 - img], axis=2)
    img = np.clip(img + rng.normal(0.0, 0.01, img.shape), 0.0, 1.0)
    codes = reference.quantize(img, bitdepth)
    payload, _ = reference.encode_png(codes, bitdepth)
    path = tmp_path / "fixture.png"
    path.write_bytes(payload)
    got = read_image(path)
    assert np.array_equal(got, codes.astype(np.float64) / ((1 << bitdepth) - 1))


def test_codec_fixtures_mix_filters_and_pass_their_checks(tmp_path):
    wl = workloads.CodecWorkload()
    wl.prepare(seed=0, workdir=tmp_path)
    for kind, ftypes in wl.filters.items():
        assert len(set(ftypes.tolist())) >= 3, kind
    for i in range(len(wl.cycle)):
        inp = wl.make_input(i)
        out = wl.run(inp)
        assert wl.check(inp, out) == (None, None), inp.fmt.kind
        replayed = wl.replay(inp, spans.Tracer())
        assert wl.artifact(inp, replayed, traced=True) == wl.artifact(inp, out, traced=False)


@pytest.fixture(scope="module")
def small_pair():
    base = synthetic_texture(192, 160, seed=11)
    t_true = AffineTransform.similarity(1.02, 0.01, 4.0, -3.0)
    spec = SimulationSpec(modality="invert+gamma", noise_sigma=0.02, rng_seed=4)
    vis, ir, _ = simulate_pair(base, t_true, spec)
    return vis, ir


@pytest.mark.parametrize("model", list(TransformKind))
def test_register_replay_is_bit_identical(small_pair, model):
    vis, ir = small_pair
    wl = workloads.RegisterWorkload("test", (model,), None)
    wl.prepare(seed=0, workdir=None)
    inp = workloads.RegisterInput(vis, ir, None, 1.0, wl.cfgs[0])
    tr = spans.Tracer()
    replayed = wl.replay(inp, tr)
    assert wl.artifact(inp, replayed, True) == wl.artifact(inp, wl.run(inp), False)
    assert tr.times["registration.match_ungated_s"] > 0
    assert tr.counts["registration.matches"] > 0


def test_fuse_replay_is_bit_identical_and_matches_the_reference(small_pair):
    vis, ir = small_pair
    rgb = np.stack([vis, 0.5 * vis + 0.25, 1.0 - vis], axis=2)
    t = AffineTransform.similarity(0.99, 0.01, 2.0, 1.0)
    cfg = FusionConfig()
    aligned = warp_affine(ir, t.inverse())
    fused, color = fuse_pair(rgb, aligned, cfg)
    replayed = spans.replay_fuse(rgb, ir, t, cfg, spans.Tracer())
    for a, b in zip(replayed, (aligned, fused, color)):
        assert a.tobytes() == b.tobytes()
    ref_fused, ref_color = reference.hplp_reference(
        rgb, aligned, cfg.alpha, cfg.gain, cfg.sigmas, cfg.color_eps)
    assert np.max(np.abs(fused - ref_fused)) <= workloads.FUSION_TOLERANCE
    assert np.max(np.abs(color - ref_color)) <= workloads.FUSION_TOLERANCE
    ref_aligned, mask = reference.warp_reference(ir, t.m)
    assert np.max(np.abs(aligned - ref_aligned)[mask]) <= workloads.FUSION_TOLERANCE


def test_metric_tables_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert declared == list(table), key
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
