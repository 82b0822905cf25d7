"""Span recorder and traced replays of the public pipelines.

The replays call each module's public functions in the order `register` and
`fuse_pair` call them, with the same configs and random stream, and time
every call from here; crossband itself is not instrumented. The benchmark
checks on every traced op that a replay's output is bit-identical to the
public call's, so the per-layer times describe the computation that the
end-to-end times measure.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from crossband.descriptor import build_descriptors
from crossband.edges import canny
from crossband.errors import RegistrationError
from crossband.features import detect_corners, harris_score_map
from crossband.fusion import fuse_single_scale, restore_color
from crossband.image import to_luminance, warp_affine
from crossband.image_io import read_image, write_image
from crossband.registration import match_all, positions_of, ransac_once


class Tracer:
    """Per-op span times and counts, keyed by per-layer metric name."""

    def __init__(self):
        self.times = defaultdict(float)
        self.counts = defaultdict(float)
        self.stage = None  # last span entered; names the failing stage

    @contextmanager
    def span(self, name):
        self.stage = name
        start = perf_counter()
        try:
            yield
        finally:
            self.times[name] += perf_counter() - start

    def count(self, name, n):
        self.counts[name] += n


def replay_register(vis, ir, cfgs, tr: Tracer):
    """`register(vis, ir, ...)` stage by stage; returns the final transform."""
    harris, canny_cfg, window, ransac, polarity = (
        cfgs.harris, cfgs.canny, cfgs.window, cfgs.ransac, cfgs.polarity)
    descs = []
    for name, img in (("visible", vis), ("infrared", ir)):
        with tr.span("features.harris_s"):
            score = harris_score_map(img, harris)
        with tr.span("features.nms_s"):
            corners = detect_corners(score, harris)
        with tr.span("edges.canny_s"):
            edge_map = canny(img, canny_cfg)
        with tr.span("descriptor.build_s"):
            d = build_descriptors(corners, edge_map, window)
        tr.count("features.corners", len(corners))
        tr.count("edges.edge_px", int(np.count_nonzero(edge_map.edges)))
        tr.count("descriptor.count", len(d))
        if len(d) < 4:
            raise RegistrationError(
                f"corner detection: only {len(d)} descriptorized corners in "
                f"the {name} image (need 4)")
        descs.append(d)
    desc_v, desc_ir = descs
    pos_v, pos_ir = positions_of(desc_v), positions_of(desc_ir)
    offered = len(desc_v) * len(desc_ir)

    rng = np.random.default_rng(ransac.rng_seed)
    t_prev = None
    for it in (1, 2, 3):
        if it == 1:
            gate, consensus = None, ransac.inlier_dist_coarse
        elif it == 2:
            gate, consensus = (t_prev, ransac.gate_dist_coarse), ransac.inlier_dist_coarse
        else:
            gate, consensus = (t_prev, ransac.gate_dist_fine), ransac.inlier_dist_fine
        span = ("registration.match_ungated_s" if gate is None
                else "registration.match_gated_s")
        with tr.span(span):
            matches = match_all(desc_v, desc_ir, gate=gate, polarity=polarity)
        if gate is None:
            tr.count("registration.pairs_scored", offered)
        else:
            admitted = _gate_admitted(pos_v, pos_ir, *gate)
            tr.count("registration.pairs_scored", admitted)
            tr.count("registration.gate_admitted", admitted)
            tr.count("registration.gate_offered", offered)
        tr.count("registration.matches", len(matches))
        if len(matches) < ransac.model.min_matches:
            raise RegistrationError(
                f"iteration {it} matching: {len(matches)} matches, need at "
                f"least {ransac.model.min_matches}")
        with tr.span("registration.consensus_s"):
            t_prev, support = ransac_once(matches, pos_v, pos_ir, ransac,
                                          consensus, rng)
        tr.count("registration.support", support)
    return t_prev


def _gate_admitted(pos_v, pos_ir, t, max_dist) -> int:
    """Candidate pairs within the gate: the pairs gated matching scores."""
    projected = t.apply(pos_v)
    dist = np.hypot(projected[:, None, 0] - pos_ir[None, :, 0],
                    projected[:, None, 1] - pos_ir[None, :, 1])
    return int(np.count_nonzero(dist <= max_dist))


FUSION_SCALE_SPANS = ("fusion.scale1_s", "fusion.scale2_s", "fusion.scale4_s")


def replay_fuse(rgb, ir, t, fusion, tr: Tracer):
    """`warp_affine(ir, t.inverse())` then `fuse_pair(rgb, aligned)`, stage
    by stage; returns (aligned, fused gray, fused colour)."""
    with tr.span("image.warp_s"):
        aligned = warp_affine(ir, t.inverse())
    with tr.span("image.luminance_s"):
        luma = to_luminance(rgb)
    scales = []
    for span, sigma in zip(FUSION_SCALE_SPANS, fusion.sigmas):
        with tr.span(span):
            scales.append(fuse_single_scale(luma, aligned, sigma,
                                            fusion.alpha, fusion.gain))
    with tr.span("fusion.combine_s"):
        fused = np.clip((scales[0] + scales[1] + scales[2]) / 3.0, 0.0, 1.0)
    with tr.span("fusion.restore_color_s"):
        color = restore_color(fused, rgb, fusion.color_eps)
    return aligned, fused, color


def replay_codec(src, dst, fmt, tr: Tracer):
    """`read_image` then `write_image` in the same container and depth."""
    with tr.span(f"image_io.decode_s.{fmt.decode_kind}"):
        img = read_image(src)
    with tr.span(f"image_io.encode_s.{fmt.container}"):
        write_image(dst, img, fmt.bitdepth)
    tr.count("image_io.bytes_read", src.stat().st_size)
    tr.count("image_io.bytes_written", dst.stat().st_size)
    return img
