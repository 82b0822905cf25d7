"""The four benchmark workloads: seeded inputs, the timed op, its checks.

Every input is built from the run's seed and the op's index alone, so two
runs with one seed see the same inputs in the same order. The op calls only
crossband's public API; the generated arrays or files are all it receives.

Workload (why it was chosen):

register-translation  `register` with the translation model. Ungated
                      matching is the largest stage, so descriptor scoring
                      and matching changes show here first.
register-scaled       planted similarities, ops alternating the similarity
                      and affine models. Consensus is the largest stage, so
                      sampling and fitting changes show here first.
fuse                  `warp_affine` plus `fuse_pair`. Only the image and
                      fusion modules run: registration and codec changes
                      should leave it unchanged.
codec                 `read_image` of a PNG carrying a real filter mix (or a
                      PNM), then `write_image` back. Only image_io runs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from crossband.descriptor import DEFAULT_WINDOW
from crossband.edges import CannyConfig
from crossband.errors import RegistrationError
from crossband.evaluation import (SimulationSpec, simulate_pair,
                                  synthetic_texture, translation_error)
from crossband.features import HarrisConfig
from crossband.fusion import FusionConfig, fuse_pair
from crossband.image import warp_affine
from crossband.image_io import read_image, write_image
from crossband.registration import RansacConfig, register
from crossband.transform import AffineTransform, TransformKind

import reference
import spans

WIDTH, HEIGHT = 640, 480
# Criterion 2's tolerances: a registration further off than this has failed.
MAX_TRANSLATION_ERROR_PX = 2.0
MAX_SCALE_ERROR = 0.01
# The fused outputs must match the independent transcription this closely.
FUSION_TOLERANCE = 1e-9


def _rng(seed: int, name: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), index])


def _similarity_about_centre(scale, angle_deg, shift) -> AffineTransform:
    """Scale and rotate about the frame centre, then shift."""
    theta = np.deg2rad(angle_deg)
    a, b = scale * np.cos(theta), scale * np.sin(theta)
    centre = np.array([(WIDTH - 1) / 2.0, (HEIGHT - 1) / 2.0])
    lin = np.array([[a, -b], [b, a]])
    t = centre + np.asarray(shift) - lin @ centre
    return AffineTransform.similarity(float(a), float(b), float(t[0]), float(t[1]))


@dataclass(frozen=True)
class RegisterConfigs:
    harris: HarrisConfig
    canny: CannyConfig
    window: int
    ransac: RansacConfig
    polarity: str


@dataclass(frozen=True)
class RegisterInput:
    vis: np.ndarray
    ir: np.ndarray
    t_eff: AffineTransform  # transform that relates the returned pair
    scale: float
    cfgs: RegisterConfigs


class RegisterWorkload:
    """One op: `register(vis, ir)` on a freshly planted pair."""

    misses = (RegistrationError,)  # the library's report that it could not register
    spec = SimulationSpec(modality="invert+gamma", gamma=2.2, noise_sigma=0.02)

    def __init__(self, name, models, plant):
        self.name = name
        self.models = models
        self.plant = plant  # rng -> planted AffineTransform

    def configs(self):
        return [RegisterConfigs(HarrisConfig(), CannyConfig(), DEFAULT_WINDOW,
                                RansacConfig(model=m), "both") for m in self.models]

    def prepare(self, seed, workdir):
        self.seed = seed
        self.cfgs = self.configs()

    def make_input(self, i) -> RegisterInput:
        rng = _rng(self.seed, self.name, i)
        base = synthetic_texture(WIDTH, HEIGHT, seed=int(rng.integers(1 << 31)))
        t_true = self.plant(rng)
        vis, ir, t_eff = simulate_pair(base, t_true, self.spec, rng)
        return RegisterInput(vis, ir, t_eff, t_true.scale(),
                             self.cfgs[i % len(self.cfgs)])

    def run(self, inp: RegisterInput):
        c = inp.cfgs
        return register(inp.vis, inp.ir, c.harris, c.canny, c.window, c.ransac,
                        c.polarity).transform

    def replay(self, inp: RegisterInput, tr):
        return spans.replay_register(inp.vis, inp.ir, inp.cfgs, tr)

    def check(self, inp: RegisterInput, out):
        """(problem or None, registration error in px).

        Problems are "accuracy" misses: the estimate is further from the
        planted transform than criterion 2 allows.
        """
        err = translation_error(out, inp.t_eff)
        if not err <= MAX_TRANSLATION_ERROR_PX:
            return f"accuracy: translation off by {err:.3f} px", err
        d_scale = abs(out.scale() - inp.scale)
        if not d_scale <= MAX_SCALE_ERROR:
            return f"accuracy: scale off by {d_scale:.4f}", err
        return None, err

    def artifact(self, inp, out, traced) -> bytes:
        return out.kind.value.encode() + out.m.tobytes()


def _plant_translation(rng):
    tx, ty = rng.uniform(-20.0, 20.0, size=2)
    return AffineTransform.translation(float(tx), float(ty))


def _plant_similarity(rng):
    return _similarity_about_centre(rng.uniform(0.9, 1.1), rng.uniform(-2.0, 2.0),
                                    rng.uniform(-10.0, 10.0, size=2))


@dataclass(frozen=True)
class FuseInput:
    rgb: np.ndarray
    ir: np.ndarray
    t: AffineTransform  # maps visible coordinates to infrared coordinates
    aligned_ref: np.ndarray
    aligned_mask: np.ndarray
    fused_ref: np.ndarray
    color_ref: np.ndarray


class FuseWorkload:
    """One op: align the infrared band by a known transform, then fuse.

    Fusion cost does not depend on content, so a run cycles through a small
    seeded pool of pairs whose references are computed once.
    """

    name = "fuse"
    pool_size = 2
    misses = ()

    def configs(self):
        return [FusionConfig()]

    def prepare(self, seed, workdir):
        (self.fusion,) = self.configs()
        self.pool = [self._make_pair(_rng(seed, self.name, k))
                     for k in range(self.pool_size)]

    def _make_pair(self, rng) -> FuseInput:
        base = synthetic_texture(WIDTH, HEIGHT, seed=int(rng.integers(1 << 31)))
        tint = synthetic_texture(WIDTH, HEIGHT, seed=int(rng.integers(1 << 31)))
        rgb = np.clip(np.stack([base * (0.7 + 0.6 * tint), base,
                                base * (1.3 - 0.6 * tint)], axis=2), 0.0, 1.0)
        scene_ir = np.clip((1.0 - base) ** 2.2
                           + rng.normal(0.0, 0.02, base.shape), 0.0, 1.0)
        t = _similarity_about_centre(rng.uniform(0.98, 1.02), rng.uniform(-1.0, 1.0),
                                     rng.uniform(-5.0, 5.0, size=2))
        # the infrared frame sees the scene through t: ir(t(x)) = scene_ir(x)
        ir = warp_affine(scene_ir, t)
        aligned_ref, mask = reference.warp_reference(ir, t.m)
        # Fuse the library's own warp in the reference, so that a warp
        # deviation inside tolerance cannot show up as a fusion failure.
        f = self.fusion
        fused_ref, color_ref = reference.hplp_reference(
            rgb, warp_affine(ir, t.inverse()), f.alpha, f.gain, f.sigmas, f.color_eps)
        return FuseInput(rgb, ir, t, aligned_ref, mask, fused_ref, color_ref)

    def make_input(self, i) -> FuseInput:
        return self.pool[i % self.pool_size]

    def run(self, inp: FuseInput):
        aligned = warp_affine(inp.ir, inp.t.inverse())
        fused, color = fuse_pair(inp.rgb, aligned, self.fusion)
        return aligned, fused, color

    def replay(self, inp: FuseInput, tr):
        return spans.replay_fuse(inp.rgb, inp.ir, inp.t, self.fusion, tr)

    def check(self, inp: FuseInput, out):
        aligned, fused, color = out
        m = inp.aligned_mask
        for stage, got, want in (("warp", aligned[m], inp.aligned_ref[m]),
                                 ("fusion gray", fused, inp.fused_ref),
                                 ("fusion color", color, inp.color_ref)):
            dev = float(np.max(np.abs(got - want)))
            if not dev <= FUSION_TOLERANCE:
                return f"{stage}: off the reference by {dev:.3e}", None
        return None, None

    def artifact(self, inp, out, traced) -> bytes:
        return b"".join(a.tobytes() for a in out)


def _banded_plane(rng, band=40) -> np.ndarray:
    """A texture cut by bands of rows that other PNG filters predict best.

    Smooth texture favours Paeth; ramps with a shared slope favour Sub;
    repeated rows favour Up; noise added to the texture favours
    Average. The fixture writer then picks a real mix of filters, as
    encoders do on photographs, so decoding exercises every unfilter.
    """
    tex = synthetic_texture(WIDTH, HEIGHT, seed=int(rng.integers(1 << 31)))
    ramp = np.arange(WIDTH) / (WIDTH - 1)
    out = tex.copy()
    for k, y0 in enumerate(range(0, HEIGHT, band)):
        rows = slice(y0, y0 + band)
        kind = k % 4
        if kind == 1:  # rows alternate far apart, so only the left neighbour predicts
            offsets = 0.3 * (np.arange(band)[:, None] % 2) + rng.uniform(0.0, 0.02, (band, 1))
            out[rows] = 0.05 + offsets + rng.uniform(0.3, 0.6) * ramp
        elif kind == 2:
            out[rows] = tex[y0]
        elif kind == 3:
            out[rows] = np.clip(tex[rows] + rng.normal(0.0, 0.05, (band, WIDTH)), 0.0, 1.0)
    return out


@dataclass(frozen=True)
class CodecFormat:
    kind: str          # fixture name and file stem
    ext: str
    bitdepth: int
    color: bool

    @property
    def container(self):
        return "png" if self.ext == "png" else "pnm"

    @property
    def decode_kind(self):
        return self.kind if self.container == "png" else "pnm"


PNG8_RGB = CodecFormat("png8-rgb", "png", 8, True)
PNG16_GRAY = CodecFormat("png16-gray", "png", 16, False)
PPM8_RGB = CodecFormat("ppm8-rgb", "ppm", 8, True)
PGM16_GRAY = CodecFormat("pgm16-gray", "pgm", 16, False)


@dataclass(frozen=True)
class CodecInput:
    fmt: CodecFormat
    src: Path
    dst: Path          # written by the public op
    dst_traced: Path   # written by the traced replay
    codes: np.ndarray  # what decoding src must yield


class CodecWorkload:
    """One op: `read_image` of a fixture, then `write_image` of the result.

    Two thirds of the ops decode a filtered PNG and one third a PNM, so the
    median op is a PNG decode plus encode.
    """

    name = "codec"
    misses = ()
    cycle = (PNG8_RGB, PNG16_GRAY, PPM8_RGB, PNG8_RGB, PNG16_GRAY, PGM16_GRAY)

    def configs(self):
        return list(self.cycle)

    def prepare(self, seed, workdir: Path):
        rng = _rng(seed, self.name, 0)
        planes = [_banded_plane(rng) for _ in range(4)]
        rgb, gray = np.stack(planes[:3], axis=2), planes[3]
        self.inputs = {}
        self.filters = {}
        for fmt in dict.fromkeys(self.cycle):
            codes = reference.quantize(rgb if fmt.color else gray, fmt.bitdepth)
            src = workdir / f"{fmt.kind}.{fmt.ext}"
            if fmt.container == "png":
                payload, self.filters[fmt.kind] = reference.encode_png(codes, fmt.bitdepth)
            else:
                payload = reference.encode_pnm(codes, fmt.bitdepth)
            src.write_bytes(payload)
            self.inputs[fmt] = CodecInput(fmt, src, workdir / f"out.{fmt.ext}",
                                          workdir / f"traced.{fmt.ext}", codes)

    def make_input(self, i) -> CodecInput:
        return self.inputs[self.cycle[i % len(self.cycle)]]

    def run(self, inp: CodecInput):
        img = read_image(inp.src)
        write_image(inp.dst, img, inp.fmt.bitdepth)
        return img

    def replay(self, inp: CodecInput, tr):
        return spans.replay_codec(inp.src, inp.dst_traced, inp.fmt, tr)

    def check(self, inp: CodecInput, out):
        maxcode = (1 << inp.fmt.bitdepth) - 1
        want = inp.codes.astype(np.float64) / maxcode
        if out.shape != want.shape or not np.array_equal(out, want):
            return "decode: pixels differ from the generated codes", None
        again = read_image(inp.dst)
        if not np.array_equal(reference.quantize(again, inp.fmt.bitdepth), inp.codes):
            return "encode: written file does not round-trip the codes", None
        return None, None

    def artifact(self, inp, out, traced) -> bytes:
        return out.tobytes() + (inp.dst_traced if traced else inp.dst).read_bytes()


WORKLOADS = {
    "register-translation": lambda: RegisterWorkload(
        "register-translation", (TransformKind.TRANSLATION,), _plant_translation),
    "register-scaled": lambda: RegisterWorkload(
        "register-scaled", (TransformKind.SIMILARITY, TransformKind.AFFINE),
        _plant_similarity),
    "fuse": FuseWorkload,
    "codec": CodecWorkload,
}
