"""Command-line surface: register, warp, fuse, and eval subcommands.

Exit codes: 0 success, 1 usage/I-O/configuration problems, 2 algorithmic
failures (registration could not converge, singular transform). Output
files are written to a temporary sibling and renamed into place, so a
failing command never leaves partial output behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .descriptor import MatchingConfig
from .edges import CannyConfig
from .errors import (DegenerateFitError, ImageIOError, RegistrationError,
                     SingularTransformError)
from .evaluation import SimulationSpec, run_benchmark
from .features import HarrisConfig
from .fusion import FusionConfig, fuse_pair, fuse_scales
from .image import (as_color, as_gray, clamp01, replicate3, to_luminance,
                    warp_affine)
from .image_io import read_image, write_image
from .registration import RansacConfig, register
from .transform import load_transform, to_json_dict

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_ALGORITHM = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the CLI contract reserves 2 for
    # algorithmic failures, so redirect usage problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(self._report(message))

    def _report(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return _EXIT_USAGE


def _add_config_options(sub):
    sub.add_argument("-c", "--config", metavar="FILE",
                     help="flat key-value configuration file")
    sub.add_argument("-o", "--opt", metavar="KEY=VALUE", action="append",
                     default=[], help="override a configuration key")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crossband",
        description="Cross-spectral image registration and fusion.",
        epilog=cfgmod.describe_keys(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("register", parents=[],
                        help="estimate the transform between two bands")
    p.add_argument("visible", help="visible-band image (PNG/PGM/PPM)")
    p.add_argument("infrared", help="second-band image")
    p.add_argument("out_transform", help="output transform JSON path")
    _add_config_options(p)

    p = subs.add_parser("warp", help="apply a transform to an image")
    p.add_argument("input", help="image to warp")
    p.add_argument("transform", help="transform file (JSON or 2x3 text)")
    p.add_argument("output", help="output image path")
    p.add_argument("--invert", action="store_true",
                   help="apply the inverse transform (align the second band "
                        "onto the first)")
    p.add_argument("--fill", type=float, default=0.0,
                   help="intensity for out-of-domain samples [default: 0]")
    p.add_argument("--bits", type=int, choices=(8, 16), default=8,
                   help="output bit depth [default: 8]")

    p = subs.add_parser("fuse", help="fuse an aligned visible/infrared pair")
    p.add_argument("visible", help="visible-band image (color or gray)")
    p.add_argument("infrared", help="aligned second-band image")
    p.add_argument("out_gray", help="output fused grayscale image")
    p.add_argument("out_color", help="output fused color image")
    p.add_argument("--dump-scales", metavar="PREFIX",
                   help="also write the per-scale fusions as PREFIX-<sigma>.png")
    _add_config_options(p)

    p = subs.add_parser("eval", help="benchmark registration on planted transforms")
    p.add_argument("dataset_dir", help="directory of base images")
    p.add_argument("spec", help="benchmark configuration file (may be empty)")
    p.add_argument("out_csv", help="output CSV path")
    p.add_argument("-o", "--opt", metavar="KEY=VALUE", action="append",
                   default=[], help="override a configuration key")
    return parser


def _settings_from(path, overrides) -> dict:
    settings = cfgmod.defaults()
    if path is not None:
        cfgmod.load_config(path, settings)
    return cfgmod.apply_overrides(settings, overrides)


def _register_args(settings) -> tuple:
    """The configuration arguments of register and run_benchmark, which
    share their order: Harris, Canny, window, consensus, polarity."""
    matching = cfgmod.build(MatchingConfig, settings)
    return (cfgmod.build(HarrisConfig, settings),
            cfgmod.build(CannyConfig, settings), matching.window,
            cfgmod.build(RansacConfig, settings), matching.polarity)


def _atomic_write(path: str, write) -> None:
    """Call write(tmp) on a temporary sibling of path, then rename it onto
    path. The temporary name ends in path's name, so it keeps the extension
    that write_image reads the format from."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-",
                               suffix=os.path.basename(path))
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_gray(path) -> np.ndarray:
    img = read_image(path)
    return to_luminance(img) if img.ndim == 3 else img


def _cmd_register(args) -> int:
    settings = _settings_from(args.config, args.opt)
    visible = _load_gray(args.visible)
    infrared = _load_gray(args.infrared)
    result = register(visible, infrared, *_register_args(settings))
    for i, (t, support) in enumerate(result.per_iteration, start=1):
        tx, ty = t.m[0, 2], t.m[1, 2]
        print(f"iteration {i}: support={support} "
              f"translation=({tx:+.3f}, {ty:+.3f}) scale={t.scale():.5f}")
    print(f"final: model={result.transform.kind.value} "
          f"support={result.support} inliers={len(result.inliers)}")
    payload = json.dumps(to_json_dict(result.transform, result.support,
                                      len(result.inliers)), indent=2) + "\n"
    _atomic_write(args.out_transform,
                  lambda tmp: Path(tmp).write_bytes(payload.encode("utf-8")))
    print(f"transform written to {args.out_transform}")
    return _EXIT_OK


def _cmd_warp(args) -> int:
    img = read_image(args.input)
    t = load_transform(args.transform)
    if args.invert:
        t = t.inverse()
    if img.ndim == 2:
        out = warp_affine(img, t, fill=args.fill)
    else:
        arr = as_color(img)
        planes = [warp_affine(arr[:, :, c], t, fill=args.fill) for c in range(3)]
        out = np.stack(planes, axis=2)
    _atomic_write(args.output,
                  lambda tmp: write_image(tmp, out, bitdepth=args.bits))
    print(f"warped image written to {args.output}")
    return _EXIT_OK


def _cmd_fuse(args) -> int:
    settings = _settings_from(args.config, args.opt)
    visible = read_image(args.visible)
    if visible.ndim == 2:
        visible = replicate3(visible)
    infrared = _load_gray(args.infrared)
    if visible.shape[:2] != infrared.shape:
        raise ValueError(
            f"image dimensions differ: visible is "
            f"{visible.shape[1]}x{visible.shape[0]}, infrared is "
            f"{infrared.shape[1]}x{infrared.shape[0]}")
    fusion_cfg = cfgmod.build(FusionConfig, settings)
    fused, fused_color = fuse_pair(visible, infrared, fusion_cfg)
    _atomic_write(args.out_gray, lambda tmp: write_image(tmp, fused))
    _atomic_write(args.out_color, lambda tmp: write_image(tmp, fused_color))
    print(f"fused images written to {args.out_gray} and {args.out_color}")
    if args.dump_scales:
        scales = fuse_scales(to_luminance(visible), infrared, fusion_cfg)
        for sigma, img in zip(fusion_cfg.sigmas, scales):
            path = f"{args.dump_scales}-{sigma:g}.png"
            _atomic_write(path, lambda tmp: write_image(tmp, clamp01(img)))
            print(f"per-scale fusion written to {path}")
    return _EXIT_OK


_IMAGE_SUFFIXES = (".png", ".pgm", ".ppm")


def _cmd_eval(args) -> int:
    settings = _settings_from(args.spec, args.opt)
    names = sorted(n for n in os.listdir(args.dataset_dir)
                   if n.lower().endswith(_IMAGE_SUFFIXES))
    if not names:
        raise ValueError(f"no images found in {args.dataset_dir}")
    bases = [as_gray(_load_gray(os.path.join(args.dataset_dir, n)))
             for n in names]
    report = run_benchmark(bases, cfgmod.build(SimulationSpec, settings),
                           *_register_args(settings))
    csv = report.to_csv().encode("utf-8")
    _atomic_write(args.out_csv, lambda tmp: Path(tmp).write_bytes(csv))
    print(f"trials={len(report.rows)} failures={report.failures} "
          f"mean_error={report.mean_error:.4f}px "
          f"median_error={report.median_error:.4f}px")
    print(f"report written to {args.out_csv}")
    return _EXIT_OK


_COMMANDS = {
    "register": _cmd_register,
    "warp": _cmd_warp,
    "fuse": _cmd_fuse,
    "eval": _cmd_eval,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (RegistrationError, DegenerateFitError, SingularTransformError) as exc:
        print(f"crossband {args.command}: {exc}", file=sys.stderr)
        return _EXIT_ALGORITHM
    except (ImageIOError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"crossband {args.command}: {exc}", file=sys.stderr)
        return _EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
