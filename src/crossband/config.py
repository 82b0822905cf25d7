"""Flat key-value configuration shared by the CLI subcommands.

The file format is one `key = value` per line, `#` starts a comment, blank
lines are ignored. Keys are dotted and validated against the schema below;
command-line `-o key=value` overrides take precedence over file values.
"""

from __future__ import annotations

from .descriptor import DEFAULT_WINDOW, POLARITIES
from .edges import CannyConfig
from .features import HarrisConfig
from .fusion import FusionConfig
from .evaluation import MODALITY_MODELS, SimulationSpec
from .registration import RansacConfig
from .transform import TransformKind

_MODELS = tuple(k.value for k in TransformKind)


def _float(text: str) -> float:
    return float(text)


def _int(text: str) -> int:
    return int(text, 10)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.replace(",", " ").split())


def _choice(options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text
    return parse


# key -> (parser, default, help)
SCHEMA: dict[str, tuple] = {
    "harris.k": (_float, 0.04, "corner score sensitivity"),
    "harris.window_sigma": (_float, 1.5, "structure-tensor Gaussian sigma"),
    "harris.nms_window": (_int, 7, "odd corner suppression window"),
    "harris.max_corners": (_int, 400, "corner count cap per image"),
    "harris.min_score": (_float, 0.01, "corner threshold relative to max score"),
    "canny.blur_sigma": (_float, 1.0, "pre-smoothing sigma for edge detection"),
    "canny.low_ratio": (_float, 0.1, "low hysteresis threshold / max magnitude"),
    "canny.high_ratio": (_float, 0.2, "high hysteresis threshold / max magnitude"),
    "descriptor.window": (_int, DEFAULT_WINDOW, "odd descriptor window side"),
    "matching.polarity": (_choice(POLARITIES), "both",
                          "direction handling: direct, flipped, or both"),
    "ransac.model": (_choice(_MODELS), "translation",
                     "transform model: translation, similarity, or affine"),
    "ransac.samples_per_iter": (_int, 1000, "consensus samples per iteration"),
    "ransac.inlier_dist_coarse": (_float, 5.0,
                                  "consensus radius (px), iterations 1-2"),
    "ransac.inlier_dist_fine": (_float, 2.0, "consensus radius (px), iteration 3"),
    "ransac.gate_dist_coarse": (_float, 15.0, "match gating radius (px), iteration 2"),
    "ransac.gate_dist_fine": (_float, 5.0, "match gating radius (px), iteration 3"),
    "ransac.seed": (_int, 0, "consensus sampling seed"),
    "fusion.alpha": (_float, 0.5, "low-pass blend weight of the visible band"),
    "fusion.gain": (_float, 1.5, "high-pass sharpness gain"),
    "fusion.sigmas": (_float_list, (1.0, 2.0, 4.0),
                      "three increasing fusion scales"),
    "fusion.color_eps": (_float, 1.0 / 255.0, "luminance guard for color restore"),
    "eval.translation_range": (_float, 20.0, "planted shift range (+/- px)"),
    "eval.scales": (_float_list, (1.0,), "planted scale sweep"),
    "eval.modality": (_choice(MODALITY_MODELS), "identity",
                      "photometric model of the second band"),
    "eval.gamma": (_float, 2.2, "gamma exponent of the modality model"),
    "eval.noise_sigma": (_float, 0.02, "additive noise level"),
    "eval.trials": (_int, 20, "trials per scale"),
    "eval.seed": (_int, 0, "benchmark seed"),
}


def defaults() -> dict:
    return {key: spec[1] for key, spec in SCHEMA.items()}


def parse_assignment(line: str, settings: dict, source: str) -> None:
    """Apply one `key = value` assignment to the settings dict."""
    key, sep, value = line.partition("=")
    key = key.strip()
    value = value.strip()
    if not sep or not key:
        raise ValueError(f"{source}: expected 'key = value', got {line.strip()!r}")
    if key not in SCHEMA:
        raise ValueError(f"{source}: unknown configuration key {key!r}")
    parser = SCHEMA[key][0]
    try:
        settings[key] = parser(value)
    except ValueError as exc:
        raise ValueError(f"{source}: invalid value for {key!r}: {exc}") from exc


def load_config(path, settings: dict | None = None) -> dict:
    """Read a flat key-value file on top of the defaults."""
    if settings is None:
        settings = defaults()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc.strerror}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parse_assignment(line, settings, source=f"{path}:{lineno}")
    return settings


def apply_overrides(settings: dict, assignments) -> dict:
    for text in assignments or ():
        parse_assignment(text, settings, source="override")
    return settings


def _build(ctor, kwargs, group: str):
    try:
        return ctor(**kwargs)
    except ValueError as exc:
        raise ValueError(f"invalid {group} configuration: {exc}") from exc


def harris_config(settings: dict) -> HarrisConfig:
    return _build(HarrisConfig, dict(
        k=settings["harris.k"],
        window_sigma=settings["harris.window_sigma"],
        nms_window=settings["harris.nms_window"],
        max_corners=settings["harris.max_corners"],
        min_score=settings["harris.min_score"]), "harris.*")


def canny_config(settings: dict) -> CannyConfig:
    return _build(CannyConfig, dict(
        blur_sigma=settings["canny.blur_sigma"],
        low_ratio=settings["canny.low_ratio"],
        high_ratio=settings["canny.high_ratio"]), "canny.*")


def ransac_config(settings: dict) -> RansacConfig:
    return _build(RansacConfig, dict(
        model=TransformKind(settings["ransac.model"]),
        samples_per_iter=settings["ransac.samples_per_iter"],
        inlier_dist_coarse=settings["ransac.inlier_dist_coarse"],
        inlier_dist_fine=settings["ransac.inlier_dist_fine"],
        gate_dist_coarse=settings["ransac.gate_dist_coarse"],
        gate_dist_fine=settings["ransac.gate_dist_fine"],
        rng_seed=settings["ransac.seed"]), "ransac.*")


def fusion_config(settings: dict) -> FusionConfig:
    return _build(FusionConfig, dict(
        alpha=settings["fusion.alpha"],
        gain=settings["fusion.gain"],
        sigmas=settings["fusion.sigmas"],
        color_eps=settings["fusion.color_eps"]), "fusion.*")


def simulation_spec(settings: dict) -> SimulationSpec:
    return _build(SimulationSpec, dict(
        translation_range=settings["eval.translation_range"],
        scales=settings["eval.scales"],
        modality=settings["eval.modality"],
        gamma=settings["eval.gamma"],
        noise_sigma=settings["eval.noise_sigma"],
        trials=settings["eval.trials"],
        rng_seed=settings["eval.seed"]), "eval.*")


def descriptor_window(settings: dict) -> int:
    window = settings["descriptor.window"]
    if window < 5 or window % 2 == 0:
        raise ValueError(
            f"descriptor.window must be odd and >= 5, got {window}")
    return window


def polarity_mode(settings: dict) -> str:
    return settings["matching.polarity"]


def describe_keys() -> str:
    """One line per key with its default, for the CLI help epilog."""
    width = max(len(k) for k in SCHEMA)
    lines = ["configuration keys (file `key = value` lines or -o key=value):"]
    for key, (parser, default, help_text) in SCHEMA.items():
        if isinstance(default, tuple):
            shown = ",".join(f"{v:g}" for v in default)
        elif isinstance(default, float):
            shown = f"{default:g}"
        else:
            shown = str(default)
        lines.append(f"  {key:<{width}}  {help_text} [default: {shown}]")
    return "\n".join(lines)
