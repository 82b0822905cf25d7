"""Flat key-value configuration shared by the CLI subcommands.

The file format is one `key = value` per line, `#` starts a comment, blank
lines are ignored. Keys are dotted and validated against the schema below;
command-line `-o key=value` overrides take precedence over file values.

Every key is declared once, on a field of one of the config dataclasses in
GROUPS: `metadata["key"]` names it, `metadata["help"]` describes it, and the
field's default is its default. String choice fields add
`metadata["choices"]`.
"""

from __future__ import annotations

import dataclasses
import enum
import math

from .descriptor import MatchingConfig
from .edges import CannyConfig
from .evaluation import SimulationSpec
from .features import HarrisConfig
from .fusion import FusionConfig
from .registration import RansacConfig

GROUPS = (HarrisConfig, CannyConfig, MatchingConfig, RansacConfig,
          FusionConfig, SimulationSpec)


def _float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {text!r}")
    return value


def _int(text: str) -> int:
    return int(text, 10)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(_float(v) for v in text.replace(",", " ").split())


def _choice(options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return text
    return parse


def _schema_entry(f: dataclasses.Field) -> tuple:
    """(parser, default, help) of one field; the parser follows the
    default's type, and an Enum default is kept as its value."""
    default = f.default
    if isinstance(default, enum.Enum):
        parser = _choice(tuple(k.value for k in type(default)))
        default = default.value
    elif "choices" in f.metadata:
        parser = _choice(f.metadata["choices"])
    elif isinstance(default, tuple):
        parser = _float_list
    elif isinstance(default, int):
        parser = _int
    else:
        parser = _float
    return parser, default, f.metadata["help"]


# key -> (parser, default, help), in GROUPS and field order
SCHEMA: dict[str, tuple] = {
    f.metadata["key"]: _schema_entry(f)
    for group in GROUPS for f in dataclasses.fields(group)}


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


def build(group, settings: dict):
    """An instance of the config dataclass `group` from its keys' values."""
    fields = dataclasses.fields(group)
    try:
        return group(**{f.name: settings[f.metadata["key"]] for f in fields})
    except ValueError as exc:
        prefixes = dict.fromkeys(f.metadata["key"].split(".")[0] for f in fields)
        label = ", ".join(f"{p}.*" for p in prefixes)
        raise ValueError(f"invalid {label} configuration: {exc}") from exc


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
