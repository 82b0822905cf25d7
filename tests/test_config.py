import dataclasses
import enum

import pytest
from hypothesis import given, settings, strategies as st

from crossband import config
from crossband.descriptor import MatchingConfig
from crossband.evaluation import SimulationSpec
from crossband.features import HarrisConfig
from crossband.fusion import FusionConfig


@pytest.mark.parametrize("group", config.GROUPS, ids=lambda g: g.__name__)
def test_build_defaults_gives_default_instance(group):
    assert config.build(group, config.defaults()) == group()


def test_every_field_declares_key_and_help():
    keys = []
    for group in config.GROUPS:
        for f in dataclasses.fields(group):
            assert f.metadata.get("key"), (group.__name__, f.name)
            assert f.metadata.get("help"), (group.__name__, f.name)
            keys.append(f.metadata["key"])
    assert keys == list(config.SCHEMA)


def test_build_names_the_group_on_invalid_values():
    settings = config.defaults()
    settings["descriptor.window"] = 4
    with pytest.raises(ValueError, match=r"descriptor\.\*.*window must be odd"):
        config.build(MatchingConfig, settings)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("group, name, value", [
    (FusionConfig, "gain", _NAN), (FusionConfig, "gain", _INF),
    (FusionConfig, "color_eps", _NAN), (FusionConfig, "color_eps", _INF),
    (SimulationSpec, "noise_sigma", _NAN), (SimulationSpec, "noise_sigma", _INF),
    (SimulationSpec, "translation_range", _NAN),
    (SimulationSpec, "translation_range", _INF),
    (HarrisConfig, "min_score", _NAN), (HarrisConfig, "min_score", _INF),
    (HarrisConfig, "min_score", -_INF), (HarrisConfig, "min_score", -0.01),
    (HarrisConfig, "min_score", 7.0),
])
def test_config_rejects_out_of_range_value(group, name, value):
    with pytest.raises(ValueError, match=name):
        group(**{name: value})


def test_enum_default_shown_by_value_in_help():
    line = next(l for l in config.describe_keys().splitlines()
                if l.strip().startswith("ransac.model "))
    assert line.endswith("[default: translation]")


_SIGMA_KEYS = ["harris.window_sigma", "canny.blur_sigma", "fusion.sigmas"]


def test_sigma_keys_state_their_limit_in_help():
    lines = config.describe_keys().splitlines()
    for key in _SIGMA_KEYS:
        line = next(l for l in lines if l.strip().startswith(key + " "))
        assert "(at most 100)" in line
    assert sum("at most" in l for l in lines) == len(_SIGMA_KEYS)


@pytest.mark.parametrize("key", _SIGMA_KEYS)
def test_sigma_limit_is_inclusive(key):
    settings = config.apply_overrides(config.defaults(), [f"{key}=100"])
    assert settings[key] in (100.0, (100.0,))


def _value_strategy(f: dataclasses.Field):
    """Values the key's parser accepts, drawn by the field's default type."""
    if isinstance(f.default, enum.Enum):
        return st.sampled_from([k.value for k in type(f.default)])
    if "choices" in f.metadata:
        return st.sampled_from(f.metadata["choices"])
    finite = st.floats(max_value=f.metadata.get("max"), allow_nan=False,
                       allow_infinity=False)
    if isinstance(f.default, tuple):
        return st.lists(finite, min_size=1, max_size=4).map(tuple)
    if isinstance(f.default, int):
        return st.integers(-10**6, 10**6)
    return finite


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    return value if isinstance(value, str) else repr(value)


_SETTINGS = st.fixed_dictionaries({
    f.metadata["key"]: _value_strategy(f)
    for group in config.GROUPS for f in dataclasses.fields(group)})


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "round_trip.cfg"


@settings(max_examples=50, deadline=None)
@given(drawn=_SETTINGS)
def test_config_file_round_trip(config_path, drawn):
    config_path.write_text("".join(f"{key} = {_format(value)}\n"
                                   for key, value in drawn.items()))
    assert config.load_config(config_path) == drawn
