"""Every float setting of every config dataclass, and every parameter of the
head-body ratio, rejects NaN and infinity, with a message naming it; the
simulator's Poisson means have an upper bound; and the README lists exactly
the config keys."""

import dataclasses
import math
import pathlib
import re

import pytest

from crowdpost.cli import _CONFIG_KEYS
from crowdpost.evaluator import EvalConfig
from crowdpost.nms import NmsConfig
from crowdpost.pipeline import PostProcessConfig
from crowdpost.ratio import HeadBodyRatio
from crowdpost.rdm import TrainConfig
from crowdpost.simulator import MAX_POISSON_MEAN, NoiseConfig, SimConfig

CONFIGS = (NmsConfig, PostProcessConfig, TrainConfig, SimConfig, NoiseConfig, EvalConfig,
           HeadBodyRatio)
# the one class without defaults
REQUIRED = {HeadBodyRatio: {"alpha_w": 3.0, "alpha_h": 8.0, "delta_x": 0.0, "delta_y": 3.5}}
# config file section -> dataclass
SECTIONS = {"sim": SimConfig, "noise": NoiseConfig, "nms": NmsConfig, "train": TrainConfig,
            "post": PostProcessConfig}
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _float_settings():
    """(config class, field, index): index is None for a float field and the
    position within a tuple-of-floats field."""
    for cls in CONFIGS:
        for f in dataclasses.fields(cls):
            if f.type == "float":
                yield pytest.param(cls, f.name, None, id=f"{cls.__name__}.{f.name}")
            elif f.type == "tuple[float, float]":
                for index in range(2):
                    yield pytest.param(cls, f.name, index,
                                       id=f"{cls.__name__}.{f.name}[{index}]")


def test_every_config_has_a_float_setting():
    covered = {p.values[0] for p in _float_settings()}
    assert covered == set(CONFIGS)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, name, index", _float_settings())
def test_non_finite_setting_rejected(cls, name, index, value):
    required = REQUIRED.get(cls, {})
    if index is not None:
        items = list(getattr(cls(**required), name))
        items[index] = value
        value = tuple(items)
    with pytest.raises(ValueError, match=name):
        cls(**{**required, name: value})


@pytest.mark.parametrize("cls, name", [(SimConfig, "persons_per_image"),
                                       (NoiseConfig, "head_fp_rate"),
                                       (NoiseConfig, "body_fp_rate")])
def test_poisson_mean_above_bound_rejected(cls, name):
    # only a value just above the bound: a large one would be simulated
    value = math.nextafter(MAX_POISSON_MEAN, math.inf)
    with pytest.raises(ValueError, match=f"^{name} must be at most MAX_POISSON_MEAN = "
                                         f"{MAX_POISSON_MEAN}, got {value}$"):
        cls(**{name: value})


def test_readme_lists_every_config_key():
    """The README's config key list, one `- `section`: `key`, ...` line per
    section, names every field of each section's dataclass in field order, and
    the top-level keys are exactly those sections plus `num_scenes`."""
    listed = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        m = re.fullmatch(r"- `(\w+)`: (.*)", line)
        if m:
            listed[m.group(1)] = re.findall(r"`(\w+)`", m.group(2))
    assert set(listed) == _CONFIG_KEYS
    for section, cls in SECTIONS.items():
        assert listed[section] == [f.name for f in dataclasses.fields(cls)], section
    assert listed["num_scenes"] == []
