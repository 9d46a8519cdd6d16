"""The config records' one checker: each field's type comes from its
annotation, ranges are intervals, and a record built from a mapping
refuses unknown names."""

import math
from dataclasses import asdict, fields
from typing import get_args, get_type_hints

import numpy as np
import pytest

from botsift.config import ConfigError
from botsift.models import FAMILIES, make_params
from botsift.models.nn import NnParams
from botsift.synth import SynthConfig
from botsift.windows import WindowConfig

RECORDS = [family.params for family in FAMILIES.values()] + [SynthConfig,
                                                              WindowConfig]


def fields_taking(cls, kind):
    """Names of the fields of cls whose annotation admits kind."""
    hints = get_type_hints(cls)
    return [f.name for f in fields(cls)
            if kind in (hints[f.name], *get_args(hints[f.name]))]


@pytest.mark.parametrize("cls,name", [
    (cls, name) for cls in RECORDS for name in fields_taking(cls, float)])
def test_nan_in_a_float_field_is_refused(cls, name):
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        cls(**{name: math.nan})


@pytest.mark.parametrize("cls,name", [
    (cls, name) for cls in RECORDS for name in fields_taking(cls, int)])
@pytest.mark.parametrize("value", [2.5, True, "3", np.float64(3.0)])
def test_an_int_field_takes_integers_only(cls, name, value):
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        cls(**{name: value})


@pytest.mark.parametrize("cls", [cls for cls in RECORDS
                                 if "seed" in fields_taking(cls, int)])
def test_a_seed_is_not_negative(cls):
    assert cls(seed=0).seed == 0
    with pytest.raises(ValueError, match=r"seed must be an integer in "
                                         r"\[0, inf\), got -1"):
        cls(seed=-1)


@pytest.mark.parametrize("name", ["duration", "botnet_flow_rate"])
def test_synth_rates_and_durations_are_finite(name):
    with pytest.raises(ValueError, match=name):
        SynthConfig(**{name: math.inf})


def test_window_width_refuses_a_bool():
    with pytest.raises(TypeError, match="width"):
        WindowConfig(width=True)


@pytest.mark.parametrize("hidden", [(2.5, 3), True, 16.5, [4, False], "8"])
def test_hidden_widths_are_integers(hidden):
    with pytest.raises(TypeError, match="hidden"):
        NnParams(hidden=hidden)


def test_valid_values_keep_their_type():
    hp = make_params("logreg", {"c": 5, "max_iter": np.int64(3)})
    assert type(hp.c) is int and asdict(hp)["c"] == 5
    assert make_params("logreg", {"c": math.inf}).c == math.inf
    assert make_params("rf", {"max_depth": None}).max_depth is None
    assert make_params("nn", {"hidden": [8, np.int64(4)]}).hidden == (8, 4)
    assert WindowConfig(width=120, stride=60).width == 120


def test_unknown_keys_are_named_in_order():
    with pytest.raises(ConfigError, match="unknown config keys: a, b"):
        make_params("gboost", {"b": 1, "a": 2, "n_trees": 3})


@pytest.mark.parametrize("cls,overrides", [
    (FAMILIES["gboost"].params, {"loss": "hinge"}),
    (FAMILIES["svm"].params, {"penalty": None}),
    (SynthConfig, {"botnet_behavior": "ddos"}),
])
def test_a_string_field_takes_one_of_its_values(cls, overrides):
    with pytest.raises(ValueError, match="must be one of"):
        cls(**overrides)
