"""One rule for a number that comes from outside (`errors.is_number`): the run
config's reader, the config and simulator classes and the counterfactual
treatment values apply it, and each raises its own error, whose message starts
with the field's config name, before it compares the value with anything."""

import collections.abc
import dataclasses
import typing

import numpy as np
import pytest

from dagformer.data import LinearEffect, LinearScm
from dagformer.errors import ConfigError, ContractError, is_number
from dagformer.forest import ForestConfig
from dagformer.model import ModelConfig, treatment_values
from dagformer.objectives import Nmmr
from dagformer.optim import AdamState

ERRORS = {ModelConfig: ConfigError, ForestConfig: ConfigError, AdamState: ConfigError,
          Nmmr: ContractError, LinearScm: ContractError, LinearEffect: ContractError}
CONFIG_NAMES = {"lam": "lambda"}  # a field whose config key is not its name


def test_is_number_takes_python_and_numpy_numbers_only():
    for value in (0, -3, 2 ** 80, np.int8(1), np.uint64(7), np.int64(-2)):
        assert is_number(value, int) and is_number(value), value
    for value in (0.5, float("nan"), np.float64(1.0), np.float32(0.5), np.float16(2.0)):
        assert is_number(value) and not is_number(value, int), value
    for value in (True, False, np.bool_(True), None, "1", "0.5", [1], (1,), {}, np.array(1.0),
                  1j):
        assert not is_number(value) and not is_number(value, int), value


# at the parent of this rule, each of these raised a bare TypeError or was accepted
TABLE = [
    (lambda v: ForestConfig(subsample_fraction=v), ConfigError, "subsample_fraction"),
    (lambda v: ModelConfig(alpha=v), ConfigError, "alpha"),
    (lambda v: ModelConfig(dropout_rate=v), ConfigError, "dropout_rate"),
    *[(lambda v, key=key: AdamState(**{key: v}), ConfigError, key)
      for key in ("learning_rate", "beta1", "beta2", "epsilon", "l2_penalty")],
    (lambda v: Nmmr(lam=v), ContractError, "lambda"),
    (lambda v: LinearScm(noise_sd=v), ContractError, "noise_sd"),
    (lambda v: LinearScm(propensity_intercept=v), ContractError, "propensity_intercept"),
    (lambda v: LinearScm(x_dim=v), ContractError, "x_dim"),
    (lambda v: LinearScm(outcome_weights=(v,)), ContractError, "outcome_weights"),
    (lambda v: LinearEffect(base=v), ContractError, "base"),
    (lambda v: LinearEffect(slope_x1=v), ContractError, "slope_x1"),
    (treatment_values, ContractError, "treatment values"),
]


@pytest.mark.parametrize("value", ["0.5", None, True])
@pytest.mark.parametrize("build, error, name", TABLE, ids=[name for *_, name in TABLE])
def test_a_value_that_is_not_a_number_is_the_own_error_naming_its_field(build, error, name,
                                                                       value):
    with pytest.raises(error, match=f"^{name} ") as info:
        build(value)
    assert type(info.value) is error


def _number_rule(annotation):
    """(kind, takes None, takes a callable) of an `int` or `float` annotation,
    bare or in a union; None for any other annotation."""
    args = typing.get_args(annotation) or (annotation,)
    kinds = [arg for arg in args if arg in (int, float)]
    if not kinds:
        return None
    callables = (arg is collections.abc.Callable
                 or typing.get_origin(arg) is collections.abc.Callable for arg in args)
    return kinds[0], type(None) in args, any(callables)


@pytest.mark.parametrize("cls", list(ERRORS), ids=lambda cls: cls.__name__)
def test_every_number_field_of_a_config_class_takes_numbers_only(cls):
    # a field added later without the rule fails here
    checked = []
    for field in dataclasses.fields(cls):
        rule = _number_rule(field.type) if field.init else None
        if rule is None:
            continue
        kind, optional, takes_callable = rule
        optional = optional or field.name == "seed"  # `section` passes None for a seed
        name = CONFIG_NAMES.get(field.name, field.name)
        bad = [True, "1", [1]] + ([] if optional else [None]) + ([1.0] if kind is int else [])
        for value in bad:
            with pytest.raises(ERRORS[cls], match=f"^{name} ") as info:
                cls(**{field.name: value})
            assert type(info.value) is ERRORS[cls], (field.name, value)
        default = 1 if field.default is None else field.default
        numpy = (np.int64 if kind is int else np.float64)(default)
        for value in [numpy] + ([None] if optional else []) + \
                ([lambda row: 0.0] if takes_callable else []):
            assert getattr(cls(**{field.name: value}), field.name) is value
        checked.append(field.name)
    assert checked


def test_numpy_numbers_build_what_python_numbers_build():
    assert ModelConfig(embedding_dim=np.int64(8), num_heads=np.int32(2), alpha=np.float32(0.5),
                       dropout_rate=np.float64(0.25), seed=np.uint8(3)) == \
        ModelConfig(embedding_dim=8, num_heads=2, alpha=0.5, dropout_rate=0.25, seed=3)
    assert ForestConfig(subsample_fraction=np.float64(0.5), seed=None) == \
        ForestConfig(subsample_fraction=0.5, seed=None)
    assert Nmmr(lam=np.float64(0.5), kernel_bandwidth=2) == Nmmr(lam=0.5, kernel_bandwidth=2.0)
    assert AdamState(learning_rate=1, beta1=np.float32(0.5)).learning_rate == 1.0
    assert LinearScm(x_dim=np.int64(2), propensity_weights=np.array([0.5, 0.1]),
                     outcome_weights=(1, 2), treatment_effect=np.float64(3.0)).x_dim == 2
    for values, want in ((np.int64(1), [1.0]), ([np.float32(0.5), 2], [0.5, 2.0]),
                         (np.array([10.0, 20.0]), [10.0, 20.0]), (np.array(3.0), [3.0])):
        assert treatment_values(values).tolist() == want
