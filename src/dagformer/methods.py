"""The estimation methods, one table row per CLI method name: the model(s)
each trains with their objectives, its estimator, and how `tune` treats it.
`cli` and `selection` take every per-method decision from here."""

from dataclasses import MISSING, dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, ContractError
from .estimators import estimate_aipw, estimate_gformula, estimate_iptw, estimate_proximal
from .graph import NodeRole
from .model import DagTransformer, ModelConfig
from .objectives import AipwJoint, GFormula, Iptw, Nmmr
from .optim import AdamState


@dataclass(frozen=True)
class ModelSpec:
    base: str  # its base method for `input_nodes_for`
    objective: Callable  # run config -> objective
    key: str = "model"  # config key of its model config, and in `estimate` of its snapshot
    role: str = "model"  # its name in the training log


@dataclass(frozen=True)
class Method:
    name: str
    models: tuple
    # (trained models in `models` order, dataset) -> EstimateReport; a proxy
    # method takes held-out proxy draws and a treatment grid for the dataset
    estimate: Callable
    cate: bool  # the estimate has per-unit effects
    # the estimator whose per-unit effects (else broadcast ATE) `tune` scores
    # against the plug-in, if not `estimate`; a proxy method scores by NMMR risk
    tune_estimate: Optional[Callable] = None

    @property
    def tunable(self) -> bool:  # `tune` takes a method that trains exactly one model
        return len(self.models) == 1

    @property
    def proxy(self) -> bool:  # it estimates from held-out proxy draws
        return self.models[0].base == "proximal"


NMMR_KEYS = ("kernel_bandwidth", "lambda")  # the `nmmr` section's keys


def _nmmr(variant: str) -> Callable:
    def objective(config: dict) -> Nmmr:
        keys_of(config, "nmmr", NMMR_KEYS)
        optimizer = section(config, "optimizer", AdamState)
        lam = setting(config, "nmmr.lambda", float, optimizer.l2_penalty)
        try:
            return Nmmr(variant, setting(config, "nmmr.kernel_bandwidth", float, None), lam)
        except ContractError as exc:  # its message starts with the field's name
            raise ConfigError(f"nmmr.{exc}") from None
    return objective


# the estimators are looked up when called, so a wrapped module function is seen
METHODS = {row.name: row for row in (
    Method("gformula", (ModelSpec("gformula", lambda c: GFormula()),),
           lambda model, data: estimate_gformula(model, data), cate=True),
    Method("ipw", (ModelSpec("ipw", lambda c: Iptw()),),
           lambda model, data: estimate_iptw(model, data), cate=False),
    Method("aipw-joint", (ModelSpec("aipw", lambda c: AipwJoint()),),
           lambda model, data: estimate_aipw(model, model, data), cate=True,
           tune_estimate=lambda model, data: estimate_gformula(model, data)),
    Method("aipw-separate",
           (ModelSpec("gformula", lambda c: GFormula(), "model_outcome", "outcome"),
            ModelSpec("ipw", lambda c: Iptw(), "model_propensity", "propensity")),
           lambda outcome, propensity, data: estimate_aipw(outcome, propensity, data),
           cate=True),
    Method("proximal-u", (ModelSpec("proximal", _nmmr("U")),),
           lambda model, draws, grid: estimate_proximal(model, draws, grid),
           cate=False),
    Method("proximal-v", (ModelSpec("proximal", _nmmr("V")),),
           lambda model, draws, grid: estimate_proximal(model, draws, grid),
           cate=False),
)}


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def setting(config: dict, key: str, kind, default=MISSING):
    """The run config's value at the dotted `key` as `kind`, else `default` (required without
    one). An int is a Python or NumPy integer, a float any such integer or a float, neither a
    bool or a string; `[kind]` is a list of `kind`. Else it is a ConfigError naming the key."""
    *path, name = key.split(".")
    for depth, part in enumerate(path, 1):
        config = _as(dict, config.get(part, {}), ".".join(path[:depth]))
    if name in config:
        return _as(kind, config[name], key)
    if default is MISSING:
        raise ConfigError(f"config is missing required key {key!r}")
    return default


def _as(kind, value, key: str):
    if isinstance(kind, list):
        if isinstance(value, list):
            return [_as(kind[0], item, key) for item in value]
        kind = list
    elif kind in (int, float):  # an int is also a float, a bool neither
        if isinstance(value, (int, np.integer, kind)) and not isinstance(value, bool):
            return kind(value)
    elif isinstance(value, kind):
        return value
    raise ConfigError(f"bad value for {key!r}: {value!r}, expected {_KINDS[kind]}")


def keys_of(config: dict, key: str, known) -> dict:
    """The run config's `key` section, {} if it has none; a key of it that is not
    in `known` is a ConfigError naming it."""
    values = setting(config, key, dict, {})
    for name in sorted(values.keys() - set(known)):
        raise ConfigError(f"unknown config key {f'{key}.{name}'!r}")
    return values


def section(config: dict, key: str, cls, **defaults):
    """`cls` from the run config's `key` section, each field read as its type with the default
    of `defaults`, else of `cls`; an unknown or rejected key is a ConfigError naming it."""
    known = {f.name: f for f in fields(cls) if f.init}
    keys_of(config, key, known)
    values = {name: setting(config, f"{key}.{name}", f.type, defaults.get(name, f.default))
              for name, f in known.items()}
    try:
        return cls(**values)
    except (ConfigError, ContractError) as exc:  # its message starts with the field's name
        raise ConfigError(f"{key}.{exc}") from None


def training_settings(config: dict, row: Method, seed: int) -> list:
    """[(ModelConfig, objective, AdamState, epochs, batch_size)] of a method's
    models in row order, read from the run config alone. When the objective
    penalizes the parameters (NMMR's lambda, default `optimizer.l2_penalty`),
    Adam does not."""
    epochs, batch_size = setting(config, "epochs", int, 100), setting(config, "batch_size", int, 32)
    if epochs < 0 or batch_size < 1:
        raise ConfigError(f"need 'epochs' >= 0 and 'batch_size' >= 1, got {epochs}, {batch_size}")
    runs = []
    for spec in row.models:
        if spec.key != "model":
            setting(config, spec.key, dict)  # required
        model_config = section(config, spec.key, ModelConfig, seed=seed)
        optimizer = section(config, "optimizer", AdamState)
        objective = spec.objective(config)
        if objective.penalizes_parameters:
            optimizer.l2_penalty = 0.0
        runs.append((model_config, objective, optimizer, epochs, batch_size))
    return runs


def build_models(config: dict, row: Method, dag, dataset, seed: int) -> list:
    """`training_settings` with each ModelConfig built into an untrained
    DagTransformer, each input node typed as in `dataset`."""
    kinds = dataset.node_kinds([n for n, r in zip(dag.names, dag.roles)
                                if r is not NodeRole.UNMEASURED])
    return [(DagTransformer(model_config, dag, spec.base, kinds), *rest)
            for spec, (model_config, *rest) in zip(row.models,
                                                   training_settings(config, row, seed))]
