"""The estimation methods, one table row per CLI method name: the model(s)
each trains with their objectives, its estimator, and how `tune` treats it;
and the run config, which `resolve` reads and checks whole into a `Run`.
`cli` and `selection` take every per-method decision and config value from
here."""

import copy
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import cached_property
from typing import Callable, Literal, Optional, Union, get_args, get_origin

import numpy as np

from .data import DEMAND_HELDOUT_DRAWS, LinearEffect, LinearScm
from .errors import ConfigError, ContractError
from .estimators import estimate_aipw, estimate_gformula, estimate_iptw, estimate_proximal
from .forest import ForestConfig
from .graph import CausalDag, NodeRole
from .model import DagTransformer, ModelConfig
from .objectives import AipwJoint, GFormula, Iptw, Nmmr
from .optim import AdamState


@dataclass(frozen=True)
class ModelSpec:
    base: str  # its base method for `input_nodes_for`
    objective: Callable  # Run -> a fresh objective
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


def _nmmr(variant: str) -> Callable:
    return lambda run: run.nmmr.objective(variant, run.optimizer.l2_penalty)


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


# ---------------------------------------------------------------------------
# the run config: one dataclass per section, whose fields are its keys
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Simulator:
    """A `simulator` section; one that names `demand` reads only these keys."""
    name: str
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class LinearScmSimulator(Simulator):
    """A `simulator` section that names `linear-scm`; `scm` is what it draws from."""
    x_dim: int = 1
    treatment_effect: float = 2.0
    effect_of_x1: float = 0.0
    propensity_weights: Optional[list[float]] = None  # default 0.5 for each covariate
    propensity_intercept: float = 0.0
    outcome_weights: Optional[list[float]] = None  # default 1.0 for each covariate
    noise_sd: float = 1.0

    @cached_property
    def scm(self) -> LinearScm:
        """Built once, when `resolve` reads the section. A weight list that is
        not `x_dim` long, or a coefficient that is not finite, is a ConfigError."""
        def weights(key, default):
            values = getattr(self, key)
            if values is None:
                return (default,) * self.x_dim
            if len(values) != self.x_dim:
                raise ConfigError(f"bad value for 'simulator.{key}': {values!r}, "
                                  f"expected a list of x_dim = {self.x_dim} numbers")
            return tuple(values)
        effect = (self.treatment_effect if self.effect_of_x1 == 0.0
                  else LinearEffect(self.treatment_effect, self.effect_of_x1))
        try:
            return LinearScm(
                x_dim=self.x_dim,
                propensity_weights=weights("propensity_weights", 0.5),
                propensity_intercept=self.propensity_intercept,
                outcome_weights=weights("outcome_weights", 1.0),
                treatment_effect=effect,
                noise_sd=self.noise_sd)
        except ContractError as exc:
            raise ConfigError(f"bad simulator config: {exc}") from None


SIMULATORS = {"linear-scm": LinearScmSimulator, "demand": Simulator}


@dataclass(frozen=True)
class Data:
    """The `data` section: `simulator`'s draw, seeded by `seed` (None: the run's
    seed), or the `csv` file read with its `schema` file."""
    seed: Optional[int] = None
    simulator: Optional[Simulator] = None
    csv: object = None  # a file path, checked when the file is read
    schema: object = None

    def __post_init__(self):
        if self.simulator is None and (self.csv is None or self.schema is None):
            raise ConfigError("simulator, or csv with schema, is required")


@dataclass(frozen=True)
class Split:
    """The `split` section: the share of the rows that trains, and the seed of
    the shuffle (None: the run's seed)."""
    train_fraction: float = 0.7
    seed: Optional[int] = None

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


@dataclass(frozen=True)
class Heldout:
    """The `heldout` section: how many fresh proxy draws a proximal estimate on
    demand data averages over, and their seed (None: the run's seed)."""
    draws: int = DEMAND_HELDOUT_DRAWS
    seed: Optional[int] = None

    def __post_init__(self):
        if self.draws < 1:
            raise ConfigError(f"draws must be >= 1, got {self.draws}")


@dataclass(frozen=True)
class NmmrSettings:
    """The `nmmr` section, whose `lambda_` is the key `lambda`: the kernel
    bandwidth (None: the median heuristic) and λ (None: `optimizer.l2_penalty`)."""
    kernel_bandwidth: Optional[float] = None
    lambda_: Optional[float] = None

    def __post_init__(self):  # Nmmr checks both; its messages start with the key
        self.objective("U", 0.0)

    def objective(self, variant: str, l2_penalty: float) -> Nmmr:
        return Nmmr(variant, self.kernel_bandwidth,
                    l2_penalty if self.lambda_ is None else self.lambda_)


@dataclass(frozen=True)
class Run:
    """A run config as `resolve` read it, one field per top-level key. A seed
    left None is the seed of the run or of its replicate (`seeded`)."""
    optimizer: AdamState  # values only: each model trains with a fresh copy
    nmmr: NmmrSettings
    heldout: Heldout
    plugin: ForestConfig
    method: Optional[Literal[tuple(METHODS)]] = None
    seed: int = 0
    out: str = ""
    data: Optional[Data] = None
    simulator: Optional[Simulator] = None  # `simulate` draws it as a `data.simulator`
    dag: Union[CausalDag, str, None] = None  # an inline graph, or a file path
    model: Union[ModelConfig, str, None] = None  # a model config, or in `estimate` a snapshot path
    model_outcome: Union[ModelConfig, str, None] = None
    model_propensity: Union[ModelConfig, str, None] = None
    epochs: int = 100
    batch_size: int = 32
    split: Optional[Split] = None  # None: `train` trains on every row
    a_grid: Optional[list[float]] = None
    grid: Union[dict, str, None] = None  # an object or a file path; `tune` reads its values
    mode: Literal["cate", "ate"] = "cate"
    experiment: Literal["ate", "cate", "demand"] = "ate"
    replicates: int = 10
    jobs: int = 1

    def __post_init__(self):
        for key, least in (("epochs", 0), ("batch_size", 1), ("jobs", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key!r} must be >= {least}, got {getattr(self, key)}")
        if self.method is not None:  # a batch below its objective's minimum never trains
            least = max(spec.objective(self).min_rows for spec in METHODS[self.method].models)
            if self.batch_size < least:
                raise ConfigError(f"'batch_size' must be >= {least} for method "
                                  f"{self.method!r}, got {self.batch_size}")

    def required(self, key: str):
        """The value of the top-level `key`, which the command needs."""
        value = getattr(self, key)
        if value is None:
            raise ConfigError(f"config is missing required key {key!r}")
        return value

    @property
    def demand(self) -> bool:  # its rows are the demand simulator's draw
        return self.data is not None and getattr(self.data.simulator, "name", None) == "demand"


def resolve(config: dict) -> Run:
    """Every value of the run config, read and checked before any file loads.
    One schema serves every command: a key that no command reads for any
    method, a value of the wrong kind or out of range, or a section that is not
    an object is a ConfigError naming its dotted key. A rule that ties a key to
    one command (it is required, or pairs with another key) stays there."""
    run = section(config, "", Run)
    # an empty `split` is no split, so `train` trains on every row
    return run if config.get("split") else replace(run, split=None)


def section(values: dict, key: str, cls):
    """`cls` from `values`, the object at the dotted `key` ("" at the top level),
    each field read as its type. A field left out takes its default; a section
    without one reads as an empty object, and a section's `seed` is None, the
    seed of the run or of its replicate. A field `lambda_` is the key `lambda`.
    An unknown or rejected key is a ConfigError naming it."""
    known = {f.name.rstrip("_"): f for f in fields(cls) if f.init}
    for name in sorted(values.keys() - known.keys()):
        raise ConfigError(f"unknown config key {_dotted(key, name)!r}")
    kwargs = {f.name: _read(values, key, name, f.type,
                            None if key and name == "seed" else f.default)
              for name, f in known.items()}
    try:
        return cls(**kwargs)
    except (ConfigError, ContractError) as exc:  # its message starts with the field's name
        raise ConfigError(_dotted(key, str(exc))) from None


def overridden(config: dict, values) -> dict:
    """A deep copy of `config` with each (dotted key, value) of `values` written
    in order, as `--set` and each `tune` grid point write them; an object on
    the key's path is made if missing. A path through a value that is not an
    object is a ConfigError naming the key."""
    config = copy.deepcopy(config)
    for key, value in values:
        *path, name = key.split(".")
        target = config
        for part in path:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"path {key!r} collides with a non-object value")
        target[name] = value
    return config


def _dotted(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name


def _read(values: dict, key: str, name: str, kind, default=MISSING):
    dotted = _dotted(key, name)
    if name in values:
        return _as(kind, values[name], dotted)
    if default is not MISSING:
        return default
    if is_dataclass(kind):  # a section left out takes its defaults
        return _as(kind, {}, dotted)
    raise ConfigError(f"config is missing required key {dotted!r}")


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _as(kind, value, key: str):
    """`value` as `kind`: also a `Literal` of choices, a section's dataclass, a
    CausalDag, or `Union[kind, str, None]`, whose string is a file path."""
    if get_origin(kind) is Union:  # Optional[kind]: None is a default, never a value
        if str in get_args(kind) and not isinstance(value, dict):
            if isinstance(value, str):
                return value
            raise ConfigError(f"bad value for {key!r}: {value!r}, "
                              "expected an object or a file path")
        kind = get_args(kind)[0]
    if get_origin(kind) is Literal:
        if value not in get_args(kind):
            raise ConfigError(f"bad value for {key!r}: {value!r}, expected one of {get_args(kind)}")
        return value
    if get_origin(kind) is list:
        kind = [get_args(kind)[0]]
    if kind is Simulator:  # its `name` picks its class; its keys are `simulator.<key>` anywhere
        value = _as(dict, value, key)
        kind = SIMULATORS[_read(value, "simulator", "name", Literal[tuple(SIMULATORS)])]
        simulator = section(value, "simulator", kind)
        if isinstance(simulator, LinearScmSimulator):
            simulator.scm  # builds and keeps its SCM: one that it rejects fails here
        return simulator
    if is_dataclass(kind):
        return section(_as(dict, value, key), key, kind)
    if kind is CausalDag:
        return CausalDag.from_dict(_as(dict, value, key))
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


def seeded(settings, seed: int):
    """`settings` with its `seed`, where the config left it None, set to `seed`."""
    return settings if settings.seed is not None else replace(settings, seed=seed)


def model_configs(run: Run, seed: int) -> list:
    """The ModelConfig of each of the run method's models in row order, its seed
    defaulting to `seed`. Without a `model` section, `model` takes ModelConfig's
    defaults; the other model keys are required."""
    configs = []
    for spec in METHODS[run.required("method")].models:
        config = run.model if spec.key == "model" else run.required(spec.key)
        if config is None:
            config = ModelConfig(seed=None)
        if not isinstance(config, ModelConfig):
            raise ConfigError(f"bad value for {spec.key!r}: {config!r}, expected an object")
        configs.append(seeded(config, seed))
    return configs


def build_models(run: Run, dag, dataset, seed: int) -> list:
    """[(untrained DagTransformer, objective, AdamState)] of the run method's models
    in row order, from `model_configs`, each input node typed as in `dataset`. Each
    model gets a fresh objective and AdamState; when the objective penalizes the
    parameters (NMMR's λ), Adam does not."""
    kinds = dataset.node_kinds([n for n, r in zip(dag.names, dag.roles)
                                if r is not NodeRole.UNMEASURED])
    models = []
    for spec, config in zip(METHODS[run.method].models, model_configs(run, seed)):
        objective, optimizer = spec.objective(run), replace(run.optimizer)
        if objective.penalizes_parameters:
            optimizer.l2_penalty = 0.0
        models.append((DagTransformer(config, dag, spec.base, kinds), objective, optimizer))
    return models
