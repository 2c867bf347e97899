"""The estimation methods, one table row per CLI method name: the model(s)
each trains with their objectives, its estimator, and how `tune` treats it;
and the run config, which `resolve` reads and checks whole into a `Run`.
`cli` and `selection` take every per-method decision and config value from
here. A row's `build`, `train` and `estimator` are the one path from a run
config to trained models and from them to an estimate: every command fits
and estimates through them."""

import copy
import sys
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from functools import cached_property
from typing import Callable, ClassVar, Literal, Optional, Union, get_args, get_origin

import numpy as np

from . import data as data_mod
from .data import DEMAND_HELDOUT_DRAWS, LinearEffect, LinearScm
from .errors import ConfigError, ContractError, DataError, is_number
from .estimators import estimate_aipw, estimate_gformula, estimate_iptw, estimate_proximal
from .forest import ForestConfig
from .graph import CausalDag, NodeRole, demand_dag
from .model import DagTransformer, ModelConfig, train_model
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

    def build(self, run: "Run", dag, rows, seed: int) -> list:
        """The untrained DagTransformer of each of its models in `models` order,
        from `model_configs`, each input node typed as in `rows`. A graph node
        that `rows` leaves unbound, or an unmeasured one that it binds, is a
        DataError naming it."""
        rows.validate_against(dag)
        kinds = rows.node_kinds([n for n, r in zip(dag.names, dag.roles)
                                 if r is not NodeRole.UNMEASURED])
        return [DagTransformer(config, dag, spec.base, kinds)
                for spec, config in zip(self.models, model_configs(run, seed))]

    def train(self, models: list, run: "Run", rows, seed: int) -> dict:
        """Train `models`, as `build` made them, on `rows`; returns the logs by
        role. Each model trains with a fresh objective and AdamState; when the
        objective penalizes the parameters (NMMR's λ), Adam does not."""
        logs = {}
        for spec, model in zip(self.models, models):
            objective, optimizer = spec.objective(run), replace(run.optimizer)
            if objective.penalizes_parameters:
                optimizer.l2_penalty = 0.0
            logs[spec.role] = train_model(model, rows, objective, optimizer, run.epochs,
                                          run.batch_size, seed=seed)
        return logs

    def estimator(self, run: "Run", seed: int) -> Callable:
        """(trained models, dataset) -> EstimateReport. A proxy method averages
        its bridge at the `a_grid` treatments over fresh held-out draws of the
        demand W, for demand data, else over the dataset's own outcome-proxy and
        confounder rows."""
        if not self.proxy:
            return lambda models, dataset: self.estimate(*models, dataset)
        grid, draws = run.a_grid, None
        if run.demand:
            heldout = seeded(run.heldout, seed)
            try:  # a count under the bound may still not fit in memory
                draws = {"W": data_mod.heldout_w_draws(heldout.draws, heldout.seed)}
            except MemoryError:
                raise ConfigError(f"bad value for 'heldout.draws': {heldout.draws!r}, too large "
                                  "for memory to hold its draws") from None
            grid = grid or data_mod.DEMAND_PRICE_GRID
        elif grid is None:
            raise ConfigError("proximal estimation on external data needs 'a_grid'")

        def estimate(models, dataset):
            (model,) = models
            return self.estimate(model, draws or {
                n: dataset.node_column(n).values for n in model.input_nodes
                if model.graph.role_of(n) in (NodeRole.OUTCOME_PROXY, NodeRole.CONFOUNDER)}, grid)
        return estimate


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
    """A `simulator` section; one that names `demand` reads only these keys. It
    calls `data`'s simulators through the module, so a wrapped one is seen."""
    name: str
    n: int
    columns: ClassVar[int] = 5  # the float64 columns of a draw: U, Z, W, A and Y

    def __post_init__(self):
        most = sys.maxsize // (8 * self.columns)
        if not 1 <= self.n <= most:
            raise ConfigError(f"n must be >= 1 and <= {most}, so that a draw's float64 "
                              f"columns fit in {sys.maxsize} bytes, got {self.n}")

    def dag(self) -> CausalDag:
        """The graph it draws from, known before any row is drawn."""
        return demand_dag()

    def draw(self, seed: int):
        """(rows, () -> truth.json payload, SCM version) of its draw."""
        sample = self._sized("n", lambda: data_mod.simulate_demand(self.n, seed))
        return (sample.to_dataset(),
                lambda: {"u": [float(v) for v in sample.u],
                         "price_grid": list(data_mod.DEMAND_PRICE_GRID),
                         "true_curve": [float(v) for v in data_mod.demand_true_curve()]},
                data_mod.DEMAND_SCM_VERSION)

    def _sized(self, key: str, build):
        try:  # a size under its bound may still not fit in memory
            return build()
        except MemoryError:
            raise ConfigError(f"bad value for 'simulator.{key}': {getattr(self, key)!r}, too "
                              "large for memory") from None


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
    columns: ClassVar[int] = 2  # A and Y; x_dim's bound leaves room for the X columns

    @cached_property
    def scm(self) -> LinearScm:
        """Built once, when `resolve` reads the section. A coefficient that is
        not finite, an `x_dim` below 0, beyond what a draw can hold or too large
        for memory, an effect of X1 without X1, or a weight list that is not
        `x_dim` finite numbers, is a ConfigError naming its key."""
        # a draw's matrix of n * (x_dim + 2) float64 values must be an array NumPy
        # can make, of at most sys.maxsize bytes; checked before any tuple is built
        most = sys.maxsize // (8 * self.n) - 2
        if not 0 <= self.x_dim <= most:  # 0 is the graph A -> Y
            raise ConfigError(f"bad value for 'simulator.x_dim': {self.x_dim!r}, expected an "
                              f"integer from 0 to {most}, so that the n * (x_dim + 2) float64 "
                              f"values of a draw of n = {self.n} rows fit in {sys.maxsize} bytes")
        for key in ("treatment_effect", "effect_of_x1", "propensity_intercept", "noise_sd"):
            if not np.isfinite(getattr(self, key)):
                raise ConfigError(f"bad value for 'simulator.{key}': {getattr(self, key)!r}, "
                                  "expected a finite number")
        if self.x_dim == 0 and self.effect_of_x1 != 0.0:
            raise ConfigError(f"bad value for 'simulator.effect_of_x1': {self.effect_of_x1!r}, "
                              "expected 0 when x_dim is 0, which draws no X1")
        def weights(key, default):
            values = getattr(self, key)
            if values is None:
                return (default,) * self.x_dim
            if len(values) != self.x_dim or not np.isfinite(values).all():
                raise ConfigError(f"bad value for 'simulator.{key}': {values!r}, "
                                  f"expected a list of x_dim = {self.x_dim} finite numbers")
            return tuple(values)
        effect = (self.treatment_effect if self.effect_of_x1 == 0.0
                  else LinearEffect(self.treatment_effect, self.effect_of_x1))
        return self._sized("x_dim", lambda: LinearScm(
            x_dim=self.x_dim,
            propensity_weights=weights("propensity_weights", 0.5),
            propensity_intercept=self.propensity_intercept,
            outcome_weights=weights("outcome_weights", 1.0),
            treatment_effect=effect,
            noise_sd=self.noise_sd))

    def dag(self) -> CausalDag:
        return self._sized("x_dim", lambda: data_mod.linear_scm_dag(self.x_dim))

    def draw(self, seed: int):
        """Its draw. Coefficients whose Y or true effect overflows float64 are a
        ConfigError, and NumPy warns of nothing: an overflowing propensity gives
        pi 0 or 1, a valid draw."""
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                rows = self._sized("n", lambda: data_mod.simulate_linear_scm(
                    self.n, self.scm, seed))
                finite = np.isfinite(rows.true_ate)
            except DataError:  # X and A are always finite, so Y is not
                finite = False
        if not finite:
            raise ConfigError("bad value for 'simulator.treatment_effect', "
                              "'simulator.effect_of_x1', 'simulator.outcome_weights' or "
                              "'simulator.noise_sd': the draw's Y or true effect overflows "
                              "float64")
        return (rows,
                lambda: {"true_ate": rows.true_ate,
                         "true_cate": [float(v) for v in rows.true_cate]},
                "linear-scm-v1")


SIMULATORS = {"linear-scm": LinearScmSimulator, "demand": Simulator}


@dataclass(frozen=True)
class Data:
    """The `data` section: `simulator`'s draw, seeded by `seed` (None: the run's
    seed), or the `csv` file read with its `schema` file, never both."""
    seed: Optional[int] = None
    simulator: Optional[Simulator] = None
    csv: Optional[str] = None  # a file path
    schema: Optional[str] = None

    def __post_init__(self):
        if self.simulator is None and (self.csv is None or self.schema is None):
            raise ConfigError("simulator, or csv with schema, is required")
        if self.simulator is not None and (self.csv, self.schema) != (None, None):
            raise ConfigError("csv and schema exclude simulator: name one or the other")


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
        most = sys.maxsize // (8 * 4)  # h_hat's batch: draws rows of the 4 demand columns
        if not 1 <= self.draws <= most:
            raise ConfigError(f"draws must be >= 1 and <= {most}, so that h_hat's draws * 4 "
                              f"float64 values fit in {sys.maxsize} bytes, got {self.draws}")


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

    def __post_init__(self):
        for key, least in (("epochs", 0), ("batch_size", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key!r} must be >= {least}, got {getattr(self, key)}")
        if self.a_grid is not None and not (self.a_grid and np.isfinite(self.a_grid).all()
                                            and len(set(self.a_grid)) == len(self.a_grid)):
            raise ConfigError(f"'a_grid' must be a nonempty list of distinct finite numbers, "
                              f"got {self.a_grid}")
        if self.method is not None:  # a batch below its objective's minimum never trains
            least = max(spec.objective(self).min_rows for spec in self.row.models)
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
    def row(self) -> Method:  # the table row of its method, which the command needs
        return METHODS[self.required("method")]

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
            what = "a file path" if get_args(kind)[0] is str else "an object or a file path"
            raise ConfigError(f"bad value for {key!r}: {value!r}, expected {what}")
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
    elif kind in (int, float):
        if is_number(value, kind):
            try:
                return kind(value)
            except OverflowError:  # an integer beyond the largest float
                raise ConfigError(f"bad value for {key!r}: an integer too large for a float, "
                                  "expected a finite number") from None
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
    for spec in run.row.models:
        config = run.model if spec.key == "model" else run.required(spec.key)
        if config is None:
            config = ModelConfig(seed=None)
        if not isinstance(config, ModelConfig):
            raise ConfigError(f"bad value for {spec.key!r}: {config!r}, expected an object")
        configs.append(seeded(config, seed))
    return configs

