"""The estimation methods, one table row per CLI method name: the model(s)
each trains with their objectives, its estimator, and how `tune` treats it.
`cli` and `selection` take every per-method decision from here."""

from dataclasses import dataclass
from typing import Callable, Optional

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


def _nmmr(variant: str) -> Callable:
    def objective(config: dict) -> Nmmr:
        nmmr = config.get("nmmr", {})
        lam = nmmr.get("lambda", config.get("optimizer", {}).get("l2_penalty", 0.0))
        lam = cast(float, lam, "nmmr.lambda" if "lambda" in nmmr else "optimizer.l2_penalty")
        try:
            return Nmmr(variant, nmmr.get("kernel_bandwidth"), lam)
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


def cast(kind: Callable, value, key: str):
    """`kind(value)` for the run config's `key`; a malformed value is a ConfigError."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"bad value for {key!r}: {value!r}") from None


def build_models(config: dict, row: Method, dag, dataset, seed: int) -> list:
    """[(untrained DagTransformer, objective, AdamState, epochs, batch_size)] of
    a method's models in row order, each input node typed as in `dataset`; a
    malformed value is a ConfigError. When the objective penalizes the
    parameters (NMMR's lambda, default `optimizer.l2_penalty`), Adam does not."""
    kinds = dataset.node_kinds([n for n, r in zip(dag.names, dag.roles)
                                if r is not NodeRole.UNMEASURED])
    runs = []
    for spec in row.models:
        if spec.key != "model" and spec.key not in config:
            raise ConfigError(f"config is missing required key {spec.key!r}")
        try:
            fields = dict(config.get(spec.key) or config.get("model") or {})
            model_config = ModelConfig(**{"seed": seed, **fields})
            objective = spec.objective(config)
            opt = config.get("optimizer", {})
            l2 = 0.0 if objective.penalizes_parameters else float(opt.get("l2_penalty", 0.0))
            optimizer = AdamState(
                float(opt.get("learning_rate", 1e-3)), float(opt.get("beta1", 0.9)),
                float(opt.get("beta2", 0.999)), float(opt.get("epsilon", 1e-8)), l2)
            epochs, batch_size = int(config.get("epochs", 100)), int(config.get("batch_size", 32))
        except (AttributeError, TypeError, ValueError, ContractError) as exc:
            raise ConfigError(f"bad run config: {exc}") from None
        runs.append((DagTransformer(model_config, dag, spec.base, kinds), objective, optimizer,
                     epochs, batch_size))
    return runs
