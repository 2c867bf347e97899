"""Evaluation metrics and surrogate-scored model selection.

Candidate models are ranked by normalized RMSE against a plug-in effect
estimator (an honest-forest T-learner) fit on the validation split; the
proxy-method variants, where no plug-in exists, rank by validation risk.
"""

import concurrent.futures
import hashlib
import itertools
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ConfigError, ContractError, DataError, DegenerateInputError, SelectionFailedError,
    TrainingDivergedError,
)
from .data import csv_text
from .forest import ForestConfig, HonestForestRegressor
from .graph import CausalDag, NodeRole
from .methods import METHODS, Run, overridden, resolve, seeded
from .model import DagTransformer


def nrmse(tau_hat: np.ndarray, tau_tilde: np.ndarray) -> float:
    """Root mean squared difference normalized by the reference's variance.

    tau_hat is the reference (plug-in or ground truth); both the numerator
    and the variance use the n-1 denominator.
    """
    tau_hat = np.asarray(tau_hat, dtype=np.float64)
    tau_tilde = np.asarray(tau_tilde, dtype=np.float64)
    if tau_hat.shape != tau_tilde.shape or tau_hat.ndim != 1:
        raise ContractError(f"need matching vectors, got {tau_hat.shape} and {tau_tilde.shape}")
    n = tau_hat.size
    if n < 2:
        raise ContractError(f"nrmse needs n >= 2, got {n}")
    variance = tau_hat.var(ddof=1)
    if variance <= 0.0:
        raise DegenerateInputError("reference effect estimates have zero variance")
    msd = np.sum((tau_hat - tau_tilde) ** 2) / (n - 1)
    return float(np.sqrt(msd / variance))


def nrmse_scalar_replicates(reference: np.ndarray, candidate: np.ndarray,
                            variance_source: np.ndarray) -> np.ndarray:
    """Per-replicate normalized error of scalar estimates.

    The normalizing variance is taken across replicates of `variance_source`,
    matching the bootstrap-replicate reading of the scalar-estimand protocol.
    """
    reference = np.asarray(reference, dtype=np.float64)
    candidate = np.asarray(candidate, dtype=np.float64)
    if reference.shape != candidate.shape or reference.ndim != 1:
        raise ContractError("need matching replicate vectors")
    source = np.asarray(variance_source)
    if source.size < 2:
        raise ContractError("need at least two replicates")
    variance = source.var(ddof=1)
    if variance <= 0.0:
        raise DegenerateInputError("replicate variance of the reference is zero")
    return np.abs(reference - candidate) / np.sqrt(variance)


def c_mse(estimated_curve, true_curve) -> float:
    """Mean squared error between potential-outcome curves over the grid."""
    est = np.asarray(estimated_curve, dtype=np.float64)
    true = np.asarray(true_curve, dtype=np.float64)
    if est.shape != true.shape or est.ndim != 1 or est.size == 0:
        raise ContractError(f"curves must match, got {est.shape} and {true.shape}")
    return float(np.mean((est - true) ** 2))


# ---------------------------------------------------------------------------
# plug-in estimator
# ---------------------------------------------------------------------------

@dataclass
class PlugInEstimator:
    """Honest-forest T-learner: tau(x) = mean_1(x) - mean_0(x)."""
    forest_treated: HonestForestRegressor
    forest_control: HonestForestRegressor
    covariate_nodes: list[str]

    def cate(self, dataset) -> np.ndarray:
        x = dataset.matrix(self.covariate_nodes)
        return self.forest_treated.predict(x) - self.forest_control.predict(x)

    def ate(self, dataset) -> float:
        return float(self.cate(dataset).mean())


def plugin_covariates(dag: CausalDag) -> list[str]:
    """The plug-in's covariate nodes: the graph's confounders, at least one."""
    covariates = dag.nodes_with_role(NodeRole.CONFOUNDER)
    if not covariates:
        raise ConfigError("plug-in estimator needs at least one confounder column")
    return covariates


def fit_plugin(validation, dag: CausalDag, config: ForestConfig) -> PlugInEstimator:
    """Fit one honest forest per treatment arm on the validation split, once
    its rows are checked against the graph."""
    validation.validate_against(dag)
    treatment = dag.single_node(NodeRole.TREATMENT)
    outcome = dag.single_node(NodeRole.OUTCOME)
    covariates = plugin_covariates(dag)
    a = validation.node_column(treatment).values
    if not np.isin(a, (0.0, 1.0)).all():
        raise DataError("plug-in estimator requires a binary treatment")
    y = validation.node_column(outcome).values
    x = validation.matrix(covariates)
    forests = {}
    for arm in (1.0, 0.0):
        rows = a == arm
        if rows.sum() < config.min_leaf:
            raise DataError(
                f"treatment arm {int(arm)} has {int(rows.sum())} rows, fewer than "
                f"min_leaf {config.min_leaf}")
        arm_cfg = replace(config, seed=config.seed + int(arm))
        forests[arm] = HonestForestRegressor(arm_cfg).fit(x[rows], y[rows])
    return PlugInEstimator(forests[1.0], forests[0.0], covariates)


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

SEARCH_METHODS = tuple(name for name, row in METHODS.items() if row.tunable)

# the grid's names before it took run-config keys, read only to name the new key in an error
_OLD_GRID_KEYS = {"learning_rate": "optimizer.learning_rate", "l2_penalty": "optimizer.l2_penalty",
                  "encoder_layers": "model.num_encoder_layers", "dropout": "model.dropout_rate",
                  **{key: f"model.{key}" for key in ("mlp_width", "mlp_depth", "embedding_dim",
                                                     "feedforward_dim", "num_heads", "alpha")}}


def expand_grid(grid: dict) -> list[dict]:
    """Every point of `grid`, which maps dotted run-config keys to nonempty value
    lists: one value per key, the product in the grid's key order. A key is
    `epochs`, `batch_size` or a `model`, `optimizer` or `nmmr` key: the rows,
    split, seed and plug-in are drawn once for all candidates."""
    if not isinstance(grid, dict):
        raise ConfigError(f"grid must be a JSON object, got {grid!r}")
    for key, values in grid.items():
        section, _, name = key.partition(".")
        if key not in ("epochs", "batch_size") and not (
                section in ("model", "optimizer", "nmmr") and name):
            new = f"; it is now {_OLD_GRID_KEYS[key]!r}" if key in _OLD_GRID_KEYS else ""
            raise ConfigError(f"grid key {key!r} is not 'epochs', 'batch_size' or a 'model', "
                              f"'optimizer' or 'nmmr' key{new}")
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"grid key {key!r} must be a nonempty list")
    return [dict(zip(grid, combo)) for combo in itertools.product(*grid.values())]


def candidates(config: dict, grid: dict) -> list[tuple[dict, Run]]:
    """(point, run) for each point of `grid`: the run of `config` with the point's
    keys written as `--set` writes them, so a candidate is a `train` run. A
    method that trains more than one model, or a value that the run config
    rejects, is a ConfigError naming it."""
    runs = []
    for point in expand_grid(grid):
        try:
            runs.append((point, resolve(overridden(config, point.items()))))
        except ConfigError as exc:
            raise ConfigError(f"grid point {point}: {exc}") from None
    method = runs[0][1].method  # no grid key sets it
    if method not in SEARCH_METHODS:
        raise ConfigError(f"tune takes one of {SEARCH_METHODS}, not {method!r}")
    return runs


def config_hash(point: dict) -> str:
    text = json.dumps(point, sort_keys=True)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


def _evaluate_grid_point(payload: tuple) -> tuple[dict, DagTransformer | None]:
    """Train and score one grid point: (its ranking entry, the trained model, or
    None if it diverged); module-level so workers can pickle it."""
    index, point, run, train, validation, dag, plugin_tau, bandwidths = payload
    entry = {"grid_index": index, "config_hash": config_hash(point), "config": point,
             "diverged": False, "train_loss": None, "score": None, "param_count": None}
    row, seed = run.row, run.seed
    (model,) = row.build(run, dag, train, seed)
    entry["param_count"] = model.param_count  # a diverged candidate still ranks by size
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            (log,) = row.train([model], _kernel_run(run, bandwidths[0]), train, seed).values()
            entry["train_loss"] = log[-1]["loss"] if log else None
            if row.proxy:  # the risk of a fresh objective: training mutates none
                entry["score"] = row.models[0].objective(_kernel_run(run, bandwidths[1])).risk(
                    model, validation.matrix(model.input_nodes))
            else:
                report = (row.tune_estimate or row.estimate)(model, validation)
                tau = report.cate if run.mode == "cate" and report.cate is not None \
                    else np.full(validation.n, report.ate)
                entry["score"] = nrmse(plugin_tau, tau)
            if not np.isfinite(entry["score"]):
                raise TrainingDivergedError("non-finite validation score")
    except TrainingDivergedError:
        entry["diverged"] = True
        entry["score"] = None
        return entry, None
    return entry, model


def _heuristic_bandwidths(run: Run, train, validation, dag: CausalDag) -> tuple:
    """The median-heuristic kernel bandwidths of the training and validation
    rows, which every candidate of a proxy `tune` would compute alike: each
    standardizes the same training rows and reads the same kernel columns."""
    (model,) = run.row.build(run, dag, train, run.seed)
    batch = train.matrix(model.input_nodes)
    model.fit_standardizer(batch)
    heuristic = run.row.models[0].objective(run)  # a run that sets no bandwidth
    return tuple(heuristic._targets(model, model._standardize(rows))[2]
                 for rows in (batch, validation.matrix(model.input_nodes)))


def _kernel_run(run: Run, bandwidth: float | None) -> Run:
    """`run` with its NMMR kernel bandwidth set to the median heuristic's
    `bandwidth`, computed once for the grid, unless it sets its own."""
    if bandwidth is None or run.nmmr.kernel_bandwidth is not None:
        return run
    return replace(run, nmmr=replace(run.nmmr, kernel_bandwidth=bandwidth))


def check_reference(tau: np.ndarray):
    """Per-unit reference effects that NRMSE can normalize by; constant is a DataError."""
    if not tau.var(ddof=1) > 0.0:
        raise DataError(f"reference effects are constant over the {tau.size} validation rows")


def map_jobs(fn, items, jobs: int) -> list:
    """[fn(x) for x in items], in up to `jobs` processes, one per item at most;
    raises the first error by index."""
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def grid_search(run: Run, runs: list, train, validation, dag: CausalDag, jobs: int = 1):
    """Train each of `runs`, the `candidates` of the base `run`, and rank them.

    Unconfoundedness methods score by NRMSE of the candidate's effects
    (per-unit in "cate" mode, its ATE broadcast in "ate" mode) against the
    per-unit effects of the run's plug-in fit on the validation split; in
    "ate" mode that ranks by the ATE difference. Proxy methods score by
    validation risk, with the median-heuristic bandwidths computed once for
    the grid (`_heuristic_bandwidths`). Ties break toward fewer parameters,
    then earlier grid order. Candidates are independent and run concurrently
    when jobs > 1.
    Returns (ranked table, best fitted model).
    """
    plugin_tau, bandwidths = None, (None, None)
    if not run.row.proxy:
        plugin_tau = fit_plugin(validation, dag, seeded(run.plugin, run.seed)).cate(validation)
        check_reference(plugin_tau)
    elif min(train.n, validation.n) < 2:  # for the U-statistic and the median heuristic
        raise DataError(f"tune of a proxy method needs at least two training and two "
                        f"validation rows, got {train.n} and {validation.n}")
    elif any(candidate.nmmr.kernel_bandwidth is None for _, candidate in runs):
        bandwidths = _heuristic_bandwidths(runs[0][1], train, validation, dag)

    results = map_jobs(_evaluate_grid_point, [
        (index, point, candidate, train, validation, dag, plugin_tau, bandwidths)
        for index, (point, candidate) in enumerate(runs)], jobs)

    rows = [entry for entry, _ in results]
    rows.sort(key=lambda e: (e["diverged"], e["score"] if e["score"] is not None else np.inf,
                             e["param_count"], e["grid_index"]))
    for rank, entry in enumerate(rows):
        entry["rank"] = rank
    if rows[0]["diverged"]:
        raise SelectionFailedError("every grid configuration diverged", table=rows)
    return rows, results[rows[0]["grid_index"]][1]  # results are in grid order


def ranking_csv(rows: list[dict]) -> str:
    header = ["rank", "config_hash", "score", "train_loss", "diverged", "param_count",
              "grid_index"]
    return csv_text(header, [[e[k] for k in header] for e in rows])
