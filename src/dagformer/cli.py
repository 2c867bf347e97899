"""Batch command-line front door.

Subcommands: simulate, train, estimate, tune, evaluate. Every run is driven
by a JSON config (``--config``, with ``--set key=value`` overrides) and
writes deterministic JSON/CSV reports that embed the resolved config and
seeds; identical configs and seeds reproduce byte-identical files.

Exit codes: 0 success, 2 config error, 3 data error, 4 training diverged,
5 selection failed.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import data as data_mod
from .errors import (
    ConfigError, ContractError, DagformerError, DataError, SelectionFailedError,
    TrainingDivergedError,
)
# not called here; perfbench's tests check that its tracer patches cli's names too
from .estimators import (  # noqa: F401
    estimate_aipw, estimate_gformula, estimate_iptw, estimate_proximal,
)
from .forest import ForestConfig
from .graph import CausalDag, NodeRole, demand_dag
from .methods import (
    METHODS, NMMR_KEYS, Method, build_models, keys_of, section, setting, training_settings,
)
from .model import DagTransformer, train_model
from .selection import (
    c_mse, check_reference, config_hash, fit_plugin, grid_search, map_jobs, nrmse,
    nrmse_scalar_replicates, ranking_csv,
)


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _read(key: str, path, load=None, error=ConfigError):
    """The file the config names under `key`: `load(path)`, else its JSON value.
    A `path` that is not a string, or a file that is missing, does not parse
    or that `load` rejects with `error`, is an `error` that names the key."""
    if not isinstance(path, str):
        raise error(f"{key!r} must be a file path, got {path!r}")
    try:
        if load:
            return load(path)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, error) as exc:
        raise error(f"{key!r} file: {exc}") from None


def _load_config(args) -> tuple[dict, int, str]:
    """(run config with the `--set` and `--seed` overrides, its seed, output directory)."""
    config = _read("--config", args.config) if args.config else {}
    if not isinstance(config, dict):
        raise ConfigError(f"the '--config' file must hold a JSON object, "
                          f"not a {type(config).__name__}")
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target = config
        parts = key.split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"--set path {key!r} collides with a non-object value")
        target[parts[-1]] = value
    if args.seed is not None:
        config["seed"] = args.seed
    return config, _seed(config), args.out or setting(config, "out", str, "") or "."


def _seed(config: dict) -> int:
    return setting(config, "seed", int, 0)


def _method_of(config: dict) -> Method:
    method = setting(config, "method", str)
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}, expected one of {tuple(METHODS)}")
    return METHODS[method]


def _write_text(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: str, payload: dict):
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _resolve_dag(config: dict, simulated):
    """The config's `dag`, inline or a file path, else the `simulated` graph."""
    dag = setting(config, "dag", object, None)
    if dag is not None:
        return CausalDag.from_dict(dag if isinstance(dag, dict) else _read("dag", dag))
    if simulated is None:
        raise ConfigError("config needs a 'dag' path or inline graph")
    return simulated


def _linear_scm_from(data: dict) -> data_mod.LinearScm:
    def number(key, default):
        return setting(data, f"simulator.{key}", float, default)

    def weights(key, default):
        values = setting(data, f"simulator.{key}", [float], [default] * x_dim)
        if len(values) != x_dim:
            raise ConfigError(f"bad value for 'simulator.{key}': {values!r}, "
                              f"expected a list of x_dim = {x_dim} numbers")
        return tuple(values)
    x_dim = setting(data, "simulator.x_dim", int, 1)
    base_effect, slope = number("treatment_effect", 2.0), number("effect_of_x1", 0.0)
    effect = base_effect if slope == 0.0 else data_mod.LinearEffect(base_effect, slope)
    try:
        return data_mod.LinearScm(
            x_dim=x_dim,
            propensity_weights=weights("propensity_weights", 0.5),
            propensity_intercept=number("propensity_intercept", 0.0),
            outcome_weights=weights("outcome_weights", 1.0),
            treatment_effect=effect,
            noise_sd=number("noise_sd", 1.0))
    except ContractError as exc:
        raise ConfigError(f"bad simulator config: {exc}") from None


# the `simulator` section's keys, by its name
SIMULATOR_KEYS = {
    "linear-scm": ("name", "n", "x_dim", "treatment_effect", "effect_of_x1", "propensity_weights",
                   "propensity_intercept", "outcome_weights", "noise_sd"),
    "demand": ("name", "n"),
}


def _simulate(data: dict, seed: int):
    """(rows, graph, () -> truth.json payload, scm_version) of `data.simulator`'s draw."""
    name = setting(data, "simulator.name", str)
    if name not in SIMULATOR_KEYS:
        raise ConfigError(f"unknown simulator {name!r}")
    keys_of(data, "simulator", SIMULATOR_KEYS[name])
    n = setting(data, "simulator.n", int)
    if n < 1:
        raise ConfigError(f"simulator needs n >= 1, got {n}")
    if name == "linear-scm":
        scm = _linear_scm_from(data)
        rows = data_mod.simulate_linear_scm(n, scm, seed)
        return (rows, data_mod.linear_scm_dag(scm.x_dim),
                lambda: {"true_ate": rows.true_ate,
                         "true_cate": [float(v) for v in rows.true_cate]},
                "linear-scm-v1")
    sample = data_mod.simulate_demand(n, seed)
    return (sample.to_dataset(), demand_dag(),
            lambda: {"u": [float(v) for v in sample.u],
                     "price_grid": list(data_mod.DEMAND_PRICE_GRID),
                     "true_curve": [float(v) for v in data_mod.demand_true_curve()]},
            data_mod.DEMAND_SCM_VERSION)


def _resolve_data(config: dict, seed: int, replicate: int | None = None):
    """The rows the `data` section names, as `_simulate`'s tuple: the simulator's
    draw seeded by `data.seed` (default `seed`), or the CSV file, which has no
    graph, truth or version. Replicate r draws with that seed + r, or
    bootstraps the CSV with it."""
    data = setting(config, "data", dict)
    keys_of(config, "data", ("simulator", "seed", "csv", "schema"))
    seed = setting(config, "data.seed", int, seed) + (replicate or 0)
    if setting(config, "data.simulator", dict, None) is not None:
        return _simulate(data, seed)
    if "csv" in data:
        schema = _read("data.schema", setting(data, "schema", object), data_mod.load_schema,
                       DataError)
        rows = _read("data.csv", data["csv"], lambda path: data_mod.load_csv(path, schema),
                     DataError)
        return (rows if replicate is None else data_mod.bootstrap(rows, seed)), None, None, None
    raise ConfigError("data config needs either 'simulator' or 'csv'+'schema'")


def _split(dataset, config: dict, seed: int, offset: int = 0):
    """(train, validation) by the config's split; `offset` shifts its seed."""
    keys_of(config, "split", ("train_fraction", "seed"))
    try:
        return dataset.split(setting(config, "split.train_fraction", float, 0.7),
                             setting(config, "split.seed", int, seed) + offset)
    except ContractError as exc:  # its message starts with the argument's name
        raise ConfigError(f"split.{exc}") from None


def _train_one(row: Method, dag, dataset, config: dict, seed: int):
    """Train a method's models; returns them in row order and the logs by role."""
    runs = build_models(config, row, dag, dataset, seed)
    logs = {spec.role: train_model(model, dataset, objective, optimizer, epochs, batch_size,
                                   seed=seed)
            for spec, (model, objective, optimizer, epochs, batch_size) in zip(row.models, runs)}
    return [run[0] for run in runs], logs


def _estimator(row: Method, config: dict, seed: int):
    """(trained models, dataset) -> EstimateReport of `row`, its settings read
    before anything trains. A proxy method averages its bridge at the `a_grid`
    treatments over fresh held-out draws of the demand W, for demand data, else
    over the dataset's own outcome-proxy and confounder rows."""
    if not row.proxy:
        return lambda models, dataset: row.estimate(*models, dataset)
    keys_of(config, "heldout", ("draws", "seed"))
    m = setting(config, "heldout.draws", int, data_mod.DEMAND_HELDOUT_DRAWS)
    draw_seed = setting(config, "heldout.seed", int, seed)
    grid, draws = setting(config, "a_grid", [float], None), None
    if setting(config, "data.simulator.name", str, None) == "demand":
        draws = {"W": data_mod.heldout_w_draws(m, draw_seed)}
        grid = grid or data_mod.DEMAND_PRICE_GRID
    elif grid is None:
        raise ConfigError("proximal estimation on external data needs 'a_grid'")

    def estimate(models, dataset):
        (model,) = models
        return row.estimate(model, draws or {
            n: dataset.node_column(n).values for n in model.input_nodes
            if model.graph.role_of(n) in (NodeRole.OUTCOME_PROXY, NodeRole.CONFOUNDER)}, grid)
    return estimate


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    config, seed, out = _load_config(args)
    # a top-level `simulator` is drawn as a `data.simulator` without a `data.seed`
    run = {"data": {"simulator": config["simulator"]}} if "simulator" in config else config
    if "simulator" not in setting(run, "data", dict, {}):
        raise ConfigError("simulate needs a 'simulator' or 'data.simulator' section")
    dataset, dag, truth, version = _resolve_data(run, seed)
    os.makedirs(out, exist_ok=True)
    data_mod.write_csv(dataset, os.path.join(out, "data.csv"))
    schema = dataset.schema()
    schema["treatment"] = "A"
    schema["outcome"] = "Y"
    _write_json(os.path.join(out, "schema.json"), schema)
    _write_json(os.path.join(out, "dag.json"), dag.to_dict())
    _write_json(os.path.join(out, "truth.json"), truth())
    manifest = {"simulator": run["data"]["simulator"]["name"], "seed": seed, "n": dataset.n,
                "scm_version": version, "config": config}
    _write_json(os.path.join(out, "manifest.json"), manifest)
    print(f"wrote {dataset.n}-row dataset to {out}")
    return 0


def cmd_train(args) -> int:
    config, seed, out = _load_config(args)
    row = _method_of(config)
    dataset, simulated, *_ = _resolve_data(config, seed)
    dag = _resolve_dag(config, simulated)
    if setting(config, "split", dict, {}):
        dataset, _ = _split(dataset, config, seed)
    models, logs = _train_one(row, dag, dataset, config, seed)
    os.makedirs(out, exist_ok=True)
    for spec, model in zip(row.models, models):
        model.save(os.path.join(out, f"{spec.key}.json"))
    _write_json(os.path.join(out, "training_log.json"),
                {"config": config, "seed": seed, "logs": logs})
    print(f"trained {row.name} model(s); artifacts in {out}")
    return 0


def cmd_estimate(args) -> int:
    config, seed, out = _load_config(args)
    row = _method_of(config)
    dataset = _resolve_data(config, seed)[0]
    estimate = _estimator(row, config, seed)
    models = [_read(spec.key, setting(config, spec.key, object), DagTransformer.load)
              for spec in row.models]
    report = estimate(models, dataset)
    payload = {"config": config, "seed": seed, "report": report.to_dict()}
    _write_json(os.path.join(out, "estimate.json"), payload)
    if report.cate is not None:
        _write_text(os.path.join(out, "cate.csv"), report.cate_csv())
    ate_text = "n/a" if report.ate is None else f"{report.ate:.6g}"
    print(f"{row.name} ate: {ate_text}")
    return 0


def cmd_tune(args) -> int:
    config, seed, out = _load_config(args)
    row = _method_of(config)
    for key in keys_of(config, "nmmr", NMMR_KEYS):
        raise ConfigError(f"tune does not read 'nmmr.{key}': a candidate's kernel uses the "
                          "median-heuristic bandwidth, and its lambda is its 'l2_penalty'")
    dataset, simulated, *_ = _resolve_data(config, seed)
    dag = _resolve_dag(config, simulated)
    train, validation = _split(dataset, config, seed)
    grid = setting(config, "grid", object)
    grid = _read("grid", grid) if isinstance(grid, str) else grid
    rows, best = grid_search(grid, train, validation, row.name, dag,
                             mode=setting(config, "mode", str, "cate"), seed=seed,
                             plugin_config=section(config, "plugin", ForestConfig, seed=seed),
                             jobs=args.jobs or setting(config, "jobs", int, 1))
    os.makedirs(out, exist_ok=True)
    _write_text(os.path.join(out, "ranking.csv"), ranking_csv(rows))
    best.save(os.path.join(out, "best_model.json"))
    _write_json(os.path.join(out, "tune_report.json"),
                {"config": config, "seed": seed, "table": rows})
    print(f"tuned {len(rows)} configurations; best hash {rows[0]['config_hash']}")
    return 0


# -- evaluate ---------------------------------------------------------------

def _effect_replicate(config: dict, replicate: int) -> dict:
    """One ATE/CATE replicate: fit plug-in, train candidate, record effects."""
    row = _method_of(config)
    seed = _seed(config)
    estimate = _estimator(row, config, seed + replicate)
    dataset, simulated, *_ = _resolve_data(config, seed, replicate)
    dag = _resolve_dag(config, simulated)
    train, validation = _split(dataset, config, seed, offset=replicate)
    forests = section(config, "plugin", ForestConfig, seed=seed + replicate)
    # keep the plug-in's effects, not its forests, alive through training
    plugin_tau = fit_plugin(validation, dag, forests).cate(validation)
    cate = setting(config, "experiment", str, None) == "cate"
    reference = plugin_tau if validation.true_cate is None else validation.true_cate
    if cate:
        check_reference(reference)
    models, _ = _train_one(row, dag, train, config, seed + replicate)
    report = estimate(models, validation)
    row = {"replicate": replicate, "candidate_ate": report.ate,
           "plugin_ate": float(plugin_tau.mean()), "true_ate": validation.true_ate}
    if cate:
        row["nrmse"] = nrmse(reference, report.cate)
    return row


def _demand_replicate(config: dict, replicate: int) -> dict:
    """One demand replicate: train the bridge on a fresh sample, score its curve by c-MSE."""
    row = _method_of(config)
    seed = _seed(config)
    estimate = _estimator(row, config, seed + replicate)
    dataset, simulated, *_ = _resolve_data(config, seed, replicate)
    models, _ = _train_one(row, _resolve_dag(config, simulated), dataset, config, seed + replicate)
    report = estimate(models, dataset)
    curve = np.asarray([report.potential_outcomes[a] for a in data_mod.DEMAND_PRICE_GRID])
    true_curve = data_mod.demand_true_curve()
    naive = float(dataset.node_column("Y").values.mean())
    return {"replicate": replicate,
            "c_mse": c_mse(curve, true_curve),
            "c_mse_naive": c_mse(np.full(len(true_curve), naive), true_curve),
            "curve": [float(v) for v in curve]}


def _replicate_with_context(job: tuple) -> dict:
    """Run one (worker, config, replicate) job, tagging a failure with its index and config hash."""
    worker, config, replicate = job
    try:
        return worker(config, replicate)
    except DagformerError as exc:
        exc.args = (f"replicate {replicate} (config {config_hash(config)}): {exc}",)
        raise


def cmd_evaluate(args) -> int:
    config, seed, out = _load_config(args)
    replicates = setting(config, "replicates", int, 10)
    experiment = setting(config, "experiment", str, "ate")
    jobs = args.jobs or setting(config, "jobs", int, 1)
    row = _method_of(config)
    if experiment == "cate" and not row.cate:
        raise ConfigError(f"{row.name} produces no per-unit effects; use experiment 'ate'")
    if experiment == "demand" and not row.proxy:
        raise ConfigError("the demand experiment needs a proximal method")
    if experiment not in ("ate", "cate", "demand"):
        raise ConfigError(f"unknown experiment {experiment!r}")
    # a bad value fails here, before any replicate starts
    training_settings(config, row, seed)
    least = 2 if experiment == "ate" else 1  # ate normalizes by the spread over replicates
    if replicates < least:
        raise ConfigError(f"experiment {experiment!r} needs 'replicates' >= {least}, "
                          f"got {replicates}")
    if experiment == "demand":
        if setting(config, "data.simulator.name", str, None) != "demand":
            raise ConfigError("the demand experiment needs 'data.simulator.name' 'demand'")
        if "a_grid" in config:
            raise ConfigError("the demand experiment scores its own price grid; drop 'a_grid'")
    else:
        section(config, "plugin", ForestConfig, seed=seed)
    # `_effect_replicate` is looked up here, so a wrapped module function is seen
    worker = _demand_replicate if experiment == "demand" else _effect_replicate
    rows = map_jobs(_replicate_with_context, [(worker, config, r) for r in range(replicates)], jobs)
    if experiment == "demand":
        values = np.asarray([r["c_mse"] for r in rows])
        naive = np.asarray([r["c_mse_naive"] for r in rows])
        q25, q50, q75 = np.percentile(values, [25, 50, 75])
        aggregate = {"median_c_mse": float(q50), "iqr_c_mse": float(q75 - q25),
                     "median_c_mse_naive": float(np.median(naive))}
    else:
        plugin_ates = np.asarray([r["plugin_ate"] for r in rows])
        candidate = np.asarray([r["candidate_ate"] for r in rows])
        have_truth = all(r["true_ate"] is not None for r in rows)
        if experiment == "ate":
            reference = np.asarray([r["true_ate"] for r in rows]) if have_truth else plugin_ates
            scores = nrmse_scalar_replicates(reference, candidate, variance_source=plugin_ates)
            for row, score in zip(rows, scores):
                row["nrmse"] = float(score)
        scores = np.asarray([r["nrmse"] for r in rows])
        aggregate = {"mean_nrmse": float(scores.mean()),
                     "se_nrmse": float(scores.std(ddof=1) / np.sqrt(len(scores)))
                     if len(scores) > 1 else 0.0}
    payload = {"config": config, "seed": seed, "replicates": rows, "aggregate": aggregate}
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "evaluate.json"), payload)
    header = sorted({k for r in rows for k in r if k != "curve"})
    _write_text(os.path.join(out, "replicates.csv"),
                data_mod.csv_text(header, [[r.get(k) for k in header] for r in rows]))
    print(json.dumps(aggregate, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dagformer",
                                     description="causal effect estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (("simulate", cmd_simulate), ("train", cmd_train),
                          ("estimate", cmd_estimate), ("tune", cmd_tune),
                          ("evaluate", cmd_evaluate)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a JSON run config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config entry (dotted keys, JSON values)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--jobs", type=int, default=None,
                       help="parallel replicates/grid points")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except TrainingDivergedError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    except SelectionFailedError as exc:
        print(f"selection failed: {exc}", file=sys.stderr)
        return 5
    except DagformerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
