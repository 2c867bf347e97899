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
from dataclasses import replace

import numpy as np

from . import data as data_mod
from .errors import (
    ConfigError, DagformerError, DataError, SelectionFailedError, TrainingDivergedError,
)
# not called here; perfbench's tests check that its tracer patches cli's names too
from .estimators import (  # noqa: F401
    estimate_aipw, estimate_gformula, estimate_iptw, estimate_proximal,
)
from .graph import METHOD_ROLES, CausalDag, input_nodes_for
from .methods import Data, Run, Split, model_configs, overridden, resolve, seeded
from .model import DagTransformer
from .selection import (
    c_mse, candidates, check_reference, config_hash, fit_plugin, grid_search, map_jobs, nrmse,
    nrmse_scalar_replicates, plugin_covariates, ranking_csv,
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


def _load_config(args) -> tuple[dict, Run, str]:
    """(run config with the `--set` and `--seed` overrides, its resolved Run,
    output directory)."""
    if getattr(args, "jobs", 1) < 1:  # only tune and evaluate take --jobs
        raise ConfigError(f"'--jobs' must be >= 1, got {args.jobs}")
    config = _read("--config", args.config) if args.config else {}
    if not isinstance(config, dict):
        raise ConfigError(f"the '--config' file must hold a JSON object, "
                          f"not a {type(config).__name__}")
    overrides = []
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            overrides.append((key, json.loads(raw)))
        except json.JSONDecodeError:
            overrides.append((key, raw))
    if args.seed is not None:
        overrides.append(("seed", args.seed))
    config = overridden(config, overrides)
    return config, resolve(config), args.out or "."


def _write_text(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(path: str, payload: dict):
    _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _dag(run: Run) -> CausalDag:
    """The run's graph, known before any row is drawn or read: its inline `dag`,
    else its `dag` file, else the graph of its `data.simulator`. It is checked
    against the roles and graph rules of each of the run method's models."""
    if run.dag is None:
        simulator = run.required("data").simulator
        if simulator is None:
            raise ConfigError("config needs a 'dag' path or inline graph")
        dag = simulator.dag()
    else:
        dag = CausalDag.from_dict(_read("dag", run.dag)) if isinstance(run.dag, str) else run.dag
    for spec in run.row.models:
        input_nodes_for(spec.base, dag)
    return dag


def _resolve_data(run: Run, seed: int, replicate: int | None = None):
    """The rows the `data` section names: the simulator's draw seeded by
    `data.seed` (default `seed`), or the CSV file. Replicate r draws with that
    seed + r, or bootstraps the CSV with it."""
    data = run.required("data")
    seed = seeded(data, seed).seed + (replicate or 0)
    if data.simulator is not None:
        return data.simulator.draw(seed)[0]
    schema = _read("data.schema", data.schema, data_mod.load_schema, DataError)
    rows = _read("data.csv", data.csv, lambda path: data_mod.load_csv(path, schema), DataError)
    return rows if replicate is None else data_mod.bootstrap(rows, seed)


def _split(dataset, run: Run, seed: int, offset: int = 0):
    """(train, validation) by the run's split; `offset` shifts its seed."""
    split = seeded(run.split or Split(), seed)
    return dataset.split(split.train_fraction, split.seed + offset)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    config, run, out = _load_config(args)
    # a top-level `simulator` is drawn as a `data.simulator` without a `data.seed`
    if run.simulator is not None:
        if run.data is not None:
            raise ConfigError("simulate draws a 'simulator' or a 'data' section; name one "
                              "or the other")
        run = replace(run, data=Data(simulator=run.simulator))
    if run.data is None or run.data.simulator is None:
        raise ConfigError("simulate needs a 'simulator' or 'data.simulator' section")
    simulator = run.data.simulator
    dataset, truth, version = simulator.draw(seeded(run.data, run.seed).seed)
    os.makedirs(out, exist_ok=True)
    data_mod.write_csv(dataset, os.path.join(out, "data.csv"))
    schema = dataset.schema()
    schema["treatment"] = "A"
    schema["outcome"] = "Y"
    _write_json(os.path.join(out, "schema.json"), schema)
    _write_json(os.path.join(out, "dag.json"), simulator.dag().to_dict())
    _write_json(os.path.join(out, "truth.json"), truth())
    manifest = {"simulator": simulator.name, "seed": run.seed, "n": dataset.n,
                "scm_version": version, "config": config}
    _write_json(os.path.join(out, "manifest.json"), manifest)
    print(f"wrote {dataset.n}-row dataset to {out}")
    return 0


def cmd_train(args) -> int:
    config, run, out = _load_config(args)
    row, seed = run.row, run.seed
    model_configs(run, seed)  # a model section that `train` rejects fails before any row loads
    dag = _dag(run)
    dataset = _resolve_data(run, seed)
    if run.split is not None:
        dataset, _ = _split(dataset, run, seed)
    models = row.build(run, dag, dataset, seed)
    logs = row.train(models, run, dataset, seed)
    os.makedirs(out, exist_ok=True)
    for spec, model in zip(row.models, models):
        model.save(os.path.join(out, f"{spec.key}.json"))
    _write_json(os.path.join(out, "training_log.json"),
                {"config": config, "seed": seed, "logs": logs})
    print(f"trained {row.name} model(s); artifacts in {out}")
    return 0


def cmd_estimate(args) -> int:
    config, run, out = _load_config(args)
    row, seed = run.row, run.seed
    paths = [run.required(spec.key) for spec in row.models]
    estimate = row.estimator(run, seed)
    models = [_read(spec.key, path, DagTransformer.load) for spec, path in zip(row.models, paths)]
    # a snapshot serves a model key if it reads the same roles and has at least its heads
    for spec, model in zip(row.models, models):
        (inputs, heads, _), (need_inputs, need_heads, _) = (METHOD_ROLES[model.method],
                                                            METHOD_ROLES[spec.base])
        if set(inputs) != set(need_inputs) or not set(need_heads) <= set(heads):
            raise ConfigError(f"{spec.key!r} holds a snapshot of a {model.method!r} model, "
                              f"which cannot serve the {spec.base!r} model of {row.name!r}")
    dataset = _resolve_data(run, seed)
    for model in models:
        dataset.validate_against(model.dag)
    report = estimate(models, dataset)
    payload = {"config": config, "seed": seed, "report": report.to_dict()}
    _write_json(os.path.join(out, "estimate.json"), payload)
    if report.cate is not None:
        _write_text(os.path.join(out, "cate.csv"), report.cate_csv())
    ate_text = "n/a" if report.ate is None else f"{report.ate:.6g}"
    print(f"{row.name} ate: {ate_text}")
    return 0


def cmd_tune(args) -> int:
    config, run, out = _load_config(args)
    row, seed = run.row, run.seed
    grid = run.required("grid")
    # every candidate is read before any row is drawn
    runs = candidates(config, _read("grid", grid) if isinstance(grid, str) else grid)
    model_configs(run, seed)  # a model section that a candidate rejects fails before any row
    dag = _dag(run)
    if not row.proxy:  # the plug-in forest needs a confounder, which the graph shows first
        plugin_covariates(dag)
    train, validation = _split(_resolve_data(run, seed), run, seed)
    rows, best = grid_search(run, runs, train, validation, dag, jobs=args.jobs)
    os.makedirs(out, exist_ok=True)
    _write_text(os.path.join(out, "ranking.csv"), ranking_csv(rows))
    best.save(os.path.join(out, "best_model.json"))
    _write_json(os.path.join(out, "tune_report.json"),
                {"config": config, "seed": seed, "table": rows})
    print(f"tuned {len(rows)} configurations; best hash {rows[0]['config_hash']}")
    return 0


# -- evaluate ---------------------------------------------------------------

def _effect_replicate(run: Run, replicate: int) -> dict:
    """One ATE/CATE replicate: fit plug-in, train candidate, record effects.
    `run.dag` is the graph `cmd_evaluate` read and checked."""
    row, seed, dag = run.row, run.seed, run.dag
    estimate = row.estimator(run, seed + replicate)
    train, validation = _split(_resolve_data(run, seed, replicate), run, seed, offset=replicate)
    # keep the plug-in's effects, not its forests, alive through training
    plugin_tau = fit_plugin(validation, dag, seeded(run.plugin, seed + replicate)).cate(validation)
    cate = run.experiment == "cate"
    reference = plugin_tau if validation.true_cate is None else validation.true_cate
    if cate:
        check_reference(reference)
    models = row.build(run, dag, train, seed + replicate)
    row.train(models, run, train, seed + replicate)
    report = estimate(models, validation)
    row = {"replicate": replicate, "candidate_ate": report.ate,
           "plugin_ate": float(plugin_tau.mean()), "true_ate": validation.true_ate}
    if cate:
        row["nrmse"] = nrmse(reference, report.cate)
    return row


def _demand_replicate(run: Run, replicate: int) -> dict:
    """One demand replicate: train the bridge on a fresh sample, score its curve by c-MSE."""
    row, seed, dag = run.row, run.seed, run.dag
    estimate = row.estimator(run, seed + replicate)
    dataset = _resolve_data(run, seed, replicate)
    models = row.build(run, dag, dataset, seed + replicate)
    row.train(models, run, dataset, seed + replicate)
    report = estimate(models, dataset)
    curve = np.asarray([report.potential_outcomes[a] for a in data_mod.DEMAND_PRICE_GRID])
    true_curve = data_mod.demand_true_curve()
    naive = float(dataset.node_column("Y").values.mean())
    return {"replicate": replicate,
            "c_mse": c_mse(curve, true_curve),
            "c_mse_naive": c_mse(np.full(len(true_curve), naive), true_curve),
            "curve": [float(v) for v in curve]}


def _replicate_with_context(job: tuple) -> dict:
    """Run one (worker, run, replicate, config hash) job, tagging a failure with
    its index and config hash."""
    worker, run, replicate, label = job
    try:
        return worker(run, replicate)
    except DagformerError as exc:
        exc.args = (f"replicate {replicate} (config {label}): {exc}",)
        raise


def cmd_evaluate(args) -> int:
    config, run, out = _load_config(args)
    experiment, row = run.experiment, run.row
    if experiment == "cate" and not row.cate:
        raise ConfigError(f"{row.name} produces no per-unit effects; use experiment 'ate'")
    if experiment == "demand" and not row.proxy:
        raise ConfigError("the demand experiment needs a proximal method")
    model_configs(run, run.seed)  # a missing model section fails before any replicate starts
    least = 2 if experiment == "ate" else 1  # ate normalizes by the spread over replicates
    if run.replicates < least:
        raise ConfigError(f"experiment {experiment!r} needs 'replicates' >= {least}, "
                          f"got {run.replicates}")
    if experiment == "demand":
        if not run.demand:
            raise ConfigError("the demand experiment needs 'data.simulator.name' 'demand'")
        if run.a_grid is not None:
            raise ConfigError("the demand experiment scores its own price grid; drop 'a_grid'")
    elif row.proxy and set(run.a_grid or ()) != {0.0, 1.0}:  # else the bridge reports no ATE
        raise ConfigError(f"experiment 'ate' with {row.name} contrasts the treatments 0 and 1, "
                          f"so 'a_grid' must hold exactly 0 and 1, got {run.a_grid}")
    run = replace(run, dag=_dag(run))  # a `dag` file is read once, not once per replicate
    if experiment != "demand":  # each replicate fits the plug-in forest on its confounders
        plugin_covariates(run.dag)
    # `_effect_replicate` is looked up here, so a wrapped module function is seen
    worker = _demand_replicate if experiment == "demand" else _effect_replicate
    label = config_hash(config)
    rows = map_jobs(_replicate_with_context,
                    [(worker, run, r, label) for r in range(run.replicates)], args.jobs)
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
    payload = {"config": config, "seed": run.seed, "replicates": rows, "aggregate": aggregate}
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
        if name in ("tune", "evaluate"):
            p.add_argument("--jobs", type=int, default=1, help="parallel grid points/replicates")
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
