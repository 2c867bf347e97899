import builtins
import json
import pathlib
import re

import numpy as np
import pytest

from dagformer import cli, methods, selection
from dagformer.cli import main
from dagformer.data import linear_scm_dag
from dagformer.graph import demand_dag
from dagformer.errors import ConfigError
from dagformer.methods import METHODS, Split, _as, _read, overridden, resolve
from dagformer.selection import SEARCH_METHODS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SNAPSHOT = ROOT / "tests" / "fixtures" / "snapshot_v1_aipw.json"


def run(tmp_path, command, config, name="config.json", extra=()):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return main([command, "--config", str(path), *extra])


def small_model():
    return {"embedding_dim": 8, "num_heads": 2, "num_encoder_layers": 1,
            "feedforward_dim": 16, "mlp_width": 8, "mlp_depth": 1,
            "dropout_rate": 0.0, "alpha": 0.1, "seed": 3}


def linear_data(n=300, seed=5):
    return {"simulator": {"name": "linear-scm", "n": n, "x_dim": 1,
                          "treatment_effect": 2.0}, "seed": seed}


def test_simulate_demand_writes_files_and_is_byte_stable(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    config = {"simulator": {"name": "demand", "n": 50}, "seed": 7}
    assert run(tmp_path, "simulate", config, extra=("--out", str(out1))) == 0
    assert run(tmp_path, "simulate", config, extra=("--out", str(out2))) == 0
    for fname in ("data.csv", "schema.json", "dag.json", "truth.json", "manifest.json"):
        b1 = (out1 / fname).read_bytes()
        b2 = (out2 / fname).read_bytes()
        assert b1 == b2, fname
    truth = json.loads((out1 / "truth.json").read_text())
    assert len(truth["u"]) == 50
    header = (out1 / "data.csv").read_text().splitlines()[0]
    assert "U" not in header.split(",")
    assert len(truth["true_curve"]) == 10


def test_simulate_linear_sidecar_has_truth(tmp_path):
    out = tmp_path / "sim"
    config = {"simulator": {"name": "linear-scm", "n": 20, "x_dim": 1,
                            "treatment_effect": 2.0}, "seed": 1}
    assert run(tmp_path, "simulate", config, extra=("--out", str(out))) == 0
    truth = json.loads((out / "truth.json").read_text())
    assert truth["true_ate"] == 2.0
    assert len(truth["true_cate"]) == 20


def test_simulate_demand_draws_the_sample_once(tmp_path, monkeypatch):
    calls = []
    simulate_demand = cli.data_mod.simulate_demand

    def counting(n, seed):
        calls.append((n, seed))
        return simulate_demand(n, seed)
    monkeypatch.setattr(cli.data_mod, "simulate_demand", counting)
    config = {"simulator": {"name": "demand", "n": 30}, "seed": 2}
    assert run(tmp_path, "simulate", config, extra=("--out", str(tmp_path / "d"))) == 0
    assert calls == [(30, 2)]


def test_simulate_linear_scm_builds_its_scm_once(tmp_path, monkeypatch):
    # resolve builds the SCM to check it, and the draw uses that same one
    built = []
    linear_scm = methods.LinearScm

    def counting(**kwargs):
        built.append(kwargs)
        return linear_scm(**kwargs)
    monkeypatch.setattr(methods, "LinearScm", counting)
    config = {"simulator": {"name": "linear-scm", "n": 20, "x_dim": 2}, "seed": 1}
    assert run(tmp_path, "simulate", config, extra=("--out", str(tmp_path / "d"))) == 0
    assert len(built) == 1


def test_simulate_unknown_simulator_is_config_error(tmp_path):
    config = {"simulator": {"name": "nope", "n": 5}}
    assert run(tmp_path, "simulate", config, extra=("--out", str(tmp_path))) == 2


def test_train_then_estimate_roundtrip(tmp_path):
    out = tmp_path / "run"
    config = {"method": "gformula", "data": linear_data(), "model": small_model(),
              "optimizer": {"learning_rate": 3e-3}, "epochs": 10, "batch_size": 32,
              "seed": 2}
    assert run(tmp_path, "train", config, extra=("--out", str(out))) == 0
    assert (out / "model.json").exists()
    est_config = dict(config, model=str(out / "model.json"))
    assert run(tmp_path, "estimate", est_config, name="est.json",
               extra=("--out", str(out))) == 0
    report = json.loads((out / "estimate.json").read_text())
    assert report["report"]["method"] == "gformula"
    assert (out / "cate.csv").exists()


def test_train_aipw_separate_writes_two_models(tmp_path):
    out = tmp_path / "sep"
    config = {"method": "aipw-separate", "data": linear_data(n=200),
              "model_outcome": small_model(), "model_propensity": small_model(),
              "epochs": 3, "batch_size": 32, "seed": 4}
    assert run(tmp_path, "train", config, extra=("--out", str(out))) == 0
    assert (out / "model_outcome.json").exists()
    assert (out / "model_propensity.json").exists()
    est = dict(config, model_outcome=str(out / "model_outcome.json"),
               model_propensity=str(out / "model_propensity.json"))
    assert run(tmp_path, "estimate", est, name="est.json", extra=("--out", str(out))) == 0


def test_train_missing_separate_config_is_config_error(tmp_path):
    config = {"method": "aipw-separate", "data": linear_data(n=100),
              "model": small_model(), "epochs": 1, "batch_size": 32}
    assert run(tmp_path, "train", config, extra=("--out", str(tmp_path / "x"))) == 2


def test_train_proximal_requires_proxy_roles(tmp_path):
    # linear SCM graph has no proxies -> method-role incompatibility
    config = {"method": "proximal-u", "data": linear_data(n=80),
              "model": small_model(), "epochs": 1, "batch_size": 32}
    assert run(tmp_path, "train", config, extra=("--out", str(tmp_path / "x"))) == 2


def test_train_divergence_exit_code(tmp_path):
    config = {"method": "gformula", "data": linear_data(n=100), "model": small_model(),
              "optimizer": {"learning_rate": 1e150}, "epochs": 30, "batch_size": 32}
    assert run(tmp_path, "train", config, extra=("--out", str(tmp_path / "x"))) == 4


def test_train_non_finite_csv_cell_is_data_error(tmp_path, capsys):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"columns": [
        {"name": "x", "kind": "continuous", "node": "X1"},
        {"name": "t", "kind": "binary", "node": "A"},
        {"name": "y", "kind": "continuous", "node": "Y"}]}))
    rows = [f"{i * 0.1},{i % 2},{i * 0.2}" for i in range(40)]
    rows[7] = "0.7,1,nan"
    data = tmp_path / "data.csv"
    data.write_text("x,t,y\n" + "\n".join(rows) + "\n")
    config = {"method": "gformula", "dag": linear_scm_dag(1).to_dict(),
              "data": {"csv": str(data), "schema": str(schema)}, "model": small_model(),
              "epochs": 2, "batch_size": 16}
    assert run(tmp_path, "train", config, extra=("--out", str(tmp_path / "x"))) == 3
    assert "row 9, column y: non-finite value nan" in capsys.readouterr().err


def test_train_proximal_on_mostly_identical_kernel_rows_is_data_error(tmp_path, capsys):
    # 30 of 40 rows share their treatment and treatment proxy, the kernel
    # features: 435 of the 780 pairs are at distance zero, and so is the median
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"columns": [
        {"name": name, "kind": "continuous", "node": name} for name in ("Z", "W", "A", "Y")]}))
    rows = [f"{1.0 if i < 30 else i * 0.1},{i * 0.3},{2.0 if i < 30 else i * 0.2},{i * 0.5}"
            for i in range(40)]
    data = tmp_path / "data.csv"
    data.write_text("Z,W,A,Y\n" + "\n".join(rows) + "\n")
    config = {"method": "proximal-u", "dag": demand_dag().to_dict(),
              "data": {"csv": str(data), "schema": str(schema)}, "model": small_model(),
              "epochs": 2, "batch_size": 16}
    assert run(tmp_path, "train", config, extra=("--out", str(tmp_path / "x"))) == 3
    assert "more than half of the pairwise feature distances are zero" in capsys.readouterr().err


def test_train_alpha_zero_exits_zero_and_encoder_bypass_is_config_error(tmp_path, capsys):
    out = tmp_path / "alpha0"
    config = {"method": "aipw-joint", "data": linear_data(n=100),
              "model": dict(small_model(), alpha=0.0), "epochs": 2, "batch_size": 32}
    assert run(tmp_path, "train", config, extra=("--out", str(out))) == 0
    params = json.loads((out / "model.json").read_text())["params"]
    assert all(name.startswith("head/") for name in params)
    config["model"]["encoder_bypass"] = True
    assert run(tmp_path, "train", config, extra=("--out", str(tmp_path / "x"))) == 2
    assert "encoder_bypass" in capsys.readouterr().err


@pytest.mark.parametrize("schema, csv, named", [
    (None, "x,t,y\n1,0,2\n", "'data.schema'"),
    ("{not json", "x,t,y\n1,0,2\n", "'data.schema'"),
    ('{"cols": []}', "x,t,y\n1,0,2\n", "'data.schema'"),
    ('{"columns": [{"kind": "binary"}]}', "x,t,y\n1,0,2\n", "'data.schema'"),
    ('{"columns": [{"name": "t", "kind": "binary"}]}', None, "'data.csv'"),
    ('{"columns": [{"name": "t", "kind": "binary"}]}', "x,t,y\n1,0,2\n1,0\n", "row 3 has 2 cells"),
])
def test_unreadable_data_file_is_data_error_naming_its_key(tmp_path, capsys, schema, csv, named):
    config = {"method": "gformula", "dag": linear_scm_dag(1).to_dict(),
              "data": {"csv": str(tmp_path / "data.csv"), "schema": str(tmp_path / "s.json")}}
    for name, text in (("s.json", schema), ("data.csv", csv)):
        if text is not None:
            (tmp_path / name).write_text(text)
    assert run(tmp_path, "train", config, extra=("--out", str(tmp_path / "x"))) == 3
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [(None, "'--config'"), ("{not json", "'--config'"),
                                          ("[1]", "'--config'")])
def test_unreadable_config_file_is_config_error(tmp_path, capsys, text, named):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command, output", [("evaluate", "replicates.csv"),
                                             ("simulate", "data.csv")])
def test_rows_are_drawn_with_data_seed(tmp_path, command, output):
    # replicate r draws with data.seed + r, and seed + r without it
    config = dict(_method_config("gformula"), replicates=2, seed=11)
    del config["data"]["seed"]

    def written(*overrides):
        out = tmp_path / "-".join(overrides or ["default"])
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert run(tmp_path, command, config, extra=("--out", str(out), *sets)) == 0
        return (out / output).read_bytes()
    default = written()
    assert written("data.seed=99") != default
    assert written("data.seed=11") == default


def test_estimate_missing_csv_is_data_error(tmp_path):
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"columns": [
        {"name": "t", "kind": "binary", "node": "A"}]}))
    missing = tmp_path / "missing.csv"
    missing.write_text("wrong_header\n1\n")
    config = {"method": "gformula", "model": "irrelevant.json",
              "data": {"csv": str(missing), "schema": str(schema)}}
    assert run(tmp_path, "estimate", config) == 3


def _grid():
    return {"epochs": [8], "batch_size": [32], "optimizer.learning_rate": [3e-3],
            "optimizer.l2_penalty": [0.0], "model.mlp_width": [8], "model.mlp_depth": [1],
            "model.num_encoder_layers": [1], "model.dropout_rate": [0.0],
            "model.embedding_dim": [8], "model.feedforward_dim": [16], "model.num_heads": [2],
            "model.alpha": [0.1]}


def test_tune_writes_ranking_and_best_model(tmp_path):
    out = tmp_path / "tune"
    config = {"method": "gformula", "data": linear_data(n=260, seed=8),
              "grid": _grid(), "seed": 5, "plugin": {"n_trees": 20}}
    assert run(tmp_path, "tune", config, extra=("--out", str(out))) == 0
    ranking = (out / "ranking.csv").read_text().splitlines()
    assert ranking[0].startswith("rank,config_hash,score")
    assert len(ranking) == 2
    assert (out / "best_model.json").exists()


def test_tune_grid_from_file_and_selection_failure_exit(tmp_path):
    grid = _grid()
    grid["optimizer.learning_rate"] = [1e150]
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    config = {"method": "gformula", "data": linear_data(n=150, seed=9),
              "grid": str(grid_path), "seed": 6, "plugin": {"n_trees": 10}}
    assert run(tmp_path, "tune", config, extra=("--out", str(tmp_path / "t"))) == 5


def test_evaluate_ate_report_shape_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    config = {"experiment": "ate", "method": "gformula", "data": linear_data(n=240),
              "model": small_model(), "optimizer": {"learning_rate": 3e-3},
              "epochs": 8, "batch_size": 32, "replicates": 3, "seed": 11,
              "plugin": {"n_trees": 15}}
    assert run(tmp_path, "evaluate", config, extra=("--out", str(out1))) == 0
    assert run(tmp_path, "evaluate", config, extra=("--out", str(out2))) == 0
    assert (out1 / "evaluate.json").read_bytes() == (out2 / "evaluate.json").read_bytes()
    assert (out1 / "replicates.csv").read_bytes() == (out2 / "replicates.csv").read_bytes()
    payload = json.loads((out1 / "evaluate.json").read_text())
    assert set(payload["aggregate"]) == {"mean_nrmse", "se_nrmse"}
    assert len(payload["replicates"]) == 3
    for row in payload["replicates"]:
        assert {"replicate", "candidate_ate", "plugin_ate", "true_ate", "nrmse"} <= set(row)


def test_evaluate_cate_uses_ground_truth(tmp_path):
    out = tmp_path / "ec"
    data = {"simulator": {"name": "linear-scm", "n": 240, "x_dim": 1,
                          "treatment_effect": 1.0, "effect_of_x1": 1.0}, "seed": 5}
    config = {"experiment": "cate", "method": "gformula", "data": data,
              "model": small_model(), "epochs": 8, "batch_size": 32,
              "replicates": 2, "seed": 12, "plugin": {"n_trees": 15}}
    assert run(tmp_path, "evaluate", config, extra=("--out", str(out))) == 0
    payload = json.loads((out / "evaluate.json").read_text())
    assert all("nrmse" in row for row in payload["replicates"])


def test_evaluate_demand_reports_median_iqr(tmp_path):
    out = tmp_path / "ed"
    config = {"experiment": "demand", "method": "proximal-u",
              "data": {"simulator": {"name": "demand", "n": 120}},
              "model": small_model(), "optimizer": {"learning_rate": 1e-3},
              "nmmr": {"lambda": 1e-6}, "epochs": 5, "batch_size": 32,
              "replicates": 2, "seed": 13, "heldout": {"draws": 100}}
    assert run(tmp_path, "evaluate", config, extra=("--out", str(out))) == 0
    payload = json.loads((out / "evaluate.json").read_text())
    assert set(payload["aggregate"]) == {"median_c_mse", "iqr_c_mse", "median_c_mse_naive"}
    for row in payload["replicates"]:
        assert len(row["curve"]) == 10


def test_evaluate_demand_draws_heldout_w_with_heldout_seed(tmp_path):
    config = {"experiment": "demand", "method": "proximal-u",
              "data": {"simulator": {"name": "demand", "n": 120}}, "model": small_model(),
              "epochs": 2, "batch_size": 32, "replicates": 1, "seed": 13,
              "heldout": {"draws": 50}}

    def curve(**heldout):
        out = tmp_path / f"seed{heldout.get('seed')}"
        cfg = dict(config, heldout=dict(config["heldout"], **heldout))
        assert run(tmp_path, "evaluate", cfg, extra=("--out", str(out))) == 0
        return json.loads((out / "evaluate.json").read_text())["replicates"][0]["curve"]
    # replicate 0 draws with seed + 0 unless heldout.seed says otherwise
    assert curve(seed=13) == curve()
    assert curve(seed=14) != curve()


def test_evaluate_reports_embed_full_config(tmp_path):
    out = tmp_path / "cfg"
    config = {"experiment": "ate", "method": "gformula", "data": linear_data(n=200),
              "model": small_model(), "epochs": 4, "batch_size": 32,
              "replicates": 2, "seed": 14, "plugin": {"n_trees": 10}}
    assert run(tmp_path, "evaluate", config, extra=("--out", str(out))) == 0
    payload = json.loads((out / "evaluate.json").read_text())
    assert payload["config"]["model"]["embedding_dim"] == 8
    assert payload["seed"] == 14


def test_set_overrides_nested_keys(tmp_path):
    out = tmp_path / "ovr"
    config = {"simulator": {"name": "linear-scm", "n": 10, "treatment_effect": 2.0}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    code = main(["simulate", "--config", str(path), "--seed", "3",
                 "--set", "simulator.treatment_effect=0.5", "--out", str(out)])
    assert code == 0
    truth = json.loads((out / "truth.json").read_text())
    assert truth["true_ate"] == 0.5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3


def test_unknown_method_is_config_error(tmp_path):
    config = {"method": "psm", "data": linear_data(n=50)}
    assert run(tmp_path, "train", config, extra=("--out", str(tmp_path / "x"))) == 2


def test_evaluate_parallel_jobs_matches_serial(tmp_path):
    out1, out2 = tmp_path / "s", tmp_path / "p"
    config = {"experiment": "ate", "method": "gformula", "data": linear_data(n=200),
              "model": small_model(), "epochs": 4, "batch_size": 32,
              "replicates": 3, "seed": 15, "plugin": {"n_trees": 10}}
    assert run(tmp_path, "evaluate", config, extra=("--out", str(out1))) == 0
    assert run(tmp_path, "evaluate", config, name="c2.json",
               extra=("--out", str(out2), "--jobs", "2")) == 0
    assert (out1 / "evaluate.json").read_bytes() == (out2 / "evaluate.json").read_bytes()


def test_evaluate_other_methods_smoke(tmp_path):
    for i, method in enumerate(("aipw-joint", "ipw")):
        out = tmp_path / method
        config = {"experiment": "ate", "method": method, "data": linear_data(n=220),
                  "model": small_model(), "epochs": 4, "batch_size": 32,
                  "replicates": 2, "seed": 20 + i, "plugin": {"n_trees": 10}}
        assert run(tmp_path, "evaluate", config, name=f"{method}.json",
                   extra=("--out", str(out))) == 0
        payload = json.loads((out / "evaluate.json").read_text())
        assert "mean_nrmse" in payload["aggregate"]


def test_tune_parallel_jobs_byte_identical(tmp_path):
    config = {"method": "gformula", "data": linear_data(n=420, seed=30),
              "grid": _grid(), "seed": 7, "plugin": {"n_trees": 25}}
    grid2 = _grid()
    grid2["model.alpha"] = [0.1, 0.2]
    config["grid"] = grid2
    out1, out2 = tmp_path / "ser", tmp_path / "par"
    assert run(tmp_path, "tune", config, extra=("--out", str(out1))) == 0
    assert run(tmp_path, "tune", config, name="c2.json",
               extra=("--out", str(out2), "--jobs", "2")) == 0
    assert (out1 / "ranking.csv").read_bytes() == (out2 / "ranking.csv").read_bytes()
    assert (out1 / "best_model.json").read_bytes() == (out2 / "best_model.json").read_bytes()


def test_evaluate_failure_names_replicate_and_config(tmp_path, capsys):
    config = {"experiment": "ate", "method": "gformula", "data": linear_data(n=150),
              "model": small_model(), "optimizer": {"learning_rate": 1e150},
              "epochs": 20, "batch_size": 32, "replicates": 2, "seed": 16,
              "plugin": {"n_trees": 10}}
    # every replicate fails; the one reported is the first by index, in a pool too
    for jobs in ("1", "2"):
        assert run(tmp_path, "evaluate", config,
                   extra=("--out", str(tmp_path / "x"), "--jobs", jobs)) == 4
        err = capsys.readouterr().err
        assert "replicate 0" in err and "config" in err


def _method_config(name, n=120):
    """A tiny train config for one table row: demand data for a proxy method."""
    row = METHODS[name]
    data = {"simulator": {"name": "demand", "n": n}} if row.proxy else linear_data(n=n)
    config = {"method": name, "data": data, "epochs": 2, "batch_size": 32, "seed": 4,
              "heldout": {"draws": 20}, "plugin": {"n_trees": 10}}
    config.update({spec.key: small_model() for spec in row.models})
    return config


@pytest.mark.parametrize("name", list(METHODS))
def test_every_method_trains_estimates_and_tunes(tmp_path, name):
    row = METHODS[name]
    out = tmp_path / "run"
    config = _method_config(name)
    assert run(tmp_path, "train", config, extra=("--out", str(out))) == 0
    est = dict(config, **{spec.key: str(out / f"{spec.key}.json") for spec in row.models})
    assert run(tmp_path, "estimate", est, name="est.json", extra=("--out", str(out))) == 0
    report = json.loads((out / "estimate.json").read_text())["report"]
    assert (report["cate"] is not None) == row.cate
    tune = dict(_tune_config(config), grid=dict(_grid(), epochs=[2]))
    assert run(tmp_path, "tune", tune, name="tune.json",
               extra=("--out", str(tmp_path / "tune"))) == (0 if row.tunable else 2)


@pytest.mark.parametrize("name", SEARCH_METHODS)
def test_tune_best_model_is_the_train_run_of_the_winning_config(tmp_path, name):
    # a candidate is the base config with its grid point written in, as `--set` writes
    config = dict(_method_config(name, n=300), split={"train_fraction": 0.7, "seed": 9},
                  grid={"optimizer.learning_rate": [1e-3, 3e-3]})
    if METHODS[name].proxy:  # tune reads the nmmr section, as train does
        config.update(nmmr={"kernel_bandwidth": 2.0}, grid={"nmmr.lambda": [1e-6, 1e-3]})
    assert run(tmp_path, "tune", config, name="tune.json",
               extra=("--out", str(tmp_path / "tune"))) == 0
    report = json.loads((tmp_path / "tune" / "tune_report.json").read_text())
    assert report["config"] == config  # the writer changed no object of the base config
    winner = overridden(config, report["table"][0]["config"].items())
    assert run(tmp_path, "train", winner, extra=("--out", str(tmp_path / "train"))) == 0
    assert ((tmp_path / "tune" / "best_model.json").read_bytes()
            == (tmp_path / "train" / "model.json").read_bytes())


def _tune_config(config):
    """`config` as the base of a `_grid` tune: the grid sets every model key but
    `seed`, so a candidate's model takes the run's seed."""
    return {key: value for key, value in config.items() if key != "model"}


def _table_config(command, name):
    """A config that every command of the tables below runs as it is; `estimate`
    reads a snapshot that exists."""
    config = dict(_method_config(name), grid=_grid())
    if command == "estimate":
        config["model"] = str(SNAPSHOT)
    return _tune_config(config) if command == "tune" else config


def _overrides(override):
    """Command-line arguments for a table row: `--flag=value` items as they are, the
    others `--set` overrides."""
    return [arg for item in override.split()
            for arg in ((item,) if item.startswith("--") else ("--set", item))]


@pytest.mark.parametrize("command, name, override, code", [
    ("train", "gformula", "model.embedding_dim=abc", 2),
    ("train", "gformula", "model.embedding_dim=8.0", 2),
    ("train", "gformula", "epochs=abc", 2),
    ("train", "gformula", "optimizer.learning_rate=abc", 2),
    ("train", "gformula", "model=[1]", 2),
    ("train", "gformula", "split.train_fraction=1.5", 2),
    ("train", "proximal-u", "nmmr.kernel_bandwidth=-1", 2),
    ("train", "gformula", "data.simulator.n=0", 2),
    ("train", "gformula", "split.train_fraction=0.001", 3),  # no training rows
    ("evaluate", "ipw", "experiment=cate", 2),
    ("evaluate", "proximal-u", "experiment=cate", 2),
    ("evaluate", "gformula", "experiment=demand", 2),
    ("train", "gformula", "seed=abc", 2),
    ("evaluate", "gformula", "replicates=abc", 2),
    ("evaluate", "gformula", "jobs=abc", 2),
    ("evaluate", "gformula", "plugin.n_trees=abc", 2),
    ("evaluate", "proximal-u", "experiment=demand heldout.draws=abc", 2),
    ("simulate", "gformula", "data.simulator.x_dim=abc", 2),
    ("tune", "gformula", 'grid.embedding_dim=["abc"]', 2),
    # constant reference effects: the true CATE, and a plug-in that never splits
    ("evaluate", "gformula", "experiment=cate", 3),
    ("tune", "gformula", "split.seed=9 seed=3", 3),
    # plug-in forest values out of range, before any replicate or grid point trains
    ("evaluate", "gformula", "plugin.n_trees=0", 2),
    ("evaluate", "gformula", "plugin.max_depth=-1", 2),
    ("evaluate", "gformula", "plugin.min_leaf=0", 2),
    ("evaluate", "gformula", "plugin.subsample_fraction=NaN", 2),
    ("evaluate", "gformula", "plugin.subsample_fraction=1.5", 2),
    ("tune", "gformula", "plugin.n_trees=0", 2),
    # a config section that is not a JSON object
    ("evaluate", "gformula", "plugin=5", 2),
    ("tune", "gformula", "plugin=5", 2),
    ("evaluate", "proximal-u", "experiment=demand heldout=5", 2),
    ("evaluate", "proximal-u", "experiment=demand data.simulator=5", 2),
    ("train", "gformula", "data.simulator=5", 2),
    ("train", "gformula", "data=5", 2),
    # simulator weights: not a list, not numbers, not x_dim long
    ("simulate", "gformula", 'data.simulator.propensity_weights="abc"', 2),
    ("simulate", "gformula", 'data.simulator.outcome_weights=["abc"]', 2),
    ("train", "gformula", "data.simulator.outcome_weights=[1,2]", 2),
    # NMMR settings that are not finite, or a boolean bandwidth
    ("train", "proximal-u", "nmmr.kernel_bandwidth=NaN", 2),
    ("train", "proximal-u", "nmmr.kernel_bandwidth=Infinity", 2),
    ("train", "proximal-v", "nmmr.kernel_bandwidth=true", 2),
    ("train", "proximal-u", "nmmr.lambda=NaN", 2),
    ("train", "proximal-v", "nmmr.lambda=Infinity", 2),
    ("train", "proximal-u", "optimizer.l2_penalty=NaN", 2),
    ("evaluate", "proximal-u", "experiment=demand nmmr.kernel_bandwidth=NaN", 2),
    # the demand experiment simulates its own data and scores its own price grid
    ("evaluate", "proximal-u", "experiment=demand data.simulator.name=linear-scm", 2),
    ("evaluate", "proximal-u", "experiment=demand a_grid=[10,20]", 2),
    ("tune", "proximal-u", "nmmr.kernel_bandwidth=NaN", 2),
    # read before the snapshot loads
    ("estimate", "proximal-u", 'a_grid="abc"', 2),
    # too few replicates to score: ate normalizes by their spread
    ("evaluate", "gformula", "replicates=0", 2),
    ("evaluate", "gformula", "replicates=1", 2),
    ("evaluate", "gformula", "experiment=cate replicates=0", 2),
    ("evaluate", "proximal-u", "experiment=demand replicates=0", 2),
    # a malformed graph
    ("train", "gformula", 'dag={"nodes":[{"name":"A","role":"boss"}],"edges":[]}', 2),
    ("train", "gformula", 'dag={"nodes":[{"name":"A","role":"treatment"}],"edges":[["A","B"]]}',
     2),
    ("train", "gformula", 'dag={"edges":[]}', 2),
    ("train", "gformula", 'dag={"nodes":[{"role":"treatment"}],"edges":[]}', 2),
    ("train", "gformula", 'dag={"nodes":[{"name":"A"}],"edges":[]}', 2),
    ("train", "gformula", 'dag={"nodes":"AY","edges":[]}', 2),
    ("evaluate", "gformula", 'dag={"nodes":[]}', 2),
    # a file the config names that is missing, or not a path
    ("train", "gformula", 'dag="no/such/dag.json"', 2),
    ("tune", "gformula", 'grid="no/such/grid.json"', 2),
    ("estimate", "gformula", 'model="no/such/model.json"', 2),
    ("estimate", "gformula", "model=5", 2),
    ("train", "gformula", 'data={"csv":"no/such/data.csv","schema":"no/such/schema.json"}', 3),
    # an integer must be a JSON integer, and a number is never a bool or a string
    ("train", "gformula", "epochs=2.7", 2),
    ("train", "gformula", 'epochs="3"', 2),
    ("train", "gformula", "batch_size=true", 2),
    ("train", "gformula", "optimizer.learning_rate=true", 2),
    ("train", "gformula", 'optimizer.learning_rate="0.01"', 2),
    ("train", "gformula", "split.seed=1.5", 2),
    ("train", "gformula", "data.seed=true", 2),
    ("train", "gformula", "data.simulator.n=60.7", 2),
    ("train", "gformula", "model.alpha=abc", 2),
    ("tune", "gformula", "grid.epochs=[2.7]", 2),
    ("tune", "gformula", "grid=5", 2),
    # a grid key that is not a candidate's training key, or one of the old grid names
    ("tune", "gformula", 'grid={"split.seed":[1,2]}', 2),
    ("tune", "gformula", 'grid={"seed":[1,2]}', 2),
    ("tune", "gformula", 'grid={"data.simulator.n":[100]}', 2),
    ("tune", "gformula", 'grid={"encoder_layers":[1]}', 2),
    ("tune", "gformula", 'grid={"epochs":[]}', 2),
    # a candidate value that the run config rejects
    ("tune", "gformula", 'grid={"model.embedding_dim":["abc"]}', 2),
    ("tune", "gformula", 'grid={"optimizer.beta1":[5]}', 2),
    # the optimizer's ranges, and keys that no dataclass-backed section has
    ("train", "gformula", "optimizer.learning_rate=NaN", 2),
    ("train", "gformula", "optimizer.beta1=5", 2),
    ("train", "gformula", "optimizer.beta2=1", 2),
    ("train", "gformula", "optimizer.epsilon=-1", 2),
    ("train", "gformula", "optimizer.l2_penalty=NaN", 2),
    ("train", "gformula", "optimizer.lr=0.1", 2),
    ("evaluate", "gformula", "plugin.n_tree=5", 2),
    # a key that its section does not read; a simulator's keys depend on its name
    ("train", "gformula", "split.train_fractio=0.5", 2),
    ("evaluate", "gformula", "split.train_fractio=0.5", 2),
    ("tune", "gformula", "split.sed=3", 2),
    ("evaluate", "proximal-u", "experiment=demand heldout.draw=10", 2),
    ("train", "proximal-u", "nmmr.lamda=1e-6", 2),
    ("evaluate", "proximal-u", "experiment=demand nmmr.bandwidth=1", 2),
    ("tune", "proximal-u", "nmmr.bandwidth=1.0", 2),
    ("train", "gformula", "data.sead=3", 2),
    ("train", "gformula", "data.simulator.x_dimm=2", 2),
    ("simulate", "gformula", "data.simulator.noise=0.5", 2),
    ("evaluate", "proximal-u", "experiment=demand data.simulator.x_dim=2", 2),
    # training sizes, read before any replicate starts
    ("evaluate", "gformula", "epochs=-1", 2),
    ("evaluate", "gformula", "batch_size=0", 2),
    # a batch below the objective's minimum (the U-statistic's two rows) would train nothing
    ("train", "proximal-u", "batch_size=1", 2),
    ("tune", "proximal-u", 'grid={"batch_size":[1]}', 2),
    ("evaluate", "proximal-u", "experiment=demand batch_size=1", 2),
    # too few rows for a proximal run: training, the median heuristic, the validation risk
    ("train", "proximal-u", "data.simulator.n=1", 3),
    ("train", "proximal-v", "data.simulator.n=1", 3),
    ("tune", "proximal-u", "data.simulator.n=3", 3),
    ("tune", "proximal-u", "data.simulator.n=3 nmmr.kernel_bandwidth=1.0", 3),
    # tune takes a method that trains one model, which it knows before any row is drawn
    ("tune", "aipw-separate", "", 2),
    # the plug-in forest needs a confounder, which the graph shows before any row is drawn
    ("evaluate", "gformula", "data.simulator.x_dim=0", 2),
    ("tune", "gformula", "data.simulator.x_dim=0", 2),
    # one schema for every command: each key is read, and checked, whatever the command
    *[("train", "gformula", override, 2) for override in (
        "nmmr.lamda=1", "heldout.drawz=5", "a_grid=abc", "experimnt=cate", "nmmr.lambda=NaN",
        "plugin.n_trees=0", "mode=xyz", "replicates=abc", "jobs=abc", "grid=5")],
    *[("estimate", "gformula", override, 2) for override in (
        "epochs=abc", "optimizer.beta1=5", "experimnt=cate", "plugin.n_tree=3",
        "split.train_fractio=0.5")],
    *[("simulate", "gformula", override, 2) for override in (
        "method=nope", "epochs=abc", "model.alpha=abc")],
    *[("tune", "gformula", override, 2) for override in (
        "epochs=abc", "optimizer.beta1=5", "model.embedding_dim=abc", "heldout.drawz=1")],
    # no held-out draws to average over
    ("estimate", "proximal-u", "heldout.draws=0", 2),
    ("estimate", "proximal-u", "heldout.draws=-3", 2),
    # fewer than one process, from the config or the flag
    ("evaluate", "gformula", "jobs=0", 2),
    ("evaluate", "gformula", "--jobs=0", 2),
    ("tune", "gformula", "--jobs=-1", 2),
])
def test_malformed_config_exit_code(tmp_path, monkeypatch, command, name, override, code):
    def no_training(*args, **kwargs):
        raise AssertionError("a config or data error must stop the run before training")
    def no_rows(*args, **kwargs):
        raise AssertionError("a config error must stop evaluate and tune before any row is drawn")
    if code == 2 or command in ("evaluate", "tune"):
        monkeypatch.setattr(cli, "train_model", no_training)
        monkeypatch.setattr(selection, "train_model", no_training)
    if code == 2 and command in ("evaluate", "tune"):
        monkeypatch.setattr(cli, "_resolve_data", no_rows)
    assert run(tmp_path, command, _table_config(command, name),
               extra=("--out", str(tmp_path / "x"), *_overrides(override))) == code


@pytest.mark.parametrize("command, name, override, named", [
    ("evaluate", "gformula", "plugin.n_trees=abc", "'plugin.n_trees'"),
    ("evaluate", "gformula", "plugin.subsample_fraction=NaN", "plugin.subsample_fraction"),
    ("tune", "gformula", "plugin.min_leaf=0", "plugin.min_leaf"),
    ("evaluate", "gformula", "plugin=5", "'plugin'"),
    ("evaluate", "proximal-u", "experiment=demand heldout=5", "'heldout'"),
    ("train", "gformula", "data.simulator=5", "'data.simulator'"),
    ("simulate", "gformula", 'data.simulator.propensity_weights="abc"',
     "'simulator.propensity_weights'"),
    ("train", "gformula", "data.simulator.outcome_weights=[1,2]", "'simulator.outcome_weights'"),
    ("train", "proximal-u", "nmmr.kernel_bandwidth=NaN", "nmmr.kernel_bandwidth"),
    ("train", "proximal-v", "nmmr.kernel_bandwidth=Infinity", "nmmr.kernel_bandwidth"),
    ("train", "proximal-u", "nmmr.lambda=NaN", "nmmr.lambda"),
    ("train", "proximal-u", "nmmr.lambda=abc", "'nmmr.lambda'"),
    ("train", "proximal-u", "optimizer.l2_penalty=abc", "'optimizer.l2_penalty'"),
    ("evaluate", "proximal-u", "experiment=demand data.simulator.name=linear-scm",
     "'data.simulator.name'"),
    ("evaluate", "proximal-u", "experiment=demand a_grid=[10,20]", "'a_grid'"),
    ("evaluate", "gformula", "replicates=1", "'replicates'"),
    ("evaluate", "gformula", "experiment=cate replicates=0", "'replicates'"),
    ("evaluate", "proximal-u", "experiment=demand replicates=0", "'replicates'"),
    ("train", "gformula", 'dag={"nodes":[{"name":"A","role":"boss"}],"edges":[]}', "'boss'"),
    ("train", "gformula", 'dag={"nodes":[{"name":"A","role":"treatment"}],"edges":[["A","B"]]}',
     "(A, B) references unknown node"),
    ("train", "gformula", 'dag={"edges":[]}', "'nodes'"),
    ("train", "gformula", 'dag={"nodes":"AY","edges":[]}', "'nodes'"),
    ("train", "gformula", 'dag="no/such/dag.json"', "'dag'"),
    ("tune", "gformula", 'grid="no/such/grid.json"', "'grid'"),
    ("estimate", "gformula", 'model="no/such/model.json"', "'model'"),
    ("estimate", "gformula", "model=5", "'model'"),
    ("train", "gformula", "epochs=2.7", "'epochs'"),
    ("train", "gformula", 'epochs="3"', "'epochs'"),
    ("train", "gformula", "epochs=abc", "'epochs'"),
    ("train", "gformula", "batch_size=true", "'batch_size'"),
    ("train", "gformula", "optimizer.learning_rate=true", "'optimizer.learning_rate'"),
    ("train", "gformula", 'optimizer.learning_rate="0.01"', "'optimizer.learning_rate'"),
    ("train", "gformula", "optimizer.learning_rate=NaN", "optimizer.learning_rate must be"),
    ("train", "gformula", "optimizer.beta1=5", "optimizer.beta1 must be in [0, 1)"),
    ("train", "gformula", "optimizer.epsilon=-1", "optimizer.epsilon must be"),
    ("train", "gformula", "split.seed=1.5", "'split.seed'"),
    ("train", "gformula", "data.seed=true", "'data.seed'"),
    ("train", "gformula", "data.simulator.n=60.7", "'simulator.n'"),
    ("train", "gformula", "model.alpha=abc", "'model.alpha'"),
    ("train", "gformula", "model.encoder_bypass=true", "'model.encoder_bypass'"),
    ("train", "gformula", "optimizer.lr=0.1", "'optimizer.lr'"),
    ("tune", "gformula", "grid.epochs=[2.7]", "'epochs'"),
    ("tune", "gformula", 'grid={"split.seed":[1,2]}', "'split.seed'"),
    ("tune", "gformula", 'grid={"seed":[1,2]}', "'seed'"),
    ("tune", "gformula", 'grid={"data.simulator.n":[100]}', "'data.simulator.n'"),
    ("tune", "gformula", 'grid={"encoder_layers":[1]}', "'model.num_encoder_layers'"),
    ("tune", "gformula", 'grid={"epochs":[]}', "'epochs'"),
    ("tune", "gformula", 'grid={"model.embedding_dim":["abc"]}', "'model.embedding_dim'"),
    ("tune", "gformula", 'grid={"optimizer.beta1":[5]}', "optimizer.beta1 must be in [0, 1)"),
    ("train", "gformula", "split.train_fractio=0.5", "'split.train_fractio'"),
    ("evaluate", "proximal-u", "experiment=demand heldout.draw=10", "'heldout.draw'"),
    ("estimate", "proximal-u", "heldout.sead=1", "'heldout.sead'"),
    ("train", "proximal-u", "nmmr.lamda=1e-6", "'nmmr.lamda'"),
    ("tune", "proximal-u", "nmmr.bandwidth=1.0", "'nmmr.bandwidth'"),
    ("train", "gformula", "data.sead=3", "'data.sead'"),
    ("train", "gformula", "data.simulator.x_dimm=2", "'simulator.x_dimm'"),
    ("evaluate", "proximal-u", "experiment=demand data.simulator.x_dim=2", "'simulator.x_dim'"),
    ("evaluate", "gformula", "epochs=-1", "'epochs'"),
    ("train", "proximal-u", "batch_size=1", "'batch_size'"),
    ("tune", "proximal-u", 'grid={"batch_size":[1]}', "'batch_size'"),
    ("evaluate", "proximal-u", "experiment=demand batch_size=1", "'batch_size'"),
    ("tune", "aipw-separate", "", "'aipw-separate'"),
    ("train", "gformula", "nmmr.lamda=1", "'nmmr.lamda'"),
    ("train", "gformula", "heldout.drawz=5", "'heldout.drawz'"),
    ("train", "gformula", "a_grid=abc", "'a_grid'"),
    ("train", "gformula", "experimnt=cate", "'experimnt'"),
    ("train", "gformula", "nmmr.lambda=NaN", "nmmr.lambda must be"),
    ("train", "gformula", "plugin.n_trees=0", "plugin.n_trees must be"),
    ("train", "gformula", "mode=xyz", "'mode'"),
    ("train", "gformula", "replicates=abc", "'replicates'"),
    ("train", "gformula", "jobs=abc", "'jobs'"),
    ("train", "gformula", "grid=5", "'grid'"),
    ("estimate", "gformula", "epochs=abc", "'epochs'"),
    ("estimate", "gformula", "optimizer.beta1=5", "optimizer.beta1 must be in [0, 1)"),
    ("estimate", "gformula", "experimnt=cate", "'experimnt'"),
    ("estimate", "gformula", "plugin.n_tree=3", "'plugin.n_tree'"),
    ("estimate", "gformula", "split.train_fractio=0.5", "'split.train_fractio'"),
    ("simulate", "gformula", "method=nope", "'method'"),
    ("simulate", "gformula", "epochs=abc", "'epochs'"),
    ("simulate", "gformula", "model.alpha=abc", "'model.alpha'"),
    ("tune", "gformula", "epochs=abc", "'epochs'"),
    ("tune", "gformula", "optimizer.beta1=5", "optimizer.beta1 must be in [0, 1)"),
    ("tune", "gformula", "model.embedding_dim=abc", "'model.embedding_dim'"),
    ("tune", "gformula", "heldout.drawz=1", "'heldout.drawz'"),
    ("estimate", "proximal-u", "heldout.draws=0", "heldout.draws must be >= 1"),
    ("evaluate", "gformula", "jobs=0", "'jobs'"),
    ("evaluate", "gformula", "--jobs=0", "'--jobs'"),
])
def test_config_error_names_the_key(tmp_path, capsys, command, name, override, named):
    assert run(tmp_path, command, _table_config(command, name),
               extra=("--out", str(tmp_path / "x"), *_overrides(override))) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command, name, override, named", [
    ("train", "proximal-u", "data.simulator.n=1", "row count, 1, is below"),
    ("train", "proximal-v", "data.simulator.n=1", "two rows, got 1"),
    ("tune", "proximal-u", "data.simulator.n=3", "got 2 and 1"),
    ("tune", "proximal-u", "data.simulator.n=3 nmmr.kernel_bandwidth=1.0", "got 2 and 1"),
])
def test_too_few_rows_for_a_proximal_run_is_a_data_error_naming_the_count(
        tmp_path, capsys, command, name, override, named):
    assert run(tmp_path, command, _table_config(command, name),
               extra=("--out", str(tmp_path / "x"), *_overrides(override))) == 3
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("name, override, named", [
    ("gformula", "optimizer.beta1=5", "optimizer.beta1"),
    ("gformula", "model.mlp_depth=0", "model.mlp_depth"),
    ("aipw-separate", "model_propensity.mlp_width=0", "model_propensity.mlp_width"),
    ("gformula", "batch_size=0", "'batch_size'"),
    ("proximal-u", "experiment=demand nmmr.lambda=NaN", "nmmr.lambda"),
])
def test_evaluate_reads_training_settings_before_any_replicate(tmp_path, monkeypatch, capsys,
                                                               name, override, named):
    def no_plugin(*args, **kwargs):
        raise AssertionError("a bad training setting must stop evaluate before a plug-in fits")
    monkeypatch.setattr(cli, "fit_plugin", no_plugin)
    sets = [arg for item in override.split() for arg in ("--set", item)]
    assert run(tmp_path, "evaluate", _method_config(name),
               extra=("--out", str(tmp_path / "x"), *sets)) == 2
    err = capsys.readouterr().err
    assert named in err and "replicate 0" not in err


@pytest.mark.parametrize("kind, value, want", [
    (int, 3, 3), (int, np.int64(3), 3), (float, 3, 3.0), (float, np.int32(2), 2.0),
    (float, 2.5, 2.5), (float, float("nan"), float("nan")), ([float], [1, 2.5], [1.0, 2.5]),
    (str, "a", "a"), (dict, {}, {}), (object, True, True),
])
def test_a_value_of_its_kind_is_taken(kind, value, want):
    got = _as(kind, value, "a.b")
    assert repr(got) == repr(want) and type(got) is type(want)


@pytest.mark.parametrize("kind, value", [
    (int, 2.7), (int, 3.0), (int, True), (int, "3"), (int, None), (float, True), (float, "0.01"),
    (float, None), ([float], "abc"), ([float], [1, "x"]), ([float], [True]), (str, 5),
    (dict, [1]),
])
def test_a_value_of_another_kind_is_rejected_naming_the_key(kind, value):
    with pytest.raises(ConfigError, match="'a.b'"):
        _as(kind, value, "a.b")


def test_a_key_left_out_takes_its_default_or_is_required():
    assert _read({}, "a", "b", int, 7) == 7
    assert _read({}, "a", "b", int, None) is None
    with pytest.raises(ConfigError, match="missing required key 'a.b'"):
        _read({}, "a", "b", int)


def test_readme_example_configs_resolve_without_reading_a_file(tmp_path, monkeypatch):
    # the docs teach only configs the schema takes, and resolving names files, never opens them
    readme = (ROOT / "README.md").read_text()
    configs = dict(re.findall(r"cat > (\S+) <<'JSON'\n(.*?)\nJSON", readme, re.S))
    assert sorted(configs) == ["sim.json", "train.json"]

    def no_file(*args, **kwargs):
        raise AssertionError("resolve opened a file")
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(builtins, "open", no_file)
    sim, train = (json.loads(configs[name]) for name in ("sim.json", "train.json"))
    assert resolve(sim).simulator.n == 2000
    assert resolve(train).model.embedding_dim == 8
    assert resolve(dict(train, model="run/model.json")).model == "run/model.json"


def test_an_empty_split_is_no_split():
    # `train` trains on every row unless the config sets a split value
    assert resolve({"split": {}}).split is None
    assert resolve({"split": {"seed": 1}}).split == Split(train_fraction=0.7, seed=1)
