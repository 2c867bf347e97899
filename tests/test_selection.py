import os
import re

import numpy as np
import pytest

from dagformer import objectives, rng, selection
from dagformer.data import LinearScm, linear_scm_dag, simulate_demand, simulate_linear_scm
from dagformer.errors import (
    ConfigError, ContractError, DataError, DegenerateInputError, SelectionFailedError,
)
from dagformer.forest import ForestConfig, HonestForestRegressor
from dagformer.graph import demand_dag
from dagformer.methods import resolve
from dagformer.selection import (
    c_mse, candidates, config_hash, expand_grid, fit_plugin, grid_search, map_jobs, nrmse,
    nrmse_scalar_replicates, ranking_csv,
)


def test_nrmse_zero_when_equal():
    v = np.array([0.2, 1.4, -0.5])
    assert nrmse(v, v) == 0.0


def test_nrmse_hand_value():
    assert abs(nrmse(np.array([0.0, 2.0]), np.array([1.0, 1.0])) - 1.0) < 1e-12


def test_nrmse_scale_invariance():
    g = rng.stream(51, "scale")
    tau_hat = g.standard_normal(100)
    tau_tilde = g.standard_normal(100)
    base = nrmse(tau_hat, tau_tilde)
    for c in (3.0, -0.25, 1e6):
        scaled = nrmse(c * tau_hat, c * tau_tilde)
        assert abs(scaled - base) < 1e-12 * max(1.0, base)


def test_nrmse_degenerate_reference():
    with pytest.raises(DegenerateInputError):
        nrmse(np.ones(5), np.zeros(5))
    with pytest.raises(ContractError):
        nrmse(np.array([1.0]), np.array([2.0]))


def test_nrmse_scalar_replicates():
    reference = np.array([1.0, 2.0, 3.0])
    candidate = np.array([1.5, 2.0, 2.0])
    out = nrmse_scalar_replicates(reference, candidate, reference)
    sd = reference.std(ddof=1)
    assert np.allclose(out, np.abs(reference - candidate) / sd)
    with pytest.raises(DegenerateInputError):
        nrmse_scalar_replicates(np.ones(3), np.zeros(3), np.ones(3))


def test_cmse_identities():
    curve = np.linspace(0, 9, 10)
    assert c_mse(curve, curve) == 0.0
    delta = 2.5
    assert c_mse(curve + delta, curve) == delta ** 2
    with pytest.raises(ContractError):
        c_mse(np.zeros(10), np.zeros(9))


def test_cmse_matches_loop_oracle():
    g = rng.stream(52, "cmse")
    a, b = g.standard_normal(10), g.standard_normal(10)
    total = 0.0
    for x, y in zip(a, b):
        total += (x - y) ** 2
    assert abs(c_mse(a, b) - total / 10) < 1e-12


def _plugin_dataset(n, tau, seed):
    scm = LinearScm(x_dim=1, propensity_weights=(0.3,), outcome_weights=(1.0,),
                    treatment_effect=tau, noise_sd=1.0)
    return simulate_linear_scm(n, scm, seed)


def test_forest_constant_outcome_gives_zero_effect():
    ds = _plugin_dataset(300, 0.0, seed=1)
    y = ds.column("Y")
    y.values = np.full(ds.n, 4.2)
    plugin = fit_plugin(ds, linear_scm_dag(1), ForestConfig(n_trees=30))
    tau = plugin.cate(ds)
    assert np.max(np.abs(tau)) < 1e-12


def test_forest_recovers_constant_effect():
    ds = _plugin_dataset(4000, 2.0, seed=3)
    plugin = fit_plugin(ds, linear_scm_dag(1), ForestConfig(n_trees=100, seed=5))
    assert abs(plugin.cate(ds).mean() - 2.0) < 0.2


def test_forest_deterministic_per_seed():
    ds = _plugin_dataset(500, 1.0, seed=4)
    dag = linear_scm_dag(1)
    t1 = fit_plugin(ds, dag, ForestConfig(n_trees=20, seed=9)).cate(ds)
    t2 = fit_plugin(ds, dag, ForestConfig(n_trees=20, seed=9)).cate(ds)
    assert np.array_equal(t1, t2)


def test_forest_honesty_structural():
    g = rng.stream(53, "honest")
    x = g.standard_normal((400, 2))
    y = x[:, 0] * 2.0 + g.standard_normal(400)
    forest = HonestForestRegressor(ForestConfig(n_trees=10, seed=2)).fit(x, y)
    for tree in forest.trees:
        structure = set(tree.structure_rows.tolist())
        estimate = set(tree.estimate_rows.tolist())
        assert not structure & estimate
        for leaf in tree.leaves():
            leaf_rows = set(leaf.estimate_rows.tolist())
            assert not leaf_rows & structure
            if leaf_rows:
                assert abs(leaf.value - y[sorted(leaf_rows)].mean()) < 1e-12


def test_fit_plugin_insufficient_arm_rows():
    ds = _plugin_dataset(40, 1.0, seed=6)
    a = ds.column("A")
    a.values = np.zeros(40)
    a.values[0] = 1.0
    with pytest.raises(DataError, match="arm 1"):
        fit_plugin(ds, linear_scm_dag(1), ForestConfig(min_leaf=5))


def _grid(**overrides):
    base = {"epochs": [15], "batch_size": [32], "optimizer.learning_rate": [3e-3],
            "optimizer.l2_penalty": [0.0], "model.mlp_width": [8], "model.mlp_depth": [1],
            "model.num_encoder_layers": [1], "model.dropout_rate": [0.0],
            "model.embedding_dim": [8], "model.feedforward_dim": [16], "model.num_heads": [2],
            "model.alpha": [0.1]}
    base.update(overrides)
    return base


def _search(grid, train, validation, **config):
    """grid_search of `grid`'s candidates over the base run config `config`."""
    return grid_search(resolve(config), candidates(config, grid), train, validation,
                       linear_scm_dag(1))


@pytest.mark.parametrize("key, named", [
    ("seed", "'seed'"), ("split.seed", "'split.seed'"), ("plugin.n_trees", "'plugin.n_trees'"),
    ("data.simulator.n", "'data.simulator.n'"), ("model", "'model'"), ("model.", "'model.'"),
    ("encoder_layers", "it is now 'model.num_encoder_layers'"),
    ("dropout", "it is now 'model.dropout_rate'"),
    ("learning_rate", "it is now 'optimizer.learning_rate'"),
])
def test_expand_grid_takes_only_training_keys_and_names_an_old_one_by_its_new_key(key, named):
    with pytest.raises(ConfigError, match=re.escape(named)):
        expand_grid({key: [1]})


def test_expand_grid_takes_any_subset_of_keys_in_key_order():
    assert expand_grid({}) == [{}]
    points = expand_grid({"model.num_heads": [1, 2], "nmmr.lambda": [0.1, 0.2]})
    assert points == [{"model.num_heads": 1, "nmmr.lambda": 0.1},
                      {"model.num_heads": 1, "nmmr.lambda": 0.2},
                      {"model.num_heads": 2, "nmmr.lambda": 0.1},
                      {"model.num_heads": 2, "nmmr.lambda": 0.2}]
    with pytest.raises(ConfigError, match="'epochs' must be a nonempty list"):
        expand_grid({"epochs": []})


def test_a_candidate_is_the_base_config_with_its_point_written_in():
    config = {"method": "gformula", "model": {"num_heads": 2, "seed": 3}, "epochs": 6}
    (point, run), = candidates(config, {"model.embedding_dim": [16], "optimizer.beta1": [0.5]})
    assert point == {"model.embedding_dim": 16, "optimizer.beta1": 0.5}
    want = resolve({"method": "gformula", "epochs": 6, "optimizer": {"beta1": 0.5},
                    "model": {"num_heads": 2, "seed": 3, "embedding_dim": 16}})
    assert (run.model, run.optimizer.beta1, run.epochs) == (want.model, 0.5, 6)
    assert config == {"method": "gformula", "model": {"num_heads": 2, "seed": 3}, "epochs": 6}
    with pytest.raises(ConfigError, match="'model.embedding_dim'"):
        candidates(config, {"model.embedding_dim": ["abc"]})


def test_grid_search_singleton():
    ds = _plugin_dataset(400, 2.0, seed=7)
    train, validation = ds.split(0.7, seed=1)
    rows, best = _search(_grid(), train, validation, method="gformula", seed=3,
                         plugin={"n_trees": 30, "seed": 0})
    assert len(rows) == 1
    assert rows[0]["rank"] == 0 and not rows[0]["diverged"]
    assert np.isfinite(rows[0]["score"])
    assert best is not None


def test_grid_search_broken_lr_ranks_last():
    ds = _plugin_dataset(400, 2.0, seed=8)
    train, validation = ds.split(0.7, seed=2)
    rows, best = _search(_grid(**{"optimizer.learning_rate": [3e-3, 10.0]}), train, validation,
                         method="gformula", seed=4, plugin={"n_trees": 30, "seed": 0})
    assert rows[0]["config"]["optimizer.learning_rate"] == 3e-3
    assert rows[1]["config"]["optimizer.learning_rate"] == 10.0
    assert rows[1]["diverged"] or rows[1]["score"] > rows[0]["score"]


def test_grid_search_all_diverged_raises():
    ds = _plugin_dataset(200, 2.0, seed=9)
    train, validation = ds.split(0.7, seed=3)
    with pytest.raises(SelectionFailedError) as info:
        _search(_grid(**{"optimizer.learning_rate": [1e150]}), train, validation,
                method="gformula", seed=5, plugin={"n_trees": 10, "seed": 0})
    assert info.value.table is not None


def test_an_all_diverged_table_ranks_by_size_then_grid_order():
    # each candidate is built, and its size read, before it trains and diverges
    ds = _plugin_dataset(200, 2.0, seed=9)
    train, validation = ds.split(0.7, seed=3)
    grid = _grid(**{"optimizer.learning_rate": [1e150], "optimizer.l2_penalty": [0.0, 1e-3],
                    "model.mlp_width": [16, 8]})
    with pytest.raises(SelectionFailedError) as info:
        _search(grid, train, validation, method="gformula", seed=5,
                plugin={"n_trees": 10, "seed": 0})
    table = info.value.table
    assert all(e["diverged"] and type(e["param_count"]) is int for e in table)
    assert [e["rank"] for e in table] == [0, 1, 2, 3]
    # grid order: (l2 0, width 16), (l2 0, width 8), (l2 1e-3, width 16), (l2 1e-3, width 8)
    assert [e["grid_index"] for e in table] == [1, 3, 0, 2]
    counts = [e["param_count"] for e in table]
    assert counts[0] == counts[1] < counts[2] == counts[3]


def test_grid_search_ate_mode_uses_scalar_broadcast():
    ds = _plugin_dataset(300, 2.0, seed=10)
    train, validation = ds.split(0.7, seed=4)
    rows, _ = _search(_grid(epochs=[5]), train, validation, method="ipw", mode="ate", seed=6,
                      plugin={"n_trees": 20, "seed": 0})
    # the plug-in's per-unit effects are the reference: the broadcast ATE scores
    # sqrt(1 + (ATE gap / their sd)^2 * n/(n-1)), never a division by ~0
    assert 1.0 <= rows[0]["score"] <= 10.0


def test_ranking_csv_format():
    rows = [{"rank": 0, "config_hash": "abc", "score": 0.5, "train_loss": 0.1,
             "diverged": False, "param_count": 10, "grid_index": 0},
            {"rank": 1, "config_hash": "def", "score": None, "train_loss": None,
             "diverged": True, "param_count": 12, "grid_index": 1}]
    text = ranking_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "rank,config_hash,score,train_loss,diverged,param_count,grid_index"
    assert lines[1].startswith("0,abc,0.5")
    assert lines[2] == "1,def,,,1,12,1"


def test_config_hash_stable():
    point = {"alpha": 0.1, "epochs": 10}
    assert config_hash(point) == config_hash(dict(reversed(list(point.items()))))


def _proxy_search(grid, jobs):
    config = {"method": "proximal-u", "model": {"embedding_dim": 8, "num_heads": 1,
                                                "feedforward_dim": 8, "mlp_width": 8,
                                                "mlp_depth": 1, "alpha": 0.1},
              "epochs": 1, "batch_size": 32, "seed": 3}
    train, validation = simulate_demand(200, seed=3).to_dataset().split(0.7, seed=1)
    return grid_search(resolve(config), candidates(config, grid), train, validation,
                       demand_dag(), jobs=jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_proxy_tune_computes_the_heuristic_bandwidths_once_for_the_grid(tmp_path, monkeypatch,
                                                                          jobs):
    calls, heuristic = tmp_path / "calls", objectives.median_heuristic_bandwidth

    def counted(rows):  # a pool worker appends to the same file
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return heuristic(rows)
    monkeypatch.setattr(objectives, "median_heuristic_bandwidth", counted)
    grid = {"nmmr.lambda": [0.0, 1e-4], "optimizer.learning_rate": [1e-3, 3e-3]}
    rows, _ = _proxy_search(grid, jobs)
    # the training and the validation rows' bandwidths, here, before any candidate trains
    assert calls.read_text().split() == [str(os.getpid())] * 2
    # a point that sets its own bandwidth keeps it, and computes none
    _proxy_search({"nmmr.kernel_bandwidth": [0.5, 2.0]}, jobs)
    assert len(calls.read_text().split()) == 2
    # each of the four points computing its own two gives the same table
    monkeypatch.setattr(selection, "_heuristic_bandwidths", lambda *args: (None, None))
    alone, _ = _proxy_search(grid, 1)
    assert len(calls.read_text().split()) == 2 + 4 * 2
    assert rows == alone


def test_map_jobs_starts_at_most_one_worker_per_item(monkeypatch):
    # a stand-in pool that records its size and maps in this process: no process is started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)
    monkeypatch.setattr(selection.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert map_jobs(abs, [-1, -2, -3, -4], 64) == [1, 2, 3, 4]
    assert map_jobs(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert map_jobs(abs, [-5], 64) == [5]  # one item runs here, in no pool
    assert map_jobs(abs, [], 8) == []
    assert sizes == [4, 2]
