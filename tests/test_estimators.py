import json

import numpy as np
import pytest

from dagformer import rng
from dagformer.data import LinearScm, linear_scm_dag, simulate_linear_scm
from dagformer.errors import ConfigError, ContractError, DataError
from dagformer.estimators import (
    TableNuisance, aipw_from_nuisances, cate_by_group,
    estimate_aipw, estimate_gformula, estimate_iptw, estimate_proximal,
    gformula_from_mu, iptw_from_pi,
)
from dagformer.graph import NodeRole, demand_dag
from dagformer.model import DagTransformer, ModelConfig


def test_gformula_hand_table():
    report = gformula_from_mu(np.array([3.0, 5.0]), np.array([1.0, 2.0]))
    assert report.ate == 2.5
    assert np.array_equal(report.cate, [2.0, 3.0])
    assert report.potential_outcomes[1.0] == 4.0


def test_gformula_mean_cate_equals_ate():
    g = rng.stream(41, "gf")
    report = gformula_from_mu(g.standard_normal(200), g.standard_normal(200))
    assert abs(report.cate.mean() - report.ate) < 1e-10


def test_iptw_hand_example():
    report = iptw_from_pi(np.array([1.0, 0.0]), np.array([2.0, 1.0]), np.array([0.5, 0.5]))
    assert report.ate == 1.0


def test_iptw_clamp_and_diagnostics():
    report = iptw_from_pi(np.array([1.0, 0.0]), np.array([1.0, 1.0]), np.array([0.001, 0.5]))
    assert report.nuisances["pi"][0] == 0.01
    assert report.diagnostics["clamp_count"] == 1
    assert report.diagnostics["positivity_violations"] == 1
    assert report.diagnostics["propensity_min"] == 0.001


def test_iptw_constant_propensity_identity():
    g = rng.stream(42, "iptw")
    n = 500
    a = (g.random(n) < 0.4).astype(float)
    y = g.standard_normal(n)
    p = 0.4
    report = iptw_from_pi(a, y, np.full(n, p))
    direct = (a * y).mean() / p - ((1 - a) * y).mean() / (1 - p)
    assert abs(report.ate - direct) < 1e-12


def test_iptw_rejects_nonbinary_treatment():
    with pytest.raises(DataError):
        iptw_from_pi(np.array([0.5]), np.array([1.0]), np.array([0.5]))


def test_aipw_hand_example_single_unit():
    report = aipw_from_nuisances(np.array([1.0]), np.array([2.0]), np.array([1.0]),
                                 np.array([0.0]), np.array([0.5]))
    assert report.ate == 3.0


def test_aipw_zero_residuals_reduces_to_gformula():
    g = rng.stream(43, "aipw")
    n = 50
    x = g.standard_normal(n)
    a = (g.random(n) < 0.5).astype(float)
    mu1 = 2.0 + x
    mu0 = x
    y = np.where(a == 1.0, mu1, mu0)
    aipw = aipw_from_nuisances(a, y, mu1, mu0, g.uniform(0.2, 0.8, n))
    gf = gformula_from_mu(mu1, mu0)
    assert np.max(np.abs(aipw.cate - gf.cate)) < 1e-12
    assert abs(aipw.ate - gf.ate) < 1e-12


def test_aipw_matches_one_line_oracle_on_micro_datasets():
    g = rng.stream(44, "micro")
    for _ in range(100):
        n = int(g.integers(1, 11))
        a = (g.random(n) < 0.5).astype(float)
        y = g.standard_normal(n)
        mu1 = g.standard_normal(n)
        mu0 = g.standard_normal(n)
        pi = g.uniform(0.05, 0.95, n)
        got = aipw_from_nuisances(a, y, mu1, mu0, pi).ate
        want = np.mean((mu1 + a * (y - mu1) / pi) - (mu0 + (1 - a) * (y - mu0) / (1 - pi)))
        assert abs(got - want) < 1e-12


def test_proximal_constant_bridge():
    nuisance = TableNuisance("A", None, h=lambda a, draws: np.full(4, 7.5))
    report = estimate_proximal(nuisance, {"W": np.zeros(4)}, [10.0, 20.0, 30.0])
    assert all(v == 7.5 for v in report.potential_outcomes.values())
    assert report.ate is None


def test_proximal_linear_bridge_hand_case():
    nuisance = TableNuisance("A", None, h=lambda a, draws: a + np.asarray(draws["W"]))
    report = estimate_proximal(nuisance, {"W": np.array([0.0, 2.0])}, [0.0, 1.0])
    assert report.potential_outcomes[0.0] == 1.0
    assert report.potential_outcomes[1.0] == 2.0
    assert report.ate == 1.0


def test_proximal_grid_size_and_errors():
    nuisance = TableNuisance("A", None, h=lambda a, draws: np.asarray(draws["W"]) * 0 + a)
    grid = np.linspace(10, 30, 10)
    report = estimate_proximal(nuisance, {"W": np.zeros(1000)}, grid)
    assert len(report.potential_outcomes) == 10
    assert report.diagnostics["heldout_draws"] == 1000
    with pytest.raises(ContractError):
        estimate_proximal(nuisance, {"W": np.zeros(10)}, [])
    with pytest.raises(ContractError):
        estimate_proximal(nuisance, {"W": np.array([])}, [1.0])


@pytest.mark.parametrize("grid, match", [
    ([1.0, 1.0, 0.0], "distinct"), ([np.nan, 1.0], "finite"), ([np.inf], "finite"),
    ([], "nonempty"),
])
def test_a_proximal_grid_is_checked_once_with_a_contract_error(grid, match):
    model = DagTransformer(ModelConfig(embedding_dim=8), demand_dag(), "proximal",
                           {n: "continuous" for n in "ZWAY"})
    calls = []
    nuisance = TableNuisance("A", None, h=lambda a, draws: calls.append(a) or np.zeros(3))
    for bridge in (model, nuisance):
        with pytest.raises(ContractError, match=match):
            estimate_proximal(bridge, {"W": np.array([1.0, 2.0, 3.0])}, grid)
    assert calls == []


def test_a_non_finite_held_out_draw_is_a_data_error():
    model = DagTransformer(ModelConfig(embedding_dim=8), demand_dag(), "proximal",
                           {n: "continuous" for n in "ZWAY"})
    with pytest.raises(DataError, match="'W'"):
        estimate_proximal(model, {"W": np.array([1.0, np.nan])}, [10.0, 20.0])


def test_lookup_tables_take_a_value_or_a_sequence_of_them():
    nuisance = TableNuisance("A", None, mu1=np.ones(3), mu0=np.zeros(3),
                             h=lambda a, draws: a + np.asarray(draws["W"]))
    assert nuisance.mu_hat(None, 1.0).shape == (3,)
    assert np.array_equal(nuisance.mu_hat(None, [1.0, 0.0]), [np.ones(3), np.zeros(3)])
    assert np.array_equal(nuisance.h_hat([2.0, 5.0], {"W": np.arange(2.0)}), [[2, 3], [5, 6]])
    with pytest.raises(ContractError, match="distinct"):
        nuisance.mu_hat(None, [1.0, 1.0])


def test_cate_by_group():
    report = gformula_from_mu(np.array([1.0, 1.0, 3.0, 3.0]), np.zeros(4))
    groups = np.array([0, 0, 1, 1])
    out = cate_by_group(report, groups)
    assert out == {0: 1.0, 1: 3.0}
    single = cate_by_group(report, np.zeros(4))
    assert single[0.0] == report.ate


def test_cate_by_group_requires_cate():
    report = iptw_from_pi(np.array([1.0, 0.0]), np.ones(2), np.full(2, 0.5))
    with pytest.raises(ContractError):
        cate_by_group(report, np.zeros(2))


def test_report_json_and_csv():
    report = gformula_from_mu(np.array([2.0]), np.array([1.0]))
    d = json.loads(json.dumps(report.to_dict()))
    assert d["method"] == "gformula" and d["ate"] == 1.0
    csv_text = report.cate_csv()
    assert csv_text.startswith("unit,cate\n0,1.0")


def test_model_wrappers_with_lookup_tables():
    ds = simulate_linear_scm(40, LinearScm(), seed=3)
    dag = linear_scm_dag(1)
    a = ds.node_column("A").values
    y = ds.node_column("Y").values
    g = rng.stream(45, "wrap")
    nuisance = TableNuisance("A", dag, mu1=y + 1.0, mu0=y - 1.0, pi=g.uniform(0.2, 0.8, 40))
    gf = estimate_gformula(nuisance, ds)
    assert abs(gf.ate - 2.0) < 1e-12
    ipw = estimate_iptw(nuisance, ds)
    want = np.mean(a * y / nuisance.pi - (1 - a) * y / (1 - nuisance.pi))
    assert abs(ipw.ate - want) < 1e-12
    ai = estimate_aipw(nuisance, nuisance, ds)
    assert ai.cate.shape == (40,)


def test_outcome_node_is_the_graphs_outcome():
    dag = linear_scm_dag(1)
    model = DagTransformer(ModelConfig(embedding_dim=8), dag, "ipw",
                           {"X1": "continuous", "A": "binary"})
    for nuisance in (model, TableNuisance("A", dag)):
        assert nuisance.outcome_node == dag.single_node(NodeRole.OUTCOME) == "Y"


def test_missing_head_is_config_error():
    ds = simulate_linear_scm(10, LinearScm(), seed=4)
    no_mu = TableNuisance("A", linear_scm_dag(1), pi=np.full(10, 0.5))
    with pytest.raises(ConfigError):
        estimate_gformula(no_mu, ds)
    no_pi = TableNuisance("A", linear_scm_dag(1), mu1=np.ones(10), mu0=np.zeros(10))
    with pytest.raises(ConfigError):
        estimate_iptw(no_pi, ds)


def test_double_robustness_true_pi_wrong_mu():
    # randomized assignment, true propensity known, outcome model useless
    scm = LinearScm(x_dim=1, propensity_weights=(0.0,), outcome_weights=(1.0,),
                    treatment_effect=2.0, noise_sd=1.0)
    errs = []
    for seed in range(5):
        ds = simulate_linear_scm(4000, scm, seed=seed)
        n = ds.n
        report = aipw_from_nuisances(
            ds.node_column("A").values, ds.node_column("Y").values,
            np.zeros(n), np.zeros(n), np.full(n, 0.5))
        errs.append(abs(report.ate - 2.0))
    assert np.median(errs) < 0.1


def test_iptw_randomized_null_converges_to_zero():
    scm = LinearScm(propensity_weights=(0.0,), outcome_weights=(1.0,),
                    treatment_effect=0.0, noise_sd=1.0)
    ds = simulate_linear_scm(20000, scm, seed=21)
    a = ds.node_column("A").values
    y = ds.node_column("Y").values
    report = iptw_from_pi(a, y, np.full(ds.n, 0.5))
    terms = a * y / 0.5 - (1 - a) * y / 0.5
    se = terms.std(ddof=1) / np.sqrt(ds.n)
    assert abs(report.ate) < 3 * se


def test_cate_by_group_heterogeneous_scm():
    scm = LinearScm(treatment_effect=lambda row: float(row[0] > 0.0))
    ds = simulate_linear_scm(5000, scm, seed=22)
    x = ds.column("X1").values
    mu1 = scm.mu(1.0, x[:, None])
    mu0 = scm.mu(0.0, x[:, None])
    report = gformula_from_mu(mu1, mu0)
    groups = (x > 0.0).astype(int)
    means = cate_by_group(report, groups)
    assert abs(means[0] - 0.0) < 0.1 and abs(means[1] - 1.0) < 0.1
