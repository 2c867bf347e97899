import json
import re

import numpy as np
import pytest

from dagformer import rng
from dagformer.data import (
    Column, DEMAND_HELDOUT_DRAWS, DEMAND_MOMENTS, DEMAND_PRICE_GRID, DEMAND_REPLICATES,
    DEMAND_SAMPLE_SIZES, LALONDE_CPS_CONTROLS, LALONDE_PSID_CONTROLS,
    LALONDE_TREATED, LALONDE_TRUE_ATE, LinearEffect, LinearScm, TabularDataset, bootstrap,
    csv_text, demand_mc_moments, demand_psi, demand_true_curve, demand_true_potential_outcome,
    heldout_w_draws, lalonde_schema, linear_scm_dag, load_csv,
    simulate_demand, simulate_linear_scm, write_csv,
)
from dagformer.errors import ContractError, DataError
from dagformer.graph import backdoor_dag, demand_dag


def test_column_binary_validation():
    with pytest.raises(DataError, match="row 1"):
        Column("t", "binary", np.array([0.0, 2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_column_rejects_non_finite_values(bad):
    for kind in ("continuous", "binary"):
        with pytest.raises(DataError, match=r"column x: non-finite value .* at row 2"):
            Column("x", kind, np.array([0.0, 1.0, bad]))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_csv_rejects_non_finite_cells(tmp_path, cell):
    schema = {"columns": [{"name": "x", "kind": "continuous", "node": "X"}]}
    p = tmp_path / "nonfinite.csv"
    p.write_text(f"x\n1.5\n{cell}\n")
    with pytest.raises(DataError, match=f"row 3, column x: non-finite value {cell}"):
        load_csv(str(p), schema)


def test_dataset_basic_contracts():
    cols = [Column("x", "continuous", np.array([1.0, 2.0])),
            Column("t", "binary", np.array([0.0, 1.0]))]
    ds = TabularDataset(cols, {"x": "X", "t": "A"})
    assert ds.n == 2
    assert np.array_equal(ds.matrix(["A", "X"]), [[0.0, 1.0], [1.0, 2.0]])
    with pytest.raises(DataError):
        TabularDataset(cols, {"nope": "X"})
    with pytest.raises(DataError):
        TabularDataset([Column("x", "continuous", np.array([1.0])),
                        Column("y", "continuous", np.array([1.0, 2.0]))], {})


def test_csv_roundtrip(tmp_path):
    ds = simulate_linear_scm(20, LinearScm(), seed=8)
    csv_path = tmp_path / "toy.csv"
    write_csv(ds, str(csv_path))
    schema = json.loads(json.dumps(ds.schema()))
    again = load_csv(str(csv_path), schema)
    assert again.n == 20
    for col in ds.columns:
        assert np.array_equal(col.values, again.column(col.name).values)


def test_csv_three_row_toy(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("age,treat,y\n31,1,2.5\n44,0,1.0\n28,1,3.5\n")
    schema = {"columns": [{"name": "age", "kind": "continuous", "node": "age"},
                          {"name": "treat", "kind": "binary", "node": "A"},
                          {"name": "y", "kind": "continuous", "node": "Y"}]}
    ds = load_csv(str(p), schema)
    assert ds.n == 3
    assert np.array_equal(ds.node_column("A").values, [1.0, 0.0, 1.0])


def test_csv_blank_line_between_data_rows_is_skipped(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,treat\n1.5,1\n\n2.5,0\n")
    schema = {"columns": [{"name": "x", "kind": "continuous", "node": "X"},
                          {"name": "treat", "kind": "binary", "node": "A"}]}
    ds = load_csv(str(p), schema)
    assert ds.n == 2
    assert np.array_equal(ds.node_column("X").values, [1.5, 2.5])
    assert np.array_equal(ds.node_column("A").values, [1.0, 0.0])


def test_csv_errors_name_rows(tmp_path):
    schema = {"columns": [{"name": "t", "kind": "binary", "node": "A"}]}
    p = tmp_path / "bad.csv"
    p.write_text("t\n0\n2\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(str(p), schema)
    p.write_text("t\n0\nxyz\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(str(p), schema)
    p.write_text("wrong\n0\n")
    with pytest.raises(DataError, match="missing columns"):
        load_csv(str(p), schema)
    # the first of the two loaded; a column that the schema leaves out may repeat
    p.write_text("t,y,t,z,z\n0,2.5,1,0,0\n")
    twice = f"^{re.escape(str(p))}: the header names column 't' twice"
    with pytest.raises(DataError, match=twice):
        load_csv(str(p), schema)
    p.write_text("t,y,z,z\n0,2.5,1,1\n")
    assert load_csv(str(p), schema).column("t").values.tolist() == [0.0]
    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(str(p), schema)
    p.write_text("t\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(str(p), schema)


def test_lalonde_schema_shape():
    schema = lalonde_schema()
    names = [c["name"] for c in schema["columns"]]
    assert names == ["age", "education", "race", "married", "earnings_1974",
                     "earnings_1975", "treatment", "earnings_1978"]
    # every node of the back-door graph over the six covariates is bound, in graph order
    assert [c["node"] for c in schema["columns"]] == backdoor_dag(names[:6]).names

    assert LALONDE_TRUE_ATE == 1794.34
    assert (LALONDE_CPS_CONTROLS, LALONDE_PSID_CONTROLS, LALONDE_TREATED) == (15992, 2490, 185)


def test_bootstrap_deterministic_and_resamples():
    ds = simulate_linear_scm(5, LinearScm(), seed=2)
    b1 = bootstrap(ds, seed=9)
    b2 = bootstrap(ds, seed=9)
    for c1, c2 in zip(b1.columns, b2.columns):
        assert np.array_equal(c1.values, c2.values)
    assert b1.n == 5


def test_bootstrap_single_row():
    cols = [Column("x", "continuous", np.array([3.0]))]
    ds = TabularDataset(cols, {})
    out = bootstrap(ds, seed=1)
    assert np.array_equal(out.column("x").values, [3.0])


def test_bootstrap_row_frequencies():
    ds = simulate_linear_scm(5, LinearScm(), seed=2)
    marker = ds.column("Y").values
    counts = np.zeros(5)
    reps = 10_000
    for seed in range(reps):
        resampled = bootstrap(ds, seed=seed).column("Y").values
        for i in range(5):
            counts[i] += np.count_nonzero(resampled == marker[i])
    freqs = counts / (5 * reps)
    assert np.max(np.abs(freqs - 0.2)) < 0.02


def test_split_is_deterministic_partition():
    ds = simulate_linear_scm(100, LinearScm(), seed=3)
    tr1, va1 = ds.split(0.7, seed=5)
    tr2, va2 = ds.split(0.7, seed=5)
    assert tr1.n == 70 and va1.n == 30
    assert np.array_equal(tr1.column("Y").values, tr2.column("Y").values)
    merged = np.sort(np.concatenate([tr1.column("Y").values, va1.column("Y").values]))
    assert np.array_equal(merged, np.sort(ds.column("Y").values))


def test_linear_scm_null_effect():
    ds = simulate_linear_scm(100, LinearScm(treatment_effect=0.0), seed=1)
    assert ds.true_ate == 0.0
    assert np.all(ds.true_cate == 0.0)


def test_linear_scm_randomized_difference_in_means():
    # self-consistency: a randomized variant recovers true_ate within 3 SE
    scm = LinearScm(propensity_weights=(0.0,), treatment_effect=2.0)
    for seed in range(5):
        ds = simulate_linear_scm(5000, scm, seed=11 + seed)
        a = ds.node_column("A").values
        y = ds.node_column("Y").values
        dim = y[a == 1].mean() - y[a == 0].mean()
        se = np.sqrt(y[a == 1].var(ddof=1) / (a == 1).sum()
                     + y[a == 0].var(ddof=1) / (a == 0).sum())
        assert abs(dim - ds.true_ate) < 3 * se


def test_linear_scm_heterogeneous_effect():
    scm = LinearScm(treatment_effect=lambda row: row[0])
    ds = simulate_linear_scm(5000, scm, seed=12)
    assert abs(ds.true_cate.mean()) < 0.05
    assert abs(ds.true_ate - ds.true_cate.mean()) < 1e-12


def test_linear_scm_rejects_nonfinite():
    with pytest.raises(ContractError):
        LinearScm(propensity_weights=(np.inf,))
    # a heterogeneous effect's coefficients too, before any row is drawn
    for base, slope in ((np.inf, 1.0), (0.0, np.nan)):
        with pytest.raises(ContractError, match="linear effect coefficients must be finite"):
            LinearScm(treatment_effect=LinearEffect(base, slope))


def test_linear_scm_draw_whose_outcome_overflows_is_a_data_error():
    # the CLI's simulator section turns this into a ConfigError naming its keys
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DataError, match="column Y: non-finite value"):
        simulate_linear_scm(200, LinearScm(noise_sd=1e308), seed=0)


def test_linear_scm_dag_matches_columns():
    ds = simulate_linear_scm(10, LinearScm(x_dim=2, propensity_weights=(0.5, 0.1),
                                           outcome_weights=(1.0, -1.0)), seed=1)
    dag = linear_scm_dag(2)
    ds.validate_against(dag)


def test_demand_sample_determinism_and_shape():
    s1 = simulate_demand(200, seed=4)
    s2 = simulate_demand(200, seed=4)
    for field in ("u", "z", "w", "a", "y"):
        assert np.array_equal(getattr(s1, field), getattr(s2, field))
    assert not np.array_equal(s1.z, simulate_demand(200, seed=5).z)


def test_demand_dataset_excludes_confounder():
    ds = simulate_demand(50, seed=1).to_dataset()
    assert [c.name for c in ds.columns] == ["Z", "W", "A", "Y"]
    ds.validate_against(demand_dag())


def test_demand_edges_have_marginal_association():
    s = simulate_demand(50_000, seed=6)
    psi = demand_psi(s.u)
    pairs = [(s.u, s.z), (s.u, s.w), (s.u, s.a), (s.u, s.y), (s.z, s.a), (s.w, s.y), (s.a, s.y)]
    for parent, child in pairs:
        corr = np.corrcoef(parent, child)[0, 1]
        assert abs(corr) > 0.01, f"parent-child correlation too weak: {corr}"
    assert abs(np.corrcoef(psi, s.w)[0, 1]) > 0.5


def test_demand_protocol_constants():
    assert len(DEMAND_PRICE_GRID) == 10
    assert DEMAND_PRICE_GRID[0] == 10.0 and DEMAND_PRICE_GRID[-1] == 30.0
    assert DEMAND_HELDOUT_DRAWS == 1000
    assert DEMAND_SAMPLE_SIZES == (1000, 5000, 10000, 50000)
    assert DEMAND_REPLICATES == 20


def test_demand_true_outcome_linear_in_price():
    mean_psi, mean_w = DEMAND_MOMENTS
    assert abs((mean_w - 45.0) - 7.0 * mean_psi) < 1e-12
    e10 = demand_true_potential_outcome(10.0)
    e20 = demand_true_potential_outcome(20.0)
    e30 = demand_true_potential_outcome(30.0)
    slope1 = (e20 - e10) / 10.0
    slope2 = (e30 - e20) / 10.0
    assert abs(slope1 - slope2) < 1e-12
    assert abs(slope1 - (mean_psi - 2.0)) < 1e-12


def test_demand_mc_convergence():
    small = demand_mc_moments(draws=1_000_000, seed=77)[0]
    large = demand_mc_moments(draws=10_000_000, seed=78)[0]
    # psi has bounded variance on [0,10]; combined SE is ~1e-3 here
    var = demand_psi(rng.stream(1, "v").uniform(0, 10, 100_000)).var()
    se = np.sqrt(var / 1e6 + var / 1e7)
    assert abs(small - large) < 3 * se


@pytest.mark.parametrize("draws", [0, -5])
def test_demand_mc_moments_rejects_draws_below_one(draws):
    with pytest.raises(ContractError, match="need n >= 1"):
        demand_mc_moments(draws=draws, seed=3)


def test_demand_moments_are_the_monte_carlo_at_its_default_draws():
    # the truth's pinned floats; after a DEMAND_SCM_VERSION bump, paste the
    # literals this message prints into `data.DEMAND_MOMENTS`
    fresh = demand_mc_moments()
    assert fresh == DEMAND_MOMENTS, (
        "demand_mc_moments(2_000_000, 202406) gives DEMAND_MOMENTS = "
        f"(float.fromhex({fresh[0].hex()!r}), float.fromhex({fresh[1].hex()!r}))")


@pytest.mark.parametrize("m", [0, -1])
def test_heldout_w_draws_rejects_counts_below_one(m):
    with pytest.raises(ContractError, match="need n >= 1"):
        heldout_w_draws(m, seed=3)


def test_demand_true_curve_is_finite_ten_points():
    curve = demand_true_curve()
    assert curve.shape == (10,)
    assert np.all(np.isfinite(curve))


def test_heldout_w_draws_match_marginal():
    draws = heldout_w_draws(100_000, seed=3)
    s = simulate_demand(100_000, seed=9)
    assert abs(draws.mean() - s.w.mean()) < 0.1
    assert abs(draws.std() - s.w.std()) < 0.1


def test_csv_text_cell_rule():
    rows = [[None, True, False, 0.1, np.float64(1e-17), 3, "abc"], [1.0, None, None, 2, 0, 0, ""]]
    assert csv_text(["a", "b", "c", "d", "e", "f", "g"], rows) == (
        "a,b,c,d,e,f,g\n,1,0,0.1,1e-17,3,abc\n1.0,,,2,0,0,\n")
