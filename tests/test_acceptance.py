"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module takes roughly 10-15 minutes on two cores.
"""

import concurrent.futures
import json
import time

import numpy as np

from dagformer import rng, tensor as T
from dagformer.cli import main as cli_main
from dagformer.data import (
    DEMAND_PRICE_GRID, LinearScm, bootstrap, demand_true_curve, heldout_w_draws,
    linear_scm_dag, simulate_demand, simulate_linear_scm,
)
from dagformer.estimators import (
    TableNuisance, aipw_from_nuisances, estimate_aipw, estimate_gformula,
    estimate_iptw, estimate_proximal,
)
from dagformer.graph import CausalDag, backdoor_dag, demand_dag
from dagformer.model import DagTransformer, ModelConfig, train_model
from dagformer.objectives import (
    GFormula, Nmmr, loss_aipw_joint, loss_gformula, loss_iptw, loss_nmmr,
    median_heuristic_bandwidth, rbf_kernel_matrix,
)
from dagformer.optim import AdamState
from dagformer.methods import resolve
from dagformer.selection import c_mse, candidates, grid_search, nrmse

TRIANGLE_DAG = CausalDag([("X", "confounder"), ("A", "treatment"), ("Y", "outcome")],
                    [("X", "A"), ("X", "Y"), ("A", "Y")])
TRIANGLE_KINDS = {"X": "continuous", "A": "binary", "Y": "continuous"}
SCM_DAG = linear_scm_dag(1)
SCM_KINDS = {"X1": "continuous", "A": "binary", "Y": "continuous"}
DEMAND_KINDS = {n: "continuous" for n in ("Z", "W", "A", "Y")}


def check(criterion: int, ok: bool, detail: str):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_mask_correctness():
    start = time.monotonic()
    batch = np.column_stack([
        rng.stream(0, "c1").standard_normal(4),
        (rng.stream(0, "c1a").random(4) < 0.5).astype(float),
        rng.stream(0, "c1y").standard_normal(4),
    ])
    worst_row_sum = 0.0
    for draw in range(100):
        model = DagTransformer(
            ModelConfig(embedding_dim=8, num_heads=2, num_encoder_layers=2,
                        feedforward_dim=16, mlp_width=8, mlp_depth=1, alpha=0.3,
                        seed=draw),
            TRIANGLE_DAG, "aipw", TRIANGLE_KINDS)
        forbidden = model.mask == 1
        for layer_map in model.attention_maps(batch):
            assert np.all(layer_map[:, :, forbidden] == 0.0)
            worst_row_sum = max(worst_row_sum, np.max(np.abs(layer_map.sum(axis=-1) - 1.0)))
    elapsed = time.monotonic() - start
    check(1, worst_row_sum < 1e-12 and elapsed < 5.0,
          f"forbidden weights exactly 0 over 100 draws; max |row sum - 1| = "
          f"{worst_row_sum:.2e}; {elapsed:.1f}s")


def _finite_difference_max_err(build_loss, params, h=1e-5):
    """Max relative error between tape gradients and central differences;
    entries where both are within the 1e-6 absolute floor are exact enough
    and do not contribute."""
    loss = build_loss()
    from dagformer.optim import zero_grads
    zero_grads(params)
    T.backward(loss)
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.data.ravel()
        gflat = grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(build_loss().data)
            flat[i] = orig - h
            fm = float(build_loss().data)
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            scale = max(abs(gflat[i]), abs(fd))
            if abs(gflat[i] - fd) > 1e-6:
                worst = max(worst, abs(gflat[i] - fd) / scale)
            elif scale > 1e-4:
                worst = max(worst, abs(gflat[i] - fd) / scale)
    return worst


def test_criterion_02_gradient_fidelity():
    start = time.monotonic()
    g = rng.stream(7, "c2")
    results = {}

    def triangle_batch(n=8):
        return np.column_stack([g.standard_normal(n),
                                (g.random(n) < 0.5).astype(float),
                                g.standard_normal(n)])

    cfg = dict(embedding_dim=8, num_heads=2, num_encoder_layers=1, feedforward_dim=16,
               mlp_width=8, mlp_depth=1, dropout_rate=0.0, alpha=0.4, seed=5)

    # outcome MSE on the confounded triangle (D=3)
    model = DagTransformer(ModelConfig(**cfg), TRIANGLE_DAG, "gformula", TRIANGLE_KINDS)
    batch = triangle_batch()
    model.fit_standardizer(batch)
    y = model._standardize(batch)[:, 2]
    results["mse"] = _finite_difference_max_err(
        lambda: loss_gformula(model.forward(batch)["Y"], y), model.parameters())

    # treatment BCE, D=3 via two confounders
    dag2 = backdoor_dag(["X1", "X2"])
    kinds2 = {"X1": "continuous", "X2": "continuous", "A": "binary", "Y": "continuous"}
    model = DagTransformer(ModelConfig(**cfg), dag2, "ipw", kinds2)
    batch2 = np.column_stack([g.standard_normal(8), g.standard_normal(8),
                              (g.random(8) < 0.5).astype(float)])
    model.fit_standardizer(batch2)
    a = batch2[:, 2]
    results["bce"] = _finite_difference_max_err(
        lambda: loss_iptw(model.forward(batch2)["A"], a), model.parameters())

    # joint objective, both heads
    model = DagTransformer(ModelConfig(**cfg), TRIANGLE_DAG, "aipw", TRIANGLE_KINDS)
    batch = triangle_batch()
    model.fit_standardizer(batch)
    y = model._standardize(batch)[:, 2]
    a = batch[:, 1]

    def joint_loss():
        preds = model.forward(batch)
        return loss_aipw_joint(preds["Y"], y, preds["A"], a)

    results["joint"] = _finite_difference_max_err(joint_loss, model.parameters())

    # kernel moment-restriction variants on the demand graph (D=4), with penalty
    sample = simulate_demand(8, seed=3).to_dataset()
    dbatch = sample.matrix(["Z", "W", "A", "Y"])
    for variant in ("U", "V"):
        model = DagTransformer(ModelConfig(**cfg), demand_dag(), "proximal", DEMAND_KINDS)
        model.fit_standardizer(dbatch)
        std = model._standardize(dbatch)
        y = std[:, 3]
        kernel = rbf_kernel_matrix(std[:, [2, 0]],
                                   median_heuristic_bandwidth(std[:, [2, 0]]))
        params = model.parameters()
        results[f"nmmr-{variant}"] = _finite_difference_max_err(
            lambda: loss_nmmr(y, model.forward(dbatch)["Y"], kernel, variant, 1e-3, params),
            params)

    elapsed = time.monotonic() - start
    worst = max(results.values())
    check(2, worst < 1e-4 and elapsed < 60.0,
          f"max relative gradient error per objective "
          f"{ {k: f'{v:.2e}' for k, v in results.items()} }; {elapsed:.1f}s")


def test_two_layer_gradient_fidelity():
    # criterion 2's models have one layer; here a full layer feeds the last
    # one, which computes only the head rows past its attention
    g = rng.stream(8, "two-layer")
    model = DagTransformer(ModelConfig(embedding_dim=8, num_heads=2, num_encoder_layers=2,
                                       feedforward_dim=16, mlp_width=8, mlp_depth=1,
                                       alpha=0.4, seed=6),
                           TRIANGLE_DAG, "aipw", TRIANGLE_KINDS)
    for p in model.parameters():  # no zero bias or unit gain
        p.data = p.data + g.standard_normal(p.data.shape) * 0.1
    batch = np.column_stack([g.standard_normal(8), (g.random(8) < 0.5).astype(float),
                             g.standard_normal(8)])
    model.fit_standardizer(batch)
    y, a = model._standardize(batch)[:, 2], batch[:, 1]

    def joint_loss():
        preds = model.forward(batch)
        return loss_aipw_joint(preds["Y"], y, preds["A"], a)

    worst = _finite_difference_max_err(joint_loss, model.parameters())
    assert worst < 1e-4, f"max relative gradient error {worst:.2e}"


def test_criterion_03_nmmr_loss_oracles():
    g = rng.stream(12, "c3")
    worst_value = 0.0
    worst_identity = 0.0
    for _ in range(50):
        n = int(g.integers(2, 51))
        y = g.standard_normal(n)
        h = g.standard_normal(n)
        k = rbf_kernel_matrix(g.standard_normal((n, 3)), 1.2)
        r = y - h
        sums = {"U": 0.0, "V": 0.0}
        for i in range(n):
            for j in range(n):
                if i != j:
                    sums["U"] += r[i] * r[j] * k[i, j]
                sums["V"] += r[i] * r[j] * k[i, j]
        u_direct = sums["U"] / (n * (n - 1))
        v_direct = sums["V"] / (n * n)
        u = float(loss_nmmr(y, h, k, "U", 0.0).data)
        v = float(loss_nmmr(y, h, k, "V", 0.0).data)
        worst_value = max(worst_value, abs(u - u_direct), abs(v - v_direct))
        diag = float((r * r * np.diag(k)).sum())
        worst_identity = max(worst_identity, abs(n * n * v - n * (n - 1) * u - diag))
    check(3, worst_value < 1e-10 and worst_identity < 1e-10,
          f"double-sum deviation {worst_value:.2e}; U/V diagonal identity "
          f"deviation {worst_identity:.2e} over 50 instances")


def test_criterion_04_estimator_oracles():
    g = rng.stream(13, "c4")
    worst = 0.0
    for _ in range(100):
        n = int(g.integers(1, 11))
        x = g.standard_normal(n)
        a = (g.random(n) < 0.5).astype(float)
        mu1 = g.standard_normal(n)
        mu0 = g.standard_normal(n)
        pi = g.uniform(0.05, 0.95, n)
        y = g.standard_normal(n)
        from dagformer.data import Column, TabularDataset
        ds = TabularDataset([Column("X1", "continuous", x), Column("A", "binary", a),
                             Column("Y", "continuous", y)],
                            {"X1": "X1", "A": "A", "Y": "Y"})
        nuisance = TableNuisance("A", SCM_DAG, mu1=mu1, mu0=mu0, pi=pi)
        gf = estimate_gformula(nuisance, ds).ate
        worst = max(worst, abs(gf - np.mean(mu1 - mu0)))
        ipw = estimate_iptw(nuisance, ds).ate
        worst = max(worst, abs(ipw - np.mean(a * y / pi - (1 - a) * y / (1 - pi))))
        ai = estimate_aipw(nuisance, nuisance, ds).ate
        direct = np.mean((mu1 + a * (y - mu1) / pi) - (mu0 + (1 - a) * (y - mu0) / (1 - pi)))
        worst = max(worst, abs(ai - direct))
    check(4, worst < 1e-12,
          f"gformula/iptw/aipw vs direct plug-in formulas: max deviation {worst:.2e} "
          f"over 100 micro-datasets")


def test_criterion_05_double_robustness():
    start = time.monotonic()
    confounded = LinearScm(propensity_weights=(0.5,), treatment_effect=2.0)
    randomized = LinearScm(propensity_weights=(0.0,), treatment_effect=2.0)
    ates_pi, ates_mu = [], []
    for seed in range(10):
        ds = simulate_linear_scm(5000, confounded, seed=seed)
        x = ds.column("X1").values
        a = ds.column("A").values
        y = ds.column("Y").values
        true_pi = 1.0 / (1.0 + np.exp(-0.5 * x))
        ates_pi.append(aipw_from_nuisances(a, y, np.zeros(5000), np.zeros(5000), true_pi).ate)

        ds = simulate_linear_scm(5000, randomized, seed=100 + seed)
        x = ds.column("X1").values
        a = ds.column("A").values
        y = ds.column("Y").values
        mu1 = randomized.mu(1.0, x[:, None])
        mu0 = randomized.mu(0.0, x[:, None])
        ates_mu.append(aipw_from_nuisances(a, y, mu1, mu0, np.full(5000, 0.5)).ate)
    err_pi = abs(np.mean(ates_pi) - 2.0)
    err_mu = abs(np.mean(ates_mu) - 2.0)
    elapsed = time.monotonic() - start
    check(5, err_pi < 0.05 and err_mu < 0.05 and elapsed < 120.0,
          f"true-propensity/zero-outcome error {err_pi:.4f}; true-outcome/constant-"
          f"propensity error {err_mu:.4f} (10 seeds, n=5000); {elapsed:.1f}s")


def _gformula_ate(seed):
    ds = simulate_linear_scm(5000, LinearScm(treatment_effect=2.0), seed=seed)
    cfg = ModelConfig(embedding_dim=8, num_heads=2, num_encoder_layers=1,
                      feedforward_dim=16, mlp_width=16, mlp_depth=2,
                      dropout_rate=0.0, alpha=0.1, seed=seed)
    model = DagTransformer(cfg, SCM_DAG, "gformula", SCM_KINDS)
    train_model(model, ds, GFormula(), AdamState(learning_rate=3e-3),
                epochs=200, batch_size=256, seed=seed)
    return estimate_gformula(model, ds).ate


def test_criterion_06_end_to_end_ate():
    start = time.monotonic()
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        errors = [abs(ate - 2.0) for ate in pool.map(_gformula_ate, range(10))]
    hits = sum(e <= 0.15 for e in errors)
    elapsed = time.monotonic() - start
    check(6, hits >= 8 and elapsed < 600.0,
          f"G-formula ATE within 2 +/- 0.15 on {hits}/10 seeds "
          f"(errors {[f'{e:.3f}' for e in errors]}); {elapsed:.0f}s")


def test_criterion_07_leakage_invariants():
    g = rng.stream(19, "c7")
    batch = np.column_stack([g.standard_normal(16), (g.random(16) < 0.5).astype(float),
                             g.standard_normal(16)])
    model = DagTransformer(ModelConfig(embedding_dim=8, num_heads=2,
                                       num_encoder_layers=2, feedforward_dim=16,
                                       mlp_width=8, mlp_depth=1, alpha=0.4, seed=1),
                           TRIANGLE_DAG, "aipw", TRIANGLE_KINDS)
    base = model.predict(batch)
    shifted = batch.copy()
    shifted[:, 2] += 41.0
    moved = model.predict(shifted)
    dy = np.max(np.abs(base["Y"] - moved["Y"]))
    da = np.max(np.abs(base["A"] - moved["A"]))

    # non-ancestor invariance: M is a child of A, never an ancestor of Y
    dag = CausalDag([("X", "confounder"), ("A", "treatment"), ("Y", "outcome"),
                     ("M", "confounder")],
                    [("X", "A"), ("X", "Y"), ("A", "Y"), ("A", "M")])
    kinds = dict(TRIANGLE_KINDS, M="continuous")
    model2 = DagTransformer(ModelConfig(embedding_dim=8, num_heads=2,
                                        num_encoder_layers=2, feedforward_dim=16,
                                        mlp_width=8, mlp_depth=1, alpha=0.4, seed=2),
                            dag, "gformula", kinds)
    batch2 = np.column_stack([batch, g.standard_normal(16)])
    base2 = model2.predict(batch2)["Y"]
    shifted2 = batch2.copy()
    shifted2[:, 3] -= 17.0
    dm = np.max(np.abs(base2 - model2.predict(shifted2)["Y"]))
    check(7, dy == 0.0 and da == 0.0 and dm < 1e-12,
          f"outcome-column perturbation moved Y-hat by {dy} and A-hat by {da}; "
          f"non-ancestor perturbation moved Y-hat by {dm}")


def test_criterion_08_reproducibility(tmp_path):
    config = {"experiment": "ate", "method": "gformula",
              "data": {"simulator": {"name": "linear-scm", "n": 240,
                                     "treatment_effect": 2.0}, "seed": 5},
              "model": {"embedding_dim": 8, "num_heads": 2, "num_encoder_layers": 1,
                        "feedforward_dim": 16, "mlp_width": 8, "mlp_depth": 1,
                        "alpha": 0.1, "seed": 3},
              "epochs": 6, "batch_size": 32, "replicates": 3, "seed": 9,
              "plugin": {"n_trees": 15}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["evaluate", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out)
    identical = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                    for f in ("evaluate.json", "replicates.csv"))

    ds = simulate_linear_scm(50, LinearScm(), seed=2)
    b1 = bootstrap(ds, seed=31)
    b2 = bootstrap(ds, seed=31)
    stable = all(np.array_equal(c1.values, c2.values)
                 for c1, c2 in zip(b1.columns, b2.columns))
    check(8, identical and stable,
          f"evaluate reports byte-identical: {identical}; bootstrap bit-stable: {stable}")


def _demand_replicate(job):
    variant, seed = job
    ds = simulate_demand(1000, seed=seed).to_dataset()
    cfg = ModelConfig(embedding_dim=40, num_heads=1, num_encoder_layers=1,
                      feedforward_dim=40, mlp_width=48, mlp_depth=2,
                      dropout_rate=0.0, alpha=0.01, seed=seed)
    model = DagTransformer(cfg, demand_dag(), "proximal", DEMAND_KINDS)
    train_model(model, ds, Nmmr(variant=variant, lam=3e-6),
                AdamState(learning_rate=1e-3), epochs=1000, batch_size=64, seed=seed)
    report = estimate_proximal(model, {"W": heldout_w_draws(1000, seed=seed)},
                               list(DEMAND_PRICE_GRID))
    curve = np.asarray([report.potential_outcomes[a] for a in DEMAND_PRICE_GRID])
    naive = np.full(10, ds.node_column("Y").values.mean())
    true_curve = demand_true_curve()
    return variant, c_mse(curve, true_curve), c_mse(naive, true_curve)


def test_criterion_09_demand_desk_scale():
    start = time.monotonic()
    jobs = [(variant, seed) for variant in ("U", "V") for seed in (0, 1, 2)]
    with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_demand_replicate, jobs))
    u_scores = [s for v, s, _ in results if v == "U"]
    v_scores = [s for v, s, _ in results if v == "V"]
    naive_scores = [nv for v, _, nv in results if v == "U"]
    u_median = float(np.median(u_scores))
    v_median = float(np.median(v_scores))
    naive_median = float(np.median(naive_scores))
    elapsed = time.monotonic() - start
    soft_target = 3 * 10.69
    check(9, u_median < naive_median and u_median < v_median
          and u_median <= soft_target and elapsed < 1800.0,
          f"median c-MSE U={u_median:.2f} < V={v_median:.2f} and < naive="
          f"{naive_median:.0f}; soft target {soft_target:.1f}; "
          f"U scores {[f'{s:.2f}' for s in u_scores]}; {elapsed:.0f}s")


def test_criterion_10_metric_identities():
    hand = abs(nrmse(np.array([0.0, 2.0]), np.array([1.0, 1.0])) - 1.0)
    g = rng.stream(23, "c10")
    tau_hat = g.standard_normal(64)
    tau_tilde = g.standard_normal(64)
    base = nrmse(tau_hat, tau_tilde)
    scale_dev = max(abs(nrmse(c * tau_hat, c * tau_tilde) - base)
                    for c in (10.0, -3.0, 0.125))
    curve = g.standard_normal(10)
    offset_exact = c_mse(curve + 2.5, curve) == 2.5 ** 2
    check(10, hand < 1e-12 and scale_dev < 1e-12 and offset_exact,
          f"nrmse hand example deviation {hand:.2e}; scale-invariance deviation "
          f"{scale_dev:.2e}; c-mse constant offset exact: {offset_exact}")


def test_criterion_11_selection_sanity():
    start = time.monotonic()
    grid = {"epochs": [15], "batch_size": [32], "optimizer.learning_rate": [3e-3, 10.0],
            "optimizer.l2_penalty": [0.0], "model.mlp_width": [8], "model.mlp_depth": [1],
            "model.num_encoder_layers": [1], "model.dropout_rate": [0.0],
            "model.embedding_dim": [8], "model.feedforward_dim": [16], "model.num_heads": [2],
            "model.alpha": [0.1]}
    wins = 0
    for seed in range(10):
        ds = simulate_linear_scm(400, LinearScm(), seed=200 + seed)
        train, validation = ds.split(0.7, seed=seed)
        config = {"method": "gformula", "seed": seed, "plugin": {"n_trees": 25}}
        rows, _ = grid_search(resolve(config), candidates(config, grid), train, validation,
                              SCM_DAG)
        wins += rows[0]["config"]["optimizer.learning_rate"] == 3e-3
    elapsed = time.monotonic() - start
    check(11, wins == 10, f"sane configuration ranked first on {wins}/10 seeds; {elapsed:.0f}s")
