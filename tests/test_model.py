import contextlib
import hashlib
import json
import math
import pickle
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dagformer import rng, tensor
from dagformer.data import LinearScm, linear_scm_dag, simulate_linear_scm
from dagformer.errors import (
    ConfigError, ContractError, DataError, DegenerateInputError, ShapeError,
    TrainingDivergedError,
)
from dagformer.estimators import (
    aipw_from_nuisances, estimate_aipw, estimate_gformula, estimate_proximal, gformula_from_mu,
)
from dagformer.graph import CausalDag, NodeRole, demand_dag
from dagformer.methods import resolve
from dagformer.model import _PREDICT_ROWS, DagTransformer, ModelConfig, train_model
from dagformer.objectives import AipwJoint, GFormula, Iptw, Nmmr, nmmr_risk
from dagformer.optim import AdamState

TRIANGLE_NODES = [("X", "confounder"), ("A", "treatment"), ("Y", "outcome")]
TRIANGLE_EDGES = [("X", "A"), ("X", "Y"), ("A", "Y")]
TRIANGLE_KINDS = {"X": "continuous", "A": "binary", "Y": "continuous"}


def triangle_dag():
    return CausalDag(TRIANGLE_NODES, TRIANGLE_EDGES)


def small_config(**kw):
    base = dict(embedding_dim=8, num_heads=2, num_encoder_layers=1, feedforward_dim=16,
                mlp_width=8, mlp_depth=1, dropout_rate=0.0, alpha=0.5, seed=3)
    base.update(kw)
    return ModelConfig(**base)


def triangle_batch(n=5, seed=0):
    g = rng.stream(seed, "batch")
    x = g.standard_normal(n)
    a = (g.random(n) < 0.5).astype(float)
    y = g.standard_normal(n)
    return np.column_stack([x, a, y])


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(embedding_dim=9, num_heads=2)
    with pytest.raises(ConfigError):
        ModelConfig(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(alpha=-0.1)
    with pytest.raises(ConfigError):
        ModelConfig(alpha=float("nan"))  # would otherwise pass as alpha = 0
    with pytest.raises(ConfigError, match="alpha must be finite"):
        ModelConfig(alpha=math.inf)  # the encoder slice would be inf, the first loss NaN
    with pytest.raises(ConfigError):
        ModelConfig(mlp_depth=0)
    with pytest.raises(ConfigError):
        ModelConfig(embedding_dim=8.0)


def test_forward_drops_out_only_with_a_stream():
    model = DagTransformer(small_config(dropout_rate=0.5), triangle_dag(), "aipw",
                           TRIANGLE_KINDS)
    batch = triangle_batch(32)
    first, again = model.forward(batch), model.forward(batch)
    dropped = model.forward(batch, dropout_rng=rng.stream(1, "dropout"))
    for head in model.head_nodes:
        assert np.array_equal(first[head].data, again[head].data), head
        assert not np.array_equal(first[head].data, dropped[head].data), head


def test_forward_shapes_two_heads():
    model = DagTransformer(small_config(), triangle_dag(), "aipw", TRIANGLE_KINDS)
    outs = model.forward(triangle_batch(5))
    assert set(outs) == {"A", "Y"}
    assert outs["A"].data.shape == (5,)
    assert outs["Y"].data.shape == (5,)


def test_propensity_head_in_unit_interval():
    model = DagTransformer(small_config(), triangle_dag(), "ipw", TRIANGLE_KINDS)
    out = model.forward(triangle_batch(64)[:, :2])
    pa = out["A"].data
    assert np.all((pa > 0.0) & (pa < 1.0))


def test_batch_column_mismatch_rejected():
    model = DagTransformer(small_config(), triangle_dag(), "gformula", TRIANGLE_KINDS)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((4, 2)))


def test_nonbinary_value_in_binary_column_rejected():
    model = DagTransformer(small_config(), triangle_dag(), "gformula", TRIANGLE_KINDS)
    batch = triangle_batch(4)
    batch[2, 1] = 2.0
    with pytest.raises(DataError, match="row 2"):
        model.forward(batch)


@pytest.mark.parametrize("scale", [1e300, 1e308])
def test_a_column_whose_spread_or_mean_overflows_is_a_data_error(scale):
    # at 1e300 the variance overflows to an infinite sd, which standardized Y to 0;
    # at 1e308 the mean overflows too; pytest makes NumPy's RuntimeWarning an error
    model = DagTransformer(small_config(), triangle_dag(), "gformula", TRIANGLE_KINDS)
    batch = triangle_batch(8)
    batch[:, 2] *= scale
    with pytest.raises(DataError, match="node 'Y'"):
        model.fit_standardizer(batch)


def test_attention_respects_mask_for_random_draws():
    batch = triangle_batch(6)
    for seed in range(10):
        model = DagTransformer(small_config(seed=seed, num_encoder_layers=2),
                               triangle_dag(), "aipw", TRIANGLE_KINDS)
        maps = model.attention_maps(batch)
        assert len(maps) == 2
        forbidden = model.mask == 1
        for layer_map in maps:
            assert layer_map.shape == (6, 2, 3, 3)
            assert np.all(layer_map[:, :, forbidden] == 0.0)
            assert np.max(np.abs(layer_map.sum(axis=-1) - 1.0)) < 1e-12


def test_outcome_column_never_read_by_any_head():
    model = DagTransformer(small_config(num_encoder_layers=2), triangle_dag(), "aipw", TRIANGLE_KINDS)
    batch = triangle_batch(8)
    base = model.predict(batch)
    shifted = batch.copy()
    shifted[:, 2] += 123.0
    moved = model.predict(shifted)
    assert np.array_equal(base["Y"], moved["Y"])
    assert np.array_equal(base["A"], moved["A"])


def test_non_ancestor_column_never_read():
    # M is a child of A, so it is not an ancestor of Y; Y's head must ignore it
    dag = CausalDag(TRIANGLE_NODES + [("M", "confounder")], TRIANGLE_EDGES + [("A", "M")])
    kinds = dict(TRIANGLE_KINDS, M="continuous")
    model = DagTransformer(small_config(num_encoder_layers=2), dag, "gformula", kinds)
    g = rng.stream(9, "nonanc")
    batch = np.column_stack([g.standard_normal(8), (g.random(8) < 0.5).astype(float),
                             g.standard_normal(8), g.standard_normal(8)])
    assert model.input_nodes == ["X", "A", "Y", "M"]
    base = model.predict(batch)["Y"]
    shifted = batch.copy()
    shifted[:, 3] -= 55.0
    assert np.array_equal(base, model.predict(shifted)["Y"])


def test_ancestor_column_is_read():
    model = DagTransformer(small_config(), triangle_dag(), "gformula", TRIANGLE_KINDS)
    batch = triangle_batch(8)
    base = model.predict(batch)["Y"]
    shifted = batch.copy()
    shifted[:, 0] += 2.0
    assert not np.array_equal(base, model.predict(shifted)["Y"])


def test_alpha_zero_builds_only_head_parameters():
    zero = DagTransformer(small_config(alpha=0.0), triangle_dag(), "aipw", TRIANGLE_KINDS)
    full = DagTransformer(small_config(), triangle_dag(), "aipw", TRIANGLE_KINDS)
    assert list(zero.params) == [name for name in full.params if name.startswith("head/")]
    assert zero.attention_maps(triangle_batch(4)) == []


def test_alpha_zero_trains_deterministically_with_dropout():
    ds = _toy_dataset(n=80, seed=4)
    trained = []
    for _ in range(2):
        model = DagTransformer(small_config(alpha=0.0, dropout_rate=0.2), SCM_DAG, "aipw",
                               SCM_KINDS)
        train_model(model, ds, AipwJoint(), AdamState(learning_rate=3e-3, l2_penalty=1e-3),
                    epochs=3, batch_size=16, seed=8)
        trained.append(model)
    first, second = trained
    assert list(first.params) == list(second.params)
    for name, p in first.params.items():
        assert np.array_equal(p.data, second.params[name].data), name


def _tape_nodes_per_step(monkeypatch, model, dataset, objective, batch_size):
    counts = []
    backward = tensor.backward

    def counting_backward(loss):
        counts.append(len(tensor.GradientTape(loss).order))
        backward(loss)

    monkeypatch.setattr(tensor, "backward", counting_backward)
    train_model(model, dataset, objective, AdamState(), epochs=1, batch_size=batch_size)
    return set(counts)


def test_tape_nodes_per_step_criterion_6_config(monkeypatch):
    cfg = ModelConfig(embedding_dim=8, num_heads=2, num_encoder_layers=1, feedforward_dim=16,
                      mlp_width=16, mlp_depth=2, dropout_rate=0.0, alpha=0.1, seed=1)
    model = DagTransformer(cfg, SCM_DAG, "gformula", SCM_KINDS)
    assert len(model.params) == 28
    # 22 ops; the tape lists no parameter leaf. 1 embedding, 9 in the encoder
    # layer (attention, from the layer input to the merged heads, is one node;
    # each other weight product is one node with its bias; the residual stream
    # is cut to the head row), 3 from the final norm to the head input (the
    # head row times alpha is one node), 6 in the head MLP (one node per
    # weight product, with its bias), 3 in the loss
    assert _tape_nodes_per_step(monkeypatch, model, _toy_dataset(n=512), GFormula(),
                                256) == {22}


def test_tape_nodes_per_step_nmmr_u_config(monkeypatch):
    from dagformer.data import simulate_demand
    cfg = ModelConfig(embedding_dim=40, num_heads=1, num_encoder_layers=1, feedforward_dim=40,
                      mlp_width=48, mlp_depth=2, dropout_rate=0.0, alpha=0.01, seed=1)
    kinds = {n: "continuous" for n in ("Z", "W", "A", "Y")}
    model = DagTransformer(cfg, demand_dag(), "proximal", kinds)
    assert len(model.params) == 31
    # 29 ops and no parameter leaf: attention is one node, and so are the
    # penalty over all 31 parameters and the head row times alpha
    assert _tape_nodes_per_step(monkeypatch, model, simulate_demand(128, seed=2).to_dataset(),
                                Nmmr(variant="U", lam=3e-6), 64) == {29}


def test_tape_nodes_per_step_two_head_aipw_joint_config(monkeypatch):
    config, dag, method, kinds = CUT_SHAPES["aipw-joint"]
    model = DagTransformer(ModelConfig(**config), dag, method, kinds)
    scm = LinearScm(x_dim=5, propensity_weights=(0.5,) * 5, outcome_weights=(1.0,) * 5)
    # 42 ops and no parameter leaf: attention is one node, each head's row
    # times alpha is one, and each head MLP is 6: 3 weight products with their
    # biases, 2 ReLUs and a reshape
    assert _tape_nodes_per_step(monkeypatch, model, simulate_linear_scm(512, scm, 3),
                                AipwJoint(), 256) == {42}


def test_alpha_zero_step_has_no_encoder_tape_node(monkeypatch):
    model = DagTransformer(small_config(alpha=0.0, mlp_width=16, mlp_depth=2), SCM_DAG,
                           "gformula", SCM_KINDS)
    assert len(model.params) == 6
    # 9 ops, and the tape lists none of the 6 head parameters: 6 in the head
    # MLP, 3 in the loss; the head input (zeros next to the raw parents) is a constant
    assert _tape_nodes_per_step(monkeypatch, model, _toy_dataset(n=512), GFormula(),
                                256) == {9}


def _alpha_zero_snapshot():
    model = DagTransformer(small_config(alpha=0.0), SCM_DAG, "aipw", SCM_KINDS)
    train_model(model, _toy_dataset(n=48, seed=6), AipwJoint(), AdamState(learning_rate=3e-3),
                epochs=2, batch_size=16)
    return model, model.to_dict()


def test_format_1_encoder_bypass_snapshot_loads_as_alpha_zero():
    model, snapshot = _alpha_zero_snapshot()
    snapshot["config"].update(alpha=0.5, encoder_bypass=True)  # as the bypass model saved it
    loaded = DagTransformer.from_dict(snapshot)
    assert loaded.config == model.config
    batch = triangle_batch(9)
    for head, values in model.predict(batch).items():
        assert np.array_equal(loaded.predict(batch)[head], values), head


def test_format_1_alpha_zero_snapshot_with_encoder_parameters_loads():
    model, snapshot = _alpha_zero_snapshot()
    encoder = DagTransformer(small_config(alpha=0.5), SCM_DAG, "aipw", SCM_KINDS)
    for name, p in encoder.params.items():
        if not name.startswith("head/"):
            snapshot["params"][name] = p.data.tolist()
    loaded = DagTransformer.from_dict(snapshot)
    assert list(loaded.params) == list(model.params)
    batch = triangle_batch(9)
    for head, values in model.predict(batch).items():
        assert np.array_equal(loaded.predict(batch)[head], values), head
    stray = dict(snapshot, params=dict(snapshot["params"], **{"head/Z/w0": [[0.0]]}))
    with pytest.raises(ConfigError, match="head/Z/w0"):
        DagTransformer.from_dict(stray)


@pytest.mark.parametrize("method, layers, alpha, version", [
    ("proximal", 2, 0.5, 2), ("proximal", 1, 0.5, 1), ("proximal", 2, 0.0, 1), ("aipw", 2, 0.5, 1)])
def test_snapshot_version_2_marks_a_model_whose_barred_column_reaches_past_one_layer(
        method, layers, alpha, version):
    dag, kinds = ((demand_dag(), dict.fromkeys("ZWAY", "continuous")) if method == "proximal"
                  else (SCM_DAG, SCM_KINDS))
    model = DagTransformer(small_config(num_encoder_layers=layers, alpha=alpha), dag, method,
                           kinds)
    snapshot = model.to_dict()
    assert snapshot["format_version"] == version
    DagTransformer.from_dict(snapshot)
    old = dict(snapshot, format_version=1)  # a version-1 writer let the heads read Z
    if version == 2:
        with pytest.raises(ConfigError, match="version 1.*'Z'"):
            DagTransformer.from_dict(old)
    else:
        DagTransformer.from_dict(old)
    with pytest.raises(ConfigError, match="unsupported snapshot version 3"):
        DagTransformer.from_dict(dict(snapshot, format_version=3))


def test_snapshot_with_stray_parameter_is_rejected():
    snapshot = DagTransformer(small_config(), SCM_DAG, "aipw", SCM_KINDS).to_dict()
    snapshot["params"]["enc9/ffn/w1"] = [[0.0]]
    with pytest.raises(ConfigError, match="enc9/ffn/w1"):
        DagTransformer.from_dict(snapshot)


def test_snapshot_written_by_format_1_code_loads_and_predicts():
    fixtures = Path(__file__).parent / "fixtures"
    model = DagTransformer.load(str(fixtures / "snapshot_v1_aipw.json"))
    stored = json.loads((fixtures / "snapshot_v1_aipw_predictions.json").read_text())
    assert model.input_nodes == stored["input_nodes"]
    preds = model.predict(np.asarray(stored["batch"]))
    for head, want in stored["predictions"].items():
        want = np.asarray(want)
        assert np.max(np.abs(preds[head] - want) / np.abs(want)) <= 1e-12, head


def test_counterfactual_matching_observed_is_identity():
    model = DagTransformer(small_config(), triangle_dag(), "gformula", TRIANGLE_KINDS)
    batch = triangle_batch(6)
    batch[:, 1] = 1.0
    assert np.array_equal(model.counterfactual_predict(batch, 1.0)["Y"],
                          model.predict(batch)["Y"])


def test_counterfactual_does_not_mutate_input():
    model = DagTransformer(small_config(), triangle_dag(), "gformula", TRIANGLE_KINDS)
    batch = triangle_batch(6)
    before = batch.copy()
    model.counterfactual_predict(batch, 0.0)
    assert np.array_equal(batch, before)


def test_counterfactual_grid_on_demand_graph():
    kinds = {n: "continuous" for n in ("Z", "W", "A", "Y")}
    model = DagTransformer(small_config(), demand_dag(), "proximal", kinds)
    assert model.input_nodes == ["Z", "W", "A", "Y"]
    g = rng.stream(4, "demand-batch")
    batch = g.standard_normal((12, 4))
    grid = np.linspace(10, 30, 10)
    curves = [model.counterfactual_predict(batch, a)["Y"] for a in grid]
    assert len(curves) == 10
    assert all(c.shape == (12,) for c in curves)


def test_bridge_head_reads_treatment_and_outcome_proxy_only():
    kinds = {n: "continuous" for n in ("Z", "W", "A", "Y")}
    model = DagTransformer(small_config(num_encoder_layers=1), demand_dag(), "proximal", kinds)
    g = rng.stream(5, "demand-leak")
    batch = g.standard_normal((9, 4))
    base = model.predict(batch)["Y"]
    # Y column (head's own position) must be ignored
    shifted = batch.copy()
    shifted[:, 3] += 9.0
    assert np.array_equal(base, model.predict(shifted)["Y"])
    # Z is A's parent, not Y's: one layer of attention cannot carry it to Y
    shifted = batch.copy()
    shifted[:, 0] += 9.0
    assert np.array_equal(base, model.predict(shifted)["Y"])
    # W and A are parents, so they must matter
    shifted = batch.copy()
    shifted[:, 1] += 9.0
    assert not np.array_equal(base, model.predict(shifted)["Y"])
    # at two layers Z would reach Y through A's row, but no position but Z's
    # own attends to the treatment proxy
    model = DagTransformer(small_config(num_encoder_layers=2), demand_dag(), "proximal", kinds)
    shifted = batch.copy()
    shifted[:, 0] += 9.0
    assert np.array_equal(model.predict(batch)["Y"], model.predict(shifted)["Y"])


def test_model_determinism_same_seed():
    m1 = DagTransformer(small_config(seed=11), triangle_dag(), "aipw", TRIANGLE_KINDS)
    m2 = DagTransformer(small_config(seed=11), triangle_dag(), "aipw", TRIANGLE_KINDS)
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)


SCM_DAG = linear_scm_dag(1)
SCM_KINDS = {"X1": "continuous", "A": "binary", "Y": "continuous"}


def _toy_dataset(n=64, seed=1):
    return simulate_linear_scm(n, LinearScm(), seed)


def test_train_zero_epochs_is_identity():
    ds = _toy_dataset()
    model = DagTransformer(small_config(), SCM_DAG, "gformula", SCM_KINDS)
    before = {k: v.data.copy() for k, v in model.params.items()}
    log = train_model(model, ds, GFormula(), AdamState(), epochs=0, batch_size=16)
    assert log == []
    for name in before:
        assert np.array_equal(before[name], model.params[name].data)


def test_train_identical_seeds_identical_logs():
    ds = _toy_dataset()
    logs = []
    for _ in range(2):
        model = DagTransformer(small_config(seed=21), SCM_DAG, "gformula", SCM_KINDS)
        logs.append(train_model(model, ds, GFormula(), AdamState(learning_rate=1e-3),
                                epochs=3, batch_size=16, seed=77))
    assert logs[0] == logs[1]


def test_train_reduces_outcome_loss():
    ds = _toy_dataset(n=128, seed=5)
    model = DagTransformer(small_config(seed=2), SCM_DAG, "gformula", SCM_KINDS)
    log = train_model(model, ds, GFormula(), AdamState(learning_rate=3e-3),
                      epochs=30, batch_size=32)
    assert log[-1]["loss"] < log[0]["loss"]
    assert "mse_raw" in log[-1]


def test_train_all_objectives_smoke():
    ds = _toy_dataset(n=48, seed=6)
    cases = [(GFormula(), "gformula"), (Iptw(), "ipw"), (AipwJoint(), "aipw")]
    for objective, method in cases:
        model = DagTransformer(small_config(), SCM_DAG, method, SCM_KINDS)
        log = train_model(model, ds, objective, AdamState(), epochs=2, batch_size=16)
        assert len(log) == 2 and np.isfinite(log[-1]["loss"])


def test_train_nmmr_smoke():
    from dagformer.data import simulate_demand
    ds = simulate_demand(64, seed=3).to_dataset()
    kinds = {n: "continuous" for n in ("Z", "W", "A", "Y")}
    model = DagTransformer(small_config(), demand_dag(), "proximal", kinds)
    for variant in ("U", "V"):
        log = train_model(model, ds, Nmmr(variant=variant, lam=1e-5), AdamState(),
                          epochs=2, batch_size=32)
        assert len(log) == 2 and np.isfinite(log[-1]["loss"])


def test_train_nmmr_u_rejects_a_batch_or_a_dataset_below_two_rows():
    # every batch of fewer than two rows is skipped, so nothing would train
    from dagformer.data import simulate_demand
    kinds = {n: "continuous" for n in ("Z", "W", "A", "Y")}
    model = DagTransformer(small_config(), demand_dag(), "proximal", kinds)
    before = {name: p.data.copy() for name, p in model.params.items()}
    with pytest.raises(ConfigError, match="batch_size=1"):
        train_model(model, simulate_demand(64, seed=3).to_dataset(), Nmmr("U", 1.0),
                    AdamState(), epochs=1, batch_size=1)
    with pytest.raises(DataError, match="row count, 1, is below the objective's minimum of 2"):
        train_model(model, simulate_demand(1, seed=3).to_dataset(), Nmmr("U", 1.0),
                    AdamState(), epochs=1, batch_size=32)
    assert all(np.array_equal(p.data, before[name]) for name, p in model.params.items())


def test_train_skips_a_batch_below_the_objective_minimum():
    # 65 rows in batches of 64 leave one row, which the U-statistic cannot score
    from dagformer.data import simulate_demand
    kinds = {n: "continuous" for n in ("Z", "W", "A", "Y")}
    model = DagTransformer(small_config(), demand_dag(), "proximal", kinds)
    optimizer = AdamState()
    train_model(model, simulate_demand(65, seed=3).to_dataset(), Nmmr("U", 1e-5), optimizer,
                epochs=2, batch_size=64)
    assert optimizer.step == 2


def test_a_head_without_observed_parents_predicts_one_constant():
    # on the graph A -> Y the propensity head reads only its identity embedding
    ds = simulate_linear_scm(64, LinearScm(x_dim=0, propensity_weights=(),
                                           outcome_weights=()), seed=2)
    model = DagTransformer(small_config(), linear_scm_dag(0), "ipw", {"A": "binary"})
    assert model.head_parents == {"A": []}
    train_model(model, ds, Iptw(), AdamState(), epochs=2, batch_size=16)
    pi = model.pi_hat(ds)
    assert np.all(pi == pi[0]) and 0.0 < pi[0] < 1.0


def test_train_objective_head_mismatch():
    ds = _toy_dataset()
    model = DagTransformer(small_config(), SCM_DAG, "ipw", SCM_KINDS)
    with pytest.raises(ConfigError):
        train_model(model, ds, GFormula(), AdamState(), epochs=1, batch_size=16)
    # an objective must train every head, or the others get no gradient
    aipw = DagTransformer(small_config(), SCM_DAG, "aipw", SCM_KINDS)
    for objective in (GFormula(), Iptw()):
        with pytest.raises(ConfigError, match=r"heads \['A', 'Y'\]"):
            train_model(aipw, ds, objective, AdamState(), epochs=1, batch_size=16)


def test_train_divergence_reports_epoch_and_batch():
    ds = _toy_dataset(n=64, seed=9)
    model = DagTransformer(small_config(), SCM_DAG, "gformula", SCM_KINDS)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as info:
        train_model(model, ds, GFormula(), AdamState(learning_rate=1e150),
                    epochs=50, batch_size=16)
    assert info.value.epoch is not None and info.value.batch is not None


def test_train_reports_overflowed_attention_scores_as_divergence():
    # q = 1e200 x and k = -1e200 x: the root node X1 attends only to itself,
    # and its one score is -inf, so its whole softmax row is -inf
    model = DagTransformer(small_config(), SCM_DAG, "gformula", SCM_KINDS)
    eye = np.eye(model.config.embedding_dim)
    model.params["enc0/attn/wq"].data = 1e200 * eye
    model.params["enc0/attn/wk"].data = -1e200 * eye
    with pytest.raises(TrainingDivergedError,
                       match="attention scores overflowed at epoch 0, batch 0") as info:
        train_model(model, _toy_dataset(n=64, seed=9), GFormula(), AdamState(), epochs=2,
                    batch_size=16)
    assert (info.value.epoch, info.value.batch) == (0, 0)


def _digest(models) -> str:
    """SHA-256 of every parameter of `models`, by name, in registration order."""
    h = hashlib.sha256()
    for model in models:
        for name, p in model.params.items():
            h.update(name.encode())
            h.update(p.data.tobytes())
    return h.hexdigest()


# `_digest` of the three models below as trained before gradients were cleared
PARAMS_SHA256 = "1401e695f6814d132aa71358a07ca858bc1f7eb6dcd63849d4d1c52fb7566370"


def test_a_trained_model_keeps_no_gradient():
    # each parameter used to keep its last step's gradient, as large as itself
    ds = _toy_dataset(n=64, seed=5)
    joint = DagTransformer(small_config(seed=4), SCM_DAG, "aipw", SCM_KINDS)
    train_model(joint, ds, AipwJoint(), AdamState(learning_rate=3e-3), epochs=2, batch_size=16)
    sizes = {"embedding_dim": 8, "num_heads": 2, "feedforward_dim": 16, "mlp_width": 8,
             "mlp_depth": 1}
    run = resolve({"method": "aipw-separate", "epochs": 2, "batch_size": 16,
                   "model_outcome": sizes, "model_propensity": sizes})
    separate = run.row.build(run, SCM_DAG, ds, 7)
    run.row.train(separate, run, ds, 7)
    for model in (joint, *separate):
        assert all(p.grad is None for p in model.parameters())
    # and the same parameters as when the gradients stayed
    assert _digest((joint, *separate)) == PARAMS_SHA256
    diverged = DagTransformer(small_config(), SCM_DAG, "gformula", SCM_KINDS)
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError):
        train_model(diverged, ds, GFormula(), AdamState(learning_rate=1e150), epochs=50,
                    batch_size=16)
    assert all(p.grad is None for p in diverged.parameters())


def test_snapshot_roundtrip_bit_exact(tmp_path):
    ds = _toy_dataset()
    model = DagTransformer(small_config(seed=13), SCM_DAG, "aipw", SCM_KINDS)
    train_model(model, ds, AipwJoint(), AdamState(), epochs=2, batch_size=16)
    path = tmp_path / "model.json"
    model.save(str(path))
    loaded = DagTransformer.load(str(path))
    for name in model.params:
        assert np.array_equal(model.params[name].data, loaded.params[name].data)
    assert np.array_equal(model.col_mean, loaded.col_mean)
    batch = triangle_batch(5)
    assert np.array_equal(model.predict(batch)["Y"], loaded.predict(batch)["Y"])
    assert np.array_equal(model.predict(batch)["A"], loaded.predict(batch)["A"])
    path2 = tmp_path / "model2.json"
    loaded.save(str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_dropout_training_is_seed_deterministic():
    ds = _toy_dataset(n=64, seed=14)
    logs = []
    for _ in range(2):
        model = DagTransformer(small_config(seed=5, dropout_rate=0.2), SCM_DAG,
                               "gformula", SCM_KINDS)
        logs.append(train_model(model, ds, GFormula(), AdamState(), epochs=2,
                                batch_size=16, seed=123))
    assert logs[0] == logs[1]


def test_alpha_continuity():
    batch = triangle_batch(6)
    outputs = []
    for alpha in (0.3, 0.3 + 1e-9):
        model = DagTransformer(small_config(alpha=alpha, seed=8), triangle_dag(), "gformula",
                               TRIANGLE_KINDS)
        outputs.append(model.predict(batch)["Y"])
    assert np.max(np.abs(outputs[0] - outputs[1])) < 1e-6


def test_trained_outcome_mse_beats_noise_bound():
    # noise variance is 1.0; a fitted outcome model should approach it
    ds = _toy_dataset(n=5000, seed=31)
    model = DagTransformer(small_config(seed=31, mlp_width=16, mlp_depth=2, alpha=0.1),
                           SCM_DAG, "gformula", SCM_KINDS)
    log = train_model(model, ds, GFormula(), AdamState(learning_rate=3e-3),
                      epochs=200, batch_size=256, seed=31)
    assert log[-1]["mse_raw"] < 1.0 * 1.5


def test_counterfactuals_on_null_effect_model():
    scm = LinearScm(treatment_effect=0.0)
    ds = simulate_linear_scm(2000, scm, seed=17)
    model = DagTransformer(small_config(seed=17, mlp_width=16, mlp_depth=2, alpha=0.1),
                           SCM_DAG, "gformula", SCM_KINDS)
    train_model(model, ds, GFormula(), AdamState(learning_rate=3e-3),
                epochs=80, batch_size=256, seed=17)
    batch = ds.matrix(model.input_nodes)
    gap = np.abs(model.counterfactual_predict(batch, 1.0)["Y"]
                 - model.counterfactual_predict(batch, 0.0)["Y"])
    assert gap.mean() < 0.25


def _model_of_base(base: str, alpha: float):
    """An untrained two-layer model of a base method, its standardizer fit to a batch."""
    config = small_config(num_encoder_layers=2, alpha=alpha)
    if base == "proximal":
        model = DagTransformer(config, demand_dag(), base, {n: "continuous" for n in "ZWAY"})
        batch = rng.stream(6, "demand-batch").normal(20.0, 5.0, (40, 4))
    else:
        model = DagTransformer(config, triangle_dag(), base, TRIANGLE_KINDS)
        batch = triangle_batch(40)[:, :len(model.input_nodes)]
        batch[:, 0] = 3.0 * batch[:, 0] + 1.0  # so the standardizer is not the identity
    model.fit_standardizer(batch)
    return model, batch


@pytest.mark.parametrize("alpha", [0.5, 0.0])
@pytest.mark.parametrize("base", ["gformula", "ipw", "aipw", "proximal"])
def test_predict_equals_a_recording_forward_bit_for_bit(base, alpha):
    model, batch = _model_of_base(base, alpha)
    recorded = model.forward(batch)
    assert all(out._parents for out in recorded.values())
    predicted = model.predict(batch)
    assert set(predicted) == set(recorded)
    for head, out in recorded.items():
        assert np.array_equal(predicted[head], model._destandardize_head(head, out.data)), head
    if alpha > 0:
        maps = []
        model.forward(batch, collect_attention=maps)
        assert all(np.array_equal(a, b) for a, b in zip(model.attention_maps(batch), maps,
                                                        strict=True))


def test_a_failed_predict_leaves_training_recording():
    model, batch = _model_of_base("aipw", 0.5)
    bad = batch.copy()
    bad[3, 1] = 0.5  # the binary treatment column
    with pytest.raises(DataError):
        model.predict(bad)
    outs = model.forward(batch)
    tensor.backward(tensor.sum_all(outs["A"]) + tensor.sum_all(outs["Y"]))
    assert all(p.grad is not None for p in model.parameters())


def _peak(call):
    """The tracemalloc peak, in bytes, of `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_counterfactual_predict_keeps_no_tape_in_memory():
    scm = LinearScm(x_dim=1, treatment_effect=2.0)
    config = ModelConfig(embedding_dim=8, num_heads=2, num_encoder_layers=1, feedforward_dim=16,
                         mlp_width=16, mlp_depth=2, alpha=0.1, seed=3)
    model = DagTransformer(config, linear_scm_dag(1), "gformula", SCM_KINDS)
    batch = simulate_linear_scm(5000, scm, seed=3).matrix(model.input_nodes)
    model.fit_standardizer(batch)
    # a recording forward keeps every intermediate alive until its outputs go
    assert _peak(lambda: model.counterfactual_predict(batch, 1.0)) <= \
        0.5 * _peak(lambda: model.forward(batch))


# -- the last encoder layer computes only the head rows, with the full layer's floats --

def _full_encoder_layer(model, x, layer, dropout_rng):
    """One encoder layer computed on every node, each weight product the full
    (N*D, K) GEMM: the reference the cut layer must match."""
    T, params, cfg = tensor, model.params, model.config
    p = f"enc{layer}"
    n, d, e = x.shape
    heads, dh = cfg.num_heads, e // cfg.num_heads
    xn = T.layer_norm(x, params[f"{p}/ln1/gain"], params[f"{p}/ln1/bias"])
    q = T.linear(xn, params[f"{p}/attn/wq"], params[f"{p}/attn/bq"])
    k = T.linear(xn, params[f"{p}/attn/wk"], params[f"{p}/attn/bk"])
    v = T.linear(xn, params[f"{p}/attn/wv"], params[f"{p}/attn/bv"])

    def split_heads(t):
        return T.transpose(T.reshape(t, (n, d, heads, dh)), (0, 2, 1, 3))

    q, k, v = split_heads(q), split_heads(k), split_heads(v)
    scores = T.matmul(q, T.swap_last2(k)) * (1.0 / np.sqrt(dh))
    attn = T.softmax_lastdim(scores + tensor.Tensor(model._additive_mask))
    ctx = T.reshape(T.transpose(T.matmul(attn, v), (0, 2, 1, 3)), (n, d, e))
    ctx = T.linear(ctx, params[f"{p}/attn/wo"], params[f"{p}/attn/bo"])
    x = x + T.dropout(ctx, cfg.dropout_rate, dropout_rng)
    xn = T.layer_norm(x, params[f"{p}/ln2/gain"], params[f"{p}/ln2/bias"])
    ff = T.relu(T.linear(xn, params[f"{p}/ffn/w1"], params[f"{p}/ffn/b1"]))
    ff = T.linear(ff, params[f"{p}/ffn/w2"], params[f"{p}/ffn/b2"])
    return x + T.dropout(ff, cfg.dropout_rate, dropout_rng)


def _full_forward(model, batch, dropout_rng=None, standardized=False):
    """`DagTransformer.forward` with every layer on every node, each head
    reading its node of the full final norm."""
    T, params, cfg = tensor, model.params, model.config
    std = batch if standardized else model._standardize(np.asarray(batch, dtype=np.float64))
    embeddings = []
    for node in model.input_nodes:
        if node in model.head_nodes:
            embeddings.append(())
        elif model.node_kinds[node] == "binary":
            embeddings.append((params[f"embed/{node}/table"],))
        else:
            embeddings.append((params[f"embed/{node}/weight"], params[f"embed/{node}/bias"]))
    h = T.embed_nodes(params["node_identity"], std, embeddings)
    for i in range(cfg.num_encoder_layers):
        h = _full_encoder_layer(model, h, i, dropout_rng)
    h = T.layer_norm(h, params["final_ln/gain"], params["final_ln/bias"])
    outputs = {}
    for head in model.head_nodes:
        z = T.take_node(h, model._node_index(head)) * cfg.alpha
        parents = model.head_parents[head]
        if parents:
            raw = tensor.Tensor(std[:, [model._node_index(p) for p in parents]])
            z = T.concat_lastdim([z, raw])
        for j in range(cfg.mlp_depth + 1):
            z = T.linear(z, params[f"head/{head}/w{j}"], params[f"head/{head}/b{j}"])
            if j < cfg.mlp_depth:
                z = T.dropout(T.relu(z), cfg.dropout_rate, dropout_rng)
        out = T.reshape(z, (z.shape[0],))
        if model.graph.role_of(head) is NodeRole.TREATMENT:
            out = T.sigmoid(out)
        outputs[head] = out
    return outputs


CRITERION_6 = dict(embedding_dim=8, num_heads=2, num_encoder_layers=1, feedforward_dim=16,
                   mlp_width=16, mlp_depth=2, alpha=0.1, seed=1)
NMMR_U = dict(embedding_dim=40, num_heads=1, num_encoder_layers=1, feedforward_dim=40,
              mlp_width=48, mlp_depth=2, alpha=0.01, seed=1)
AIPW_KINDS = {"A": "binary", **{n: "continuous" for n in ("X1", "X2", "X3", "X4", "X5", "Y")}}
CUT_SHAPES = {
    "criterion-6": (CRITERION_6, SCM_DAG, "gformula", SCM_KINDS),
    "nmmr-u": (NMMR_U, demand_dag(), "proximal", {n: "continuous" for n in "ZWAY"}),
    "aipw-joint": (CRITERION_6, linear_scm_dag(5), "aipw", AIPW_KINDS),
    "two-layer": (dict(CRITERION_6, num_encoder_layers=2), linear_scm_dag(5), "aipw",
                  AIPW_KINDS),
}


def _generic_model(shape, n):
    """A model of one of CUT_SHAPES with every parameter drawn at random, so no
    bias is zero and no gain is one, and a standardized batch of n rows."""
    return _random_model(*CUT_SHAPES[shape], rng.stream(11, "generic", shape, n), n)


def _random_model(config, dag, method, kinds, g, n):
    """`_generic_model` of any shape, its parameters and rows drawn from `g`."""
    model = DagTransformer(ModelConfig(**config), dag, method, kinds)
    for p in model.parameters():
        p.data = g.standard_normal(p.data.shape) * 0.5
    batch = g.standard_normal((n, len(model.input_nodes)))
    for i, node in enumerate(model.input_nodes):
        if kinds[node] == "binary":
            batch[:, i] = g.random(n) < 0.5
    return model, batch


@pytest.mark.parametrize("n", [1, 2, 8, 64, 136, 256])
@pytest.mark.parametrize("shape", list(CUT_SHAPES))
def test_cut_last_layer_equals_the_full_layer_bit_for_bit(shape, n):
    model, batch = _generic_model(shape, n)
    weights = {head: rng.stream(12, head, n).standard_normal(n) for head in model.head_nodes}
    grads = []
    for forward in (model.forward, lambda b: _full_forward(model, b)):
        for p in model.parameters():
            p.zero_grad()
        outs = forward(batch)
        loss = None
        for head, out in outs.items():
            term = tensor.sum_all(out * weights[head])
            loss = term if loss is None else loss + term
        tensor.backward(loss)
        grads.append(({h: o.data for h, o in outs.items()},
                      {name: p.grad for name, p in model.params.items()}))
    (cut_outs, cut_grads), (full_outs, full_grads) = grads
    for head in model.head_nodes:
        assert np.array_equal(cut_outs[head], full_outs[head]), head
    for name in model.params:
        assert np.array_equal(cut_grads[name], full_grads[name]), name


@pytest.mark.parametrize("shape, rows, batch_size, dropout", [
    ("nmmr-u", 5000, 64, 0.0),   # a whole proximal epoch; its last batch has 8 rows
    ("aipw-joint", 400, 64, 0.2),  # dropout draws the mask of every node
])
def test_cut_training_leaves_the_parameters_of_full_training(monkeypatch, shape, rows,
                                                             batch_size, dropout):
    from dagformer.data import simulate_demand
    config, dag, method, kinds = CUT_SHAPES[shape]
    if method == "proximal":
        dataset, objective = simulate_demand(rows, seed=2).to_dataset(), Nmmr("U", 3e-6)
    else:
        scm = LinearScm(x_dim=5, propensity_weights=(0.5,) * 5, outcome_weights=(1.0,) * 5)
        dataset, objective = simulate_linear_scm(rows, scm, 3), AipwJoint()
    trained = []
    for full in (False, True):
        model = DagTransformer(ModelConfig(**dict(config, dropout_rate=dropout)), dag, method,
                               kinds)
        if full:
            monkeypatch.setattr(model, "forward",
                                lambda *args, m=model, **kw: _full_forward(m, *args, **kw))
        train_model(model, dataset, objective, AdamState(), epochs=1, batch_size=batch_size)
        trained.append(model)
    cut, full = trained
    for name, p in cut.params.items():
        assert np.array_equal(p.data, full.params[name].data), name


# -- no-grad forwards run in fixed row blocks, with the floats of one pass --

B = _PREDICT_ROWS
BRIDGE_KINDS = {n: "continuous" for n in "ZWAY"}
BLOCK_SHAPES = {
    "criterion-6 seed 1": (CRITERION_6, SCM_DAG, "gformula", SCM_KINDS),
    "criterion-6 seed 2": (dict(CRITERION_6, seed=2), SCM_DAG, "gformula", SCM_KINDS),
    "aipw 1 layer": CUT_SHAPES["aipw-joint"],
    "aipw 2 layers": CUT_SHAPES["two-layer"],
    "bridge 1L1H": CUT_SHAPES["nmmr-u"],
    "bridge 2L2H": (dict(NMMR_U, num_encoder_layers=2, num_heads=2), demand_dag(), "proximal",
                    BRIDGE_KINDS),
    "aipw alpha 0": (dict(CRITERION_6, alpha=0.0), linear_scm_dag(5), "aipw", AIPW_KINDS),
}
BLOCK_ROWS = [B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 7 * B // 2, 4999, 5003]


def _block_model(shape, n):
    """A model of BLOCK_SHAPES with random parameters (seeded by its config's
    seed), fit to a random batch of n rows."""
    config = BLOCK_SHAPES[shape][0]
    model, batch = _random_model(*BLOCK_SHAPES[shape], rng.stream(config["seed"], "block"), n)
    model.fit_standardizer(batch)
    return model, batch


def test_predict_rows_is_a_multiple_of_16():
    # so every block but the last keeps each row's remainder against the GEMM's
    assert B > 0 and B % 16 == 0


def _assert_no_grad_forwards_equal_one_pass(model, rows, sizes, recording):
    """`predict`, `attention_maps` and, for a bridge, `Nmmr.risk` of the first
    n rows, for each n of `sizes`, equal one `forward` over them, which records
    a graph or not."""
    bridge = Nmmr("U", kernel_bandwidth=1.0) if model.method == "proximal" else None
    for n in sizes:
        batch, maps = rows[:n], []
        with contextlib.nullcontext() if recording else tensor.no_grad():
            outs = model.forward(batch, collect_attention=maps)
        assert all(bool(out._parents) == recording for out in outs.values()), n
        for head, values in model.predict(batch).items():
            assert np.array_equal(values, model._destandardize_head(head, outs[head].data)), \
                (head, n)
        assert all(np.array_equal(a, b) for a, b in zip(model.attention_maps(batch), maps,
                                                        strict=True)), n
        if bridge is not None and n >= bridge.min_rows:
            y, features, bandwidth = bridge._targets(model, model._standardize(batch))
            one_pass = nmmr_risk(y, outs[model.outcome_node].data, features, bandwidth, "U")
            assert bridge.risk(model, batch) == one_pass, n


@pytest.mark.parametrize("shape", list(BLOCK_SHAPES))
def test_blocked_forwards_equal_one_pass_bit_for_bit(shape):
    model, rows = _block_model(shape, max(BLOCK_ROWS))
    _assert_no_grad_forwards_equal_one_pass(model, rows, BLOCK_ROWS, recording=False)


EDGE_ROWS = [1, 2, 3, 5, B - 1, B + 1, 1000, 2 * B + 1]


@pytest.mark.parametrize("shape", list(BLOCK_SHAPES))
def test_no_grad_forwards_equal_a_recording_forward_bit_for_bit(shape):
    # a no-grad forward runs in row blocks and frees attention's arrays early,
    # a recording one does neither; each head row keeps its float
    model, rows = _block_model(shape, max(EDGE_ROWS))
    _assert_no_grad_forwards_equal_one_pass(model, rows, EDGE_ROWS, recording=True)


@pytest.mark.parametrize("n, blocks", [
    (1, [1]), (B - 1, [B - 1]), (B, [B]), (2 * B - 1, [2 * B - 1]), (2 * B, [B, B]),
    (2 * B + 1, [B, B + 1]), (7 * B // 2, [B, B, 3 * B // 2]),
])
def test_the_last_block_takes_the_tail(monkeypatch, n, blocks):
    model, batch = _generic_model("criterion-6", n)
    sizes, forward = [], model._forward
    monkeypatch.setattr(model, "_forward",
                        lambda block, *args: sizes.append(len(block)) or forward(block, *args))
    model.predict(batch)
    assert sizes == blocks


def _assert_records(model, batch):
    outs = model.forward(batch)
    assert all(out._parents for out in outs.values())


def test_a_bad_row_in_the_last_block_is_named_by_its_row_in_the_batch():
    model, batch = _generic_model("aipw-joint", 2 * B + 5)
    column = model.input_nodes.index("A")
    batch[2 * B + 3, column] = 0.5
    for call in (model.predict, model.attention_maps, lambda b: Nmmr().risk(model, b)):
        with pytest.raises(DataError, match=f"bad value at row {2 * B + 3}$"):
            call(batch)
    batch[2 * B + 3, column] = 1.0
    _assert_records(model, batch[:8])


def test_a_raise_in_a_later_block_leaves_training_recording(monkeypatch):
    model, batch = _generic_model("criterion-6", 3 * B)
    for name, call in (("_forward", model.predict),
                       ("_counterfactual_forward",
                        lambda rows: model.counterfactual_predict(rows, [1.0, 0.0]))):
        calls, forward = [], getattr(model, name)

        def fail_on_the_last_block(block, *args):
            calls.append(len(block))
            if len(calls) == 3:
                raise DegenerateInputError("the last block failed")
            return forward(block, *args)
        with monkeypatch.context() as patch:
            patch.setattr(model, name, fail_on_the_last_block)
            with pytest.raises(DegenerateInputError):
                call(batch)
        assert calls == [B, B, B], name
        _assert_records(model, batch[:8])


@pytest.mark.parametrize("shape", ["criterion-6", "nmmr-u"])
def test_no_grad_forward_memory_does_not_grow_with_rows(shape):
    peaks = []
    for n in (4 * B, 16 * B):
        model, batch = _generic_model(shape, n)
        model.fit_standardizer(batch)
        if model.method == "proximal":
            peaks.append(_peak(lambda: Nmmr("U", kernel_bandwidth=1.0).risk(model, batch)))
        else:
            peaks.append(_peak(lambda: model.counterfactual_predict(batch, 1.0)))
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_a_no_grad_forward_holds_few_per_op_arrays_at_once():
    # tracemalloc counts what is live whatever the allocator's state; a
    # 1,000-row predict of the criterion-9 bridge is one block, whose per-op
    # arrays are (rows, nodes, width) float64
    n = 1000
    model, batch = _generic_model("nmmr-u", n)
    model.fit_standardizer(batch)
    per_op = n * len(model.input_nodes) * model.config.embedding_dim * 8
    peak = _peak(lambda: model.predict(batch))
    assert peak <= 5 * per_op, peak / per_op


def test_a_counterfactual_pass_over_ten_values_holds_few_per_op_arrays_at_once():
    # the block's shared K and V, its head rows and one value's arrays at a time
    n = 1000
    model, batch = _generic_model("nmmr-u", n)
    model.fit_standardizer(batch)
    per_op = n * len(model.input_nodes) * model.config.embedding_dim * 8
    peak = _peak(lambda: model.counterfactual_predict(batch, np.linspace(-1.0, 1.0, 10)))
    assert peak <= 5 * per_op, peak / per_op


@pytest.mark.parametrize("shape, grid", [("criterion-6", [1.0, 0.0]),
                                         ("nmmr-u", list(np.linspace(-1.0, 1.0, 10)))])
def test_counterfactual_memory_grows_with_rows_by_its_outputs_only(shape, grid):
    peaks, sizes = [], (4 * B, 16 * B)
    for n in sizes:
        model, batch = _generic_model(shape, n)
        model.fit_standardizer(batch)
        peaks.append(_peak(lambda: model.counterfactual_predict(batch, grid)))
    # each head's (values, n) result, on the model scale and on the raw one
    outputs = 2 * len(grid) * len(model.head_nodes) * 8 * (sizes[1] - sizes[0])
    assert peaks[1] <= 1.25 * peaks[0] + outputs, peaks


# -- counterfactual predictions take every treatment value in one pass per block --

COUNTERFACTUAL_SHAPES = {
    **CUT_SHAPES,
    "alpha 0": (dict(CRITERION_6, alpha=0.0), SCM_DAG, "gformula", SCM_KINDS),
    # a valued treatment whose row the second layer reads: Q and x take it too
    "bridge 2 layers": BLOCK_SHAPES["bridge 2L2H"],
}


def _value_grids(model) -> list:
    if model.node_kinds[model.treatment_node] == "binary":
        return [[1.0], [1.0, 0.0]]
    return [[0.7], [0.7, -1.3], list(np.linspace(-2.0, 2.5, 10))]


def _one_predict_per_value(model, batch, grid) -> dict:
    """Per head, (values, n): `predict` of the batch with its treatment column
    set to each value, one whole forward pass per value."""
    column = model.input_nodes.index(model.treatment_node)
    rows = {head: [] for head in model.head_nodes}
    for value in grid:
        batch = batch.copy()
        batch[:, column] = value
        for head, values in model.predict(batch).items():
            rows[head].append(values)
    return {head: np.stack(values) for head, values in rows.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 5, B - 1, B + 1, 2 * B - 1, 2 * B + 1])
@pytest.mark.parametrize("shape", list(COUNTERFACTUAL_SHAPES))
def test_one_pass_over_the_values_equals_one_pass_per_value_bit_for_bit(shape, n):
    model, batch = _random_model(*COUNTERFACTUAL_SHAPES[shape],
                                 rng.stream(14, "counterfactual", shape, n), n)
    model.fit_standardizer(batch)
    for grid in _value_grids(model):
        together = model.counterfactual_predict(batch, grid)
        alone = [model.counterfactual_predict(batch, value) for value in grid]
        reference = _one_predict_per_value(model, batch, grid)
        for head in model.head_nodes:
            assert together[head].shape == (len(grid), n)
            assert np.array_equal(together[head], reference[head]), (head, grid)
            assert np.array_equal(together[head], np.stack([a[head] for a in alone])), (head, grid)


def test_the_estimators_equal_one_predict_per_value():
    g = rng.stream(15, "estimators")
    model, _ = _random_model(*CUT_SHAPES["criterion-6"], g, 1)
    dataset = simulate_linear_scm(1100, LinearScm(x_dim=1), seed=4)
    model.fit_standardizer(dataset.matrix(model.input_nodes))
    mu = _one_predict_per_value(model, dataset.matrix(model.input_nodes), [1.0, 0.0])["Y"]
    assert estimate_gformula(model, dataset).to_dict() == gformula_from_mu(*mu).to_dict()

    model, _ = _random_model(*CUT_SHAPES["aipw-joint"], g, 1)
    scm = LinearScm(x_dim=5, propensity_weights=(0.5,) * 5, outcome_weights=(1.0,) * 5)
    dataset = simulate_linear_scm(600, scm, seed=5)
    batch = dataset.matrix(model.input_nodes)
    model.fit_standardizer(batch)
    mu = _one_predict_per_value(model, batch, [1.0, 0.0])["Y"]
    want = aipw_from_nuisances(dataset.node_column("A").values, dataset.node_column("Y").values,
                               *mu, model.predict(batch)["A"])
    assert estimate_aipw(model, model, dataset).to_dict() == want.to_dict()

    model, batch = _random_model(*CUT_SHAPES["nmmr-u"], g, 50)
    model.fit_standardizer(10.0 * batch)
    draws = {"W": g.normal(5.0, 2.0, 1000)}
    grid = list(np.linspace(10.0, 30.0, 10))
    heldout = np.tile(model.col_mean, (1000, 1))
    heldout[:, model.input_nodes.index("W")] = draws["W"]
    h = _one_predict_per_value(model, heldout, grid)["Y"]
    curve = {a: float(values.mean()) for a, values in zip(grid, h)}
    assert estimate_proximal(model, draws, grid).potential_outcomes == curve


def test_the_observed_treatment_column_is_not_read_by_a_counterfactual():
    model, batch = _generic_model("criterion-6", 7)
    column = model.input_nodes.index("A")
    want = model.counterfactual_predict(batch, [0.0, 1.0])
    batch[:, column] = np.nan  # not a 0/1 value, and no number at all
    got = model.counterfactual_predict(batch, [0.0, 1.0])
    assert all(np.array_equal(got[head], want[head]) for head in model.head_nodes)


@pytest.mark.parametrize("values, error, match", [
    ([1.0, 1.0, 0.0], ContractError, "distinct"),
    ([np.nan, 1.0], ContractError, "finite"),
    ([np.inf], ContractError, "finite"),
    (np.nan, ContractError, "finite"),
    ([], ContractError, "nonempty"),
    ([[1.0, 2.0]], ContractError, "nonempty"),
])
def test_counterfactual_values_are_checked_once_with_a_contract_error(values, error, match):
    model, batch = _generic_model("nmmr-u", 5)
    with pytest.raises(error, match=match):
        model.counterfactual_predict(batch, values)


def test_a_binary_treatment_takes_only_0_or_1():
    model, batch = _generic_model("criterion-6", 5)
    with pytest.raises(DataError, match="node 'A': bad treatment value 0.5"):
        model.counterfactual_predict(batch, [1.0, 0.5])


def test_a_non_finite_held_out_draw_is_a_data_error_naming_its_node():
    model, batch = _generic_model("nmmr-u", 5)
    model.fit_standardizer(batch)
    draws = np.array([0.5, 1.0, np.nan, 2.0])
    with pytest.raises(DataError, match="node 'W': non-finite value at row 2"):
        model.h_hat([10.0, 20.0], {"W": draws})


def test_h_hat_rejects_draws_of_unequal_lengths():
    model, batch = _generic_model("nmmr-u", 5)
    model.fit_standardizer(batch)
    with pytest.raises(ShapeError, match=r"unequal lengths: \[3, 4\]"):
        model.h_hat([10.0], {"W": np.zeros(4), "Z": np.zeros(3)})


def test_a_non_finite_entry_is_a_data_error_naming_its_node_and_row_at_prediction():
    # these returned NaN for both heads, with only a RuntimeWarning
    model, batch = _generic_model("aipw-joint", 3)
    x1 = model.input_nodes.index("X1")
    calls = (model.predict, model.forward, model.attention_maps,
             lambda rows: model.counterfactual_predict(rows, [1.0, 0.0]))
    for bad, row in (((np.nan, np.inf), 1), ((0.0, -np.inf), 2)):
        rows = batch.copy()
        rows[1:, x1] = bad
        for call in calls:
            with pytest.raises(DataError, match=f"node 'X1': non-finite value at row {row}$"):
                call(rows)
    # a counterfactual batch's treatment column is overwritten before it is read
    rows = batch.copy()
    rows[:, model.input_nodes.index("A")] = np.nan
    with pytest.raises(DataError, match="node 'A'"):
        model.predict(rows)
    out = model.counterfactual_predict(rows, [1.0, 0.0])
    assert all(np.isfinite(values).all() for values in out.values())


# -- each parameter is bound once, to what reads it --

def _bound_tensors(model):
    """Every Tensor the model holds outside `params`."""
    found, stack = [], [value for key, value in vars(model).items() if key != "params"]
    while stack:
        value = stack.pop()
        if isinstance(value, tensor.Tensor):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif isinstance(value, dict):
            stack.extend(value.values())
    return found


def _read_parameters(model, batch):
    """The ids of the parameters (leaves that need a gradient) a recording forward reads."""
    read, seen, stack = set(), set(), list(model.forward(batch).values())
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
            if not t._parents and t.needs_grad:
                read.add(id(t))
    return read


@pytest.mark.parametrize("shape", list(CUT_SHAPES))
def test_forward_reads_exactly_the_tensors_in_params(shape):
    # `tune --jobs 2` returns its winner pickled, and `estimate` loads a snapshot
    fresh, batch = _generic_model(shape, 8)
    for model in (fresh, DagTransformer.from_dict(fresh.to_dict()),
                  pickle.loads(pickle.dumps(fresh))):
        params = {id(p) for p in model.params.values()}
        bound = _bound_tensors(model)
        assert len(bound) == len(params) and {id(t) for t in bound} == params
        assert _read_parameters(model, batch) == params
