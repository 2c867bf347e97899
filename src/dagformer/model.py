"""DAG-masked attention model over tabular nodes.

Each DAG node is one position: its value is embedded (affine map for
continuous columns, 2-row lookup for binary ones), a per-node identity
embedding is added, and a pre-norm encoder stack attends only along the
mask compiled from the DAG (parents plus self). Each output head reads the
alpha-weighted encoder slice of its node concatenated with the raw
(standardized) values of that node's observed parents, through a small MLP.
At alpha = 0, the raw-input MLP baseline, it builds and runs no encoder.

Positions that carry an output head feed their identity embedding only, so
a head can never read its own observed value; together with the mask this
makes every head's prediction exactly invariant to non-ancestor columns.

Each weight product, Q, K, V and the head MLP's included, is one tape node
with its bias (`tensor.linear`). Each head reads only its own node's row of
the last layer, and past attention a row depends on no other row. So the last
layer runs Q, K, V, the scores, the softmax and `attn @ v` on every node
(the attention maps are whole), and its output projection, residuals,
second norm, FFN and the final norm on the head rows only. Earlier layers
run on every node. Its three products past attention still run at the full
(batch * nodes, width) shape, forward and in both gradients, with each head
row in its own place and zero rows for the other nodes (`tensor.linear`
with a node mask): BLAS picks its kernel by shape, and a smaller product
rounds some rows differently. So the cut layer gives the floats of the full
layer bit for bit. A criterion-6 training step has 68 tape nodes, a
criterion-9 NMMR-U step 78.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import rng, tensor as T
from .errors import (
    ConfigError, DataError, DegenerateInputError, ShapeError, TrainingDivergedError,
)
from .graph import (
    CausalDag, NodeRole, build_adjacency, build_mask, input_nodes_for, mask_to_additive,
)
from .optim import AdamState, adam_step, zero_grads
from .tensor import Tensor

SNAPSHOT_VERSION = 1


@dataclass
class ModelConfig:
    embedding_dim: int = 16
    num_heads: int = 2
    num_encoder_layers: int = 1
    feedforward_dim: int = 32
    mlp_width: int = 32
    mlp_depth: int = 2
    dropout_rate: float = 0.0
    alpha: float = 0.02
    seed: int = 0

    def __post_init__(self):
        dims = {"embedding_dim": self.embedding_dim, "num_heads": self.num_heads,
                "num_encoder_layers": self.num_encoder_layers,
                "feedforward_dim": self.feedforward_dim, "mlp_width": self.mlp_width,
                "mlp_depth": self.mlp_depth}
        for name, value in dims.items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value}")
        if self.embedding_dim % self.num_heads != 0:
            raise ConfigError(
                f"embedding_dim {self.embedding_dim} not divisible by num_heads {self.num_heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not self.alpha >= 0.0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")


class DagTransformer:
    """Masked-attention model bound to a causal graph and estimation method."""

    def __init__(self, config: ModelConfig, dag: CausalDag, method: str,
                 node_kinds: dict[str, str]):
        self.config = config
        self.method = method
        self.dag = dag
        inputs, heads = input_nodes_for(method, dag)
        self.graph = dag.induced_subgraph(inputs)
        self.input_nodes = list(self.graph.names)
        self.head_nodes = list(heads)
        self.treatment_node = dag.single_node(NodeRole.TREATMENT)
        missing = [n for n in self.input_nodes if n not in node_kinds]
        if missing:
            raise ConfigError(f"no column kind given for nodes {missing}")
        self.node_kinds = {n: node_kinds[n] for n in self.input_nodes}
        for n, kind in self.node_kinds.items():
            if kind not in ("continuous", "binary"):
                raise ConfigError(f"node {n}: unknown kind {kind!r}")
        # the nodes that carry a head, in input order: past its attention, the
        # last encoder layer computes only these rows, as nothing reads the others
        kept = [n for n in self.input_nodes if n in self.head_nodes]
        self._head_mask = np.array([n in kept for n in self.input_nodes])
        self._head_row = {h: kept.index(h) for h in self.head_nodes}
        self.mask = build_mask(build_adjacency(self.graph))
        self._additive_mask = mask_to_additive(self.mask)
        self.head_parents = {h: [p for p in self.graph.names if p in self.graph.parents_of(h)]
                             for h in self.head_nodes}
        # standardization stats per input node; identity until fitted
        d = len(self.input_nodes)
        self.col_mean = np.zeros(d)
        self.col_sd = np.ones(d)
        self.params: dict[str, Tensor] = {}
        self._build_params()

    # -- construction --------------------------------------------------------

    def _init(self, name: str, shape: tuple, bound: float) -> Tensor:
        g = rng.stream(self.config.seed, "init", name)
        t = T.parameter(g.uniform(-bound, bound, shape))
        self.params[name] = t
        return t

    def _const_param(self, name: str, value: np.ndarray) -> Tensor:
        t = T.parameter(value)
        self.params[name] = t
        return t

    def _build_params(self):
        cfg = self.config
        if cfg.alpha > 0:
            self._build_encoder_params()
        for head in self.head_nodes:
            widths = [cfg.embedding_dim + len(self.head_parents[head])]
            widths += [cfg.mlp_width] * cfg.mlp_depth
            widths.append(1)
            for j, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:])):
                self._init(f"head/{head}/w{j}", (w_in, w_out), 1.0 / np.sqrt(w_in))
                self._const_param(f"head/{head}/b{j}", np.zeros(w_out))

    def _build_encoder_params(self):
        """Embedding, identity, encoder and final layer-norm parameters,
        which only the encoder path reads."""
        cfg = self.config
        e, f = cfg.embedding_dim, cfg.feedforward_dim
        bound_e = 1.0 / np.sqrt(e)
        for node in self.input_nodes:
            if node in self.head_nodes:
                continue  # head positions feed their identity embedding only
            if self.node_kinds[node] == "binary":
                self._init(f"embed/{node}/table", (2, e), bound_e)
            else:
                self._init(f"embed/{node}/weight", (1, e), bound_e)
                self._const_param(f"embed/{node}/bias", np.zeros(e))
        self._init("node_identity", (len(self.input_nodes), e), bound_e)
        for i in range(cfg.num_encoder_layers):
            p = f"enc{i}"
            self._const_param(f"{p}/ln1/gain", np.ones(e))
            self._const_param(f"{p}/ln1/bias", np.zeros(e))
            for proj in ("wq", "wk", "wv", "wo"):
                self._init(f"{p}/attn/{proj}", (e, e), bound_e)
                self._const_param(f"{p}/attn/b{proj[1]}", np.zeros(e))
            self._const_param(f"{p}/ln2/gain", np.ones(e))
            self._const_param(f"{p}/ln2/bias", np.zeros(e))
            self._init(f"{p}/ffn/w1", (e, f), bound_e)
            self._const_param(f"{p}/ffn/b1", np.zeros(f))
            self._init(f"{p}/ffn/w2", (f, e), 1.0 / np.sqrt(f))
            self._const_param(f"{p}/ffn/b2", np.zeros(e))
        self._const_param("final_ln/gain", np.ones(e))
        self._const_param("final_ln/bias", np.zeros(e))

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    # -- standardization -----------------------------------------------------

    def fit_standardizer(self, batch: np.ndarray):
        """Record per-column mean/sd (continuous columns) from training data."""
        self._check_batch(batch)
        for i, node in enumerate(self.input_nodes):
            if self.node_kinds[node] == "binary":
                self.col_mean[i], self.col_sd[i] = 0.0, 1.0
            else:
                sd = batch[:, i].std()
                self.col_mean[i] = batch[:, i].mean()
                self.col_sd[i] = sd if sd > 0 else 1.0

    def _standardize(self, batch: np.ndarray) -> np.ndarray:
        return (batch - self.col_mean) / self.col_sd

    def _node_index(self, node: str) -> int:
        try:
            return self.input_nodes.index(node)
        except ValueError:
            raise ConfigError(f"node {node!r} is not a model input") from None

    def _check_batch(self, batch: np.ndarray):
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != len(self.input_nodes):
            raise ShapeError(
                f"batch must be (n, {len(self.input_nodes)}) over nodes {self.input_nodes}, "
                f"got {batch.shape}")
        for i, node in enumerate(self.input_nodes):
            if self.node_kinds[node] == "binary" and not np.isin(batch[:, i], (0.0, 1.0)).all():
                bad = int(np.nonzero(~np.isin(batch[:, i], (0.0, 1.0)))[0][0])
                raise DataError(f"binary column for node {node!r}: bad value at row {bad}")

    # -- forward -------------------------------------------------------------

    def forward(self, batch: np.ndarray, train: bool = False,
                dropout_rng: np.random.Generator | None = None,
                collect_attention: list | None = None) -> dict[str, Tensor]:
        """Predictions per head node, on the model (standardized) scale.

        Treatment-head outputs pass through a sigmoid and live in (0, 1).
        """
        batch = np.asarray(batch, dtype=np.float64)
        self._check_batch(batch)
        cfg = self.config
        if train and cfg.dropout_rate > 0 and dropout_rng is None:
            raise ConfigError("training forward with dropout needs a dropout stream")
        std = self._standardize(batch)

        if cfg.alpha > 0:
            h = T.embed_nodes(self.params["node_identity"], std,
                              [self._value_embedding(node) for node in self.input_nodes])
            last = cfg.num_encoder_layers - 1
            for i in range(cfg.num_encoder_layers):
                keep = self._head_mask if i == last else None
                h = self._encoder_layer(h, i, keep, train, dropout_rng, collect_attention)
            h = T.layer_norm(h, self.params["final_ln/gain"], self.params["final_ln/bias"])

        outputs: dict[str, Tensor] = {}
        for head in self.head_nodes:
            combined = T.take_node(h, self._head_row[head]) * cfg.alpha if cfg.alpha > 0 \
                else Tensor(np.zeros((batch.shape[0], cfg.embedding_dim)))
            parents = self.head_parents[head]
            if parents:
                raw = Tensor(std[:, [self._node_index(p) for p in parents]])
                z = T.concat_lastdim([combined, raw])
            else:
                z = combined
            out = self._head_mlp(head, z, train, dropout_rng)
            if self.graph.role_of(head) is NodeRole.TREATMENT:
                out = T.sigmoid(out)
            outputs[head] = out
        return outputs

    def _value_embedding(self, node: str) -> tuple:
        """The parameters embedding a node's value, in T.embed_nodes' form.
        Binary columns are 0/1 on the standardized scale too."""
        if node in self.head_nodes:
            return ()
        if self.node_kinds[node] == "binary":
            return (self.params[f"embed/{node}/table"],)
        return (self.params[f"embed/{node}/weight"], self.params[f"embed/{node}/bias"])

    def _attention(self, x: Tensor, layer: int, collect_attention) -> Tensor:
        """The attention context of every node, (n, d, e), before the output projection;
        its q, k, v and scores are freed on return when no graph keeps them."""
        cfg = self.config
        p = f"enc{layer}"
        n, d, e = x.shape
        heads, dh = cfg.num_heads, e // cfg.num_heads

        xn = T.layer_norm(x, self.params[f"{p}/ln1/gain"], self.params[f"{p}/ln1/bias"])
        q = T.linear(xn, self.params[f"{p}/attn/wq"], self.params[f"{p}/attn/bq"])
        k = T.linear(xn, self.params[f"{p}/attn/wk"], self.params[f"{p}/attn/bk"])
        v = T.linear(xn, self.params[f"{p}/attn/wv"], self.params[f"{p}/attn/bv"])

        def split_heads(t):
            return T.transpose(T.reshape(t, (n, d, heads, dh)), (0, 2, 1, 3))

        q, k, v = split_heads(q), split_heads(k), split_heads(v)
        scores = T.matmul(q, T.swap_last2(k)) * (1.0 / np.sqrt(dh))
        scores = scores + Tensor(self._additive_mask)
        attn = T.softmax_lastdim(scores)
        if collect_attention is not None:
            collect_attention.append(attn.data.copy())
        ctx = T.matmul(attn, v)  # (n, heads, d, dh)
        return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (n, d, e))

    def _encoder_layer(self, x: Tensor, layer: int, keep: np.ndarray | None, train: bool,
                       dropout_rng, collect_attention) -> Tensor:
        """One pre-norm layer. Attention runs over all nodes; from its output
        projection on, only the nodes in `keep` (all when None) are computed."""
        cfg = self.config
        p = f"enc{layer}"
        ctx = T.linear(self._attention(x, layer, collect_attention),
                       self.params[f"{p}/attn/wo"], self.params[f"{p}/attn/bo"], keep)
        ctx = T.dropout(ctx, cfg.dropout_rate, train, dropout_rng, keep)
        x = T.take_nodes(x, keep) + ctx

        xn = T.layer_norm(x, self.params[f"{p}/ln2/gain"], self.params[f"{p}/ln2/bias"])
        ff = T.relu(T.linear(xn, self.params[f"{p}/ffn/w1"], self.params[f"{p}/ffn/b1"], keep))
        ff = T.linear(ff, self.params[f"{p}/ffn/w2"], self.params[f"{p}/ffn/b2"], keep)
        ff = T.dropout(ff, cfg.dropout_rate, train, dropout_rng, keep)
        return x + ff

    def _head_mlp(self, head: str, z: Tensor, train: bool, dropout_rng) -> Tensor:
        cfg = self.config
        out = z
        for j in range(cfg.mlp_depth + 1):
            out = T.linear(out, self.params[f"head/{head}/w{j}"], self.params[f"head/{head}/b{j}"])
            if j < cfg.mlp_depth:
                out = T.relu(out)
                out = T.dropout(out, cfg.dropout_rate, train, dropout_rng)
        return T.reshape(out, (out.shape[0],))

    def attention_maps(self, batch: np.ndarray) -> list[np.ndarray]:
        """Post-softmax attention weights per layer, each (n, heads, d, d)."""
        maps: list[np.ndarray] = []
        with T.no_grad():
            self.forward(batch, train=False, collect_attention=maps)
        return maps

    # -- prediction ----------------------------------------------------------

    def _destandardize_head(self, head: str, values: np.ndarray) -> np.ndarray:
        if self.graph.role_of(head) is NodeRole.TREATMENT:
            return values  # probability scale
        i = self._node_index(head)
        return values * self.col_sd[i] + self.col_mean[i]

    def predict(self, batch: np.ndarray) -> dict[str, np.ndarray]:
        """Deterministic raw-scale predictions per head, with no graph recorded."""
        with T.no_grad():
            outs = self.forward(batch, train=False)
        return {head: self._destandardize_head(head, t.data) for head, t in outs.items()}

    def counterfactual_predict(self, batch: np.ndarray, value: float) -> dict[str, np.ndarray]:
        """Predictions with the treatment column overwritten by `value`."""
        batch = np.array(batch, dtype=np.float64, copy=True)
        batch[:, self._node_index(self.treatment_node)] = value
        return self.predict(batch)

    def mu_hat(self, dataset, a: float) -> np.ndarray:
        """Counterfactual outcome predictions on a dataset's rows."""
        outcome = self.dag.single_node(NodeRole.OUTCOME)
        if outcome not in self.head_nodes:
            raise ConfigError(f"model has no outcome head (heads: {self.head_nodes})")
        batch = dataset.matrix(self.input_nodes)
        return self.counterfactual_predict(batch, a)[outcome]

    def pi_hat(self, dataset) -> np.ndarray:
        """Propensity predictions on a dataset's rows."""
        if self.treatment_node not in self.head_nodes:
            raise ConfigError(f"model has no treatment head (heads: {self.head_nodes})")
        batch = dataset.matrix(self.input_nodes)
        return self.predict(batch)[self.treatment_node]

    def h_hat(self, a: float, draws: dict[str, np.ndarray]) -> np.ndarray:
        """Bridge-function values h(a, draws) averaged over by the caller.

        Input columns absent from `draws` (other than the treatment) are
        filled with their training means.
        """
        outcome = self.dag.single_node(NodeRole.OUTCOME)
        if outcome not in self.head_nodes:
            raise ConfigError(f"model has no outcome head (heads: {self.head_nodes})")
        sizes = {np.asarray(v).size for v in draws.values()}
        if len(sizes) != 1:
            raise ShapeError(f"heldout draws have unequal lengths: {sorted(sizes)}")
        (m,) = sizes
        batch = np.tile(self.col_mean, (m, 1))
        for node, values in draws.items():
            batch[:, self._node_index(node)] = np.asarray(values, dtype=np.float64)
        batch[:, self._node_index(self.treatment_node)] = a
        return self.predict(batch)[outcome]

    # -- snapshots -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format_version": SNAPSHOT_VERSION,
            "config": asdict(self.config),
            "method": self.method,
            "dag": self.dag.to_dict(),
            "node_kinds": self.node_kinds,
            "input_nodes": self.input_nodes,
            "standardizer": {"mean": self.col_mean.tolist(), "sd": self.col_sd.tolist()},
            "params": {name: p.data.tolist() for name, p in self.params.items()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DagTransformer":
        if d.get("format_version") != SNAPSHOT_VERSION:
            raise ConfigError(f"unsupported snapshot version {d.get('format_version')!r}")
        config = dict(d["config"])
        if config.pop("encoder_bypass", False):  # older format-1 name of alpha = 0
            config["alpha"] = 0.0
        model = cls(ModelConfig(**config), CausalDag.from_dict(d["dag"]),
                    d["method"], d["node_kinds"])
        if model.input_nodes != d["input_nodes"]:
            raise ConfigError("snapshot node order does not match rebuilt model")
        model.col_mean = np.asarray(d["standardizer"]["mean"], dtype=np.float64)
        model.col_sd = np.asarray(d["standardizer"]["sd"], dtype=np.float64)
        for name, values in d["params"].items():
            if model.config.alpha == 0 and not name.startswith("head/"):
                continue  # an older alpha = 0 snapshot's encoder, which multiplies zero
            if name not in model.params:
                raise ConfigError(f"snapshot has unknown parameter {name!r}")
            arr = np.asarray(values, dtype=np.float64)
            if arr.shape != model.params[name].data.shape:
                raise ConfigError(f"snapshot parameter {name!r} has shape {arr.shape}, "
                                  f"expected {model.params[name].data.shape}")
            model.params[name].data = arr
        return model

    def save(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "DagTransformer":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train_model(model: DagTransformer, dataset, objective, optimizer: AdamState,
                epochs: int, batch_size: int, seed: int | None = None) -> list[dict]:
    """Mini-batch training; returns the per-epoch log. The model is updated
    in place and is unchanged when epochs == 0.
    """
    if epochs < 0 or batch_size < objective.min_rows:  # a smaller batch would be skipped
        raise ConfigError(f"bad training sizes: epochs={epochs}, batch_size={batch_size}; "
                          f"the objective needs batches of at least {objective.min_rows} rows")
    heads = [model.dag.single_node(role) for role in objective.head_roles]
    if sorted(heads) != sorted(model.head_nodes):
        raise ConfigError(f"{type(objective).__name__} objective trains heads {heads}; "
                          f"model has heads {model.head_nodes}")

    seed = model.config.seed if seed is None else seed
    batch_all = dataset.matrix(model.input_nodes)
    n = batch_all.shape[0]
    if n < objective.min_rows:
        raise DataError(f"the training dataset's row count, {n}, is below the "
                        f"objective's minimum of {objective.min_rows}")
    model.fit_standardizer(batch_all)
    batch_loss = objective.bind(model, batch_all, model._standardize(batch_all))

    params = model.parameters()
    dropout_rng = rng.stream(seed, "dropout")
    log: list[dict] = []
    # overflow/invalid produce a non-finite loss, which is detected below and
    # escalated to TrainingDivergedError; the interim FP warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            perm = rng.stream(seed, "shuffle", epoch).permutation(n)
            losses = []
            mses = []
            for start in range(0, n, batch_size):
                rows = perm[start:start + batch_size]
                if rows.size < objective.min_rows:
                    continue
                try:
                    preds = model.forward(batch_all[rows], train=True,
                                          dropout_rng=dropout_rng)
                except DegenerateInputError as exc:
                    # scores overflowing to -inf across a whole row means the
                    # parameters blew up, not that the mask is malformed
                    raise TrainingDivergedError(
                        f"attention scores overflowed at epoch {epoch}, "
                        f"batch {start // batch_size}: {exc}",
                        epoch=epoch, batch=start // batch_size) from exc
                loss, mse = batch_loss(preds, rows)
                value = float(loss.data)
                if mse is not None:
                    mses.append(float(mse.data))
                if not np.isfinite(value):
                    raise TrainingDivergedError(
                        f"non-finite loss {value} at epoch {epoch}, "
                        f"batch {start // batch_size}",
                        epoch=epoch, batch=start // batch_size)
                zero_grads(params)
                T.backward(loss)
                adam_step(params, optimizer)
                losses.append(value)
            entry = {"epoch": epoch, "loss": float(np.mean(losses))}
            if mses:
                outcome = model.dag.single_node(NodeRole.OUTCOME)
                outcome_sd = float(model.col_sd[model._node_index(outcome)])
                entry["mse_raw"] = float(np.mean(mses)) * outcome_sd ** 2
            log.append(entry)
    return log
