"""DAG-masked attention model over tabular nodes.

Each DAG node is one position: its value is embedded (affine map for
continuous columns, 2-row lookup for binary ones), a per-node identity
embedding is added, and a pre-norm encoder stack attends only along the
mask compiled from the DAG (parents plus self). Each output head reads the
alpha-weighted encoder slice of its node concatenated with the raw
(standardized) values of that node's observed parents, through a small MLP.
At alpha = 0, the raw-input MLP baseline, it builds and runs no encoder.
Which roles a method's model reads, and which carry its heads, is one table,
`graph.METHOD_ROLES`; the model names its treatment and outcome nodes once.

Positions that carry an output head feed their identity embedding only, so
a head can never read its own observed value; together with the mask this
makes every head's prediction exactly invariant to non-ancestor columns.
No position but its own attends to a column that only the method's
objective reads (the table's third entry), so no head reads it at any depth.

Attention, from a layer's input through its first norm, Q, K, V, the masked
softmax and `attn @ v` to the merged heads, is one tape node
(`tensor.attention`), with the floats of that chain of ops. Every other
weight product, the head MLP's included, is one tape node with its bias
(`tensor.linear`). Each head reads only its own node's row of the last layer,
and past attention a row depends on no other row. So the last layer runs
attention on every node (the attention maps are whole), and its output
projection, residuals, second norm, FFN and the final norm on the head rows
only. Earlier layers run on every node. Its three products past attention
(`tensor.linear` with a node mask) multiply the head rows only, whether or
not a graph is recorded, one row padded to two: each row of a product of
two rows or more has the float of its row in the full product, and one row
alone takes BLAS's gemv, which rounds otherwise. Their gradients run at the
full (batch * nodes, width) shape, with each head row in its own place and
zero rows for the other nodes, so that every gradient keeps the floats of
the full layer. So the cut layer gives the floats of the full layer bit for
bit, in prediction and in training. The tape lists ops only, not the
parameters they read: a criterion-6 training step has 22 tape nodes, a
criterion-9 NMMR-U step 29.

Counterfactual predictions (`counterfactual_predict`, and so `mu_hat`,
`h_hat` and every estimator) take all their treatment values in one no-tape
pass per row block (`_counterfactual_forward`). Only the treatment's own
row reads the value. So a block computes once, for every value, each node's
embedding, the first layer's norm, K and V, and Q of the rows that layer
queries: the head rows alone when it is the last layer. Per value it
computes the treatment's row, when that has a value embedding, as two
identical rows (one row alone would take gemv), writes it into its column,
and runs the first layer's scores, softmax and `attn @ v` for the queried
rows, a one-row operand again padded to two; every later layer, the final
norm and the heads run per value as `forward` runs them. The floats are
those of one forward pass per value: the shared K and V are the same
products, every other GEMM row has the float of its row in the full
product, and each softmax and norm row is reduced on its own. The
key/value nodes of the scores stay all the nodes: dropping the barred
column's keys changes the floats. The criterion-9 bridge's ten-price
estimate over 1,000 draws takes 20-28 ms against 43-58 ms for ten passes,
and a criterion-6 G-formula estimate at n = 5,000 12-13 ms against
15-17 ms (2 vCPUs, one BLAS thread).

Each parameter is named once, where it is registered in `params`, and is
bound there to the embedding, encoder layer or head that reads it; `forward`
reads the bound tensors and looks up no name.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import rng, tensor as T
from .errors import (
    ConfigError, ContractError, DataError, DegenerateInputError, ShapeError,
    TrainingDivergedError, is_number,
)
from .graph import (
    METHOD_ROLES, CausalDag, NodeRole, build_adjacency, build_mask, input_nodes_for,
    mask_to_additive,
)
from .optim import AdamState, adam_step, zero_grads
from .tensor import Tensor

# rows per block of a no-grad forward pass (`DagTransformer._forward_blocks`), a
# multiple of 16. Every block but the last holds exactly this many rows, so each
# row keeps its place against the row remainder (rows mod 4) of every
# (rows * nodes, K) product, and of the last layer's (rows * heads, K) products
# past attention, and gets the float of one whole-batch pass; ceil(n / B)
# near-equal blocks do not. 512 was measured: a criterion-6 G-formula
# estimate's two 5,000-row predicts take 23 ms in blocks of 512 rows, 24 ms in
# blocks of 1,024, 27 ms in blocks of 256 and 31 ms in one pass (Xeon, 2 vCPUs,
# one BLAS thread; medians of 7).
_PREDICT_ROWS = 512


def treatment_values(values) -> np.ndarray:
    """Counterfactual treatment values as a 1-D float array: a number, or a
    nonempty sequence of distinct finite numbers (a ContractError otherwise)."""
    items = np.asarray(values, dtype=object)  # not converted yet: "1" stays a string
    if items.ndim > 1 or items.size == 0 or not all(map(is_number, items.flat)):
        raise ContractError(f"treatment values must be a number or a nonempty sequence of "
                            f"numbers, got {values!r}")
    treatment = np.atleast_1d(items.astype(np.float64))
    if not np.isfinite(treatment).all():
        raise ContractError(f"treatment values must be finite, got {treatment.tolist()}")
    if (np.diff(np.sort(treatment)) == 0).any():
        raise ContractError(f"treatment values must be distinct, got {treatment.tolist()}")
    return treatment


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
        for name in ("embedding_dim", "num_heads", "num_encoder_layers", "feedforward_dim",
                     "mlp_width", "mlp_depth"):
            value = getattr(self, name)
            if not is_number(value, int) or value <= 0:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not (self.seed is None or is_number(self.seed, int)):
            raise ConfigError(f"seed must be an integer or None, got {self.seed!r}")
        if self.embedding_dim % self.num_heads != 0:
            raise ConfigError(
                f"embedding_dim {self.embedding_dim} not divisible by num_heads {self.num_heads}")
        if not is_number(self.dropout_rate) or not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be a number in [0, 1), got {self.dropout_rate!r}")
        if not is_number(self.alpha) or not 0.0 <= self.alpha < np.inf:
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha!r}")


class DagTransformer:
    """Masked-attention model bound to a causal graph and estimation method.

    `params` maps each parameter's name to its Tensor in registration order,
    which `parameters()` keeps. The same Tensors are bound, when the model is
    built, to the code that reads them, so a parameter's `.data` may be
    replaced, but never its `Tensor`.
    """

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
        self.outcome_node = dag.single_node(NodeRole.OUTCOME)
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
        self.mask = build_mask(build_adjacency(self.graph))
        self._barred = np.array([role in METHOD_ROLES[method][2] for role in self.graph.roles])
        self.mask[:, self._barred] = 1
        self.mask[self._barred, self._barred] = 0  # its own row keeps its self-attention
        self._additive_mask = mask_to_additive(self.mask)
        self.head_parents = {h: self.graph.parents_of(h) for h in self.head_nodes}
        # standardization stats per input node; identity until fitted
        d = len(self.input_nodes)
        self.col_mean = np.zeros(d)
        self.col_sd = np.ones(d)
        self.params: dict[str, Tensor] = {}
        self._build_params(kept)

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

    def _build_params(self, kept: list[str]):
        """Registers every parameter in `params` and binds it to what reads it:
        per head its row among the `kept` rows of the last layer, its parents'
        columns and its MLP's (weight, bias) pairs."""
        cfg = self.config
        if cfg.alpha > 0:
            self._build_encoder_params()
        self._heads = {}
        for head in self.head_nodes:
            parents = self.head_parents[head]
            widths = [cfg.embedding_dim + len(parents)]
            widths += [cfg.mlp_width] * cfg.mlp_depth
            widths.append(1)
            mlp = [(self._init(f"head/{head}/w{j}", (w_in, w_out), 1.0 / np.sqrt(w_in)),
                    self._const_param(f"head/{head}/b{j}", np.zeros(w_out)))
                   for j, (w_in, w_out) in enumerate(zip(widths[:-1], widths[1:]))]
            self._heads[head] = (kept.index(head), [self._node_index(p) for p in parents], mlp)

    def _build_encoder_params(self):
        """Embedding, identity, encoder and final layer-norm parameters, which
        only the encoder path reads: each node's value embedding in
        `T.embed_nodes`' form, and each layer's 16 tensors in the order
        `_encoder_layer` unpacks them."""
        cfg = self.config
        e, f = cfg.embedding_dim, cfg.feedforward_dim
        bound_e = 1.0 / np.sqrt(e)
        self._embeddings = []
        for node in self.input_nodes:
            if node in self.head_nodes:
                embedding = ()  # head positions feed their identity embedding only
            elif self.node_kinds[node] == "binary":  # 0/1 on the standardized scale too
                embedding = (self._init(f"embed/{node}/table", (2, e), bound_e),)
            else:
                embedding = (self._init(f"embed/{node}/weight", (1, e), bound_e),
                             self._const_param(f"embed/{node}/bias", np.zeros(e)))
            self._embeddings.append(embedding)
        self._identity = self._init("node_identity", (len(self.input_nodes), e), bound_e)
        self._layers = []
        for i in range(cfg.num_encoder_layers):
            p = f"enc{i}"
            layer = [self._const_param(f"{p}/ln1/gain", np.ones(e)),
                     self._const_param(f"{p}/ln1/bias", np.zeros(e))]
            for proj in ("wq", "wk", "wv", "wo"):
                layer += [self._init(f"{p}/attn/{proj}", (e, e), bound_e),
                          self._const_param(f"{p}/attn/b{proj[1]}", np.zeros(e))]
            layer += [self._const_param(f"{p}/ln2/gain", np.ones(e)),
                      self._const_param(f"{p}/ln2/bias", np.zeros(e)),
                      self._init(f"{p}/ffn/w1", (e, f), bound_e),
                      self._const_param(f"{p}/ffn/b1", np.zeros(f)),
                      self._init(f"{p}/ffn/w2", (f, e), 1.0 / np.sqrt(f)),
                      self._const_param(f"{p}/ffn/b2", np.zeros(e))]
            self._layers.append(tuple(layer))
        self._final_ln = (self._const_param("final_ln/gain", np.ones(e)),
                          self._const_param("final_ln/bias", np.zeros(e)))

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    # -- standardization -----------------------------------------------------

    def fit_standardizer(self, batch: np.ndarray):
        """Record per-column mean/sd (continuous columns) from training data.

        A column whose mean or spread overflows float64 is a DataError naming
        its node: it would standardize to 0 or to NaN.
        """
        self._check_batch(batch)
        for i, node in enumerate(self.input_nodes):
            if self.node_kinds[node] == "binary":
                self.col_mean[i], self.col_sd[i] = 0.0, 1.0
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                mean, sd = batch[:, i].mean(), batch[:, i].std()
            if not (np.isfinite(mean) and np.isfinite(sd)):
                raise DataError(f"column for node {node!r}: its mean or spread overflows float64")
            self.col_mean[i] = mean
            self.col_sd[i] = sd if sd > 0 else 1.0

    def _standardize(self, batch: np.ndarray) -> np.ndarray:
        return (batch - self.col_mean) / self.col_sd

    def _node_index(self, node: str) -> int:
        try:
            return self.input_nodes.index(node)
        except ValueError:
            raise ConfigError(f"node {node!r} is not a model input") from None

    def _check_batch(self, batch: np.ndarray, counterfactual: bool = False):
        """Checks the batch's shape, that each column is finite and each binary
        one 0 or 1, but not the treatment column of a `counterfactual` batch,
        which the pass overwrites before it reads it."""
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[1] != len(self.input_nodes):
            raise ShapeError(
                f"batch must be (n, {len(self.input_nodes)}) over nodes {self.input_nodes}, "
                f"got {batch.shape}")
        for i, node in enumerate(self.input_nodes):
            if counterfactual and node == self.treatment_node:
                continue
            bad = np.flatnonzero(~np.isfinite(batch[:, i]))
            if bad.size:
                raise DataError(f"column for node {node!r}: non-finite value at row {bad[0]}")
            if self.node_kinds[node] == "binary" and not np.isin(batch[:, i], (0.0, 1.0)).all():
                bad = int(np.nonzero(~np.isin(batch[:, i], (0.0, 1.0)))[0][0])
                raise DataError(f"binary column for node {node!r}: bad value at row {bad}")

    # -- forward -------------------------------------------------------------

    def forward(self, batch: np.ndarray, dropout_rng: np.random.Generator | None = None,
                collect_attention: list | None = None, *,
                standardized: bool = False) -> dict[str, Tensor]:
        """Predictions per head node, on the model (standardized) scale.

        Treatment-head outputs pass through a sigmoid and live in (0, 1).
        Dropout runs when a `dropout_rng` stream is given, as in training;
        without one the forward pass is deterministic. A `standardized` batch
        is taken as checked and on the model scale: `train_model` passes rows
        of the training batch that it checked and standardized once.
        """
        if not standardized:
            batch = np.asarray(batch, dtype=np.float64)
            self._check_batch(batch)
            batch = self._standardize(batch)
        return self._forward(batch, dropout_rng, collect_attention)

    def _forward(self, std: np.ndarray, dropout_rng, collect_attention) -> dict[str, Tensor]:
        """`forward` on a standardized batch whose raw rows `_check_batch` passed."""
        h = None
        if self.config.alpha > 0:
            h = self._encode(T.embed_nodes(self._identity, std, self._embeddings), 0,
                             dropout_rng, collect_attention)
        return self._head_outputs(h, std, dropout_rng)

    def _encode(self, h: Tensor, start: int, dropout_rng, collect_attention) -> Tensor:
        """The encoder layers from layer `start` on, then the final norm: the
        last layer computes the head rows only past its attention."""
        for i in range(start, len(self._layers)):
            keep = self._head_mask if i == len(self._layers) - 1 else None
            h = self._encoder_layer(h, self._layers[i], keep, dropout_rng, collect_attention)
        return T.layer_norm(h, *self._final_ln)

    def _head_outputs(self, h: Tensor | None, std: np.ndarray, dropout_rng) -> dict[str, Tensor]:
        """Each head's MLP on its row of the final norm `h` (None at alpha = 0)
        and its parents' columns of the standardized batch."""
        cfg = self.config
        outputs: dict[str, Tensor] = {}
        for head, (row, parent_columns, mlp) in self._heads.items():
            z = T.take_node(h, row, cfg.alpha) if cfg.alpha > 0 \
                else Tensor(np.zeros((std.shape[0], cfg.embedding_dim)))
            if parent_columns:
                z = T.concat_lastdim([z, Tensor(std[:, parent_columns])])
            for j, (w, b) in enumerate(mlp):
                z = T.linear(z, w, b)
                if j < cfg.mlp_depth:
                    z = T.relu(z)
                    z = T.dropout(z, cfg.dropout_rate, dropout_rng)
            out = T.reshape(z, (z.shape[0],))
            if head == self.treatment_node:
                out = T.sigmoid(out)
            outputs[head] = out
        return outputs

    def _counterfactual_forward(self, std: np.ndarray,
                                treatment: np.ndarray) -> list[dict[str, Tensor]]:
        """`_forward`'s outputs on a standardized block, with no graph recorded,
        for each standardized `treatment` value in turn, written into the
        block's treatment column. The module docstring sets out what runs once
        per block and what per value. A treatment that feeds its identity row
        only leaves the encoder the same for every value, so it runs once."""
        cfg, t = self.config, self._node_index(self.treatment_node)
        std[:, t] = treatment[0]
        if cfg.alpha > 0:
            first = self._layers[0]
            ln_gain, ln_bias, wq, bq, wk, bk, wv, bv = first[:8]
            keep = self._head_mask if len(self._layers) == 1 else None
            x = T.embed_nodes(self._identity, std, self._embeddings)
            xn = T.layer_norm(x, ln_gain, ln_bias).data
            x = T.take_nodes(x, keep)  # the residual's rows, which alone stay
            q, k, v = T.attention_projections(
                xn, [(wq, bq, keep), (wk, bk, None), (wv, bv, None)], cfg.num_heads)
            xn = None
            mask = self._additive_mask if keep is None else self._additive_mask[keep]
            varies = bool(self._embeddings[t])  # a head's row feeds its identity only
            # the arrays that hold the treatment's row: Q only if every node is queried
            columns = [(k, wk, bk), (v, wv, bv)] + ([(q, wq, bq)] if keep is None else [])
        h, outputs = None, []
        for value in treatment:
            std[:, t] = value
            if cfg.alpha > 0 and (varies or h is None):
                if varies:
                    row = T.embed_nodes(Tensor(self._identity.data[t:t + 1]),
                                        np.full((2, 1), value), [self._embeddings[t]])
                    parts = T.attention_projections(T.layer_norm(row, ln_gain, ln_bias).data,
                                                    [(w, b, None) for _, w, b in columns],
                                                    cfg.num_heads)
                    for (full, _, _), part in zip(columns, parts):
                        full[:, :, t] = part[0, :, 0]
                    if keep is None:
                        x.data[:, t] = row.data[0, 0]
                h = self._encoder_tail(x, Tensor(T.attend(q, k, v, mask)), first, keep, None)
                h = self._encode(h, 1, None, None)
            outputs.append(self._head_outputs(h, std, None))
        return outputs

    def _encoder_layer(self, x: Tensor, layer: tuple, keep: np.ndarray | None, dropout_rng,
                       collect_attention) -> Tensor:
        """One pre-norm layer. Attention runs over all nodes; from its output
        projection on, only the nodes in `keep` (all when None) are computed."""
        ctx = T.attention(x, *layer[:8], self._additive_mask, self.config.num_heads,
                          collect_attention)
        return self._encoder_tail(x, ctx, layer, keep, dropout_rng)

    def _encoder_tail(self, x: Tensor, ctx: Tensor, layer: tuple, keep: np.ndarray | None,
                      dropout_rng) -> Tensor:
        """A layer from attention's output `ctx` (of every node, or of the
        nodes in `keep` only) on: the output projection, residual and FFN
        sublayer on the nodes in `keep`."""
        cfg = self.config
        wo, bo, ln2_gain, ln2_bias, w1, b1, w2, b2 = layer[8:]
        ctx = T.linear(ctx, wo, bo, keep)
        ctx = T.dropout(ctx, cfg.dropout_rate, dropout_rng, keep)
        x = T.take_nodes(x, keep) + ctx

        xn = T.layer_norm(x, ln2_gain, ln2_bias)
        ff = T.relu(T.linear(xn, w1, b1, keep))
        ff = T.linear(ff, w2, b2, keep)
        ff = T.dropout(ff, cfg.dropout_rate, dropout_rng, keep)
        return x + ff

    def attention_maps(self, batch: np.ndarray) -> list[np.ndarray]:
        """Post-softmax attention weights per layer, each (n, heads, d, d)."""
        maps: list[np.ndarray] = []
        self._forward_blocks(batch, maps)
        return maps

    def _forward_blocks(self, batch: np.ndarray, collect_attention: list | None = None,
                        treatment: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """`forward`'s values per head, on the model scale, with no graph
        recorded and in blocks of `_PREDICT_ROWS` rows: the last block takes
        the tail, so a batch under twice that runs as one pass. Each head's
        values are (1, n), or with standardized `treatment` values, (values, n)
        from `_counterfactual_forward`. Each layer's attention maps are
        appended to `collect_attention` whole. The batch is checked once,
        before it is cut, so an error names its row in `batch`."""
        batch = np.asarray(batch, dtype=np.float64)
        self._check_batch(batch, counterfactual=treatment is not None)
        n = batch.shape[0]
        starts = range(0, max(n // _PREDICT_ROWS, 1) * _PREDICT_ROWS, _PREDICT_ROWS)
        count = 1 if treatment is None else len(treatment)
        outputs = {head: np.empty((count, n)) for head in self.head_nodes}
        block_maps = []
        with T.no_grad():
            for lo, hi in zip(starts, [*starts[1:], n]):
                std = self._standardize(batch[lo:hi])
                if treatment is None:
                    block_maps.append(None if collect_attention is None else [])
                    results = [self._forward(std, None, block_maps[-1])]
                else:
                    results = self._counterfactual_forward(std, treatment)
                for j, result in enumerate(results):
                    for head, out in result.items():
                        outputs[head][j, lo:hi] = out.data
        if collect_attention is not None:
            collect_attention.extend(np.concatenate(layer) for layer in zip(*block_maps))
        return outputs

    # -- prediction ----------------------------------------------------------

    def _destandardize_head(self, head: str, values: np.ndarray) -> np.ndarray:
        if head == self.treatment_node:
            return values  # probability scale
        i = self._node_index(head)
        return values * self.col_sd[i] + self.col_mean[i]

    def predict(self, batch: np.ndarray) -> dict[str, np.ndarray]:
        """Deterministic raw-scale predictions per head, with no graph recorded."""
        return {head: self._destandardize_head(head, values[0])
                for head, values in self._forward_blocks(batch).items()}

    def counterfactual_predict(self, batch: np.ndarray, values) -> dict[str, np.ndarray]:
        """Predictions with the treatment column set to each of `values` in
        turn: per head, an array of shape `np.shape(values) + (n,)`, so one
        value gives (n,). Every row block takes all the values in one pass
        (`_counterfactual_forward`)."""
        treatment = self._treatment_values(values)
        t = self._node_index(self.treatment_node)
        outputs = self._forward_blocks(
            batch, treatment=(treatment - self.col_mean[t]) / self.col_sd[t])
        shape = np.shape(values) + (np.shape(batch)[0],)
        return {head: self._destandardize_head(head, out).reshape(shape)
                for head, out in outputs.items()}

    def _treatment_values(self, values) -> np.ndarray:
        """`values` as a checked 1-D array: `treatment_values`, and 0 or 1
        each for a binary treatment (a DataError otherwise)."""
        treatment = treatment_values(values)
        if self.node_kinds[self.treatment_node] == "binary" and \
                not np.isin(treatment, (0.0, 1.0)).all():
            bad = treatment[~np.isin(treatment, (0.0, 1.0))][0]
            raise DataError(f"binary column for node {self.treatment_node!r}: "
                            f"bad treatment value {bad}")
        return treatment

    def _require_head(self, node: str, role: str):
        if node not in self.head_nodes:
            raise ConfigError(f"model has no {role} head (heads: {self.head_nodes})")

    def mu_hat(self, dataset, a) -> np.ndarray:
        """Counterfactual outcome predictions on a dataset's rows, per
        treatment value of `a` as `counterfactual_predict` shapes them."""
        self._require_head(self.outcome_node, "outcome")
        return self.counterfactual_predict(dataset.matrix(self.input_nodes), a)[self.outcome_node]

    def pi_hat(self, dataset) -> np.ndarray:
        """Propensity predictions on a dataset's rows."""
        self._require_head(self.treatment_node, "treatment")
        return self.predict(dataset.matrix(self.input_nodes))[self.treatment_node]

    def h_hat(self, a, draws: dict[str, np.ndarray]) -> np.ndarray:
        """Bridge-function values h(a, draws), averaged over by the caller, per
        treatment value of `a` as `counterfactual_predict` shapes them.

        Input columns absent from `draws` (other than the treatment) are
        filled with their training means. A non-finite draw is a DataError
        naming its node (`_check_batch`).
        """
        self._require_head(self.outcome_node, "outcome")
        sizes = {np.asarray(v).size for v in draws.values()}
        if len(sizes) != 1:
            raise ShapeError(f"heldout draws have unequal lengths: {sorted(sizes)}")
        (m,) = sizes
        batch = np.tile(self.col_mean, (m, 1))
        for node, values in draws.items():
            batch[:, self._node_index(node)] = values
        return self.counterfactual_predict(batch, a)[self.outcome_node]

    # -- snapshots -----------------------------------------------------------

    @property
    def _snapshot_version(self) -> int:
        """2 for a model that bars a column its heads would otherwise reach: one
        with a barred column and two or more encoder layers. 1 for every other
        model, whose floats the barring does not change."""
        cfg = self.config
        return 2 if self._barred.any() and cfg.alpha > 0 and cfg.num_encoder_layers > 1 else 1

    def to_dict(self) -> dict:
        return {
            "format_version": self._snapshot_version,
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
        version = d.get("format_version")
        if version not in (1, 2):
            raise ConfigError(f"unsupported snapshot version {version!r}")
        config = dict(d["config"])
        if config.pop("encoder_bypass", False):  # older format-1 name of alpha = 0
            config["alpha"] = 0.0
        model = cls(ModelConfig(**config), CausalDag.from_dict(d["dag"]),
                    d["method"], d["node_kinds"])
        if model.input_nodes != d["input_nodes"]:
            raise ConfigError("snapshot node order does not match rebuilt model")
        if version < model._snapshot_version:
            barred = [n for n, b in zip(model.input_nodes, model._barred) if b]
            raise ConfigError(f"snapshot version 1 predates barring {barred} from the heads "
                              f"of a model with more than one encoder layer; retrain it")
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
    std_all = model._standardize(batch_all)
    batch_loss = objective.bind(model, batch_all, std_all)

    params = model.parameters()
    dropout_rng = rng.stream(seed, "dropout")
    log: list[dict] = []
    try:
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
                        preds = model.forward(std_all[rows], dropout_rng, standardized=True)
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
                    outcome_sd = float(model.col_sd[model._node_index(model.outcome_node)])
                    entry["mse_raw"] = float(np.mean(mses)) * outcome_sd ** 2
                log.append(entry)
    finally:  # the model leaves with no gradient, also when training raises
        zero_grads(params)
    return log
