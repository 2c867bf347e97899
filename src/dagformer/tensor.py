"""Dense float64 arrays with reverse-mode automatic differentiation.

Every operation records its inputs and a backward rule on the produced
tensor; ``backward(loss)`` replays those rules in reverse topological order.
Sized for models with at most a few hundred thousand parameters, CPU only.
"""

import contextlib

import numpy as np

from .errors import ContractError, DegenerateInputError, ShapeError

__all__ = [
    "Tensor", "GradientTape", "tensor", "constant", "parameter", "backward", "no_grad",
    "matmul", "add", "sub", "mul", "div", "neg", "pow_scalar", "exp", "log",
    "relu", "sigmoid", "clip", "transpose", "swap_last2", "reshape",
    "concat_lastdim", "take_node", "take_nodes", "linear", "sum_all", "mean_all", "sum_axis",
    "sum_squares", "softmax_lastdim", "layer_norm", "dropout", "embed_nodes",
]


class Tensor:
    """A node in the autodiff graph wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "needs_grad", "_parents", "_backward",
                 "_consumed")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        # whether a gradient reaches this tensor: a parameter, or an op output
        # recorded with a parent that needs one; fixed once the node is built
        self.needs_grad = self.requires_grad or bool(_parents)
        self.grad = None
        self._parents = _parents
        self._backward = _backward
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars and ndarrays are wrapped as constants
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __pow__(self, p):
        return pow_scalar(self, p)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def constant(data) -> Tensor:
    return Tensor(data)


def parameter(data) -> Tensor:
    return Tensor(data, requires_grad=True)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accumulate(t: Tensor, grad: np.ndarray):
    if t.grad is None:
        t.grad = grad.copy() if grad.base is not None or grad.flags.writeable is False else grad
    else:
        t.grad = t.grad + grad


class GradientTape:
    """Reverse-topological record of the ops reaching a scalar loss.

    A tape is replayable exactly once; re-running without rebuilding the
    graph is rejected because accumulated gradients would double-count.
    """

    def __init__(self, loss: Tensor):
        if loss.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        self.loss = loss
        self.order: list[Tensor] = []
        seen = set()
        stack = [(loss, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self.order.append(node)
                continue
            if id(node) in seen or not node.needs_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))

    def run(self):
        """Populate .grad on every reachable tensor that needs one."""
        if self.loss._consumed:
            raise ContractError("backward was already run for this loss; rebuild the graph first")
        self.loss._consumed = True
        self.loss.grad = np.ones_like(self.loss.data)
        for node in reversed(self.order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def backward(loss: Tensor):
    """Run reverse-mode differentiation from a scalar loss."""
    GradientTape(loss).run()


_recording = True


@contextlib.contextmanager
def no_grad():
    """Ops in the block record no graph: each output is a plain Tensor with no
    parents, freed once unused. The arithmetic, so every float, is unchanged."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _make(data: np.ndarray, parents, bwd) -> Tensor:
    if _recording:
        parents = tuple([p for p in parents if p.needs_grad])
        if parents:
            return Tensor(data, _parents=parents, _backward=bwd)
    return Tensor(data)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bwd(g):
        if a.needs_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.needs_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def bwd(g):
        if a.needs_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.needs_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bwd(g):
        if a.needs_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.needs_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bwd)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def bwd(g):
        if a.needs_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.needs_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), bwd)


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), bwd)


def pow_scalar(a: Tensor, p: float) -> Tensor:
    out_data = a.data ** p

    def bwd(g):
        _accumulate(a, g * p * a.data ** (p - 1))

    return _make(out_data, (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bwd(g):
        _accumulate(a, g * out_data)

    return _make(out_data, (a,), bwd)


def log(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, g / a.data)

    return _make(np.log(a.data), (a,), bwd)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def bwd(g):
        _accumulate(a, g * (a.data > 0.0))

    return _make(out_data, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def bwd(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), bwd)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes through strictly inside the bounds."""
    out_data = np.clip(a.data, lo, hi)

    def bwd(g):
        _accumulate(a, g * ((a.data > lo) & (a.data < hi)))

    return _make(out_data, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra and shape ops
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs matrix operands, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.data.shape} x {b.data.shape}")
    out_data = np.matmul(a.data, b.data)

    def bwd(g):
        if a.needs_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            _accumulate(a, _unbroadcast(ga, a.data.shape))
        if b.needs_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _make(out_data, (a, b), bwd)


def linear(a: Tensor, w: Tensor, b: Tensor, keep: np.ndarray | None = None) -> Tensor:
    """a @ w + b over the last axis of a (..., K) operand, as one node.

    The leading axes fold into rows: the product is one (rows, K) @ (K, M)
    GEMM, and so is each gradient, where np.matmul would loop over a batch
    axis. `keep`, a boolean mask over the D nodes of an (N, D, K) operand,
    returns only the kept nodes, (N, kept, M); `a` may then hold all D nodes
    or only the kept ones. Every product still runs at the full (N*D, ...)
    shape, with each kept node in its own rows and zero rows for the others:
    BLAS picks its kernel by shape, and a smaller product could round a row
    otherwise. Only the bias add and the bias gradient's row sum shrink.
    """
    full = a.data
    if keep is not None and full.shape[1] != keep.size:
        full = np.zeros(full.shape[:1] + keep.shape + full.shape[2:])
        full[:, keep] = a.data
    a2 = full.reshape(-1, full.shape[-1])
    prod = (a2 @ w.data).reshape(full.shape[:-1] + w.data.shape[-1:])
    out_data = (prod if keep is None else np.compress(keep, prod, axis=1)) + b.data
    out_shape = prod.shape

    def bwd(g):
        if keep is not None:
            g_full = np.zeros(out_shape)
            g_full[:, keep] = g
        else:
            g_full = g
        g2 = g_full.reshape(-1, out_shape[-1])
        if a.needs_grad:
            ga = (g2 @ w.data.T).reshape(full.shape)
            _accumulate(a, ga if ga.shape == a.data.shape else np.compress(keep, ga, axis=1))
        if w.needs_grad:
            _accumulate(w, a2.T @ g2)
        if b.needs_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, w, b), bwd)


def transpose(a: Tensor, axes: tuple) -> Tensor:
    inv = tuple(np.argsort(axes))

    def bwd(g):
        _accumulate(a, np.transpose(g, inv))

    return _make(np.transpose(a.data, axes), (a,), bwd)


def swap_last2(a: Tensor) -> Tensor:
    axes = tuple(range(a.data.ndim - 2)) + (a.data.ndim - 1, a.data.ndim - 2)
    return transpose(a, axes)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old_shape = a.data.shape

    def bwd(g):
        _accumulate(a, g.reshape(old_shape))

    return _make(a.data.reshape(shape), (a,), bwd)


def concat_lastdim(parts: list) -> Tensor:
    parts = [_wrap(p) for p in parts]
    widths = [p.data.shape[-1] for p in parts]
    out_data = np.concatenate([p.data for p in parts], axis=-1)
    offsets = np.cumsum([0] + widths)

    def bwd(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.needs_grad:
                _accumulate(p, g[..., lo:hi])

    return _make(out_data, tuple(parts), bwd)


def take_node(a: Tensor, index: int) -> Tensor:
    """Select node slice (N, E) out of (N, D, E)."""
    out_data = a.data[:, index, :]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[:, index, :] = g
        _accumulate(a, full)

    return _make(out_data, (a,), bwd)


def take_nodes(a: Tensor, keep: np.ndarray | None) -> Tensor:
    """Select the nodes of (N, D, E) that a boolean mask `keep` over the D
    nodes marks, as (N, kept, E) in node order; `None` keeps every node.

    The result is C-contiguous, unlike `a[:, keep]`: a reduction over a
    strided copy would add in another order, and round differently."""
    if keep is None:
        return a

    def bwd(g):
        full = np.zeros_like(a.data)
        full[:, keep] = g
        _accumulate(a, full)

    return _make(np.compress(keep, a.data, axis=1), (a,), bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def sum_all(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, np.broadcast_to(g, a.data.shape).copy())

    return _make(np.asarray(a.data.sum()), (a,), bwd)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def bwd(g):
        _accumulate(a, np.broadcast_to(g / n, a.data.shape).copy())

    return _make(np.asarray(a.data.mean()), (a,), bwd)


def sum_axis(a: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        gg = g if keepdims else np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(gg, a.data.shape).copy())

    return _make(out_data, (a,), bwd)


def sum_squares(parts: list) -> Tensor:
    """Sum of squares of every entry of every tensor in `parts`, as one node.

    Each tensor's entries are summed first and those sums are added in list
    order, the same float as chaining sum_all(p * p) terms with add.
    """
    total = 0.0
    for p in parts:
        total = total + (p.data * p.data).sum()

    def bwd(g):
        for p in parts:
            if p.needs_grad:
                _accumulate(p, 2.0 * g * p.data)

    return _make(np.asarray(total), tuple(parts), bwd)


# ---------------------------------------------------------------------------
# neural-network primitives
# ---------------------------------------------------------------------------

def softmax_lastdim(a: Tensor) -> Tensor:
    """Numerically stable softmax over the last axis.

    Entries may be -inf (masked positions map to exactly 0); a slice that is
    entirely -inf has no permitted targets and is rejected.
    """
    m = a.data.max(axis=-1, keepdims=True)
    if np.isneginf(m).any():
        raise DegenerateInputError("softmax slice is entirely -inf: no permitted attention targets")
    e = np.exp(a.data - m)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accumulate(a, out_data * (g - dot))

    return _make(out_data, (a,), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (d * d).sum(axis=-1, keepdims=True) / d.shape[-1]  # what np.var computes
    inv = 1.0 / np.sqrt(var + eps)
    xhat = d * inv
    out_data = xhat * gain.data + bias.data

    def bwd(g):
        if gain.needs_grad:
            _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
        if bias.needs_grad:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        if x.needs_grad:
            dxhat = g * gain.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, inv * (dxhat - m1 - xhat * m2))

    return _make(out_data, (x, gain, bias), bwd)


def dropout(x: Tensor, rate: float, train: bool, rng: np.random.Generator,
            keep: np.ndarray | None = None) -> Tensor:
    """Inverted dropout; identity when train is False or rate is 0.

    With a boolean node mask `keep`, x holds the kept nodes (axis 1) of an
    (N, D, ...) tensor: the mask is drawn for all D nodes, so the stream
    advances as it does for the whole tensor, and the kept nodes' part is used.
    """
    if not train or rate == 0.0:
        return x
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    shape = x.data.shape if keep is None else x.data.shape[:1] + keep.shape + x.data.shape[2:]
    scale = (rng.random(shape) >= rate) / (1.0 - rate)
    if keep is not None:
        scale = np.compress(keep, scale, axis=1)
    out_data = x.data * scale

    def bwd(g):
        _accumulate(x, g * scale)

    return _make(out_data, (x,), bwd)


def embed_nodes(identity: Tensor, values: np.ndarray, embeddings: list) -> Tensor:
    """Per-node value embeddings plus identity rows, stacked into (N, D, E).

    `identity` is (D, E) and `values` is (N, D). `embeddings[i]` gives node
    i's value embedding: `()` for none (the node feeds its identity row
    only), `(table,)` for a lookup of row 0 or 1 of a (2, E) table by the
    node's 0/1 value, or `(weight, bias)` for value * weight + bias with a
    (1, E) weight and an (E,) bias.
    """
    ident = identity.data
    out_data = np.empty((values.shape[0],) + ident.shape)
    rows = {}
    for i, params in enumerate(embeddings):
        if len(params) == 2:
            weight, bias = params
            out_data[:, i] = values[:, i:i + 1] * weight.data + bias.data + ident[i]
        elif len(params) == 1:
            rows[i] = values[:, i].astype(np.int64)
            out_data[:, i] = params[0].data[rows[i]] + ident[i]
        else:
            out_data[:, i] = ident[i]

    def bwd(g):
        if identity.needs_grad:
            _accumulate(identity, g.sum(axis=0))
        for i, params in enumerate(embeddings):
            gi = g[:, i]
            if len(params) == 2:
                weight, bias = params
                if weight.needs_grad:
                    _accumulate(weight, values[:, i:i + 1].T @ gi)
                if bias.needs_grad:
                    _accumulate(bias, gi.sum(axis=0))
            elif len(params) == 1 and params[0].needs_grad:
                table = np.zeros_like(params[0].data)
                np.add.at(table, rows[i], gi)
                _accumulate(params[0], table)

    parents = (identity,) + tuple(p for params in embeddings for p in params)
    return _make(out_data, parents, bwd)
