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
    "matmul", "add", "sub", "mul", "neg", "log",
    "relu", "sigmoid", "clip", "transpose", "swap_last2", "reshape",
    "concat_lastdim", "take_node", "take_nodes", "linear", "sum_all", "mean_all",
    "sum_squares", "softmax_lastdim", "layer_norm", "attention", "attention_projections",
    "attend", "dropout", "embed_nodes",
]


class Tensor:
    """A node in the autodiff graph wrapping a float64 ndarray."""

    __slots__ = ("data", "grad", "needs_grad", "_parents", "_backward", "_consumed")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        # whether a gradient reaches this tensor: a parameter, or an op output
        # recorded with a parent that needs one; fixed once the node is built
        self.needs_grad = bool(requires_grad or _parents)
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
        return f"Tensor(shape={self.data.shape}, needs_grad={self.needs_grad})"

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

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))


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
    """Reverse-topological record of the ops reaching a scalar loss; the
    leaves they read (parameters) receive their gradients but are not listed.

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
                if p._parents:  # a leaf (a parameter) has no backward to order
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


def neg(a: Tensor) -> Tensor:
    def bwd(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), bwd)


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
    or only the kept ones. Only the kept rows are multiplied, a one-row
    operand padded to two rows (`_matmul_rows`). The backward builds the full
    (N*D, ...) operand and output gradient, with each kept node in its own
    rows and zero rows for the others, so that every gradient keeps the
    floats of the uncut layer. The bias is added in place.
    """
    kept = a.data
    if keep is not None and kept.shape[1] == keep.size:
        kept = np.compress(keep, kept, axis=1)
    out_data = _matmul_rows(kept.reshape(-1, kept.shape[-1]), w.data,
                            keep is not None and keep.size > 1)  # the full product's rows
    out_data = out_data.reshape(kept.shape[:-1] + w.data.shape[-1:])
    out_data += b.data

    def bwd(g):
        full, g_full = a.data, g
        if keep is not None:
            if full.shape[1] != keep.size:
                full = np.zeros(full.shape[:1] + keep.shape + full.shape[2:])
                full[:, keep] = a.data
            g_full = np.zeros(g.shape[:1] + keep.shape + g.shape[2:])
            g_full[:, keep] = g
        a_rows = full.reshape(-1, full.shape[-1])
        g2 = g_full.reshape(-1, g.shape[-1])
        if a.needs_grad:
            ga = (g2 @ w.data.T).reshape(full.shape)
            _accumulate(a, ga if ga.shape == a.data.shape else np.compress(keep, ga, axis=1))
        _weight_grads(w, b, a_rows, g2, g)

    return _make(out_data, (a, w, b), bwd)


def _matmul_rows(a: np.ndarray, b: np.ndarray, pad: bool) -> np.ndarray:
    """np.matmul(a, b), where a left operand of one row (axis -2) is padded to
    two rows when `pad`: each row of a product of two rows or more has the
    float of its row in any taller product, and one row alone takes BLAS's
    gemv, which rounds otherwise. A caller pads where the uncut product has
    two rows or more."""
    if pad and a.shape[-2] == 1:
        return np.matmul(np.concatenate((a, a), axis=-2), b)[..., :1, :]
    return np.matmul(a, b)


def _weight_grads(w: Tensor, b: Tensor, a2: np.ndarray, g2: np.ndarray, g: np.ndarray):
    """Accumulate the gradients of w and b in a2 @ w + b: a2 is the (R, K)
    operand, g2 the output gradient as (R, M) rows, and g that gradient in the
    shape the bias was added to."""
    if w.needs_grad:
        _accumulate(w, a2.T @ g2)
    if b.needs_grad:
        _accumulate(b, _unbroadcast(g, b.data.shape))


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


def take_node(a: Tensor, index: int, scale: float = 1.0) -> Tensor:
    """Select node slice (N, E) out of (N, D, E), times `scale`: the floats
    of `take_node(a, index) * scale`, as one node."""
    out_data = a.data[:, index, :] * scale

    def bwd(g):
        full = np.zeros_like(a.data)
        full[:, index, :] = g * scale
        _accumulate(a, full)

    return _make(out_data, (a,), bwd)


def take_nodes(a: Tensor, keep: np.ndarray | None) -> Tensor:
    """Select the nodes of (N, D, E) that a boolean mask `keep` over the D
    nodes marks, as (N, kept, E) in node order; `None` keeps every node.

    The result is C-contiguous, unlike `a[:, keep]`: a reduction over a
    strided copy would add in another order, and round differently. As in
    `linear`, `a` may hold only the kept nodes already; it is then returned."""
    if keep is None or a.data.shape[1] != keep.size:
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
    out_data = _softmax(a.data)

    def bwd(g):
        _accumulate(a, _softmax_grad(g, out_data))

    return _make(out_data, (a,), bwd)


def _max_lastdim(a: np.ndarray) -> np.ndarray:
    """`a.max(axis=-1, keepdims=True)`, with rows under 8 entries written out.

    A masked softmax row has one entry per graph node, often 3 to 7, and
    NumPy's reduction pays one inner-loop call per row: a running
    `np.maximum` over the columns takes a tenth of the time. Below NumPy's
    block of 8 entries it gives NumPy's float in any layout, NaN and signed
    zeros included. From there on NumPy's vector loop may return the other
    zero of a row whose maximum is a zero (seen at 9 to 17 entries), so
    those rows stay with NumPy.
    """
    if a.shape[-1] >= 8:
        return a.max(axis=-1, keepdims=True)
    m = a[..., :1].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(m, a[..., j:j + 1], out=m)
    return m


def _sum_lastdim(a: np.ndarray) -> np.ndarray:
    """`a.sum(axis=-1, keepdims=True)` in NumPy's own order, with rows of at
    most 8 entries written out (see `_max_lastdim` for why).

    Under 8 entries, NumPy adds a row left to right onto 0.0, whatever the
    layout. At exactly 8 it adds one pairwise tree, ((a0 + a1) + (a2 + a3)) +
    ((a4 + a5) + (a6 + a7)), onto 0.0, but only when the row is the innermost
    axis; otherwise its loop runs across rows and adds left to right. So the
    tree is used only for a unit-stride last axis, and wider rows, where
    NumPy is faster, stay with NumPy.
    """
    width = a.shape[-1]
    if width == 8 and a.strides[-1] == a.itemsize:
        p = a[..., 0::2] + a[..., 1::2]
        p = p[..., 0::2] + p[..., 1::2]
        return p[..., :1] + p[..., 1:] + 0.0
    if width >= 8:
        return a.sum(axis=-1, keepdims=True)
    s = a[..., :1] + 0.0
    for j in range(1, width):
        s += a[..., j:j + 1]
    return s


def _softmax(a: np.ndarray) -> np.ndarray:
    m = _max_lastdim(a)
    if np.isneginf(m).any():
        raise DegenerateInputError("softmax slice is entirely -inf: no permitted attention targets")
    e = np.exp(a - m)
    return e / _sum_lastdim(e)


def _softmax_grad(g: np.ndarray, out: np.ndarray) -> np.ndarray:
    dot = _sum_lastdim(g * out)
    return out * (g - dot)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    out_data, xhat, inv = _layer_norm(x.data, gain.data, bias.data)

    def bwd(g):
        _layer_norm_grads(g, x, gain, bias, xhat, inv)

    return _make(out_data, (x, gain, bias), bwd)


def _layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray) -> tuple:
    """The layer norm of x, with the normalized x and the 1 / std its backward
    reads; the normalized x is written over x - mean, and the bias added in place."""
    width = x.shape[-1]
    d = x - _sum_lastdim(x) / width  # what np.mean computes
    var = _sum_lastdim(d * d) / width  # and np.var
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = np.multiply(d, inv, out=d)
    out = xhat * gain
    out += bias
    return out, xhat, inv


def _layer_norm_grads(g: np.ndarray, x: Tensor, gain: Tensor, bias: Tensor,
                      xhat: np.ndarray, inv: np.ndarray):
    if gain.needs_grad:
        _accumulate(gain, _unbroadcast(g * xhat, gain.data.shape))
    if bias.needs_grad:
        _accumulate(bias, _unbroadcast(g, bias.data.shape))
    if x.needs_grad:
        dxhat = g * gain.data
        width = dxhat.shape[-1]
        m1 = _sum_lastdim(dxhat) / width
        m2 = _sum_lastdim(dxhat * xhat) / width
        _accumulate(x, inv * (dxhat - m1 - xhat * m2))


def _project(xn: np.ndarray, w: Tensor, b: Tensor, heads: int, pad: bool = False) -> np.ndarray:
    """xn @ w + b over the last axis of a normed (N, D, E) input, split into
    `heads` heads as (N, heads, D, E / heads); the bias is added in place, and
    a one-row product is padded when `pad` (`_matmul_rows`)."""
    n, d, e = xn.shape
    p = _matmul_rows(xn.reshape(-1, e), w.data, pad).reshape(n, d, -1)
    p += b.data
    return p.reshape(n, d, heads, -1).transpose(0, 2, 1, 3)


def _score_scale(q: np.ndarray) -> np.ndarray:
    return np.asarray(1.0 / np.sqrt(q.shape[-1]))


def _attention_weights(q: np.ndarray, k: np.ndarray, additive_mask: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(E / heads) + additive_mask) of split heads. q may
    hold the query rows of fewer nodes than k, with the mask's rows of those
    nodes; a one-row q is then padded to two (`_matmul_rows`)."""
    scores = _matmul_rows(q, np.swapaxes(k, -1, -2), q.shape[-2] < k.shape[-2])
    return _softmax(scores * _score_scale(q) + additive_mask)


def _attention_context(attn: np.ndarray, v: np.ndarray) -> np.ndarray:
    """attn @ v with the heads merged back, (N, D', E) for attention rows of
    D' nodes; a one-row attn is padded to two when D' is less than D."""
    n, _, rows, d = attn.shape
    ctx = _matmul_rows(attn, v, rows < d)
    return ctx.transpose(0, 2, 1, 3).reshape(n, rows, -1)


def attention(x: Tensor, ln_gain: Tensor, ln_bias: Tensor, wq: Tensor, bq: Tensor,
              wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor, additive_mask: np.ndarray,
              heads: int, collect: list | None = None) -> Tensor:
    """Pre-norm multi-head attention over the nodes of x (N, D, E), as one node.

    layer_norm(x), then Q, K and V as `linear`s, split into `heads` heads;
    softmax(q k^T / sqrt(E / heads) + additive_mask) @ v, heads merged back
    into (N, D, E), before any output projection. The post-softmax maps
    (N, heads, D, D) are appended to `collect`. The forward makes the NumPy
    calls of that chain of ops, on the same operands, and the backward those
    of the chain's backward in tape order, so every float equals the chain's:
    the gradient into the normalized input is summed as (q + k) + v, and each
    Q/K/V gradient is C-contiguous where the chain copies it.

    The forward runs the norm, Q and K, the softmax, then V and `attn @ v`,
    through the helpers that `layer_norm`, `attention_projections` and
    `attend` run with no graph; each bias is added in place. With no graph
    recorded, each array is dropped once nothing later reads it, before the
    next is made: the normalized x and 1 / std after the norm, Q and K after
    the softmax, the norm's output once V exists.
    """
    n, d, e = x.data.shape
    parents = (x, ln_gain, ln_bias, wq, bq, wk, bk, wv, bv)
    record = _recording and any(p.needs_grad for p in parents)
    xn, xhat, inv = _layer_norm(x.data, ln_gain.data, ln_bias.data)
    if not record:  # free what only the backward reads before the next allocation
        xhat = inv = None
    q, k = _project(xn, wq, bq, heads), _project(xn, wk, bk, heads)
    attn = _attention_weights(q, k, additive_mask)
    if not record:
        q = k = None
    v = _project(xn, wv, bv, heads)
    if not record:
        xn = None
    if collect is not None:
        collect.append(attn.copy())
    out_data = _attention_context(attn, v)

    def bwd(g):
        scale, rows = _score_scale(q), xn.reshape(-1, e)
        g_ctx = np.ascontiguousarray(g.reshape(n, d, heads, -1).transpose(0, 2, 1, 3))
        g_scores = _softmax_grad(np.matmul(g_ctx, np.swapaxes(v, -1, -2)), attn) * scale
        g_v = np.matmul(np.swapaxes(attn, -1, -2), g_ctx)
        g_q = np.matmul(g_scores, k)
        g_k = np.matmul(np.swapaxes(q, -1, -2), g_scores)
        g_rows = None
        for gh, axes, w, b in ((g_q, (0, 2, 1, 3), wq, bq), (g_k, (0, 3, 1, 2), wk, bk),
                               (g_v, (0, 2, 1, 3), wv, bv)):
            gp = np.ascontiguousarray(gh.transpose(axes)).reshape(n, d, e)
            g2 = gp.reshape(-1, e)
            _weight_grads(w, b, rows, g2, gp)
            g_in = g2 @ w.data.T
            g_rows = g_in if g_rows is None else g_rows + g_in
        _layer_norm_grads(g_rows.reshape(n, d, e), x, ln_gain, ln_bias, xhat, inv)

    return _make(out_data, parents, bwd)


def attention_projections(xn: np.ndarray, projections, heads: int) -> list[np.ndarray]:
    """`attention`'s Q, K or V projections of a normed (N, D, E) input, with
    no graph: for each (w, b, keep) of `projections`, the split heads of
    xn @ w + b over the nodes that the boolean mask `keep` marks (every node
    when None), (N, heads, kept, E / heads). Each row has the float of its
    row in `attention`'s full projection: a one-row cut is padded."""
    return [_project(xn, w, b, heads) if keep is None
            else _project(np.compress(keep, xn, axis=1), w, b, heads, keep.size > 1)
            for w, b, keep in projections]


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, additive_mask: np.ndarray) -> np.ndarray:
    """`attention`'s scores, softmax and `attn @ v`, with no graph, for the
    query rows of q: (N, D', E) from (N, heads, D', E / heads) queries, keys and
    values of all D nodes, and the mask's (D', D) rows of the queried nodes."""
    return _attention_context(_attention_weights(q, k, additive_mask), v)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None,
            keep: np.ndarray | None = None) -> Tensor:
    """Inverted dropout with masks drawn from the stream `rng`; the identity
    when there is no stream (prediction) or the rate is 0.

    With a boolean node mask `keep`, x holds the kept nodes (axis 1) of an
    (N, D, ...) tensor: the mask is drawn for all D nodes, so the stream
    advances as it does for the whole tensor, and the kept nodes' part is used.
    """
    if rng is None or rate == 0.0:
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
