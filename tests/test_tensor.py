import numpy as np
import pytest

from dagformer import rng, tensor as T
from dagformer.errors import ConfigError, ContractError, DegenerateInputError, ShapeError
from dagformer.optim import AdamState, adam_step


def test_matmul_identity():
    a = T.tensor([[1.0, 0.0], [0.0, 1.0]])
    b = T.tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(T.matmul(a, b).data, b.data)


def test_matmul_inner_product():
    out = T.matmul(T.tensor([[1.0, 2.0]]), T.tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_against_loop_oracle():
    g = rng.stream(7, "matmul")
    a = g.standard_normal((3, 4))
    b = g.standard_normal((4, 2))
    want = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                want[i, j] += a[i, k] * b[k, j]
    got = T.matmul(T.tensor(a), T.tensor(b)).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(T.tensor(np.zeros((2, 3))), T.tensor(np.zeros((2, 2))))


def test_matmul_gradients():
    g = rng.stream(8, "matmulgrad")
    a = T.parameter(g.standard_normal((3, 4)))
    b = T.parameter(g.standard_normal((4, 2)))
    loss = T.sum_all(T.matmul(a, b))
    T.backward(loss)
    # d(sum(AB))/dA = 1 @ B^T, /dB = A^T @ 1
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ np.ones((3, 2)))


def test_softmax_symmetry():
    out = T.softmax_lastdim(T.tensor([0.0, 0.0]))
    assert np.allclose(out.data, [0.5, 0.5])


def test_softmax_masked_entry_is_exact_zero():
    out = T.softmax_lastdim(T.tensor([-np.inf, 0.0]))
    assert out.data[0] == 0.0
    assert out.data[1] == 1.0


def test_softmax_matches_direct_formula():
    x = np.array([1.0, 2.0, 3.0])
    want = np.exp(x) / np.exp(x).sum()
    got = T.softmax_lastdim(T.tensor(x)).data
    assert np.max(np.abs(got - want)) < 1e-12


def test_softmax_all_masked_row_rejected():
    x = np.array([[0.0, 1.0], [-np.inf, -np.inf]])
    with pytest.raises(DegenerateInputError):
        T.softmax_lastdim(T.tensor(x))


def test_softmax_rows_sum_to_one_under_random_masks():
    g = rng.stream(11, "softmask")
    for _ in range(50):
        d = int(g.integers(2, 8))
        scores = g.standard_normal((d, d))
        forbid = g.random((d, d)) < 0.5
        np.fill_diagonal(forbid, False)
        scores = np.where(forbid, -np.inf, scores)
        out = T.softmax_lastdim(T.tensor(scores)).data
        assert np.all(out[forbid] == 0.0)
        assert np.max(np.abs(out.sum(axis=-1) - 1.0)) < 1e-12


def test_backward_sum_of_squares():
    theta = T.parameter([1.0, -2.0])
    loss = T.sum_all(theta * theta)
    T.backward(loss)
    assert np.allclose(theta.grad, [2.0, -4.0])


def test_backward_bce_through_sigmoid():
    # loss = BCE(sigmoid(w.x), y) at w=0 has gradient (0.5 - y) * x
    x = np.array([[0.7, -1.3, 0.4]])
    for y in (0.0, 1.0):
        w = T.parameter(np.zeros((3, 1)))
        p = T.sigmoid(T.matmul(T.tensor(x), w))
        yv = T.tensor([[y]])
        loss = T.neg(T.mean_all(yv * T.log(p) + (1.0 - yv) * T.log(1.0 - p)))
        T.backward(loss)
        assert np.allclose(w.grad.ravel(), (0.5 - y) * x.ravel(), atol=1e-12)


def test_backward_requires_scalar():
    v = T.parameter([1.0, 2.0])
    with pytest.raises(ContractError):
        T.backward(v * v)


def test_backward_twice_rejected():
    theta = T.parameter([1.0])
    loss = T.sum_all(theta * theta)
    T.backward(loss)
    with pytest.raises(ContractError):
        T.backward(loss)


def _finite_difference(f, arrays, h=1e-6):
    """Central differences of scalar f(list of ndarrays) wrt each array."""
    grads = []
    for k, arr in enumerate(arrays):
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(arrays)
            flat[i] = orig - h
            fm = f(arrays)
            flat[i] = orig
            gflat[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def _check_grads(build, arrays, tol=1e-6):
    params = [T.parameter(a.copy()) for a in arrays]
    loss = build(params)
    T.backward(loss)

    def f(arrs):
        ps = [T.tensor(a) for a in arrs]
        return float(build(ps).data)

    fd = _finite_difference(f, [p.data for p in params])
    for p, g in zip(params, fd):
        err = np.abs(p.grad - g) / np.maximum.reduce([np.abs(p.grad), np.abs(g), np.full_like(g, 1e-4)])
        assert np.max(err) < tol, f"max relative gradient error {np.max(err)}"


def test_primitive_gradients_match_finite_differences():
    g = rng.stream(21, "fd")
    x = g.standard_normal((4, 3))
    w = g.standard_normal((3, 3))
    gain = g.standard_normal(3) * 0.1 + 1.0
    bias = g.standard_normal(3) * 0.1

    def build(ps):
        xx, ww, gg, bb = ps
        h = T.layer_norm(T.matmul(xx, ww), gg, bb)
        h = T.relu(h) + T.sigmoid(h) * 0.3
        h = T.softmax_lastdim(h)
        return T.mean_all(T.exp(h * 0.5) + (h + 1.1) ** 2.0)

    _check_grads(build, [x, w, gain, bias], tol=1e-5)


def test_shape_op_gradients_match_finite_differences():
    g = rng.stream(22, "fd2")
    a = g.standard_normal((2, 3, 4))
    b = g.standard_normal((2, 3, 2))

    def build(ps):
        aa, bb = ps
        cat = T.concat_lastdim([aa, bb])                      # (2,3,6)
        piece = T.take_node(T.transpose(cat, (0, 2, 1)), 2)   # (2,3)
        s = T.sum_axis(cat, axis=1)                           # (2,6)
        return T.mean_all(piece) + T.sum_all(s * 0.1) + T.mean_all(T.reshape(aa, (6, 4)))

    _check_grads(build, [a, b], tol=1e-6)


def test_matmul_broadcast_weight_gradients_match_finite_differences():
    g = rng.stream(24, "fold")
    x = g.standard_normal((5, 3, 4))
    w = g.standard_normal((4, 6))

    def build(ps):
        xx, ww = ps
        out = T.matmul(xx, ww)                                # (5,3,6), w broadcast over 5
        return T.mean_all(out * out) + T.sum_all(T.matmul(T.swap_last2(xx), xx) * 0.01)

    _check_grads(build, [x, w], tol=1e-5)


def test_linear_is_one_gemm_over_the_folded_rows():
    g = rng.stream(25, "fold")
    x = g.standard_normal((256, 3, 8))
    w = g.standard_normal((8, 8))
    b = g.standard_normal(8)
    want = (x.reshape(-1, 8) @ w).reshape(256, 3, 8) + b
    assert np.array_equal(T.linear(T.tensor(x), T.tensor(w), T.tensor(b)).data, want)


def test_linear_and_take_nodes_gradients_match_finite_differences():
    g = rng.stream(27, "linear")
    x = g.standard_normal((5, 4, 3))
    w = g.standard_normal((3, 6))
    b = g.standard_normal(6)
    keep = np.array([False, True, False, True])

    def build(ps):
        xx, ww, bb = ps
        full = T.linear(xx, ww, bb)                           # (5,4,6)
        cut = T.linear(xx, ww, bb, keep)                      # (5,2,6), from all nodes
        again = T.linear(T.take_nodes(xx, keep), ww, bb, keep)  # from the kept nodes only
        return T.mean_all(full * full) + T.sum_all(cut * 0.3) + T.mean_all(again * cut)

    _check_grads(build, [x, w, b], tol=1e-5)


@pytest.mark.parametrize("n", [1, 2, 8, 64, 136])
def test_linear_keeps_the_full_products_floats(n):
    # the kept rows equal the full product's rows, and so do the gradients of
    # the weight and of the kept input rows, whatever the batch
    g = rng.stream(28, "linear", n)
    x = g.standard_normal((n, 4, 40))
    w, b = T.parameter(g.standard_normal((40, 40))), T.parameter(g.standard_normal(40))
    up = g.standard_normal((n, 1, 40))
    keep = np.array([False, False, False, True])

    xa = T.parameter(x)
    ref = T.linear(xa, w, b)
    T.backward(T.sum_all(T.take_node(ref, 3) * up[:, 0]))
    ref_grads = [xa.grad, w.grad, b.grad]
    for p in (w, b):
        p.zero_grad()
    xb = T.parameter(x[:, keep])
    cut = T.linear(xb, w, b, keep)
    assert cut.data.flags.c_contiguous
    assert np.array_equal(cut.data, ref.data[:, keep])
    T.backward(T.sum_all(cut * up))
    assert np.array_equal(xb.grad, ref_grads[0][:, keep])
    assert np.array_equal(w.grad, ref_grads[1])
    assert np.array_equal(b.grad, ref_grads[2])


def test_take_nodes_is_contiguous_and_none_keeps_every_node():
    x = T.parameter(np.arange(24.0).reshape(2, 4, 3))
    keep = np.array([True, False, False, True])
    out = T.take_nodes(x, keep)
    assert out.data.flags.c_contiguous
    assert np.array_equal(out.data, x.data[:, [0, 3]])
    assert T.take_nodes(x, None) is x


def test_dropout_on_kept_nodes_draws_the_mask_of_all_nodes():
    x = T.parameter(np.ones((6, 4, 5)))
    keep = np.array([False, True, False, True])
    full = T.dropout(x, 0.3, train=True, rng=rng.stream(2, "d"))
    cut = T.dropout(T.take_nodes(x, keep), 0.3, train=True, rng=rng.stream(2, "d"), keep=keep)
    assert np.array_equal(cut.data, full.data[:, keep])


def test_layer_norm_and_sigmoid_equal_the_expressions_they_replace():
    # layer_norm centres once and sums the squares itself, which is what
    # np.var computes; sigmoid takes exp(-|x|) once
    g = rng.stream(29, "ln")
    for i in range(120):
        n = (1, 5000)[i] if i < 2 else int(g.integers(1, 5001))
        shape = (n, int(g.integers(3, 8)), 8)
        x = g.standard_normal(shape) * g.uniform(0.01, 100.0) + g.uniform(-50.0, 50.0)
        gain, bias = g.standard_normal(8), g.standard_normal(8)
        mu = x.mean(axis=-1, keepdims=True)
        old = (x - mu) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)) * gain + bias
        assert np.array_equal(T.layer_norm(T.tensor(x), T.tensor(gain), T.tensor(bias)).data,
                              old)
        z = x * g.uniform(0.1, 10.0)
        old = np.where(z >= 0, 1.0 / (1.0 + np.exp(-np.abs(z))),
                       np.exp(-np.abs(z)) / (1.0 + np.exp(-np.abs(z))))
        assert np.array_equal(T.sigmoid(T.tensor(z)).data, old)


def test_embed_nodes_gradients_match_finite_differences():
    g = rng.stream(23, "embed")
    n = 6
    values = np.column_stack([g.standard_normal(n), (g.random(n) < 0.5).astype(float),
                              g.standard_normal(n), g.standard_normal(n)])
    values[:2, 1] = (0.0, 1.0)  # both table rows are read
    arrays = [g.standard_normal((4, 3)), g.standard_normal((1, 3)), g.standard_normal(3),
              g.standard_normal((2, 3)), g.standard_normal((1, 3)), g.standard_normal(3)]

    def build(ps):
        ident, w0, b0, table, w2, b2 = ps
        x = T.embed_nodes(ident, values, [(w0, b0), (table,), (w2, b2), ()])  # (6,4,3)
        return T.mean_all(x * x) + T.sum_all(T.take_node(x, 3) * 0.3)

    _check_grads(build, arrays, tol=1e-6)


def test_embed_nodes_values_per_kind():
    ident = T.parameter([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    weight, bias = T.parameter([[2.0, -1.0]]), T.parameter([0.5, 0.25])
    table = T.parameter([[10.0, 20.0], [30.0, 40.0]])
    values = np.array([[1.5, 1.0, 9.0], [-1.0, 0.0, 9.0]])
    x = T.embed_nodes(ident, values, [(weight, bias), (table,), ()])
    assert np.array_equal(x.data[:, 0], [[4.5, 0.75], [-0.5, 3.25]])
    assert np.array_equal(x.data[:, 1], [[33.0, 44.0], [13.0, 24.0]])
    assert np.array_equal(x.data[:, 2], [[5.0, 6.0], [5.0, 6.0]])  # identity only


def test_sum_squares_is_one_node_with_the_chained_value_and_gradient():
    g = rng.stream(26, "sumsq")
    arrays = [g.standard_normal((3, 4)), g.standard_normal(5), g.standard_normal((2, 2))]
    params = [T.parameter(a) for a in arrays]
    chained = T.tensor(0.0)
    for p in params:
        chained = chained + T.sum_all(p * p)
    one = T.sum_squares(params)
    assert one.data == chained.data
    assert len(T.GradientTape(one).order) == 1 + len(params)
    _check_grads(lambda ps: T.sum_squares(ps) * 0.7, arrays, tol=1e-6)


def test_dropout_semantics():
    x = T.parameter(np.ones((100, 10)))
    out_eval = T.dropout(x, 0.4, train=False, rng=rng.stream(1, "d"))
    assert out_eval is x
    out_train = T.dropout(x, 0.4, train=True, rng=rng.stream(1, "d"))
    kept = out_train.data != 0.0
    assert np.all(np.isin(np.round(out_train.data[kept], 12), np.round(1 / 0.6, 12)))
    # same stream key -> identical mask
    again = T.dropout(x, 0.4, train=True, rng=rng.stream(1, "d"))
    assert np.array_equal(out_train.data, again.data)


def test_clip_gradient_is_zero_outside_bounds():
    x = T.parameter([-1.0, 0.5, 2.0])
    loss = T.sum_all(T.clip(x, 0.0, 1.0))
    T.backward(loss)
    assert np.array_equal(x.grad, [0.0, 1.0, 0.0])


# -- optimizer ---------------------------------------------------------------

def test_adam_zero_gradient_no_penalty_is_identity():
    p = T.parameter([1.0, -3.0])
    p.grad = np.zeros(2)
    adam_step([p], AdamState(learning_rate=0.1))
    assert np.array_equal(p.data, [1.0, -3.0])


def test_adam_single_step_hand_value():
    p = T.parameter([1.0])
    p.grad = np.array([1.0])
    adam_step([p], AdamState(learning_rate=0.1))
    assert abs(p.data[0] - 0.9) < 1e-6


def test_adam_pure_decay_shrinks_parameter():
    p = T.parameter([2.0])
    state = AdamState(learning_rate=0.01, l2_penalty=0.5)
    before = abs(p.data[0])
    for _ in range(5):
        p.grad = np.array([0.0])
        adam_step([p], state)
        assert abs(p.data[0]) < before
        before = abs(p.data[0])


@pytest.mark.parametrize("field, value", [
    ("learning_rate", 0.0), ("learning_rate", -1e-3), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("beta1", -0.1), ("beta1", 1.0), ("beta1", float("nan")),
    ("beta2", 1.0), ("beta2", 5.0), ("epsilon", 0.0), ("epsilon", -1.0),
    ("epsilon", float("inf")), ("l2_penalty", -1e-3), ("l2_penalty", float("nan")),
    ("l2_penalty", float("inf")),
])
def test_adam_state_rejects_a_hyperparameter_out_of_range(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be"):
        AdamState(**{field: value})


def test_adam_state_takes_the_edges_of_its_ranges():
    state = AdamState(learning_rate=1e150, beta1=0.0, beta2=0.0, epsilon=1e-300, l2_penalty=0.0)
    assert state.step == 0 and state.sizes == ()


def test_adam_missing_grad_rejected():
    p = T.parameter([1.0])
    with pytest.raises(ContractError):
        adam_step([p], AdamState())


def test_adam_step_counter_increments():
    p = T.parameter([1.0])
    state = AdamState()
    for want in (1, 2, 3):
        p.grad = np.array([0.1])
        adam_step([p], state)
        assert state.step == want


def _reference_adam_step(params, grads, moments, step, lr, beta1, beta2, eps, l2):
    """The per-tensor Adam update, one parameter at a time."""
    bias1 = 1.0 - beta1 ** step
    bias2 = 1.0 - beta2 ** step
    for p, g, (m, v) in zip(params, grads, moments):
        if l2 != 0.0:
            g = g + l2 * p
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_adam_flat_moments_match_per_tensor_reference_bit_for_bit(l2):
    g = rng.stream(27, "adam")
    shapes = [(3, 4), (4,), (1, 4), (2, 2), (5,)]
    params = [T.parameter(g.standard_normal(s)) for s in shapes]
    ref = [p.data.copy() for p in params]
    moments = [(np.zeros(s), np.zeros(s)) for s in shapes]
    state = AdamState(learning_rate=0.01, l2_penalty=l2)
    for step in range(1, 8):
        grads = [g.standard_normal(s) * 10.0 ** g.integers(-3, 3) for s in shapes]
        for p, grad in zip(params, grads):
            p.grad = grad
        adam_step(params, state)
        _reference_adam_step(ref, grads, moments, step, 0.01, 0.9, 0.999, 1e-8, l2)
        for p, want in zip(params, ref):
            assert np.array_equal(p.data, want)


def test_adam_contract_errors_leave_parameters_and_state_unchanged():
    a, b = T.parameter([1.0, 2.0]), T.parameter([[3.0]])
    state = AdamState(learning_rate=0.1)
    a.grad = np.array([0.5, 0.5])
    with pytest.raises(ContractError, match="parameter 1 has no gradient"):
        adam_step([a, b], state)
    assert np.array_equal(a.data, [1.0, 2.0]) and state.step == 0
    b.grad = np.array([1.0])
    with pytest.raises(ContractError, match=r"parameter 1 gradient shape \(1,\)"):
        adam_step([a, b], state)
    b.grad = np.array([[1.0]])
    adam_step([a, b], state)
    assert state.step == 1
    with pytest.raises(ContractError, match="optimizer state tracks 2 parameters, got 1"):
        adam_step([a], state)
    c = T.parameter([1.0, 2.0, 3.0])
    c.grad = np.zeros(3)
    with pytest.raises(ContractError, match="parameter 1 has 3 entries"):
        adam_step([a, c], state)


# -- rng ----------------------------------------------------------------------

def test_streams_are_deterministic_and_distinct():
    a = rng.stream(42, "init").standard_normal(5)
    b = rng.stream(42, "init").standard_normal(5)
    c = rng.stream(42, "shuffle").standard_normal(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _graph_of_many_ops(identity, table, w, gain, bias):
    h = T.embed_nodes(identity, np.array([[1.0, 0.5], [0.0, -2.0]]), [(table,), ()])  # (2, 2, 3)
    h = T.relu(T.matmul(h, w) + 1.0)  # (..., K) @ (K, M), w broadcast
    h = T.softmax_lastdim(T.matmul(T.layer_norm(h, gain, bias), T.swap_last2(h)))  # batched
    return T.sigmoid(T.sum_axis(h, -1)) + T.sum_squares([identity, table])


def test_no_grad_records_no_graph_and_computes_the_same_floats():
    g = rng.stream(41, "no-grad")
    params = [T.parameter(g.standard_normal(shape))
              for shape in ((2, 3), (2, 3), (3, 3), (3,), (3,))]
    recorded = _graph_of_many_ops(*params)
    with T.no_grad():
        plain = _graph_of_many_ops(*params)
    assert recorded._parents and recorded._backward is not None
    assert plain._parents == () and plain._backward is None
    assert np.array_equal(plain.data, recorded.data)


def test_no_grad_restores_recording_after_nesting_and_after_raising():
    w = T.parameter(np.array([1.0, -2.0]))
    with T.no_grad():
        with T.no_grad():
            pass
        assert (w * 3.0)._parents == ()  # still off once the inner block ends
    assert (w * 3.0)._parents
    with pytest.raises(ShapeError):
        with T.no_grad():
            T.matmul(w, w)
    T.backward(T.sum_all(w * w))
    assert np.array_equal(w.grad, 2.0 * w.data)
