"""The level-wise honest forest against a node-by-node reference grower.

The reference below is the recursive CART grower the forest used before it
grew every tree a depth at a time. The two must agree node for node: the
same split features and thresholds, the same leaf means from the same
estimate rows in the same order, and bit-equal predictions.
"""

import tracemalloc

import numpy as np
import pytest

from dagformer import forest as forest_module, rng
from dagformer.errors import ConfigError, ContractError, DataError, ShapeError
from dagformer.forest import ForestConfig, HonestForestRegressor, _split, _with_sentinel


class RefNode:
    def __init__(self):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.value = None
        self.estimate_rows = None


def _best_split(x, y, rows, min_leaf):
    """(feature, threshold, left_rows, right_rows) minimizing child SSE, or None."""
    m = rows.size
    best_sse = np.inf
    best = None
    for j in range(x.shape[1]):
        xs = x[rows, j]
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        ys_sorted = y[rows][order]
        csum = np.cumsum(ys_sorted)
        csq = np.cumsum(ys_sorted * ys_sorted)
        total_sum, total_sq = csum[-1], csq[-1]
        k = np.arange(1, m)
        valid = (xs_sorted[:-1] != xs_sorted[1:]) & (k >= min_leaf) & (m - k >= min_leaf)
        if not valid.any():
            continue
        left_sse = csq[:-1] - csum[:-1] ** 2 / k
        right_n = m - k
        right_sum = total_sum - csum[:-1]
        right_sse = (total_sq - csq[:-1]) - right_sum ** 2 / right_n
        sse = np.where(valid, left_sse + right_sse, np.inf)
        i = int(np.argmin(sse))
        if sse[i] < best_sse - 1e-12:
            best_sse = sse[i]
            threshold = 0.5 * (xs_sorted[i] + xs_sorted[i + 1])
            best = (j, threshold, rows[order[:i + 1]], rows[order[i + 1:]])
    return best


def _grow(x, y, rows, depth, cfg):
    node = RefNode()
    if depth >= cfg.max_depth or rows.size < 2 * cfg.min_leaf or np.ptp(y[rows]) == 0.0:
        return node
    split = _best_split(x, y, rows, cfg.min_leaf)
    if split is None:
        return node
    node.feature, node.threshold, left_rows, right_rows = split
    node.left = _grow(x, y, left_rows, depth + 1, cfg)
    node.right = _grow(x, y, right_rows, depth + 1, cfg)
    return node


def _attach_estimates(node, x, y, rows, inherited):
    if rows.size:
        inherited = float(y[rows].mean())
    if node.feature is None:
        node.value = inherited
        node.estimate_rows = rows
        return
    goes_left = x[rows, node.feature] <= node.threshold
    _attach_estimates(node.left, x, y, rows[goes_left], inherited)
    _attach_estimates(node.right, x, y, rows[~goes_left], inherited)


def _predict(node, x):
    out = np.empty(x.shape[0])
    stack = [(node, np.arange(x.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if not rows.size:
            continue
        if node.feature is None:
            out[rows] = node.value
            continue
        goes_left = x[rows, node.feature] <= node.threshold
        stack.append((node.left, rows[goes_left]))
        stack.append((node.right, rows[~goes_left]))
    return out


def reference_forest(x, y, cfg):
    """[(structure rows, estimate rows, root)] per tree, grown node by node."""
    n = y.size
    trees = []
    for t in range(cfg.n_trees):
        g = rng.stream(cfg.seed, "tree", t)
        m = min(n, max(2, int(round(cfg.subsample_fraction * n))))
        sub = g.choice(n, size=m, replace=False)
        structure, estimate = sub[:m // 2], sub[m // 2:]
        root = _grow(x, y, structure, 0, cfg)
        _attach_estimates(root, x, y, estimate, float(y[estimate].mean()))
        trees.append((structure, estimate, root))
    return trees


def reference_predict(trees, x):
    total = np.zeros(x.shape[0])
    for _, _, root in trees:
        total += _predict(root, x)
    return total / len(trees)


def _assert_same_nodes(ref, nodes, node, leaves):
    if ref.feature is None:
        assert nodes.feature[node] == -1
        leaf = leaves[node]
        assert leaf.value == ref.value
        assert np.array_equal(leaf.estimate_rows, ref.estimate_rows)
        return
    assert nodes.feature[node] == ref.feature
    assert nodes.threshold[node] == ref.threshold
    _assert_same_nodes(ref.left, nodes, nodes.left[node], leaves)
    _assert_same_nodes(ref.right, nodes, nodes.right[node], leaves)


def _data(n, x_dim, kind, seed=0):
    g = np.random.default_rng(seed + 100 * n + x_dim)
    x = g.standard_normal((n, x_dim))
    y = x[:, 0] - 0.5 * x[:, -1] ** 2 + g.standard_normal(n)
    if kind == "rounded":  # few distinct values: ties in x and in y
        x, y = np.round(x, 0), np.round(y, 0)
    elif kind == "constant-y":
        y = np.full(n, 1.5)
    elif kind == "duplicate-x":
        x = np.repeat(np.round(x, 1), 2, axis=1)
    return x, y


def _check(x, y, cfg):
    forest = HonestForestRegressor(cfg).fit(x, y)
    ref = reference_forest(x, y, cfg)
    assert len(forest.trees) == len(ref)
    empty_leaves = 0
    for tree, (structure, estimate, root) in zip(forest.trees, ref):
        assert np.array_equal(tree.structure_rows, structure)
        assert np.array_equal(tree.estimate_rows, estimate)
        leaves = {leaf.node: leaf for leaf in tree.leaves()}
        empty_leaves += sum(not leaf.estimate_rows.size for leaf in leaves.values())
        _assert_same_nodes(root, forest.nodes, tree.root, leaves)
    g = np.random.default_rng(1)
    x_new = g.standard_normal((57, x.shape[1]))
    wide = g.standard_normal((57, 2 * x.shape[1] + 1))
    # Fortran order and column slices: predict reads x by row and column, not by layout
    for query in (x, x_new, np.round(x_new, 0), np.asfortranarray(x_new), wide[:, 1::2],
                  wide[:, :x.shape[1]]):
        assert np.array_equal(forest.predict(query), reference_predict(ref, query))
    return empty_leaves, forest


def _leaf_depths(forest):
    """How many leaves of the forest sit at each depth."""
    f, found = forest.nodes, []
    stack = [(tree.root, 0) for tree in forest.trees]
    while stack:
        node, depth = stack.pop()
        if f.feature[node] < 0:
            found.append(depth)
        else:
            stack.extend([(f.left[node], depth + 1), (f.right[node], depth + 1)])
    return np.bincount(found)


@pytest.mark.parametrize("x_dim", [1, 2, 5, 7])
@pytest.mark.parametrize("n", [2, 11, 40, 150, 600, 2000])
def test_forest_matches_reference_node_for_node(n, x_dim):
    x, y = _data(n, x_dim, "normal")
    _check(x, y, ForestConfig(n_trees=4, min_leaf=1 if n == 2 else 5, seed=n))


@pytest.mark.parametrize("kind", ["rounded", "constant-y", "duplicate-x"])
@pytest.mark.parametrize("n, x_dim", [(40, 1), (150, 5), (600, 2), (2000, 7)])
def test_forest_matches_reference_with_ties(n, x_dim, kind):
    x, y = _data(n, x_dim, kind)
    _check(x, y, ForestConfig(n_trees=4, seed=7))


@pytest.mark.parametrize("max_depth", [0, 1, 8, 12])
@pytest.mark.parametrize("min_leaf", [1, 5, 20])
def test_forest_matches_reference_at_every_depth_and_leaf_size(min_leaf, max_depth):
    x, y = _data(400, 3, "rounded")
    empty_leaves, _ = _check(x, y, ForestConfig(n_trees=6, max_depth=max_depth,
                                                min_leaf=min_leaf, seed=3))
    if min_leaf == 1 and max_depth >= 8:
        assert empty_leaves  # leaves that inherit an ancestor's mean are covered


@pytest.mark.parametrize("x_dim", [1, 3])
def test_forest_of_roots_only_matches_reference(x_dim):
    # max_depth 0: every tree is one leaf, and every pair starts at it
    x, y = _data(150, x_dim, "normal")
    _, forest = _check(x, y, ForestConfig(n_trees=5, max_depth=0, seed=4))
    assert np.array_equal(_leaf_depths(forest), [5])


@pytest.mark.parametrize("n", [40, 400])
def test_single_feature_forest_matches_reference(n):
    x, y = _data(n, 1, "rounded")
    _check(x, y, ForestConfig(n_trees=5, min_leaf=2, seed=5))


def test_forest_with_leaves_at_every_depth_matches_reference():
    # y grows fourfold from each ninth of x1 to the next, so each split cuts off
    # the top ninth: a tree has a leaf at every depth from 1 to 8, and the pairs
    # routed through it leave the active set one depth after another
    x = np.random.default_rng(0).uniform(size=(400, 2))
    y = 4.0 ** np.floor(9 * x[:, 0])
    _, forest = _check(x, y, ForestConfig(n_trees=4, seed=3))
    depths = _leaf_depths(forest)
    assert depths.size == 9 and (depths[1:] > 0).all()


def test_split_leaves_tied_rows_in_their_stable_order():
    # ties in x, and y whose sums depend on their order: each node's rows must
    # come out as a stable sort of its feature would leave them
    g = np.random.default_rng(2)
    x = np.round(g.standard_normal((300, 2)), 0)
    y = g.standard_normal(300) * 10.0 ** g.integers(-8, 8, 300)
    rows = g.permutation(300)[:250]
    before = rows.copy()
    starts, counts = np.array([0, 90, 200]), np.array([90, 110, 50])
    feature, _, left_n = _split(x, *_with_sentinel(x, y), rows, starts, counts, 5)
    assert (feature >= 0).all()
    for start, count, f in zip(starts, counts, feature):
        node = before[start:start + count]
        assert np.array_equal(rows[start:start + count],
                              node[np.argsort(x[node, f], kind="stable")])


def test_predict_builds_its_child_table_once_per_call(monkeypatch):
    x, y = _data(300, 3, "normal")
    forest = HonestForestRegressor(ForestConfig(n_trees=50)).fit(x, y)
    query = np.random.default_rng(2).standard_normal((2000, 3))  # four blocks of pairs
    built, child_table = [], forest_module._child_table
    monkeypatch.setattr(forest_module, "_child_table",
                        lambda *nodes: built.append(1) or child_table(*nodes))
    together = forest.predict(query)
    assert len(built) == 1
    halves = np.concatenate([forest.predict(query[:700]), forest.predict(query[700:])])
    assert np.array_equal(together, halves)


def test_forest_predict_rejects_bad_input():
    forest = HonestForestRegressor(ForestConfig(n_trees=3))
    with pytest.raises(ContractError, match="fit"):
        forest.predict(np.zeros((2, 3)))
    x, y = _data(60, 3, "normal")
    forest.fit(x, y)
    for width in (2, 4):
        with pytest.raises(ShapeError, match=rf"fit on 3 columns; got x of shape \(5, {width}\)"):
            forest.predict(np.zeros((5, width)))
    for bad in (np.nan, np.inf, -np.inf):
        query = np.zeros((4, 3))
        query[2, 1] = bad
        with pytest.raises(DataError, match="finite"):
            forest.predict(query)
    assert forest.predict(np.zeros((4, 3))).shape == (4,)


def test_forest_fit_rejects_rows_that_do_not_pair_up():
    # more x rows than y once fit the first rows silently; fewer raised IndexError
    x, y = _data(60, 3, "normal")
    for bad_x, bad_y in ((x, y[:50]), (x[:50], y), (x[:, :, None], y), (x, y[:, None])):
        with pytest.raises(ShapeError, match=r"\(n, d\) and y of shape \(n,\)"):
            HonestForestRegressor(ForestConfig(n_trees=2)).fit(bad_x, bad_y)


def test_forest_rejects_bad_config_and_non_finite_rows():
    for bad in ({"n_trees": 0}, {"max_depth": -1}, {"min_leaf": 0},
                {"subsample_fraction": 0.0}, {"subsample_fraction": 1.5},
                {"subsample_fraction": float("nan")}, {"subsample_fraction": float("inf")}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            ForestConfig(**bad)
    x, y = _data(50, 2, "normal")
    x[3, 1] = np.nan
    with pytest.raises(DataError, match="finite"):
        HonestForestRegressor(ForestConfig(n_trees=2)).fit(x, y)


def test_forest_fit_memory_stays_bounded():
    # n = 20,000, x_dim 5, 20 trees: the node-by-node grower peaks at 4.0 MB and
    # this one at 9.4 MB (NumPy 2.4.6), because each padded pass is capped in size
    x, y = _data(20_000, 5, "normal")
    tracemalloc.start()
    try:
        HonestForestRegressor(ForestConfig(n_trees=20)).fit(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
