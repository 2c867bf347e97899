"""Honest regression forest.

Each tree draws a without-replacement subsample and splits it in half: one
half chooses the split structure (variance-reduction CART splits), the other
supplies the leaf means. Split-selection rows therefore never contribute to
leaf estimates, which is what makes the forest honest.

The trees grow level by level: one vectorized pass finds the best split of
every open node of a depth, across all trees. A node keeps its rows in the
order a node-by-node grower gives them (a split leaves both children's rows
in the stable sort order of its feature), so every split, leaf mean and
prediction is the same float as growing one node at a time.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import ConfigError, DataError

# rows (node rows, padding included, or row-tree pairs) one pass handles;
# bounds a pass's temporaries at any sample size
_PASS_ROWS = 1 << 15


@dataclass
class ForestConfig:
    n_trees: int = 200
    max_depth: int = 8
    min_leaf: int = 5
    subsample_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for key, ok, rule in (("n_trees", self.n_trees >= 1, ">= 1"),
                              ("max_depth", self.max_depth >= 0, ">= 0"),
                              ("min_leaf", self.min_leaf >= 1, ">= 1"),
                              ("subsample_fraction", 0.0 < self.subsample_fraction <= 1.0,
                               "in (0, 1]")):
            if not ok:
                raise ConfigError(f"{key} must be {rule}, got {getattr(self, key)!r}")


class Leaf(NamedTuple):
    node: int  # its index in the forest's node arrays
    value: float
    estimate_rows: np.ndarray


class ForestNodes(NamedTuple):
    """Every tree of a fitted forest as flat node arrays; a leaf has feature -1."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # a leaf's honest mean
    leaf_rows: np.ndarray  # the estimate rows, grouped by leaf
    leaf_start: np.ndarray  # where a leaf's rows start in `leaf_rows`
    leaf_count: np.ndarray


class HonestTree:
    """One tree of a fitted forest: its two halves of the subsample, and its
    root in the forest's node arrays."""

    def __init__(self, nodes: ForestNodes, root: int,
                 structure_rows: np.ndarray, estimate_rows: np.ndarray):
        self.nodes = nodes
        self.root = root
        self.structure_rows = structure_rows
        self.estimate_rows = estimate_rows

    def leaves(self) -> list[Leaf]:
        f = self.nodes
        found = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if f.feature[node] >= 0:
                stack.extend([f.left[node], f.right[node]])
                continue
            start = f.leaf_start[node]
            found.append(Leaf(int(node), float(f.value[node]),
                              f.leaf_rows[start:start + f.leaf_count[node]]))
        return found


def _split(x, y, rows, starts, counts, min_leaf):
    """(feature, threshold, left-child row count) of the best split of each node
    whose rows are rows[starts[i]:starts[i] + counts[i]], found in one pass; the
    feature is -1 where no split lowers the SSE. Puts a split node's rows in the
    stable sort order of its feature, left child first."""
    m = counts[:, None]
    pos = np.arange(m.max())
    real = pos < m
    at = np.where(real, starts[:, None] + pos, starts[:, None])
    r = rows[at]
    yr = y[r]
    k = pos[1:]
    sizes_ok = (k >= min_leaf) & (m - k >= min_leaf)
    right_n = np.maximum(m - k, 1)  # >= 1 wherever sizes_ok holds
    each = np.arange(m.size)
    best = np.full(m.size, np.inf)
    feature = np.full(m.size, -1)
    threshold = np.zeros(m.size)
    left_n = np.zeros(m.size, dtype=np.int64)
    order = np.zeros(r.shape, dtype=np.int64)
    for j in range(x.shape[1]):
        # +inf padding sorts after every (finite) value, so each node sorts as on its own
        xs = np.where(real, x[r, j], np.inf)
        o = np.argsort(xs, axis=1, kind="stable")
        xs_sorted = np.take_along_axis(xs, o, axis=1)
        ys_sorted = np.take_along_axis(yr, o, axis=1)
        csum = np.cumsum(ys_sorted, axis=1)
        csq = np.cumsum(ys_sorted * ys_sorted, axis=1)
        total_sum = csum[each, m[:, 0] - 1][:, None]
        total_sq = csq[each, m[:, 0] - 1][:, None]
        valid = (xs_sorted[:, :-1] != xs_sorted[:, 1:]) & sizes_ok
        left_sse = csq[:, :-1] - csum[:, :-1] ** 2 / k
        right_sum = total_sum - csum[:, :-1]
        right_sse = (total_sq - csq[:, :-1]) - right_sum ** 2 / right_n
        sse = np.where(valid, left_sse + right_sse, np.inf)
        i = np.argmin(sse, axis=1)
        lowest = sse[each, i]
        better = lowest < best - 1e-12  # the earliest feature wins a tie
        best[better] = lowest[better]
        feature[better] = j
        threshold[better] = 0.5 * (xs_sorted[each, i] + xs_sorted[each, i + 1])[better]
        left_n[better] = i[better] + 1
        order[better] = o[better]
    s = feature >= 0
    rows[at[s][real[s]]] = np.take_along_axis(r[s], order[s], axis=1)[real[s]]
    return feature, threshold, left_n


def _grow(x, y, structure, min_leaf, max_depth):
    """(feature, threshold, left, right, parent, depth) arrays of the trees whose
    structure rows are the rows of `structure`, grown one depth of every tree at a
    time. Node t is tree t's root, each depth's nodes follow the depth before,
    and a leaf has feature -1."""
    n_trees = structure.shape[0]
    rows = structure.ravel()
    counts = np.full(n_trees, structure.shape[1])
    features, thresholds, parents = [], [], [np.full(n_trees, -1)]
    first = 0  # node index of the depth's first node
    for depth in range(max_depth + 1):
        feat = np.full(counts.size, -1)
        thr = np.zeros(counts.size)
        cut = np.zeros(counts.size, dtype=np.int64)
        if depth < max_depth:
            starts = np.cumsum(counts) - counts
            yr = y[rows]
            open_ = ((counts >= 2 * min_leaf)
                     & (np.maximum.reduceat(yr, starts) > np.minimum.reduceat(yr, starts)))
            rows = rows.copy()
            # one pass per width class (counts in (2^(w-1), 2^w]), so padding at most doubles it
            widths = np.frexp(counts - 1)[1]
            for w in np.unique(widths[open_]):
                group = np.flatnonzero(open_ & (widths == w))
                step = max(1, _PASS_ROWS >> int(w))
                for lo in range(0, group.size, step):
                    nodes = group[lo:lo + step]
                    feat[nodes], thr[nodes], cut[nodes] = _split(
                        x, y, rows, starts[nodes], counts[nodes], min_leaf)
        features.append(feat)
        thresholds.append(thr)
        split = feat >= 0
        if not split.any():
            break
        rows = rows[np.repeat(split, counts)]
        counts = np.stack([cut[split], counts[split] - cut[split]], axis=1).ravel()
        parents.append(np.repeat(first + np.flatnonzero(split), 2))
        first += split.size
    feature = np.concatenate(features)
    parent = np.concatenate(parents)
    depth = np.repeat(np.arange(len(features)), [f.size for f in features])
    left = np.full(feature.size, -1)
    right = np.full(feature.size, -1)
    children = np.arange(n_trees, feature.size)
    left[parent[children[0::2]]] = children[0::2]
    right[parent[children[1::2]]] = children[1::2]
    return feature, np.concatenate(thresholds), left, right, parent, depth


def _route(x, rows, nodes, feature, threshold, left, right):
    """The leaf that each (row of x, start node) pair reaches, a depth at a time."""
    out = np.empty_like(nodes)
    for lo in range(0, rows.size, _PASS_ROWS):
        r, node = rows[lo:lo + _PASS_ROWS], nodes[lo:lo + _PASS_ROWS]
        f = feature[node]
        while (inner := f >= 0).any():
            goes_left = x[r, np.maximum(f, 0)] <= threshold[node]
            node = np.where(inner, np.where(goes_left, left[node], right[node]), node)
            f = feature[node]
        out[lo:lo + _PASS_ROWS] = node
    return out


def _group_means(y, rows, labels, n_labels):
    """(mean, grouped, start, count): per label, the mean of y over its rows,
    summed in their order as `y[rows].mean()` sums them; the rows grouped by
    label in that order, and each label's start and count in `grouped`."""
    order = np.argsort(labels, kind="stable")
    grouped = rows[order]
    count = np.bincount(labels, minlength=n_labels)
    start = np.cumsum(count) - count
    mean = np.zeros(n_labels)
    for c in np.unique(count[count > 0]):
        at = np.flatnonzero(count == c)
        # a row-wise mean of a C-contiguous matrix sums each row as a 1-D mean does
        mean[at] = y[grouped[start[at, None] + np.arange(c)]].mean(axis=1)
    return mean, grouped, start, count


def _leaf_means(y, rows, leaf, parent, depth):
    """`_group_means` of the estimate rows by the leaf each reaches; a leaf that
    none reaches takes the mean of its nearest ancestor that some row passes."""
    value, grouped, start, count = _group_means(y, rows, leaf, parent.size)
    reached = count.copy()
    for d in range(depth[-1], 0, -1):
        at = np.flatnonzero(depth == d)
        np.add.at(reached, parent[at], reached[at])
    empty = np.flatnonzero(reached == 0)  # empty leaves, and splits with only those below
    source = parent[empty]
    while not reached[source].all():
        source = np.where(reached[source] > 0, source, parent[source])
    for d in np.unique(depth[source]):
        targets = np.unique(source[depth[source] == d])
        up = leaf  # each row's node at depth d, or its leaf above that depth
        while (deeper := depth[up] > d).any():
            up = np.where(deeper, parent[up], up)
        keep = np.isin(up, targets)
        value[targets] = _group_means(y, rows[keep], up[keep], parent.size)[0][targets]
    value[empty] = value[source]
    return value, grouped, start, count


class HonestForestRegressor:
    """Average of honest trees fit on independent subsamples."""

    def __init__(self, config: ForestConfig):
        self.config = config
        self.trees: list[HonestTree] = []
        self.nodes: ForestNodes | None = None

    def fit(self, x: np.ndarray, y: np.ndarray) -> "HonestForestRegressor":
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        n = y.size
        cfg = self.config
        if n < max(2, cfg.min_leaf):
            raise DataError(f"need at least {max(2, cfg.min_leaf)} rows to fit a forest, got {n}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise DataError("a forest needs finite covariates and outcomes")
        m = min(n, max(2, int(round(cfg.subsample_fraction * n))))
        sub = np.stack([rng.stream(cfg.seed, "tree", t).choice(n, size=m, replace=False)
                        for t in range(cfg.n_trees)])
        structure, estimate = sub[:, :m // 2], sub[:, m // 2:]
        feature, threshold, left, right, parent, depth = _grow(
            x, y, structure, cfg.min_leaf, cfg.max_depth)
        rows = estimate.ravel()
        leaf = _route(x, rows, np.repeat(np.arange(cfg.n_trees), estimate.shape[1]),
                      feature, threshold, left, right)
        self.nodes = ForestNodes(feature, threshold, left, right,
                                 *_leaf_means(y, rows, leaf, parent, depth))
        self.trees = [HonestTree(self.nodes, t, structure[t], estimate[t])
                      for t in range(cfg.n_trees)]
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        f = self.nodes
        n_trees = len(self.trees)
        total = np.zeros(x.shape[0])
        block = max(1, _PASS_ROWS // n_trees)
        for lo in range(0, x.shape[0], block):
            rows = np.arange(lo, min(lo + block, x.shape[0]))
            leaf = _route(x, np.tile(rows, n_trees), np.repeat(np.arange(n_trees), rows.size),
                          f.feature, f.threshold, f.left, f.right)
            # summed tree by tree, in tree order
            for tree_values in f.value[leaf].reshape(n_trees, rows.size):
                total[lo:lo + rows.size] += tree_values
        return total / n_trees
