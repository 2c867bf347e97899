"""Honest regression forest.

Each tree draws a without-replacement subsample and splits it in half: one
half chooses the split structure (variance-reduction CART splits), the other
supplies the leaf means. Split-selection rows therefore never contribute to
leaf estimates, which is what makes the forest honest.

The trees grow level by level: one vectorized pass finds the best split of
every open node of a depth, across all trees. The pass pads each node's rows
to a common width with a sentinel row that sorts after every real one and
adds 0 to every sum, and sorts each feature by its rank plus the slot, a key
unique within a node. A node keeps its rows in the order a node-by-node grower
gives them (a split leaves both children's rows in the stable sort order of
its feature), so every split, leaf mean and prediction is the same float as
growing one node at a time.

Fit and predict route (row, tree) pairs to their leaves a depth at a time
through a flat child table, built once per call, in which a leaf points at
itself.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng
from .errors import ConfigError, ContractError, DataError, ShapeError

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


def _split(x, ranks, y, yy, rows, starts, counts, min_leaf):
    """(feature, threshold, left-child row count) of the best split of each node
    whose rows are rows[starts[i]:starts[i] + counts[i]], found in one pass; the
    feature is -1 where no split lowers the SSE. Puts a split node's rows in the
    stable sort order of its feature, left child first.

    Row n is a sentinel. `ranks[j]` holds each row's rank in column j of x
    times n + 1, the largest at row n; `y` and `yy`, the outcome and its
    square, hold 0 there. A node's padding slots hold row n, so they sort
    after its rows, and rank plus slot is unique within a node: any sort of it
    gives the stable sort order of x, as if the node were sorted on its own."""
    n = y.size - 1
    m = counts[:, None]
    width = int(m.max())
    pos = np.arange(width)
    real = pos < m
    at = starts[:, None] + pos
    r = np.where(real, rows.take(at, mode="clip"), n)
    each = np.arange(m.size)
    offsets = (each * width)[:, None]  # where each node's slots start in r
    last = each * width + m[:, 0] - 1
    k = pos[1:]
    too_small = (k < min_leaf) | (m - k < min_leaf)
    right_n = np.maximum(m - k, 1)  # >= 1 wherever both children are large enough
    best = np.full(m.size, np.inf)
    feature = np.full(m.size, -1)
    last_left = np.full(m.size, -1)  # the left child's last slot
    order = np.zeros(r.shape, dtype=np.int64)
    for j, rank in enumerate(ranks):
        key = rank.take(r)
        key += pos
        o = np.argsort(key, axis=1)
        o += offsets
        ids = r.take(o)  # the node's rows in sorted order, padding last
        csum = np.cumsum(y.take(ids), axis=1)
        csq = np.cumsum(yy.take(ids), axis=1)
        total_sum = csum.take(last)[:, None]
        total_sq = csq.take(last)[:, None]
        csum, csq = csum[:, :-1], csq[:, :-1]
        sse = csum ** 2
        sse /= k
        np.subtract(csq, sse, out=sse)  # left SSE
        right = total_sum - csum
        right **= 2
        right /= right_n
        np.subtract(total_sq - csq, right, out=right)  # right SSE
        sse += right
        rs = rank.take(ids)
        no_cut = rs[:, :-1] == rs[:, 1:]  # ties in x
        no_cut |= too_small
        np.copyto(sse, np.inf, where=no_cut)
        i = np.argmin(sse, axis=1)
        lowest = sse.take(each * (width - 1) + i)
        better = lowest < best - 1e-12  # the earliest feature wins a tie
        best[better] = lowest[better]
        feature[better] = j
        last_left[better] = i[better]
        order[better] = ids[better]
    s = np.flatnonzero(feature >= 0)
    rows[at[s][real[s]]] = order[s][real[s]]
    threshold = np.zeros(m.size)
    lo, hi = order[s, last_left[s]], order[s, last_left[s] + 1]
    threshold[s] = 0.5 * (x[lo, feature[s]] + x[hi, feature[s]])
    return feature, threshold, last_left + 1


def _with_sentinel(x, y):
    """`_split`'s (ranks, y, yy): each column's ranks times n + 1, the outcome
    and its square, each with a sentinel row n appended."""
    n = y.size
    ranks = np.full((x.shape[1], n + 1), n)
    for col, rank in zip(x.T, ranks):
        rank[:n] = np.unique(col, return_inverse=True)[1]
    ranks *= n + 1
    y = np.append(y, 0.0)
    return ranks, y, y * y


def _grow(x, y, structure, min_leaf, max_depth):
    """(feature, threshold, left, right, parent, depth) arrays of the trees whose
    structure rows are the rows of `structure`, grown one depth of every tree at a
    time. Node t is tree t's root, each depth's nodes follow the depth before,
    and a leaf has feature -1."""
    n_trees = structure.shape[0]
    ranks, y_pad, yy = _with_sentinel(x, y)
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
                        x, ranks, y_pad, yy, rows, starts[nodes], counts[nodes], min_leaf)
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


def _child_table(feature, threshold, left, right):
    """`_route`'s flat child table of a forest's nodes. A node is held as its
    slot 2 * node: slot 2 * node + goes_right holds the child's slot, and a
    leaf's two slots hold its own, with a threshold of +inf so that no finite
    x leaves it. Returns (child, inner, column, limit) per slot."""
    leaf = feature < 0
    node = np.arange(feature.size)
    child = 2 * np.stack([np.where(leaf, node, left), np.where(leaf, node, right)], axis=1).ravel()
    inner = np.repeat(~leaf, 2)
    column = np.repeat(np.where(leaf, 0, feature), 2)
    limit = np.repeat(np.where(leaf, np.inf, threshold), 2)
    return child, inner, column, limit


def _route(x, rows, nodes, table):
    """The leaf that each (row of x, start node) pair reaches, a depth at a
    time, through `_child_table`'s `table`. x (finite) is read through one
    C-order ravel at row * d + feature, and x <= threshold goes left. The
    pairs still at an inner node are carried on, compacted once a quarter of
    those carried has reached a leaf."""
    child, inner, column, limit = table
    flat = np.ravel(x)
    out = np.empty_like(nodes)
    for lo in range(0, rows.size, _PASS_ROWS):
        at = np.arange(lo, min(lo + _PASS_ROWS, rows.size))
        s, base = 2 * nodes[at], rows[at] * x.shape[1]
        while at.size:
            s = child.take(s + (flat.take(base + column.take(s)) > limit.take(s)))
            keep = np.flatnonzero(inner.take(s))
            if 4 * keep.size <= 3 * at.size:
                out[at] = s
                at, s, base = at.take(keep), s.take(keep), base.take(keep)
    return out // 2


def _group_means(y, rows, labels, n_labels):
    """(mean, grouped, start, count): per label, the mean of y over its rows,
    summed in their order as `y[rows].mean()` sums them; the rows grouped by
    label in that order, and each label's start and count in `grouped`."""
    # label * size + position is unique, so any sort gives the stable order
    order = np.argsort(labels * labels.size + np.arange(labels.size))
    grouped = rows[order]
    count = np.bincount(labels, minlength=n_labels)
    start = np.cumsum(count) - count
    mean = np.zeros(n_labels)
    by_count = np.argsort(count)
    for at in np.split(by_count, np.flatnonzero(np.diff(count[by_count])) + 1):
        if c := count[at[0]]:
            # a row-wise mean of a C-contiguous matrix sums each row as a 1-D mean does
            mean[at] = y[grouped[start[at, None] + np.arange(c)]].mean(axis=1)
    return mean, grouped, start, count


def _leaf_means(y, rows, leaf, parent, depth):
    """`_group_means` of the estimate rows by the leaf each reaches; a node that
    none reaches takes the mean of its nearest ancestor that some row passes."""
    value, grouped, start, count = _group_means(y, rows, leaf, parent.size)
    # up[d, v]: v's ancestor at depth d, or v itself from its own depth on
    up = np.empty((depth[-1] + 1, parent.size), dtype=np.int64)
    up[-1] = np.arange(parent.size)
    for d in range(depth[-1], 0, -1):
        up[d - 1] = np.where(depth >= d, parent.take(up[d]), up[d])
    reached = np.zeros(parent.size, dtype=bool)
    reached[up[:, count > 0]] = True
    empty = np.flatnonzero(~reached)  # empty leaves, and splits with only those below
    passed = reached[up[:, empty]]  # which of each one's ancestors some row passes
    source = up[passed.shape[0] - 1 - np.argmax(passed[::-1], axis=0), empty]
    # each row once per source above its leaf, one depth after another
    is_source = np.zeros(parent.size, dtype=bool)
    is_source[source] = True
    below = is_source[up]
    d, r = np.nonzero(below[:, leaf])
    targets = np.unique(source)
    value[targets] = _group_means(y, rows[r], up[d, leaf[r]], parent.size)[0][targets]
    value[empty] = value[source]
    return value, grouped, start, count


class HonestForestRegressor:
    """Average of honest trees fit on independent subsamples."""

    def __init__(self, config: ForestConfig):
        self.config = config
        self.trees: list[HonestTree] = []
        self.nodes: ForestNodes | None = None
        self.n_features: int | None = None  # x's width at fit

    def fit(self, x: np.ndarray, y: np.ndarray) -> "HonestForestRegressor":
        x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        y = np.asarray(y, dtype=np.float64)
        if x.ndim != 2 or y.shape != x.shape[:1]:
            raise ShapeError(f"a forest needs x of shape (n, d) and y of shape (n,); "
                             f"got {x.shape} and {y.shape}")
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
                      _child_table(feature, threshold, left, right))
        self.nodes = ForestNodes(feature, threshold, left, right,
                                 *_leaf_means(y, rows, leaf, parent, depth))
        self.trees = [HonestTree(self.nodes, t, structure[t], estimate[t])
                      for t in range(cfg.n_trees)]
        self.n_features = x.shape[1]
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.nodes is None:
            raise ContractError("predict needs a fitted forest; call fit first")
        x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ShapeError(f"the forest was fit on {self.n_features} columns; "
                             f"got x of shape {x.shape}")
        if not np.isfinite(x).all():
            raise DataError("a forest predicts only at finite covariates")
        f = self.nodes
        n_trees = len(self.trees)
        total = np.zeros(x.shape[0])
        block = max(1, _PASS_ROWS // n_trees)
        table = _child_table(f.feature, f.threshold, f.left, f.right)
        for lo in range(0, x.shape[0], block):
            rows = np.arange(lo, min(lo + block, x.shape[0]))
            leaf = _route(x, np.tile(rows, n_trees), np.repeat(np.arange(n_trees), rows.size),
                          table)
            # summed tree by tree, in tree order
            for tree_values in f.value[leaf].reshape(n_trees, rows.size):
                total[lo:lo + rows.size] += tree_values
        return total / n_trees
