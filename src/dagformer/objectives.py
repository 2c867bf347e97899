"""Training objectives: outcome MSE, treatment BCE, their joint average,
and the kernel moment-restriction losses (U- and V-statistic variants).

All losses are built from tape primitives so gradients flow to the model;
callers may pass plain arrays where no gradient is needed.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import rng, tensor as T
from .errors import ContractError, DataError
from .graph import NodeRole
from .tensor import Tensor

BCE_CLAMP = 1e-12


class Objective:
    """A loss over exactly the heads of `head_roles`. `bind(model, batch, std)`
    reads a run's targets once and returns the loss of one batch, `(preds,
    rows) -> (loss, mse)`; `mse` is the outcome MSE the log reports, or None."""
    head_roles: tuple = ()
    penalizes_parameters = False  # so Adam adds no L2 of its own
    min_rows = 1  # smaller batches are skipped


@dataclass
class GFormula(Objective):
    """Outcome-regression objective (MSE on the outcome head)."""
    head_roles = (NodeRole.OUTCOME,)

    def bind(self, model, batch, std):
        outcome = model.outcome_node
        y = std[:, model._node_index(outcome)]

        def batch_loss(preds, rows):
            mse = loss_gformula(preds[outcome], y[rows])
            return mse, mse
        return batch_loss


@dataclass
class Iptw(Objective):
    """Propensity objective (BCE on the treatment head)."""
    head_roles = (NodeRole.TREATMENT,)

    def bind(self, model, batch, std):
        treatment = model.treatment_node
        a = batch[:, model._node_index(treatment)]
        return lambda preds, rows: (loss_iptw(preds[treatment], a[rows]), None)


@dataclass
class AipwJoint(Objective):
    """Joint objective: (MSE + BCE) / 2 over both heads."""
    head_roles = (NodeRole.TREATMENT, NodeRole.OUTCOME)

    def bind(self, model, batch, std):
        outcome, treatment = GFormula().bind(model, batch, std), Iptw().bind(model, batch, std)

        def batch_loss(preds, rows):
            mse, _ = outcome(preds, rows)
            bce, _ = treatment(preds, rows)
            return (mse + bce) * 0.5, mse
        return batch_loss


@dataclass
class Nmmr(Objective):
    """Kernel moment-restriction objective for the bridge-function head.

    variant "U" zeroes the kernel diagonal and normalizes by n(n-1);
    variant "V" keeps it and normalizes by n^2. `lam` scales the sum of
    squared model parameters added to the risk. `kernel_bandwidth` of None
    means the median pairwise-distance heuristic, computed once per run on the
    kernel features: treatment, treatment proxies and confounders.
    """
    variant: str = "U"
    kernel_bandwidth: Optional[float] = None
    lam: float = 0.0
    head_roles = (NodeRole.OUTCOME,)
    penalizes_parameters = True

    def __post_init__(self):
        if self.variant not in ("U", "V"):
            raise ContractError(f"NMMR variant must be 'U' or 'V', got {self.variant!r}")
        if not self.lam >= 0 or math.isinf(self.lam):
            raise ContractError(f"lambda must be a finite number >= 0, got {self.lam}")
        bandwidth = self.kernel_bandwidth
        if bandwidth is not None and (isinstance(bandwidth, bool) or not bandwidth > 0
                                      or math.isinf(bandwidth)):
            raise ContractError(f"kernel_bandwidth must be a finite number > 0, got {bandwidth!r}")
        # a singleton batch has no off-diagonal pairs for the U-statistic
        self.min_rows = 2 if self.variant == "U" else 1

    def _targets(self, model, std):
        """(standardized outcome, kernel features, bandwidth) of a run."""
        roles = (NodeRole.TREATMENT, NodeRole.TREATMENT_PROXY, NodeRole.CONFOUNDER)
        features = std[:, [i for i, node in enumerate(model.input_nodes)
                           if model.graph.role_of(node) in roles]]
        bandwidth = self.kernel_bandwidth
        if bandwidth is None:
            bandwidth = median_heuristic_bandwidth(features)
        return std[:, model._node_index(model.outcome_node)], features, bandwidth

    def bind(self, model, batch, std):
        y, features, bandwidth = self._targets(model, std)
        outcome, params = model.outcome_node, model.parameters()

        def batch_loss(preds, rows):
            kernel = rbf_kernel_matrix(features[rows], bandwidth)
            return loss_nmmr(y[rows], preds[outcome], kernel, self.variant, self.lam,
                             params), None
        return batch_loss

    def risk(self, model, batch) -> float:
        """The model's risk over all rows of `batch`, without the parameter
        penalty: `bind`'s loss over every row, with the bridge's values computed
        in `predict`'s row blocks and the kernel in row bands by `nmmr_risk`."""
        y, features, bandwidth = self._targets(model, model._standardize(batch))
        h_vals = model._forward_blocks(batch)[model.outcome_node][0]
        return nmmr_risk(y, h_vals, features, bandwidth, self.variant)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def _check_lengths(*arrays):
    sizes = {np.asarray(a.data if isinstance(a, Tensor) else a).size for a in arrays}
    if len(sizes) != 1:
        raise ContractError(f"inputs have unequal lengths: {sorted(sizes)}")
    (n,) = sizes
    if n < 1:
        raise ContractError("loss needs at least one observation")
    return n


def loss_gformula(y_hat, y) -> Tensor:
    """Mean squared error (1/n) sum (y_hat_i - y_i)^2."""
    _check_lengths(y_hat, y)
    diff = _as_tensor(y_hat) - _as_tensor(y)
    return T.mean_all(diff * diff)


def loss_iptw(a_hat, a) -> Tensor:
    """Binary cross-entropy; predictions clamped to [1e-12, 1 - 1e-12]."""
    _check_lengths(a_hat, a)
    a_arr = np.asarray(a.data if isinstance(a, Tensor) else a, dtype=np.float64)
    if not np.isin(a_arr, (0.0, 1.0)).all():
        raise DataError("treatment labels must be 0/1")
    p = T.clip(_as_tensor(a_hat), BCE_CLAMP, 1.0 - BCE_CLAMP)
    a_t = Tensor(a_arr)
    return T.neg(T.mean_all(a_t * T.log(p) + (1.0 - a_t) * T.log(1.0 - p)))


def loss_aipw_joint(y_hat, y, a_hat, a) -> Tensor:
    """(MSE + BCE) / 2 over the outcome and treatment heads."""
    return (loss_gformula(y_hat, y) + loss_iptw(a_hat, a)) * 0.5


# entries per row band of a kernel and per item of a distance pass: bounds
# their temporaries at about 1 MiB each, whatever the number of rows
_BAND_ENTRIES = 2 ** 17
# the median is selected on the float64 bit patterns of the squared distances,
# which for non-negative floats sort as the int64 integers they view as, all
# in [0, 2^63): a counting pass counts an interval's entries in at most 2^16
# sub-intervals, each an aligned block of 2^shift patterns
_DIGIT = 16
_ALL_BITS = 1 << 63
# an interval of at most this many entries (8 MiB) is collected and partitioned
_COLLECT_CAP = 2 ** 20
# pairs in the sample that brackets the middle ranks (4 MiB of arrays at d = 2,
# freed before the first pass), and the sample ranks on each side of its middle
# that the bracket spans: six standard deviations of the sample rank of the
# true median, sqrt(m) / 2 each
_SAMPLE = 2 ** 16
_SPREAD = 6 * 128
# bit patterns added on each side of the bracket (about 1e-6 relative), so a
# tie that the sample's own floats place a few ulps away still falls inside
_MARGIN = 2 ** 32
# rows per leaf of the distance passes' k-d tree, at most
_LEAF_ROWS = 32
# (row leaf, node) pairs per depth of one walk down the tree, at most: bounds
# the walk's temporaries at d x 512 KiB each
_WALK_PAIRS = 2 ** 16


class _Tree(NamedTuple):
    """The feature rows in the leaves of a balanced k-d tree. Leaf k holds
    rows starts[k]:starts[k + 1] of the leaf order, as blocks[k], padded to
    the largest leaf with rows of zeros whose squared norm is +inf, so that
    every distance to them is +inf. boxes[l] is (lo, hi, sqmax) of the 2^l
    nodes at depth l: their columns' least and greatest values, each (d,
    2^l), and their rows' greatest squared norm."""
    blocks: np.ndarray  # (leaves, w, d)
    twice: np.ndarray  # 2.0 * blocks
    sq: np.ndarray  # (leaves, w): the blocks' squared norms
    starts: np.ndarray
    boxes: list


def _kd_tree(rows, sq) -> _Tree:
    """Split every node at its middle row, on its widest column, a depth at a
    time, until no leaf holds more than `_LEAF_ROWS` rows. A node of m rows
    has children of m // 2 and m - m // 2 rows, so every leaf sits at one
    depth and holds floor(n / 2^depth) or one more rows: at least
    `_LEAF_ROWS` / 2 rows, unless the root is the only leaf."""
    n, d = rows.shape
    depth = (-(-n // _LEAF_ROWS) - 1).bit_length()
    columns = rows.T.copy()
    rank = np.empty((d, n), np.int64)  # of each row in each column, ties by index
    np.put_along_axis(rank, np.argsort(columns, axis=1, kind="stable"), np.arange(n), axis=1)
    order, starts = np.arange(n), np.array([0, n])
    for _ in range(depth):
        x, first, sizes = columns.take(order, axis=1), starts[:-1], np.diff(starts)
        widest = np.argmax(np.maximum.reduceat(x, first, axis=1)
                           - np.minimum.reduceat(x, first, axis=1), axis=0)
        node = np.repeat(np.arange(sizes.size), sizes)
        order = order[np.argsort(node * n + rank[widest[node], order])]
        starts = np.append(np.stack([first, first + sizes // 2], axis=1).ravel(), n)
    sizes, x = np.diff(starts), columns.take(order, axis=1)
    slot = np.arange(-(-n >> depth))
    real = slot < sizes[:, None]
    taken = order[np.minimum(starts[:-1, None] + slot, n - 1)]
    blocks = np.where(real[..., None], rows.take(taken, axis=0), 0.0)
    block_sq = np.where(real, sq.take(taken), np.inf)
    lo, hi = np.minimum.reduceat(x, starts[:-1], axis=1), np.maximum.reduceat(x, starts[:-1], axis=1)
    sqmax = np.maximum.reduceat(sq.take(order), starts[:-1])
    boxes = [(lo, hi, sqmax)]
    for _ in range(depth):
        lo, hi = lo.reshape(d, -1, 2).min(axis=2), hi.reshape(d, -1, 2).max(axis=2)
        sqmax = sqmax.reshape(-1, 2).max(axis=1)
        boxes.append((lo, hi, sqmax))
    return _Tree(blocks, 2.0 * blocks, block_sq, starts, boxes[::-1])


def _sq_dists(twice, sq, rows, sq_rows, out=None):
    """Unclamped squared distances of the rows whose doubles are `twice` and
    squared norms `sq` to `rows`, whose squared norms are `sq_rows`, into
    `out` if given; stacked operands give a stack of products. Every caller
    uses this one expression, sq_i + sq_j - (2.0 * rows_i) @ rows_j. BLAS may
    sum a product's d terms in another order, or with fused multiply-adds,
    for another shape of product or another place of the pair in it, so a
    pair's float is fixed only for one shape and place."""
    prod = np.matmul(twice, np.swapaxes(rows, -1, -2))
    d2 = np.add(sq[..., :, None], sq_rows[..., None, :], out=out)
    return np.subtract(d2, prod, out=d2)


def _bands(n: int):
    """(lo, hi) row bands of about `_BAND_ENTRIES` distances to n rows."""
    band = max(1, _BAND_ENTRIES // n)
    return [(lo, min(lo + band, n)) for lo in range(0, n, band)]


def _walk(tree: _Tree, a: np.ndarray, base: int, top: int):
    """(below, a, b) for the row leaves `a`: the pairs of leaves a[i] <= b[i]
    whose squared distances may lie in the bit interval [base, top), and the
    number of pairs of rows i < j in those row leaves whose distances are
    proven under `base`.

    Each row leaf is walked down the tree with the nodes whose leaves are its
    own or follow it, a depth at a time. A pair's squared distances lie
    between its boxes' nearest and farthest corners, widened by the rounding
    of those bounds and of `_sq_dists`. With u = 2^-53 and s = sq_i + sq_j,
    the float of s - 2 x_i . x_j is within (2d + 3) u s of the squared
    distance, whatever the order of its sums: the two norms and the product
    are each within d u s, the sum of the norms rounds by at most u s and the
    difference by at most 2 u s. The slack is 4 (d + 2) u times the boxes'
    greatest s, plus (d + 2) 2^-1022 for subnormal roundings. The bounds are
    within (d + 2) u of themselves and are widened by 2 (d + 3) u. A pair
    wholly under `base` is counted, one wholly at or above `top` is dropped,
    and any other is split into the node's children or, at a leaf, kept."""
    _, _, _, starts, boxes = tree
    d, depth, sizes = boxes[0][0].shape[0], len(boxes) - 1, np.diff(starts)
    leaf_lo, leaf_hi, leaf_sqmax = boxes[-1]
    grow = (d + 3) * 2.0 ** -52
    b, below = np.zeros_like(a), 0
    for level, (lo, hi, sqmax) in enumerate(boxes):
        shift = depth - level
        lo_b, hi_b = lo.take(b, axis=1), hi.take(b, axis=1)
        lo_a, hi_a = leaf_lo.take(a, axis=1), leaf_hi.take(a, axis=1)
        near = np.square(np.maximum(np.maximum(lo_b - hi_a, lo_a - hi_b), 0.0)).sum(axis=0)
        far = np.square(np.maximum(hi_b - lo_a, hi_a - lo_b)).sum(axis=0)
        slack = (d + 2) * (2.0 ** -51 * (sqmax[b] + leaf_sqmax[a]) + 2.0 ** -1022)
        near = np.maximum(near * (1.0 - grow) - slack, 0.0).view(np.int64)
        far = (far * (1.0 + grow) + slack).view(np.int64)
        own = b == a >> shift  # b holds leaf a
        ahead = b > a >> shift  # b's leaves all follow leaf a
        counted = (far < base) & ((ahead | own) if shift == 0 else ahead)
        node_rows = starts[(b + 1) << shift] - starts[b << shift]
        below += int(np.where(own, sizes[a] * (sizes[a] - 1) // 2,
                              sizes[a] * node_rows)[counted].sum())
        keep = (ahead | own) & ~counted & (near < top)
        if shift:
            a, b = np.repeat(a[keep], 2), (2 * b[keep, None] + [0, 1]).ravel()
        else:
            a, b = a[keep], b[keep]
    return below, a, b


def _upper_bits(tree: _Tree, base: int, width: int):
    """(below, bits) items over the pairs i < j of the tree's rows: `bits`
    holds clamped squared distances as int64 bit patterns, in one buffer of at
    most `_BAND_ENTRIES` entries that the next item overwrites, and `below`
    counts pairs whose distances lie under `base` and get no float. Every pair
    whose distance may lie in the bit interval [base, base + width) is in some
    `bits`, so an interval of every bit pattern prunes nothing.

    Each pair of leaves that `_walk` keeps is one product of the same (w, w)
    shape, w the largest leaf's rows, so that each pair of rows gets the same
    float in every pass, whatever the interval. A product holds +inf where a
    padding row is, and in a leaf's product with itself, for its pairs j <= i:
    they sort above every finite distance, and no rank counted from the bottom
    moves."""
    blocks, twice, sq = tree.blocks, tree.twice, tree.sq
    leaves, w = sq.shape
    space = np.empty(_BAND_ENTRIES)
    lower = np.tri(w, dtype=bool)
    step, group = _BAND_ENTRIES // (w * w), max(1, _WALK_PAIRS // leaves)
    for first in range(0, leaves, group):
        below, a, b = _walk(tree, np.arange(first, min(first + group, leaves)), base, base + width)
        yield below, space[:0].view(np.int64)
        for p in range(0, a.size, step):
            left, right = a[p:p + step], b[p:p + step]
            d2 = _sq_dists(twice[left], sq[left], blocks[right], sq[right],
                           out=space[:left.size * w * w].reshape(left.size, w, w))
            own = left == right
            if own.any():
                d2[own] = np.where(lower, np.inf, d2[own])
            yield 0, np.maximum(d2, 0.0, out=d2).view(np.int64).ravel()


def _shift(width: int) -> int:
    """log2 of the sub-interval width that counts [base, base + width) in at most 2^16."""
    return max(0, (width - 1).bit_length() - _DIGIT)


def _sample_bracket(rows, sq):
    """(base, width, expected): the bit interval [base, base + width) from the
    0.5 - 1.2% to the 0.5 + 1.2% quantile of the squared distances of
    `_SAMPLE` random pairs, widened by `_MARGIN`, and the number of pairs it
    should hold, six standard deviations high. It is counted in aligned blocks
    of 2^shift patterns, as few as fit it, so it holds about 2.3% of the pairs.
    The pairs come from a fixed stream, so an input always gets one bracket."""
    n = rows.shape[0]
    g = rng.stream(0, "median-heuristic-sample")
    i = g.integers(0, n, _SAMPLE)
    j = g.integers(0, n - 1, _SAMPLE)
    j += j >= i
    d2 = sq[i] + sq[j] - 2.0 * np.einsum("ij,ij->i", rows[i], rows[j])
    bits = np.maximum(d2, 0.0, out=d2).view(np.int64)
    mid = _SAMPLE // 2
    bits.partition([mid - _SPREAD, mid + _SPREAD])
    lo = max(0, int(bits[mid - _SPREAD]) - _MARGIN)
    hi = min(_ALL_BITS - 1, int(bits[mid + _SPREAD]) + _MARGIN)
    shift = 0
    while (hi >> shift) - (lo >> shift) >= 1 << _DIGIT:
        shift += 1
    base, top = lo >> shift << shift, (hi >> shift) + 1 << shift
    sampled = np.count_nonzero((bits >= base) & (bits < top))
    expected = math.ceil((sampled + 6 * math.sqrt(sampled)) * (n * (n - 1) // 2) / _SAMPLE)
    return base, top - base, expected


def _straddle(tree, split, base, width):
    """(the largest entry below `split`, the smallest at or above it), in one
    pass over the pairs that may lie in [base, base + width), which holds both."""
    lower, upper = -1, _ALL_BITS - 1
    for _, bits in _upper_bits(tree, base, width):
        under = bits < split
        lower = max(lower, int(bits.max(where=under, initial=-1)))
        upper = min(upper, int(bits.min(where=~under, initial=_ALL_BITS - 1)))
    return lower, upper


def median_heuristic_bandwidth(rows: np.ndarray) -> float:
    """Median pairwise Euclidean distance of the feature rows.

    Each pair's squared distance is the float `_sq_dists` gives it in its
    two k-d tree leaves' product, clamped at 0, computed in each pass only if
    it may lie in the pass's interval, and never kept (`_upper_bits`). The
    two middle order
    statistics (one rank twice for an odd pair count) are selected on the
    distances' bit patterns, from one interval [base, base + width) that
    holds both. Each distance pass counts it in at most 2^16 aligned
    sub-intervals, or collects it if it holds at most `_COLLECT_CAP` entries;
    when every entry fits, one pass collects them all. Otherwise the first
    interval is the bracket a fixed sample of pairs predicts
    (`_sample_bracket`), and the first pass also counts the entries below it.
    A collected interval gives the ranks by a partition; one that held more
    than the sample expected but at most the cap is collected next; a larger
    one narrows to the ranks' sub-interval. The ranks are adjacent, so where
    a boundary parts them the lower is the largest entry below it and the
    upper the smallest at or above it: one more pass (`_straddle`). If the
    sample missed both, the next interval is every bit pattern. Sub-intervals
    are aligned blocks no wider than the parts of a count of every pattern by
    its top 16 bits, so unless the sample misses, no input takes more passes
    than counting from every pattern would.
    Only the selected values are square-rooted; sqrt is monotone, so this is
    exactly the median of the distances. Beyond the n rows' k-d tree, memory
    is a product's and a walk's temporaries and at most `_COLLECT_CAP`
    entries, whatever n.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n = rows.shape[0]
    if n < 2:
        raise DataError(f"median heuristic needs at least two rows, got {n}")
    sq = (rows * rows).sum(axis=1)
    if not np.isfinite(4.0 * sq).all():  # then every squared distance is finite too
        raise DataError("median heuristic needs finite feature rows whose squared "
                        "distances are finite")
    tree = _kd_tree(rows, sq)
    pairs = n * (n - 1) // 2
    leaves, w = tree.sq.shape
    entries = leaves * (leaves + 1) // 2 * w * w  # what a pass over every bit pattern yields
    middle = (pairs - 1) // 2  # the lower middle rank; the upper is the next, or it again
    # the interval holds `count` entries, and the lower middle rank is `lo`
    # among them; for the bracket, `lo` is None and `count` the sample's
    # estimate until the first pass has counted them
    base, width, count, lo = 0, _ALL_BITS, entries, middle
    if entries > _COLLECT_CAP:
        (base, width, count), lo = _sample_bracket(rows, sq), None
    while True:
        counting, shift = lo is None, _shift(width)
        hist = np.zeros(1 << _DIGIT, np.int64) if counting or count > _COLLECT_CAP else None
        kept = np.empty(count, np.int64) if count <= _COLLECT_CAP else None
        under = inside = 0
        for below, bits in _upper_bits(tree, base, width):
            low = bits < base
            chosen = np.compress(low ^ (bits < base + width), bits)
            if counting:
                under += below + np.count_nonzero(low)
            if hist is not None:
                part = np.bincount((chosen - base) >> shift)
                hist[:part.size] += part
            if kept is not None:
                kept[inside:inside + chosen.size] = chosen[:max(0, kept.size - inside)]
            inside += chosen.size
        if counting:
            count, lo = inside, middle - under
        hi = lo + 1 - pairs % 2
        if lo < 0 or hi >= count:  # the sample's bracket missed a middle rank
            if lo < hi and hi in (0, count):  # its boundary parts them
                values = _straddle(tree, base if hi == 0 else base + width, 0, _ALL_BITS)
                break
            base, width, count, lo = 0, _ALL_BITS, entries, middle
            continue
        if kept is not None and count <= kept.size:  # all of it was collected
            kept[:count].partition([lo, hi])
            values = kept[lo], kept[hi]
            break
        if count <= _COLLECT_CAP:  # more than the sample expected: collected next
            continue
        cumulative = np.cumsum(hist)
        digit, top = (int(d) for d in np.searchsorted(cumulative, [lo, hi], side="right"))
        if shift == 0:  # every entry of a sub-interval has its bits
            values = base + digit, base + top
            break
        if digit != top:  # the higher rank's sub-interval starts above the lower rank
            values = _straddle(tree, base + (top << shift), base + (digit << shift),
                               top - digit + 1 << shift)
            break
        lo -= int(cumulative[digit - 1]) if digit else 0
        base, width, count = base + (digit << shift), 1 << shift, int(hist[digit])
    med = float(np.median(np.sqrt(np.array(values, dtype=np.int64).view(np.float64))))
    if med == 0.0:
        raise DataError("more than half of the pairwise feature distances are zero; "
                        "the median-heuristic bandwidth is undefined")
    return med


def _rbf(rows, twice, sq, lo, hi, bw: float) -> np.ndarray:
    """Rows lo:hi of the RBF kernel over `rows`, from the clamped `_sq_dists`."""
    return np.exp(-np.maximum(_sq_dists(twice[lo:hi], sq[lo:hi], rows, sq), 0.0)
                  / (2.0 * bw * bw))


def rbf_kernel_matrix(rows: np.ndarray, bandwidth: float) -> np.ndarray:
    """K[i, j] = exp(-||u_i - u_j||^2 / (2 sigma^2)) over the feature rows."""
    if not 0.0 < bandwidth < math.inf:
        raise ContractError(f"bandwidth must be finite and > 0, got {bandwidth}")
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return _rbf(rows, 2.0 * rows, (rows * rows).sum(axis=1), 0, rows.shape[0], bandwidth)


def _nmmr_scale(variant: str, n: int) -> float:
    if variant == "U":
        if n < 2:
            raise ContractError("U-statistic variant needs n >= 2")
        return 1.0 / (n * (n - 1))
    if variant == "V":
        return 1.0 / (n * n)
    raise ContractError(f"unknown NMMR variant {variant!r}")


def loss_nmmr(y, h_vals, kernel: np.ndarray, variant: str, lam: float,
              params: Optional[list[Tensor]] = None) -> Tensor:
    """Penalized kernel moment-restriction risk on residuals r = y - h.

    variant "U": r^T K0 r / (n (n-1)) with the kernel diagonal zeroed;
    variant "V": r^T K r / n^2. Plus lam * sum of squared parameters.
    """
    n = _check_lengths(y, h_vals)
    kernel = np.asarray(kernel, dtype=np.float64)
    if kernel.shape != (n, n):
        raise ContractError(f"kernel must be {n}x{n}, got {kernel.shape}")
    scale = _nmmr_scale(variant, n)
    if variant == "U":
        kernel = kernel.copy()
        np.fill_diagonal(kernel, 0.0)
    r = _as_tensor(y) - _as_tensor(h_vals)
    r_col = T.reshape(r, (n, 1))
    quad = T.matmul(T.swap_last2(r_col), T.matmul(Tensor(kernel), r_col))
    loss = T.reshape(quad, ()) * scale
    if lam != 0.0:
        if params is None:
            raise ContractError("lam > 0 requires the model parameter list")
        loss = loss + T.sum_squares(params) * lam
    return loss


def nmmr_risk(y, h_vals, features: np.ndarray, bandwidth: float, variant: str) -> float:
    """`loss_nmmr` without the penalty, over the RBF kernel of the feature
    rows, as a float. The kernel is built and multiplied by r a band of rows
    at a time, so memory grows with n, not n^2; each band is the matching
    rows of `rbf_kernel_matrix`, and with one band the products are the same."""
    n = _check_lengths(y, h_vals)
    scale = _nmmr_scale(variant, n)
    rows = np.atleast_2d(np.ascontiguousarray(features, dtype=np.float64))
    if rows.shape[0] != n:
        raise ContractError(f"need {n} feature rows, got {rows.shape[0]}")
    sq, twice = (rows * rows).sum(axis=1), 2.0 * rows
    r_col = (np.asarray(y, dtype=np.float64) - np.asarray(h_vals, dtype=np.float64)).reshape(n, 1)
    k_r = np.empty((n, 1))
    for lo, hi in _bands(n):
        kernel = _rbf(rows, twice, sq, lo, hi, bandwidth)
        if variant == "U":
            kernel[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        k_r[lo:hi] = kernel @ r_col
    return float((r_col.T @ k_r).reshape(()) * scale)
