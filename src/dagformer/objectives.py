"""Training objectives: outcome MSE, treatment BCE, their joint average,
and the kernel moment-restriction losses (U- and V-statistic variants).

All losses are built from tape primitives so gradients flow to the model;
callers may pass plain arrays where no gradient is needed.
"""

import math
from dataclasses import dataclass
from typing import Optional

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
        outcome = model.dag.single_node(NodeRole.OUTCOME)
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
        outcome, treatment = model.dag.single_node(NodeRole.OUTCOME), model.treatment_node
        y, a = std[:, model._node_index(outcome)], batch[:, model._node_index(treatment)]

        def batch_loss(preds, rows):
            mse = loss_gformula(preds[outcome], y[rows])
            bce = loss_iptw(preds[treatment], a[rows])
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
        """(outcome node, standardized outcome, kernel features, bandwidth) of a run."""
        outcome = model.dag.single_node(NodeRole.OUTCOME)
        roles = (NodeRole.TREATMENT, NodeRole.TREATMENT_PROXY, NodeRole.CONFOUNDER)
        features = std[:, [i for i, node in enumerate(model.input_nodes)
                           if model.graph.role_of(node) in roles]]
        bandwidth = self.kernel_bandwidth
        if bandwidth is None:
            bandwidth = median_heuristic_bandwidth(features)
        return outcome, std[:, model._node_index(outcome)], features, bandwidth

    def bind(self, model, batch, std):
        outcome, y, features, bandwidth = self._targets(model, std)
        params = model.parameters()

        def batch_loss(preds, rows):
            kernel = rbf_kernel_matrix(features[rows], bandwidth)
            return loss_nmmr(y[rows], preds[outcome], kernel, self.variant, self.lam,
                             params), None
        return batch_loss

    def risk(self, model, batch) -> float:
        """The model's risk over all rows of `batch`, without the parameter
        penalty: `bind`'s loss over every row, computed in row bands by `nmmr_risk`."""
        outcome, y, features, bandwidth = self._targets(model, model._standardize(batch))
        with T.no_grad():
            h_vals = model.forward(batch)[outcome].data
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


# entries per row band of pairwise distances: bounds the band's temporaries
# at about 1 MiB each, whatever the number of rows
_BAND_ENTRIES = 2 ** 17
# the median is selected on the float64 bit patterns of the squared distances,
# which for non-negative floats sort as the int64 integers they view as, all
# in [0, 2^63): a counting pass counts a bin's entries in at most 2^16
# sub-intervals, each an aligned block of 2^shift patterns
_DIGIT = 16
_ALL_BITS = 1 << 63
# a bin of at most this many entries (8 MiB) is collected and partitioned
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


def _sq_dists(rows, twice, sq, lo, hi, start=0, out=None):
    """Unclamped squared distances of rows lo:hi to rows start:, where `twice`
    is 2.0 * rows, into `out` if given. Every caller uses this one expression,
    sq_i + sq_j - (2.0 * rows_i) @ rows_j, so each pair gets the same float in
    any band."""
    prod = twice[lo:hi] @ rows[start:].T
    d2 = np.add(sq[lo:hi, None], sq[None, start:], out=out)
    return np.subtract(d2, prod, out=d2)


def _bands(n: int, last: int):
    """(lo, hi) row bands of about `_BAND_ENTRIES` distances to n rows, up to row `last`."""
    band = max(1, _BAND_ENTRIES // n)
    return [(lo, min(lo + band, last)) for lo in range(0, last, band)]


def _upper_bits(rows, sq):
    """The clamped squared distances of the pairs i < j, band by band, as int64
    bit patterns in one buffer that the next band overwrites. Band lo:hi holds
    the distances to rows lo:, so its pairs j <= i are there too, set to +inf:
    they sort above every finite distance, and no rank counted from the bottom
    moves."""
    n = rows.shape[0]
    twice = 2.0 * rows
    bands = _bands(n, n - 1)
    space = np.empty((bands[0][1] - bands[0][0]) * n)
    lower = np.tri(bands[0][1] - bands[0][0], dtype=bool)
    for lo, hi in bands:
        d2 = _sq_dists(rows, twice, sq, lo, hi, lo,
                       out=space[:(hi - lo) * (n - lo)].reshape(hi - lo, n - lo))
        np.maximum(d2, 0.0, out=d2)
        d2[:, :hi - lo][lower[:hi - lo, :hi - lo]] = np.inf
        yield d2.view(np.int64).ravel()


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


def median_heuristic_bandwidth(rows: np.ndarray) -> float:
    """Median pairwise Euclidean distance of the feature rows.

    Each pair's squared distance is the float `_pairwise_sq_dists` gives it,
    computed in row bands that are never kept. The middle order statistics
    are selected on the distances' bit patterns. A bin is a bit interval
    [base, base + width); each distance pass counts the entries of a middle
    rank's bin in at most 2^16 aligned sub-intervals, or collects the bin when
    it holds at most `_COLLECT_CAP` entries. When every entry fits under that
    cap, one pass collects them all. Otherwise the first bin is the bracket
    that a fixed sample of pairs predicts (`_sample_bracket`). The first pass
    counts the entries below it and counts it, and collects it if the sample
    expects at most the cap. If the ranks fall inside and all of it was
    collected, they are partitioned out of it: one pass. If it held more
    than expected but at most the cap, the next pass collects it. If it held
    more than the cap, the rank's sub-interval is the next bin, and so on: a
    bin at full resolution holds one value, which is the answer. If the
    sample missed a rank, its next bin is every bit pattern. Sub-intervals
    are aligned blocks no wider than the parts of a count of every pattern
    by its top 16 bits, so unless the sample misses, no input takes more
    passes than counting from every pattern would.
    Only the selected values are square-rooted; sqrt is monotone, so this is
    exactly the median of the distances. Beyond the n row norms, memory is
    a band's temporaries and at most `_COLLECT_CAP` entries, whatever n.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n = rows.shape[0]
    if n < 2:
        raise DataError(f"median heuristic needs at least two rows, got {n}")
    sq = (rows * rows).sum(axis=1)
    if not np.isfinite(4.0 * sq).all():  # then every squared distance is finite too
        raise DataError("median heuristic needs finite feature rows whose squared "
                        "distances are finite")
    pairs = n * (n - 1) // 2
    entries = sum((hi - lo) * (n - lo) for lo, hi in _bands(n, n - 1))
    middle = [pairs // 2] if pairs % 2 else [pairs // 2 - 1, pairs // 2]
    # a middle rank's bin holds `count` entries, and `rank` is its rank among
    # them; for the bracket, `rank` is None and `count` the sample's estimate
    # until a pass has counted it
    bins = {r: (0, _ALL_BITS, entries, r) for r in middle}
    if entries > _COLLECT_CAP:
        bins = dict.fromkeys(middle, (*_sample_bracket(rows, sq), None))
    found = {}
    while bins:
        spans = {b[:2]: b[2:] for b in bins.values()}
        hists = {span: np.zeros(1 << _DIGIT, np.int64) for span, (count, rank) in spans.items()
                 if rank is None or count > _COLLECT_CAP}
        kept = {span: np.empty(count, np.int64) for span, (count, _) in spans.items()
                if count <= _COLLECT_CAP}
        below = {span: 0 for span, (_, rank) in spans.items() if rank is None}
        inside = dict.fromkeys(spans, 0)
        for bits in _upper_bits(rows, sq):
            for base, width in spans:
                under = bits < base
                chosen = np.compress(under ^ (bits < base + width), bits)
                if (base, width) in below:
                    below[base, width] += np.count_nonzero(under)
                if (base, width) in hists:
                    part = np.bincount((chosen - base) >> _shift(width))
                    hists[base, width][:part.size] += part
                if (base, width) in kept:
                    buf, at = kept[base, width], inside[base, width]
                    buf[at:at + chosen.size] = chosen[:max(0, buf.size - at)]
                inside[base, width] += chosen.size
        ranks = {}
        for r, (base, width, count, rank) in list(bins.items()):
            span = base, width
            if rank is None:  # the bracket, counted by this pass
                count, rank = inside[span], r - below[span]
                if not 0 <= rank < count:  # the sample missed this rank
                    bins[r] = (0, _ALL_BITS, entries, r)
                    continue
            if span in kept and count <= kept[span].size:
                ranks.setdefault(span, {})[r] = rank
            elif count <= _COLLECT_CAP:  # more than the estimate: collected next
                bins[r] = (base, width, count, rank)
            else:
                hist, shift = hists[span], _shift(width)
                cumulative = np.cumsum(hist)
                digit = int(np.searchsorted(cumulative, rank, side="right"))
                rank -= int(cumulative[digit - 1]) if digit else 0
                base += digit << shift
                if shift == 0:  # every entry in the sub-interval has these bits
                    found[r] = base
                    del bins[r]
                else:
                    bins[r] = (base, 1 << shift, int(hist[digit]), rank)
        for span, chosen_ranks in ranks.items():
            buf = kept[span][:inside[span]]
            buf.partition(sorted(chosen_ranks.values()))
            for r, rank in chosen_ranks.items():
                found[r] = int(buf[rank])
                del bins[r]
    values = np.array([found[r] for r in middle], dtype=np.int64).view(np.float64)
    med = float(np.median(np.sqrt(values)))
    if med == 0.0:
        raise DataError("more than half of the pairwise feature distances are zero; "
                        "the median-heuristic bandwidth is undefined")
    return med


def _pairwise_sq_dists(rows: np.ndarray) -> np.ndarray:
    sq = (rows * rows).sum(axis=1)
    return np.maximum(_sq_dists(rows, 2.0 * rows, sq, 0, rows.shape[0]), 0.0)


def rbf_kernel_matrix(rows: np.ndarray, bandwidth: float) -> np.ndarray:
    """K[i, j] = exp(-||u_i - u_j||^2 / (2 sigma^2)) over the feature rows."""
    if not 0.0 < bandwidth < math.inf:
        raise ContractError(f"bandwidth must be finite and > 0, got {bandwidth}")
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return np.exp(-_pairwise_sq_dists(rows) / (2.0 * bandwidth * bandwidth))


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
    for lo, hi in _bands(n, n):
        kernel = np.exp(-np.maximum(_sq_dists(rows, twice, sq, lo, hi), 0.0)
                        / (2.0 * bandwidth * bandwidth))
        if variant == "U":
            kernel[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        k_r[lo:hi] = kernel @ r_col
    return float((r_col.T @ k_r).reshape(()) * scale)
