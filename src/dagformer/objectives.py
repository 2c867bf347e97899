"""Training objectives: outcome MSE, treatment BCE, their joint average,
and the kernel moment-restriction losses (U- and V-statistic variants).

All losses are built from tape primitives so gradients flow to the model;
callers may pass plain arrays where no gradient is needed.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
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
        if self.lam < 0:
            raise ContractError(f"NMMR lambda must be >= 0, got {self.lam}")
        if self.kernel_bandwidth is not None and self.kernel_bandwidth <= 0:
            raise ContractError(f"kernel bandwidth must be > 0, got {self.kernel_bandwidth}")
        # a singleton batch has no off-diagonal pairs for the U-statistic
        self.min_rows = 2 if self.variant == "U" else 1

    def bind(self, model, batch, std):
        outcome = model.dag.single_node(NodeRole.OUTCOME)
        y = std[:, model._node_index(outcome)]
        roles = (NodeRole.TREATMENT, NodeRole.TREATMENT_PROXY, NodeRole.CONFOUNDER)
        features = std[:, [i for i, node in enumerate(model.input_nodes)
                           if model.graph.role_of(node) in roles]]
        bandwidth = self.kernel_bandwidth
        if bandwidth is None:
            bandwidth = median_heuristic_bandwidth(features)
        params = model.parameters()

        def batch_loss(preds, rows):
            kernel = rbf_kernel_matrix(features[rows], bandwidth)
            return loss_nmmr(y[rows], preds[outcome], kernel, self.variant, self.lam,
                             params), None
        return batch_loss


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


def median_heuristic_bandwidth(rows: np.ndarray) -> float:
    """Median pairwise Euclidean distance of the feature rows.

    Each pair's squared distance is the float `_pairwise_sq_dists` gives it;
    the n(n-1)/2 of them are written band by band into one condensed
    buffer, the middle order statistics are selected in place, and only
    those are square-rooted. sqrt is monotone, so this is exactly the median
    of the square-rooted distances.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    n = rows.shape[0]
    if n < 2:
        raise ContractError("median heuristic needs at least two rows")
    sq = (rows * rows).sum(axis=1)
    dists = np.empty(n * (n - 1) // 2)
    band = max(1, _BAND_ENTRIES // n)
    pos = 0
    for lo in range(0, n - 1, band):
        hi = min(lo + band, n - 1)
        d2 = sq[lo:hi, None] + sq[None, lo:] - 2.0 * rows[lo:hi] @ rows[lo:].T
        for i in range(hi - lo):
            upper = d2[i, i + 1:]
            dists[pos:pos + upper.size] = upper
            pos += upper.size
    np.maximum(dists, 0.0, out=dists)
    half = dists.size // 2
    middle = [half] if dists.size % 2 else [half - 1, half]
    dists.partition(middle)
    med = float(np.median(np.sqrt(dists[middle])))
    if med == 0.0:
        raise ContractError("all feature rows identical; bandwidth undefined")
    return med


def _pairwise_sq_dists(rows: np.ndarray) -> np.ndarray:
    sq = (rows * rows).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * rows @ rows.T
    return np.maximum(d2, 0.0)


def rbf_kernel_matrix(rows: np.ndarray, bandwidth: float) -> np.ndarray:
    """K[i, j] = exp(-||u_i - u_j||^2 / (2 sigma^2)) over the feature rows."""
    if bandwidth <= 0:
        raise ContractError(f"bandwidth must be > 0, got {bandwidth}")
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return np.exp(-_pairwise_sq_dists(rows) / (2.0 * bandwidth * bandwidth))


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
    if variant == "U":
        if n < 2:
            raise ContractError("U-statistic variant needs n >= 2")
        k = kernel.copy()
        np.fill_diagonal(k, 0.0)
        scale = 1.0 / (n * (n - 1))
    elif variant == "V":
        k = kernel
        scale = 1.0 / (n * n)
    else:
        raise ContractError(f"unknown NMMR variant {variant!r}")
    r = _as_tensor(y) - _as_tensor(h_vals)
    r_col = T.reshape(r, (n, 1))
    quad = T.matmul(T.swap_last2(r_col), T.matmul(Tensor(k), r_col))
    loss = T.reshape(quad, ()) * scale
    if lam != 0.0:
        if params is None:
            raise ContractError("lam > 0 requires the model parameter list")
        loss = loss + T.sum_squares(params) * lam
    return loss
