"""Plug-in causal estimators: outcome standardization, inverse-probability
weighting, the augmented (doubly robust) combination, and proxy-based
potential-outcome averaging.

Array-level functions take nuisance predictions directly so they can be fed
lookup tables in tests; the model-facing wrappers pull nuisances out of any
object exposing mu_hat / pi_hat / h_hat.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .data import csv_text
from .errors import ConfigError, ContractError, DataError
from .graph import NodeRole
from .model import treatment_values

PROPENSITY_CLAMP = 0.01  # propensities are clipped to [c, 1 - c]
POSITIVITY_BOUNDS = (0.01, 0.99)


@dataclass
class EstimateReport:
    """Estimator output: point estimate, per-unit effects, nuisances."""
    method: str
    ate: Optional[float]
    cate: Optional[np.ndarray] = None
    potential_outcomes: Optional[dict] = None
    nuisances: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "ate": self.ate,
            "cate": None if self.cate is None else [float(v) for v in self.cate],
            "potential_outcomes": None if self.potential_outcomes is None else
                {str(k): float(v) for k, v in self.potential_outcomes.items()},
            "nuisances": {k: [float(x) for x in v] for k, v in self.nuisances.items()},
            "diagnostics": self.diagnostics,
        }

    def cate_csv(self) -> str:
        if self.cate is None:
            raise ContractError(f"{self.method} report has no per-unit effects")
        return csv_text(["unit", "cate"], enumerate(self.cate))


def _validate_binary(a: np.ndarray):
    if not np.isin(a, (0.0, 1.0)).all():
        raise DataError("treatment column must be 0/1")


def _propensity_diagnostics(pi_raw: np.ndarray) -> tuple[np.ndarray, dict]:
    clamp = PROPENSITY_CLAMP
    pi = np.clip(pi_raw, clamp, 1.0 - clamp)
    lo, hi = POSITIVITY_BOUNDS
    return pi, {
        "propensity_min": float(pi_raw.min()),
        "propensity_max": float(pi_raw.max()),
        "clamp_count": int(((pi_raw < clamp) | (pi_raw > 1.0 - clamp)).sum()),
        "positivity_violations": int(((pi_raw < lo) | (pi_raw > hi)).sum()),
    }


# -- array-level estimators ---------------------------------------------------

def gformula_from_mu(mu1: np.ndarray, mu0: np.ndarray) -> EstimateReport:
    """Standardization: cate_i = mu1_i - mu0_i, ate = mean(cate)."""
    mu1 = np.asarray(mu1, dtype=np.float64)
    mu0 = np.asarray(mu0, dtype=np.float64)
    if mu1.shape != mu0.shape or mu1.ndim != 1 or mu1.size == 0:
        raise ContractError(f"need matching nonempty vectors, got {mu1.shape} and {mu0.shape}")
    cate = mu1 - mu0
    return EstimateReport(
        method="gformula",
        ate=float(cate.mean()),
        cate=cate,
        potential_outcomes={1.0: float(mu1.mean()), 0.0: float(mu0.mean())},
        nuisances={"mu1": mu1, "mu0": mu0},
        diagnostics={"n": int(cate.size), "effective_sample_size": float(cate.size)},
    )


def iptw_from_pi(a: np.ndarray, y: np.ndarray, pi_raw: np.ndarray) -> EstimateReport:
    """Inverse-probability weighting on the pseudo-population.

    ate = mean(a y / pi - (1 - a) y / (1 - pi)); no per-unit effect vector
    is produced (the weighted contrast is population-level only).
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pi_raw = np.asarray(pi_raw, dtype=np.float64)
    if not (a.shape == y.shape == pi_raw.shape) or a.ndim != 1 or a.size == 0:
        raise ContractError("a, y, pi must be matching nonempty vectors")
    _validate_binary(a)
    pi, diag = _propensity_diagnostics(pi_raw)
    terms = a * y / pi - (1.0 - a) * y / (1.0 - pi)
    weights = a / pi + (1.0 - a) / (1.0 - pi)
    diag["n"] = int(a.size)
    diag["effective_sample_size"] = float(weights.sum() ** 2 / (weights * weights).sum())
    return EstimateReport(
        method="iptw",
        ate=float(terms.mean()),
        potential_outcomes={1.0: float((a * y / pi).mean()),
                            0.0: float(((1.0 - a) * y / (1.0 - pi)).mean())},
        nuisances={"pi": pi},
        diagnostics=diag,
    )


def aipw_from_nuisances(a: np.ndarray, y: np.ndarray, mu1: np.ndarray, mu0: np.ndarray,
                        pi_raw: np.ndarray) -> EstimateReport:
    """Doubly robust pseudo-outcome contrast per unit; ate = mean(cate)."""
    arrays = [np.asarray(v, dtype=np.float64) for v in (a, y, mu1, mu0, pi_raw)]
    a, y, mu1, mu0, pi_raw = arrays
    if len({v.shape for v in arrays}) != 1 or a.ndim != 1 or a.size == 0:
        raise ContractError("a, y, mu1, mu0, pi must be matching nonempty vectors")
    _validate_binary(a)
    pi, diag = _propensity_diagnostics(pi_raw)
    treated = mu1 + a * (y - mu1) / pi
    control = mu0 + (1.0 - a) * (y - mu0) / (1.0 - pi)
    cate = treated - control
    diag["n"] = int(a.size)
    diag["effective_sample_size"] = float(a.size)
    return EstimateReport(
        method="aipw",
        ate=float(cate.mean()),
        cate=cate,
        potential_outcomes={1.0: float(treated.mean()), 0.0: float(control.mean())},
        nuisances={"mu1": mu1, "mu0": mu0, "pi": pi},
        diagnostics=diag,
    )


# -- model-facing wrappers -----------------------------------------------------

def estimate_gformula(model, dataset) -> EstimateReport:
    return gformula_from_mu(*model.mu_hat(dataset, [1.0, 0.0]))


def estimate_iptw(model, dataset) -> EstimateReport:
    a = dataset.node_column(model.treatment_node).values
    y = dataset.node_column(model.outcome_node).values
    return iptw_from_pi(a, y, model.pi_hat(dataset))


def estimate_aipw(outcome_model, propensity_model, dataset) -> EstimateReport:
    """Doubly robust estimate; pass the same model twice for joint training."""
    a = dataset.node_column(outcome_model.treatment_node).values
    y = dataset.node_column(outcome_model.outcome_node).values
    mu1, mu0 = outcome_model.mu_hat(dataset, [1.0, 0.0])
    return aipw_from_nuisances(a, y, mu1, mu0, propensity_model.pi_hat(dataset))


def estimate_proximal(model, heldout_draws: dict, a_grid) -> EstimateReport:
    """Average the bridge function over held-out proxy draws per grid value,
    all of them from one `h_hat` call, which checks the grid.

    For the binary grid (0, 1) an ATE is reported; otherwise the result is
    the potential-outcome curve over the grid.
    """
    if not heldout_draws or any(np.asarray(v).size == 0 for v in heldout_draws.values()):
        raise ContractError("heldout draws must be nonempty")
    a_grid = [float(a) for a in np.atleast_1d(np.asarray(a_grid, dtype=np.float64))]
    h = model.h_hat(a_grid, heldout_draws)
    curve = {a: float(values.mean()) for a, values in zip(a_grid, h)}
    ate = curve[1.0] - curve[0.0] if set(a_grid) == {0.0, 1.0} else None
    m = int(np.asarray(next(iter(heldout_draws.values()))).size)
    return EstimateReport(
        method="proximal",
        ate=ate,
        potential_outcomes=curve,
        diagnostics={"heldout_draws": m, "grid_size": len(a_grid)},
    )


def cate_by_group(report: EstimateReport, groups) -> dict:
    """Mean per-unit effect within each group label."""
    if report.cate is None:
        raise ContractError(f"{report.method} report has no per-unit effects")
    groups = np.asarray(groups)
    if groups.shape != report.cate.shape:
        raise ContractError(f"group labels shape {groups.shape} != cate shape {report.cate.shape}")
    return {label: float(report.cate[groups == label].mean()) for label in np.unique(groups)}


@dataclass
class TableNuisance:
    """Lookup-table nuisances exposing the same surface as a fitted model.

    Used to drive the estimators with externally supplied mu/pi values, e.g.
    hand-built oracles in tests. `mu_hat` and `h_hat` take a treatment value
    or a sequence of them, checked as the model checks them, and shape their
    result as `DagTransformer.counterfactual_predict` does; `h` is called
    with one value at a time.
    """
    treatment_node: str
    dag: object
    mu1: Optional[np.ndarray] = None
    mu0: Optional[np.ndarray] = None
    pi: Optional[np.ndarray] = None
    h: Optional[Callable] = None

    @property
    def outcome_node(self) -> str:
        return self.dag.single_node(NodeRole.OUTCOME)

    def mu_hat(self, dataset, a) -> np.ndarray:
        tables = [self.mu1 if value == 1.0 else self.mu0 for value in treatment_values(a)]
        if any(table is None for table in tables):
            raise ConfigError("lookup nuisance has no outcome table")
        return _by_value(a, tables)

    def pi_hat(self, dataset) -> np.ndarray:
        if self.pi is None:
            raise ConfigError("lookup nuisance has no propensity table")
        return np.asarray(self.pi, dtype=np.float64)

    def h_hat(self, a, draws: dict) -> np.ndarray:
        if self.h is None:
            raise ConfigError("lookup nuisance has no bridge function")
        return _by_value(a, [self.h(float(value), draws) for value in treatment_values(a)])


def _by_value(a, arrays: list) -> np.ndarray:
    """One array per treatment value of `a`, stacked as `counterfactual_predict`
    shapes them: (n,) for a scalar `a`, else (values, n)."""
    stacked = np.stack([np.asarray(v, dtype=np.float64) for v in arrays])
    return stacked.reshape(np.shape(a) + stacked.shape[1:])
