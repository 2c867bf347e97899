"""Tabular datasets, CSV/schema ingestion, bootstrap resampling, and
synthetic structural-equation simulators with ground-truth effects.

Simulated datasets carry their true effects (scalar ATE and per-unit CATE)
so estimator tests can score against the truth; loaded datasets never do.
"""

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import ContractError, DataError
from .graph import CausalDag, NodeRole, backdoor_dag

COLUMN_KINDS = ("continuous", "binary")

# price/sales evaluation protocol constants
DEMAND_PRICE_GRID = tuple(np.linspace(10.0, 30.0, 10))
DEMAND_HELDOUT_DRAWS = 1000
DEMAND_SAMPLE_SIZES = (1000, 5000, 10000, 50000)
DEMAND_REPLICATES = 20

# job-training benchmark constants (data user-supplied; reference values only)
LALONDE_TRUE_ATE = 1794.34
LALONDE_CPS_CONTROLS = 15992
LALONDE_PSID_CONTROLS = 2490
LALONDE_TREATED = 185


@dataclass
class Column:
    name: str
    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise DataError(f"column {self.name}: unknown kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise DataError(f"column {self.name}: values must be one-dimensional")
        bad = np.nonzero(~np.isfinite(self.values))[0]
        if bad.size:
            raise DataError(
                f"column {self.name}: non-finite value {self.values[bad[0]]} at row {bad[0]}")
        if self.kind == "binary":
            bad = np.nonzero(~np.isin(self.values, (0.0, 1.0)))[0]
            if bad.size:
                raise DataError(
                    f"column {self.name}: non-binary value {self.values[bad[0]]} at row {bad[0]}")


class TabularDataset:
    """Column-typed observation table with role bindings to DAG nodes.

    ``node_of`` maps column name -> DAG node name. Ground-truth fields are
    populated only by simulators.
    """

    def __init__(self, columns: list[Column], node_of: dict[str, str],
                 true_ate: Optional[float] = None, true_cate: Optional[np.ndarray] = None):
        if not columns:
            raise DataError("dataset needs at least one column")
        lengths = {c.values.size for c in columns}
        if len(lengths) != 1:
            raise DataError(f"columns have unequal lengths: {sorted(lengths)}")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise DataError(f"duplicate column names in {names}")
        unknown = set(node_of) - set(names)
        if unknown:
            raise DataError(f"role bindings reference missing columns: {sorted(unknown)}")
        if len(set(node_of.values())) != len(node_of):
            raise DataError("two columns bound to the same DAG node")
        self.columns = columns
        self.node_of = dict(node_of)
        self.true_ate = true_ate
        self.true_cate = None if true_cate is None else np.asarray(true_cate, dtype=np.float64)
        self._by_name = {c.name: c for c in columns}
        self._by_node = {node: self._by_name[col] for col, node in node_of.items()}

    @property
    def n(self) -> int:
        return self.columns[0].values.size

    def column(self, name: str) -> Column:
        return self._by_name[name]

    def node_column(self, node: str) -> Column:
        if node not in self._by_node:
            raise DataError(f"no column bound to DAG node {node!r}")
        return self._by_node[node]

    def node_kinds(self, nodes: list[str]) -> dict[str, str]:
        return {node: self.node_column(node).kind for node in nodes}

    def matrix(self, nodes: list[str]) -> np.ndarray:
        """Raw (n, len(nodes)) value matrix in the given node order."""
        return np.column_stack([self.node_column(node).values for node in nodes])

    def subset(self, rows: np.ndarray) -> "TabularDataset":
        cols = [Column(c.name, c.kind, c.values[rows]) for c in self.columns]
        cate = None if self.true_cate is None else self.true_cate[rows]
        return TabularDataset(cols, self.node_of, true_ate=self.true_ate, true_cate=cate)

    def split(self, train_fraction: float, seed: int) -> tuple["TabularDataset", "TabularDataset"]:
        """Shuffled train/validation split, deterministic per seed."""
        if not 0.0 < train_fraction < 1.0:
            raise ContractError(f"train_fraction must be in (0, 1), got {train_fraction}")
        perm = rng.stream(seed, "split").permutation(self.n)
        cut = int(round(self.n * train_fraction))
        return self.subset(perm[:cut]), self.subset(perm[cut:])

    def schema(self) -> dict:
        cols = [{"name": c.name, "kind": c.kind, "node": self.node_of.get(c.name)}
                for c in self.columns]
        return {"columns": cols}

    def validate_against(self, dag: CausalDag):
        """Every non-unmeasured DAG node must be bound to exactly one column."""
        for name, role in zip(dag.names, dag.roles):
            if role is NodeRole.UNMEASURED:
                if name in self._by_node:
                    raise DataError(f"unmeasured node {name!r} must not be bound to a column")
                continue
            if name not in self._by_node:
                raise DataError(f"DAG node {name!r} has no bound column")


def bootstrap(dataset: TabularDataset, seed: int) -> TabularDataset:
    """Resample n rows with replacement, deterministic per seed."""
    if dataset.n < 1:
        raise ContractError("cannot bootstrap an empty dataset")
    rows = rng.stream(seed, "bootstrap").integers(0, dataset.n, size=dataset.n)
    return dataset.subset(rows)


# ---------------------------------------------------------------------------
# CSV + schema files
# ---------------------------------------------------------------------------

def _schema_columns(schema) -> list[dict]:
    columns = schema.get("columns") if isinstance(schema, dict) else None
    if not (isinstance(columns, list) and columns and all(
            isinstance(c, dict) and {"name", "kind"} <= c.keys() for c in columns)):
        raise DataError("a schema needs 'columns', a non-empty list of objects with a 'name' "
                        "and a 'kind'")
    names = [c["name"] for c in columns]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise DataError(f"a schema names column {name!r} twice")
    return columns


def load_schema(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        schema = json.load(fh)
    _schema_columns(schema)
    return schema


def load_csv(path: str, schema: dict) -> TabularDataset:
    """Read an RFC-4180-style CSV (header required) under a column schema.

    Schema format: {"columns": [{"name", "kind", "node"}, ...]}; columns in
    the file but not in the schema are ignored. Unparseable and non-finite
    cells are rejected with their file row number (header is row 1).
    """
    spec_cols = _schema_columns(schema)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        missing = [c["name"] for c in spec_cols if c["name"] not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing}; header has {header}")
        positions = {c["name"]: header.index(c["name"]) for c in spec_cols}
        raw: dict[str, list[float]] = {c["name"]: [] for c in spec_cols}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise DataError(f"{path}: row {line_no} has {len(row)} cells, "
                                f"the header has {len(header)}")
            for c in spec_cols:
                name = c["name"]
                cell = row[positions[name]].strip()
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {line_no}, column {name}: cannot parse {cell!r}") from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: row {line_no}, column {name}: non-finite value {cell}")
                if c["kind"] == "binary" and value not in (0.0, 1.0):
                    raise DataError(
                        f"{path}: row {line_no}, column {name}: non-binary value {cell}")
                raw[name].append(value)
    if not raw[spec_cols[0]["name"]]:
        raise DataError(f"{path}: no data rows")
    columns = [Column(c["name"], c["kind"], np.array(raw[c["name"]])) for c in spec_cols]
    node_of = {c["name"]: c["node"] for c in spec_cols if c.get("node")}
    return TabularDataset(columns, node_of)


def write_csv(dataset: TabularDataset, path: str):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in dataset.columns])
        cols = [c.values for c in dataset.columns]
        for i in range(dataset.n):
            writer.writerow([repr(float(col[i])) for col in cols])


def csv_text(header: list, rows) -> str:
    """A report CSV: a cell is empty for None, 0/1 for a bool, `repr` for a float, else `str`."""
    def cell(v) -> str:
        return "" if v is None else str(int(v)) if isinstance(v, bool) else \
            repr(float(v)) if isinstance(v, float) else str(v)
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def lalonde_schema() -> dict:
    """Column schema for the job-training earnings study CSVs."""
    covariates = [("age", "continuous"), ("education", "continuous"), ("race", "binary"),
                  ("married", "binary"), ("earnings_1974", "continuous"),
                  ("earnings_1975", "continuous")]
    cols = [{"name": n, "kind": k, "node": n} for n, k in covariates]
    cols.append({"name": "treatment", "kind": "binary", "node": "A"})
    cols.append({"name": "earnings_1978", "kind": "continuous", "node": "Y"})
    return {"columns": cols, "treatment": "treatment", "outcome": "earnings_1978"}


# ---------------------------------------------------------------------------
# linear structural-equation simulator (oracle generator for tests)
# ---------------------------------------------------------------------------

@dataclass
class LinearEffect:
    """Picklable heterogeneous effect tau(x) = base + slope_x1 * x[0]."""
    base: float = 0.0
    slope_x1: float = 1.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.base, self.slope_x1])):
            raise ContractError("linear effect coefficients must be finite")

    def __call__(self, row) -> float:
        return self.base + self.slope_x1 * row[0]


@dataclass
class LinearScm:
    """X ~ N(0, I); A ~ Bernoulli(sigmoid(w.x + b)); Y = tau(x) A + beta.x + eps."""
    x_dim: int = 1
    propensity_weights: tuple = (0.5,)
    propensity_intercept: float = 0.0
    outcome_weights: tuple = (1.0,)
    treatment_effect: float | Callable = 2.0
    noise_sd: float = 1.0

    def __post_init__(self):
        values = list(self.propensity_weights) + list(self.outcome_weights)
        values += [self.propensity_intercept, self.noise_sd]
        if not callable(self.treatment_effect):
            values.append(float(self.treatment_effect))
        if not np.all(np.isfinite(values)):
            raise ContractError("linear SCM coefficients must be finite")
        if len(self.propensity_weights) != self.x_dim or len(self.outcome_weights) != self.x_dim:
            raise ContractError("weight vectors must have length x_dim")

    def tau(self, x: np.ndarray) -> np.ndarray:
        if callable(self.treatment_effect):
            return np.asarray([self.treatment_effect(row) for row in x], dtype=np.float64)
        return np.full(x.shape[0], float(self.treatment_effect))

    def mu(self, a: float, x: np.ndarray) -> np.ndarray:
        return self.tau(x) * a + x @ np.asarray(self.outcome_weights)


def simulate_linear_scm(n: int, scm: LinearScm, seed: int) -> TabularDataset:
    """Draw from the linear SCM; ground-truth effects ride along."""
    g = rng.stream(seed, "linear-scm")
    x = g.standard_normal((n, scm.x_dim))
    logits = x @ np.asarray(scm.propensity_weights) + scm.propensity_intercept
    pi = 1.0 / (1.0 + np.exp(-logits))
    a = (g.random(n) < pi).astype(np.float64)
    cate = scm.tau(x)
    y = cate * a + x @ np.asarray(scm.outcome_weights) + scm.noise_sd * g.standard_normal(n)
    names = [f"X{i + 1}" for i in range(scm.x_dim)]
    columns = [Column(nm, "continuous", x[:, i]) for i, nm in enumerate(names)]
    columns.append(Column("A", "binary", a))
    columns.append(Column("Y", "continuous", y))
    node_of = {nm: nm for nm in names} | {"A": "A", "Y": "Y"}
    true_ate = float(cate.mean()) if callable(scm.treatment_effect) else float(scm.treatment_effect)
    return TabularDataset(columns, node_of, true_ate=true_ate, true_cate=cate)


def linear_scm_dag(x_dim: int) -> CausalDag:
    return backdoor_dag([f"X{i + 1}" for i in range(x_dim)])


# ---------------------------------------------------------------------------
# price/sales simulator with an unmeasured demand confounder
# ---------------------------------------------------------------------------

@dataclass
class DemandSample:
    """Draws from the pinned demand SCM; u is the unmeasured confounder."""
    u: np.ndarray
    z: np.ndarray
    w: np.ndarray
    a: np.ndarray
    y: np.ndarray

    def to_dataset(self) -> TabularDataset:
        """Observable table (U excluded) bound to the demand graph nodes."""
        columns = [Column("Z", "continuous", self.z), Column("W", "continuous", self.w),
                   Column("A", "continuous", self.a), Column("Y", "continuous", self.y)]
        return TabularDataset(columns, {"Z": "Z", "W": "W", "A": "A", "Y": "Y"})


def demand_psi(u: np.ndarray) -> np.ndarray:
    """Nonlinear demand response curve on [0, 10]."""
    s = u - 5.0
    return 2.0 * (s ** 4 / 600.0 + np.exp(-4.0 * s * s) + u / 10.0 - 2.0)


# version tag recorded in simulation manifests; bump on any equation change
DEMAND_SCM_VERSION = "demand-scm-v1"


def simulate_demand(n: int, seed: int) -> DemandSample:
    """Pinned demand SCM (all noise standard normal):

    U ~ Uniform(0, 10)
    Z = 2 sin(2 pi U / 10) + eps_Z
    W = 7 psi(U) + 45 + eps_W
    A = 35 + (Z + 3) psi(U) + eps_A
    Y = 100 + (10 + A) psi(U) - 2 A + 0.1 (W - 45) + eps_Y
    """
    if n < 1:
        raise ContractError("need n >= 1")
    g = rng.stream(seed, "demand-scm")
    u = g.uniform(0.0, 10.0, n)
    psi = demand_psi(u)
    z = 2.0 * np.sin(2.0 * np.pi * u / 10.0) + g.standard_normal(n)
    w = 7.0 * psi + 45.0 + g.standard_normal(n)
    a = 35.0 + (z + 3.0) * psi + g.standard_normal(n)
    y = 100.0 + (10.0 + a) * psi - 2.0 * a + 0.1 * (w - 45.0) + g.standard_normal(n)
    return DemandSample(u=u, z=z, w=w, a=a, y=y)


def heldout_w_draws(m: int, seed: int) -> np.ndarray:
    """Fresh draws from the marginal of W for bridge-function averaging."""
    if m < 1:
        raise ContractError("need n >= 1")
    g = rng.stream(seed, "demand-heldout")
    u = g.uniform(0.0, 10.0, m)
    return 7.0 * demand_psi(u) + 45.0 + g.standard_normal(m)


def demand_mc_moments(draws: int = 2_000_000, seed: int = 202406) -> tuple[float, float]:
    """Monte Carlo estimates of (E[psi(U)], E[W]) from `draws` uniforms of the
    stream (seed, "demand-mc"), summed in blocks of 10^6, each with one `.sum()`;
    the reference that `DEMAND_MOMENTS` pins."""
    if draws < 1:
        raise ContractError("need n >= 1")
    g = rng.stream(seed, "demand-mc")
    total_psi = 0.0
    for done in range(0, draws, 1_000_000):
        total_psi += demand_psi(g.uniform(0.0, 10.0, min(1_000_000, draws - done))).sum()
    mean_psi = total_psi / draws
    return mean_psi, 7.0 * mean_psi + 45.0


# the truth's (E[psi(U)], E[W]): `demand_mc_moments()`'s floats, pinned so that no process
# draws them. A test recomputes them; re-pin them with any DEMAND_SCM_VERSION bump.
DEMAND_MOMENTS = (float.fromhex("-0x1.33e85158a8958p+1"), float.fromhex("0x1.c294b8d26c7d3p+4"))


def demand_true_potential_outcome(a) -> np.ndarray | float:
    """E[Y^a] under the pinned SCM: 100 + (10 + a) E[psi] - 2a + 0.1 (E[W] - 45)."""
    mean_psi, mean_w = DEMAND_MOMENTS
    return 100.0 + (10.0 + np.asarray(a)) * mean_psi - 2.0 * np.asarray(a) \
        + 0.1 * (mean_w - 45.0)


def demand_true_curve() -> np.ndarray:
    return np.asarray([demand_true_potential_outcome(a) for a in DEMAND_PRICE_GRID])
