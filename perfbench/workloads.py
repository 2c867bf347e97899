"""The three benchmark workloads, each run through dagformer's public API.

Every workload builds its inputs from the workload seed (`setup`), runs a
closed loop of fits from one caller (`run`), and checks the outputs
(`check`). A fit is one `train_model` plus one estimator call, or one
replicate of `dagformer evaluate`. Each fit draws its own seed from the
workload seed, so two runs with one seed see identical inputs.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

# calls go through the package namespace, where the traced run's wrappers sit
import dagformer as dg
from dagformer import cli
from dagformer.data import DEMAND_PRICE_GRID
from metrics import reference_loop_s

# fewer fits leave no percentile with ten samples beyond it above the median
MIN_FITS = 21


def derived_seed(seed: int, *labels) -> int:
    """A 31-bit seed for one input, derived from the workload seed."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(seed)).encode())
    for label in labels:
        h.update(b"\x00" + str(label).encode())
    return int.from_bytes(h.digest(), "little") % (2 ** 31)


@dataclass
class FitResult:
    index: int
    seconds: float
    values: dict = field(default_factory=dict)
    error: str | None = None
    ok: bool = False
    reference_s: float | None = None  # reference loop timed just before the fit


def _fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray)
                 else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


class Workload:
    name = ""
    why = ""
    nominal_fit_s = 1.0  # measured on the reference machine; sets the fit count
    jobs = 1

    def fit_count(self, seconds: float) -> int:
        """Fits in a run of about `seconds`; fixed per duration, so the
        accuracy figures of one seed are deterministic."""
        return max(MIN_FITS, round(seconds / self.nominal_fit_s))


class FitWorkload(Workload):
    """A closed loop of model fits, timed one by one in this process."""

    def setup(self, seed: int, count: int, out_dir: str) -> list:
        return [self.make_fit(derived_seed(seed, self.name, i)) for i in range(count)]

    def warm_up(self, seed: int, out_dir: str):
        """One untimed fit, so first-call costs stay out of the timed phase."""
        self.fit(self.make_fit(derived_seed(seed, self.name, "warm-up")))

    def run(self, fits: list, out_dir: str, jobs: int, tracer=None) -> list[FitResult]:
        results = []
        for i, fit in enumerate(fits):
            if tracer is not None:
                tracer.fit = i
            reference_s = reference_loop_s()
            start = time.perf_counter()
            try:
                with contextlib.nullcontext() if tracer is None else tracer.span("bench.fit"):
                    values = self.fit(fit)
                result = FitResult(i, time.perf_counter() - start, values)
                result.ok = self.fit_ok(values)
            except dg.DagformerError as exc:
                result = FitResult(i, time.perf_counter() - start,
                                   error=f"{type(exc).__name__}: {exc}")
            result.reference_s = reference_s
            results.append(result)
        return results

    def fingerprint(self, fits: list) -> str:
        return _fingerprint(*[part for fit in fits for part in self.input_parts(fit)])

    def same_outputs(self, a: list[FitResult], b: list[FitResult], out_dirs) -> bool:
        return [r.values for r in a] == [r.values for r in b]


class GFormulaFit(FitWorkload):
    name = "gformula-fit"
    why = ("smallest tensors (256x3x8): Python dispatch in tensor, model and optim is nearly "
           "all the time; no kernel, no forest; the criterion-6 path")
    nominal_fit_s = 0.8
    epochs = 5
    tolerance = 0.15
    min_hit_share = 0.8  # criterion 6: within tolerance on at least 8 of 10 fits
    scm = dg.LinearScm(x_dim=1, treatment_effect=2.0)
    kinds = {"X1": "continuous", "A": "binary", "Y": "continuous"}

    def make_fit(self, fit_seed: int) -> dict:
        data = dg.simulate_linear_scm(5000, self.scm, seed=fit_seed)
        x = data.matrix(["X1"])
        config = dg.ModelConfig(embedding_dim=8, num_heads=2, num_encoder_layers=1,
                                feedforward_dim=16, mlp_width=16, mlp_depth=2, alpha=0.1,
                                seed=fit_seed)
        return {"seed": fit_seed, "data": data,
                "model": dg.DagTransformer(config, dg.linear_scm_dag(1), "gformula",
                                           self.kinds),
                "true_po": {a: float(self.scm.mu(a, x).mean()) for a in (1.0, 0.0)}}

    def input_parts(self, fit: dict):
        yield fit["seed"]
        yield from (column.values for column in fit["data"].columns)
        yield from (p.data for p in fit["model"].params.values())

    def fit(self, fit: dict) -> dict:
        dg.train_model(fit["model"], fit["data"], dg.GFormula(),
                       dg.AdamState(learning_rate=3e-3), epochs=self.epochs, batch_size=256,
                       seed=fit["seed"])
        report = dg.estimate_gformula(fit["model"], fit["data"])
        po_err = [(report.potential_outcomes[a] - fit["true_po"][a]) ** 2 for a in (1.0, 0.0)]
        return {"ate": report.ate, "truth": self.scm.treatment_effect,
                "c_mse": float(np.mean(po_err))}

    def fit_ok(self, values: dict) -> bool:
        # a single fit may miss the tolerance; the run-level check counts hits
        return math.isfinite(values["ate"])

    def hits(self, results: list[FitResult]) -> int:
        return sum(r.ok and abs(r.values["ate"] - r.values["truth"]) <= self.tolerance
                   for r in results)

    def check(self, results: list[FitResult]) -> list[str]:
        hits = self.hits(results)
        need = math.ceil(self.min_hit_share * len(results))
        if hits < need:
            return [f"ATE within {self.tolerance} of the truth on {hits}/{len(results)} fits, "
                    f"needs {need}"]
        return []

    def accuracy(self, results: list[FitResult]) -> dict:
        done = [r.values for r in results if r.error is None]
        return {"ate_abs_err": float(np.mean([abs(v["ate"] - v["truth"]) for v in done])),
                "c_mse": float(np.median([v["c_mse"] for v in done])),
                "hits": f"{self.hits(results)}/{len(results)}",
                "curve": "potential-outcome means at A=0 and A=1 against the sample truth"}


class ProximalDemand(FitWorkload):
    name = "proximal-demand"
    why = ("same layers as gformula-fit, 5x wider; parameter penalty, a 64x64 kernel per step "
           "and the O(n^2) median-heuristic bandwidth: per-fit fixed cost and memory")
    nominal_fit_s = 1.45
    epochs = 1
    kinds = {"Z": "continuous", "W": "continuous", "A": "continuous", "Y": "continuous"}

    def make_fit(self, fit_seed: int) -> dict:
        data = dg.simulate_demand(5000, seed=fit_seed).to_dataset()
        config = dg.ModelConfig(embedding_dim=40, num_heads=1, num_encoder_layers=1,
                                feedforward_dim=40, mlp_width=48, mlp_depth=2, alpha=0.01,
                                seed=fit_seed)
        return {"seed": fit_seed, "data": data,
                "model": dg.DagTransformer(config, dg.demand_dag(), "proximal", self.kinds),
                "draws": dg.heldout_w_draws(1000, seed=fit_seed),
                "naive": float(data.node_column("Y").values.mean()),
                # Monte-Carlo reference, computed on the first call and cached
                "true_curve": dg.demand_true_curve()}

    def input_parts(self, fit: dict):
        yield fit["seed"]
        yield from (column.values for column in fit["data"].columns)
        yield from (p.data for p in fit["model"].params.values())
        yield fit["draws"]
        yield fit["true_curve"]

    def fit(self, fit: dict) -> dict:
        dg.train_model(fit["model"], fit["data"], dg.Nmmr(variant="U", lam=3e-6),
                       dg.AdamState(learning_rate=1e-3), epochs=self.epochs, batch_size=64,
                       seed=fit["seed"])
        report = dg.estimate_proximal(fit["model"], {"W": fit["draws"]},
                                      list(DEMAND_PRICE_GRID))
        curve = np.asarray([report.potential_outcomes[a] for a in DEMAND_PRICE_GRID])
        truth = fit["true_curve"]
        return {"c_mse": dg.c_mse(curve, truth),
                "c_mse_naive": dg.c_mse(np.full(truth.size, fit["naive"]), truth),
                "effect_err": float((curve[-1] - curve[0]) - (truth[-1] - truth[0])),
                "curve": [float(v) for v in curve]}

    def fit_ok(self, values: dict) -> bool:
        # criterion 9: the bridge-function curve beats the constant curve
        return bool(values["c_mse"] < values["c_mse_naive"])

    def check(self, results: list[FitResult]) -> list[str]:
        bad = [r.index for r in results if not r.ok]
        return [f"c-MSE not below the naive constant curve on fits {bad}"] if bad else []

    def accuracy(self, results: list[FitResult]) -> dict:
        done = [r.values for r in results if r.error is None]
        return {"ate_abs_err": float(np.mean([abs(v["effect_err"]) for v in done])),
                "c_mse": float(np.median([v["c_mse"] for v in done])),
                "c_mse_naive": float(np.median([v["c_mse_naive"] for v in done])),
                "curve": "10-point price grid; the effect is price 30 against price 10"}


class ReplicateTimer:
    """Stand-in for the evaluate replicate worker that logs each replicate's time.

    It pickles by its log directory alone, so pool workers can receive it;
    each worker process appends to its own file.
    """
    original = None  # the real worker, kept here so forked workers find it

    def __init__(self, directory: str):
        self.directory = directory

    def __call__(self, config: dict, replicate: int) -> dict:
        # a spawned worker imports cli afresh, unpatched, and has no original
        worker = ReplicateTimer.original or cli._effect_replicate
        reference_s = reference_loop_s()
        start = time.perf_counter()
        row = worker(config, replicate)
        seconds = time.perf_counter() - start
        path = os.path.join(self.directory, f"times-{os.getpid()}.txt")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{replicate} {seconds!r} {reference_s!r}\n")
        return row

    @contextlib.contextmanager
    def installed(self):
        os.makedirs(self.directory, exist_ok=True)
        ReplicateTimer.original = cli._effect_replicate
        cli._effect_replicate = self
        try:
            yield self
        finally:
            cli._effect_replicate = ReplicateTimer.original
            ReplicateTimer.original = None

    def seconds(self) -> dict[int, tuple[float, float]]:
        """Replicate -> (seconds, reference loop seconds timed just before it)."""
        times = {}
        for name in os.listdir(self.directory):
            with open(os.path.join(self.directory, name), encoding="utf-8") as fh:
                for line in fh:
                    replicate, seconds, reference_s = line.split()
                    times[int(replicate)] = (float(seconds), float(reference_s))
        return times


class EvaluateAipw(Workload):
    """`dagformer evaluate` (ATE experiment) with aipw-joint, replicates in a pool."""
    name = "evaluate-aipw"
    why = ("honest forest, selection, data and cli do most of the work; replicates fan out "
           "to a 2-process pool; the only workload that uses them")
    nominal_fit_s = 1.45  # per replicate, with two replicates running at once
    jobs = 2

    def config(self, seed: int, replicates: int) -> dict:
        return {"experiment": "ate", "method": "aipw-joint",
                "data": {"simulator": {"name": "linear-scm", "n": 2000, "x_dim": 5,
                                       "treatment_effect": 2.0}},
                "model": {"embedding_dim": 8, "num_heads": 2, "num_encoder_layers": 1,
                          "feedforward_dim": 16, "mlp_width": 16, "mlp_depth": 2,
                          "alpha": 0.1},
                "optimizer": {"learning_rate": 3e-3}, "epochs": 10, "batch_size": 256,
                "replicates": replicates, "seed": derived_seed(seed, self.name)}

    def setup(self, seed: int, count: int, out_dir: str) -> dict:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, "config.json")
        config = self.config(seed, count)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh, sort_keys=True)
        return {"config": config, "path": path}

    def fingerprint(self, inputs: dict) -> str:
        return _fingerprint(inputs["config"])

    def _evaluate(self, inputs: dict, out: str, jobs: int) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["evaluate", "--config", inputs["path"], "--out", out,
                             "--jobs", str(jobs)])

    def warm_up(self, seed: int, out_dir: str):
        """Nothing to warm: each evaluate call starts fresh pool workers."""

    def run(self, inputs: dict, out_dir: str, jobs: int, tracer=None) -> list[FitResult]:
        """One evaluate call; per-replicate times come from spans when
        traced and from a replicate timer otherwise."""
        count = inputs["config"]["replicates"]
        out = os.path.join(out_dir, "evaluate")
        if tracer is None:
            timer = ReplicateTimer(os.path.join(out_dir, "replicate-times"))
            with timer.installed():
                code = self._evaluate(inputs, out, jobs)
            seconds = timer.seconds()
        else:
            code = self._evaluate(inputs, out, jobs)
            seconds = {record[5]: (record[3] - record[2], None) for record in tracer.spans
                       if record[1] == "cli._effect_replicate"}
        if code != 0:
            return [FitResult(i, seconds.get(i, (0.0, None))[0],
                              error=f"evaluate exit code {code}") for i in range(count)]
        with open(os.path.join(out, "evaluate.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        results = []
        for row in report["replicates"]:
            values = {k: row[k] for k in ("candidate_ate", "plugin_ate", "true_ate", "nrmse")}
            replicate_s, reference_s = seconds[row["replicate"]]
            result = FitResult(row["replicate"], replicate_s, values, reference_s=reference_s)
            result.ok = self.fit_ok(values)
            results.append(result)
        aggregate = report["aggregate"]
        if not all(math.isfinite(v) for v in aggregate.values()):
            for result in results:
                result.ok = False
        return results

    def fit_ok(self, values: dict) -> bool:
        return all(math.isfinite(values[k]) for k in ("candidate_ate", "plugin_ate", "nrmse"))

    def check(self, results: list[FitResult]) -> list[str]:
        bad = [r.index for r in results if not r.ok]
        return [f"non-finite estimates on replicates {bad}"] if bad else []

    def same_outputs(self, a, b, out_dirs) -> bool:
        """evaluate.json and replicates.csv are byte-identical across the runs."""
        first, second = out_dirs
        for name in ("evaluate.json", "replicates.csv"):
            with open(os.path.join(first, "evaluate", name), "rb") as fa, \
                    open(os.path.join(second, "evaluate", name), "rb") as fb:
                if fa.read() != fb.read():
                    return False
        return True

    def accuracy(self, results: list[FitResult]) -> dict:
        done = [r.values for r in results if r.error is None]
        errors = np.asarray([v["candidate_ate"] - v["true_ate"] for v in done])
        return {"ate_abs_err": float(np.mean(np.abs(errors))),
                "c_mse": float(np.median(errors ** 2)),
                "curve": "the single ATE contrast; evaluate reports no potential outcomes"}


WORKLOADS = {w.name: w for w in (GFormulaFit(), ProximalDemand(), EvaluateAipw())}
