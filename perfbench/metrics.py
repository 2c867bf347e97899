"""Metric arithmetic: timing summaries, per-layer figures from spans, and
the facts about the machine that a run records beside its numbers.
"""

import os
import platform
import resource
import statistics
import time
import tracemalloc

import numpy as np

import dagformer
from dagformer import cli, data, estimators, forest, model, objectives, optim, selection
from dagformer import tensor
from tracing import Tracer, self_time

# the per-layer metrics every traced run reports, with their units
PER_LAYER_UNITS = {
    "tensor.backward_ms_per_step": "ms",
    "tensor.tape_nodes_per_step": "count",
    "model.forward_ms_per_step": "ms",
    "model.train_self_ms_per_step": "ms",
    "model.steps_per_fit": "count",
    "model.param_tensors": "count",
    "model.param_count": "count",
    "model.predict_ms_per_krow": "ms",
    "optim.adam_ms_per_step": "ms",
    "objectives.loss_ms_per_step": "ms",
    "objectives.kernel_ms_per_step": "ms",
    "objectives.kernel_entries_per_step": "count",
    "objectives.bandwidth_s": "s",
    "objectives.bandwidth_peak_mb": "MB",
    "estimators.estimate_s_per_fit": "s",
    "forest.fit_s_per_forest": "s",
    "forest.predict_ms_per_krow": "ms",
    "forest.tree_nodes_per_forest": "count",
    "selection.fit_plugin_s_per_replicate": "s",
    "data.simulate_s_per_fit": "s",
    "cli.self_s": "s",
    "cli.parallel_efficiency": "ratio",
}

LOSSES = ("objectives.loss_gformula", "objectives.loss_iptw", "objectives.loss_nmmr")
ESTIMATES = ("estimators.estimate_gformula", "estimators.estimate_aipw",
             "estimators.estimate_proximal")
SIMULATES = ("data.simulate_linear_scm", "data.simulate_demand")


def tail(values) -> tuple[float, float] | None:
    """(value, percentile) of the highest order statistic with at least ten
    samples above it, or None for fewer than eleven samples. Percentiles
    follow the linear-interpolation convention: rank k of n is 100 k / (n - 1).
    """
    n = len(values)
    if n < 11:
        return None
    k = n - 11
    return float(sorted(values)[k]), 100.0 * k / (n - 1)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for
    child (pool workers). getrusage keeps per-process maxima, not their sum
    at one instant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


# median time of `reference_loop_s` on the reference machine (README), with
# one BLAS thread; the unit of host speed that timing metrics are scaled to
REFERENCE_LOOP_S = 0.0410


def reference_loop_s() -> float:
    """Time of a fixed loop of small NumPy operations, shaped like one
    gformula-fit training step. It runs no dagformer code, so it tracks only
    the host's speed, which on a shared machine changes from minute to minute."""
    a = np.full((256, 3, 8), 0.5)
    w = np.full((8, 8), 0.01)
    start = time.perf_counter()
    for _ in range(400):
        h = np.tanh(a @ w + 0.1)
        ((1.0 - h * h) * a).sum(axis=-1).mean()
    return time.perf_counter() - start


def host_scale(reference_samples) -> float:
    """Factor that turns seconds measured beside these reference-loop samples
    into seconds at the reference machine's speed. The mean, not the median:
    a short sample falls in either the host's fast or its slow mode, and
    only the mean follows the share of time spent in each."""
    return REFERENCE_LOOP_S / statistics.fmean(reference_samples)


def scaled_times(seconds, reference_s) -> list[float]:
    """Each time at the reference machine's speed, by the reference loop
    timed just before it: the host's speed changes within a run too."""
    return [t * REFERENCE_LOOP_S / r for t, r in zip(seconds, reference_s, strict=True)]


# -- spans around dagformer's public functions -----------------------------------

def _count_tape(tracer, args, result):
    tracer.count("tape_nodes", len(tensor.GradientTape(args[0]).order))


def _count_params(tracer, args, result):
    tracer.count("param_tensors", len(args[0].params))
    tracer.count("param_count", args[0].param_count)


def _start_tracemalloc(tracer, args):
    # the first call only: tracemalloc slows the call it watches, and every
    # call at one n allocates the same
    if "bandwidth_peak_bytes" not in tracer.counts:
        tracemalloc.start()


def _bandwidth_peak(tracer, args, result):
    if tracemalloc.is_tracing():
        tracer.count("bandwidth_peak_bytes", tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    tracer.count("bandwidth_rows", np.atleast_2d(args[0]).shape[0])


def _set_replicate(tracer, args):
    tracer.fit = args[1]


def install_layer_spans(tracer: Tracer):
    """Wrap the public functions of each dagformer module the workloads reach."""
    wrap = tracer.wrap
    wrap(tensor, "backward", "tensor.backward", after=_count_tape)
    wrap(model.DagTransformer, "forward", "model.DagTransformer.forward")
    wrap(model.DagTransformer, "predict", "model.DagTransformer.predict",
         after=lambda t, args, result: t.count("predict_rows", np.shape(args[1])[0]))
    wrap(model, "train_model", "model.train_model", after=_count_params)
    wrap(optim, "adam_step", "optim.adam_step")
    for name in LOSSES:
        wrap(objectives, name.split(".")[1], name)
    wrap(objectives, "rbf_kernel_matrix", "objectives.rbf_kernel_matrix",
         after=lambda t, args, result: t.count("kernel_entries", result.size))
    wrap(objectives, "median_heuristic_bandwidth", "objectives.median_heuristic_bandwidth",
         before=_start_tracemalloc, after=_bandwidth_peak)
    for name in ESTIMATES:
        wrap(estimators, name.split(".")[1], name)
    wrap(forest.HonestForestRegressor, "fit", "forest.HonestForestRegressor.fit",
         after=lambda t, args, result: t.count(
             "tree_nodes", sum(2 * len(tree.leaves()) - 1 for tree in result.trees)))
    wrap(forest.HonestForestRegressor, "predict", "forest.HonestForestRegressor.predict",
         after=lambda t, args, result: t.count("forest_rows", np.atleast_2d(args[1]).shape[0]))
    wrap(selection, "fit_plugin", "selection.fit_plugin")
    for name in SIMULATES:
        wrap(data, name.split(".")[1], name)
    wrap(cli, "cmd_evaluate", "cli.cmd_evaluate")
    wrap(cli, "_effect_replicate", "cli._effect_replicate", before=_set_replicate)


def layer_metrics(tracer: Tracer, fits: int, jobs: int, untraced_wall_s: float) -> dict:
    """Per-layer figures from the spans and counts of one traced phase."""
    spans = tracer.spans
    by_id = {record[0]: record for record in spans}
    children: dict[int, list] = {}
    for record in spans:
        if record[4] is not None:
            children.setdefault(record[4], []).append((record[2], record[3]))

    def named(*names, parent=None):
        return [r for r in spans if r[1] in names
                and (parent is None or (r[4] is not None and by_id[r[4]][1] == parent))]

    def total(records):
        return sum(r[3] - r[2] for r in records)

    def count_sum(name):
        return float(sum(v for _, v in tracer.counts.get(name, [])))

    def per(value, base):
        return value / base if base else 0.0

    def mean_count(name):
        values = [v for _, v in tracer.counts.get(name, [])]
        return float(np.mean(values)) if values else 0.0

    train = "model.train_model"
    backward = named("tensor.backward", parent=train)
    steps = len(backward)
    train_self = sum(self_time(r[2], r[3], children.get(r[0], [])) for r in named(train))
    predict = named("model.DagTransformer.predict")
    forests = named("forest.HonestForestRegressor.fit")
    bandwidth = named("objectives.median_heuristic_bandwidth")
    evaluate = named("cli.cmd_evaluate")
    replicates = named("cli._effect_replicate")
    cli_self = sum(self_time(r[2], r[3], children.get(r[0], [])) for r in evaluate)
    return {
        "tensor.backward_ms_per_step": per(1e3 * total(backward), steps),
        "tensor.tape_nodes_per_step": per(count_sum("tape_nodes"), steps),
        "model.forward_ms_per_step": per(
            1e3 * total(named("model.DagTransformer.forward", parent=train)), steps),
        "model.train_self_ms_per_step": per(1e3 * train_self, steps),
        "model.steps_per_fit": per(steps, fits),
        "model.param_tensors": mean_count("param_tensors"),
        "model.param_count": mean_count("param_count"),
        "model.predict_ms_per_krow": per(1e3 * total(predict), count_sum("predict_rows") / 1e3),
        "optim.adam_ms_per_step": per(1e3 * total(named("optim.adam_step", parent=train)),
                                      steps),
        "objectives.loss_ms_per_step": per(1e3 * total(named(*LOSSES, parent=train)), steps),
        "objectives.kernel_ms_per_step": per(
            1e3 * total(named("objectives.rbf_kernel_matrix", parent=train)), steps),
        "objectives.kernel_entries_per_step": per(count_sum("kernel_entries"), steps),
        # median over calls, which sets aside the one call tracemalloc watched
        "objectives.bandwidth_s": statistics.median([r[3] - r[2] for r in bandwidth])
        if bandwidth else 0.0,
        "objectives.bandwidth_peak_mb": max(
            [v for _, v in tracer.counts.get("bandwidth_peak_bytes", [])], default=0) / 2 ** 20,
        "estimators.estimate_s_per_fit": per(total(named(*ESTIMATES)), fits),
        "forest.fit_s_per_forest": per(total(forests), len(forests)),
        "forest.predict_ms_per_krow": per(
            1e3 * total(named("forest.HonestForestRegressor.predict")),
            count_sum("forest_rows") / 1e3),
        "forest.tree_nodes_per_forest": per(count_sum("tree_nodes"), len(forests)),
        "selection.fit_plugin_s_per_replicate": per(total(named("selection.fit_plugin")),
                                                    fits),
        "data.simulate_s_per_fit": per(total(named(*SIMULATES)), fits),
        "cli.self_s": cli_self,
        "cli.parallel_efficiency": per(total(replicates), jobs * untraced_wall_s)
        if replicates else 0.0,
    }


def exact_counts(tracer: Tracer) -> dict:
    """Counters whose every observation should repeat exactly, with the
    distinct values seen."""
    return {name: sorted({v for _, v in observations})
            for name, observations in tracer.counts.items()
            if name in ("tape_nodes", "param_tensors", "param_count", "kernel_entries",
                        "bandwidth_rows")}


# -- the machine -----------------------------------------------------------------

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {key: {k: deps[key].get(k) for k in ("name", "version")}
                for key in ("blas", "lapack") if key in deps}
    except (TypeError, KeyError):
        return {}


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "dagformer": dagformer.__version__,
    }


def summary(values) -> dict:
    """Median, tail and sample count of per-fit times."""
    t = tail(values)
    return {"n": len(values), "p50": statistics.median(values),
            "tail": None if t is None else t[0], "tail_percentile": None if t is None else t[1]}
