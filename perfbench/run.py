"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload gformula-fit --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; dagformer is imported from its `src/`.
With `--trace 0` the run reports the end-to-end metrics: set-up time, the
timed phase's wall time, per-fit median and tail, and peak memory. With
`--trace 1` it runs the same fits untraced and then traced, and reports the
per-layer metrics derived from the spans. Either way the last line of
standard output is one JSON object, and the full record (machine, spans,
accuracy, checks) goes to `.perfbench-out/<workload>-seed<n>-trace<t>/`.
The exit code is 0 when every output check passes, 1 when one fails and
2 when the program or the arguments are missing.

Timing metrics are given in seconds at the reference machine's speed: a
fit's time is scaled by `REFERENCE_LOOP_S` over the time of a fixed NumPy
loop (`metrics.reference_loop_s`) run just before it in the same process,
and a set-up's by the mean of three such loops run right after it. The
measured seconds are in the record and on standard output too.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, in this process and in every process it starts: idle
# OpenBLAS workers spin on the other vCPU, which slows this one.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKLOAD_NAMES = ("gformula-fit", "proximal-demand", "evaluate-aipw")
# set-up is timed in this many fresh interpreters and reported as the median
SETUP_SAMPLES = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "fit_s_p50": "s", "fit_s_tail": "s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one cold set-up in this interpreter and print it")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def setup_probe(args) -> int:
    """Import, input generation and model construction, timed from a cold start."""
    start = time.perf_counter()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    workload.setup(args.seed, workload.fit_count(args.seconds),
                   os.path.join(OUT, "setup-probe", args.workload))
    setup_s = time.perf_counter() - start
    import metrics
    references = [metrics.reference_loop_s() for _ in range(3)]
    print(json.dumps({"setup_s": setup_s, "reference_s": references}))
    return 0


def time_setups(args) -> list[dict]:
    """Set-up time and the reference loop's time, from fresh interpreters."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def write_json(path: str, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def fit_record(results) -> list[dict]:
    return [{"index": r.index, "seconds": r.seconds, "reference_s": r.reference_s, "ok": r.ok,
             "error": r.error, "values": r.values} for r in results]


def run_untraced(args, workload, out: str):
    import metrics
    count = workload.fit_count(args.seconds)
    inputs = workload.setup(args.seed, count, os.path.join(out, "inputs"))
    workload.warm_up(args.seed, out)
    start = time.perf_counter()
    results = workload.run(inputs, out, workload.jobs)
    wall_s = time.perf_counter() - start
    rss = metrics.peak_rss_mb()
    failures = workload.check(results)
    setups = time_setups(args)
    fit_s = [r.seconds for r in results]
    scaled = metrics.scaled_times(fit_s, [r.reference_s for r in results])
    scale = sum(scaled) / sum(fit_s)
    setup_scaled = [s["setup_s"] * metrics.host_scale(s["reference_s"]) for s in setups]
    times, measured_times = metrics.summary(scaled), metrics.summary(fit_s)
    measured = {"setup_s": statistics.median(s["setup_s"] for s in setups), "wall_s": wall_s,
                "fit_s_p50": measured_times["p50"], "fit_s_tail": measured_times["tail"]}
    values = {"setup_s": statistics.median(setup_scaled), "wall_s": wall_s * scale,
              "fit_s_p50": times["p50"], "fit_s_tail": times["tail"], "peak_rss_mb": rss}
    record = {"fits": count, "jobs": workload.jobs, "setup_samples": setups,
              "fit_times": times, "fit_results": fit_record(results),
              "host_scale": scale, "measured_seconds": measured,
              "accuracy": workload.accuracy(results)}
    return results, failures, values, record


def run_traced(args, workload, out: str):
    """The same fits untraced, then traced; per-layer figures from the spans."""
    import metrics
    from tracing import SPAN_FIELDS, Tracer
    count = math.ceil(workload.fit_count(args.seconds) / 2)
    untraced_out, traced_out = os.path.join(out, "untraced"), os.path.join(out, "traced")
    inputs = workload.setup(args.seed, count, os.path.join(untraced_out, "inputs"))
    inputs_print = workload.fingerprint(inputs)
    workload.warm_up(args.seed, out)
    start = time.perf_counter()
    untraced = workload.run(inputs, untraced_out, workload.jobs)
    untraced_wall = time.perf_counter() - start

    tracer = Tracer()
    metrics.install_layer_spans(tracer)
    try:
        with tracer.span("bench.setup"):
            inputs = workload.setup(args.seed, count, os.path.join(traced_out, "inputs"))
        same_inputs = workload.fingerprint(inputs) == inputs_print
        start = time.perf_counter()
        traced = workload.run(inputs, traced_out, 1, tracer=tracer)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    write_json(os.path.join(out, "spans.json"),
               {"fields": SPAN_FIELDS,
                "spans": tracer.spans,
                "counts": {k: [list(o) for o in v] for k, v in tracer.counts.items()}})

    failures = workload.check(untraced) + workload.check(traced)
    if not same_inputs:
        failures.append("one seed generated different inputs in two set-ups")
    if not workload.same_outputs(untraced, traced, (untraced_out, traced_out)):
        failures.append(f"untraced (jobs {workload.jobs}) and traced (jobs 1) outputs differ")
    values = metrics.layer_metrics(tracer, count, workload.jobs, untraced_wall)
    bandwidth_rows = [v for _, v in tracer.counts.get("bandwidth_rows", [])]
    record = {
        "fits": count,
        "accuracy": workload.accuracy(untraced),
        "untraced": {"jobs": workload.jobs, "wall_s": untraced_wall,
                     "fit_results": fit_record(untraced)},
        "traced": {"jobs": 1, "wall_s": traced_wall, "spans": len(tracer.spans),
                   "fit_results": fit_record(traced)},
        "tracing_overhead_s": traced_wall - untraced_wall,
        "tracing_overhead_note": "traced minus untraced wall_s over the same fits"
        + ("" if workload.jobs == 1 else
           f"; the untraced run used jobs {workload.jobs}, so this also holds the pool's"
           " speed-up and is not overhead alone"),
        "exact_counts": metrics.exact_counts(tracer),
        "bandwidth_memory": {
            "rows": max(bandwidth_rows, default=0),
            "tracemalloc_peak_mb": values["objectives.bandwidth_peak_mb"],
            "computed_n2x8_mb": max(bandwidth_rows, default=0) ** 2 * 8 / 2 ** 20,
            "note": "computed_n2x8_mb is arithmetic (one n x n float64 matrix), not measured",
        },
    }
    return untraced + traced, failures, values, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dagformer", "__init__.py")):
        print(f"perfbench: no dagformer sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)

    import metrics
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    out = fresh_dir(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"))
    runner = run_traced if args.trace else run_untraced
    results, failures, values, record = runner(args, workload, out)
    units = metrics.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = sum(1 for r in results if r.error is not None or not r.ok)
    correct = not failures and all(r.error is None for r in results)
    record.update({
        "workload": {"name": workload.name, "why": workload.why, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace},
        "machine": metrics.machine(), "checks_failed": failures,
        "metrics": values,
    })
    write_json(os.path.join(out, "record.json"), record)

    for name, value in values.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    if not args.trace:
        times = record["fit_times"]
        print(f"{workload.name} fit_s_tail is p{times['tail_percentile']:.1f} of "
              f"{times['n']} fits")
        print(f"{workload.name} seconds as measured, before scaling to the reference "
              f"machine's speed (by {record['host_scale']:.4f} over the timed phase): "
              + json.dumps(record["measured_seconds"], sort_keys=True))
    print(f"{workload.name} accuracy {json.dumps(record['accuracy'], sort_keys=True)}")
    for failure in failures:
        print(f"{workload.name} CHECK FAILED: {failure}")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
