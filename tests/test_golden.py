"""Golden CLI outputs: small runs of every command must keep their bytes across commits.

Each run below executes one or more `dagformer` commands in a fresh
directory and compares every output file with the fixture in
`tests/fixtures/golden/<run>.json`, which holds the file's SHA-256 and the
numbers parsed from it. On the stack that wrote the fixture (same Python,
NumPy and BLAS) the hashes must be equal, and a failure reports the
largest relative difference of the numbers, which tells rounding drift
from a logic change. On another stack the numbers are compared at 1e-9
relative, with a warning that says so.

Regenerate deliberately, from the commit whose outputs are the reference,
every run or the named ones:

    PYTHONPATH=src python tests/test_golden.py --write [run ...]
"""

import hashlib
import json
import math
import os
import platform
import sys
import tempfile
import warnings

import numpy as np
import pytest

from dagformer.cli import main
from dagformer.methods import METHODS

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures", "golden")
STACK_RTOL = 1e-9

# criterion 8's sizes: n = 240 rows, a 1-layer model of width 8, a few epochs
_MODEL = {"embedding_dim": 8, "num_heads": 2, "num_encoder_layers": 1, "feedforward_dim": 16,
          "mlp_width": 8, "mlp_depth": 1, "dropout_rate": 0.0, "alpha": 0.1, "seed": 3}
# a `tune` base model: its candidates seed their models with the run's seed
_TUNE_MODEL = {key: value for key, value in _MODEL.items() if key != "seed"}


def _proximal(method: str, **extra) -> dict:
    return {"method": method, "data": {"simulator": {"name": "demand", "n": 240}},
            "model": _MODEL, "optimizer": {"learning_rate": 3e-3}, "nmmr": {"lambda": 1e-6},
            "epochs": 6, "batch_size": 32, "seed": 13, "heldout": {"draws": 100}, **extra}


def _tune_proximal(method: str, **extra) -> dict:
    """A proximal `tune` config: without `nmmr`, a candidate's lambda is its
    `optimizer.l2_penalty`."""
    config = _proximal(method, model=_TUNE_MODEL, **extra)
    del config["nmmr"]
    return config


def _linear(method: str, **extra) -> dict:
    return {"method": method, "data": {"simulator": {"name": "linear-scm", "n": 240, "x_dim": 2,
                                                     "effect_of_x1": 1.0}},
            **{spec.key: _MODEL for spec in METHODS[method].models},
            "optimizer": {"learning_rate": 3e-3}, "epochs": 6, "batch_size": 32, "seed": 13,
            "plugin": {"n_trees": 20}, **extra}


def _train_estimate(method: str, **extra) -> list:
    config = _proximal if METHODS[method].proxy else _linear
    snapshots = {spec.key: f"train/{spec.key}.json" for spec in METHODS[method].models}
    return [("train", config(method, **extra), "train", ()),
            ("estimate", config(method, **{**extra, **snapshots}), "estimate", ())]


_GRID = {"epochs": [4], "optimizer.learning_rate": [1e-3, 3e-3],
         "optimizer.l2_penalty": [0.0, 1e-4]}
_EVALUATE = _proximal("proximal-u", experiment="demand", replicates=2)
_SPLIT = {"train_fraction": 0.7, "seed": 9}
# the rows and graph a `simulate` of a run config writes, read back as CSV data
_CSV = {"data": {"csv": "simulate/data.csv", "schema": "simulate/schema.json"},
        "dag": "simulate/dag.json"}

# run name -> [(command, config, output directory, extra arguments)], run in order
RUNS = {
    "train-estimate-proximal-u": _train_estimate("proximal-u"),
    "train-estimate-proximal-v": _train_estimate("proximal-v"),
    # two layers: no position but Z's own attends to Z, and the snapshot is version 2
    "train-estimate-proximal-u-2layer": _train_estimate(
        "proximal-u", model=dict(_MODEL, num_encoder_layers=2)),
    "tune-proximal-u": [("tune", _tune_proximal("proximal-u", grid=_GRID, split=_SPLIT), "tune",
                         ())],
    "evaluate-demand-jobs1": [("evaluate", _EVALUATE, "evaluate", ("--jobs", "1"))],
    "evaluate-demand-jobs2": [("evaluate", _EVALUATE, "evaluate", ("--jobs", "2"))],
    **{f"train-estimate-{method}": _train_estimate(method)
       for method in METHODS if not METHODS[method].proxy},
    "tune-gformula-cate": [("tune", _linear("gformula", model=_TUNE_MODEL, grid=_GRID,
                                            split=_SPLIT), "tune", ())],
    "tune-aipw-joint-ate": [("tune", _linear("aipw-joint", model=_TUNE_MODEL, grid=_GRID,
                                             split=_SPLIT, mode="ate"), "tune", ())],
    **{f"evaluate-{experiment}-jobs{jobs}": [
        ("evaluate", _linear(method, experiment=experiment, replicates=2), "evaluate",
         ("--jobs", jobs))]
       for experiment, method in (("ate", "aipw-joint"), ("cate", "gformula"))
       for jobs in ("1", "2")},
    "simulate-linear-scm": [("simulate", {"simulator": {"name": "linear-scm", "n": 40, "x_dim": 2,
                                                        "effect_of_x1": 1.0}, "seed": 5},
                             "simulate", ())],
    "simulate-demand": [("simulate", {"simulator": {"name": "demand", "n": 40}, "seed": 5},
                         "simulate", ())],
    "simulate-run-config-demand": [("simulate", _proximal("proximal-u"), "simulate", ())],
    # replicates bootstrap the CSV rows
    "evaluate-ate-csv": [("simulate", _linear("aipw-joint"), "simulate", ()),
                         ("evaluate", _linear("aipw-joint", experiment="ate", replicates=2, **_CSV),
                          "evaluate", ())],
}


def stack() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # an older NumPy has no dict form of its build config
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def numbers(name: str, data: bytes) -> list:
    """Every number in a JSON or CSV output file, in file order."""
    text = data.decode("utf-8")
    if name.endswith(".json"):
        found = []

        def walk(value):
            if isinstance(value, dict):
                for key in sorted(value):
                    walk(value[key])
            elif isinstance(value, list):
                for item in value:
                    walk(item)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                found.append(float(value))
        walk(json.loads(text))
        return found
    found = []
    for cell in text.replace("\n", ",").split(","):
        try:
            found.append(float(cell))
        except ValueError:
            pass
    return found


def execute(name: str, workdir: str) -> dict:
    """Run one golden run in `workdir`; {relative output path: bytes}."""
    cwd = os.getcwd()
    os.chdir(workdir)  # outputs embed their config, so every path in it is relative
    try:
        for index, (command, config, out, extra) in enumerate(RUNS[name]):
            path = f"config{index}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            code = main([command, "--config", path, "--out", out, *extra])
            assert code == 0, f"{name}: {command} exited {code}"
        outputs = {}
        for out in sorted({step[2] for step in RUNS[name]}):
            for file in sorted(os.listdir(out)):
                with open(os.path.join(out, file), "rb") as fh:
                    outputs[f"{out}/{file}"] = fh.read()
        return outputs
    finally:
        os.chdir(cwd)


def largest_relative_difference(want: list, got: list) -> str:
    if len(want) != len(got):
        return f"{len(got)} numbers where the fixture has {len(want)}"
    worst, where = 0.0, None
    for i, (a, b) in enumerate(zip(want, got)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        diff = abs(a - b) / max(abs(a), abs(b))
        if diff > worst or where is None:
            worst, where = diff, i
    if where is None:
        return "equal numbers (only formatting or text differs)"
    return f"largest relative difference {worst:.3g} at number {where} ({want[where]!r} -> " \
           f"{got[where]!r})"


@pytest.mark.parametrize("name", list(RUNS))
def test_golden_outputs(tmp_path, name):
    with open(os.path.join(FIXTURES, f"{name}.json"), encoding="utf-8") as fh:
        fixture = json.load(fh)
    outputs = execute(name, str(tmp_path))
    assert sorted(outputs) == sorted(fixture["files"]), "a different set of output files"
    same_stack = fixture["stack"] == stack()
    for file, want in fixture["files"].items():
        got = outputs[file]
        if same_stack:
            assert hashlib.sha256(got).hexdigest() == want["sha256"], (
                f"{name}: {file} changed bytes: "
                f"{largest_relative_difference(want['numbers'], numbers(file, got))}")
        else:
            values = numbers(file, got)
            assert len(values) == len(want["numbers"]) and np.allclose(
                values, want["numbers"], rtol=STACK_RTOL, atol=0.0, equal_nan=True), (
                f"{name}: {file}: {largest_relative_difference(want['numbers'], values)}")
    if not same_stack:
        warnings.warn(f"golden fixture written on {fixture['stack']}, running on {stack()}: "
                      f"numbers compared at {STACK_RTOL} relative, not bytes")


def write_fixtures(names):
    os.makedirs(FIXTURES, exist_ok=True)
    for name in names:
        with tempfile.TemporaryDirectory() as workdir:
            outputs = execute(name, workdir)
        files = {file: {"sha256": hashlib.sha256(data).hexdigest(), "numbers": numbers(file, data)}
                 for file, data in outputs.items()}
        with open(os.path.join(FIXTURES, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump({"stack": stack(), "files": files}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {name}: {len(files)} files")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--write"] or not set(sys.argv[2:]) <= set(RUNS):
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write [run ...]")
    write_fixtures(sys.argv[2:] or list(RUNS))
