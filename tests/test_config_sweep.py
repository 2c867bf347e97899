"""Every leaf key of every golden command config, set to each value of a fixed
list: the run config either resolves or is a ConfigError, and the simulator
it draws from either draws or raises ConfigError or DataError.

Stage 1 resolves the config and, for every command but `simulate`, builds
its graph with `cli._dag`, which runs `input_nodes_for` for each of the
method's models. Stage 2 draws the config's simulator at n <= 40 rows with
warnings as errors. The CSV run reads the files of its `simulate` step.
"""

import copy
import json
import warnings

import pytest

from dagformer import cli
from dagformer.errors import ConfigError, DataError
from dagformer.methods import resolve, seeded

from test_golden import RUNS

VALUES = (None, True, False, 0, -1, 2 ** 63, 10 ** 400, -10 ** 400, 1e308, -1e308, 5e-324,
          float("nan"), float("inf"), float("-inf"), "", "x", [], [1], {}, 0.5, -0.5)
# linear-scm keys that no golden config sets
LINEAR_SCM_KEYS = ("treatment_effect", "noise_sd", "outcome_weights", "propensity_weights",
                   "propensity_intercept")
MAX_ROWS = 40


def _leaves(value: dict, path=()):
    for key, item in value.items():
        if isinstance(item, dict) and item:
            yield from _leaves(item, path + (key,))
        else:
            yield path + (key,)


def _cases():
    for run, steps in RUNS.items():
        for index, (command, config, _, _) in enumerate(steps):
            config = copy.deepcopy(config)
            keys = list(_leaves(config))
            for path, section in ((("simulator",), config.get("simulator")),
                                  (("data", "simulator"), config.get("data", {}).get("simulator"))):
                if section is None:
                    continue
                section["n"] = min(section["n"], MAX_ROWS)
                if section["name"] == "linear-scm":
                    keys += [path + (key,) for key in LINEAR_SCM_KEYS if key not in section]
            for key in keys:
                yield pytest.param(command, config, key, id=f"{run}:{index}:{'.'.join(key)}")


def _set(config: dict, key: tuple, value) -> dict:
    config = copy.deepcopy(config)
    target = config
    for part in key[:-1]:
        target = target[part]
    target[key[-1]] = value
    return config


@pytest.fixture(scope="module")
def csv_files(tmp_path_factory):
    """A directory holding the files of `evaluate-ate-csv`'s `simulate` step."""
    workdir = tmp_path_factory.mktemp("sweep")
    command, config, out, _ = RUNS["evaluate-ate-csv"][0]
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, "--config", str(path), "--out", str(workdir / out)]) == 0
    return workdir


@pytest.mark.parametrize("command, config, key", list(_cases()))
def test_every_value_of_a_key_resolves_and_draws_or_is_a_config_error(
        monkeypatch, csv_files, command, config, key):
    monkeypatch.chdir(csv_files)
    for value in VALUES:
        case = f"{'.'.join(key)} = {value!r}"
        try:
            run = resolve(_set(config, key, value))
            if command != "simulate":
                cli._dag(run)
        except ConfigError:
            continue
        except Exception as exc:  # noqa: BLE001 - any other exception is the finding
            pytest.fail(f"stage 1, {case}: {type(exc).__name__}: {exc}")
        simulator = run.simulator or (run.data and run.data.simulator)
        if simulator is None or max(simulator.n, getattr(simulator, "x_dim", 0)) > MAX_ROWS:
            continue
        seed = seeded(run.data, run.seed).seed if run.data else run.seed
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                simulator.draw(seed)
        except (ConfigError, DataError):
            pass
        except Exception as exc:  # noqa: BLE001
            pytest.fail(f"stage 2, {case}: {type(exc).__name__}: {exc}")
