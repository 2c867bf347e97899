"""Checks of the benchmark's own arithmetic and input generation.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import metrics  # noqa: E402
from tracing import PROBE, Tracer, self_time  # noqa: E402
from workloads import WORKLOADS, derived_seed  # noqa: E402


def test_self_time_subtracts_the_union_of_child_intervals():
    # [2, 5] overlaps [1, 3]; [8, 12] runs past the parent's end at 10
    assert self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 4.0
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(0.0, 10.0), (3.0, 4.0)]) == 0.0
    assert self_time(5.0, 10.0, [(1.0, 2.0)]) == 5.0


def test_tracer_records_parents_and_fits_and_excludes_probes_from_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.fit = 3
    with tracer.span("outer"):          # 0 .. 7
        with tracer.span("inner"):      # 1 .. 2
            pass
        with tracer.span(PROBE):        # 3 .. 4
            pass
        with tracer.span("inner"):      # 5 .. 6
            pass
    outer, first, probe, second = tracer.spans
    assert [s[4] for s in tracer.spans] == [None, 0, 0, 0]
    assert all(s[5] == 3 for s in tracer.spans)
    children = [(s[2], s[3]) for s in (first, probe, second)]
    assert self_time(outer[2], outer[3], children) == 4.0


def test_wrap_patches_every_module_that_imported_the_function_and_restores_it():
    from dagformer import cli, estimators
    original = estimators.estimate_aipw
    tracer = Tracer()
    tracer.wrap(estimators, "estimate_aipw", "estimators.estimate_aipw")
    try:
        assert estimators.estimate_aipw is not original
        assert cli.estimate_aipw is estimators.estimate_aipw
    finally:
        tracer.uninstall()
    assert estimators.estimate_aipw is original and cli.estimate_aipw is original


@pytest.mark.parametrize("n, rank, percentile", [(11, 0, 0.0), (21, 10, 50.0),
                                                 (44, 33, 100.0 * 33 / 43)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it(n, rank, percentile):
    values = [float(v) for v in range(n, 0, -1)]  # any order
    value, pct = metrics.tail(values)
    assert value == sorted(values)[rank]
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(percentile)


def test_tail_needs_eleven_samples():
    assert metrics.tail([1.0] * 10) is None


def test_host_scale_maps_the_mean_reference_time_to_the_reference_machine():
    ref = metrics.REFERENCE_LOOP_S
    # a host at half speed on average: its seconds count half
    assert metrics.host_scale([2 * ref, 3 * ref, 1 * ref]) == pytest.approx(0.5)
    assert metrics.host_scale([ref]) == pytest.approx(1.0)


def test_scaled_times_pair_each_time_with_its_own_reference_loop():
    ref = metrics.REFERENCE_LOOP_S
    # the second fit ran while the host was twice as slow
    assert metrics.scaled_times([1.0, 2.0], [ref, 2 * ref]) == pytest.approx([1.0, 1.0])
    with pytest.raises(ValueError):
        metrics.scaled_times([1.0], [ref, ref])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_generates_identical_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    first = workload.fingerprint(workload.setup(7, 2, str(tmp_path / "a")))
    again = workload.fingerprint(workload.setup(7, 2, str(tmp_path / "b")))
    other = workload.fingerprint(workload.setup(8, 2, str(tmp_path / "c")))
    assert first == again
    assert first != other


def test_fit_seeds_differ_within_a_run():
    seeds = {derived_seed(1, "gformula-fit", i) for i in range(50)}
    assert len(seeds) == 50
