import math
import tracemalloc

import numpy as np
import pytest

from dagformer import objectives, rng, tensor as T
from dagformer.errors import ContractError, DataError
from dagformer.objectives import (
    AipwJoint, GFormula, Iptw, Nmmr, loss_aipw_joint, loss_gformula, loss_iptw,
    loss_nmmr, median_heuristic_bandwidth, nmmr_risk, rbf_kernel_matrix,
)


def test_mse_zero_when_equal():
    y = np.array([0.3, -1.2, 4.0])
    assert float(loss_gformula(y, y).data) == 0.0


def test_mse_hand_value():
    assert float(loss_gformula([0.0, 0.0], [1.0, 3.0]).data) == 5.0


def test_mse_matches_two_pass_loop():
    g = rng.stream(31, "mse")
    y_hat = g.standard_normal(100)
    y = g.standard_normal(100)
    total = 0.0
    for a, b in zip(y_hat, y):
        total += (a - b) ** 2
    assert abs(float(loss_gformula(y_hat, y).data) - total / 100) < 1e-12


def test_mse_empty_rejected():
    with pytest.raises(ContractError):
        loss_gformula(np.array([]), np.array([]))


def test_bce_uniform_prediction_is_log2():
    out = loss_iptw(np.full(8, 0.5), np.array([0, 1, 0, 1, 1, 0, 1, 0], dtype=float))
    assert abs(float(out.data) - math.log(2.0)) < 1e-12


def test_bce_perfect_prediction_is_near_zero():
    a = np.array([0.0, 1.0, 1.0, 0.0])
    assert float(loss_iptw(a, a).data) <= 1e-11


def test_bce_hand_value():
    out = loss_iptw(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
    want = -(math.log(0.9) + math.log(0.8)) / 2
    assert abs(float(out.data) - want) < 1e-9


def test_bce_rejects_nonbinary_labels():
    with pytest.raises(DataError):
        loss_iptw(np.array([0.5, 0.5]), np.array([0.0, 2.0]))


def test_joint_zero_components():
    out = loss_aipw_joint(np.array([1.0]), np.array([1.0]), np.array([1.0]), np.array([1.0]))
    assert float(out.data) <= 1e-11


def test_joint_hand_value():
    out = loss_aipw_joint([0.0, 0.0], [1.0, 3.0], [0.5, 0.5], [1.0, 0.0])
    assert abs(float(out.data) - (5.0 + math.log(2.0)) / 2) < 1e-12


def test_joint_is_average_of_parts():
    g = rng.stream(33, "joint")
    y_hat, y = g.standard_normal(40), g.standard_normal(40)
    a_hat = g.uniform(0.05, 0.95, 40)
    a = (g.random(40) < 0.5).astype(float)
    whole = float(loss_aipw_joint(y_hat, y, a_hat, a).data)
    parts = 0.5 * float(loss_gformula(y_hat, y).data) + 0.5 * float(loss_iptw(a_hat, a).data)
    assert abs(whole - parts) < 1e-12


def test_rbf_identical_rows_all_ones():
    rows = np.ones((5, 3))
    assert np.allclose(rbf_kernel_matrix(rows, 1.7), np.ones((5, 5)), atol=1e-15)


def test_rbf_distance_sigma_sqrt2():
    sigma = 0.8
    rows = np.array([[0.0], [sigma * math.sqrt(2.0)]])
    k = rbf_kernel_matrix(rows, sigma)
    assert abs(k[0, 1] - math.exp(-1.0)) < 1e-12
    assert k[0, 0] == 1.0 and k[1, 1] == 1.0


@pytest.mark.parametrize("bandwidth", [0.0, -1.0, math.nan, math.inf])
def test_rbf_rejects_a_bandwidth_that_is_not_finite_and_positive(bandwidth):
    with pytest.raises(ContractError, match="bandwidth must be finite and > 0"):
        rbf_kernel_matrix(np.eye(2), bandwidth)


def test_rbf_symmetric_psd():
    g = rng.stream(34, "rbf")
    rows = g.standard_normal((10, 4))
    k = rbf_kernel_matrix(rows, 1.3)
    assert np.allclose(k, k.T, atol=1e-15)
    assert np.linalg.eigvalsh(k).min() >= -1e-10


def test_median_heuristic_two_points():
    rows = np.array([[0.0, 0.0], [3.0, 4.0]])
    assert abs(median_heuristic_bandwidth(rows) - 5.0) < 1e-12
    with pytest.raises(DataError):
        median_heuristic_bandwidth(np.ones((4, 2)))


def _dense_median_heuristic(rows):
    """The full n x n distance-matrix form of the median heuristic."""
    n = rows.shape[0]
    sq = (rows * rows).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * rows @ rows.T, 0.0)
    upper = d2[np.triu_indices(n, k=1)]
    return float(np.median(np.sqrt(np.maximum(upper, 0.0))))


@pytest.mark.parametrize("n", [2, 3, 17, 300, 1001, 5000])
def test_median_heuristic_equals_dense_reference(n):
    g = rng.stream(41, "median", n)
    for d in (1, 2, 3, 5, 7):
        rows = g.standard_normal((n, d)) * g.uniform(0.1, 10.0)
        assert median_heuristic_bandwidth(rows) == _dense_median_heuristic(rows), d


def _tied_rows(kind, n, g):
    if kind == "binary":
        return (g.random((n, 4)) < 0.5).astype(float)
    if kind == "rounded":
        return np.round(g.standard_normal((n, 3)), 1)
    # 65% of the rows identical: 42% of the pairs are zero, and the median is not
    rows = g.standard_normal((n, 2))
    rows[: int(0.65 * n)] = rows[0]
    return rows


@pytest.mark.parametrize("cap", [objectives._COLLECT_CAP, 1000, 1])
@pytest.mark.parametrize("kind, n", [("binary", 1500), ("rounded", 2000), ("identical", 1000),
                                     ("binary", 301), ("rounded", 300), ("identical", 300)])
def test_median_heuristic_tied_data_equals_dense_reference(monkeypatch, kind, n, cap):
    # a smaller cap sends the same data through more counting passes, down to
    # bins that hold a single value at full resolution
    monkeypatch.setattr(objectives, "_COLLECT_CAP", cap)
    rows = _tied_rows(kind, n, np.random.default_rng(n))
    assert median_heuristic_bandwidth(rows) == _dense_median_heuristic(rows)


@pytest.mark.parametrize("n", [2, 3, 17, 300])
def test_median_heuristic_every_pass_count_equals_dense_reference(monkeypatch, n):
    g = rng.stream(43, "median-cap", n)
    for cap in (1, 7, 1000):
        monkeypatch.setattr(objectives, "_COLLECT_CAP", cap)
        for d in (1, 3, 7):
            rows = g.standard_normal((n, d)) * g.uniform(0.1, 10.0)
            assert median_heuristic_bandwidth(rows) == _dense_median_heuristic(rows), (cap, d)


def test_median_heuristic_zero_median_is_a_data_error():
    # 8 of 10 rows equal: 28 of the 45 pairs are zero, so the median is zero
    rows = np.vstack([np.ones((8, 2)), [[0.0, 1.0], [2.0, 3.0]]])
    with pytest.raises(DataError, match="more than half of the pairwise"):
        median_heuristic_bandwidth(rows)
    # 7 of 10: 21 of 45 are zero, and the median is the smallest nonzero distance
    rows[7] = [5.0, 5.0]
    assert median_heuristic_bandwidth(rows) == _dense_median_heuristic(rows) > 0.0
    for bad in (np.nan, np.inf, 1e200):  # 1e200: its squared distances overflow
        with pytest.raises(DataError, match="finite"), np.errstate(over="ignore"):
            median_heuristic_bandwidth(np.array([[0.0], [bad], [1.0]]))


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_median_heuristic_memory_does_not_grow_with_n():
    # the condensed buffer of all pairs would take 1.6 GB here
    n = 20_000
    rows = rng.stream(44, "median-mem").standard_normal((n, 3))
    peak = _peak_bytes(median_heuristic_bandwidth, rows)
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_median_heuristic_tied_bins_are_refined_not_collected():
    # 3/8 of the 8M pairs have squared distance exactly 1 and 3/8 exactly 2,
    # and the middle ranks fall in those two bins: collected, they would take
    # 48 MB, so the peak shows that they were resolved by counting passes
    rows = (rng.stream(45, "median-binary").random((4000, 3)) < 0.5).astype(float)
    peak = _peak_bytes(median_heuristic_bandwidth, rows)
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"
    assert median_heuristic_bandwidth(rows) in (1.0, math.sqrt(2.0), (1.0 + math.sqrt(2.0)) / 2)


def test_median_heuristic_peak_memory_below_5_n_squared_bytes():
    n = 3000
    rows = rng.stream(42, "median-mem").standard_normal((n, 3))
    tracemalloc.start()
    try:
        median_heuristic_bandwidth(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * n * n, f"peak {peak / n / n:.2f} n^2 bytes"


def _median_test_inputs():
    """(group, rows, cap) of every input the median-heuristic tests above give
    `median_heuristic_bandwidth`, drawn as they draw them, in their order."""
    cap = objectives._COLLECT_CAP
    yield "two points", np.array([[0.0, 0.0], [3.0, 4.0]]), cap
    yield "two points", np.ones((4, 2)), cap
    for n in (2, 3, 17, 300, 1001, 5000):
        g = rng.stream(41, "median", n)
        for d in (1, 2, 3, 5, 7):
            yield "dense", g.standard_normal((n, d)) * g.uniform(0.1, 10.0), cap
    for tied_cap in (cap, 1000, 1):
        for kind, n in (("binary", 1500), ("rounded", 2000), ("identical", 1000),
                        ("binary", 301), ("rounded", 300), ("identical", 300)):
            yield "tied", _tied_rows(kind, n, np.random.default_rng(n)), tied_cap
    for n in (2, 3, 17, 300):
        g = rng.stream(43, "median-cap", n)
        for small_cap in (1, 7, 1000):
            for d in (1, 3, 7):
                yield "cap", g.standard_normal((n, d)) * g.uniform(0.1, 10.0), small_cap
    rows = np.vstack([np.ones((8, 2)), [[0.0, 1.0], [2.0, 3.0]]])
    yield "zero median", rows.copy(), cap
    rows[7] = [5.0, 5.0]
    yield "zero median", rows, cap
    yield "n=20000", rng.stream(44, "median-mem").standard_normal((20_000, 3)), cap
    yield "tied bins", (rng.stream(45, "median-binary").random((4000, 3)) < 0.5).astype(float), cap
    yield "n=3000", rng.stream(42, "median-mem").standard_normal((3000, 3)), cap


# distance passes per input of each group, measured before the sampled bracket
# replaced the first pass over every entry
_PASSES_BEFORE = {
    "two points": [1, 1],
    "dense": [1] * 25 + [2] * 5,
    "tied": [2, 2, 1, 1, 1, 1] + [4, 4, 3, 4, 3, 2] + [4, 4, 3, 4, 4, 4],
    "cap": [2] * 3 + [1] * 6 + [2] * 3 + [1] * 6 + [3] * 3 + [2] * 3 + [1] * 3
           + [3] * 6 + [2, 3, 3],
    "zero median": [1, 1],
    "n=20000": [3],
    "tied bins": [4],
    "n=3000": [2],
}


# distance passes per input of each group, measured when each middle rank had
# its own bins, before one bit interval held both
_PASSES_PER_RANK_BINS = {
    "two points": [1, 1],
    "dense": [1] * 30,
    "tied": [1] * 6 + [3, 3, 2, 3, 2, 2] + [3, 3, 2, 3, 3, 4],
    "cap": ([2] * 3 + [1] * 6) * 3 + [2] * 9,
    "zero median": [1, 1],
    "n=20000": [2],
    "tied bins": [4],
    "n=3000": [1],
}


def _distance_passes(monkeypatch, rows):
    """The number of passes over the pairwise distances that the bandwidth takes."""
    passes = []
    upper_bits = objectives._upper_bits

    def counted(*args):
        passes.append(args)
        return upper_bits(*args)
    monkeypatch.setattr(objectives, "_upper_bits", counted)
    try:
        median_heuristic_bandwidth(rows)
    except DataError:  # the zero median is found after its passes
        pass
    monkeypatch.setattr(objectives, "_upper_bits", upper_bits)
    return len(passes)


def test_median_heuristic_takes_no_more_passes_than_before(monkeypatch):
    passes = {group: [] for group in _PASSES_BEFORE}
    for group, rows, cap in _median_test_inputs():
        monkeypatch.setattr(objectives, "_COLLECT_CAP", cap)
        passes[group].append(_distance_passes(monkeypatch, rows))
    for group, before in _PASSES_BEFORE.items():
        assert len(passes[group]) == len(before), group
        assert all(now <= then for now, then in zip(passes[group], before)), (group, passes[group])
    # the bracket holds the middle ranks in one pass where two were taken
    assert passes["dense"][-5:] == [1] * 5 and passes["n=20000"] == [2]
    # and none takes more than when each middle rank had its own bins
    for group, before in _PASSES_PER_RANK_BINS.items():
        assert len(passes[group]) == len(before), group
        assert all(now <= then for now, then in zip(passes[group], before)), (group, passes[group])


@pytest.mark.parametrize("d", [2, 3])
def test_median_heuristic_takes_one_pass_at_5000_continuous_rows(monkeypatch, d):
    rows = rng.stream(46, "median-one-pass", d).standard_normal((5000, d))
    assert _distance_passes(monkeypatch, rows) == 1


def test_median_heuristic_ranks_in_the_first_and_last_sub_intervals(monkeypatch):
    # the squared distances are 1, 4, 9, 16, 36 and 49; the middle two, 9 and
    # 16, fall in the first and the last sub-interval of the bracket
    def bits(value):
        return int(np.float64(value).view(np.int64))
    monkeypatch.setattr(objectives, "_COLLECT_CAP", 1)
    monkeypatch.setattr(objectives, "_sample_bracket",
                        lambda rows, sq: (bits(9.0), bits(16.0) - bits(9.0) + 1, 2))
    rows = np.array([[0.0], [1.0], [3.0], [7.0]])
    assert median_heuristic_bandwidth(rows) == 3.5
    assert _distance_passes(monkeypatch, rows) == 2


@pytest.mark.parametrize("first, last", [(16.0, 36.0), (9.0, 16.0)])
def test_median_heuristic_middle_ranks_parted_by_a_bracket_boundary(monkeypatch, first, last):
    # the middle two squared distances are 9 and 16; the bracket [first, last)
    # holds one of them, and the boundary at 16 parts them
    def bits(value):
        return int(np.float64(value).view(np.int64))
    monkeypatch.setattr(objectives, "_COLLECT_CAP", 1)
    monkeypatch.setattr(objectives, "_sample_bracket",
                        lambda rows, sq: (bits(first), bits(last) - bits(first), 1))
    rows = np.array([[0.0], [1.0], [3.0], [7.0]])
    assert median_heuristic_bandwidth(rows) == 3.5
    assert _distance_passes(monkeypatch, rows) == 2


def _missing_below(rows, sq):
    return 0, 1, rows.shape[0]  # exact zeros only: fewer than half of the pairs


def _missing_above(rows, sq):
    return int(np.float64(1e300).view(np.int64)), 1 << 40, 0  # above every pair


def _holding_every_entry(rows, sq):
    return 0, objectives._ALL_BITS, rows.shape[0] ** 2


def _underestimated(rows, sq, sample_bracket=objectives._sample_bracket):
    return *sample_bracket(rows, sq)[:2], 1


def _overestimated(rows, sq, sample_bracket=objectives._sample_bracket):
    return *sample_bracket(rows, sq)[:2], objectives._COLLECT_CAP + 1


@pytest.mark.parametrize("bracket", [_missing_below, _missing_above, _holding_every_entry,
                                     _underestimated, _overestimated])
@pytest.mark.parametrize("kind", ["continuous", "binary", "rounded", "identical"])
@pytest.mark.parametrize("n, cap", [(1500, objectives._COLLECT_CAP), (300, 1000)])
def test_median_heuristic_failed_bracket_equals_dense_reference(monkeypatch, bracket, kind, n,
                                                                cap):
    # a bracket that misses the middle ranks sends them to the whole range; one
    # that holds more than the cap is refined from its own counts; one that
    # holds more than its estimate, or less, is collected in the next pass
    monkeypatch.setattr(objectives, "_COLLECT_CAP", cap)
    monkeypatch.setattr(objectives, "_sample_bracket", bracket)
    g = np.random.default_rng(n)
    rows = g.standard_normal((n, 3)) if kind == "continuous" else _tied_rows(kind, n, g)
    assert median_heuristic_bandwidth(rows) == _dense_median_heuristic(rows)


@pytest.mark.parametrize("n", [300, 3000])
def test_median_heuristic_far_from_the_origin_equals_dense_reference(n):
    # squared norms near 1e8 d against distances near 1: the cancellation in
    # sq_i + sq_j - 2 x_i . x_j is worst here, and so is the rounding bound the
    # tree's pruning widens its box bounds by
    for d in (1, 2, 3):
        rows = 1e4 + rng.stream(49, "median-far", n, d).standard_normal((n, d))
        assert median_heuristic_bandwidth(rows) == _dense_median_heuristic(rows), d


def _demand_features(n):
    from dagformer.data import simulate_demand
    sample = simulate_demand(n, seed=11)
    rows = np.stack([sample.z, sample.a], axis=1)
    return (rows - rows.mean(axis=0)) / rows.std(axis=0)


@pytest.mark.parametrize("n, want", [(10_000, "0x1.735542c465b2fp+0"),
                                     (20_000, "0x1.72c3aba547778p+0")])
def test_median_heuristic_keeps_its_float_on_the_demand_features(n, want):
    # measured before the k-d tree pruned the distance passes, with one BLAS thread
    assert median_heuristic_bandwidth(_demand_features(n)).hex() == want


def test_median_heuristic_computes_a_quarter_of_the_pairs_at_most(monkeypatch):
    rows = _demand_features(5000)
    computed, sq_dists = [], objectives._sq_dists

    def counted(twice, sq, right, sq_right, out=None):
        # entries between two real rows: padding rows have an infinite squared norm
        computed.append(np.isfinite(sq)[..., :, None] & np.isfinite(sq_right)[..., None, :])
        return sq_dists(twice, sq, right, sq_right, out)
    monkeypatch.setattr(objectives, "_sq_dists", counted)
    median_heuristic_bandwidth(rows)
    pairs = 5000 * 4999 // 2
    assert sum(int(c.sum()) for c in computed) <= pairs / 4


def test_median_heuristic_whole_range_computes_every_pair_once(monkeypatch):
    n = 1000  # leaves of 31 and 32 rows, so some products have a padding row
    rows = _demand_features(n)
    tree = objectives._kd_tree(rows, (rows * rows).sum(axis=1))
    keys = rows.view(np.complex128).ravel()  # one key per row: the rows are distinct
    order = np.argsort(keys)
    products, sq_dists = [], objectives._sq_dists

    def recorded(twice, sq, right, sq_right, out=None):
        ids = [order[np.searchsorted(keys[order], (x / f).view(np.complex128)[..., 0])]
               for x, f in ((twice, 2.0), (right, 1.0))]
        real = [np.isfinite(sq), np.isfinite(sq_right)]
        for i, j, ri, rj in zip(*ids, *real):
            i, j = np.meshgrid(i[ri], j[rj], indexing="ij")
            pair = np.minimum(i, j) * n + np.maximum(i, j)
            products.append(np.unique(pair[i != j]))
        return sq_dists(twice, sq, right, sq_right, out)
    monkeypatch.setattr(objectives, "_sq_dists", recorded)
    below = sum(b for b, _ in objectives._upper_bits(tree, 0, objectives._ALL_BITS))
    pairs, counts = np.unique(np.concatenate(products), return_counts=True)
    assert below == 0 and pairs.size == n * (n - 1) // 2 and (counts == 1).all()


@pytest.mark.parametrize("rows", [
    _tied_rows("rounded", 700, np.random.default_rng(7)),
    1e4 + np.random.default_rng(8).standard_normal((700, 3)),
    np.random.default_rng(9).standard_normal((700, 5)) * 1e-160,
], ids=["rounded", "far", "tiny"])
def test_median_heuristic_pruned_pass_keeps_every_float_it_may_need(rows):
    # a pass over an interval gives each pair inside it the float of the pass
    # over every bit pattern, and counts the pairs under it exactly
    tree = objectives._kd_tree(rows, (rows * rows).sum(axis=1))
    every = np.concatenate([bits.copy() for _, bits in
                            objectives._upper_bits(tree, 0, objectives._ALL_BITS)])
    every = np.sort(every[every < np.float64(np.inf).view(np.int64)])
    for lo, hi in [(0.2, 0.21), (0.5, 0.5), (0.49, 0.53), (0.0, 0.01), (0.97, 1.0)]:
        base = int(every[int(lo * (every.size - 1))])
        top = int(every[int(hi * (every.size - 1))]) + 1
        under, inside = 0, []
        for below, bits in objectives._upper_bits(tree, base, top - base):
            under += below + np.count_nonzero(bits < base)
            inside.append(bits[(bits >= base) & (bits < top)])
        assert under == np.count_nonzero(every < base), (lo, hi)
        assert np.array_equal(np.sort(np.concatenate(inside)),
                              every[(every >= base) & (every < top)]), (lo, hi)


@pytest.mark.parametrize("d", [1, 2])
def test_median_heuristic_one_float_intervals_far_from_the_origin(d):
    # one interval per float: a pair of leaf corners has box bounds as tight as
    # its distance, and its float is off that distance by the rounding of
    # sq_i + sq_j - 2 x_i . x_j, which the bounds must be widened by
    rows = 1e4 + rng.stream(50, "median-far-corners", d).standard_normal((64, d))
    tree = objectives._kd_tree(rows, (rows * rows).sum(axis=1))
    every = np.concatenate([bits.copy() for _, bits in
                            objectives._upper_bits(tree, 0, objectives._ALL_BITS)])
    every = np.sort(every[every < np.float64(np.inf).view(np.int64)])
    for value in np.unique(every):
        under = inside = 0
        for below, bits in objectives._upper_bits(tree, int(value), 1):
            under += below + np.count_nonzero(bits < value)
            inside += np.count_nonzero(bits == value)
        assert (under, inside) == (np.searchsorted(every, value),
                                   np.count_nonzero(every == value)), value


def test_nmmr_zero_residuals_zero_loss():
    y = np.array([1.0, 2.0, 3.0])
    k = rbf_kernel_matrix(y[:, None], 1.0)
    for variant in ("U", "V"):
        assert float(loss_nmmr(y, y, k, variant, 0.0).data) == 0.0


def test_nmmr_two_point_hand_expansion():
    r1, r2, k12 = 0.7, -1.3, 0.4
    k = np.array([[1.0, k12], [k12, 1.0]])
    y = np.array([r1, r2])
    h = np.zeros(2)
    u = float(loss_nmmr(y, h, k, "U", 0.0).data)
    v = float(loss_nmmr(y, h, k, "V", 0.0).data)
    assert abs(u - r1 * r2 * k12) < 1e-12
    assert abs(v - (r1 * r1 + 2 * r1 * r2 * k12 + r2 * r2) / 4) < 1e-12


def _double_sum(r, k, variant):
    n = r.size
    total = 0.0
    for i in range(n):
        for j in range(n):
            if variant == "U" and i == j:
                continue
            total += r[i] * r[j] * k[i, j]
    return total / (n * (n - 1) if variant == "U" else n * n)


def test_nmmr_matches_double_sum_oracle():
    g = rng.stream(35, "nmmr")
    for _ in range(50):
        n = int(g.integers(2, 51))
        y = g.standard_normal(n)
        h = g.standard_normal(n)
        k = rbf_kernel_matrix(g.standard_normal((n, 3)), 1.1)
        for variant in ("U", "V"):
            got = float(loss_nmmr(y, h, k, variant, 0.0).data)
            assert abs(got - _double_sum(y - h, k, variant)) < 1e-10


def test_nmmr_u_v_diagonal_identity():
    g = rng.stream(36, "uv")
    for _ in range(20):
        n = int(g.integers(2, 40))
        y = g.standard_normal(n)
        h = g.standard_normal(n)
        k = rbf_kernel_matrix(g.standard_normal((n, 2)), 0.9)
        r = y - h
        u = float(loss_nmmr(y, h, k, "U", 0.0).data)
        v = float(loss_nmmr(y, h, k, "V", 0.0).data)
        diag = float((r * r * np.diag(k)).sum())
        assert abs(n * n * v - n * (n - 1) * u - diag) < 1e-10


def test_nmmr_penalty_isolation():
    g = rng.stream(37, "pen")
    y, h = g.standard_normal(6), g.standard_normal(6)
    k = rbf_kernel_matrix(g.standard_normal((6, 2)), 1.0)
    params = [T.parameter(g.standard_normal((3, 2))), T.parameter(g.standard_normal(4))]
    lam = 0.01
    with_pen = float(loss_nmmr(y, h, k, "V", lam, params).data)
    without = float(loss_nmmr(y, h, k, "V", 0.0).data)
    sq = sum(float((p.data ** 2).sum()) for p in params)
    assert abs(with_pen - without - lam * sq) < 1e-12


def test_nmmr_u_needs_two_rows():
    with pytest.raises(ContractError):
        loss_nmmr(np.array([1.0]), np.array([0.5]), np.array([[1.0]]), "U", 0.0)


def test_nmmr_gradient_flows_to_h():
    g = rng.stream(38, "nmmrgrad")
    n = 12
    y = g.standard_normal(n)
    h = T.parameter(g.standard_normal(n))
    k = rbf_kernel_matrix(g.standard_normal((n, 2)), 1.0)
    loss = loss_nmmr(y, h, k, "V", 0.0)
    T.backward(loss)
    # analytic: d/dh of r^T K r / n^2 with r = y - h is -2 K r / n^2
    r = y - h.data
    want = -2.0 * (k @ r) / (n * n)
    assert np.max(np.abs(h.grad - want)) < 1e-12


def test_objective_config_validation():
    with pytest.raises(ContractError):
        Nmmr(variant="W")
    with pytest.raises(ContractError):
        Nmmr(lam=-0.1)
    with pytest.raises(ContractError):
        Nmmr(kernel_bandwidth=0.0)
    assert isinstance(GFormula(), GFormula)
    assert isinstance(Iptw(), Iptw)
    assert isinstance(AipwJoint(), AipwJoint)


@pytest.mark.parametrize("field, value", [
    ("kernel_bandwidth", math.nan), ("kernel_bandwidth", math.inf), ("kernel_bandwidth", True),
    ("kernel_bandwidth", -1.0), ("lam", math.nan), ("lam", math.inf), ("lam", -1e-9)])
def test_nmmr_rejects_non_finite_or_out_of_range_settings(field, value):
    name = "lambda" if field == "lam" else field
    with pytest.raises(ContractError, match=f"^{name} must be a finite number"):
        Nmmr(**{field: value})


@pytest.mark.parametrize("variant", ["U", "V"])
def test_nmmr_risk_is_the_unpenalized_loss(variant):
    g = rng.stream(46, "nmmr-risk", variant)
    for n in (2, 3, 40, 362, 363, 1500):
        raw = g.standard_normal((n, 4))
        features, y, h = raw[:, [0, 2]], raw[:, 1], g.standard_normal(n)
        bandwidth = median_heuristic_bandwidth(features)
        dense = float(loss_nmmr(y, h, rbf_kernel_matrix(features, bandwidth), variant, 0.0).data)
        risk = nmmr_risk(y, h, features, bandwidth, variant)
        if n * n <= objectives._BAND_ENTRIES:  # one band: the same products
            assert risk == dense, n
        else:  # BLAS may round a K·r row differently in a band of its own
            assert abs(risk - dense) <= 1e-12 * abs(dense), n


def test_nmmr_losses_reject_a_kernel_or_features_of_the_wrong_size():
    y, h = np.zeros(3), np.ones(3)
    with pytest.raises(ContractError, match=r"kernel must be 3x3, got \(3, 2\)"):
        loss_nmmr(y, h, np.zeros((3, 2)), "U", 0.0)
    with pytest.raises(ContractError, match="need 3 feature rows, got 2"):
        nmmr_risk(y, h, np.zeros((2, 2)), 1.0, "U")


def test_nmmr_risk_memory_grows_with_n_not_n_squared():
    n = 6000  # the dense kernel and its U-statistic copy would take 576 MB
    g = rng.stream(47, "nmmr-risk-mem")
    features, y, h = g.standard_normal((n, 2)), g.standard_normal(n), g.standard_normal(n)
    peak = _peak_bytes(nmmr_risk, y, h, features, 1.0, "U")
    assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


def test_penalty_sum_squares_value():
    params = [T.parameter([1.0, 2.0]), T.parameter([[2.0]])]
    assert float(T.sum_squares(params).data) == 9.0
