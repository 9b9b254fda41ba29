"""PAM partitioning and MSS scoring against hand values and exhaustive search."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acsp import cluster
from acsp.cluster import ClusterResult, kmedoids, mss, pairwise_distances, sweep_detailed
from acsp.errors import BadK, BadRange


def _cols(values):
    return np.asarray(values, dtype=np.float64).reshape(len(values), 1)


# ------------------------------------------------------------- k-medoids

def test_one_dimensional_hand_example():
    rows = _cols([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
    res = kmedoids(rows, 2)
    assert list(res.medoid_indices) == [1, 4]  # values 1 and 11
    assert res.total_cost == pytest.approx(4.0, abs=0)
    assert res.cost_history == [5.0, 4.0]


def test_assignment_points_to_medoid_rows():
    rows = _cols([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
    res = kmedoids(rows, 2)
    assert set(res.assignment) == {1, 4}
    np.testing.assert_array_equal(res.assignment[:3], 1)
    np.testing.assert_array_equal(res.assignment[3:], 4)


def test_k_equals_n_costs_zero():
    rows = np.random.default_rng(0).normal(size=(7, 3))
    res = kmedoids(rows, 7)
    assert res.total_cost == 0.0
    np.testing.assert_array_equal(res.medoid_indices, np.arange(7))
    np.testing.assert_array_equal(res.assignment, np.arange(7))


def test_duplicate_rows_tie_break_to_lowest_index():
    rows = _cols([0.0, 0.0, 0.0, 5.0, 5.0])
    res = kmedoids(rows, 2)
    assert list(res.medoid_indices) == [0, 3]
    assert res.total_cost == 0.0


def test_bad_k():
    rows = np.zeros((5, 2))
    rows[:, 0] = np.arange(5)
    with pytest.raises(BadK):
        kmedoids(rows, 1)
    with pytest.raises(BadK):
        kmedoids(rows, 6)


def test_accepts_separability_matrix_objects():
    from acsp.sepspace import SeparabilityMatrix

    values = np.random.default_rng(1).uniform(size=(6, 4))
    mat = SeparabilityMatrix(3, 3, 1, values)
    res = kmedoids(mat, 2)
    assert res.k == 2 and len(res.medoid_indices) == 2


def _exhaustive_cost(dist, k):
    best = np.inf
    for meds in combinations(range(dist.shape[0]), k):
        cost = dist[:, meds].min(axis=1).sum()
        if cost < best:
            best = cost
    return best


def test_matches_exhaustive_minimum_on_small_instances():
    # BUILD+SWAP is a local search; it may stall within 5% of the optimum
    # on rare instances (seed 7 trial 17 is one), never below it
    gen = np.random.default_rng(7)
    misses = []
    for trial in range(40):
        n = int(gen.integers(4, 10))
        d = int(gen.integers(1, 4))
        k = int(gen.integers(2, 4))
        k = min(k, n)
        rows = gen.normal(size=(n, d))
        res = kmedoids(rows, k)
        target = _exhaustive_cost(pairwise_distances(rows, rows), k)
        assert res.total_cost >= target - 1e-12
        if res.total_cost > target + 1e-12:
            assert res.total_cost <= 1.05 * target, f"trial {trial}: {res.total_cost} vs {target}"
            misses.append((trial, res.total_cost, target))
    assert len(misses) <= 2, misses


def test_cost_history_strictly_decreasing():
    gen = np.random.default_rng(3)
    for _ in range(20):
        rows = gen.normal(size=(12, 2))
        res = kmedoids(rows, 3)
        hist = res.cost_history
        assert all(b < a for a, b in zip(hist, hist[1:]))
        assert res.total_cost == pytest.approx(hist[-1], abs=1e-12)


def test_row_permutation_preserves_cost():
    gen = np.random.default_rng(5)
    rows = gen.normal(size=(10, 3))
    base = kmedoids(rows, 3)
    perm = gen.permutation(10)
    permuted = kmedoids(rows[perm], 3)
    assert permuted.total_cost == pytest.approx(base.total_cost, rel=1e-12)


def test_deterministic_across_calls():
    rows = np.random.default_rng(11).normal(size=(15, 4))
    a = kmedoids(rows, 4)
    b = kmedoids(rows, 4)
    np.testing.assert_array_equal(a.medoid_indices, b.medoid_indices)
    assert a.cost_history == b.cost_history


# ------------------------------------------------------------------- MSS

def test_mss_is_one_at_k_equals_n():
    rows = np.random.default_rng(2).normal(size=(9, 3))
    res = kmedoids(rows, 9)
    assert mss(rows, res) == 1.0


def test_mss_four_point_hand_example():
    # medoids at values 0 and 11, nearest-medoid assignment:
    # a = (0, 1, 1, 0); b = (11, 10, 10, 11)
    # MSS = mean(1, 1 - 1/10, 1, 1 - 1/10) = 0.95
    rows = _cols([0.0, 1.0, 10.0, 11.0])
    res = ClusterResult(2, np.array([0, 3]), np.array([0, 0, 3, 3]), 2.0)
    assert mss(rows, res) == pytest.approx(0.95, abs=1e-12)


def test_mss_never_exceeds_one():
    gen = np.random.default_rng(4)
    for _ in range(30):
        n = int(gen.integers(4, 12))
        rows = gen.normal(size=(n, 2))
        k = int(gen.integers(2, n + 1))
        assert mss(rows, kmedoids(rows, k)) <= 1.0 + 1e-15


def test_mss_equals_one_iff_every_point_on_a_medoid():
    rows = _cols([0.0, 0.0, 5.0, 5.0, 5.0])
    res = kmedoids(rows, 2)
    assert mss(rows, res) == 1.0
    spread = _cols([0.0, 0.4, 5.0, 5.0, 5.0])
    res2 = kmedoids(spread, 2)
    assert mss(spread, res2) < 1.0


def test_duplicating_a_medoid_row_never_decreases_mss():
    gen = np.random.default_rng(8)
    for _ in range(100):
        n = int(gen.integers(4, 10))
        rows = gen.normal(size=(n, 2))
        k = int(gen.integers(2, min(n, 5) + 1))
        res = kmedoids(rows, k)
        before = mss(rows, res)
        dup = int(res.medoid_indices[gen.integers(len(res.medoid_indices))])
        rows2 = np.vstack([rows, rows[dup]])
        res2 = ClusterResult(
            res.k,
            res.medoid_indices,
            np.append(res.assignment, dup),
            res.total_cost,
            res.cost_history,
        )
        assert mss(rows2, res2) >= before - 1e-12


def test_mss_ignores_medoid_listing_order():
    rows = _cols([0.0, 1.0, 10.0, 11.0])
    fwd = ClusterResult(2, np.array([0, 3]), np.array([0, 0, 3, 3]), 2.0)
    rev = ClusterResult(2, np.array([3, 0]), np.array([0, 0, 3, 3]), 2.0)
    assert mss(rows, fwd) == mss(rows, rev)


def test_mss_rejects_k_below_two():
    rows = _cols([0.0, 1.0, 2.0])
    bad = ClusterResult(1, np.array([0]), np.zeros(3, dtype=np.int64), 3.0)
    with pytest.raises(BadK):
        mss(rows, bad)


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_mss_at_full_k_property(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3, 10))
    rows = gen.normal(size=(n, int(gen.integers(1, 4))))
    assert mss(rows, kmedoids(rows, n)) == 1.0


# ----------------------------------------------------------------- sweep

def test_sweep_full_range_keys():
    rows = np.random.default_rng(6).normal(size=(5, 2))
    curve, _ = sweep_detailed(rows)
    assert list(curve.ks()) == [2, 3, 4, 5]
    assert curve.entries[5] == 1.0


def test_sweep_stride():
    rows = np.random.default_rng(6).normal(size=(10, 2))
    curve, _ = sweep_detailed(rows, k_min=2, k_max=10, stride=2)
    assert list(curve.ks()) == [2, 4, 6, 8, 10]


def test_sweep_bad_range():
    rows = np.random.default_rng(6).normal(size=(5, 2))
    with pytest.raises(BadRange):
        sweep_detailed(rows, k_min=1)
    with pytest.raises(BadRange):
        sweep_detailed(rows, k_min=3, k_max=2)
    with pytest.raises(BadRange):
        sweep_detailed(rows, k_max=6)
    with pytest.raises(BadRange):
        sweep_detailed(rows, stride=0)


def test_sweep_detailed_results_match_direct_calls():
    rows = np.random.default_rng(9).normal(size=(8, 3))
    curve, results = sweep_detailed(rows)
    for k in curve.ks():
        direct = kmedoids(rows, int(k))
        np.testing.assert_array_equal(results[int(k)].medoid_indices, direct.medoid_indices)
        assert curve.entries[int(k)] == pytest.approx(mss(rows, direct), abs=0)


def test_sweep_is_deterministic():
    rows = np.random.default_rng(10).normal(size=(9, 2))
    a, _ = sweep_detailed(rows)
    b, _ = sweep_detailed(rows)
    assert a.entries == b.entries


def test_curve_csv_round_trip(tmp_path):
    rows = np.random.default_rng(13).normal(size=(6, 2))
    curve, _ = sweep_detailed(rows)
    path = str(tmp_path / "curve.csv")
    curve.to_csv(path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "k,mss"
    parsed = {int(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert parsed == curve.entries
