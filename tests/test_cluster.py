"""PAM partitioning and MSS scoring against hand values and exhaustive search."""

import errno
import os
import pickle
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from acsp import cluster, data, toynet
from acsp.cluster import mss, pairwise_distances, sweep_detailed
from acsp.errors import BadParams, NonFiniteValue, ShapeMismatch
from acsp.sepspace import _JM_SUP, build_space


def _cols(values):
    return np.asarray(values, dtype=np.float64).reshape(len(values), 1)


def _sweep_at(rows, k):
    """The clustering of a sweep over k alone."""
    return sweep_detailed(rows, k, k)[1][k]


# ------------------------------------------------------------- k-medoids

def test_one_dimensional_hand_example():
    rows = _cols([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
    res = _sweep_at(rows, 2)
    assert list(res.medoid_indices) == [1, 4]  # values 1 and 11
    assert res.cost_history[-1] == pytest.approx(4.0, abs=0)
    assert res.cost_history == [5.0, 4.0]


def test_assignment_points_to_medoid_rows():
    rows = _cols([0.0, 1.0, 2.0, 10.0, 11.0, 12.0])
    res = _sweep_at(rows, 2)
    assert set(res.assignment) == {1, 4}
    np.testing.assert_array_equal(res.assignment[:3], 1)
    np.testing.assert_array_equal(res.assignment[3:], 4)


def test_k_equals_n_costs_zero():
    rows = np.random.default_rng(0).normal(size=(7, 3))
    res = _sweep_at(rows, 7)
    assert res.cost_history[-1] == 0.0
    np.testing.assert_array_equal(res.medoid_indices, np.arange(7))
    np.testing.assert_array_equal(res.assignment, np.arange(7))


def test_duplicate_rows_tie_break_to_lowest_index():
    rows = _cols([0.0, 0.0, 0.0, 5.0, 5.0])
    res = _sweep_at(rows, 2)
    assert list(res.medoid_indices) == [0, 3]
    assert res.cost_history[-1] == 0.0


def test_bad_k():
    rows = np.zeros((5, 2))
    rows[:, 0] = np.arange(5)
    with pytest.raises(BadParams):
        _sweep_at(rows, 1)
    with pytest.raises(BadParams):
        _sweep_at(rows, 6)


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
        cost = _sweep_at(rows, k).cost_history[-1]
        target = _exhaustive_cost(pairwise_distances(rows), k)
        assert cost >= target - 1e-12
        if cost > target + 1e-12:
            assert cost <= 1.05 * target, f"trial {trial}: {cost} vs {target}"
            misses.append((trial, cost, target))
    assert len(misses) <= 2, misses


def test_cost_history_strictly_decreasing():
    gen = np.random.default_rng(3)
    for _ in range(20):
        rows = gen.normal(size=(12, 2))
        res = _sweep_at(rows, 3)
        hist = res.cost_history
        assert all(b < a for a, b in zip(hist, hist[1:]))
        nearest = _broadcast_distances(rows, rows[res.medoid_indices]).min(axis=1)
        assert hist[-1] == pytest.approx(nearest.sum(), abs=1e-12)


def test_row_permutation_preserves_cost():
    gen = np.random.default_rng(5)
    rows = gen.normal(size=(10, 3))
    base = _sweep_at(rows, 3)
    perm = gen.permutation(10)
    permuted = _sweep_at(rows[perm], 3)
    assert permuted.cost_history[-1] == pytest.approx(base.cost_history[-1], rel=1e-12)


def test_deterministic_across_calls():
    rows = np.random.default_rng(11).normal(size=(15, 4))
    a = _sweep_at(rows, 4)
    b = _sweep_at(rows, 4)
    np.testing.assert_array_equal(a.medoid_indices, b.medoid_indices)
    assert a.cost_history == b.cost_history


# ------------------------------------------------------------------- MSS

def test_mss_is_one_at_k_equals_n():
    rows = np.random.default_rng(2).normal(size=(9, 3))
    res = _sweep_at(rows, 9)
    assert mss(pairwise_distances(rows), res.medoid_indices) == 1.0


def test_mss_four_point_hand_example():
    # medoids at values 0 and 11, nearest-medoid assignment:
    # a = (0, 1, 1, 0); b = (11, 10, 10, 11)
    # MSS = mean(1, 1 - 1/10, 1, 1 - 1/10) = 0.95
    rows = _cols([0.0, 1.0, 10.0, 11.0])
    assert mss(pairwise_distances(rows), np.array([0, 3])) == pytest.approx(0.95, abs=1e-12)


def test_mss_never_exceeds_one():
    gen = np.random.default_rng(4)
    for _ in range(30):
        n = int(gen.integers(4, 12))
        rows = gen.normal(size=(n, 2))
        k = int(gen.integers(2, n + 1))
        assert mss(pairwise_distances(rows), _sweep_at(rows, k).medoid_indices) <= 1.0 + 1e-15


def test_mss_equals_one_iff_every_point_on_a_medoid():
    rows = _cols([0.0, 0.0, 5.0, 5.0, 5.0])
    res = _sweep_at(rows, 2)
    assert mss(pairwise_distances(rows), res.medoid_indices) == 1.0
    spread = _cols([0.0, 0.4, 5.0, 5.0, 5.0])
    res2 = _sweep_at(spread, 2)
    assert mss(pairwise_distances(spread), res2.medoid_indices) < 1.0


def test_duplicating_a_medoid_row_never_decreases_mss():
    gen = np.random.default_rng(8)
    for _ in range(100):
        n = int(gen.integers(4, 10))
        rows = gen.normal(size=(n, 2))
        k = int(gen.integers(2, min(n, 5) + 1))
        meds = _sweep_at(rows, k).medoid_indices
        before = mss(pairwise_distances(rows), meds)
        dup = int(meds[gen.integers(len(meds))])
        rows2 = np.vstack([rows, rows[dup]])
        assert mss(pairwise_distances(rows2), meds) >= before - 1e-12


def test_mss_ignores_medoid_listing_order():
    dist = pairwise_distances(_cols([0.0, 1.0, 10.0, 11.0]))
    assert mss(dist, np.array([0, 3])) == mss(dist, np.array([3, 0]))
    # with more than two medoids each b(i) sums k distances, which rounds
    # differently in another order unless the listing is put in index order
    rows = np.random.default_rng(5).normal(size=(40, 3))
    dist = pairwise_distances(rows)
    meds = np.random.default_rng(6).choice(40, 9, replace=False)
    scores = {mss(dist, perm) for perm in (meds, np.sort(meds), meds[::-1],
                                           np.random.default_rng(7).permutation(meds))}
    assert len(scores) == 1


@pytest.mark.parametrize("meds", [[0, 7], [0, 0], [-1, 2], np.array([0.0, 3.0]), [[0, 3]], [0]],
                         ids=["medoid beyond the rows", "repeated medoid", "negative medoid",
                              "float medoids", "2-D medoids", "one medoid"])
def test_mss_rejects_medoids_that_do_not_match_k(meds):
    # unchecked, the first raises IndexError, the second returns 0.25 and
    # the float pair ends in numpy's own TypeError
    dist = pairwise_distances(_cols([0.0, 1.0, 10.0, 11.0]))
    with pytest.raises(BadParams):
        mss(dist, np.array(meds))


def test_sweep_assigns_each_point_to_a_nearest_medoid():
    # mss scores a clustering from its medoids alone, taking a(i) as the least
    # medoid distance; that is the sweep's own a(i) only if every point is
    # assigned to a nearest medoid, ties and repeated rows included
    gen = np.random.default_rng(9)
    base = gen.uniform(0.0, 2.0, size=(20, 4))
    base[gen.uniform(size=base.shape) < 0.6] = _JM_SUP
    rows = np.repeat(base, 3, axis=0)
    dist = pairwise_distances(rows)
    for k, res in sweep_detailed(rows)[1].items():
        nearest = dist[res.medoid_indices].min(axis=0)
        assert (dist[res.assignment, np.arange(len(rows))] == nearest).all(), k


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan cell", "inf cell", "-inf cell"])
def test_mss_refuses_a_bad_medoid_block(bad):
    # a bad cell among the medoid rows of `dist`, the (k, n) block that mss
    # reads; unchecked, these scored nan, 0.975 and -2.5e11 with no error
    rows = _cols([0.0, 1.0, 10.0, 11.0])
    dist = pairwise_distances(rows)
    dist[3, 1] = bad
    with pytest.raises(NonFiniteValue):
        mss(dist, np.array([0, 3]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mss_refuses_non_finite_rows(bad):
    # their distance matrix holds NaN (inf - inf) or Inf
    rows = np.random.default_rng(6).normal(size=(5, 2))
    res = _sweep_at(rows, 2)
    rows[3, 1] = bad
    with np.errstate(invalid="ignore"):
        dist = pairwise_distances(rows)
    with pytest.raises(NonFiniteValue):
        mss(dist, res.medoid_indices)


@pytest.mark.parametrize("shape", [lambda d, m: d[:, 0], lambda d, m: d[:, :, None],
                                   lambda d, m: d[m], lambda d, m: d[:, m]],
                         ids=["1-D", "3-D", "k x n", "n x k"])
def test_mss_refuses_a_distance_matrix_that_is_not_square_2d(shape):
    rows = np.random.default_rng(6).normal(size=(5, 2))
    meds = _sweep_at(rows, 2).medoid_indices
    with pytest.raises(ShapeMismatch):
        mss(shape(pairwise_distances(rows), meds), meds)


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_mss_at_full_k_property(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3, 10))
    rows = gen.normal(size=(n, int(gen.integers(1, 4))))
    assert mss(pairwise_distances(rows), _sweep_at(rows, n).medoid_indices) == 1.0


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
    with pytest.raises(BadParams):
        sweep_detailed(rows, k_min=1)
    with pytest.raises(BadParams):
        sweep_detailed(rows, k_min=3, k_max=2)
    with pytest.raises(BadParams):
        sweep_detailed(rows, k_max=6)
    with pytest.raises(BadParams):
        sweep_detailed(rows, stride=0)


@pytest.mark.parametrize("bounds", [
    {"stride": 2.0}, {"k_min": 2.5}, {"k_max": 6.0}, {"k_max": 5.0}, {"k_min": True},
    {"stride": "1"},
])
def test_sweep_refuses_non_integer_bounds(bounds):
    # range() once raised a bare TypeError for these
    rows = np.random.default_rng(6).normal(size=(5, 2))
    with pytest.raises(BadParams, match="integers"):
        sweep_detailed(rows, **bounds)
    assert sweep_detailed(rows, np.int64(2), np.int32(4), np.int8(2))[0].ks().tolist() == [2, 4]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_sweep_refuses_non_finite_rows(bad):
    # 1e200 is finite, but its squared distances overflow: refused before BUILD
    rows = np.random.default_rng(6).normal(size=(5, 2))
    rows[3, 1] = bad
    with pytest.raises(NonFiniteValue):
        sweep_detailed(rows)


@pytest.mark.parametrize("shape", [(5,), (5, 2, 1)])
def test_sweep_refuses_rows_that_are_not_2d(shape):
    rows = np.random.default_rng(6).normal(size=shape)
    with pytest.raises(ShapeMismatch):
        sweep_detailed(rows)


def test_sweep_detailed_results_match_direct_calls():
    # one BUILD shared by every k gives what a sweep over k alone gives
    rows = np.random.default_rng(9).normal(size=(8, 3))
    curve, results = sweep_detailed(rows)
    for k in curve.ks():
        direct = _sweep_at(rows, int(k))
        np.testing.assert_array_equal(results[int(k)].medoid_indices, direct.medoid_indices)
        assert curve.entries[int(k)] == pytest.approx(
            mss(pairwise_distances(rows), direct.medoid_indices), abs=0)


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


@pytest.mark.parametrize("g, copies, columns, seed",
                         [(8, 4, 6, 0), (12, 3, 6, 1), (16, 2, 5, 2), (10, 5, 3, 3)])
def test_sweep_of_duplicated_rows_finds_the_distinct_count(g, copies, columns, seed):
    # g distinct rows, each repeated: every point sits on a medoid from k = g
    # on, and below g no two medoids are copies, since swapping a copy for
    # an unrepresented row strictly lowers the cost
    distinct = np.random.default_rng(seed).random((g, columns))
    rows = np.repeat(distinct, copies, axis=0)
    curve, results = sweep_detailed(rows)
    for k, res in results.items():
        assert res.converged, k
        if k >= g:
            assert curve.entries[k] == 1.0, k
        else:
            assert curve.entries[k] < 1.0, k
        if k <= g:
            assert len(np.unique(rows[res.medoid_indices], axis=0)) == k, k


def test_sweep_of_a_network_with_duplicated_neurons_finds_the_distinct_count():
    # each first-layer neuron of a trained mlp:2-8-8-4 repeated 4 times, the
    # next layer's columns repeated and divided by 4: the same network, whose
    # layer-0 space holds g = 8 groups of equal rows. BLAS does not promise
    # bit-equal columns, so MSS reaches 1 only to within a tolerance
    g, copies = 8, 4
    ds = data.make_blobs(2000, 4, (2,), 7)
    model = toynet.train(toynet.from_arch("mlp:2-8-8-4", seed=7), ds, 60, 0.1, 7)
    wide = model.copy()
    first, second = wide.layers[0], wide.layers[2]
    first.w, first.b = np.repeat(first.w, copies, axis=0), np.repeat(first.b, copies)
    second.w = np.repeat(second.w, copies, axis=1) / copies
    np.testing.assert_array_equal(toynet.forward(wide, ds.samples).argmax(axis=1),
                                  toynet.forward(model, ds.samples).argmax(axis=1))
    curve, results = sweep_detailed(build_space(toynet.capture_activations(wide, ds, 0)).values)
    assert sorted(results) == list(range(2, g * copies + 1))
    assert all(curve.entries[k] >= 1.0 - 1e-9 for k in range(g, g * copies + 1))
    assert curve.entries[g - 1] < 1.0 - 1e-3
    assert sorted(results[g].medoid_indices // copies) == list(range(g))


# --------------------------------------------- oracle: the plain PAM sweep
#
# The sweep shares one BUILD across k and confirms FastPAM1 swap estimates
# exactly; these tests hold it to plain PAM (BUILD from scratch per k, every
# k x n swap scored exactly) and MSS from the rows, compared with ==.

def _plain_assign(dist, meds):
    dm = dist[:, meds]
    pos = dm.argmin(axis=1)
    return pos, dm[np.arange(len(dist)), pos], dm


def _plain_swap_state(dist, meds):
    n = dist.shape[0]
    pos, d1, dm = _plain_assign(dist, meds)
    dm[np.arange(n), pos] = np.inf
    return pos, d1, dm.min(axis=1)


def _plain_swap_costs(dist, meds, pos, d1, d2):
    """PAM's exact cost of every (medoid position, candidate) swap; medoid columns inf."""
    costs = np.stack([np.minimum(np.where(pos == mi, d2, d1)[:, None], dist).sum(axis=0)
                      for mi in range(len(meds))])
    costs[:, meds] = np.inf
    return costs


def _plain_pam(dist, k):
    n = dist.shape[0]
    totals = dist.sum(axis=1)
    medoids = [int(np.argmin(totals))]
    dmin = dist[medoids[0]].copy()
    while len(medoids) < k:
        gains = np.maximum(dmin[:, None] - dist, 0.0).sum(axis=0)
        gains[medoids] = -1.0
        best = int(np.argmax(gains))
        medoids.append(best)
        dmin = np.minimum(dmin, dist[best])
    medoids = sorted(medoids)
    history = [float(dmin.sum())]
    for _ in range(cluster.MAX_SWAP_PASSES):
        if k == n:
            break
        meds = np.array(medoids)
        pos, d1, d2 = _plain_swap_state(dist, meds)
        costs = _plain_swap_costs(dist, meds, pos, d1, d2)
        cost = d1.sum()
        best_cost = cost
        best_swap = None
        for mi in range(k):
            h = int(np.argmin(costs[mi]))
            if costs[mi, h] < best_cost:
                best_cost = costs[mi, h]
                best_swap = (mi, h)
        if best_swap is None:
            break
        candidate = medoids.copy()
        candidate[best_swap[0]] = best_swap[1]
        candidate.sort()
        _, d1_new, _ = _plain_assign(dist, np.array(candidate))
        exact = float(d1_new.sum())
        if not exact < cost:
            break
        medoids = candidate
        history.append(exact)
    meds = np.array(medoids)
    pos, d1, _ = _plain_assign(dist, meds)
    return meds, meds[pos], float(d1.sum()), history


def _plain_mss(rows, meds, assignment):
    n, k = rows.shape[0], len(meds)
    dist_to_meds = _broadcast_distances(rows, rows[meds])
    med_pos = {int(m): i for i, m in enumerate(meds)}
    pos = np.array([med_pos[int(m)] for m in assignment])
    a = dist_to_meds[np.arange(n), pos]
    b = (dist_to_meds.sum(axis=1) - a) / (k - 1)
    return float(np.mean(1.0 - a / np.maximum(b, cluster.B_FLOOR)))


def _assert_sweep_matches_plain_pam(rows, k_min=2, k_max=None, stride=1):
    curve, results = sweep_detailed(rows, k_min=k_min, k_max=k_max, stride=stride)
    dist = pairwise_distances(rows)
    for k in range(k_min, (k_max or rows.shape[0]) + 1, stride):
        meds, assignment, cost, history = _plain_pam(dist, k)
        for res in (results[k], _sweep_at(rows, k)):
            assert res.medoid_indices.tolist() == meds.tolist(), k
            assert res.assignment.tolist() == assignment.tolist(), k
            assert res.cost_history[-1] == cost, k
            assert res.cost_history == history, k
        assert curve.entries[k] == _plain_mss(rows, meds, assignment), k
    assert sorted(curve.entries) == sorted(results)


@st.composite
def _spaces(draw):
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["gaussian", "grid", "blocks"]))
    n = draw(st.integers(3, 28))
    d = draw(st.integers(1, 4))
    if kind == "gaussian":
        rows = gen.normal(size=(n, d))
    elif kind == "grid":  # small integers: many exact ties between swaps
        rows = gen.integers(0, 4, size=(n, d)).astype(np.float64)
    else:  # repeated row blocks: some medoids own no point
        base = gen.normal(size=(int(gen.integers(1, 5)), d))
        rows = base[gen.integers(0, len(base), size=n)]
    k_min = draw(st.integers(2, n))
    k_max = draw(st.integers(k_min, n))
    stride = draw(st.integers(1, 4))
    return rows, k_min, k_max, stride


@given(_spaces())
@settings(max_examples=120, deadline=None)
def test_sweep_equals_plain_pam_property(case):
    rows, k_min, k_max, stride = case
    _assert_sweep_matches_plain_pam(rows, k_min, k_max, stride)


@given(_spaces(), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_swap_estimates_within_tolerance_of_plain_pam(case, seed):
    # any medoid set, so repeated row blocks often leave medoids without points
    rows, k, _, _ = case
    n = rows.shape[0]
    dist = pairwise_distances(rows)
    gen = np.random.default_rng(seed)
    meds = np.sort(gen.choice(n, min(k, n - 1), replace=False))
    pos, d1, d2 = _plain_swap_state(dist, meds)
    cand = gen.permutation(np.setdiff1d(np.arange(n), meds))  # SWAP keeps them unsorted
    member = np.zeros((len(meds), n))
    member[pos, np.arange(n)] = 1.0
    est = cluster._swap_estimates(dist[cand], member, d1, d2)
    exact = _plain_swap_costs(dist, meds, pos, d1, d2)
    gap = np.abs(est - exact[:, cand])
    assert gap.max() <= cluster._swap_tolerance(dist)


def test_sweep_equals_plain_pam_on_wide_rows():
    rows = np.random.default_rng(21).uniform(size=(64, 6))
    _assert_sweep_matches_plain_pam(rows)


def test_sweep_equals_plain_pam_on_saturated_jm_rows():
    # JM cells saturate at _JM_SUP, so swap estimates tie often
    gen = np.random.default_rng(5)
    rows = gen.uniform(0.0, 2.0, size=(96, 6))
    rows[gen.uniform(size=rows.shape) < 0.7] = _JM_SUP
    _assert_sweep_matches_plain_pam(rows)


@pytest.mark.parametrize("jitter", [0.0, 1e-13])
def test_sweep_equals_plain_pam_when_windows_exceed_n_pairs(monkeypatch, jitter):
    # four repeated row blocks: most SWAP passes hold thousands of candidate
    # pairs within the tolerance window, scored exactly in blocks of at most
    # n; a jitter far below the tolerance splits the exact ties, so that
    # accepted swaps lie beyond the first block
    gen = np.random.default_rng(1)
    rows = gen.uniform(size=(4, 6))[gen.integers(0, 4, size=128)]
    rows += jitter * gen.uniform(size=rows.shape)
    windows = []
    real_estimates = cluster._swap_estimates

    def recording_estimates(*args):
        est = real_estimates(*args)
        windows.append(est)
        return est

    monkeypatch.setattr(cluster, "_swap_estimates", recording_estimates)
    _assert_sweep_matches_plain_pam(rows, k_max=24)
    # each recorded array holds the non-medoid candidate columns only
    tol = cluster._swap_tolerance(pairwise_distances(rows))
    assert max(int((est <= est.min() + 2.0 * tol).sum()) for est in windows) > 128


def test_sweep_equals_plain_pam_on_rows_repeated_three_times():
    # each accepted swap puts the old medoid in the incoming candidate's
    # slot, so the candidates fall out of index order; with three copies of
    # each row, windows hold exact ties that PAM breaks by (position, row
    # index) order, which the window must be sorted back into (here k = 4)
    rows = np.repeat(np.random.default_rng(21).uniform(size=(20, 4)), 3, axis=0)
    _assert_sweep_matches_plain_pam(rows)


def test_sweep_equals_plain_pam_with_one_to_three_candidates(monkeypatch):
    # k from n-3 up: the estimates hold three, two and one candidate columns
    gen = np.random.default_rng(4)
    rows = gen.uniform(size=(5, 3))[gen.integers(0, 5, size=40)]
    seen = []
    real_estimates = cluster._swap_estimates

    def recording_estimates(rows, member, *args):
        est = real_estimates(rows, member, *args)
        # k medoid rows and n - k candidate rows: n in all
        assert est.shape == (len(member), len(rows))
        assert len(member) + len(rows) == rows.shape[1]
        seen.append(len(rows))
        return est

    monkeypatch.setattr(cluster, "_swap_estimates", recording_estimates)
    _assert_sweep_matches_plain_pam(rows, k_min=37)
    assert {1, 2, 3} <= set(seen)


@given(st.integers(1, 128), st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_pairwise_distances_exactly_symmetric_with_zero_diagonal(n, d, seed):
    # _swap_estimates reads the candidates' rows of dist as their columns
    gen = np.random.default_rng(seed)
    rows = gen.uniform(0.0, 2.0, size=(n, d))[gen.integers(0, n, size=n)]
    rows[gen.uniform(size=rows.shape) < 0.5] = _JM_SUP
    dist = pairwise_distances(rows)
    assert (dist == dist.T).all()
    assert (np.diag(dist) == 0.0).all()


def _broadcast_distances(rows, targets):
    """The unblocked form: one (n_rows, n_targets, d) difference array."""
    diff = rows[:, None, :] - targets[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


@pytest.mark.parametrize("n,d,cap", [(37, 7, 1000), (50, 130, 20000),
                                     (23, 1, 40), (5, 300, 10)])
def test_blocked_distances_equal_the_broadcast_form(monkeypatch, n, d, cap):
    # caps of a few rows per block, and one below a single row (10 < 5 * 300)
    monkeypatch.setattr(cluster, "BLOCK_ELEMENTS", cap)
    rows = np.random.default_rng(n * d).uniform(0.0, 2.0, size=(n, d))
    assert n > max(1, cap // (n * d))  # several blocks
    got = pairwise_distances(rows)
    assert got.shape == (n, n) and (got == _broadcast_distances(rows, rows)).all()


def test_pairwise_distances_computes_each_unordered_pair_once(monkeypatch):
    # one row per block: row i meets rows i.. on, n (n + 1) / 2 cells in all
    # where the full matrix would take n^2
    n = 30
    cells = []

    class RecordingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def sqrt(self, x, *args, **kwargs):
            cells.append(x.size)
            return np.sqrt(x, *args, **kwargs)

    monkeypatch.setattr(cluster, "BLOCK_ELEMENTS", 1)
    monkeypatch.setattr(cluster, "np", RecordingNumpy())
    rows = np.random.default_rng(4).uniform(size=(n, 3))
    dist = pairwise_distances(rows)
    assert len(cells) == n and sum(cells) == n * (n + 1) // 2
    assert (dist == _broadcast_distances(rows, rows)).all()


def test_distance_matrix_memory_is_bounded():
    # the broadcast form would hold 48 * 48 * 8192 doubles (151 MB) at once
    rows = np.random.default_rng(3).uniform(size=(48, 8192))
    tracemalloc.start()
    try:
        pairwise_distances(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cluster.BLOCK_ELEMENTS * 8 + (4 << 20)


def test_repeated_rows_leave_a_medoid_without_points():
    rows = _cols([0.0, 0.0, 0.0, 1.0, 5.0, 5.0, 9.0])
    _assert_sweep_matches_plain_pam(rows)
    res = _sweep_at(rows, 5)
    assert len(set(res.assignment.tolist())) < len(res.medoid_indices)


@given(st.integers(2, 300), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_last_prefix_sum_adds_like_a_full_column_sum(n, seed):
    # _best_swap scores a subset of columns by the last prefix sum over the
    # points; PAM's exact cost is the axis-0 sum of the full (n, n) array
    gen = np.random.default_rng(seed)
    dist = gen.uniform(0.0, 2.0, size=(n, n))[gen.integers(0, n, size=n)]
    dist[gen.uniform(size=dist.shape) < 0.7] = _JM_SUP
    base = np.minimum(dist[gen.integers(0, n)], dist[gen.integers(0, n)])
    h = np.sort(gen.choice(n, int(gen.integers(1, n + 1)), replace=False))
    full = np.minimum(base[:, None], dist).sum(axis=0)[h]
    tiled = np.broadcast_to(base, (len(h), n))
    assert np.cumsum(np.minimum(tiled, dist[:, h].T), axis=-1)[:, -1].tolist() == full.tolist()


def _record_passes(mp):
    """Patch `_best_swap` through `mp` to record each SWAP pass's arguments and pick."""
    passes = []
    real_best_swap = cluster._best_swap

    def recording_best_swap(*args):
        # copies: SWAP updates its candidate rows and membership in place
        args = tuple(a.copy() if isinstance(a, np.ndarray) else a for a in args)
        best = real_best_swap(*args)
        passes.append((args, best))
        return best

    mp.setattr(cluster, "_best_swap", recording_best_swap)
    return passes


def _check_pass_against_plain_pam(args, best):
    """Assert that one pass picked plain PAM's swap; True when the single-pair
    shortcut fired, whose pair must be the strict unique exact minimum."""
    dist, cand, rows, member, pos, d1, d2, cost, tol = args
    meds = np.setdiff1d(np.arange(len(dist)), cand)
    assert (rows == dist[cand]).all()
    assert (member == (pos == np.arange(len(meds))[:, None])).all()
    costs = _plain_swap_costs(dist, meds, pos, d1, d2)
    pick = divmod(int(np.argmin(costs)), costs.shape[1])  # first in row-major order
    picked = None if best is None else (best[0], int(cand[best[1]]))
    assert picked == (pick if costs[pick] < cost else None)
    est = cluster._swap_estimates(rows, member, d1, d2)
    low = est.min()
    if not ((est <= low + 2.0 * tol).sum() == 1 and low < cost - tol):
        return False
    others = costs.copy()
    others[pick] = np.inf
    assert costs[pick] < cost and costs[pick] < others.min()
    return True


@given(_spaces())
@settings(max_examples=120, deadline=None)
def test_single_pair_shortcut_is_plain_pams_unique_pick(case):
    # every pass, shortcut or not, must pick what plain PAM picks; a shortcut
    # taken near the cost would pick a pair plain PAM rejects
    rows, k_min, k_max, stride = case
    with pytest.MonkeyPatch.context() as mp:
        passes = _record_passes(mp)
        sweep_detailed(rows, k_min, k_max, stride)
    for args, best in passes:
        _check_pass_against_plain_pam(args, best)


def test_single_pair_shortcut_fires_on_uniform_rows(monkeypatch):
    rows = np.random.default_rng(21).uniform(size=(40, 6))
    passes = _record_passes(monkeypatch)
    sweep_detailed(rows, k_max=16)
    fired = sum(_check_pass_against_plain_pam(args, best) for args, best in passes)
    assert 0 < fired < len(passes)


def test_sweep_mss_equals_public_mss_bit_for_bit():
    # at n=64 the row sums of a strided medoid slice differ by an ulp for
    # most k; the sweep must score from a contiguous copy
    rows = np.random.default_rng(1).normal(size=(64, 6))
    curve, results = sweep_detailed(rows)
    dist = pairwise_distances(rows)
    for k, res in results.items():
        assert curve.entries[k] == mss(dist, res.medoid_indices), k


def test_sweep_scores_every_k_from_its_one_distance_matrix(monkeypatch):
    # through the module attribute, once per k, with the (n, n) matrix that
    # BUILD and SWAP use; no k recomputes distances from the rows
    rows = np.random.default_rng(11).normal(size=(12, 3))
    calls = []
    real_mss = cluster.mss

    def recording_mss(dist, medoids):
        calls.append((dist, medoids))
        return real_mss(dist, medoids)

    monkeypatch.setattr(cluster, "mss", recording_mss)
    curve, results = sweep_detailed(rows, 2, 12, 2)
    assert [len(m) for _, m in calls] == [2, 4, 6, 8, 10, 12]
    assert all(dist is calls[0][0] for dist, _ in calls)
    assert (calls[0][0] == pairwise_distances(rows)).all()
    for (_, medoids), k in zip(calls, curve.ks()):
        assert medoids is results[int(k)].medoid_indices


def _seed7_layer_spaces(tmp_path, monkeypatch, arch):
    """The separability rows that a seed-7 README prune of `arch` sweeps."""
    from acsp.cli import main

    spaces = []
    real_sweep = cluster.sweep_detailed

    def recording_sweep(rows, *args, **kwargs):
        spaces.append(rows)
        return real_sweep(rows, *args, **kwargs)

    data, model = str(tmp_path / "data.acsp"), str(tmp_path / "model.acsp")
    assert main(["gen-data", "--n", "2000", "--classes", "4", "--dims", "2",
                 "--seed", "7", "--out", data]) == 0
    assert main(["train", "--arch", arch, "--data", data,
                 "--epochs", "60", "--lr", "0.1", "--seed", "7", "--out", model]) == 0
    monkeypatch.setattr(cluster, "sweep_detailed", recording_sweep)
    assert main(["prune", "--model", model, "--data", data, "--degree", "2",
                 "--selection", "weighted", "--seed", "7",
                 "--out", str(tmp_path / "run")]) == 0
    return spaces


def test_seed7_layer_spaces_match_plain_pam(tmp_path, monkeypatch):
    spaces = _seed7_layer_spaces(tmp_path, monkeypatch, "mlp:2-64-64-32-4")
    assert [rows.shape[0] for rows in spaces] == [64, 64, 32]
    for rows in spaces:
        _assert_sweep_matches_plain_pam(rows)


def test_seed7_wide_layer_spaces_match_plain_pam(tmp_path, monkeypatch):
    # n = 96: the most SWAP passes per k, so the most in-place candidate updates
    spaces = _seed7_layer_spaces(tmp_path, monkeypatch, "mlp:2-96-96-4")
    assert [rows.shape[0] for rows in spaces] == [96, 96]
    for rows in spaces:
        _assert_sweep_matches_plain_pam(rows)


# ------------------------------------------------- sweep in two processes

def _count_forks(mp):
    """Patch os.fork through `mp` to count the forks this process makes, and
    report two usable CPUs, so that a split runs on any host."""
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    mp.setattr(os, "fork", counting_fork)
    mp.setattr(cluster, "_usable_cpus", lambda: 2)
    return forks


def _assert_same_sweep(got, want):
    (curve, results), (want_curve, want_results) = got, want
    assert list(curve.entries.items()) == list(want_curve.entries.items())
    assert list(results) == list(want_results)
    for k, res in results.items():
        ref = want_results[k]
        assert res.medoid_indices.dtype == ref.medoid_indices.dtype, k
        assert res.medoid_indices.tolist() == ref.medoid_indices.tolist(), k
        assert res.assignment.dtype == ref.assignment.dtype, k
        assert res.assignment.tolist() == ref.assignment.tolist(), k
        assert res.cost_history == ref.cost_history, k
        assert (res.swap_passes, res.converged) == (ref.swap_passes, ref.converged), k


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("k_min, k_max, stride", [(2, None, 1), (3, None, 4), (40, 47, 1),
                                                   (50, 51, 1)])
def test_split_sweep_equals_the_serial_sweep(monkeypatch, k_min, k_max, stride):
    n = cluster.SPLIT_MIN_ROWS
    rows = np.random.default_rng(17).uniform(size=(n, 6))
    forks = _count_forks(monkeypatch)
    split = sweep_detailed(rows, k_min, k_max, stride)
    assert forks == [1]
    _assert_no_child_left()
    monkeypatch.setattr(cluster, "SPLIT_MIN_ROWS", n + 1)
    _assert_same_sweep(split, sweep_detailed(rows, k_min, k_max, stride))
    assert forks == [1]


def test_sweep_splits_only_from_the_row_threshold_with_two_ks(monkeypatch):
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(cluster, "SPLIT_MIN_ROWS", 12)
    sweep_detailed(np.random.default_rng(3).normal(size=(11, 2)))
    sweep_detailed(np.random.default_rng(3).normal(size=(12, 2)), 5, 5)
    assert forks == []
    sweep_detailed(np.random.default_rng(3).normal(size=(12, 2)), 5, 6)
    assert forks == [1]
    # SPLIT_MAX_ROWS rows or more stay in one process, one row fewer splits;
    # moving the bound across either width leaves the sweep as it was
    monkeypatch.setattr(cluster, "SPLIT_MAX_ROWS", 16)
    at_bound = np.random.default_rng(4).normal(size=(16, 2))
    below = np.random.default_rng(4).normal(size=(15, 2))
    serial_at_bound = sweep_detailed(at_bound)
    assert forks == [1]
    split_below = sweep_detailed(below)
    assert forks == [1, 1]
    _assert_no_child_left()
    monkeypatch.setattr(cluster, "SPLIT_MAX_ROWS", 17)
    _assert_same_sweep(sweep_detailed(at_bound), serial_at_bound)
    assert forks == [1, 1, 1]
    monkeypatch.setattr(cluster, "SPLIT_MAX_ROWS", 15)
    _assert_same_sweep(split_below, sweep_detailed(below))
    assert forks == [1, 1, 1]
    monkeypatch.setattr(cluster, "SPLIT_MAX_ROWS", 16)
    monkeypatch.setattr(cluster, "_usable_cpus", lambda: 1)
    sweep_detailed(np.random.default_rng(3).normal(size=(12, 2)))
    assert forks == [1, 1, 1]


class _Boom(Exception):
    pass


def _os_error(code):
    def fail(*_):
        raise OSError(code, os.strerror(code))
    return fail


@pytest.mark.parametrize("fault", ["none", "pipe fails", "fork fails", "child raises",
                                   "short pickle"])
def test_split_sweep_recovers_and_leaves_no_child(monkeypatch, capfd, fault):
    # whichever way the split goes, the results are the serial sweep's, the
    # child prints nothing and is reaped before the sweep returns
    rows = np.random.default_rng(8).normal(size=(16, 3))
    want = sweep_detailed(rows)
    monkeypatch.setattr(cluster, "SPLIT_MIN_ROWS", 2)
    forks = _count_forks(monkeypatch)
    parent = os.getpid()
    real_dumps = pickle.dumps

    def child_dumps(obj, protocol=None):
        if os.getpid() == parent:
            return real_dumps(obj, protocol)
        if fault == "child raises":
            raise _Boom("in the child")
        return real_dumps(obj, protocol)[:-3]

    if fault == "pipe fails":
        monkeypatch.setattr(os, "pipe", _os_error(errno.EMFILE))
    elif fault == "fork fails":
        monkeypatch.setattr(os, "fork", _os_error(errno.EAGAIN))
    elif fault != "none":
        monkeypatch.setattr(pickle, "dumps", child_dumps)
    _assert_same_sweep(sweep_detailed(rows), want)
    assert forks == ([] if fault in ("pipe fails", "fork fails") else [1])
    _assert_no_child_left()
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("process", ["parent", "both"])
def test_split_sweep_raises_in_process_and_leaves_no_child(monkeypatch, capfd, process):
    # k = 3 is the child's: an error there in both processes re-raises from
    # the parent's own run of the child's share; an error in the parent's
    # share (k = 2) kills the child, here stuck in its first k, at once
    rows = np.random.default_rng(8).normal(size=(16, 3))
    monkeypatch.setattr(cluster, "SPLIT_MIN_ROWS", 2)
    forks = _count_forks(monkeypatch)
    parent = os.getpid()
    real_mss = cluster.mss
    bad_k = 2 if process == "parent" else 3

    def failing_mss(dist, medoids):
        if len(medoids) == bad_k and (process == "both" or os.getpid() == parent):
            raise _Boom(f"k = {bad_k}")
        if process == "parent" and len(medoids) == 3 and os.getpid() != parent:
            time.sleep(30)
        return real_mss(dist, medoids)

    monkeypatch.setattr(cluster, "mss", failing_mss)
    start = time.monotonic()
    with pytest.raises(_Boom, match=f"k = {bad_k}"):
        sweep_detailed(rows)
    assert time.monotonic() - start < 10.0
    assert forks == [1]
    _assert_no_child_left()
    assert capfd.readouterr() == ("", "")


# ------------------------------------------------------ SWAP pass budget

def _needs_a_swap():
    gen = np.random.default_rng(3)
    while True:
        rows = gen.normal(size=(12, 2))
        res = _sweep_at(rows, 3)
        if len(res.cost_history) > 1:
            return rows, res


def test_swap_reports_passes_and_convergence():
    rows, res = _needs_a_swap()
    assert res.converged is True
    # one pass per accepted swap, plus the pass that found none
    assert res.swap_passes == len(res.cost_history)
    full = _sweep_at(rows, 12)
    assert full.swap_passes == 0 and full.converged is True


def test_swap_cap_reports_not_converged(monkeypatch):
    rows, _ = _needs_a_swap()
    monkeypatch.setattr(cluster, "MAX_SWAP_PASSES", 1)
    res = _sweep_at(rows, 3)
    assert res.swap_passes == 1
    assert res.converged is False
    assert len(res.cost_history) == 2


def _farthest_from_first_medoid(dist, cand, rows, *_):
    first = np.setdiff1d(np.arange(len(dist)), cand)[0]
    return 0, int(np.argmax(rows[:, first]))


@pytest.mark.parametrize("exit", ["no estimate within tol", "exact step finds no gain",
                                  "swap not below the cost", "pass cap", "k = n"])
def test_curve_equals_plain_mss_at_each_swap_exit(monkeypatch, exit):
    # each way SWAP can end leaves the clustering that the curve scores
    rows, k = _needs_a_swap()[0], 3
    passes = _record_passes(monkeypatch)
    if exit == "exact step finds no gain":  # medoid 0 ties with its duplicate row 1
        rows = _cols([0.0, 0.0, 1.0, 5.0, 5.0, 6.0, 9.0])
    elif exit == "swap not below the cost":
        monkeypatch.setattr(cluster, "_best_swap", _farthest_from_first_medoid)
    elif exit == "pass cap":
        monkeypatch.setattr(cluster, "MAX_SWAP_PASSES", 1)
    elif exit == "k = n":
        k = len(rows)
    curve, results = sweep_detailed(rows, k, k)
    res = results[k]
    assert curve.entries[k] == _plain_mss(rows, res.medoid_indices, res.assignment)
    if exit in ("no estimate within tol", "exact step finds no gain"):
        (dist, cand, rows, member, pos, d1, d2, cost, tol), best = passes[-1]
        low = cluster._swap_estimates(rows, member, d1, d2).min()
        assert best is None and (low < cost + tol) == (exit == "exact step finds no gain")
    elif exit == "swap not below the cost":
        assert res.swap_passes == 1 and len(res.cost_history) == 1 and res.converged
    elif exit == "pass cap":
        assert res.swap_passes == 1 and not res.converged
    else:
        assert passes == [] and res.swap_passes == 0
