"""Knee detection on polynomial-smoothed curves."""

import dataclasses
import json
import warnings

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings, strategies as st

from acsp.cluster import MssCurve
from acsp.errors import BadParams
from acsp.knee import SENSITIVITY, KneeResult, find_knee, select_k
from acsp.planner import PruneConfig


def _curve(ks, ys):
    return MssCurve({int(k): float(y) for k, y in zip(ks, ys)})


def _saturating(ks, rate=0.8, lo=0.3):
    ks = np.asarray(ks, dtype=np.float64)
    return lo + (1.0 - lo) * (1.0 - np.exp(-rate * (ks - ks[0])))


def _unfitted(degree, n):
    """The dict of the no-knee result of a curve of n < degree + 2 points."""
    return {"k_prime": None, "degree": degree, "fitted_coeffs": [],
            "difference_curve": [0.0] * n}


def _oracle_knee(ks, ys, degree):
    """Dense re-derivation: fit, normalize, thresholded argmax."""
    ks = np.asarray(ks, dtype=np.float64)
    coeffs = npoly.polyfit(ks, np.asarray(ys, dtype=np.float64), degree)
    fit = npoly.polyval(ks, coeffs)
    if fit[-1] < fit[0]:
        fit = -fit
    if fit.max() - fit.min() <= 0:
        return None
    xn = (ks - ks[0]) / (ks[-1] - ks[0])
    yn = (fit - fit.min()) / (fit.max() - fit.min())
    diff = yn - xn
    best = int(np.argmax(diff))
    if diff[best] <= SENSITIVITY / (len(ks) - 1):
        return None
    return int(round(ks[best]))


# ------------------------------------------------------------ the fit

def test_polyfit_recovers_exact_quadratic():
    ks = np.arange(2, 9)
    ys = 1.0 - 3.0 * ks + 2.0 * ks * ks
    res = find_knee(_curve(ks, ys), degree=2)
    np.testing.assert_allclose(res.fitted_coeffs, [1.0, -3.0, 2.0], atol=1e-9)


def test_polyfit_underdetermined_cases():
    # degree + 2 points are needed for a fit; four points at degree 3 are not
    # fitted and have no knee
    res = find_knee(_curve([2, 3, 4, 5], [1.0, 2.0, 2.5, 2.7]), degree=3)
    assert res.to_dict() == _unfitted(3, 4)
    with pytest.raises(BadParams):
        find_knee(_curve([2, 3, 4], [1.0, 2.0, 3.0]), degree=0)  # constant fit


# the curve on which a fitted line finds no knee where a parabola finds k = 18
_GENTLE_KS = np.arange(2, 40)
_GENTLE = 1.0 - np.exp(-(_GENTLE_KS - 2) / 3.0)


def test_degree_below_the_floor_is_refused_not_ignored():
    curve = _curve(_GENTLE_KS, _GENTLE)
    assert find_knee(curve, 2).k_prime == 18
    assert select_k(curve, 40, 2)[0] == 18
    with pytest.raises(BadParams):
        find_knee(curve, 1)
    with pytest.raises(BadParams):
        select_k(curve, 40, 1)
    with pytest.raises(BadParams):  # the degree is checked before the length
        find_knee(_curve([2, 3], [1.0, 2.0]), 1)


@pytest.mark.parametrize("degree", [2.5, 2.0, True, np.bool_(True), "2", None])
def test_non_integer_degree_is_refused(degree):
    # polyfit would raise its own TypeError, and a config would carry the
    # degree into a prune that fails only after sweeping its first layer
    with pytest.raises(BadParams, match="knee degree"):
        find_knee(_curve(_GENTLE_KS, _GENTLE), degree)
    with pytest.raises(BadParams, match="knee degree"):
        PruneConfig(knee_degree=degree)



# ------------------------------------------------------------- find_knee

def test_knee_matches_dense_oracle_on_saturating_curves():
    gen = np.random.default_rng(0)
    for trial in range(20):
        n = int(gen.integers(6, 40))
        ks = np.arange(2, 2 + n)
        rate = float(gen.uniform(0.1, 1.5))
        lo = float(gen.uniform(0.0, 0.8))
        ys = _saturating(ks, rate, lo) + gen.normal(scale=1e-3, size=n)
        res = find_knee(_curve(ks, ys), degree=2)
        assert res.k_prime == _oracle_knee(ks, ys, 2), f"trial {trial}"


def test_linear_curve_has_no_knee():
    ks = np.arange(2, 12)
    res = find_knee(_curve(ks, 0.1 + 0.05 * ks), degree=2)
    assert res.k_prime is None
    assert np.all(np.abs(res.difference_curve) < SENSITIVITY / (len(ks) - 1))


def test_constant_curve_has_no_knee():
    ks = np.arange(2, 10)
    res = find_knee(_curve(ks, np.full(len(ks), 0.9)), degree=2)
    assert res.k_prime is None


def test_nearly_constant_curve_is_treated_as_flat():
    ks = np.arange(2, 10)
    ys = 0.9 + 1e-12 * np.sin(ks.astype(float))
    assert find_knee(_curve(ks, ys), degree=2).k_prime is None


def test_decreasing_curve_is_flipped_not_crashed():
    ks = np.arange(2, 12)
    ys = 1.0 - _saturating(ks, rate=0.8, lo=0.0) + 0.2
    res = find_knee(_curve(ks, ys), degree=2)
    assert res.k_prime is None or 2 <= res.k_prime <= 11


def test_too_few_points():
    res = find_knee(_curve([2, 3, 4], [0.1, 0.5, 0.7]), degree=2)
    assert res.to_dict() == _unfitted(2, 3)


def _knee_and_warnings(ks, ys, degree):
    # numpy installs its own "always" filter for RankWarning, so
    # PYTHONWARNINGS=error does not make it an error: record every warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = find_knee(_curve(ks, ys), degree)
    return res, [str(w.message) for w in caught]


@pytest.mark.parametrize("degree", [64, 128, 200])
def test_a_fit_whose_column_norms_overflow_float64_has_no_knee(degree):
    # the fit scales each Vandermonde column by its norm, which overflows
    # on ks = 2..256 from degree 64 on: that once warned, printed LAPACK
    # errors and from degree 128 raised LinAlgError
    ks = np.arange(2, 257)
    res, caught = _knee_and_warnings(ks, _saturating(ks, rate=0.05), degree)
    assert res.to_dict() == _unfitted(degree, len(ks))
    assert caught == []


def test_a_high_degree_fit_keeps_its_coefficients_without_a_rank_warning():
    # degree 30 on 63 points once warned RankWarning; the fit is unchanged
    ks = np.arange(2, 65)
    ys = _saturating(ks, rate=0.05)
    res, caught = _knee_and_warnings(ks, ys, 30)
    assert caught == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        coeffs = npoly.polyfit(ks.astype(np.float64), ys, 30)
        assert res.k_prime == _oracle_knee(ks, ys, 30) is not None
    assert res.fitted_coeffs.tobytes() == coeffs.tobytes()


def test_knee_on_sharp_elbow_lands_early():
    ks = np.arange(2, 22)
    ys = _saturating(ks, rate=1.2, lo=0.2)
    res = find_knee(_curve(ks, ys), degree=2)
    assert res.k_prime is not None
    assert res.k_prime <= ks[len(ks) // 2]


def test_higher_degree_tracks_sharp_jump_tighter():
    # three tight row-families: MSS jumps at k=3 and plateaus; the loose
    # degree-2 fit overshoots and higher degrees pull the knee back
    from acsp import cluster

    gen = np.random.default_rng(3)
    centers = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    rows = np.vstack([centers[i % 3] + 1e-3 * gen.normal(size=3) for i in range(12)])
    curve, _ = cluster.sweep_detailed(rows)
    found = {d: find_knee(curve, degree=d).k_prime for d in (2, 3, 4, 5)}
    assert found == {2: 6, 3: 5, 4: 4, 5: 4}


def test_affine_rescale_of_scores_keeps_the_knee():
    ks = np.arange(2, 20)
    ys = _saturating(ks, rate=0.6, lo=0.1)
    base = find_knee(_curve(ks, ys), degree=2).k_prime
    scaled = find_knee(_curve(ks, 5.0 * ys + 3.0), degree=2).k_prime
    assert scaled == base


def test_small_noise_does_not_move_a_strong_knee():
    ks = np.arange(2, 30)
    ys = _saturating(ks, rate=1.0, lo=0.2)
    base = find_knee(_curve(ks, ys), degree=2).k_prime
    gen = np.random.default_rng(5)
    for _ in range(10):
        noisy = find_knee(_curve(ks, ys + gen.normal(scale=1e-4, size=len(ks))), degree=2)
        assert noisy.k_prime == base


def test_difference_curve_and_coeffs_are_recorded():
    ks = np.arange(2, 15)
    ys = _saturating(ks)
    res = find_knee(_curve(ks, ys), degree=3)
    assert res.degree == 3
    assert len(res.fitted_coeffs) == 4
    assert len(res.difference_curve) == len(ks)
    d = res.to_dict()
    assert d["k_prime"] == res.k_prime and d["degree"] == 3


@pytest.mark.parametrize("k_prime", [None, np.int64(7), 7])
def test_knee_dict_keys_are_its_fields_and_write_as_json(k_prime):
    res = KneeResult(k_prime, np.int64(3), np.array([0.5, 1.0, -0.25, 0.0]),
                     np.array([0.0, 0.25, 0.5]))
    d = res.to_dict()
    assert list(d) == [f.name for f in dataclasses.fields(KneeResult)]
    assert json.loads(json.dumps(d)) == {
        "k_prime": None if k_prime is None else 7, "degree": 3,
        "fitted_coeffs": [0.5, 1.0, -0.25, 0.0],
        "difference_curve": [0.0, 0.25, 0.5]}
    assert type(d["degree"]) is int


@given(st.integers(0, 500))
@settings(max_examples=30)
def test_knee_always_inside_swept_range(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(5, 25))
    ks = np.arange(2, 2 + n)
    ys = np.clip(gen.normal(0.5, 0.3, size=n).cumsum() / 10.0, 0.0, 1.0)
    res = find_knee(_curve(ks, ys), degree=2)
    if res.k_prime is not None:
        assert 2 <= res.k_prime <= int(ks[-1])


# -------------------------------------------------------------- select_k

def test_select_k_picks_knee_when_present():
    ks = np.arange(2, 20)
    ys = _saturating(ks, rate=1.0, lo=0.2)
    k, result = select_k(_curve(ks, ys), 19, degree=2)
    assert result.k_prime is not None
    assert k == result.k_prime == find_knee(_curve(ks, ys), degree=2).k_prime


def test_select_k_falls_back_to_k_max():
    ks = np.arange(2, 12)
    k, result = select_k(_curve(ks, np.full(len(ks), 0.5)), 11, degree=2)  # flat
    assert k == 11
    assert result is not None and result.k_prime is None


def test_select_k_short_curve_has_no_knee_result():
    k, result = select_k(_curve([2, 3, 4], [0.2, 0.5, 0.6]), 4, degree=2)
    assert k == 4 and result.to_dict() == _unfitted(2, 3)


def test_select_k_keeps_every_component_past_a_strided_sweep():
    # a strided sweep can stop short of n: stride 5 over 8 components sweeps
    # k = 2, 7 (too short to fit), stride 3 over 16 stops at 14 (flat, no
    # knee); both keep every component, not the last swept k
    k, result = select_k(_curve([2, 7], [0.2, 0.6]), 8, degree=2)
    assert k == 8 and result.to_dict() == _unfitted(2, 2)
    k, result = select_k(_curve([2, 5, 8, 11, 14], [0.5] * 5), 16, degree=2)
    assert k == 16 and result.k_prime is None
