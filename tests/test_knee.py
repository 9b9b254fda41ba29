"""Knee detection on polynomial-smoothed curves."""

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
from hypothesis import given, settings, strategies as st

from acsp.cluster import MssCurve
from acsp.errors import TooFewPoints, Underdetermined
from acsp.knee import SENSITIVITY, find_knee, select_k


def _curve(ks, ys):
    return MssCurve({int(k): float(y) for k, y in zip(ks, ys)})


def _saturating(ks, rate=0.8, lo=0.3):
    ks = np.asarray(ks, dtype=np.float64)
    return lo + (1.0 - lo) * (1.0 - np.exp(-rate * (ks - ks[0])))


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
    with pytest.raises(TooFewPoints):
        find_knee(_curve([2, 3], [1.0, 2.0]), degree=1)  # degree + 2 points needed
    with pytest.raises(Underdetermined):
        find_knee(_curve([2, 3, 4], [1.0, 2.0, 3.0]), degree=0)  # constant fit


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
    with pytest.raises(TooFewPoints):
        find_knee(_curve([2, 3, 4], [0.1, 0.5, 0.7]), degree=2)


def test_knee_on_sharp_elbow_lands_early():
    ks = np.arange(2, 22)
    ys = _saturating(ks, rate=1.2, lo=0.2)
    res = find_knee(_curve(ks, ys), degree=2)
    assert res.k_prime is not None
    assert res.k_prime <= ks[len(ks) // 2]
    assert res.curvature_at_knee is not None and res.curvature_at_knee < 0.0


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
    assert select_k(_curve([2, 3, 4], [0.2, 0.5, 0.6]), 4, degree=2) == (4, None)


def test_select_k_keeps_every_component_past_a_strided_sweep():
    # a strided sweep can stop short of n: stride 5 over 8 components sweeps
    # k = 2, 7 (too short to fit), stride 3 over 16 stops at 14 (flat, no
    # knee); both keep every component, not the last swept k
    assert select_k(_curve([2, 7], [0.2, 0.6]), 8, degree=2) == (8, None)
    k, result = select_k(_curve([2, 5, 8, 11, 14], [0.5] * 5), 16, degree=2)
    assert k == 16 and result.k_prime is None
