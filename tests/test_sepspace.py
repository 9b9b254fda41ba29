"""Separability statistics against hand values and a brute-force oracle."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from acsp import sepspace
from acsp.errors import InvalidDataset
from acsp.sepspace import build_space, class_pairs
from acsp.tensio import ActivationTensor

from conftest import balanced_labels, jm_cell


# ------------------------------------------------------------ hand values
#
# Each class holds the two samples mu -+ sigma, so its population mean and
# variance are mu and sigma^2 (see conftest.two_class_activation).

def test_bhattacharyya_mean_gap_only():
    # means 0 and 2, unit variances: B = 0.125 * 4 / 2 = 0.25, log term zero
    assert jm_cell(0.0, 1.0, 2.0, 1.0) == pytest.approx(0.44239843385719024, abs=1e-12)


def test_bhattacharyya_variance_gap_only():
    # equal means, variances 1 and 4: B = 0.5 * ln(5 / 4) = 0.11157177565710488
    want = 2.0 * (1.0 - math.exp(-0.11157177565710488))
    assert jm_cell(3.0, 1.0, 3.0, 4.0) == pytest.approx(want, abs=1e-15)


def test_jm_saturates_toward_two():
    assert jm_cell(0.0, 1.0, 10.0, 1.0) == pytest.approx(1.9961390917275446, abs=1e-12)


def test_identical_distributions_are_zero():
    assert jm_cell(1.5, 0.5, 1.5, 0.5) == 0.0


def test_symmetry():
    assert jm_cell(0.3, 2.0, -1.0, 0.7) == jm_cell(-1.0, 0.7, 0.3, 2.0)


def test_variance_floor_keeps_constants_finite():
    # B = 0.125 / (2 VAR_FLOOR) underflows exp(-B): the cap keeps JM below 2
    val = jm_cell(0.0, 0.0, 1.0, 0.0)
    assert np.isfinite(val) and 0.0 <= val < 2.0


@given(
    mu_a=st.floats(-50, 50),
    mu_b=st.floats(-50, 50),
    va=st.floats(1e-6, 100),
    vb=st.floats(1e-6, 100),
)
def test_jm_range_property(mu_a, mu_b, va, vb):
    assert 0.0 <= jm_cell(mu_a, va, mu_b, vb) < 2.0


@given(
    mu_a=st.floats(-10, 10),
    mu_b=st.floats(-10, 10),
    va=st.floats(1e-4, 10),
    vb=st.floats(1e-4, 10),
    extra=st.floats(0.1, 5),
)
def test_jm_monotone_in_mean_gap(mu_a, mu_b, va, vb, extra):
    lo, hi = sorted((mu_a, mu_b))
    near = jm_cell(lo, va, hi, vb)
    far = jm_cell(lo, va, hi + extra, vb)
    assert far >= near - 1e-12


# ------------------------------------------------------------ pair order

def test_class_pairs_canonical_order():
    assert class_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_class_pairs_matches_combinations():
    for c in range(2, 7):
        assert class_pairs(c) == list(combinations(range(c), 2))


# ------------------------------------------------------ the matrix itself

def _tensor(n, components, p, num_classes, seed):
    gen = np.random.default_rng(seed)
    values = gen.normal(size=(n, components, p, p)).astype(np.float32)
    return ActivationTensor(values, balanced_labels(n, num_classes))


def _oracle_space(act):
    """Group-by-label per-pixel JM, written with scalar math only."""
    n, comps, p, _ = act.values.shape
    pairs = list(combinations(range(int(act.labels.max()) + 1), 2))
    out = np.zeros((comps, p * p * len(pairs)))
    labels = act.labels
    for j in range(comps):
        col = 0
        for (ca, cb) in pairs:
            for r in range(p):
                for c in range(p):
                    xa = [float(v) for v, l in zip(act.values[:, j, r, c], labels) if l == ca]
                    xb = [float(v) for v, l in zip(act.values[:, j, r, c], labels) if l == cb]
                    mu_a, mu_b = sum(xa) / len(xa), sum(xb) / len(xb)
                    va = max(sum((v - mu_a) ** 2 for v in xa) / len(xa), 1e-12)
                    vb = max(sum((v - mu_b) ** 2 for v in xb) / len(xb), 1e-12)
                    bdist = 0.125 * (mu_a - mu_b) ** 2 / (va + vb)
                    bdist += 0.5 * math.log((va + vb) / (2.0 * math.sqrt(va * vb)))
                    out[j, col] = 2.0 * (1.0 - math.exp(-bdist))
                    col += 1
    return out


def test_matches_brute_force_oracle():
    for seed in range(6):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(8, 16))
        comps = int(gen.integers(2, 7))
        p = int(gen.integers(1, 4))
        classes = int(gen.integers(2, 5))
        n = max(n, 2 * classes)
        act = _tensor(n, comps, p, classes, seed)
        space = build_space(act)
        assert space.values.shape == (comps, p * p * classes * (classes - 1) // 2)
        np.testing.assert_allclose(space.values, _oracle_space(act), atol=1e-9, rtol=0)


def test_linear_patch_is_single_column_per_pair():
    act = _tensor(12, 4, 1, 3, 0)
    space = build_space(act)
    assert space.values.shape == (4, 3)
    assert class_pairs(3) == [(0, 1), (0, 2), (1, 2)]


def test_sample_permutation_invariance_is_exact():
    act = _tensor(20, 5, 2, 4, 1)
    space = build_space(act)
    perm = np.random.default_rng(9).permutation(20)
    shuffled = ActivationTensor(act.values[perm], act.labels[perm])
    np.testing.assert_array_equal(build_space(shuffled).values, space.values)


def test_class_swap_permutes_pair_blocks_exactly():
    act = _tensor(18, 4, 1, 3, 2)
    space = build_space(act)
    swapped_labels = act.labels.copy()
    swapped_labels[act.labels == 0] = 1
    swapped_labels[act.labels == 1] = 0
    swapped = ActivationTensor(act.values, swapped_labels)
    space2 = build_space(swapped)
    # pairs (0,1),(0,2),(1,2) under swap 0<->1 become (0,1),(1,2),(0,2)
    np.testing.assert_array_equal(space2.values[:, 0], space.values[:, 0])
    np.testing.assert_array_equal(space2.values[:, 1], space.values[:, 2])
    np.testing.assert_array_equal(space2.values[:, 2], space.values[:, 1])


def test_common_affine_shift_and_scale_invariance():
    # activations are f32, so the transform costs a few f32 ulps
    act = _tensor(16, 3, 1, 2, 3)
    base = build_space(act).values
    moved = ActivationTensor(act.values * 3.0 + 7.0, act.labels)
    np.testing.assert_allclose(build_space(moved).values, base, atol=2e-5)


def test_dead_component_row_is_zero():
    gen = np.random.default_rng(4)
    values = gen.normal(size=(10, 3, 1, 1)).astype(np.float32)
    values[:, 1] = 0.0  # component 1 never fires
    act = ActivationTensor(values, balanced_labels(10, 2))
    space = build_space(act)
    np.testing.assert_array_equal(space.values[1], 0.0)


def test_strong_separator_dominates_noise_row():
    gen = np.random.default_rng(5)
    labels = balanced_labels(40, 2)
    values = gen.normal(size=(40, 2, 1, 1)).astype(np.float32)
    values[:, 0, 0, 0] = labels * 10.0 + gen.normal(scale=0.1, size=40)
    act = ActivationTensor(values, labels)
    space = build_space(act)
    assert space.values[0, 0] > 1.9
    assert space.values[0, 0] > space.values[1, 0]


def test_class_too_small_raises():
    values = np.random.default_rng(6).normal(size=(5, 3, 1, 1)).astype(np.float32)
    # class 2 has a single sample; the activation container refuses it as
    # the dataset does, so build_space never sees a class without variance
    with pytest.raises(InvalidDataset):
        ActivationTensor(values, np.array([0, 0, 1, 1, 2]))


def test_rows_are_finite_and_in_jm_range():
    act = _tensor(30, 6, 2, 3, 7)
    space = build_space(act)
    assert np.isfinite(space.values).all()
    assert (space.values >= 0.0).all() and (space.values < 2.0).all()
