"""Per-layer separability spaces.

Each component of a layer becomes one row. The row concatenates, for every
unordered class pair in canonical order, the Jeffries-Matusita distance
between the two classes' activation distributions at that component, per
cell, row-major (a linear component has one cell, a conv component one per
position of its map). Components with similar rows respond to the class
structure in the same way, which is what the clustering stage exploits.

Distributions are summarized per class by mean and population variance;
variances are floored at VAR_FLOOR so coincident or constant activations
stay finite. For two 1-D Gaussians,

    B  = (1/8) (mu_a - mu_b)^2 / (var_a + var_b)
         + (1/2) ln((var_a + var_b) / (2 sigma_a sigma_b))
    JM = 2 (1 - exp(-B))

JM is bounded in [0, 2), symmetric, and grows monotonically with B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensio import ActivationTensor

VAR_FLOOR = 1e-12


# exp(-B) underflows to 0 past B ~ 745, which would put JM exactly on 2.0;
# the range is half open, so JM is capped one ulp below
_JM_SUP = math.nextafter(2.0, 0.0)


def class_pairs(num_classes: int) -> list[tuple[int, int]]:
    """Canonical unordered pair order: (0,1), (0,2), ..., (1,2), ..."""
    return [(a, b) for a in range(num_classes) for b in range(a + 1, num_classes)]


@dataclass(eq=False)
class SeparabilityMatrix:
    """Rows are components; columns are the cells per canonical class pair."""

    values: np.ndarray  # float64, [n_components, cells * n_pairs]


def build_space(act: ActivationTensor) -> SeparabilityMatrix:
    """Separability matrix of one layer's activations.

    Per class, per component, per cell the mean and population variance are
    computed in float64; every unordered class pair contributes one JM
    distance per cell, row-major. Class slices are sorted along the sample
    axis first, so any permutation of the samples yields a bit-identical
    matrix.
    """
    labels = act.labels
    num_classes = int(labels.max()) + 1
    _, n_comp, cells = act.values.shape
    means = np.empty((num_classes, n_comp, cells))
    variances = np.empty_like(means)
    for c in range(num_classes):
        # one class at a time in float64, so no float64 copy of the layer exists
        vc = act.values[labels == c].astype(np.float64)
        vc.sort(axis=0)  # sample-order independence
        means[c] = vc.mean(axis=0)
        variances[c] = np.maximum(vc.var(axis=0), VAR_FLOOR)
    pairs = class_pairs(num_classes)
    out = np.empty((n_comp, cells * len(pairs)))
    for i, (a, b) in enumerate(pairs):
        va, vb = variances[a], variances[b]
        gap = means[a] - means[b]
        bh = 0.125 * gap * gap / (va + vb) + 0.5 * np.log(
            (va + vb) / (2.0 * np.sqrt(va) * np.sqrt(vb)))
        # va + vb >= 2 sqrt(va vb), so B >= 0, but the log can round a hair
        # below zero when va == vb
        jm = np.minimum(2.0 * (1.0 - np.exp(-np.maximum(bh, 0.0))), _JM_SUP)
        out[:, i * cells : (i + 1) * cells] = jm
    return SeparabilityMatrix(out)
