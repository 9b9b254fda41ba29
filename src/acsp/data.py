"""Synthetic labeled datasets: Gaussian blobs and concentric rings.

Class counts are balanced to within one sample. Geometry is fixed so that
separability never depends on the seed; the seed only drives the noise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParams
from .rng import check_seed
from .tensio import LabeledDataset, is_int

BLOB_RADIUS = 3.0
BLOB_STD = 0.6
RING_WIDTH = 0.5  # annulus [c + 0.25, c + 0.75], so rings never touch
# n x prod(dims) ceiling, for datasets and for one layer's captured maps. A
# layer's analysis holds its maps once in float32 and one class at a time in
# float64: 9 bytes per value at its peak on 4 classes, 0.6 GB at the ceiling.
# It also caps the layer's separability space, prod(output shape) x C(C-1)/2
# float64 cells for C classes: 0.5 GiB at the ceiling
MAX_VALUES = 2**26


def _balanced_labels(n: int, num_classes: int) -> np.ndarray:
    counts = np.full(num_classes, n // num_classes)
    counts[: n % num_classes] += 1
    return np.repeat(np.arange(num_classes), counts)


def _check(n: int, num_classes: int, flat: int, seed: int) -> None:
    if not (is_int(n) and is_int(num_classes)):
        raise BadParams(f"n and num_classes must be integers, got {n!r} and {num_classes!r}")
    check_seed(seed)
    if num_classes < 2:
        raise BadParams("need at least 2 classes")
    if n < 2 * num_classes:
        raise BadParams(f"need n >= {2 * num_classes} so every class occurs twice")
    if n * flat > MAX_VALUES:
        raise BadParams(f"n x prod(dims) = {n * flat} values; the limit is {MAX_VALUES}")


def make_blobs(n: int, num_classes: int, dims: tuple[int, ...], seed: int) -> LabeledDataset:
    """Isotropic Gaussian clusters, centers spread on a fixed circle.

    `dims` is the per-sample feature shape, a tuple or list of integers
    >= 1; multi-axis shapes are generated in the flattened space and
    reshaped, which gives image-shaped inputs for the conv stack.
    """
    if not (isinstance(dims, (tuple, list)) and all(is_int(d) and d >= 1 for d in dims)):
        raise BadParams(f"feature dimensions must be integers >= 1 in a tuple or list, "
                        f"got {dims!r}")
    dims = tuple(int(d) for d in dims)
    flat = math.prod(dims)
    _check(n, num_classes, flat, seed)
    labels = _balanced_labels(n, num_classes)
    centers = np.zeros((num_classes, flat))
    if flat == 1:
        centers[:, 0] = BLOB_RADIUS * (np.arange(num_classes) - (num_classes - 1) / 2)
    else:
        angles = 2 * math.pi * np.arange(num_classes) / num_classes
        centers[:, 0] = BLOB_RADIUS * np.cos(angles)
        centers[:, 1] = BLOB_RADIUS * np.sin(angles)
    rng = np.random.default_rng(seed)
    samples = rng.normal(0.0, BLOB_STD, size=(n, flat))
    # the labels run in class order, so each class is one block of rows and
    # its center is added into the noise in place, without an (n, flat) copy
    starts = np.searchsorted(labels, np.arange(num_classes + 1))
    for c in range(num_classes):
        samples[starts[c] : starts[c + 1]] += centers[c]
    return LabeledDataset(samples.reshape((n, *dims)), labels)


def make_rings(n: int, num_classes: int, seed: int) -> LabeledDataset:
    """Concentric annuli in the plane; class c lives at radius about c + 0.5."""
    _check(n, num_classes, 2, seed)
    labels = _balanced_labels(n, num_classes)
    rng = np.random.default_rng(seed)
    inner = labels + (1.0 - RING_WIDTH) / 2
    radius = inner + RING_WIDTH * rng.random(n)
    theta = 2 * math.pi * rng.random(n)
    samples = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    return LabeledDataset(samples, labels)
