"""Synthetic datasets: the blob values and the memory that makes them."""

import math
import tracemalloc

import numpy as np
import pytest

from acsp import data
from acsp.errors import BadParams


@pytest.mark.parametrize("n, classes, dims", [(2000, 4, (3, 16, 16)), (601, 5, (2,)),
                                              (30, 3, (1,)), (130, 4, (7, 3))])
def test_blobs_are_centers_plus_noise(n, classes, dims):
    # the broadcast sum of one center row per sample and the noise, to the bit
    ds = data.make_blobs(n, classes, dims, seed=7)
    flat = math.prod(dims)
    centers = np.zeros((classes, flat))
    if flat == 1:
        centers[:, 0] = data.BLOB_RADIUS * (np.arange(classes) - (classes - 1) / 2)
    else:
        angles = 2 * math.pi * np.arange(classes) / classes
        centers[:, 0] = data.BLOB_RADIUS * np.cos(angles)
        centers[:, 1] = data.BLOB_RADIUS * np.sin(angles)
    noise = np.random.default_rng(7).normal(0.0, data.BLOB_STD, size=(n, flat))
    expected = (centers[ds.labels] + noise).astype(np.float32).reshape((n, *dims))
    assert ds.samples.tobytes() == expected.tobytes()
    assert np.bincount(ds.labels).tolist() == [n // classes + (c < n % classes)
                                               for c in range(classes)]


def test_blobs_peak_under_14_bytes_per_value():
    # the float64 noise with the centers added in place (8 bytes), its
    # float32 cast (4) and the cast's finiteness check (1) read 13.5; the
    # centers gathered per sample as a second float64 array read 16.5
    tracemalloc.start()
    try:
        ds = data.make_blobs(2000, 4, (3, 16, 16), seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / ds.samples.size < 14.0, f"{peak / ds.samples.size:.1f} bytes per value"


@pytest.mark.parametrize("make, args, message", [
    (data.make_blobs, (40, 2, (2.5,), 0), "feature dimensions"),  # once made 2-D data
    (data.make_blobs, (40, 2, (True,), 0), "feature dimensions"),
    (data.make_blobs, (40, 2, (-1, -2), 0), "feature dimensions"),  # product 2 >= 1
    (data.make_blobs, (40, 2, (0,), 0), "feature dimensions"),
    (data.make_blobs, (40, 2, 2, 0), "feature dimensions"),  # once a bare TypeError
    (data.make_blobs, (40, 2, None, 0), "feature dimensions"),
    (data.make_blobs, (40.5, 2, (2,), 0), "n and num_classes"),
    (data.make_blobs, (40, 2.5, (2,), 0), "n and num_classes"),
    (data.make_rings, (40, 2.5, 0), "n and num_classes"),
], ids=["dim 2.5", "dim True", "dims -1x-2", "dim 0", "dims int 2", "dims None", "n 40.5",
        "blob classes 2.5", "ring classes 2.5"])
def test_generators_refuse_non_integer_counts_and_dims(make, args, message):
    # each was coerced or ended in a numpy ValueError or TypeError
    with pytest.raises(BadParams, match=f"^{message} must be integers"):
        make(*args)
