"""Synthetic datasets: the blob values and the memory that makes them."""

import math
import tracemalloc

import numpy as np
import pytest

from acsp import data


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
