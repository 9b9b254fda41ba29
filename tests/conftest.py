import math
import struct

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=50, deadline=None)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def balanced_labels(n: int, num_classes: int) -> np.ndarray:
    return (np.arange(n) % num_classes).astype(np.int64)


def two_class_activation(mean_a, var_a, mean_b, var_b):
    """One linear component whose class 0 holds mean_a -+ sqrt(var_a) and class
    1 holds mean_b -+ sqrt(var_b): population means and variances as given, up
    to the float32 rounding of the stored samples."""
    from acsp.tensio import ActivationTensor

    sa, sb = math.sqrt(var_a), math.sqrt(var_b)
    values = np.array([mean_a - sa, mean_a + sa, mean_b - sb, mean_b + sb])
    return ActivationTensor(values.reshape(4, 1, 1), np.array([0, 0, 1, 1]))


def jm_cell(mean_a, var_a, mean_b, var_b) -> float:
    """build_space's one JM value for the two-class activation above."""
    from acsp.sepspace import build_space

    return float(build_space(two_class_activation(mean_a, var_a, mean_b, var_b)).values[0, 0])


def tiny_dataset(n=24, num_classes=3, dims=(4,), seed=0):
    """Random but valid dataset; labels balanced so every class has >= 2."""
    from acsp.tensio import LabeledDataset

    gen = np.random.default_rng(seed)
    samples = gen.normal(size=(n, *dims)).astype(np.float32)
    return LabeledDataset(samples, balanced_labels(n, num_classes))


def overflowing_dataset_bytes() -> bytes:
    """Dataset file whose dims (2, 2**62, 4) multiply past 2**64; two labels
    and four values follow, so a wrapped product of 0 would not stand out."""
    from acsp import tensio

    dims = (2, 2**62, 4)
    return (tensio.MAGIC + struct.pack("<II", tensio.VERSION, tensio.KIND_DATASET)
            + struct.pack("<I", len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
            + struct.pack("<Q", 2) + struct.pack("<2I", 0, 0) + struct.pack("<4f", 0, 0, 0, 0))
