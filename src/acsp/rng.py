"""Deterministic fan-out of one user seed into named sub-streams.

Data generation, weight init, training and fine-tuning must not share
generator state, otherwise changing one stage silently reseeds the rest.
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import BadParams
from .tensio import is_int


def check_seed(seed) -> None:
    """Raise BadParams unless `seed` is an integer (Python or numpy, not a
    bool) in [0, 2**64), the range the model header's u64 holds."""
    if not (is_int(seed) and 0 <= int(seed) < 2**64):
        raise BadParams(f"seed must be an integer in [0, 2**64), got {seed!r}")


def derive_seed(seed: int, name: str) -> int:
    """Child seed for the named sub-stream of `seed`, a Python or numpy
    integer in [0, 2**64); the whole seed is the entropy, with no fold."""
    check_seed(seed)
    entropy = [int(seed), zlib.crc32(name.encode("utf-8"))]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])

