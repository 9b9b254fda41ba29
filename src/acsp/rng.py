"""Deterministic fan-out of one user seed into named sub-streams.

Data generation, weight init, training and fine-tuning must not share
generator state, otherwise changing one stage silently reseeds the rest.
"""

from __future__ import annotations

import zlib

import numpy as np


def derive_seed(seed: int, name: str) -> int:
    """Child seed for the named sub-stream of `seed`, a Python or numpy integer."""
    entropy = [int(seed) % (1 << 63), zlib.crc32(name.encode("utf-8"))]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])

