"""Deterministic random streams.

Every stochastic operation in the package draws from a stream obtained here,
keyed by an integer user seed plus string/int labels. Streams are backed by the
counter-based Philox generator, so independently derived streams never
overlap and resampling is bit-stable across runs and platforms.
"""

import hashlib

import numpy as np


def derive_key(seed: int, *labels) -> int:
    """Derive a 128-bit Philox key from a seed and a label path. A seed is
    hashed as 16 signed bytes, or in as many as it needs beyond [-2**127, 2**127)."""
    seed = int(seed)
    size = max(16, (seed if seed >= 0 else ~seed).bit_length() // 8 + 1)
    h = hashlib.blake2b(digest_size=16)
    h.update(seed.to_bytes(size, "little", signed=True))
    for label in labels:
        h.update(str(label).encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


def stream(seed: int, *labels) -> np.random.Generator:
    """Return an independent generator for (seed, *labels)."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *labels)))

