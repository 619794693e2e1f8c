"""Deterministic substream derivation.

Every seeded stage (chain c, per-observation refit i, pipeline step s)
derives its own 64-bit state as splitmix64(seed + (index + 1) * GOLDEN),
so streams never depend on how many siblings run or in what order.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state):
    """One splitmix64 output step for a 64-bit state."""
    z = state & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def substream_seed(seed, index):
    """64-bit state for substream `index` of master `seed`."""
    if index < 0:
        raise ValueError("substream index must be non-negative")
    return splitmix64((int(seed) + (int(index) + 1) * _GOLDEN) & _MASK64)


def seeded_rng(seed):
    """PCG64 Generator on the low 64 bits of `seed`."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


def substream_rng(seed, index):
    """numpy Generator seeded on substream `index` of `seed`."""
    return seeded_rng(substream_seed(seed, index))
