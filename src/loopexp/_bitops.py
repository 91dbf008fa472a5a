"""Bit-level helpers for vectorized subset scans.

Subsets are encoded as integers: bit i set means element i is in the subset.
The exhaustive node-set scan of ``check_edge_expansion`` walks uint64 ranges
in chunks.
"""

from __future__ import annotations

import numpy as np


def iter_chunks(num_bits: int):
    """Yield uint64 arrays covering range(2**num_bits) in deterministic order,
    2^18 values (2 MiB) at a time."""
    total = 1 << num_bits
    step = 1 << min(18, num_bits)
    for start in range(0, total, step):
        stop = min(start + step, total)
        yield np.arange(start, stop, dtype=np.uint64)


def popcount(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr)


def bits_of(mask: int):
    """Indices of set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out
