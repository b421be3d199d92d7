"""Bit-level helpers. Bitstreams are 1-D numpy uint8 arrays of 0/1 values,
most significant bit first."""

import numpy as np

Bits = np.ndarray


def as_bits(values) -> Bits:
    arr = np.asarray(values, dtype=np.uint8)
    if arr.ndim != 1 or not np.all(arr <= 1):
        raise ValueError("bitstream must be a flat array of 0/1 values")
    return arr


def ids_to_bits(ids) -> Bits:
    """Concatenated 32-bit big-endian words."""
    ids = np.asarray(ids, dtype=np.uint64)
    if np.any(ids > 0xFFFFFFFF):
        raise ValueError("node ids must fit in 32 bits")
    return np.unpackbits(ids.astype(">u4").view(np.uint8))


def bits_to_ids(bits: Bits) -> list[int]:
    """Parse as many whole 32-bit big-endian words as available."""
    return np.packbits(bits[:len(bits) - len(bits) % 32]).view(">u4").tolist()
