"""Bit-level helpers. Bitstreams are 1-D numpy uint8 arrays of 0/1 values,
most significant bit first."""

import numpy as np

Bits = np.ndarray


def as_bits(values) -> Bits:
    """values as a uint8 bitstream. Values are checked before the cast, so an
    out-of-range or fractional value raises instead of wrapping into a bit."""
    arr = np.asarray(values)
    if arr.ndim != 1 or not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bitstream must be a flat array of 0/1 values")
    return arr.astype(np.uint8, copy=False)


def ids_to_bits(ids, width: int) -> Bits:
    """Concatenated ``width``-bit big-endian words (1 <= width <= 64)."""
    ids = np.asarray(ids, dtype=np.uint64)
    if len(ids) and int(ids.max()) >> width:
        raise ValueError(f"ids must fit in {width} bits")
    return np.unpackbits(ids.astype(">u8").view(np.uint8)).reshape(-1, 64)[:, 64 - width:].ravel()


def bits_to_ids(bits: Bits, width: int) -> list[int]:
    """Parse as many whole ``width``-bit big-endian words as available."""
    n = len(bits) // width
    words = np.zeros((n, 64), dtype=np.uint8)
    words[:, 64 - width:] = bits[:n * width].reshape(n, width)
    return np.packbits(words, axis=1).view(">u8").ravel().tolist()
