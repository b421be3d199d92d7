"""Bit-level helpers. Bitstreams are 1-D numpy uint8 arrays of 0/1 values,
most significant bit first. ``ids_to_bits`` writes W-bit words; their one
reader is ``frame.parse_streams``."""

import numpy as np

Bits = np.ndarray


def as_bits(values) -> Bits:
    """values as a uint8 bitstream. Values are checked before the cast, so an
    out-of-range or fractional value raises instead of wrapping into a bit."""
    arr = np.asarray(values)
    if arr.ndim != 1 or not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bitstream must be a flat array of 0/1 values")
    return arr.astype(np.uint8, copy=False)


def check_width(width: int) -> None:
    """Words are 1 to 64 bits wide; any other width raises ValueError."""
    if not 1 <= width <= 64:
        raise ValueError(f"word width must be 1..64 bits, got {width}")


def ids_to_bits(ids, width: int) -> Bits:
    """Concatenated ``width``-bit big-endian words (1 <= width <= 64)."""
    check_width(width)
    ids = np.asarray(ids, dtype=np.uint64)
    if len(ids) and int(ids.max()) >> width:
        raise ValueError(f"ids must fit in {width} bits")
    return np.unpackbits(ids.astype(">u8").view(np.uint8)).reshape(-1, 64)[:, 64 - width:].ravel()

