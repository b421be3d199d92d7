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
    return bits_to_id_rows(np.reshape(bits, (1, -1)), width)[0].tolist()


def bits_to_id_rows(rows: np.ndarray, width: int) -> np.ndarray:
    """``bits_to_ids`` of each row of a (R, n) bit array, as one (R, n // width)
    big-endian uint64 array."""
    n_rows, n = rows.shape
    k = n // width
    words = np.zeros((n_rows, k, 64), dtype=np.uint8)
    words[:, :, 64 - width:] = rows[:, :k * width].reshape(n_rows, k, width)
    return np.packbits(words, axis=2).view(">u8").reshape(n_rows, k)
