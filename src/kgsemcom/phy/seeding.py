"""Seed derivation for many rows at once.

``seed_state`` returns, row by row, what NumPy's
``SeedSequence(row).generate_state(n_words, np.uint64)`` returns. It repeats
``SeedSequence``'s entropy mixing and state generation on uint32 arrays, one
array operation per step for all rows. NumPy's stream-compatibility policy
keeps that algorithm fixed. Every channel seed, substream seed and Philox key
in the program comes from here.

An int of entropy enters as its little-endian 32-bit words, as few as hold it
(0 is one word), and a row is the concatenation of its entries' words. The
sequence of hash constants depends only on the row's word count, so rows are
grouped by their word layout and each group is mixed in one pass.
"""

import numpy as np

_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def seed_state(entropy, n_words: int) -> np.ndarray:
    """(rows, n_words) uint64: ``SeedSequence(row).generate_state(n_words,
    np.uint64)`` for each row. ``entropy[j]`` is entry j of every row: a
    non-negative int, or a 1-D array or sequence of them, one per row; they
    broadcast together. Ints may be of any size. A negative entry raises
    ValueError and a non-integer one TypeError, as ``SeedSequence`` does."""
    columns = [_words(e) for e in entropy]
    n_rows = np.broadcast_shapes(*(counts.shape for _, counts in columns))[0]
    out = np.empty((n_rows, n_words), dtype=np.uint64)
    if n_rows == 0:
        return out
    for rows, layout in _layouts([counts for _, counts in columns], n_rows):
        entropy_words = np.empty((n_rows if isinstance(rows, slice) else len(rows),
                                  sum(layout)), dtype=np.uint32)
        at = 0
        for (words, _), k in zip(columns, layout):
            # a scalar entry's one row broadcasts over the group
            entropy_words[:, at:at + k] = words[:, :k] if len(words) == 1 else words[rows, :k]
            at += k
        out[rows] = _generate(_mix_entropy(entropy_words), n_words)
    return out


def _words(entry) -> tuple[np.ndarray, np.ndarray]:
    """One entropy entry (an int or a 1-D array of them) -> ((m, k) uint32
    words, least significant first, zero-padded; (m,) word counts), with
    m = 1 for a scalar. Values that fit in 64 bits take a uint64 path; the
    rest go through Python ints, which have no size limit."""
    if isinstance(entry, np.ndarray) and entry.dtype.kind in "iu":
        column = entry.ravel()
        if (column < 0).any():
            raise ValueError("expected non-negative integer")
    else:
        column = np.asarray(entry, dtype=object).ravel()
        if all(type(v) is int and 0 <= v <= 0xFFFFFFFFFFFFFFFF for v in column.tolist()):
            column = column.astype(np.uint64)
    if column.dtype != object:
        words = np.ascontiguousarray(column, dtype="<u8").view("<u4").reshape(-1, 2)
        return words, 1 + (words[:, 1] != 0)
    if (column < 0).any():
        raise ValueError("expected non-negative integer")
    words = [column & _MASK32]
    counts = np.ones(len(column), dtype=np.int64)
    rest = column >> 32
    while (more := (rest != 0)).any():
        words.append(rest & _MASK32)
        counts += more
        rest = rest >> 32
    return np.stack(words, axis=1).astype(np.uint32), counts


def _layouts(counts: list[np.ndarray], n_rows: int):
    """-> (rows, words per entry) for each word layout among the rows; the
    rows of one layout share every hash constant."""
    if all(c.min() == c.max() for c in counts):
        return [(slice(None), [int(c[0]) for c in counts])]
    table = np.stack([np.broadcast_to(c, n_rows) for c in counts], axis=1)
    layouts, group = np.unique(table, axis=0, return_inverse=True)
    return [(np.flatnonzero(group.ravel() == g), layout.tolist())
            for g, layout in enumerate(layouts)]


def _constants(init: int, mult: int, n: int) -> np.ndarray:
    """The hash constant before each of n steps and after the last."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _steps(consts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hash steps from their constants: xor with one, multiply by the next
    (the constant advances before the multiply)."""
    return consts[:-1], consts[1:]


# The first 16 mixing steps do not depend on the entropy's length: 4 fill the
# pool, then each pool word is hashed into the 3 others in turn. A source
# word's own slot gets a dummy step whose result is thrown away.
_FILL_STEPS = _POOL + _POOL * (_POOL - 1)
_A = _constants(_INIT_A, _MULT_A, _FILL_STEPS + _POOL * 64)
_FILL = _steps(_A[:_POOL + 1])
_B = _constants(_INIT_B, _MULT_B, 64)


def _cross_steps(src: int) -> tuple[np.ndarray, np.ndarray]:
    first = _POOL + (_POOL - 1) * src
    xor, mul = _steps(_A[first:first + _POOL])
    return np.insert(xor, src, 0), np.insert(mul, src, 1)


_CROSS = [_cross_steps(src) for src in range(_POOL)]


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    v = (values ^ xor) * mul
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fold hashed word y into pool word x."""
    r = x * _MIX_MULT_L - y * _MIX_MULT_R
    return r ^ (r >> 16)


def _mix_entropy(entropy: np.ndarray) -> np.ndarray:
    """(rows, L) uint32 entropy words -> (rows, 4) uint32 pools."""
    n_rows, length = entropy.shape
    head = np.zeros((n_rows, _POOL), dtype=np.uint32)
    head[:, :min(length, _POOL)] = entropy[:, :_POOL]
    pool = _hashmix(head, *_FILL)
    # a source word never changes during its own pass, so its three hashes
    # are taken at once
    for src, (xor, mul) in enumerate(_CROSS):
        mixed = _mix(pool, _hashmix(pool[:, src:src + 1], xor, mul))
        mixed[:, src] = pool[:, src]
        pool = mixed
    steps = _FILL_STEPS + _POOL * max(0, length - _POOL)
    consts = _A if steps < len(_A) else _constants(_INIT_A, _MULT_A, steps)
    for t, src in zip(range(_FILL_STEPS, steps, _POOL), range(_POOL, length)):
        pool = _mix(pool, _hashmix(entropy[:, src:src + 1], *_steps(consts[t:t + _POOL + 1])))
    return pool


def _generate(pool: np.ndarray, n_words: int) -> np.ndarray:
    """(rows, 4) pools -> (rows, n_words) uint64 state words."""
    n32 = 2 * n_words
    consts = _B if n32 < len(_B) else _constants(_INIT_B, _MULT_B, n32)
    state = _hashmix(pool[:, np.arange(n32) % _POOL], *_steps(consts[:n32 + 1]))
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)
