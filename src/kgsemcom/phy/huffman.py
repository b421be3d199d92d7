"""Canonical Huffman coding over corpus character frequencies.

The table is deterministic: tree ties break on insertion order of symbols
sorted lexicographically, and codeword assignment is canonical (sorted by
code length, then symbol). A degenerate single-symbol corpus still gets a
1-bit code. Characters outside the corpus cannot be encoded.
"""

import heapq
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bits import Bits

# the decode table has 2**min(longest code, _LOOKUP_BITS) entries; a longer
# codeword is read bit by bit
_LOOKUP_BITS = 16


@dataclass(frozen=True)
class HuffmanTable:
    codes: dict  # symbol (str of length 1) -> (length, value)

    def lengths(self) -> dict:
        return {sym: lv[0] for sym, lv in self.codes.items()}

    @cached_property
    def _codewords(self) -> dict:
        """symbol -> its codeword as a '0'/'1' string, MSB first."""
        return {sym: f"{value:0{length}b}" for sym, (length, value) in self.codes.items()}

    @cached_property
    def _lookup(self) -> tuple[int, list]:
        """(width, lut): width = min(longest code, _LOOKUP_BITS), and lut[w] is
        the (symbol, length) of the codeword that prefixes the width-bit window
        w, or None where no codeword of at most width bits does."""
        width = min(max(length for length, _ in self.codes.values()), _LOOKUP_BITS)
        lut: list = [None] * (1 << width)
        for sym, (length, value) in self.codes.items():
            if length <= width:
                shift = width - length
                lut[value << shift:(value + 1) << shift] = [(sym, length)] * (1 << shift)
        return width, lut


def _code_lengths(freqs: dict) -> dict:
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    heap = [(freqs[s], i, s) for i, s in enumerate(sorted(freqs))]
    heapq.heapify(heap)
    tick = len(heap)
    while len(heap) > 1:
        fa, _, a = heapq.heappop(heap)
        fb, _, b = heapq.heappop(heap)
        heapq.heappush(heap, (fa + fb, tick, (a, b)))
        tick += 1
    lengths: dict = {}

    def walk(node, depth):
        if isinstance(node, tuple):
            walk(node[0], depth + 1)
            walk(node[1], depth + 1)
        else:
            lengths[node] = max(depth, 1)

    walk(heap[0][2], 0)
    return lengths


def huffman_build(corpus: str) -> HuffmanTable:
    if not corpus:
        raise ValueError("cannot build a code from an empty corpus")
    lengths = _code_lengths(dict(Counter(corpus)))
    ordered = sorted(lengths, key=lambda s: (lengths[s], s))
    codes: dict = {}
    code = 0
    prev_len = lengths[ordered[0]]
    for sym in ordered:
        code <<= lengths[sym] - prev_len
        prev_len = lengths[sym]
        codes[sym] = (prev_len, code)
        code += 1
    return HuffmanTable(codes=codes)


def huffman_encode(text: str, table: HuffmanTable) -> Bits:
    try:
        word = "".join(table._codewords[ch] for ch in text)
    except KeyError as exc:
        raise ValueError(f"character {exc.args[0]!r} not in code table") from None
    return np.frombuffer(word.encode("ascii"), dtype=np.uint8) - ord("0")


def huffman_decode(bits: Bits, table: HuffmanTable) -> str:
    """Greedy prefix decode, one table lookup per codeword. A stream that ends
    mid-codeword is truncated at the last fully decodable symbol; corruption
    garbles text but never raises."""
    width, lut = table._lookup
    n = len(bits)
    # windows[i]: the width bits from position i, zero-padded past the end
    padded = np.concatenate([bits, np.zeros(width, dtype=np.uint8)]).astype(np.int64)
    windows = np.correlate(padded, 1 << np.arange(width - 1, -1, -1), "valid").tolist()
    out: list[str] = []
    i = 0
    while i < n:
        entry = lut[windows[i]] or _long_codeword(bits, i, table)
        if entry is None or i + entry[1] > n:
            break  # truncated, or an unreachable leaf: stop cleanly
        out.append(entry[0])
        i += entry[1]
    return "".join(out)


def _long_codeword(bits: Bits, start: int, table: HuffmanTable) -> tuple[str, int] | None:
    """The (symbol, length) of the codeword at bits[start:] that the lookup
    table does not hold, read bit by bit; None if the stream ends first or no
    codeword matches."""
    decode_map = {lv: sym for sym, lv in table.codes.items()}
    max_len = max(length for length, _ in table.codes.values())
    value = 0
    for length, bit in enumerate(bits[start:start + max_len].tolist(), start=1):
        value = value << 1 | bit
        sym = decode_map.get((length, value))
        if sym is not None:
            return sym, length
    return None
