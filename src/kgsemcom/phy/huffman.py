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


@dataclass(frozen=True)
class HuffmanTable:
    codes: dict  # symbol (str of length 1) -> (length, value)

    def lengths(self) -> dict:
        return {sym: lv[0] for sym, lv in self.codes.items()}

    @cached_property
    def _codewords(self) -> dict:
        """symbol -> its codeword as a '0'/'1' string, MSB first."""
        return {sym: f"{value:0{length}b}" for sym, (length, value) in self.codes.items()}


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
    """Greedy prefix decode. A stream that ends mid-codeword is truncated at
    the last fully decodable symbol; corruption garbles text but never
    raises."""
    decode_map = {lv: sym for sym, lv in table.codes.items()}
    max_len = max(lv[0] for lv in table.codes.values())
    out: list[str] = []
    length = value = 0
    for bit in bits.tolist():
        value = (value << 1) | bit
        length += 1
        sym = decode_map.get((length, value))
        if sym is not None:
            out.append(sym)
            length = value = 0
        elif length > max_len:
            break  # unreachable leaf: corrupted beyond resync, stop cleanly
    return "".join(out)
