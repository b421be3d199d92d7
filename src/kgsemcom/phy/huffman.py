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

# a decoder state's steps: one per 4-bit nibble, then one per single bit
_STEPS_PER_STATE = 16 + 2


@dataclass(frozen=True)
class HuffmanTable:
    codes: dict  # symbol (str of length 1) -> (length, value)

    @cached_property
    def _codewords(self) -> dict:
        """symbol -> its codeword as a '0'/'1' string, MSB first."""
        return {sym: f"{value:0{length}b}" for sym, (length, value) in self.codes.items()}

    @cached_property
    def _steps(self) -> list[tuple[str, int]]:
        """The decoder's state table. A state is an internal node of the code
        tree (the root is 0) or the dead state that a bit no codeword starts
        with leads to, numbered by its offset, _STEPS_PER_STATE times its index.
        steps[state + v] is the (symbols emitted, next state) of reading the
        nibble v, MSB first, and steps[state + 16 + b] that of reading the
        single bit b."""
        # child[node][bit]: an internal node's index, a symbol, or None
        child: list[list] = [[None, None]]
        for sym, (length, value) in self.codes.items():
            node = 0
            for k in range(length - 1, 0, -1):
                bit = value >> k & 1
                if child[node][bit] is None:
                    child[node][bit] = len(child)
                    child.append([None, None])
                node = child[node][bit]
            child[node][value & 1] = sym
        dead = len(child)
        child.append([dead, dead])

        def read(node: int, bits: tuple[int, ...]) -> tuple[str, int]:
            emitted = ""
            for bit in bits:
                node = child[node][bit]
                if node is None:
                    node = dead
                elif isinstance(node, str):
                    emitted, node = emitted + node, 0
            return emitted, node * _STEPS_PER_STATE

        reads = [tuple(v >> k & 1 for k in (3, 2, 1, 0)) for v in range(16)] + [(0,), (1,)]
        return [read(node, bits) for node in range(dead + 1) for bits in reads]


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
    """Greedy prefix decode, two state-table steps per byte of the stream. A
    stream that ends mid-codeword is truncated at the last fully decodable
    symbol, and one that leaves the code tree stops there; corruption garbles
    text but never raises."""
    steps = table._steps
    n = len(bits) - len(bits) % 8
    out: list[str] = []
    state = 0
    for byte in np.packbits(bits[:n]).tolist():
        emitted, state = steps[state + (byte >> 4)]
        out.append(emitted)
        emitted, state = steps[state + (byte & 15)]
        out.append(emitted)
    for bit in bits[n:].tolist():
        emitted, state = steps[state + 16 + bit]
        out.append(emitted)
    return "".join(out)
