"""Canonical Huffman coder: optimality, canonical structure, unknown
characters, and decode robustness."""

import math
from collections import Counter

import numpy as np
import pytest

from kgsemcom.phy import huffman_build, huffman_decode, huffman_encode


def _oracle_lengths(freqs: dict) -> dict:
    """Second implementation of the length assignment: sorted-list merges
    instead of a heap, with the same (frequency, insertion-tick) tie rule —
    leaves ticked in lexicographic symbol order, merged nodes ticked in
    creation order."""
    if len(freqs) == 1:
        return {next(iter(freqs)): 1}
    nodes = [(freqs[s], i, s) for i, s in enumerate(sorted(freqs))]
    tick = len(nodes)
    while len(nodes) > 1:
        nodes.sort(key=lambda entry: entry[:2])
        a, b = nodes.pop(0), nodes.pop(0)
        nodes.append((a[0] + b[0], tick, (a[2], b[2])))
        tick += 1
    lengths: dict = {}
    stack = [(nodes[0][2], 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], depth + 1))
            stack.append((node[1], depth + 1))
        else:
            lengths[node] = max(depth, 1)
    return lengths


def _bit_string(length: int, value: int) -> str:
    return format(value, "b").zfill(length)


def _reference_decode(bits, table) -> str:
    """Second implementation of the greedy decode: read one bit at a time
    through numpy indexing, emit a symbol as soon as (length, value) names a
    codeword, and stop once the pending codeword outgrows the longest one."""
    decode_map = {lv: sym for sym, lv in table.codes.items()}
    max_len = max(lv[0] for lv in table.codes.values())
    out: list[str] = []
    length = 0
    value = 0
    i = 0
    n = len(bits)
    while i < n:
        value = (value << 1) | int(bits[i])
        length += 1
        i += 1
        sym = decode_map.get((length, value))
        if sym is not None:
            out.append(sym)
            length = 0
            value = 0
        elif length > max_len:
            break
    return "".join(out)


def _lengths(table) -> dict:
    return {sym: length for sym, (length, _) in table.codes.items()}


def test_two_symbol_corpus_gets_one_bit_codes():
    table = huffman_build("aab")
    assert _lengths(table) == {"a": 1, "b": 1}
    assert list(huffman_encode("aab", table)) == [0, 0, 1]


def test_single_symbol_corpus_still_codes_one_bit():
    table = huffman_build("aaaa")
    assert _lengths(table) == {"a": 1}
    assert len(huffman_encode("aaaa", table)) == 4
    assert huffman_decode(huffman_encode("aaaa", table), table) == "aaaa"


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty"):
        huffman_build("")


def test_roundtrip_fixture_corpus(sample_corpus):
    text = "\n".join(sample_corpus)
    table = huffman_build(text)
    assert huffman_decode(huffman_encode(text, table), table) == text


def test_average_length_within_entropy_bound(sample_corpus):
    text = "\n".join(sample_corpus)
    counts = Counter(text)
    total = len(text)
    entropy = -sum(c / total * math.log2(c / total) for c in counts.values())
    table = huffman_build(text)
    avg = len(huffman_encode(text, table)) / total
    assert entropy <= avg + 1e-12
    assert avg < entropy + 1.0


def test_lengths_match_independent_merge_oracle(sample_corpus):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(71)))
    corpora = ["\n".join(sample_corpus)]
    alphabet = "abcdefgh XYZ.,"
    for _ in range(100):
        n = int(rng.integers(1, 400))
        weights = rng.random(len(alphabet)) ** 3
        weights /= weights.sum()
        corpora.append("".join(rng.choice(list(alphabet), size=n, p=weights)))
    for corpus in corpora:
        table = huffman_build(corpus)
        assert _lengths(table) == _oracle_lengths(dict(Counter(corpus)))


def test_canonical_assignment_is_sorted_and_dense():
    table = huffman_build("aaaabbbccd")
    ordered = sorted(table.codes, key=lambda s: (table.codes[s][0], s))
    assert table.codes[ordered[0]][1] == 0
    previous = None
    for sym in ordered:
        length, value = table.codes[sym]
        if previous is not None:
            prev_len, prev_val = previous
            assert value == (prev_val + 1) << (length - prev_len)
        previous = (length, value)


def test_prefix_free_and_kraft_equality(sample_corpus):
    table = huffman_build("\n".join(sample_corpus))
    words = [_bit_string(*lv) for lv in table.codes.values()]
    for i, w in enumerate(words):
        for j, other in enumerate(words):
            if i != j:
                assert not other.startswith(w)
    assert sum(2.0 ** -len(w) for w in words) == pytest.approx(1.0, abs=1e-12)


def test_truncated_stream_decodes_to_prefix():
    table = huffman_build("the quick brown fox jumps over the lazy dog")
    text = "the lazy fox"
    bits = huffman_encode(text, table)
    for cut in range(len(bits) + 1):
        decoded = huffman_decode(bits[:cut], table)
        assert text.startswith(decoded)


def test_corrupted_stream_never_raises(sample_corpus):
    text = sample_corpus[0]
    table = huffman_build("\n".join(sample_corpus))
    bits = huffman_encode(text, table)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(72)))
    for _ in range(200):
        noisy = bits.copy()
        flips = rng.integers(0, len(bits), size=rng.integers(1, 20))
        noisy[flips] ^= 1
        decoded = huffman_decode(noisy, table)
        assert isinstance(decoded, str)
    garbage = rng.integers(0, 2, size=5000, dtype=np.uint8)
    assert isinstance(huffman_decode(garbage, table), str)


def test_unknown_character_rejected_without_escape():
    table = huffman_build("abc")
    with pytest.raises(ValueError, match="not in code table"):
        huffman_encode("abz", table)


def test_decode_matches_reference_on_corrupted_streams(sample_corpus):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(73)))
    # Fibonacci frequencies give codewords of up to 21 bits, several state-table
    # steps long
    fib = [1, 1]
    while len(fib) < 22:
        fib.append(fib[-1] + fib[-2])
    cases = [("\n".join(sample_corpus), sample_corpus[0]),
             ("aaaa", "aaaaa"),  # single-symbol table
             ("aaaaaaaabbbbccd", "abacabad"),
             ("".join(chr(ord("a") + i) * f for i, f in enumerate(fib)),
              "abcdefghijklmnopqrstuv" * 3 + "vvvba")]
    for corpus, text in cases:
        table = huffman_build(corpus)
        # one state per internal node of the code tree (a symbol count less
        # one, or the lone root) and the dead state, 18 steps each
        assert len(table._steps) == 18 * (max(len(table.codes) - 1, 1) + 1)
        bits = huffman_encode(text, table)
        streams = [bits, rng.integers(0, 2, size=3000, dtype=np.uint8)]
        streams += [bits[:cut] for cut in range(len(bits) + 1)]
        for _ in range(100):
            noisy = bits.copy()
            noisy[rng.integers(0, len(bits), size=rng.integers(1, 20))] ^= 1
            streams.append(noisy)
        for stream in streams:
            assert huffman_decode(stream, table) == _reference_decode(stream, table)
        assert huffman_decode(bits, table) == text


def test_table_is_deterministic(sample_corpus):
    text = "\n".join(sample_corpus)
    assert huffman_build(text) == huffman_build(text)
    assert np.array_equal(
        huffman_encode(text, huffman_build(text)),
        huffman_encode(text, huffman_build(text)),
    )
