"""Wire format for id payloads and the end-to-end link: UEP coding, QAM,
AWGN, parsing, diagnostics."""

import math

import numpy as np
import pytest

from kgsemcom.phy import (
    ChannelConfig,
    TransmissionFrame,
    channel_bit_cost,
    parse_coded_stream,
    serialize_frame,
    transmit,
    transmit_many,
)
from kgsemcom.phy.bits import bits_to_ids, ids_to_bits


# -- frame ---------------------------------------------------------------------

def test_serialize_example_lengths():
    coded, uncoded = serialize_frame(TransmissionFrame((2,), (7, 9)))
    assert len(coded) == 64   # 16 + 16 + 32
    assert len(uncoded) == 64


def test_serialize_empty_frame():
    coded, uncoded = serialize_frame(TransmissionFrame((), ()))
    assert len(coded) == 32
    assert len(uncoded) == 0
    assert not coded.any()


def test_header_counts_big_endian():
    coded, _ = serialize_frame(TransmissionFrame((5,), (1, 2, 3)))
    assert bits_to_ids(coded) == [(1 << 16) | 3, 5]
    assert list(coded[:32]) == [0] * 15 + [1] + [0] * 14 + [1, 1]


def test_frame_validation():
    with pytest.raises(ValueError, match="sorted"):
        TransmissionFrame((3, 1), ())
    with pytest.raises(ValueError, match="sorted"):
        TransmissionFrame((1, 1), ())
    with pytest.raises(ValueError, match="disjoint"):
        TransmissionFrame((1,), (1, 2))


def test_class_size_cap():
    TransmissionFrame(tuple(range(65_535)), ())
    with pytest.raises(ValueError, match="65535"):
        TransmissionFrame(tuple(range(65_536)), ())


def test_parse_serialize_roundtrip_random_frames():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(61)))
    for _ in range(100):
        ids = sorted({int(i) for i in rng.integers(0, 2**32, size=rng.integers(0, 9))})
        split = int(rng.integers(0, len(ids) + 1))
        frame = TransmissionFrame(tuple(ids[:split]), tuple(ids[split:]))
        coded, uncoded = serialize_frame(frame)
        parsed = parse_coded_stream(coded)
        assert parsed.header_consistent
        assert parsed.n_protected == len(frame.protected_ids)
        assert parsed.n_unprotected == len(frame.unprotected_ids)
        assert parsed.ids == frame.protected_ids
        assert tuple(bits_to_ids(uncoded)) == frame.unprotected_ids


def test_parse_never_raises_on_corruption():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(62)))
    for _ in range(300):
        n = int(rng.integers(0, 200))
        parsed = parse_coded_stream(rng.integers(0, 2, size=n, dtype=np.uint8))
        assert isinstance(parsed.ids, tuple)
        assert parsed.header_consistent in (True, False)


def test_parse_short_stream_empty_inconsistent():
    parsed = parse_coded_stream(np.zeros(31, dtype=np.uint8))
    assert parsed.ids == ()
    assert not parsed.header_consistent


def test_corrupted_count_degrades_to_length_derived_parse():
    coded, _ = serialize_frame(TransmissionFrame((10, 20), ()))
    corrupted = coded.copy()
    corrupted[15] ^= 1  # protected count 2 -> 3
    parsed = parse_coded_stream(corrupted)
    assert not parsed.header_consistent
    assert parsed.ids == (10, 20)  # whole 32-bit words actually present


def test_bits_helpers_roundtrip():
    assert list(ids_to_bits([0xBEEF])) == [0] * 16 + [int(b) for b in f"{0xBEEF:016b}"]
    ids = [0, 1, 2**32 - 1]
    assert bits_to_ids(ids_to_bits(ids)) == ids
    assert bits_to_ids(ids_to_bits(ids)[:-1]) == ids[:2]  # partial word dropped
    assert bits_to_ids(np.zeros(0, dtype=np.uint8)) == []
    assert len(ids_to_bits([])) == 0
    with pytest.raises(ValueError, match="32 bits"):
        ids_to_bits([2**32])


# -- link ----------------------------------------------------------------------

def test_channel_bit_cost_formula():
    for n_p, n_u in ((0, 0), (1, 2), (5, 0), (0, 5), (3, 7)):
        assert channel_bit_cost(n_p, n_u) == 2 * (32 + 32 * n_p + 6) + 32 * n_u


def test_transmit_diagnostics_match_formula():
    frame = TransmissionFrame((1, 2), (3, 4, 5))
    result = transmit(frame, ChannelConfig(math.inf, 0))
    assert result.coded_channel_bits == 2 * (32 + 64 + 6)
    assert result.uncoded_channel_bits == 96
    assert result.channel_bits == channel_bit_cost(2, 3)


def test_transmit_no_noise_identity_thousand_random_frames():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(63)))
    cfg = ChannelConfig(math.inf, 0)
    for _ in range(1000):
        ids = sorted({int(i) for i in rng.integers(0, 2**32, size=rng.integers(0, 7))})
        split = int(rng.integers(0, len(ids) + 1))
        frame = TransmissionFrame(tuple(ids[:split]), tuple(ids[split:]))
        result = transmit(frame, cfg)
        assert result.received_protected == frame.protected_ids
        assert result.received_unprotected == frame.unprotected_ids
        assert result.received_ids == frame.protected_ids + frame.unprotected_ids
        assert result.coded_bit_errors == 0
        assert result.uncoded_bit_errors == 0
        assert result.header_consistent


def test_transmit_many_bit_identical_to_single_calls():
    frame = TransmissionFrame((1, 5), (9, 12, 77))
    cfgs = [ChannelConfig(4.0, seed) for seed in (11, 22, 33)]
    batched = transmit_many(frame, cfgs)
    singles = [transmit(frame, cfg) for cfg in cfgs]
    assert batched == singles


def test_same_seed_reproducible_distinct_seeds_differ():
    frame = TransmissionFrame((1,), (2, 3))
    a = transmit(frame, ChannelConfig(2.0, 900))
    b = transmit(frame, ChannelConfig(2.0, 900))
    c = transmit(frame, ChannelConfig(2.0, 901))
    assert a == b
    assert a != c


def test_noise_independent_per_class():
    # the unprotected stream's noise must not shift when the protected class
    # grows: class sizes never share one noise stream
    cfg = ChannelConfig(0.0, 4242)
    small = transmit(TransmissionFrame((), (7, 8, 9)), cfg)
    big = transmit(TransmissionFrame((1, 2, 3), (7, 8, 9)), cfg)
    assert small.received_unprotected == big.received_unprotected


def test_zero_db_protected_id_recovered_more_often():
    # path-graph split: middle node protected, endpoints uncoded; over 1,000
    # seeded passes the coded id must be recovered strictly more often
    frame = TransmissionFrame((1,), (0, 2))
    results = transmit_many(frame, [ChannelConfig(0.0, seed) for seed in range(1000)])
    recovered = {0: 0, 1: 0, 2: 0}
    for result in results:
        for nid in recovered:
            if nid in result.received_ids:
                recovered[nid] += 1
    assert recovered[1] > recovered[0]
    assert recovered[1] > recovered[2]


def test_empty_frame_transmits():
    result = transmit(TransmissionFrame((), ()), ChannelConfig(math.inf, 0))
    assert result.received_ids == ()
    assert result.channel_bits == channel_bit_cost(0, 0) == 76
