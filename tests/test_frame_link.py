"""Wire format for id payloads and the end-to-end link: UEP coding, QAM,
AWGN, parsing, diagnostics."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from kgsemcom.phy import (
    ChannelConfig,
    TransmissionFrame,
    channel_bit_cost,
    parse_coded_stream,
    payload_bits,
    serialize_frame,
    transmit,
    transmit_many,
    word_prior,
)
from kgsemcom.phy import link
from kgsemcom.phy.bits import as_bits, ids_to_bits
from kgsemcom.phy.convcode import coded_length, conv_encode_frames, puncture
from kgsemcom.phy.frame import parse_streams


# -- frame ---------------------------------------------------------------------

def test_serialize_example_lengths():
    coded, uncoded = serialize_frame(TransmissionFrame((2,), (7, 9), 7))
    assert len(coded) == 7
    assert len(uncoded) == 14


def test_serialize_empty_frame():
    coded, uncoded = serialize_frame(TransmissionFrame((), (), 7))
    assert len(coded) == len(uncoded) == 0


def test_serialize_sends_only_the_id_words():
    # no counts: each stream is its ids as big-endian W-bit words
    coded, uncoded = serialize_frame(TransmissionFrame((5,), (1, 2, 3), 7))
    assert list(coded) == [0] * 4 + [1, 0, 1]
    assert parse_coded_stream(uncoded, 7) == (1, 2, 3)


def test_frame_validation():
    with pytest.raises(ValueError, match="sorted"):
        TransmissionFrame((3, 1), (), 7)
    with pytest.raises(ValueError, match="sorted"):
        TransmissionFrame((1, 1), (), 7)
    with pytest.raises(ValueError, match="disjoint"):
        TransmissionFrame((1,), (1, 2), 7)


def _random_frame(rng, max_ids: int) -> TransmissionFrame:
    width = int(rng.integers(4, 34))
    ids = sorted({int(i) for i in rng.integers(0, 2**width, size=rng.integers(0, max_ids))})
    split = int(rng.integers(0, len(ids) + 1))
    return TransmissionFrame(tuple(ids[:split]), tuple(ids[split:]), width)


def test_parse_serialize_roundtrip_random_frames():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(61)))
    for _ in range(100):
        frame = _random_frame(rng, 9)
        coded, uncoded = serialize_frame(frame)
        assert parse_coded_stream(coded, frame.width) == frame.protected_ids
        assert parse_coded_stream(uncoded, frame.width) == frame.unprotected_ids


def test_parse_never_raises_on_corruption():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(62)))
    for _ in range(300):
        n = int(rng.integers(0, 200))
        width = int(rng.integers(1, 34))
        parsed = parse_coded_stream(rng.integers(0, 2, size=n, dtype=np.uint8), width)
        assert isinstance(parsed, tuple)
        assert len(parsed) == n // width  # a trailing partial word is dropped


@pytest.mark.parametrize("values", [[256, 257, -255, 0], [0.5, 1.9], [0, 1, 2],
                                    [0.0, float("nan")], [[0, 1]]], ids=repr)
def test_as_bits_rejects_what_is_not_a_flat_bit_array(values):
    # checked before the uint8 cast: 256 and -255 used to wrap into 0 and 1,
    # and 0.5 and 1.9 to truncate into 0 and 1
    with pytest.raises(ValueError, match="0/1 values"):
        as_bits(np.array(values))


def test_as_bits_accepts_bits_of_any_dtype():
    for values in ([0, 1, 1], [0.0, 1.0, 1.0], [False, True, True]):
        bits = as_bits(np.array(values))
        assert bits.dtype == np.uint8 and bits.tolist() == [0, 1, 1]
    assert as_bits([]).dtype == np.uint8 and len(as_bits([])) == 0


def test_bits_helpers_roundtrip():
    beef = [int(b) for b in f"{0xBEEF:016b}"]
    assert list(ids_to_bits([0xBEEF], 16)) == beef
    assert list(ids_to_bits([0xBEEF], 20)) == [0] * 4 + beef
    for width in (32, 33, 64):
        ids = (0, 1, 2**32 - 1)
        assert parse_coded_stream(ids_to_bits(ids, width), width) == ids
        # a trailing partial word is dropped
        assert parse_coded_stream(ids_to_bits(ids, width)[:-1], width) == ids[:2]
    assert parse_coded_stream(ids_to_bits([0, 5, 127], 7), 7) == (0, 5, 127)
    assert parse_coded_stream(np.zeros(0, dtype=np.uint8), 7) == ()
    assert len(ids_to_bits([], 7)) == 0
    with pytest.raises(ValueError, match="fit in 7 bits"):
        ids_to_bits([128], 7)


@pytest.mark.parametrize("width", [0, 65, 70])
def test_word_widths_outside_one_to_sixty_four_rejected(width):
    # 70 used to pass the fit check and slice the 64-bit word from -6, so id 5
    # went out as 6 bits; 0 failed late, or divided by zero in the parser
    with pytest.raises(ValueError, match="1..64"):
        ids_to_bits([5], width)
    with pytest.raises(ValueError, match="1..64"):
        parse_streams(np.zeros((1, 140), dtype=np.uint8), width)
    with pytest.raises(ValueError, match="1..64"):
        TransmissionFrame((3,), (), width)


# -- link ----------------------------------------------------------------------

def test_channel_bit_cost_formula():
    for width in (7, 15):
        for n_p, n_u in ((0, 0), (1, 2), (5, 0), (0, 5), (3, 7)):
            for snr_db, (k, d) in ((-math.inf, (2, 3)), (8.0, (2, 3)), (10.0, (5, 6)),
                                   (12.0, (7, 8)), (math.inf, (7, 8))):
                # rate k/d over the ids and the 6-bit tail, rounded up; no
                # protected id, no coded bits
                coded = -(-(width * n_p + 6) * d // k) if n_p else 0
                assert channel_bit_cost(n_p, n_u, width, snr_db) == coded + width * n_u
            assert payload_bits(n_p, width) == width * n_p


# the noiseless channel takes the top row of the schedule, rate 7/8
NOISELESS = math.inf


def test_transmit_diagnostics_match_formula():
    frame = TransmissionFrame((1, 2), (3, 4, 5), 7)
    result = transmit(frame, ChannelConfig(NOISELESS, 0))
    assert result.coded_channel_bits == -(-8 * (14 + 6) // 7)
    assert result.uncoded_channel_bits == 21
    assert result.channel_bits == channel_bit_cost(2, 3, 7, NOISELESS)
    # random frames, empty classes included: the sent sizes are the formulas'
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(64)))
    for _ in range(200):
        width = int(rng.integers(1, 33))
        n_p, n_u = (int(n) for n in rng.integers(0, 13, size=2))
        if n_p + n_u > 2**width:
            continue
        ids = sorted(int(i) for i in rng.choice(2**width, size=n_p + n_u, replace=False))
        result = transmit(TransmissionFrame(tuple(ids[:n_p]), tuple(ids[n_p:]), width),
                          ChannelConfig(NOISELESS, 0))
        assert result.channel_bits == channel_bit_cost(n_p, n_u, width, NOISELESS)
        assert result.coded_channel_bits == coded_length(width * n_p, puncture(NOISELESS))
    for n in range(41):
        assert (coded_length(n, puncture(NOISELESS))
                == conv_encode_frames(np.zeros((1, n), np.uint8), puncture(NOISELESS)).shape[1])


def test_transmit_no_noise_identity_thousand_random_frames():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(63)))
    cfg = ChannelConfig(math.inf, 0)
    for _ in range(1000):
        frame = _random_frame(rng, 7)
        result = transmit(frame, cfg)
        assert result.received_protected == frame.protected_ids
        assert result.received_unprotected == frame.unprotected_ids
        assert result.received_ids == frame.protected_ids + frame.unprotected_ids
        assert result.coded_bit_errors == 0
        assert result.uncoded_bit_errors == 0


def test_transmit_many_bit_identical_to_single_calls():
    # frames of two coded lengths, an empty unprotected class, and a repeated
    # frame and seed: one channel call and two Viterbi batches, row by row
    short = TransmissionFrame((1, 5), (9, 12, 77), 7)
    long = TransmissionFrame((1, 5, 8, 40), (), 7)
    frames = [short, long, short, long, short]
    cfgs = [ChannelConfig(snr_db, seed)
            for snr_db, seed in ((4.0, 11), (4.0, 22), (0.0, 33), (math.inf, 44), (4.0, 11))]
    batched = transmit_many(frames, cfgs)
    singles = [transmit(frame, cfg) for frame, cfg in zip(frames, cfgs)]
    assert batched == singles
    assert batched[0] == batched[4]
    assert transmit_many([], []) == []
    with pytest.raises(ValueError, match="one channel config per frame"):
        transmit_many(frames, cfgs[:2])


def test_one_frame_at_two_rates_gives_two_coded_lengths():
    # 8 dB takes rate 2/3 and 12 dB rate 7/8: the same frame becomes two
    # groups, two coded lengths and two Viterbi batches
    frame = TransmissionFrame((1, 5, 8), (9, 12), 7)
    cfgs = [ChannelConfig(snr_db, seed)
            for snr_db, seed in ((8.0, 1), (12.0, 2), (8.0, 3), (12.0, 4), (12.0, 1))]
    batched = transmit_many([frame] * len(cfgs), cfgs)
    assert [r.coded_channel_bits for r in batched] == [41, 31, 41, 31, 31]
    assert batched == [transmit(frame, cfg) for cfg in cfgs]


def _three_frames_ten_rows():
    frames = [TransmissionFrame((1, 5), (9, 12, 77), 7), TransmissionFrame((), (3,), 7),
              TransmissionFrame((1, 5, 8, 40), (), 11)]
    rows = [frames[i % 3] for i in (0, 1, 2, 0, 0, 1, 2, 2, 0, 1)]
    return rows, [ChannelConfig(2.0, seed) for seed in range(len(rows))]


def test_transmit_many_builds_no_channel_config(monkeypatch):
    frames, cfgs = _three_frames_ten_rows()
    built = []
    monkeypatch.setattr(ChannelConfig, "__post_init__", lambda self: built.append(self))
    transmit_many(frames, cfgs)
    assert built == []
    # the patch sees every construction
    ChannelConfig(0.0, 0)
    assert len(built) == 1


def test_transmit_many_parses_each_distinct_frame_once(monkeypatch):
    frames, cfgs = _three_frames_ten_rows()
    parsed = []

    def counting(rows, width):
        parsed.append((rows.shape, width))
        return link_parse(rows, width)

    link_parse = link.parse_streams
    monkeypatch.setattr(link, "parse_streams", counting)
    results = transmit_many(frames, cfgs)
    # one parse of both streams per group of rows
    assert sorted(parsed) == [((3, 7), 7), ((3, 44), 11), ((4, 35), 7)]
    monkeypatch.undo()
    assert results == [transmit(frame, cfg) for frame, cfg in zip(frames, cfgs)]


# sha256 over the repr of every TransmitResult field, for the frames below at
# each SNR and seed
TRANSMIT_MANY_SHA256 = "5858892fe287f6d5de2ff38aff9f57d2392018636fd44bcbc5dd5b3030cf8482"


def test_transmit_many_matches_pinned_sha256():
    frames, cfgs = [], []
    for width in (7, 11, 15):
        top = (1 << width) - 1
        for frame in (TransmissionFrame((), (), width),
                      TransmissionFrame((), (0, 5, top), width),
                      TransmissionFrame((1, top), (), width),
                      TransmissionFrame(tuple(range(3, 40, 3)), (2, 50, top - 1), width)):
            for snr_db in (-math.inf, 0.0, 6.0, math.inf):
                for seed in (0, 2**32, 2**64 - 1, 2**70):
                    frames.append(frame)
                    cfgs.append(ChannelConfig(snr_db, seed))
    digest = hashlib.sha256()
    for result in transmit_many(frames, cfgs):
        digest.update(repr(dataclasses.astuple(result)).encode())
    assert digest.hexdigest() == TRANSMIT_MANY_SHA256


def test_a_prior_naming_every_one_rank_word_changes_nothing():
    # with N = 2^W every one-rank word names an entity, so none is searched
    width = 4
    prior = word_prior(1 << width, ([0], [1]))
    frames = [TransmissionFrame((3,), (7,), width), TransmissionFrame((2,), (), width)] * 50
    cfgs = [ChannelConfig(0.0, seed) for seed in range(len(frames))]
    assert transmit_many(frames, cfgs, prior) == transmit_many(frames, cfgs)


@pytest.mark.parametrize("n, width", [(5, 3), ((1 << 12) - 301, 12)])
def test_a_one_seed_word_past_n_decodes_to_a_valid_rank(n, width):
    # N - 1 sent at 0 dB: the Viterbi word is often N or above (12-bit words
    # are scored in a high and a low part, and N's high part is partial)
    frame = TransmissionFrame((n - 1,), (), width)
    cfgs = [ChannelConfig(0.0, seed) for seed in range(300)]
    plain = transmit_many([frame] * len(cfgs), cfgs)
    no_pairs = word_prior(n, (np.zeros(0, int), np.zeros(0, int)))
    decoded = transmit_many([frame] * len(cfgs), cfgs, no_pairs)
    past = [i for i, r in enumerate(plain) if r.received_protected[0] >= n]
    assert len(past) > 10
    assert all(decoded[i].received_protected[0] < n for i in past)
    assert sum(r.received_protected == (n - 1,) for r in decoded) > sum(
        r.received_protected == (n - 1,) for r in plain)
    # the rows the Viterbi word already names a rank in are left as they are
    assert all(decoded[i] == plain[i] for i in range(len(cfgs)) if i not in past)


def test_a_rank_at_n_sent_at_0_db_comes_back_below_n():
    # N itself names no entity, and at 0 dB the margin always reaches a rank
    # below N, here where N's high part holds ranks below N and words past it
    n, width = (1 << 12) - 301, 12
    frames = [TransmissionFrame((n,), (), width)] * 100
    cfgs = [ChannelConfig(0.0, seed) for seed in range(len(frames))]
    decoded = transmit_many(frames, cfgs, word_prior(n, (np.zeros(0, int), np.zeros(0, int))))
    assert all(r.received_protected[0] < n for r in decoded)


def test_a_pair_no_triple_joins_arrives_exactly_without_noise():
    # the prior lists the chain (a, a + 1); every other pair is sent clean,
    # and a word no received bit disagrees with stands
    n, width = 100, 7
    prior = word_prior(n, (np.arange(n - 1), np.arange(1, n)))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(65)))
    pairs = {tuple(sorted(int(i) for i in rng.choice(n, size=2, replace=False)))
             for _ in range(300)}
    frames = [TransmissionFrame(pair, (), width) for pair in sorted(pairs) if pair[1] > pair[0] + 1]
    results = transmit_many(frames, [ChannelConfig(NOISELESS, 0)] * len(frames), prior)
    assert [r.received_protected for r in results] == [f.protected_ids for f in frames]


def test_same_seed_reproducible_distinct_seeds_differ():
    frame = TransmissionFrame((1,), (2, 3), 7)
    a = transmit(frame, ChannelConfig(2.0, 900))
    b = transmit(frame, ChannelConfig(2.0, 900))
    c = transmit(frame, ChannelConfig(2.0, 901))
    assert a == b
    assert a != c


def test_noise_independent_per_class():
    # the unprotected stream's noise must not shift when the protected class
    # grows: class sizes never share one noise stream
    cfg = ChannelConfig(0.0, 4242)
    small = transmit(TransmissionFrame((), (7, 8, 9), 7), cfg)
    big = transmit(TransmissionFrame((1, 2, 3), (7, 8, 9), 7), cfg)
    assert small.received_unprotected == big.received_unprotected


def _recoveries(width: int, snr_db: float) -> dict[int, int]:
    # path-graph split: middle node protected, endpoints uncoded; how often
    # each id arrives over 1,000 seeded passes
    frame = TransmissionFrame((1,), (0, 2), width)
    results = transmit_many([frame] * 1000, [ChannelConfig(snr_db, seed) for seed in range(1000)])
    return {nid: sum(nid in r.received_ids for r in results) for nid in (0, 1, 2)}


def test_zero_db_protected_id_recovered_more_often():
    # 32-bit words: the coded id arrives 111 times in 1,000, the uncoded ones
    # 7 and 3 (soft-decision Viterbi on a short, tail-terminated frame)
    recovered = _recoveries(32, 0.0)
    assert recovered[1] > recovered[0]
    assert recovered[1] > recovered[2]


@pytest.mark.parametrize("snr_db", [0.0, 4.0, 6.0])
def test_seven_bit_protected_id_recovered_more_often(snr_db):
    # the bundled KG's width. The coded id arrives 594 times in 1,000 against
    # 275 and 279 uncoded at 0 dB, 927 against 434 and 385 at 4 dB, and 980
    # against 532 and 466 at 6 dB
    recovered = _recoveries(7, snr_db)
    assert recovered[1] > recovered[0]
    assert recovered[1] > recovered[2]


def test_empty_frame_transmits():
    result = transmit(TransmissionFrame((), (), 7), ChannelConfig(math.inf, 0))
    assert result.received_ids == ()
    assert result.channel_bits == channel_bit_cost(0, 0, 7, math.inf) == 0  # not even a tail
