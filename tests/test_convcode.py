"""Constraint-length-7 convolutional codec punctured to rate 2/3, checked
against an independent scalar shift-register oracle, plus Viterbi decoding
properties: hard bits against a Hamming-metric oracle, soft metrics against
brute-force maximum likelihood."""

import tracemalloc

import numpy as np
import pytest

from kgsemcom.phy import conv_encode
from kgsemcom.phy.convcode import (METRIC_MAX, TAIL, _BLOCK, conv_encode_frames,
                                   viterbi_decode_frames)
from kgsemcom.phy.qam import channel_groups


def _taps(generator_octal: int) -> list[int]:
    # polynomial read MSB-first: the top bit multiplies the newest input
    return [delay for delay in range(7) if (generator_octal >> (6 - delay)) & 1]


_T1 = _taps(0o171)
_T2 = _taps(0o133)
# rate 2/3: of each two steps' four output bits, the fourth is not sent
_PATTERN = (1, 1, 1, 0)


def _sent_length(L: int) -> int:
    return (3 * (L + TAIL) + 1) // 2 if L else 0


def oracle_encode(info) -> list[int]:
    """Scalar shift-register simulation: 6-bit register of previous inputs,
    two parity taps per step, six flushing zeros at the end; then every
    fourth output bit is dropped."""
    register = [0] * 6
    out: list[int] = []
    for bit in list(info) + [0] * 6:
        window = [int(bit)] + register          # delay 0..6
        out.append(sum(window[d] for d in _T1) % 2)
        out.append(sum(window[d] for d in _T2) % 2)
        register = [int(bit)] + register[:-1]
    return [b for i, b in enumerate(out) if _PATTERN[i % 4]]


def _hard(bits: np.ndarray) -> np.ndarray:
    """Hard decisions as decoder metrics: +1 for a 0, -1 for a 1."""
    return 1 - 2 * bits.astype(np.int8)


def test_all_zero_input_maps_to_all_zero():
    out = conv_encode(np.zeros(10, dtype=np.uint8))
    assert len(out) == 24
    assert not out.any()


def test_impulse_response_matches_hand_simulation():
    impulse = np.zeros(10, dtype=np.uint8)
    impulse[0] = 1
    got = conv_encode(impulse)
    assert got.tolist() == oracle_encode(impulse)
    # the first seven steps read the two generators MSB-first, 1 1 1 0 1 1 1 1
    # 0 0 0 1 1 1, less every fourth bit
    assert got[:11].tolist() == [1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1]
    assert not got[11:].any()


def test_random_inputs_match_oracle():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(41)))
    for _ in range(200):
        n = int(rng.integers(1, 65))
        info = rng.integers(0, 2, size=n, dtype=np.uint8)
        assert conv_encode(info).tolist() == oracle_encode(info)


def test_output_length_structural():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(42)))
    for n in (1, 2, 7, 64, 333):
        info = rng.integers(0, 2, size=n, dtype=np.uint8)
        assert len(conv_encode(info)) == -(-3 * (n + 6) // 2)
    # an empty frame sends nothing, not even its tail
    assert len(conv_encode(np.zeros(0, dtype=np.uint8))) == 0


def test_linearity_under_xor():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(43)))
    for _ in range(50):
        n = int(rng.integers(1, 100))
        a = rng.integers(0, 2, size=n, dtype=np.uint8)
        b = rng.integers(0, 2, size=n, dtype=np.uint8)
        assert np.array_equal(conv_encode(a ^ b), conv_encode(a) ^ conv_encode(b))


def test_batch_encode_matches_single():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(44)))
    batch = rng.integers(0, 2, size=(16, 40), dtype=np.uint8)
    coded = conv_encode_frames(batch)
    for row in range(16):
        assert np.array_equal(coded[row], conv_encode(batch[row]))


def test_noiseless_roundtrip_hundred_thousand_bits():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(45)))
    info = rng.integers(0, 2, size=100_000, dtype=np.uint8)
    assert np.array_equal(viterbi_decode_frames(_hard(conv_encode(info)).reshape(1, -1))[0],
                          info)


def test_single_flip_anywhere_in_200_bit_codeword_corrected():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(46)))
    info = rng.integers(0, 2, size=127, dtype=np.uint8)  # 3*(127+6)/2 rounded up = 200
    coded = conv_encode(info)
    assert len(coded) == 200
    corrupted = np.tile(coded, (200, 1))
    corrupted[np.arange(200), np.arange(200)] ^= 1
    decoded = viterbi_decode_frames(_hard(corrupted))
    assert np.array_equal(decoded, np.tile(info, (200, 1)))


def test_batch_decode_matches_single_decode():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(47)))
    metrics = rng.integers(-METRIC_MAX, METRIC_MAX + 1, size=(8, _sent_length(30)),
                           dtype=np.int8)
    batch = viterbi_decode_frames(metrics)
    for row in range(8):
        assert np.array_equal(batch[row], viterbi_decode_frames(metrics[row:row + 1])[0])


def test_malformed_lengths_rejected():
    with pytest.raises(ValueError):
        viterbi_decode_frames(np.zeros((1, 13), dtype=np.int8))  # no frame is 13 bits
    with pytest.raises(ValueError):
        viterbi_decode_frames(np.zeros((1, 9), dtype=np.int8))  # the tail alone
    with pytest.raises(ValueError):
        viterbi_decode_frames(np.zeros(11, dtype=np.int8))  # not a batch
    assert viterbi_decode_frames(np.zeros((3, 0), dtype=np.int8)).shape == (3, 0)


def test_metrics_must_be_int8_within_the_bound():
    # 0/1 hard bits are not metrics: they enter as +-1
    with pytest.raises(ValueError, match="int8"):
        viterbi_decode_frames(np.zeros((1, _sent_length(10)), dtype=np.uint8))
    with pytest.raises(ValueError, match="int8"):
        viterbi_decode_frames(np.zeros((1, _sent_length(10)), dtype=np.int64))
    # a metric beyond the bound could overflow an int8 branch cost
    for value in (METRIC_MAX + 1, -METRIC_MAX - 1, -128):
        metrics = np.zeros((3, _sent_length(10)), dtype=np.int8)
        metrics[1, 5] = value
        with pytest.raises(ValueError, match="within"):
            viterbi_decode_frames(metrics)
    metrics[1, 5] = -METRIC_MAX
    metrics[2, 7] = METRIC_MAX
    assert viterbi_decode_frames(metrics).shape == (3, 10)


# -- the butterfly decoder against the gather/argmin kernel it replaced ----------------

def _reference_tables():
    """Keyed by next state: its two predecessors, and their branch metrics per
    received pair (r0, r1) at index 3 * r0 + r1, where 2 marks a bit not sent.
    State = last six inputs, newest in the MSB."""
    pred = np.zeros((64, 2), dtype=np.int64)
    branch_out = np.zeros((64, 2, 2), dtype=np.int64)
    for ns in range(64):
        b = ns >> 5
        for j in (0, 1):
            p = ((ns & 31) << 1) | j
            full = (b << 6) | p
            pred[ns, j] = p
            branch_out[ns, j] = (bin(full & 0o171).count("1") & 1,
                                 bin(full & 0o133).count("1") & 1)
    received = np.array([(r0, r1) for r0 in range(3) for r1 in range(3)])[:, None, None]
    hamming = ((branch_out != received) & (received < 2)).sum(axis=3)
    return pred, hamming.astype(np.int32)


_REF_PRED, _REF_BM = _reference_tables()


def _reference_viterbi(coded: np.ndarray, L: int) -> np.ndarray:
    """Oracle for hard 0/1 bits of L-bit frames, sent under ``_PATTERN``: the
    Hamming metric over each step's sent bits, one gather of predecessor
    metrics and one argmin per step, then a batched traceback with one fancy
    index per step."""
    B = len(coded)
    if not L:
        return np.zeros((B, 0), dtype=np.uint8)
    T = L + TAIL
    rx = np.full((B, 2 * T), 2, dtype=np.int64)
    rx[:, np.resize(np.array(_PATTERN, dtype=bool), 2 * T)] = coded
    rx = 3 * rx[:, 0::2] + rx[:, 1::2]
    pm = np.full((B, 64), np.int32(1 << 30), dtype=np.int32)
    pm[:, 0] = 0
    choice = np.empty((B, T, 64), dtype=np.uint8)
    for t in range(T):
        cand = pm[:, _REF_PRED] + _REF_BM[rx[:, t]]
        choice[:, t] = np.argmin(cand, axis=2)  # ties: lower predecessor bit
        pm = np.min(cand, axis=2)
    state = np.zeros(B, dtype=np.int64)
    bits = np.empty((B, T), dtype=np.uint8)
    rows = np.arange(B)
    for t in range(T - 1, -1, -1):
        bits[:, t] = state >> 5
        state = ((state & 31) << 1) | choice[rows, t, state]
    return bits[:, : T - TAIL]


def _noisy_codewords(rng, B, L, flip_rate):
    coded = conv_encode_frames(rng.integers(0, 2, size=(B, L), dtype=np.uint8))
    return coded ^ (rng.random(coded.shape) < flip_rate).astype(np.uint8)


@pytest.mark.parametrize("flip_rate", [0.0, 0.05, 0.2, 0.5])
@pytest.mark.parametrize("L", [0, 1, 30, 180, 430])
@pytest.mark.parametrize("B", [1, 5, 200])
def test_matches_reference_on_random_frames(B, L, flip_rate):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([49, B, L])))
    coded = _noisy_codewords(rng, B, L, flip_rate)
    assert np.array_equal(viterbi_decode_frames(_hard(coded)), _reference_viterbi(coded, L))


@pytest.mark.parametrize("B", [1, 5, 2 * _BLOCK])
def test_matches_reference_around_block_boundaries(B):
    steps = max(1, _BLOCK // B)  # trellis steps per block at this batch size
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([50, B])))
    for T in sorted({max(t, TAIL + 3) for t in (steps - 1, steps, steps + 1, 2 * steps + 1)}):
        coded = _noisy_codewords(rng, B, T - TAIL, 0.1)
        assert np.array_equal(viterbi_decode_frames(_hard(coded)),
                              _reference_viterbi(coded, T - TAIL))


@pytest.mark.parametrize("L", [1, 30, 430])
def test_matches_reference_on_constant_frames(L):
    # constant frames are where the two predecessor metrics tie most often
    for value in (0, 1):
        coded = np.full((3, _sent_length(L)), value, dtype=np.uint8)
        assert np.array_equal(viterbi_decode_frames(_hard(coded)), _reference_viterbi(coded, L))


def test_decoded_word_is_maximum_likelihood():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(51)))
    for L in range(1, 11):
        words = (np.arange(1 << L)[:, None] >> np.arange(L - 1, -1, -1)) & 1
        codebook = conv_encode_frames(words.astype(np.uint8))
        received = np.concatenate([
            _noisy_codewords(rng, 20, L, 0.15),
            rng.integers(0, 2, size=(20, _sent_length(L)), dtype=np.uint8)])
        decoded = viterbi_decode_frames(_hard(received))
        for rx, word in zip(received, decoded):
            distance = int(np.count_nonzero(conv_encode(word) != rx))
            assert distance == int((codebook != rx).sum(axis=1).min())


def test_soft_decoded_word_is_maximum_likelihood():
    # real metrics, some of them erased (zero): the decoded word's cost
    # sum(metric * sign), sign +1 for a sent 1 and -1 for a sent 0, is the
    # least over all 2**L words
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(53)))
    for L in range(1, 11):
        words = (np.arange(1 << L)[:, None] >> np.arange(L - 1, -1, -1)) & 1
        signs = 2 * conv_encode_frames(words.astype(np.uint8)).astype(np.int64) - 1
        metrics = rng.integers(-METRIC_MAX, METRIC_MAX + 1, size=(40, _sent_length(L)),
                               dtype=np.int8)
        metrics[rng.random(metrics.shape) < 0.3] = 0
        decoded = viterbi_decode_frames(metrics)
        for mu, word in zip(metrics.astype(np.int64), decoded):
            cost = int(mu @ (2 * conv_encode(word).astype(np.int64) - 1))
            assert cost == int((signs @ mu).min())


def test_all_erasure_frame_decodes():
    # every metric zero (SNR -inf): all paths tie and each tie keeps bit 0
    for L in (1, 30, 430):
        decoded = viterbi_decode_frames(np.zeros((3, _sent_length(L)), dtype=np.int8))
        assert np.array_equal(decoded, np.zeros((3, L), dtype=np.uint8))


def test_decoding_a_hundred_thousand_bit_frame_stays_under_nine_mb():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(52)))
    metrics = _hard(conv_encode_frames(rng.integers(0, 2, size=(1, 100_000), dtype=np.uint8)))
    tracemalloc.start()
    try:
        viterbi_decode_frames(metrics)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9_000_000, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.xfail(
    strict=True,
    reason="long frames at Es/N0 = 4 dB sit above capacity for this code: 16QAM "
           "carries 8/3 info bits a symbol at rate 2/3, against a capacity of "
           "about 1.8, so even soft-decision decoding measures 0.479 against "
           "0.189 uncoded. A lower-rate code (ROADMAP item 13) is the mend.")
def test_coded_beats_uncoded_at_four_db():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(48)))
    info = rng.integers(0, 2, size=100_000, dtype=np.uint8)
    metrics = channel_groups([conv_encode(info)], [[4.0]], [[1234]], soft=[True])[0]
    coded_ber = float(np.mean(viterbi_decode_frames(metrics)[0] != info))
    plain = rng.integers(0, 2, size=100_000, dtype=np.uint8)
    rx_plain = channel_groups([plain], [[4.0]], [[5678]])[0][0]
    uncoded_ber = float(np.mean(rx_plain != plain))
    assert coded_ber < uncoded_ber
