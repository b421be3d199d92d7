"""Rate-1/2 constraint-length-7 convolutional codec, checked against an
independent scalar shift-register oracle, plus Viterbi decoding properties."""

import tracemalloc

import numpy as np
import pytest

from kgsemcom.phy import conv_encode
from kgsemcom.phy.convcode import TAIL, _BLOCK, conv_encode_frames, viterbi_decode_frames
from kgsemcom.phy.qam import ChannelConfig, awgn, qam16_demodulate, qam16_modulate


def _taps(generator_octal: int) -> list[int]:
    # polynomial read MSB-first: the top bit multiplies the newest input
    return [delay for delay in range(7) if (generator_octal >> (6 - delay)) & 1]


_T1 = _taps(0o171)
_T2 = _taps(0o133)


def oracle_encode(info) -> list[int]:
    """Scalar shift-register simulation: 6-bit register of previous inputs,
    two parity taps per step, six flushing zeros at the end."""
    register = [0] * 6
    out: list[int] = []
    for bit in list(info) + [0] * 6:
        window = [int(bit)] + register          # delay 0..6
        out.append(sum(window[d] for d in _T1) % 2)
        out.append(sum(window[d] for d in _T2) % 2)
        register = [int(bit)] + register[:-1]
    return out


def test_all_zero_input_maps_to_all_zero():
    out = conv_encode(np.zeros(10, dtype=np.uint8))
    assert len(out) == 32
    assert not out.any()


def test_impulse_response_matches_hand_simulation():
    impulse = np.zeros(10, dtype=np.uint8)
    impulse[0] = 1
    got = conv_encode(impulse)
    assert got.tolist() == oracle_encode(impulse)
    # first seven output pairs read the two generators MSB-first
    assert got[:14].tolist() == [1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1]
    assert not got[14:].any()


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
        assert len(conv_encode(info)) == 2 * (n + 6)


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
    assert np.array_equal(viterbi_decode_frames(conv_encode(info).reshape(1, -1))[0], info)


def test_single_flip_anywhere_in_200_bit_codeword_corrected():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(46)))
    info = rng.integers(0, 2, size=94, dtype=np.uint8)  # 2*(94+6) = 200
    coded = conv_encode(info)
    assert len(coded) == 200
    corrupted = np.tile(coded, (200, 1))
    corrupted[np.arange(200), np.arange(200)] ^= 1
    decoded = viterbi_decode_frames(corrupted)
    assert np.array_equal(decoded, np.tile(info, (200, 1)))


def test_batch_decode_matches_single_decode():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(47)))
    coded = rng.integers(0, 2, size=(8, 2 * (30 + 6)), dtype=np.uint8)
    batch = viterbi_decode_frames(coded)
    for row in range(8):
        assert np.array_equal(batch[row], viterbi_decode_frames(coded[row:row + 1])[0])


def test_malformed_lengths_rejected():
    with pytest.raises(ValueError):
        viterbi_decode_frames(np.zeros((1, 13), dtype=np.uint8))  # odd
    with pytest.raises(ValueError):
        viterbi_decode_frames(np.zeros((1, 10), dtype=np.uint8))  # shorter than the tail


def test_non_binary_values_rejected():
    coded = np.zeros((3, 2 * (10 + 6)), dtype=np.uint8)
    coded[1, 5] = 2
    with pytest.raises(ValueError):
        viterbi_decode_frames(coded)
    with pytest.raises(ValueError):
        viterbi_decode_frames(-np.ones((1, 20), dtype=np.int8))
    # values are checked before the int8 cast, so 256 is rejected instead of
    # wrapping into a 0
    received = np.zeros((1, 2 * (10 + 6)), dtype=np.int64)
    received[0, 5] = 256
    with pytest.raises(ValueError):
        viterbi_decode_frames(received)


# -- the butterfly decoder against the gather/argmin kernel it replaced ----------------

def _reference_tables():
    """Keyed by next state: its two predecessors and their branch metrics per
    received pair. State = last six inputs, newest in the MSB."""
    pred = np.zeros((64, 2), dtype=np.int64)
    branch_out = np.zeros((64, 2), dtype=np.int64)
    for ns in range(64):
        b = ns >> 5
        for j in (0, 1):
            p = ((ns & 31) << 1) | j
            full = (b << 6) | p
            pred[ns, j] = p
            branch_out[ns, j] = ((bin(full & 0o171).count("1") & 1) << 1
                                 | bin(full & 0o133).count("1") & 1)
    pop2 = np.array([0, 1, 1, 2], dtype=np.int32)
    return pred, pop2[branch_out[None] ^ np.arange(4)[:, None, None]]


_REF_PRED, _REF_BM = _reference_tables()


def _reference_viterbi(coded: np.ndarray) -> np.ndarray:
    """Oracle: one gather of predecessor metrics and one argmin per step, then
    a batched traceback with one fancy index per step."""
    B, n = coded.shape
    T = n // 2
    rx = (coded[:, 0::2].astype(np.int64) << 1) | coded[:, 1::2]
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
    assert np.array_equal(viterbi_decode_frames(coded), _reference_viterbi(coded))


@pytest.mark.parametrize("B", [1, 5, 2 * _BLOCK])
def test_matches_reference_around_block_boundaries(B):
    steps = max(1, _BLOCK // B)  # trellis steps per block at this batch size
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([50, B])))
    for T in sorted({max(t, TAIL + 3) for t in (steps - 1, steps, steps + 1, 2 * steps + 1)}):
        coded = _noisy_codewords(rng, B, T - TAIL, 0.1)
        assert np.array_equal(viterbi_decode_frames(coded), _reference_viterbi(coded))


@pytest.mark.parametrize("L", [1, 30, 430])
def test_matches_reference_on_constant_frames(L):
    # constant frames are where the two predecessor metrics tie most often
    for value in (0, 1):
        coded = np.full((3, 2 * (L + TAIL)), value, dtype=np.uint8)
        assert np.array_equal(viterbi_decode_frames(coded), _reference_viterbi(coded))


def test_decoded_word_is_maximum_likelihood():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(51)))
    for L in range(1, 11):
        words = (np.arange(1 << L)[:, None] >> np.arange(L - 1, -1, -1)) & 1
        codebook = conv_encode_frames(words.astype(np.uint8))
        received = np.concatenate([
            _noisy_codewords(rng, 20, L, 0.15),
            rng.integers(0, 2, size=(20, 2 * (L + TAIL)), dtype=np.uint8)])
        decoded = viterbi_decode_frames(received)
        for rx, word in zip(received, decoded):
            distance = int(np.count_nonzero(conv_encode(word) != rx))
            assert distance == int((codebook != rx).sum(axis=1).min())


def test_decoding_a_hundred_thousand_bit_frame_stays_under_nine_mb():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(52)))
    coded = conv_encode_frames(rng.integers(0, 2, size=(1, 100_000), dtype=np.uint8))
    tracemalloc.start()
    try:
        viterbi_decode_frames(coded)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 9_000_000, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.xfail(
    strict=True,
    reason="hard-decision decoding on long frames: at Es/N0 = 4 dB the raw "
           "channel error rate (~0.19) sits above the rate-1/2 hard-decision "
           "crossover (~0.105), so the decoded stream measures ~0.46 against "
           "~0.19 uncoded; the pinned inequality is unattainable with this "
           "demodulator/decoder pairing (see the project ledger).")
def test_coded_beats_uncoded_at_four_db():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(48)))
    info = rng.integers(0, 2, size=100_000, dtype=np.uint8)
    coded = conv_encode(info)
    rx = qam16_demodulate(awgn(qam16_modulate(coded), ChannelConfig(4.0, 1234)))
    coded_ber = float(np.mean(viterbi_decode_frames(rx.reshape(1, -1))[0] != info))
    plain = rng.integers(0, 2, size=100_000, dtype=np.uint8)
    rx_plain = qam16_demodulate(awgn(qam16_modulate(plain), ChannelConfig(4.0, 5678)))
    uncoded_ber = float(np.mean(rx_plain != plain))
    assert coded_ber < uncoded_ber
