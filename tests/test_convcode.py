"""Constraint-length-7 convolutional codec punctured by each row of
``PUNCTURES``, checked against an independent scalar shift-register oracle,
plus Viterbi decoding properties: hard bits against a Hamming-metric oracle,
soft metrics against brute-force maximum likelihood; the SNR schedule that
picks the row; and the decoder within the receiver's candidate words against
brute-force maximum likelihood over them."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kgsemcom.phy import conv_encode
from kgsemcom.phy import convcode
from kgsemcom.phy.convcode import (METRIC_MAX, PUNCTURES, TAIL, UNPUNCTURED, _BLOCK, code_rate,
                                   coded_length, conv_encode_frames, decode_in_prior, depuncture,
                                   puncture, viterbi_decode_frames, word_prior)
from kgsemcom.phy.qam import channel_groups


def _taps(generator_octal: int) -> list[int]:
    # polynomial read MSB-first: the top bit multiplies the newest input
    return [delay for delay in range(7) if (generator_octal >> (6 - delay)) & 1]


_T1 = _taps(0o171)
_T2 = _taps(0o133)
# rate 2/3: of each two steps' four output bits, the fourth is not sent
RATE_2_3 = (1, 1, 1, 0)
PATTERNS = [pattern for _, pattern in PUNCTURES]
by_pattern = pytest.mark.parametrize(
    "pattern", PATTERNS, ids=lambda p: f"rate-{code_rate(p).numerator}-{code_rate(p).denominator}")


def _sent_length(L: int, pattern=RATE_2_3) -> int:
    """The kept positions among a frame's 2 * (L + TAIL) output bits."""
    return int(np.resize(np.array(pattern), 2 * (L + TAIL)).sum()) if L else 0


def oracle_encode(info, pattern=RATE_2_3) -> list[int]:
    """Scalar shift-register simulation: 6-bit register of previous inputs,
    two parity taps per step, six flushing zeros at the end; then the output
    bits the pattern marks 0, repeated, are dropped."""
    register = [0] * 6
    out: list[int] = []
    for bit in list(info) + [0] * 6:
        window = [int(bit)] + register          # delay 0..6
        out.append(sum(window[d] for d in _T1) % 2)
        out.append(sum(window[d] for d in _T2) % 2)
        register = [int(bit)] + register[:-1]
    return [b for i, b in enumerate(out) if pattern[i % len(pattern)]]


def _hard(bits: np.ndarray) -> np.ndarray:
    """Hard decisions as decoder metrics: +1 for a 0, -1 for a 1."""
    return 1 - 2 * bits.astype(np.int8)


def test_schedule_picks_each_row_from_its_lowest_snr():
    assert [lowest for lowest, _ in PUNCTURES] == [-math.inf, 10.0, 12.0]
    assert [code_rate(p) for p in PATTERNS] == [Fraction(2, 3), Fraction(3, 4), Fraction(7, 8)]
    for snr_db, row in ((-math.inf, 0), (0.0, 0), (8.0, 0), (9.99, 0), (10.0, 1),
                        (11.99, 1), (12.0, 2), (30.0, 2), (math.inf, 2)):
        assert puncture(snr_db) == PATTERNS[row]
    with pytest.raises(ValueError, match="NaN"):
        puncture(math.nan)


@pytest.mark.parametrize("pattern", [(), (1, 1, 1), (1, 1, 0, 0), (1, 2)], ids=repr)
def test_a_malformed_pattern_is_rejected(pattern):
    # a pattern covers whole trellis steps, in 0/1 bits, and keeps a bit of each
    info = np.zeros((1, 5), dtype=np.uint8)
    for call in (lambda: coded_length(5, pattern), lambda: conv_encode_frames(info, pattern),
                 lambda: viterbi_decode_frames(np.zeros((1, 11), dtype=np.int8), pattern),
                 lambda: code_rate(pattern)):
        with pytest.raises(ValueError, match="no puncturing pattern"):
            call()


@pytest.mark.parametrize("pattern", [(1, 1), (1, 1, 0, 1, 1, 0), (1, 1, 0, 1, 1, 0, 0, 1, 1, 0)],
                         ids=["rate-1-2", "rate-3-4", "rate-5-6"])
def test_a_pattern_outside_the_table_codes_too(pattern):
    # the unpunctured mother code and the standard rate-3/4 and 5/6 matrices,
    # whichever of them the schedule lacks
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(54)))
    for _ in range(20):
        info = rng.integers(0, 2, size=int(rng.integers(1, 65)), dtype=np.uint8)
        coded = conv_encode(info, pattern)
        assert coded.tolist() == oracle_encode(info, pattern)
        assert np.array_equal(viterbi_decode_frames(_hard(coded).reshape(1, -1), pattern)[0],
                              info)


def test_all_zero_input_maps_to_all_zero():
    out = conv_encode(np.zeros(10, dtype=np.uint8), RATE_2_3)
    assert len(out) == 24
    assert not out.any()


def test_impulse_response_matches_hand_simulation():
    impulse = np.zeros(10, dtype=np.uint8)
    impulse[0] = 1
    got = conv_encode(impulse, RATE_2_3)
    assert got.tolist() == oracle_encode(impulse)
    # the first seven steps read the two generators MSB-first, 1 1 1 0 1 1 1 1
    # 0 0 0 1 1 1, less every fourth bit
    assert got[:11].tolist() == [1, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1]
    assert not got[11:].any()


def test_random_inputs_match_oracle():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(41)))
    for pattern in PATTERNS:
        for _ in range(200):
            n = int(rng.integers(1, 65))
            info = rng.integers(0, 2, size=n, dtype=np.uint8)
            assert conv_encode(info, pattern).tolist() == oracle_encode(info, pattern)


def test_output_length_structural():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(42)))
    for n in (1, 2, 7, 64, 333):
        info = rng.integers(0, 2, size=n, dtype=np.uint8)
        assert len(conv_encode(info, RATE_2_3)) == -(-3 * (n + 6) // 2)
    # an empty frame sends nothing, not even its tail
    for pattern in PATTERNS:
        assert len(conv_encode(np.zeros(0, dtype=np.uint8), pattern)) == 0


@by_pattern
def test_coded_length_is_the_encoder_s_length(pattern):
    for L in range(65):
        sent = conv_encode_frames(np.zeros((1, L), dtype=np.uint8), pattern).shape[1]
        assert coded_length(L, pattern) == sent == _sent_length(L, pattern)


def test_linearity_under_xor():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(43)))
    for pattern in PATTERNS:
        for _ in range(50):
            n = int(rng.integers(1, 100))
            a = rng.integers(0, 2, size=n, dtype=np.uint8)
            b = rng.integers(0, 2, size=n, dtype=np.uint8)
            assert np.array_equal(conv_encode(a ^ b, pattern),
                                  conv_encode(a, pattern) ^ conv_encode(b, pattern))


def test_batch_encode_matches_single():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(44)))
    batch = rng.integers(0, 2, size=(16, 40), dtype=np.uint8)
    for pattern in PATTERNS:
        coded = conv_encode_frames(batch, pattern)
        for row in range(16):
            assert np.array_equal(coded[row], conv_encode(batch[row], pattern))


def test_noiseless_roundtrip_hundred_thousand_bits():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(45)))
    info = rng.integers(0, 2, size=100_000, dtype=np.uint8)
    for pattern in PATTERNS:
        coded = _hard(conv_encode(info, pattern)).reshape(1, -1)
        assert np.array_equal(viterbi_decode_frames(coded, pattern)[0], info), pattern


def test_single_flip_anywhere_in_200_bit_codeword_corrected():
    # 127 info bits: 200 coded bits at rate 2/3, fewer at the higher rates.
    # Every row's free distance is at least 3 (7/8's is 3), so one flip is corrected
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(46)))
    info = rng.integers(0, 2, size=127, dtype=np.uint8)
    assert len(conv_encode(info, RATE_2_3)) == 200
    for pattern in PATTERNS:
        coded = conv_encode(info, pattern)
        n = len(coded)
        corrupted = np.tile(coded, (n, 1))
        corrupted[np.arange(n), np.arange(n)] ^= 1
        decoded = viterbi_decode_frames(_hard(corrupted), pattern)
        assert np.array_equal(decoded, np.tile(info, (n, 1))), pattern


def test_batch_decode_matches_single_decode():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(47)))
    for pattern in PATTERNS:
        metrics = rng.integers(-METRIC_MAX, METRIC_MAX + 1,
                               size=(8, _sent_length(30, pattern)), dtype=np.int8)
        batch = viterbi_decode_frames(metrics, pattern)
        for row in range(8):
            assert np.array_equal(batch[row],
                                  viterbi_decode_frames(metrics[row:row + 1], pattern)[0])


def test_malformed_lengths_rejected():
    with pytest.raises(ValueError):
        viterbi_decode_frames(np.zeros((1, 13), dtype=np.int8), RATE_2_3)  # no frame is 13 bits
    with pytest.raises(ValueError):
        viterbi_decode_frames(np.zeros((1, 9), dtype=np.int8), RATE_2_3)  # the tail alone
    with pytest.raises(ValueError):
        viterbi_decode_frames(np.zeros(11, dtype=np.int8), RATE_2_3)  # not a batch
    assert viterbi_decode_frames(np.zeros((3, 0), dtype=np.int8), RATE_2_3).shape == (3, 0)


@by_pattern
def test_lengths_no_frame_has_are_rejected(pattern):
    lengths = {_sent_length(L, pattern): L for L in range(1, 80)}
    for n in range(1, max(lengths)):
        metrics = np.zeros((2, n), dtype=np.int8)
        if n in lengths:
            assert viterbi_decode_frames(metrics, pattern).shape == (2, lengths[n])
        else:
            with pytest.raises(ValueError):
                viterbi_decode_frames(metrics, pattern)


def test_metrics_must_be_int8_within_the_bound():
    # 0/1 hard bits are not metrics: they enter as +-1
    with pytest.raises(ValueError, match="int8"):
        viterbi_decode_frames(np.zeros((1, _sent_length(10)), dtype=np.uint8), RATE_2_3)
    with pytest.raises(ValueError, match="int8"):
        viterbi_decode_frames(np.zeros((1, _sent_length(10)), dtype=np.int64), RATE_2_3)
    # a metric beyond the bound could overflow an int8 branch cost
    for value in (METRIC_MAX + 1, -METRIC_MAX - 1, -128):
        metrics = np.zeros((3, _sent_length(10)), dtype=np.int8)
        metrics[1, 5] = value
        with pytest.raises(ValueError, match="within"):
            viterbi_decode_frames(metrics, RATE_2_3)
    metrics[1, 5] = -METRIC_MAX
    metrics[2, 7] = METRIC_MAX
    assert viterbi_decode_frames(metrics, RATE_2_3).shape == (3, 10)


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


def _reference_viterbi(coded: np.ndarray, L: int, pattern=RATE_2_3) -> np.ndarray:
    """Oracle for hard 0/1 bits of L-bit frames, sent under ``pattern``: the
    Hamming metric over each step's sent bits, one gather of predecessor
    metrics and one argmin per step, then a batched traceback with one fancy
    index per step."""
    B = len(coded)
    if not L:
        return np.zeros((B, 0), dtype=np.uint8)
    T = L + TAIL
    rx = np.full((B, 2 * T), 2, dtype=np.int64)
    rx[:, np.resize(np.array(pattern, dtype=bool), 2 * T)] = coded
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


def _noisy_codewords(rng, B, L, flip_rate, pattern=RATE_2_3):
    coded = conv_encode_frames(rng.integers(0, 2, size=(B, L), dtype=np.uint8), pattern)
    return coded ^ (rng.random(coded.shape) < flip_rate).astype(np.uint8)


@pytest.mark.parametrize("flip_rate", [0.0, 0.05, 0.2, 0.5])
@pytest.mark.parametrize("L", [0, 1, 30, 180, 430])
@pytest.mark.parametrize("B", [1, 5, 200])
def test_matches_reference_on_random_frames(B, L, flip_rate):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([49, B, L])))
    for pattern in PATTERNS:
        coded = _noisy_codewords(rng, B, L, flip_rate, pattern)
        assert np.array_equal(viterbi_decode_frames(_hard(coded), pattern),
                              _reference_viterbi(coded, L, pattern)), pattern


@pytest.mark.parametrize("B", [1, 5, 2 * _BLOCK])
def test_matches_reference_around_block_boundaries(B):
    steps = max(1, _BLOCK // B)  # trellis steps per block at this batch size
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([50, B])))
    for T in sorted({max(t, TAIL + 3) for t in (steps - 1, steps, steps + 1, 2 * steps + 1)}):
        for pattern in PATTERNS:
            coded = _noisy_codewords(rng, B, T - TAIL, 0.1, pattern)
            assert np.array_equal(viterbi_decode_frames(_hard(coded), pattern),
                                  _reference_viterbi(coded, T - TAIL, pattern)), pattern


@pytest.mark.parametrize("L", [1, 30, 430])
def test_matches_reference_on_constant_frames(L):
    # constant frames are where the two predecessor metrics tie most often
    for pattern in PATTERNS:
        for value in (0, 1):
            coded = np.full((3, _sent_length(L, pattern)), value, dtype=np.uint8)
            assert np.array_equal(viterbi_decode_frames(_hard(coded), pattern),
                                  _reference_viterbi(coded, L, pattern)), pattern


def test_decoded_word_is_maximum_likelihood():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(51)))
    for pattern in PATTERNS:
        for L in range(1, 11):
            words = (np.arange(1 << L)[:, None] >> np.arange(L - 1, -1, -1)) & 1
            codebook = conv_encode_frames(words.astype(np.uint8), pattern)
            received = np.concatenate([
                _noisy_codewords(rng, 20, L, 0.15, pattern),
                rng.integers(0, 2, size=(20, _sent_length(L, pattern)), dtype=np.uint8)])
            decoded = viterbi_decode_frames(_hard(received), pattern)
            for rx, word in zip(received, decoded):
                distance = int(np.count_nonzero(conv_encode(word, pattern) != rx))
                assert distance == int((codebook != rx).sum(axis=1).min()), pattern


def test_soft_decoded_word_is_maximum_likelihood():
    # real metrics, some of them erased (zero): the decoded word's cost
    # sum(metric * sign), sign +1 for a sent 1 and -1 for a sent 0, is the
    # least over all 2**L words
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(53)))
    for pattern in PATTERNS:
        for L in range(1, 11):
            words = (np.arange(1 << L)[:, None] >> np.arange(L - 1, -1, -1)) & 1
            signs = 2 * conv_encode_frames(words.astype(np.uint8), pattern).astype(np.int64) - 1
            metrics = rng.integers(-METRIC_MAX, METRIC_MAX + 1,
                                   size=(40, _sent_length(L, pattern)), dtype=np.int8)
            metrics[rng.random(metrics.shape) < 0.3] = 0
            decoded = viterbi_decode_frames(metrics, pattern)
            for mu, word in zip(metrics.astype(np.int64), decoded):
                cost = int(mu @ (2 * conv_encode(word, pattern).astype(np.int64) - 1))
                assert cost == int((signs @ mu).min()), pattern


def test_all_erasure_frame_decodes():
    # every metric zero (SNR -inf): all paths tie and each tie keeps bit 0
    for pattern in PATTERNS:
        for L in (1, 30, 430):
            metrics = np.zeros((3, _sent_length(L, pattern)), dtype=np.int8)
            assert np.array_equal(viterbi_decode_frames(metrics, pattern),
                                  np.zeros((3, L), dtype=np.uint8)), pattern


# -- maximum likelihood within the receiver's candidate words --------------------------

def _oracle_in_prior(metrics, viterbi, width, n, pairs, nats):
    """The rule by brute force over the candidate words, each scored whole
    through the encoder: a word of one or two ranks outside the candidates
    (any rank below n; the listed sorted pairs) that some received bit
    disagrees with gives way to the least-metric candidate, the lowest rank
    or first pair on a tie, if that metric exceeds its own by at most
    PRIOR_NATS, at ``nats`` a metric step."""
    def metrics_of(words):
        signs = 2 * conv_encode_frames(np.array(words, dtype=np.uint8).reshape(len(words), -1),
                                       UNPUNCTURED).astype(np.int64) - 1
        return signs @ metrics.astype(np.int64)

    ranks = tuple(int("".join(map(str, viterbi[i:i + width])), 2)
                  for i in range(0, len(viterbi), width))
    candidates = [(a,) for a in range(n)] if len(ranks) == 1 else sorted(pairs)
    own = int(metrics_of([viterbi])[0])
    if ranks in candidates or own == -int(np.abs(metrics.astype(np.int64)).sum()) \
            or not candidates:
        return list(viterbi)
    words = [[int(b) for rank in c for b in format(rank, f"0{width}b")] for c in candidates]
    scores = metrics_of(words)
    best = int(np.argmin(scores))  # the first least metric
    return words[best] if scores[best] - own <= convcode.PRIOR_NATS / nats else list(viterbi)


@pytest.mark.parametrize("pattern", [UNPUNCTURED] + PATTERNS,
                         ids=lambda p: f"rate-{code_rate(p).numerator}-{code_rate(p).denominator}")
def test_decode_in_prior_is_maximum_likelihood_over_the_candidates(pattern):
    # words of 1 to 13 bits (so shorter than the register, and wide enough
    # to be scored in a high and a low part), one or two to a frame, sent as
    # candidates or not, under noise from clean to heavy
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(57)))
    outcomes = {"kept": 0, "replaced": 0}
    for _ in range(100):
        width, k = int(rng.integers(1, 14)), int(rng.integers(1, 3))
        n = int(rng.integers(2, min(1 << width, 40 if width < 10 else 3000) + 1))
        lowest = 0
        if width >= 10 and rng.random() < 0.4:  # N a little below 2^W: its high part is partial
            n = (1 << width) - int(rng.integers(1, 6))
            lowest = n - 40
        if n - lowest <= 40:
            pairs = {(a, b) for a in range(lowest, n) for b in range(a + 1, n)
                     if rng.random() < 0.3}
        else:
            pairs = {tuple(sorted(int(i) for i in rng.choice(n, size=2, replace=False)))
                     for _ in range(150)}
        prior = word_prior(n, np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T)
        ranks = rng.integers(lowest, 1 << width, size=(8, k, 1))
        info = (ranks >> np.arange(width - 1, -1, -1) & 1).astype(np.uint8).reshape(8, -1)
        sent = conv_encode_frames(info, pattern).astype(np.int64)
        noisy = (1 - 2 * sent) * 12 + rng.normal(0, float(rng.choice([1, 10, 25])), sent.shape)
        metrics = depuncture(np.clip(np.rint(noisy), -METRIC_MAX, METRIC_MAX).astype(np.int8),
                             pattern)
        viterbi = viterbi_decode_frames(metrics, UNPUNCTURED)
        # margins of 300, 120 and 30 metric steps, one drawn per row
        nats = convcode.PRIOR_NATS / rng.choice([300, 120, 30], size=len(metrics))
        decoded = decode_in_prior(metrics, viterbi, width, prior, nats)
        for mu, vit, got, row_nats in zip(metrics, viterbi, decoded, nats):
            assert got.tolist() == _oracle_in_prior(mu, vit, width, n, pairs, row_nats)
            outcomes["replaced" if not np.array_equal(got, vit) else "kept"] += 1
    assert min(outcomes.values()) > 20


def test_decode_in_prior_keeps_frames_of_three_words_and_no_prior():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(59)))
    metrics = rng.integers(-METRIC_MAX, METRIC_MAX + 1, size=(5, 2 * (12 + TAIL)), dtype=np.int8)
    viterbi = viterbi_decode_frames(metrics, UNPUNCTURED)
    prior = word_prior(3, ([0], [1]))
    nats = np.full(5, 0.1)
    assert decode_in_prior(metrics, viterbi, 4, prior, nats) is viterbi  # three 4-bit words
    assert decode_in_prior(metrics, viterbi, 12, None, nats) is viterbi
    # a prior of more ranks than 2-bit words name: every one-rank word is
    # valid, and pairs are still searched
    short = rng.integers(-METRIC_MAX, METRIC_MAX + 1, size=(5, 2 * (4 + TAIL)), dtype=np.int8)
    decoded = decode_in_prior(short, viterbi_decode_frames(short, UNPUNCTURED), 2,
                              word_prior(10, ([0, 1], [1, 3])), nats)
    assert {tuple(w) for w in decoded.tolist()} <= {(0, 0, 0, 1), (0, 1, 1, 1)} | {
        tuple(w) for w in viterbi_decode_frames(short, UNPUNCTURED).tolist()}


def test_word_prior_lists_each_sorted_pair_once():
    prior = word_prior(5, ([3, 1, 2, 0], [1, 3, 2, 4]))
    assert prior.keys.tolist() == [0 * 5 + 4, 1 * 5 + 3]
    assert prior.second.tolist() == [4, 3]
    assert prior.starts.tolist() == [0, 1, 2, 2, 2, 2]
    with pytest.raises(ValueError, match="ranks below"):
        word_prior(5, ([0], [5]))


def test_decoding_a_hundred_thousand_bit_frame_stays_under_nine_mb():
    # rate 2/3 sends the most metrics of any row; the decoder's own arrays
    # are the same size at every rate
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(52)))
    info = rng.integers(0, 2, size=(1, 100_000), dtype=np.uint8)
    metrics = _hard(conv_encode_frames(info, RATE_2_3))
    tracemalloc.start()
    try:
        viterbi_decode_frames(metrics, RATE_2_3)
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
    pattern = puncture(4.0)
    metrics = channel_groups([conv_encode(info, pattern)], [[4.0]], [[1234]], soft=[True])[0]
    coded_ber = float(np.mean(viterbi_decode_frames(metrics, pattern)[0] != info))
    plain = rng.integers(0, 2, size=100_000, dtype=np.uint8)
    rx_plain = channel_groups([plain], [[4.0]], [[5678]])[0][0]
    uncoded_ber = float(np.mean(rx_plain != plain))
    assert coded_ber < uncoded_ber
