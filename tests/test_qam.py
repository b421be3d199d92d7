"""Gray-coded 16QAM mapping, hard-decision slicing and soft bit metrics, the
seeded AWGN channel, and ``channel_groups``, the one path through them all."""

import hashlib
import math

import numpy as np
import pytest

from kgsemcom.phy import (
    ChannelConfig,
    SymbolStream,
    awgn,
    channel_groups,
    noise_normals,
    qam16_demodulate,
    qam16_modulate,
    qam,
    transmit_bits,
)
from kgsemcom.phy.convcode import METRIC_MAX

SCALE = 1.0 / math.sqrt(10.0)
# per-axis Gray pair -> level
LEVEL = {(0, 0): -3.0, (0, 1): -1.0, (1, 1): 1.0, (1, 0): 3.0}


def _oracle_symbol(b3, b2, b1, b0) -> complex:
    return complex(LEVEL[(b3, b2)], LEVEL[(b1, b0)]) * SCALE


def test_all_zero_group_maps_to_corner():
    stream = qam16_modulate(np.array([0, 0, 0, 0], dtype=np.uint8))
    assert stream.symbols[0] == pytest.approx((-3 - 3j) * SCALE, abs=1e-15)


def test_one_zero_one_zero_maps_to_opposite_corner():
    stream = qam16_modulate(np.array([1, 0, 1, 0], dtype=np.uint8))
    assert stream.symbols[0] == pytest.approx((3 + 3j) * SCALE, abs=1e-15)


def test_full_sixteen_point_table():
    for value in range(16):
        bits = np.array([(value >> s) & 1 for s in (3, 2, 1, 0)], dtype=np.uint8)
        got = qam16_modulate(bits).symbols[0]
        want = _oracle_symbol(*bits.tolist())
        assert got == pytest.approx(want, abs=1e-15)


def test_constellation_unit_mean_energy():
    bits = np.array([(v >> s) & 1 for v in range(16) for s in (3, 2, 1, 0)],
                    dtype=np.uint8)
    symbols = qam16_modulate(bits).symbols
    assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_padding_recorded_and_stripped():
    bits = np.array([1, 0, 1, 1, 0, 1], dtype=np.uint8)  # 6 bits -> pad 2
    stream = qam16_modulate(bits)
    assert stream.pad_bits == 2
    assert len(stream.symbols) == 2
    assert np.array_equal(qam16_demodulate(stream), bits)


def test_exhaustive_noiseless_roundtrip_all_16_bit_patterns():
    # every 4-symbol pattern: 2^16 patterns concatenated into one stream
    values = np.arange(2**16, dtype=np.uint32)
    bits = ((values[:, None] >> np.arange(15, -1, -1)) & 1).astype(np.uint8).reshape(-1)
    assert np.array_equal(qam16_demodulate(qam16_modulate(bits)), bits)


def test_boundary_ties_toward_smaller_amplitude():
    # axis value 0 ties between -1 and +1 -> -1 (per-axis rule); +2 -> +1; -2 -> -1
    raw = np.array([0.0 + 0.0j, 2.0 + 2.0j, -2.0 - 2.0j]) * SCALE
    bits = qam16_demodulate(SymbolStream(symbols=raw, pad_bits=0))
    # -1 on both axes -> pairs (0,1),(0,1)
    assert bits[:4].tolist() == [0, 1, 0, 1]
    # +1 on both axes -> pairs (1,1),(1,1)
    assert bits[4:8].tolist() == [1, 1, 1, 1]
    # -1 on both axes again (|-1| < |-3|)
    assert bits[8:12].tolist() == [0, 1, 0, 1]


def test_energy_normalization_on_random_payloads():
    # per-symbol energy variance is 0.32, so a 2% band needs >= ~10^4 symbols
    # (4e4 bits) to sit beyond 3 sigma of sampling noise
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(51)))
    for _ in range(5):
        n = int(rng.integers(40_000, 100_000))
        bits = rng.integers(0, 2, size=n, dtype=np.uint8)
        symbols = qam16_modulate(bits).symbols
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(1.0, rel=0.02)


def test_awgn_infinite_snr_is_exact_copy():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(52)))
    bits = rng.integers(0, 2, size=400, dtype=np.uint8)
    stream = qam16_modulate(bits)
    out = awgn(stream, ChannelConfig(math.inf, 7))
    assert np.array_equal(out.symbols, stream.symbols)
    assert out.pad_bits == stream.pad_bits


def test_awgn_ten_db_noise_variance():
    stream = SymbolStream(symbols=np.zeros(500_000, dtype=complex), pad_bits=0)
    out = awgn(stream, ChannelConfig(10.0, 123))
    noise = out.symbols
    per_dim = np.concatenate([noise.real, noise.imag])  # 10^6 draws
    assert per_dim.size == 1_000_000
    assert np.var(per_dim) == pytest.approx(0.05, rel=0.01)
    assert np.mean(per_dim) == pytest.approx(0.0, abs=1e-3)


def test_awgn_same_seed_identical_different_seed_differs():
    stream = qam16_modulate(np.ones(4000, dtype=np.uint8))
    a = awgn(stream, ChannelConfig(6.0, 42))
    b = awgn(stream, ChannelConfig(6.0, 42))
    c = awgn(stream, ChannelConfig(6.0, 43))
    assert np.array_equal(a.symbols, b.symbols)
    assert not np.array_equal(a.symbols, c.symbols)


def test_channel_config_rejects_nan_accepts_inf():
    with pytest.raises(ValueError, match="NaN"):
        ChannelConfig(float("nan"), 0)
    ChannelConfig(math.inf, 0)
    ChannelConfig(-3.5, 0)


@pytest.mark.parametrize("seed", [1.5, -1, True, False, np.uint64(3), "3", None])
def test_channel_config_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    with pytest.raises(ValueError, match="seed"):
        ChannelConfig(3.0, seed)


def test_channel_config_keeps_huge_seeds():
    assert ChannelConfig(3.0, 2**70).seed == 2**70


def _reference_awgn(stream: SymbolStream, cfg: ChannelConfig) -> SymbolStream:
    # one SeedSequence -> Philox generator per call, real then imaginary draws
    if cfg.snr_db == math.inf:
        return SymbolStream(symbols=stream.symbols.copy(), pad_bits=stream.pad_bits)
    n0 = 10.0 ** (-cfg.snr_db / 10.0)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(cfg.seed)))
    n = len(stream.symbols)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SymbolStream(symbols=stream.symbols + noise * math.sqrt(n0 / 2.0),
                        pad_bits=stream.pad_bits)


SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**70)
SNRS = (-math.inf, -3.0, 0.0, 6.0, 12.5, math.inf)


def test_awgn_equals_one_seeded_philox_generator_per_call():
    stream = qam16_modulate(np.arange(402, dtype=np.uint8) % 3 % 2)
    for seed in SEEDS:
        for snr_db in SNRS:
            cfg = ChannelConfig(snr_db, seed)
            with np.errstate(invalid="ignore"):
                expected = _reference_awgn(stream, cfg).symbols
            assert np.array_equal(awgn(stream, cfg).symbols, expected, equal_nan=True)


def _one_row_groups(streams, cfgs) -> list[np.ndarray]:
    """``channel_groups`` with stream i sent once, over ``cfgs[i]``."""
    groups = channel_groups(streams, [[c.snr_db] for c in cfgs], [[c.seed] for c in cfgs])
    assert [g.shape for g in groups] == [(1, len(s)) for s in streams]
    return [g[0] for g in groups]


def _grouped(streams, cfg_groups) -> list[np.ndarray]:
    return channel_groups(streams, [[c.snr_db for c in cfgs] for cfgs in cfg_groups],
                          [[c.seed for c in cfgs] for cfgs in cfg_groups])


def _reference_row(bits, cfg: ChannelConfig) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return qam16_demodulate(_reference_awgn(qam16_modulate(bits), cfg))


def test_channel_groups_rows_equal_one_reference_channel_pass_each():
    # one-row groups: every padding, empty streams, repeated and huge seeds,
    # all SNRs
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(57)))
    lengths = [0, 1, 2, 3, 4, 5, 37, 0, 400]
    pairs = [(s, r) for s in SEEDS for r in SNRS]
    streams, cfgs = [], []
    for i, (seed, snr_db) in enumerate(pairs):
        streams.append(rng.integers(0, 2, size=lengths[i % len(lengths)], dtype=np.uint8))
        cfgs.append(ChannelConfig(snr_db, seed))
    rows = _one_row_groups(streams, cfgs)
    assert len(rows) == len(streams)
    for bits, cfg, row in zip(streams, cfgs, rows):
        assert row.dtype == np.uint8
        assert np.array_equal(row, _reference_row(bits, cfg))
    # groups of 0, 1 and several rows, over the same streams and channels
    sizes = [0, 1, 5, 3, 0, 2, 7, 1, 4, 0, 6]
    streams = [rng.integers(0, 2, size=lengths[i % len(lengths)], dtype=np.uint8)
               for i in range(len(sizes))]
    ends = np.cumsum(sizes).tolist()
    cfg_groups = [[ChannelConfig(r, s) for s, r in pairs[end - k:end]]
                  for end, k in zip(ends, sizes)]
    assert {c.snr_db for cfgs in cfg_groups for c in cfgs} == set(SNRS)
    groups = _grouped(streams, cfg_groups)
    assert len(groups) == len(streams)
    for bits, cfgs, group in zip(streams, cfg_groups, groups):
        assert group.shape == (len(cfgs), len(bits)) and group.dtype == np.uint8
        for row, cfg in zip(group, cfgs):
            assert np.array_equal(row, _reference_row(bits, cfg))
    assert channel_groups([], [], []) == []


def test_channel_groups_check_every_value_before_the_cast():
    # 256 in a uint16 stream would wrap to a 0 bit in uint8
    wide = np.array([1, 256, 0], dtype=np.uint16)
    whole = np.array([1, 256, 0, 1], dtype=np.uint16)  # no padding needed
    for streams in ([wide], [whole], [np.ones(5, dtype=np.uint8), wide],
                    [wide, np.ones(4, dtype=np.uint8)], [np.ones(4, dtype=np.uint8), whole]):
        with pytest.raises(ValueError, match="0/1"):
            channel_groups(streams, [[0.0]] * len(streams), [[0]] * len(streams))
    with pytest.raises(ValueError, match="0/1"):
        transmit_bits(wide, [ChannelConfig(0.0, 0)])
    with pytest.raises(ValueError, match="0/1"):
        channel_groups([np.array([0, 2])], [[0.0]], [[0]])


def test_channel_groups_reject_mismatched_list_lengths():
    bits = np.ones(6, dtype=np.uint8)
    for streams, snrs_db, seeds in (
            ([bits], [[0.0]], [[1], [2]]),            # a seed list too many
            ([bits, bits], [[0.0]], [[1]]),           # an SNR and seed list too few
            ([bits], [[0.0], [1.0]], [[1], [2]]),     # a stream too few
            ([bits], [[0.0, 1.0]], [[1]]),            # a seed too few
            ([bits], [[0.0]], [[1, 2]]),              # a seed too many
            ([bits, bits], [[0.0], []], [[1], [2]])):  # a seed too many in group 2
        with pytest.raises(ValueError, match="one SNR list per stream"):
            channel_groups(streams, snrs_db, seeds)
    for soft in ([], [True, False, True]):
        with pytest.raises(ValueError, match="one soft flag per stream"):
            channel_groups([bits, bits], [[0.0], [1.0]], [[1], [2]], soft=soft)


def _reference_metrics(bits, cfg: ChannelConfig) -> np.ndarray:
    """Each bit's metric, one value at a time: per unscaled axis x, -x for
    the sign bit and |x| - 2 for the magnitude bit, 8 steps a unit, rounded
    half to even, clipped to +-METRIC_MAX; NaN (SNR -inf) is 0."""
    with np.errstate(invalid="ignore"):
        axes = _reference_awgn(qam16_modulate(bits), cfg).symbols / SCALE
    out = []
    for z in axes:
        for x in (z.real, z.imag):
            for value in (-x, abs(x) - 2.0):
                out.append(0 if math.isnan(value)
                           else round(min(max(8.0 * value, -METRIC_MAX), METRIC_MAX)))
    return np.array(out[:len(bits)], dtype=np.int8)


def test_soft_groups_carry_the_metrics_of_the_same_channel():
    # soft and hard groups mixed: a hard row is the plain channel's, a soft
    # row the metrics of that same row's noisy symbols
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(59)))
    lengths = [0, 1, 5, 8, 37, 3, 400]
    soft = [True, False, True, True, False, True, True]
    streams = [rng.integers(0, 2, size=n, dtype=np.uint8) for n in lengths]
    snrs_db = [list(SNRS) for _ in lengths]
    groups = channel_groups(streams, snrs_db, [[seed] * len(SNRS) for seed in SEEDS], soft=soft)
    for bits, seed, is_soft, group in zip(streams, SEEDS, soft, groups):
        assert group.shape == (len(SNRS), len(bits))
        assert group.dtype == (np.int8 if is_soft else np.uint8)
        for row, snr_db in zip(group, SNRS):
            cfg = ChannelConfig(snr_db, seed)
            expected = _reference_metrics(bits, cfg) if is_soft else _reference_row(bits, cfg)
            assert np.array_equal(row, expected)
        if is_soft:
            # without noise each metric's sign is the sent bit; at -inf all are erased
            assert np.array_equal(group[SNRS.index(math.inf)] < 0, bits.astype(bool))
            assert not group[SNRS.index(-math.inf)].any()
    # a soft flag changes what a group returns, never another group's rows
    assert all(np.array_equal(a, b) for a, b, is_soft in zip(
        groups, channel_groups(streams, snrs_db, [[seed] * len(SNRS) for seed in SEEDS]),
        soft) if not is_soft)


def test_noise_normals_continue_one_stream_per_seed():
    # a row's real parts are its stream's first n normals, its imaginary
    # parts the next n
    counts = [3, 0, 5, 3]
    seeds = [9, 2**70, 11, 9]
    real, imag = noise_normals(seeds, counts)
    assert real.shape == imag.shape == (sum(counts),)
    starts = np.cumsum(counts) - counts
    for seed, n, start in zip(seeds, counts, starts):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        assert np.array_equal(real[start:start + n], rng.standard_normal(n))
        assert np.array_equal(imag[start:start + n], rng.standard_normal(n))


def test_empty_bitstream_roundtrip():
    stream = qam16_modulate(np.zeros(0, dtype=np.uint8))
    assert len(stream.symbols) == 0
    assert len(qam16_demodulate(stream)) == 0


def test_modulate_rejects_non_binary():
    with pytest.raises(ValueError, match="0/1"):
        qam16_modulate(np.array([0, 1, 2], dtype=np.uint8))


def _level_slicer(stream: SymbolStream) -> np.ndarray:
    """Oracle: slice each axis to its nearest level, then map the level to its
    Gray pair (ties at -2/0/+2 go to the smaller amplitude)."""
    x = stream.symbols / SCALE
    out = np.empty((len(x), 4), dtype=np.uint8)
    for col, axis in ((0, x.real), (2, x.imag)):
        levels = np.where(axis < -2.0, -3.0,
                          np.where(axis <= 0.0, -1.0, np.where(axis <= 2.0, 1.0, 3.0)))
        out[:, col] = levels > 0
        out[:, col + 1] = np.abs(levels) == 1.0
    bits = out.reshape(-1)
    return bits[: len(bits) - stream.pad_bits] if stream.pad_bits else bits


def test_slicer_matches_the_level_slicer_oracle():
    special = np.array([-np.inf, -3.0, np.nextafter(-2.0, -3.0), -2.0, np.nextafter(-2.0, 0.0),
                        -0.0, 0.0, np.nextafter(0.0, 1.0), 2.0, np.nextafter(2.0, 3.0), 3.0,
                        np.inf, np.nan])
    re, im = np.meshgrid(special, special)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(53)))
    symbols = np.empty(re.size + 20_000, dtype=complex)
    symbols.real = np.concatenate([re.ravel(), rng.normal(0.0, 3.0, 20_000)]) * SCALE
    symbols.imag = np.concatenate([im.ravel(), rng.normal(0.0, 3.0, 20_000)]) * SCALE
    # what the slicer sees: the boundaries survive the unscaling, and an
    # infinite axis turns the other one NaN, as at SNR -inf
    with np.errstate(invalid="ignore"):
        x = symbols / SCALE
    for value in (-2.0, 0.0, 2.0, np.inf, -np.inf):
        assert np.any(x.real == value) and np.any(x.imag == value)
    assert np.isnan(x.real).any() and np.isnan(x.imag).any()
    with np.errstate(invalid="ignore"):
        for pad in (0, 1, 3):
            stream = SymbolStream(symbols=symbols, pad_bits=pad)
            assert np.array_equal(qam16_demodulate(stream), _level_slicer(stream))


@pytest.mark.parametrize("n", [1, 3, 4, 6, 401, 4002])
def test_transmit_bits_rows_equal_one_channel_pass_each(n):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(54 + n)))
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    cfgs = [ChannelConfig(math.inf, 0), ChannelConfig(6.0, 1), ChannelConfig(0.0, 2),
            ChannelConfig(-math.inf, 3), ChannelConfig(6.0, 1)]
    out = transmit_bits(bits, cfgs)
    assert out.shape == (len(cfgs), n) and out.dtype == np.uint8
    for row, cfg in zip(out, cfgs):
        assert np.array_equal(row, qam16_demodulate(awgn(qam16_modulate(bits), cfg)))
    assert np.array_equal(out[0], bits)
    assert np.array_equal(out[1], out[4])


def test_transmit_bits_modulates_its_stream_once(monkeypatch):
    calls = []

    def counting(bits):
        calls.append(len(bits))
        return qam16_modulate(bits)

    monkeypatch.setattr(qam, "qam16_modulate", counting)
    cfgs = [ChannelConfig(snr_db, seed) for snr_db in (0.0, 6.0, math.inf) for seed in (1, 2)]
    transmit_bits(np.ones(37, dtype=np.uint8), cfgs)
    assert calls == [40]  # the stream padded to whole symbols
    # one call for every group, whatever its rows
    _grouped([np.ones(n, dtype=np.uint8) for n in (37, 0, 8, 2)], [cfgs, cfgs[:1], [], cfgs[2:]])
    assert calls == [40, 40 + 0 + 8 + 4]


def test_transmit_bits_empty_stream_draws_no_noise(monkeypatch):
    def no_noise(*args):
        raise AssertionError("keys derived or noise drawn for an empty stream")

    # the two steps from a seed to noise: key derivation, then the draws
    monkeypatch.setattr(qam, "seed_state", no_noise)
    monkeypatch.setattr(qam, "noise_normals", no_noise)
    out = transmit_bits(np.zeros(0, dtype=np.uint8), [ChannelConfig(0.0, s) for s in range(3)])
    assert out.shape == (3, 0) and out.dtype == np.uint8
    assert transmit_bits(np.zeros(0, dtype=np.uint8), []).shape == (0, 0)
    # the patches sit on the path a non-empty stream takes
    with pytest.raises(AssertionError, match="empty stream"):
        transmit_bits(np.ones(1, dtype=np.uint8), [ChannelConfig(0.0, 0)])


# sha256 over each row's length and bytes, for the rows below, each sent as a
# one-row group: noisy, +inf, -inf and empty rows, every padding, huge and
# repeated seeds, repeated rows
TRANSMIT_ROWS_SHA256 = "44bc9b8291303803564c33b297a283dc4138b804627108e233ffe4156f0e057b"
# sha256 over each output's shape and bytes, for the streams and channels below
TRANSMIT_BITS_SHA256 = "0b43e6535e1a57baf9a4e1b547ad6e622653dd5a8e9c8ab35e2a6ee73d02f8f7"


def test_channel_groups_one_row_groups_match_pinned_sha256():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(58)))
    lengths = [0, 5, 6, 7, 8, 403, 0, 1, 2, 3, 4, 37]
    snrs = [0.0, math.inf, -math.inf, 6.0, -3.0, 12.5]
    seeds = [0, 2**70, 7, 2**64 - 1, 7, 2**32]
    streams, cfgs = [], []
    for i in range(36):
        streams.append(rng.integers(0, 2, size=lengths[i % len(lengths)], dtype=np.uint8))
        cfgs.append(ChannelConfig(snrs[i % len(snrs)], seeds[i // 6 % len(seeds)]))
    digest = hashlib.sha256()
    for row in _one_row_groups(streams + streams[:4], cfgs + cfgs[:4]):
        digest.update(len(row).to_bytes(4, "little") + row.tobytes())
    assert digest.hexdigest() == TRANSMIT_ROWS_SHA256


def test_transmit_bits_matches_pinned_sha256():
    cfgs = [ChannelConfig(snr_db, seed) for snr_db in (-math.inf, 0.0, 6.0, math.inf)
            for seed in (0, 2**70, 2**64 - 1)]
    digest = hashlib.sha256()
    for n in (0, 1, 2, 3, 4, 5, 403):
        out = transmit_bits((np.arange(n) * 7 % 11 % 2).astype(np.uint8), cfgs + cfgs[:3])
        digest.update(repr(out.shape).encode() + out.tobytes())
    assert digest.hexdigest() == TRANSMIT_BITS_SHA256
