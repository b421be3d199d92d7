"""Gray-coded 16QAM over AWGN: the one channel every scheme's bits cross.

Each 4-bit group b3 b2 b1 b0 maps to one symbol: (b3, b2) pick the I level and
(b1, b0) the Q level, per-axis Gray mapping 00 -> -3, 01 -> -1, 11 -> +1,
10 -> +3, scaled by 1/sqrt(10) for unit average symbol energy. Demodulation
is per-axis minimum-distance slicing straight to bits; a sample landing
exactly on a decision boundary goes to the smaller-amplitude level.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bits import Bits, as_bits
from .seeding import seed_state

_SCALE = 1.0 / math.sqrt(10.0)
# level by Gray pair value (b_hi << 1) | b_lo
_LEVEL_BY_PAIR = np.array([-3.0, -1.0, 3.0, 1.0])
# symbol by 4-bit group value b3 b2 b1 b0
_SYMBOL_BY_NIBBLE = (_LEVEL_BY_PAIR[np.arange(16) >> 2]
                     + 1j * _LEVEL_BY_PAIR[np.arange(16) & 3]) * _SCALE


@dataclass(frozen=True)
class ChannelConfig:
    snr_db: float  # Es/N0 per symbol in dB; +inf is the no-noise sentinel
    seed: int = 0

    def __post_init__(self):
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative int, got {self.seed!r}")


@dataclass(frozen=True)
class SymbolStream:
    symbols: np.ndarray  # complex, Es = 1
    pad_bits: int        # zero bits appended to reach a multiple of 4


def qam16_modulate(bits: Bits) -> SymbolStream:
    bits = as_bits(bits)
    pad = (-len(bits)) % 4
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    groups = bits.reshape(-1, 4)
    nibbles = groups[:, 0] << 3 | groups[:, 1] << 2 | groups[:, 2] << 1 | groups[:, 3]
    return SymbolStream(symbols=_SYMBOL_BY_NIBBLE[nibbles], pad_bits=pad)


def qam16_demodulate(stream: SymbolStream) -> Bits:
    """Hard decisions back to bits, with the modulator's padding stripped.
    Per axis (unscaled, boundaries -2/0/+2, ties to the smaller amplitude):
    b_hi = x > 0 and b_lo = -2 <= x <= 2, written so a NaN slices like +inf.
    An infinite sample (SNR -inf) unscales to a NaN axis without a warning."""
    with np.errstate(invalid="ignore"):
        x = stream.symbols / _SCALE
    out = np.empty((len(x), 4), dtype=np.uint8)
    for col, axis in ((0, x.real), (2, x.imag)):
        out[:, col] = ~(axis <= 0.0)
        out[:, col + 1] = ~(axis < -2.0) & (axis <= 2.0)
    bits = out.reshape(-1)
    return bits[: len(bits) - stream.pad_bits] if stream.pad_bits else bits


def awgn(stream: SymbolStream, cfg: ChannelConfig) -> SymbolStream:
    """Complex AWGN with per-dimension variance N0/2 where N0 = Es/10^(snr/10)
    and Es = 1. snr_db = +inf passes symbols through untouched."""
    noisy = _add_noise(stream.symbols, np.array([len(stream.symbols)]), [cfg])
    return SymbolStream(symbols=noisy, pad_bits=stream.pad_bits)


def transmit_rows(streams: Sequence[Bits], cfgs: Sequence[ChannelConfig]) -> list[Bits]:
    """Row i is ``qam16_demodulate(awgn(qam16_modulate(streams[i]), cfgs[i]))``,
    from one modulate, one noise pass and one demodulate over all rows."""
    if len(streams) != len(cfgs):
        raise ValueError("one channel config per stream")
    if not streams:
        return []
    lengths = np.array([len(s) for s in streams], dtype=np.int64)
    n_symbols = -(-lengths // 4)
    # each row padded to whole symbols, so the rows modulate as one stream
    flat = as_bits(np.concatenate([part for s, n in zip(streams, lengths.tolist())
                                   for part in (s, np.zeros(-n % 4, dtype=np.uint8))]))
    symbols = _add_noise(qam16_modulate(flat).symbols, n_symbols, cfgs)
    bits = qam16_demodulate(SymbolStream(symbols=symbols, pad_bits=0))
    starts = 4 * (np.cumsum(n_symbols) - n_symbols)
    return [bits[start:start + n] for start, n in zip(starts.tolist(), lengths.tolist())]


def transmit_bits(bits: Bits, cfgs: Sequence[ChannelConfig]) -> np.ndarray:
    """``transmit_rows`` with the same stream on every row: a (len(cfgs),
    len(bits)) uint8 array. An empty stream draws no noise."""
    out = np.empty((len(cfgs), len(bits)), dtype=np.uint8)
    if cfgs:
        out[:] = transmit_rows([bits] * len(cfgs), cfgs)
    return out


def standard_normals(seeds, counts: Sequence[int]) -> np.ndarray:
    """The first ``counts[i]`` standard normals of the noise stream of
    ``seeds[i]``, rows back to back. A seed's stream is a Philox generator
    with the key ``Philox(SeedSequence(seed))`` would get; this is the one
    place a seed becomes noise. One bit generator serves every row: its state
    is reset per row, which costs far less than building a generator."""
    keys = seed_state((seeds,), 2)
    out = np.empty(int(sum(counts)))
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # a fresh stream: zero counter, empty buffers
    start = 0
    for key, n in zip(keys, counts):
        state["state"]["key"] = key
        bit_generator.state = state
        rng.standard_normal(out=out[start:start + n])
        start += n
    return out


def _add_noise(symbols: np.ndarray, lengths: np.ndarray,
               cfgs: Sequence[ChannelConfig]) -> np.ndarray:
    """``symbols`` holds the rows back to back, row i ``lengths[i]`` long.
    Row i gets the AWGN of ``cfgs[i]``: the first n normals of its seed's
    stream on the real axis, the next n on the imaginary one, each times
    sqrt(N0/2). An empty row, or one at SNR +inf, draws nothing."""
    out = symbols.copy()
    noisy = [bool(n) and cfg.snr_db != math.inf for n, cfg in zip(lengths.tolist(), cfgs)]
    if not any(noisy):
        return out
    cfgs = [cfg for cfg, hit in zip(cfgs, noisy) if hit]
    n = lengths[noisy]
    normals = standard_normals([cfg.seed for cfg in cfgs], (2 * n).tolist())
    real = np.repeat(np.tile([True, False], len(n)), np.repeat(n, 2))
    noise = np.empty(len(normals) // 2, dtype=complex)
    noise.real, noise.imag = normals[real], normals[~real]
    noise *= np.repeat([math.sqrt(10.0 ** (-cfg.snr_db / 10.0) / 2.0) for cfg in cfgs], n)
    out[np.repeat(noisy, lengths)] += noise
    return out
