"""Gray-coded 16QAM over AWGN: the one channel every scheme's bits cross.

Each 4-bit group b3 b2 b1 b0 maps to one symbol: (b3, b2) pick the I level and
(b1, b0) the Q level, per-axis Gray mapping 00 -> -3, 01 -> -1, 11 -> +1,
10 -> +3, scaled by 1/sqrt(10) for unit average symbol energy. Demodulation
is per-axis minimum-distance slicing straight to bits; a sample landing
exactly on a decision boundary goes to the smaller-amplitude level.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bits import Bits, as_bits

_SCALE = 1.0 / math.sqrt(10.0)
# level by Gray pair value (b_hi << 1) | b_lo
_LEVEL_BY_PAIR = np.array([-3.0, -1.0, 3.0, 1.0])


@dataclass(frozen=True)
class ChannelConfig:
    snr_db: float  # Es/N0 per symbol in dB; +inf is the no-noise sentinel
    seed: int = 0

    def __post_init__(self):
        if math.isnan(self.snr_db):
            raise ValueError("snr_db must not be NaN")


@dataclass(frozen=True)
class SymbolStream:
    symbols: np.ndarray  # complex, Es = 1
    pad_bits: int        # zero bits appended to reach a multiple of 4


def qam16_modulate(bits: Bits) -> SymbolStream:
    bits = as_bits(bits)
    pad = (-len(bits)) % 4
    if pad:
        bits = np.concatenate([bits, np.zeros(pad, dtype=np.uint8)])
    groups = bits.reshape(-1, 4).astype(np.int64)
    i_levels = _LEVEL_BY_PAIR[(groups[:, 0] << 1) | groups[:, 1]]
    q_levels = _LEVEL_BY_PAIR[(groups[:, 2] << 1) | groups[:, 3]]
    return SymbolStream(symbols=(i_levels + 1j * q_levels) * _SCALE, pad_bits=pad)


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


def noise_generator(seed) -> np.random.Generator:
    """Counter-based Philox stream; identical seeds give identical noise."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def awgn(stream: SymbolStream, cfg: ChannelConfig) -> SymbolStream:
    """Complex AWGN with per-dimension variance N0/2 where N0 = Es/10^(snr/10)
    and Es = 1. snr_db = +inf passes symbols through untouched."""
    if math.isinf(cfg.snr_db) and cfg.snr_db > 0:
        return SymbolStream(symbols=stream.symbols.copy(), pad_bits=stream.pad_bits)
    n0 = 10.0 ** (-cfg.snr_db / 10.0)
    rng = noise_generator(cfg.seed)
    n = len(stream.symbols)
    noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return SymbolStream(symbols=stream.symbols + noise * math.sqrt(n0 / 2.0),
                        pad_bits=stream.pad_bits)


def transmit_bits(bits: Bits, cfgs: list[ChannelConfig]) -> np.ndarray:
    """Modulate ``bits`` once, then per config add its AWGN and slice. Row i of
    the (len(cfgs), len(bits)) uint8 result is ``qam16_demodulate(awgn(
    qam16_modulate(bits), cfgs[i]))``; an empty stream draws no noise."""
    out = np.empty((len(cfgs), len(bits)), dtype=np.uint8)
    if len(bits):
        tx = qam16_modulate(bits)
        for row, cfg in enumerate(cfgs):
            out[row] = qam16_demodulate(awgn(tx, cfg))
    return out
