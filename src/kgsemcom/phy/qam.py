"""Gray-coded 16QAM over AWGN: the one channel every scheme's bits cross.

Each 4-bit group b3 b2 b1 b0 maps to one symbol: (b3, b2) pick the I level and
(b1, b0) the Q level, per-axis Gray mapping 00 -> -3, 01 -> -1, 11 -> +1,
10 -> +3, scaled by 1/sqrt(10) for unit average symbol energy. Demodulation
is per-axis minimum-distance slicing straight to bits; a sample landing
exactly on a decision boundary goes to the smaller-amplitude level. A group
that asks for soft decisions gets max-log bit metrics instead (see
``_bit_metrics``), the input of ``convcode.viterbi_decode_frames``.

``channel_groups`` is the one channel core for every scheme: it takes
distinct streams, each with its own rows of (SNR, seed), modulates all the
streams in one call, tiles each stream's symbols over its rows, adds one
noise pass and slices once per run of hard or soft groups. ``transmit_bits``
is its one-stream case and ``awgn`` the one-stream noise primitive.
``noise_normals`` is the one place a seed becomes noise: per row it draws the
real parts, then the imaginary parts, of its seed's stream straight into two
buffers, and ``_add_noise`` scales them and adds them to the symbols in place.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import mul

import numpy as np

from .bits import Bits, as_bits
from .convcode import METRIC_MAX
from .seeding import seed_state

_SCALE = 1.0 / math.sqrt(10.0)
# level by Gray pair value (b_hi << 1) | b_lo
_LEVEL_BY_PAIR = np.array([-3.0, -1.0, 3.0, 1.0])
# symbol by 4-bit group value b3 b2 b1 b0
_SYMBOL_BY_NIBBLE = (_LEVEL_BY_PAIR[np.arange(16) >> 2]
                     + 1j * _LEVEL_BY_PAIR[np.arange(16) & 3]) * _SCALE
_METRIC_STEPS = 8  # int8 metric steps per unit of the unscaled axis


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
    symbols = stream.symbols.astype(complex)  # a copy, which takes the noise in place
    _add_noise(symbols, [len(symbols)], [cfg.snr_db], [cfg.seed])
    return SymbolStream(symbols=symbols, pad_bits=stream.pad_bits)


def _bit_metrics(symbols: np.ndarray) -> np.ndarray:
    """Max-log metrics of each symbol's bits b3 b2 b1 b0, positive favouring
    a 0, as one flat int8 array. Per unscaled axis x the sign bit's metric is
    -x and the magnitude bit's |x| - 2: the squared distance to the nearest
    level whose bit is 1, minus that to the nearest whose bit is 0, over 4, in
    its per-axis linear form (max-log bit metrics, as in BICM). They are
    ``_METRIC_STEPS`` per unit, rounded and clipped to +-METRIC_MAX. An axis
    that is not finite (every axis at SNR -inf) is an erasure: 0."""
    axes = symbols.view(np.float64).reshape(-1, 2)  # (I, Q) per symbol
    out = np.empty((len(axes), 2, 2))
    sign, magnitude = out[:, :, 0], out[:, :, 1]
    np.multiply(axes, -_METRIC_STEPS / _SCALE, out=sign)
    np.abs(sign, out=magnitude)
    magnitude -= 2 * _METRIC_STEPS
    out[~np.isfinite(out)] = 0.0
    np.minimum(out, METRIC_MAX, out=out)
    np.maximum(out, -METRIC_MAX, out=out)
    return np.rint(out, out=out).astype(np.int8).reshape(-1)


def step_nats(snr_db: float) -> float:
    """The log-likelihood, in nats, of one step of ``_bit_metrics`` at this
    SNR. A bit's max-log LLR is (d1^2 - d0^2) / N0 in scaled distances,
    which is 4 * _SCALE^2 / N0 per metric unit, and a code word's
    log-likelihood is, up to a constant, minus half the sum of its bits'
    signed LLRs; so a path metric, the sum of +-metric over the code bits,
    is minus the log-likelihood in steps of 2 * _SCALE^2 / (_METRIC_STEPS *
    N0) nats (Es = 1). 0 at SNR -inf, inf on the noiseless channel."""
    return 2 * _SCALE ** 2 / _METRIC_STEPS * 10 ** (snr_db / 10)


def channel_groups(streams: Sequence[Bits], snrs_db: Sequence[Sequence[float]],
                   seeds: Sequence[Sequence[int]],
                   soft: Sequence[bool] | None = None) -> list[np.ndarray]:
    """The one channel core. Group g sends ``streams[g]`` over
    ``len(snrs_db[g])`` channels and comes back as a (rows, len(streams[g]))
    uint8 array whose row r is ``qam16_demodulate(awgn(qam16_modulate(
    streams[g]), ChannelConfig(snrs_db[g][r], seeds[g][r])))``; the caller has
    validated the SNRs and seeds. Where ``soft[g]`` is true the group comes
    back instead as the int8 ``_bit_metrics`` of those same noisy symbols.
    Every stream is zero-padded to whole symbols in its own dtype and all are
    modulated in one call, whose one ``as_bits`` check sees every value before
    the cast to uint8. Each stream's symbols are tiled over its rows, and one
    noise pass serves them all; each run of neighbouring hard (or soft) groups
    is sliced (or given metrics) in one call."""
    rows = [len(group) for group in snrs_db]
    if len(streams) != len(rows) or rows != [len(group) for group in seeds]:
        raise ValueError("one SNR list per stream and one seed per SNR")
    if soft is None:
        soft = [False] * len(streams)
    elif len(soft) != len(streams):
        raise ValueError("one soft flag per stream")
    if not streams:
        return []
    lengths = [len(stream) for stream in streams]
    n_symbols = [-(-n // 4) for n in lengths]
    starts = list(accumulate(n_symbols, initial=0))  # of each stream's symbols
    spans = list(accumulate(map(mul, n_symbols, rows), initial=0))  # of each group's rows
    flat = np.concatenate(streams)
    if flat.ndim == 1 and any(n % 4 for n in lengths):
        padded = np.zeros(4 * starts[-1], dtype=flat.dtype)
        for start, n, bit in zip(starts, lengths, accumulate(lengths, initial=0)):
            padded[4 * start:4 * start + n] = flat[bit:bit + n]
    else:  # no stream needs padding, or one is not flat and the check rejects it
        padded = flat
    sent = qam16_modulate(padded).symbols
    symbols = np.empty(spans[-1], dtype=sent.dtype)
    for start, m, k, span in zip(starts, n_symbols, rows, spans):
        symbols[span:span + m * k].reshape(k, m)[:] = sent[start:start + m]
    _add_noise(symbols, [m for m, k in zip(n_symbols, rows) for _ in range(k)],
               [snr for group in snrs_db for snr in group],
               [seed for group in seeds for seed in group])
    received = []
    for is_soft, run in groupby(range(len(streams)), key=lambda g: soft[g]):
        run = list(run)
        lo, hi = spans[run[0]], spans[run[-1] + 1]
        values = (_bit_metrics(symbols[lo:hi]) if is_soft
                  else qam16_demodulate(SymbolStream(symbols=symbols[lo:hi], pad_bits=0)))
        received += [values[4 * (spans[g] - lo):4 * (spans[g + 1] - lo)]
                     .reshape(rows[g], 4 * n_symbols[g])[:, :lengths[g]] for g in run]
    return received


def transmit_bits(bits: Bits, cfgs: Sequence[ChannelConfig]) -> np.ndarray:
    """``bits`` over the channel of each config: ``channel_groups`` with one
    group, a (len(cfgs), len(bits)) uint8 array. An empty stream draws no
    noise."""
    return channel_groups([bits], [[c.snr_db for c in cfgs]], [[c.seed for c in cfgs]])[0]


def noise_normals(seeds, counts: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Row i's noise: the first ``counts[i]`` standard normals of the stream
    of ``seeds[i]`` are its real parts and the next ``counts[i]`` its
    imaginary parts. -> (real, imag), each with the rows back to back. A
    seed's stream is a Philox generator with the key
    ``Philox(SeedSequence(seed))`` would get; this is the one place a seed
    becomes noise. One bit generator serves every row: its state is reset
    per row, which costs far less than building a generator."""
    keys = seed_state((seeds,), 2)
    total = int(sum(counts))
    real, imag = np.empty(total), np.empty(total)
    bit_generator = np.random.Philox(0)
    rng = np.random.Generator(bit_generator)
    state = bit_generator.state  # a fresh stream: zero counter, empty buffers
    start = 0
    for key, n in zip(keys, counts):
        state["state"]["key"] = key
        bit_generator.state = state
        stop = start + n
        rng.standard_normal(out=real[start:stop])
        rng.standard_normal(out=imag[start:stop])
        start = stop
    return real, imag


def _add_noise(symbols: np.ndarray, lengths: Sequence[int], snrs_db: Sequence[float],
               seeds: Sequence[int]) -> None:
    """Add AWGN to ``symbols`` in place. They hold the rows back to back, row
    i ``lengths[i]`` long, and row i gets ``seeds[i]``'s noise times
    sqrt(N0/2) at ``snrs_db[i]``. An empty row, or one at SNR +inf, draws
    nothing; only then is a mask built."""
    noisy = [bool(n) and snr != math.inf for n, snr in zip(lengths, snrs_db)]
    if not any(noisy):
        return
    mask = None
    if not all(noisy):
        mask = np.repeat(noisy, lengths)
        lengths = [n for n, hit in zip(lengths, noisy) if hit]
        snrs_db = [snr for snr, hit in zip(snrs_db, noisy) if hit]
        seeds = [seed for seed, hit in zip(seeds, noisy) if hit]
    real, imag = noise_normals(seeds, lengths)
    scale = np.repeat([math.sqrt(10.0 ** (-snr / 10.0) / 2.0) for snr in snrs_db], lengths)
    real *= scale
    imag *= scale
    if mask is None:
        symbols.real += real
        symbols.imag += imag
    else:
        symbols.real[mask] += real
        symbols.imag[mask] += imag
