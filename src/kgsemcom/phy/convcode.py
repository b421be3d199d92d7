"""Terminated convolutional code, constraint length K = 7, punctured to a
rate picked from the SNR, with maximum-likelihood Viterbi decoding of soft
bit metrics. ``GENERATORS`` is the mother code (rate 1/2): each trellis step
emits one bit per generator, in tuple order, and a generator's top bit
multiplies the newest input. The encoder appends TAIL zero bits and then
sends only the positions a puncturing pattern keeps, the pattern repeated
over the whole interleaved output, tail included. ``PUNCTURES`` is the one
table of patterns, rates 2/3, 5/6 and 7/8 of this one mother code (rate-
compatible punctured codes), each with the lowest SNR it serves, and
``puncture`` the one place a frame's SNR picks its pattern. The encoder and
the decoder take any pattern that covers whole trellis steps and keeps a bit
of each ((1, 1) is the unpunctured mother code). L info bits make
``coded_length(L, pattern)`` coded bits, the one size formula, and an empty
frame sends nothing.

The decoder takes one int8 metric per sent bit, positive for a 0, at most
``METRIC_MAX`` in size, and puts a zero metric (an erasure) back at each
punctured position; ``depuncture`` is that step alone, so frames of one
trellis length decode together as ``UNPUNCTURED`` whatever their patterns. A branch costs sum_g metric_g * sign_g, sign_g being +1
where the branch emits a 1 on generator g and -1 where it emits a 0, so the
least-cost path is the maximum-likelihood word for max-log bit metrics. Hard
bits r enter as 1 - 2r; a branch then costs 2 * Hamming minus the step's kept
bits, an affine map of the Hamming metric, exact ML for hard decisions.

It is batched over frames and runs as a radix-2 butterfly. State ``b<<5 | m``
(newest input in the MSB) has the predecessors ``m<<1 | j``, so the 64 path
metrics viewed as (32, 2) hold each state's predecessor pair, for both values
of ``b``. One trellis step is an add-compare-select of two ufunc calls:
``np.add`` of those metrics and the step's branch costs, then ``np.minimum``
over ``j``. Branch costs are summed once per block of steps, and the block's
decisions come from one comparison after it; a tie keeps predecessor bit 0.
Each frame is traced back from state 0 to step 0 in a byte-wise loop.
"""

import math
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bits import Bits, as_bits

GENERATORS = (0o171, 0o133)
# (lowest SNR in dB, pattern), by rising SNR. A pattern marks the kept (1) and
# punctured (0) positions of the interleaved output, repeated over it. The rows
# are the standard rate-2/3, 5/6 and 7/8 matrices of this code (as in DVB-S and
# IEEE 802.11a); the thresholds are demos/rate_schedule.py's rule on two
# held-out graphs: the highest rate that costs no similarity at that SNR.
PUNCTURES = (
    (-math.inf, (1, 1, 1, 0)),                                  # rate 2/3
    (10.0, (1, 1, 0, 1, 1, 0, 0, 1, 1, 0)),                     # rate 5/6
    (12.0, (1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0)),         # rate 7/8
)
UNPUNCTURED = (1,) * len(GENERATORS)  # the mother code: every output bit sent
METRIC_MAX = 120 // len(GENERATORS)  # so a branch's int8 sum cannot overflow
K = 7
NSTATES = 64
TAIL = K - 1
_BLOCK = 1024  # frames x trellis steps per block: 0.5 MB of int32 candidates


class _Puncturing(NamedTuple):
    mask: np.ndarray  # the pattern as bools
    steps: int        # trellis steps per period
    kept: tuple[int, ...]  # kept[s]: bits kept by the first s steps of a period, s < steps
    sent: int         # bits kept per period


_LOWEST_SNRS = [snr_db for snr_db, _ in PUNCTURES]

# _SIGNS[g, b, m, j]: +1 where generator g emits a 1 from register b<<6 | m<<1 | j, else -1
_SIGNS = np.array([[(bin(reg & g).count("1") & 1) * 2 - 1 for reg in range(2 * NSTATES)]
                   for g in GENERATORS], dtype=np.int8).reshape(-1, 2, 32, 2)


def puncture(snr_db: float) -> tuple[int, ...]:
    """The pattern of the last ``PUNCTURES`` row whose lowest SNR is at most
    ``snr_db``; +inf, the noiseless channel, takes the top row."""
    if math.isnan(snr_db):
        raise ValueError("snr_db must not be NaN")
    return PUNCTURES[bisect_right(_LOWEST_SNRS, snr_db) - 1][1]


def code_rate(pattern: tuple[int, ...]) -> Fraction:
    """Info bits per sent bit under ``pattern``, tail aside."""
    p = _puncturing(pattern)
    return Fraction(p.steps, p.sent)


@lru_cache(maxsize=64)
def _puncturing(pattern: tuple[int, ...]) -> _Puncturing:
    """A pattern's kept mask and prefix sums, built once per pattern."""
    N = len(GENERATORS)
    steps = len(pattern) // N
    if (not steps or len(pattern) % N or set(pattern) - {0, 1}
            or not all(any(pattern[N * s:N * (s + 1)]) for s in range(steps))):
        raise ValueError(f"{pattern!r} is no puncturing pattern: 0/1 per output bit, "
                         "whole trellis steps, each keeping a bit")
    return _Puncturing(np.array(pattern, dtype=bool), steps,
                       tuple(sum(pattern[:N * s]) for s in range(steps)), sum(pattern))


for _, _pattern in PUNCTURES:  # the table's rows are built at import
    _puncturing(_pattern)


def coded_length(n_info: int, pattern: tuple[int, ...]) -> int:
    """Coded bits sent for a terminated frame of ``n_info`` info bits."""
    p = _puncturing(pattern)
    if not n_info:
        return 0
    periods, steps = divmod(n_info + TAIL, p.steps)
    return periods * p.sent + p.kept[steps]


def conv_encode_frames(info: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    """Encode a (B, L) batch of info bits to (B, coded_length(L, pattern)) frames."""
    p = _puncturing(pattern)
    if info.ndim != 2:
        raise ValueError("expected a (B, L) batch")
    B, L = info.shape
    if not L:
        return np.zeros((B, 0), dtype=np.uint8)
    return _mother_encode(info)[:, _kept(p, L + TAIL)]


def _kept(p: _Puncturing, steps: int) -> np.ndarray:
    """Which of ``steps`` trellis steps' interleaved output bits ``p`` sends."""
    return p.mask[np.arange(len(GENERATORS) * steps) % len(p.mask)]


def _mother_encode(info: np.ndarray) -> np.ndarray:
    """The unpunctured (B, len(GENERATORS) * (L + TAIL)) output of a (B, L) batch."""
    B, L = info.shape
    T = L + TAIL
    # K-1 leading zeros as the start state, the info bits, then the zero tail
    xp = np.zeros((B, K - 1 + T), dtype=np.uint8)
    xp[:, K - 1:K - 1 + L] = info
    out = np.zeros((B, len(GENERATORS) * T), dtype=np.uint8)
    for col, g in enumerate(GENERATORS):
        for s in range(K):  # bit s of g taps the input K-1-s steps back
            if g >> s & 1:
                out[:, col::len(GENERATORS)] ^= xp[:, s: s + T]
    return out


def conv_encode(info: Bits, pattern: tuple[int, ...]) -> Bits:
    """Encode one frame: L info bits -> coded_length(L, pattern) coded bits."""
    info = as_bits(info)
    return conv_encode_frames(info.reshape(1, -1), pattern)[0]


def depuncture(metrics: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    """The mother code's (B, len(GENERATORS) * (L + TAIL)) metrics of a
    (B, coded_length(L, pattern)) int8 batch: a zero metric (an erasure) at
    each punctured position. An unpunctured batch comes back as it is."""
    p = _puncturing(pattern)
    if metrics.ndim != 2 or metrics.dtype != np.int8:
        raise ValueError("expected a (B, n) batch of int8 metrics")
    B, n = metrics.shape
    if not n:
        return metrics
    periods, rest = divmod(n, p.sent)
    if rest not in p.kept:
        raise ValueError(f"no frame is coded to {n} bits")
    T = periods * p.steps + p.kept.index(rest)
    if T <= TAIL:
        raise ValueError("frame no longer than the termination tail")
    if p.sent == len(pattern):
        return metrics
    full = np.zeros((B, len(GENERATORS) * T), dtype=np.int8)
    full[:, _kept(p, T)] = metrics
    return full


def viterbi_decode_frames(metrics: np.ndarray, pattern: tuple[int, ...]) -> np.ndarray:
    """Decode a (B, coded_length(L, pattern)) batch of int8 bit metrics,
    positive favouring a 0 and at most ``METRIC_MAX`` in size, to (B, L)
    info bits."""
    full = depuncture(metrics, pattern)
    if metrics.size and max(-int(metrics.min()), int(metrics.max())) > METRIC_MAX:
        raise ValueError(f"metrics must lie within +-{METRIC_MAX}")
    if not full.shape[1]:
        return np.zeros((len(full), 0), dtype=np.uint8)
    return _viterbi(full)


def _viterbi(metrics: np.ndarray) -> np.ndarray:
    """The least-cost info bits of a (B, len(GENERATORS) * T) int8 metric
    batch, every position present."""
    N = len(GENERATORS)
    B, n = metrics.shape
    T = n // N
    # mu[t, g]: step t's metrics on generator g, a (B, 1, 1, 1) column
    mu = metrics.reshape(B, T, N, 1, 1, 1).transpose(1, 2, 0, 3, 4, 5)
    pm = np.full((B, NSTATES), 1 << 30, dtype=np.int32)
    pm[:, 0] = 0
    pm_in = pm.reshape(B, 1, 32, 2)   # pm_in[:, 0, m, j] = pm[:, m<<1 | j]
    pm_out = pm.reshape(B, 2, 32)     # pm_out[:, b, m] = pm[:, b<<5 | m]
    steps = min(T, max(1, _BLOCK // max(B, 1)))
    cand = np.empty((steps, B, 2, 32, 2), dtype=np.int32)
    cand0, cand1 = cand[..., 0], cand[..., 1]
    bm_buf, term = np.empty((2, steps, B, 2, 32, 2), dtype=np.int8)
    choice = np.empty((B, T, NSTATES), dtype=np.uint8)
    for t0 in range(0, T, steps):
        k = min(steps, T - t0)
        bm = np.multiply(mu[t0:t0 + k, 0], _SIGNS[0], out=bm_buf[:k])
        for g in range(1, N):
            bm += np.multiply(mu[t0:t0 + k, g], _SIGNS[g], out=term[:k])
        for bm_t, cand_t, c0, c1 in zip(bm, cand, cand0, cand1):  # stops after bm's k
            np.add(pm_in, bm_t, out=cand_t)
            np.minimum(c0, c1, out=pm_out)
        decided = cand1[:k] < cand0[:k]  # a tie keeps predecessor bit 0
        choice[:, t0:t0 + k] = decided.reshape(k, B, NSTATES).swapaxes(0, 1)
    return _traceback(choice)[:, : T - TAIL]


def _traceback(choice: np.ndarray) -> np.ndarray:
    """Follow each frame's (T, 64) decisions back from state 0 at step T."""
    B, T, _ = choice.shape
    flat = choice.reshape(-1).data
    bits = bytearray(B * T)
    for end in range(T, B * T + 1, T):
        state = 0
        for i in range(end - 1, end - T - 1, -1):
            bits[i] = state >> 5
            state = (state & 31) << 1 | flat[i * NSTATES + state]
    return np.frombuffer(bits, dtype=np.uint8).reshape(B, T)
