"""Terminated convolutional code, constraint length K = 7, with maximum-
likelihood Viterbi decoding. ``GENERATORS`` is the code (rate 1/2 today): each
trellis step emits one bit per generator, in tuple order, and a generator's
top bit multiplies the newest input. The encoder appends TAIL zero bits, so L
info bits make ``coded_length(L)`` coded bits, the one size formula.

The decoder's core takes one int8 metric per coded bit, positive for a 0. A
branch costs sum_g metric_g * sign_g, sign_g being +1 where the branch emits a
1 on generator g and -1 where it emits a 0. Hard bits r enter as 1 - 2r, so a
branch costs 2 * Hamming - len(GENERATORS): an affine map of the Hamming
metric, exact ML for hard decisions.

It is batched over frames and runs as a radix-2 butterfly. State ``b<<5 | m``
(newest input in the MSB) has the predecessors ``m<<1 | j``, so the 64 path
metrics viewed as (32, 2) hold each state's predecessor pair, for both values
of ``b``. One trellis step is an add-compare-select of two ufunc calls:
``np.add`` of those metrics and the step's branch costs, then ``np.minimum``
over ``j``. Branch costs are summed once per block of steps, and the block's
decisions come from one comparison after it; a tie keeps predecessor bit 0.
Each frame is traced back from state 0 to step 0 in a byte-wise loop.
"""

import numpy as np

from .bits import Bits, as_bits

GENERATORS = (0o171, 0o133)
K = 7
NSTATES = 64
TAIL = K - 1
_BLOCK = 1024  # frames x trellis steps per block: 0.5 MB of int32 candidates

# _SIGNS[g, b, m, j]: +1 where generator g emits a 1 from register b<<6 | m<<1 | j, else -1
_SIGNS = np.array([[(bin(reg & g).count("1") & 1) * 2 - 1 for reg in range(2 * NSTATES)]
                   for g in GENERATORS], dtype=np.int8).reshape(-1, 2, 32, 2)


def coded_length(n_info: int) -> int:
    """Coded bits of a terminated frame of ``n_info`` info bits."""
    return len(GENERATORS) * (n_info + TAIL)


def conv_encode_frames(info: np.ndarray) -> np.ndarray:
    """Encode a (B, L) batch of info bits to (B, coded_length(L)) frames."""
    if info.ndim != 2:
        raise ValueError("expected a (B, L) batch")
    B, L = info.shape
    T = L + TAIL
    # K-1 leading zeros as the start state, the info bits, then the zero tail
    xp = np.zeros((B, K - 1 + T), dtype=np.uint8)
    xp[:, K - 1:K - 1 + L] = info
    out = np.zeros((B, coded_length(L)), dtype=np.uint8)
    for col, g in enumerate(GENERATORS):
        for s in range(K):  # bit s of g taps the input K-1-s steps back
            if g >> s & 1:
                out[:, col::len(GENERATORS)] ^= xp[:, s: s + T]
    return out


def conv_encode(info: Bits) -> Bits:
    """Encode one frame: L info bits -> coded_length(L) coded bits."""
    info = as_bits(info)
    return conv_encode_frames(info.reshape(1, -1))[0]


def viterbi_decode_frames(coded: np.ndarray) -> np.ndarray:
    """Decode a (B, coded_length(L)) batch of hard 0/1 bits to (B, L) info bits."""
    if coded.ndim != 2 or coded.shape[1] % len(GENERATORS):
        raise ValueError(f"expected a (B, {len(GENERATORS)}T) batch")
    if not np.all((coded == 0) | (coded == 1)):
        raise ValueError("coded frames must hold only 0/1 values")
    return _viterbi(1 - 2 * coded.astype(np.int8))


def _viterbi(metrics: np.ndarray) -> np.ndarray:
    """The least-cost info bits of a (B, coded_length(L)) int8 metric batch."""
    N = len(GENERATORS)
    B, n = metrics.shape
    T = n // N
    if T < TAIL:
        raise ValueError("frame shorter than the termination tail")
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


def viterbi_decode(received: Bits) -> Bits:
    """Decode one frame of coded_length(L) hard bits back to L info bits."""
    received = as_bits(received)
    return viterbi_decode_frames(received.reshape(1, -1))[0]
