"""Rate-1/2 convolutional code, constraint length 7, generators 171/133 octal,
with hard-decision maximum-likelihood Viterbi decoding.

Frames are zero-terminated: the encoder appends six zero tail bits, so a
length-L input produces 2*(L+6) coded bits and the decoder traces back from
the all-zero state. The Hamming path metric makes the decoder exact ML for
hard decisions.

The decoder is batched over frames and runs as a radix-2 butterfly. State
``b<<5 | m`` (newest input in the MSB) has the predecessors ``m<<1 | j``, so
the 64 path metrics viewed as (32, 2) hold each state's predecessor pair, for
both values of ``b``. One trellis step is an add-compare-select of two ufunc
calls: ``np.add`` of those metrics and the step's branch metrics, then
``np.minimum`` over ``j``. Branch metrics are gathered from the received
pairs once per block of steps, and the block's decisions come from one
comparison after it; a tie keeps predecessor bit 0. Each frame is then traced
back from state 0 in a byte-wise loop.
"""

import numpy as np

from .bits import Bits, as_bits

K = 7
G1 = 0o171
G2 = 0o133
NSTATES = 64
TAIL = K - 1
_BLOCK = 1024  # frames x trellis steps per block: 0.5 MB of int32 candidates


def _branch_metrics() -> np.ndarray:
    """bm[rx_pair, b, m, j]: Hamming distance from rx_pair to the output of
    the branch from state m<<1 | j on input b."""
    bm = np.zeros((4, 2, 32, 2), dtype=np.int8)
    for b in (0, 1):
        for m in range(32):
            for j in (0, 1):
                full = b << 6 | m << 1 | j
                out = (bin(full & G1).count("1") & 1) << 1 | bin(full & G2).count("1") & 1
                for rx in range(4):
                    bm[rx, b, m, j] = bin(out ^ rx).count("1")
    return bm


_BM = _branch_metrics()


def conv_encode_frames(info: np.ndarray) -> np.ndarray:
    """Encode a (B, L) batch of info bits to (B, 2*(L+6)) terminated frames."""
    if info.ndim != 2:
        raise ValueError("expected a (B, L) batch")
    B, L = info.shape
    T = L + TAIL
    # K-1 leading zeros as the start state, the info bits, then the zero tail
    xp = np.zeros((B, K - 1 + T), dtype=np.uint8)
    xp[:, K - 1:K - 1 + L] = info
    out = np.zeros((B, 2 * T), dtype=np.uint8)
    for col, g in ((0, G1), (1, G2)):
        for s in range(K):  # bit s of g taps the input K-1-s steps back
            if g >> s & 1:
                out[:, col::2] ^= xp[:, s: s + T]
    return out


def conv_encode(info: Bits) -> Bits:
    """Encode one frame: L info bits -> 2*(L+6) coded bits (g1 first per pair)."""
    info = as_bits(info)
    return conv_encode_frames(info.reshape(1, -1))[0]


def viterbi_decode_frames(coded: np.ndarray) -> np.ndarray:
    """Decode a (B, 2*(L+6)) batch of hard bits to (B, L) info bits."""
    if coded.ndim != 2 or coded.shape[1] % 2:
        raise ValueError("expected a (B, 2T) batch")
    B, n = coded.shape
    T = n // 2
    if T < TAIL:
        raise ValueError("frame shorter than the termination tail")
    if not np.all((coded == 0) | (coded == 1)):
        raise ValueError("coded frames must hold only 0/1 values")
    coded = coded.astype(np.uint8, copy=False)
    rx = coded[:, 0::2] << 1 | coded[:, 1::2]
    pm = np.full((B, NSTATES), 1 << 30, dtype=np.int32)
    pm[:, 0] = 0
    pm_in = pm.reshape(B, 1, 32, 2)   # pm_in[:, 0, m, j] = pm[:, m<<1 | j]
    pm_out = pm.reshape(B, 2, 32)     # pm_out[:, b, m] = pm[:, b<<5 | m]
    steps = min(T, max(1, _BLOCK // max(B, 1)))
    cand = np.empty((steps, B, 2, 32, 2), dtype=np.int32)
    cand0, cand1 = cand[..., 0], cand[..., 1]
    choice = np.empty((B, T, NSTATES), dtype=np.uint8)
    for t0 in range(0, T, steps):
        k = min(steps, T - t0)
        bm = _BM[rx[:, t0:t0 + k].T]
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
    """Decode one frame of 2*(L+6) hard bits back to L info bits."""
    received = as_bits(received)
    return viterbi_decode_frames(received.reshape(1, -1))[0]
