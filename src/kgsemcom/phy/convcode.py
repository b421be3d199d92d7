"""Rate-1/2 convolutional code, constraint length 7, generators 171/133 octal,
with hard-decision maximum-likelihood Viterbi decoding.

Frames are zero-terminated: the encoder appends six zero tail bits, so a
length-L input produces 2*(L+6) coded bits and the decoder traces back from
the all-zero state. The decoder core is batched over frames; the Hamming
path metric makes it exact ML for hard decisions.
"""

import numpy as np

from .bits import Bits, as_bits

K = 7
G1 = 0o171
G2 = 0o133
NSTATES = 64
TAIL = K - 1


def _build_trellis():
    """Tables keyed by next-state: its two predecessors and their branch
    metrics per received pair. State = last six inputs, newest in the MSB."""
    pred = np.zeros((NSTATES, 2), dtype=np.int64)
    branch_out = np.zeros((NSTATES, 2), dtype=np.int64)
    for ns in range(NSTATES):
        b = ns >> 5
        for j in (0, 1):
            p = ((ns & 31) << 1) | j
            full = (b << 6) | p
            o1 = bin(full & G1).count("1") & 1
            o2 = bin(full & G2).count("1") & 1
            pred[ns, j] = p
            branch_out[ns, j] = (o1 << 1) | o2
    pop2 = np.array([0, 1, 1, 2], dtype=np.int32)
    # bm[rx_pair, ns, j] = Hamming distance of the branch output to rx_pair
    bm = np.zeros((4, NSTATES, 2), dtype=np.int32)
    for rx in range(4):
        bm[rx] = pop2[branch_out ^ rx]
    return pred, bm


_PRED, _BM = _build_trellis()


def conv_encode_frames(info: np.ndarray) -> np.ndarray:
    """Encode a (B, L) batch of info bits to (B, 2*(L+6)) terminated frames."""
    if info.ndim != 2:
        raise ValueError("expected a (B, L) batch")
    B, L = info.shape
    x = np.zeros((B, L + TAIL), dtype=np.uint8)
    x[:, :L] = info
    xp = np.pad(x, ((0, 0), (K - 1, 0)))
    T = L + TAIL
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
    rx = (coded[:, 0::2].astype(np.int64) << 1) | coded[:, 1::2]
    inf = np.int32(1 << 30)
    pm = np.full((B, NSTATES), inf, dtype=np.int32)
    pm[:, 0] = 0
    choice = np.empty((B, T, NSTATES), dtype=np.uint8)
    for t in range(T):
        cand = pm[:, _PRED] + _BM[rx[:, t]]
        choice[:, t] = np.argmin(cand, axis=2)  # ties: lower predecessor bit
        pm = np.min(cand, axis=2)
    state = np.zeros(B, dtype=np.int64)  # terminated frames end in state 0
    bits = np.empty((B, T), dtype=np.uint8)
    rows = np.arange(B)
    for t in range(T - 1, -1, -1):
        bits[:, t] = state >> 5
        j = choice[rows, t, state]
        state = ((state & 31) << 1) | j
    return bits[:, : T - TAIL]


def viterbi_decode(received: Bits) -> Bits:
    """Decode one frame of 2*(L+6) hard bits back to L info bits."""
    received = as_bits(received)
    return viterbi_decode_frames(received.reshape(1, -1))[0]
