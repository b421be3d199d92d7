"""Terminated convolutional code, constraint length K = 7, punctured to a
rate picked from the SNR, with maximum-likelihood Viterbi decoding of soft
bit metrics. ``GENERATORS`` is the mother code (rate 1/2): each trellis step
emits one bit per generator, in tuple order, and a generator's top bit
multiplies the newest input. The encoder appends TAIL zero bits and then
sends only the positions a puncturing pattern keeps, the pattern repeated
over the whole interleaved output, tail included. ``PUNCTURES`` is the one
table of patterns, rates 2/3, 3/4 and 7/8 of this one mother code (rate-
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
Each frame is traced back from state 0 to step 0 in a byte-wise loop. A batch
is decoded ``_FRAMES`` frames at a time, so its decisions take T * 64 bytes a
frame for that many frames, however large the batch.

``decode_in_prior`` turns the Viterbi words of frames of one or two W-bit
ranks into maximum-likelihood words within the receiver's candidate set, a
``WordPrior``: every rank below N for one rank, every listed sorted rank pair
for two (the harness lists the pairs a KG triple joins); frames of three or
more ranks keep the Viterbi word. A candidate replaces the Viterbi word only
if its log-likelihood falls short of the Viterbi word's by at most
``PRIOR_NATS``, the log prior ratio of a listed word over an unlisted one
(MAP with a two-level prior). The caller gives each row the nats one metric
step is worth, which grows with the SNR, so the margin in metric steps,
``PRIOR_NATS`` over that, shrinks as the SNR rises and is 0 on the
noiseless channel. A Viterbi word that no received bit disagrees with
stands, so an all-erased frame (SNR -inf) keeps the Viterbi word. It is
exact, and it is cheap:
- only a row whose Viterbi word lies outside the set is searched, since the
  Viterbi word is ML over a superset;
- a word's metric comes from prefix trees over the metrics, split at its
  tenth input: a table of its first ten inputs plus a table of the rest by
  the state those leave, 2^10 + 64 * 2^(W - 10) adds a row, not 2^W;
- a pair's metric splits as S1(a) + P(a mod 64, the first six inputs of b) +
  Q(b), because the register after word a holds a's last six bits, and
  backward and forward Viterbi passes over the 64 states give the best
  completion of each a and the best path into each b;
- first ranks are searched best first, in bands of ``_BAND`` metric steps
  above V* (the Viterbi word's metric): a first rank by S1(a) plus the best
  completion from a's state, a pair by Q(b) plus the best path into b's
  first six inputs, against the best pair so far or else the cut V* +
  margin; a row stops once its best pair lies within the bands searched;
- rows are searched ``_SEARCH_ROWS`` at a time, each chunk's metric tables
  built for it alone, so a large batch holds no more at once than a
  sentence's frames do. No row's result depends on the rest of its batch.
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
# are the standard rate-2/3, 3/4 and 7/8 matrices of this code (as in DVB-S and
# IEEE 802.11a); the thresholds are demos/rate_schedule.py's rule on two
# held-out graphs: the highest rate that costs no similarity at that SNR.
PUNCTURES = (
    (-math.inf, (1, 1, 1, 0)),                                  # rate 2/3
    (10.0, (1, 1, 0, 1, 1, 0)),                                 # rate 3/4
    (12.0, (1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0)),         # rate 7/8
)
UNPUNCTURED = (1,) * len(GENERATORS)  # the mother code: every output bit sent
METRIC_MAX = 120 // len(GENERATORS)  # so a branch's int8 sum cannot overflow
K = 7
NSTATES = 64
TAIL = K - 1
_BLOCK = 512  # frames x trellis steps per block: 0.25 MB of int32 candidates
_FRAMES = 32  # frames a Viterbi pass decodes at once: T * 64 bytes of decisions each
# the log prior ratio, in nats, of a listed word over an unlisted one: a
# candidate replaces the Viterbi word if its log-likelihood falls short of the
# Viterbi word's by at most this (demos/seed_margin.py fits it on a held-out
# graph)
PRIOR_NATS = 6.0
_BAND = 96  # metric steps of first-rank bounds a pair search takes at a time
_KEY_BITS = 32  # a row's best pair so far is metric << _KEY_BITS | pair
SEARCH_WIDTH_MAX = 20  # wider words keep the Viterbi word
_SEARCH_CELLS = 1 << 17  # rows x table cells searched at once: 0.5 MB an int32 table
_SEARCH_ROWS = 8  # and at most this many: about the searched rows of one sentence's frames
# beyond any path metric of a searched frame, |metric| <= 120 * (2 * 20 + TAIL),
# so sums of two metrics stay within int16
_FAR = 1 << 13


class _Puncturing(NamedTuple):
    mask: np.ndarray  # the pattern as bools
    steps: int        # trellis steps per period
    kept: tuple[int, ...]  # kept[s]: bits kept by the first s steps of a period, s < steps
    sent: int         # bits kept per period


_LOWEST_SNRS = [snr_db for snr_db, _ in PUNCTURES]

# _SIGNS[g, b, m, j]: +1 where generator g emits a 1 from register b<<6 | m<<1 | j, else -1
_SIGNS = np.array([[(bin(reg & g).count("1") & 1) * 2 - 1 for reg in range(2 * NSTATES)]
                   for g in GENERATORS], dtype=np.int8).reshape(-1, 2, 32, 2)
# _WINDOW_SIGNS[g, w]: the same signs by window w, whose bit i is the input i steps back
_WINDOW_SIGNS = np.array([[(bin(w & int(f"{g:07b}"[::-1], 2)).count("1") & 1) * 2 - 1
                           for w in range(2 * NSTATES)] for g in GENERATORS], dtype=np.int16)
# _ZERO_WINDOWS[j, s]: the window j + 1 zero inputs after state s
_ZERO_WINDOWS = np.arange(NSTATES) << np.arange(1, K)[:, None] & 2 * NSTATES - 1


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
    batch, every position present, decoded ``_FRAMES`` frames at a time,
    which bounds the decisions kept for the traceback."""
    if len(metrics) <= _FRAMES:
        return _viterbi_block(metrics)
    return np.concatenate([_viterbi_block(metrics[lo:lo + _FRAMES])
                           for lo in range(0, len(metrics), _FRAMES)])


def _viterbi_block(metrics: np.ndarray) -> np.ndarray:
    """``_viterbi`` of one block of frames."""
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


class WordPrior(NamedTuple):
    """The receiver's candidate words, as ranks: any one rank below
    ``n_ranks``, or one of the sorted rank pairs a < b whose keys
    a * n_ranks + b ``keys`` holds in order. ``word_prior`` builds it."""
    n_ranks: int
    keys: np.ndarray    # int64, sorted and distinct
    second: np.ndarray  # b of each key
    starts: np.ndarray  # the keys with first rank a are keys[starts[a]:starts[a + 1]]


def word_prior(n_ranks: int, ends) -> WordPrior:
    """The prior of ``n_ranks`` valid ranks and the rank pairs whose two ends
    are ``ends[0][i]`` and ``ends[1][i]``, two integer arrays, in any order
    and either way round; a pair of one rank twice is dropped, since a frame
    never repeats an id."""
    low, high = (np.asarray(e).ravel() for e in ends)
    low, high = np.minimum(low, high), np.maximum(low, high)
    if n_ranks < 1 or len(low) and not 0 <= low.min() <= high.max() < n_ranks:
        raise ValueError(f"pairs must hold ranks below n_ranks = {n_ranks}")
    keep = low != high
    keys = low[keep].astype(np.int64)
    keys *= n_ranks
    keys += high[keep]
    keys.sort()
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]] if len(keys) else keys
    first = keys // n_ranks
    second = keys - first * n_ranks
    return WordPrior(n_ranks, keys, second, np.searchsorted(first, np.arange(n_ranks + 1)))


def decode_in_prior(metrics: np.ndarray, bits: np.ndarray, width: int,
                    prior: WordPrior | None, step_nats) -> np.ndarray:
    """``bits``, the (B, L) Viterbi words of a (B, len(GENERATORS) * (L +
    TAIL)) batch of depunctured metrics, each made of L / ``width`` ranks,
    with each word of one or two ranks that ``prior`` does not hold replaced
    by the maximum-likelihood word it holds, if that word's path metric is at
    most the row's margin above the Viterbi word's and some received bit
    disagrees with the Viterbi word. ``step_nats[i]`` is the
    log-likelihood, in nats, of one metric step of row i, and the row's
    margin is ``PRIOR_NATS / step_nats[i]`` steps (any, where it is 0).
    Among equal metrics the lowest rank, or the first pair in key order,
    wins. ``prior`` None, any other rank count, or words wider than
    ``SEARCH_WIDTH_MAX`` return ``bits``."""
    B, L = bits.shape
    k = L // width if L % width == 0 else 0
    if prior is None or k not in (1, 2) or width > SEARCH_WIDTH_MAX:
        return bits
    n, keys = prior.n_ranks, prior.keys
    words = bits.reshape(B, k, width).astype(np.int64) @ (1 << np.arange(width - 1, -1, -1))
    if k == 1:
        outside = words[:, 0] >= n
    else:
        a, b = words.T
        at = np.minimum(np.searchsorted(keys, a * n + b), len(keys) - 1)
        outside = ~((a < b) & (b < n) & (keys[at] == a * n + b)) if len(keys) else a == a
    rows = np.flatnonzero(outside)
    if not rows.size:
        return bits
    found = []
    low = _split(width)
    step = min(_SEARCH_ROWS, max(1, _SEARCH_CELLS // ((1 << width - low) + (NSTATES << low))))
    for lo in range(0, len(rows), step):
        found += _search_rows(metrics, bits, rows[lo:lo + step], k, width, prior, step_nats)
    if not found:
        return bits
    out = bits.copy()
    words = np.array([word for _, word in found], dtype=np.int64).reshape(len(found), k, 1)
    out[[row for row, _ in found]] = (words >> np.arange(width - 1, -1, -1) & 1).reshape(
        len(found), -1)
    return out


def _search_rows(metrics: np.ndarray, bits: np.ndarray, rows: np.ndarray, k: int, width: int,
                 prior: WordPrior, step_nats) -> list:
    """``decode_in_prior``'s search over ``rows``, Viterbi words of ``k``
    ranks outside the prior -> (row, word) for each row whose best listed
    word replaces its Viterbi word; a word is a rank, or a pair of them."""
    L = bits.shape[1]
    # each row's branch metric by step and window, and its Viterbi word's
    # metric, read along the word's windows
    by_generator = metrics[rows].astype(np.int16).reshape(len(rows), -1, len(GENERATORS), 1)
    C = sum(by_generator[:, :, g] * _WINDOW_SIGNS[g] for g in range(len(GENERATORS)))
    inputs = np.zeros((len(rows), L + 2 * TAIL), dtype=np.int64)
    inputs[:, TAIL:TAIL + L] = bits[rows]
    windows = np.lib.stride_tricks.sliding_window_view(inputs, K, axis=1) @ (
        1 << np.arange(K - 1, -1, -1))
    viterbi = C.reshape(-1, 2 * NSTATES)[np.arange(windows.size), windows.ravel()].reshape(
        len(rows), -1).sum(axis=1, dtype=np.int64)
    # a word no received bit disagrees with stands, listed or not (at finite
    # SNR the margin alone keeps it; on an all-erased frame nothing else does)
    dirty = viterbi > -np.abs(metrics[rows]).sum(axis=1, dtype=np.int64)
    rows, C, viterbi = rows[dirty], C[dirty], viterbi[dirty]
    if not rows.size:
        return []
    # the margin in metric steps: PRIOR_NATS at the row's nats a step
    nats = np.asarray(step_nats, dtype=np.float64)[rows]
    margin = np.divide(PRIOR_NATS, nats, out=np.full(len(rows), float(_FAR)), where=nats > 0)
    cut = viterbi + np.minimum(margin, _FAR).astype(np.int64)
    words = (_search_one(C, cut, width, prior) if k == 1 else
             _search_pair(C, viterbi, cut, width, prior))
    return [(row, word) for row, word in zip(rows.tolist(), words) if word is not None]


def _word_metrics(C: np.ndarray, start: int, width: int, skip: int = 0) -> np.ndarray:
    """(R, 2^width) int16: each row's metric of every ``width``-bit word
    entering at trellis step ``start`` after zero inputs, over its steps
    from the ``skip``-th on, indexed by the word (its first input the top
    bit). It is a prefix tree: level i turns each prefix p into 2p + x, whose
    branch is the window of input x after p's last six inputs, p & 63 (zeros
    before the word), so a level is one add over (prefix, state, input)."""
    R = len(C)
    s = np.zeros((R, 1 << skip), dtype=np.int16)
    first = min(width, TAIL)
    if skip < first:  # the first levels in one gather: input i of p ends window p >> first - 1 - i
        i = np.arange(skip, first)[:, None]
        s = C[:, start + i, np.arange(1 << first) >> first - 1 - i].sum(axis=1, dtype=np.int16)
    for i in range(max(skip, first), width):
        m = min(1 << i, NSTATES)
        child = np.empty((R, 2 << i), dtype=np.int16).reshape(R, -1, m, 2)
        branch = C[:, start + i].reshape(R, 1, NSTATES, 2)[:, :, :m]
        for x in range(2):  # one add per input: a long inner loop, not one of two
            np.add(s.reshape(R, -1, m), branch[..., x], out=child[..., x])
        s = child.reshape(R, -1)
    return s


def _completions(C: np.ndarray, n_info: int, start: int, best: np.ndarray,
                 stop: int) -> np.ndarray:
    """(R, 64): each row's least metric from trellis step ``stop`` to step
    ``start``, where ``best`` takes over, by state (the last six inputs,
    newest in bit 0), over every input before step ``n_info`` and zeros from
    it. It is a backward Viterbi pass of two ufunc calls a step: state s goes
    to (2s + x) & 63, so the later metrics viewed as (32, 2) serve both
    halves of the states."""
    R = len(C)
    best = best.copy()
    cand = np.empty((R, 2, NSTATES // 2, 2), dtype=np.int16)
    for t in range(start - 1, stop - 1, -1):
        np.add(C[:, t].reshape(R, 2, NSTATES // 2, 2), best.reshape(R, 1, NSTATES // 2, 2),
               out=cand)
        if t >= n_info:
            np.copyto(best.reshape(R, 2, NSTATES // 2), cand[..., 0])
        else:
            np.minimum(cand[..., 0], cand[..., 1], out=best.reshape(R, 2, NSTATES // 2))
    return best


def _zeros_metric(C: np.ndarray, start: int) -> np.ndarray:
    """(R, 64): each row's metric of the zero inputs from trellis step
    ``start`` to the end (at most TAIL of them), by the state they start from."""
    steps = C.shape[1] - start
    return C[:, start + np.arange(steps)[:, None], _ZERO_WINDOWS[:steps]].sum(
        axis=1, dtype=np.int16)


def _split(width: int) -> int:
    """The low bits of a searched word: a word of more than 10 bits is
    scored as a high part of 10 bits and a low part after it, so each row
    holds 2^10 + 64 * 2^(W - 10) metrics a word, not 2^W."""
    return max(0, width - 10)


@lru_cache(maxsize=8)
def _state_after(low: int) -> np.ndarray:
    """(64, 2^low): the state after ``low`` inputs x from state s, (s <<
    low | x) & 63."""
    return (np.arange(NSTATES)[:, None] << low | np.arange(1 << low)) & NSTATES - 1


def _word_tables(C: np.ndarray, starts: tuple[int, ...], width: int,
                 skips: tuple[int, ...]):
    """Each row's metric of every ``width``-bit word x entering at step
    ``starts[k]`` after zero inputs, over its steps from the ``skips[k]``-th
    on, as high[k][x >> low] + low_part[k][(x >> low) & 63, x & (2^low -
    1)], low being ``_split(width)``: high[k] (R, 2^(W - low)) and
    low_part[k] (R, 64, 2^low), int32. The words of all k share one tree per
    part."""
    R, low = len(C), _split(width)
    h = width - low
    words = np.concatenate([C[:, start:start + h] for start in starts])
    for k, skip in enumerate(skips):  # a skipped step adds nothing
        words[k * R:(k + 1) * R, :skip] = 0
    high = _word_metrics(words, 0, h).astype(np.int32).reshape(len(starts), R, -1)
    if not low:
        return high, np.zeros((len(starts), R, NSTATES, 1), dtype=np.int32)
    # the low part from each state: a tree over the state's six inputs,
    # skipped, and then the low inputs
    words = np.concatenate([C[:, start + h - TAIL:start + width] for start in starts])
    part = _word_metrics(words, 0, TAIL + low, TAIL)
    return high, part.astype(np.int32).reshape(len(starts), R, NSTATES, -1)


def _by_state(part: np.ndarray, low: int) -> np.ndarray:
    """(R, 64): the least of ``part``, (R, 64, 2^low) by (state, low
    inputs), over each state the low inputs lead to."""
    R = len(part)
    if low >= TAIL:
        return part.min(axis=1).reshape(R, -1, NSTATES).min(axis=1)
    return part.reshape(R, 1 << low, -1, 1 << low).min(axis=1).reshape(R, NSTATES)


def _search_one(C, cut, width, prior):
    """The best rank below N of each row, or None if it misses the cut: the
    least S(a) + Z(a), Z being the zeros after a from its last six inputs,
    over the whole high parts below N by the least low part of each state,
    and over the partial high part at N by its own low parts."""
    R, low = len(C), _split(width)
    n = min(prior.n_ranks, 1 << width)
    (high,), (part,) = _word_tables(C, (0,), width, (0,))
    part += _zeros_metric(C, width)[:, _state_after(low)]
    whole, rest = n >> low, n & (1 << low) - 1
    states = np.arange(whole + (rest > 0)) & NSTATES - 1
    scores = high[:, :len(states)] + part.min(axis=2)[:, states]
    lows = part.argmin(axis=2)[:, states]  # the first least, so the lowest rank
    if rest:
        edge = part[:, states[-1], :rest]
        scores[:, -1] = high[:, whole] + edge.min(axis=1)
        lows[:, -1] = edge.argmin(axis=1)
    top = scores.argmin(axis=1)
    rows = np.arange(R)
    return [int(t) << low | int(x) if score <= c else None
            for t, x, score, c in zip(top.tolist(), lows[rows, top].tolist(),
                                      scores[rows, top].tolist(), cut.tolist())]


def _search_pair(C, viterbi, cut, width, prior):
    """The best listed pair (a, b) of each row, or None if none makes the cut.
    A pair's metric is S1(a) + P(a & 63, u) + Q(b), u being b's first six
    inputs, as the register after a holds a's last six: S1 and Q from
    ``_word_tables``, P from the six steps between. A first rank is pruned
    by S1(a) plus the best completion from its state over every b, and a
    pair by Q(b) plus the best path into u over every a; both bounds range
    over every word whose high part lies below N, listed or not."""
    n, second, starts = min(prior.n_ranks, 1 << width), prior.second, prior.starts
    R, W, low = len(C), width, _split(width)
    h, mask = W - low, (1 << low) - 1
    # b's metric counts from its seventh input on
    (a_high, b_high), (a_low, b_low) = _word_tables(C, (0, W), W, (0, TAIL))
    # the zeros after b, from its last six inputs (or from u and zeros, if W < 6)
    b_low += _zeros_metric(C, W + max(W, TAIL))[:, _state_after(low) << max(0, TAIL - W)
                                                & NSTATES - 1]
    blocks = -(-n >> low)  # high parts with a rank below N
    a_high[:, blocks:] = b_high[:, blocks:] = 1 << 20  # beyond any cut
    # the least Q by u, back through u's six steps: the best completion by
    # the state after a
    b_best = b_high + b_low.min(axis=2)[:, np.arange(1 << h) & NSTATES - 1]
    by_u = np.full((R, NSTATES), _FAR, dtype=np.int32)
    if W >= TAIL:
        by_u = np.minimum(by_u, b_best.reshape(R, NSTATES, -1).min(axis=2))
    else:
        by_u[:, np.arange(1 << W) << TAIL - W] = np.minimum(b_best, _FAR)
    beyond = _completions(C, 2 * W, W + TAIL, by_u.astype(np.int16), W).astype(np.int32)
    # the least S1 by the state after a, on through the six steps to u
    a_best = a_high.reshape(R, -1, NSTATES).min(axis=1) if h >= TAIL else np.full(
        (R, NSTATES), 1 << 20, dtype=np.int32)
    if h < TAIL:
        a_best[:, :1 << h] = a_high
    into = np.minimum(_by_state(a_best[:, :, None] + a_low, low), _FAR).astype(np.int16)
    step = np.empty((R, NSTATES, 2), dtype=np.int16)
    for t in range(W, W + TAIL):  # state s and input x lead to (2s + x) & 63
        np.add(into[:, :, None], C[:, t].reshape(R, NSTATES, 2), out=step)
        np.minimum(step[:, :NSTATES // 2].reshape(R, -1), step[:, NSTATES // 2:].reshape(R, -1),
                   out=into)

    # a first rank's bound: S1(a) + beyond[a & 63], by high part and low
    # part; a high part's bound is its least over the low parts
    a_bound = a_low + beyond[:, _state_after(low)]
    block_bound = a_high + a_bound.min(axis=2)[:, np.arange(1 << h) & NSTATES - 1]
    # best first, a band of _BAND metric steps above the Viterbi word's at a
    # time: a first rank is searched in the band of its bound, and a row is
    # done once its best pair lies within the bands searched, as no first
    # rank left can beat it. best[row] packs the least metric found (or the
    # cut) over the first pair in key order to have it.
    best = cut << _KEY_BITS | (1 << _KEY_BITS) - 1
    floor, todo = viterbi - 1, np.arange(R)
    while len(todo):
        top = np.minimum(floor + _BAND, best >> _KEY_BITS)
        i, t = np.divmod(np.flatnonzero(block_bound[todo] <= top[todo, None]), 1 << h)
        r = todo[i]
        bound = a_high[r, t][:, None] + a_bound[r, t & NSTATES - 1]
        j, x = np.divmod(np.flatnonzero((bound > floor[r, None]) & (bound <= top[r, None])),
                         1 << low)
        r, t = r[j], t[j]
        a = t << low | x
        real = a < n
        r, t, x, a = r[real], t[real], x[real], a[real]
        head_a = a_high[r, t] + a_low[r, t & NSTATES - 1, x]
        count = starts[a + 1] - starts[a]
        pair = np.repeat(starts[a] - np.cumsum(count) + count, count) + np.arange(count.sum())
        first = np.repeat(np.arange(len(a)), count)
        rf, b = r[first], second[pair]
        if prior.n_ranks > 1 << W:  # drop the second ranks no W-bit word names
            fits = b >> W == 0
            first, rf, b, pair = first[fits], rf[fits], b[fits], pair[fits]
        u = (b << TAIL) >> W
        q = b_high[rf, b >> low] + b_low[rf, (b >> low) & NSTATES - 1, b & mask]  # Q(b)
        keep = np.flatnonzero(q + into[rf, u] <= best[rf] >> _KEY_BITS)
        first, rf, pair = first[keep], rf[keep], pair[keep]
        y = (a[first] & NSTATES - 1) << TAIL | u[keep]  # a's last six inputs, then u
        metric = (C[rf[:, None], W + np.arange(TAIL), y[:, None] >> np.arange(TAIL - 1, -1, -1)
                    & 2 * NSTATES - 1].sum(axis=1, dtype=np.int64)
                  + head_a[first] + q[keep])
        np.minimum.at(best, rf, metric << _KEY_BITS | pair)
        floor[todo] += _BAND
        todo = todo[floor[todo] < best[todo] >> _KEY_BITS]
    best_pair = best & (1 << _KEY_BITS) - 1
    found: list = [None] * R
    for row in np.flatnonzero(best_pair < len(prior.keys)).tolist():
        found[row] = (int(prior.keys[best_pair[row]] // prior.n_ranks),
                      int(second[best_pair[row]]))
    return found
