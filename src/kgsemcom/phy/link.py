"""End-to-end transmission of id frames: UEP channel coding, 16QAM, AWGN.

The protected stream is encoded with the punctured code of ``convcode``, its
pattern picked from the row's SNR by ``convcode.puncture`` (rate 2/3 below
10 dB, 3/4 from 10 dB, 7/8 from 12 dB; a frame with no protected id sends no
coded bits); the unprotected stream enters the channel as-is. Each distinct
frame's uncoded stream is one channel group over all its rows, and its coded
stream one group per pattern its rows' SNRs pick; all cross
``qam.channel_groups`` (16QAM, AWGN) in one call, each group with its rows of
plain SNR and noise-seed values: a coded group comes back as soft bit metrics
for the Viterbi decoder, an uncoded one as hard-sliced bits.
``channel_bit_cost`` sizes both from ``frame.payload_bits`` and
``convcode.coded_length`` at the SNR's pattern; nothing else restates them.
The two streams see independent noise derived from the same 64-bit seed, and
a row's noise depends on its seed alone, never on its group. The rows of one
frame are parsed and checked for bit errors together. Decoding is row by row
as well, so a row's result never depends on the other rows of the call: a
caller may batch the rows of many sentences (the sweep sends the kgrag rows
of a group of sentences in one call), and the decoder bounds its working set
by decoding and searching a few rows at a time.

The receiver may know which protected words are plausible: a
``convcode.WordPrior`` of N valid ranks and the rank pairs a KG triple joins,
which the harness builds from its copy of the KG. With one, each Viterbi word
of one or two ranks that the prior does not hold gives way to the most
likely word it holds, if that word's log-likelihood is within
``convcode.PRIOR_NATS`` of the Viterbi word's (``convcode.decode_in_prior``).
Each row's margin in metric steps is ``PRIOR_NATS`` over ``qam.step_nats``
at its SNR, so it narrows as the SNR rises. Without a prior, every word is
valid and the Viterbi word stands.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .convcode import (UNPUNCTURED, WordPrior, coded_length, conv_encode, decode_in_prior,
                       depuncture, puncture, viterbi_decode_frames)
from .frame import TransmissionFrame, parse_streams, payload_bits, serialize_frame
from .qam import ChannelConfig, channel_groups, step_nats
from .seeding import seed_state


@dataclass(frozen=True)
class TransmitResult:
    received_protected: tuple[int, ...]
    received_unprotected: tuple[int, ...]
    coded_channel_bits: int
    uncoded_channel_bits: int
    coded_bit_errors: int    # info-bit errors on the decoded protected stream
    uncoded_bit_errors: int

    @property
    def received_ids(self) -> tuple[int, ...]:
        """Protected-first concatenation, as handed to reconstruction."""
        return self.received_protected + self.received_unprotected

    @property
    def channel_bits(self) -> int:
        return self.coded_channel_bits + self.uncoded_channel_bits


def channel_bit_cost(n_protected: int, n_unprotected: int, width: int, snr_db: float) -> int:
    """The protected ids coded at ``snr_db``'s pattern plus the raw unprotected ids."""
    return (coded_length(payload_bits(n_protected, width), puncture(snr_db))
            + payload_bits(n_unprotected, width))


def transmit(frame: TransmissionFrame, cfg: ChannelConfig,
             prior: WordPrior | None = None) -> TransmitResult:
    return transmit_many([frame], [cfg], prior)[0]


def transmit_many(frames: Sequence[TransmissionFrame], cfgs: Sequence[ChannelConfig],
                  prior: WordPrior | None = None) -> list[TransmitResult]:
    """Send ``frames[i]`` over the channel of ``cfgs[i]``; result i equals
    ``transmit(frames[i], cfgs[i], prior)``. Each distinct frame is
    serialized once, and its rows are split by pattern into coded groups;
    all coded and uncoded streams cross the channel in one call, each coded
    group's metrics are depunctured, Viterbi runs once per distinct trellis
    length and width, ``decode_in_prior`` checks those words against
    ``prior`` (None: every word is valid), and each frame's rows are parsed
    and their bit errors counted as one 2-D array."""
    if len(frames) != len(cfgs):
        raise ValueError("one channel config per frame")
    if not frames:
        return []
    by_frame: dict[TransmissionFrame, list[int]] = {}
    for row, frame in enumerate(frames):
        by_frame.setdefault(frame, []).append(row)
    streams = {frame: serialize_frame(frame) for frame in by_frame}
    # a coded group: a frame's rows at one pattern, and their places among its rows
    by_code: dict[tuple[TransmissionFrame, tuple[int, ...]], tuple[list[int], list[int]]] = {}
    for frame, rows in by_frame.items():
        for place, row in enumerate(rows):
            group_rows, places = by_code.setdefault((frame, puncture(cfgs[row].snr_db)), ([], []))
            group_rows.append(row)
            places.append(place)
    coded = [conv_encode(streams[frame][0], pattern) for frame, pattern in by_code]
    # every row with its own substream per class, so class sizes never shift the noise
    n = len(frames)
    seeds = [cfg.seed for cfg in cfgs]
    keys = seed_state((seeds + seeds, [0] * n + [1] * n), 1)[:, 0].tolist()
    groups = [rows for rows, _ in by_code.values()] + list(by_frame.values())
    received = channel_groups(
        coded + [plain for _, plain in streams.values()],
        [[cfgs[row].snr_db for row in rows] for rows in groups],
        [[keys[row] for row in rows] for rows in groups[:len(coded)]]
        + [[keys[n + row] for row in rows] for rows in by_frame.values()],
        soft=[True] * len(coded) + [False] * len(by_frame))
    # each frame's received streams, one row per frame row: the uncoded one
    # now, the coded one as it is decoded, and each row's coded length
    rx = {}
    coded_bits = {frame: np.zeros(len(rows), dtype=np.int64) for frame, rows in by_frame.items()}
    for (frame, rows), rx_plain in zip(by_frame.items(), received[len(coded):]):
        info, plain = streams[frame]
        rx[frame] = np.empty((len(rows), len(info) + len(plain)), dtype=np.uint8)
        rx[frame][:, len(info):] = rx_plain

    # on the mother code's trellis, groups of one trellis length and word
    # width share a Viterbi call and a check against the prior, whatever
    # their pattern
    full = [depuncture(metrics, pattern) for metrics, (_, pattern) in zip(received, by_code)]
    batches: dict[tuple[int, int], list[int]] = {}
    for group, (metrics, (frame, _)) in enumerate(zip(full, by_code)):
        batches.setdefault((metrics.shape[1], frame.width), []).append(group)
    code_groups = list(by_code.items())
    for (_, width), batch in batches.items():
        metrics = np.concatenate([full[g] for g in batch])
        nats = [step_nats(cfgs[row].snr_db) for g in batch for row in code_groups[g][1][0]]
        bits = decode_in_prior(metrics, viterbi_decode_frames(metrics, UNPUNCTURED), width, prior,
                               nats)
        for g, part in zip(batch, np.split(bits, np.cumsum([len(full[g]) for g in batch[:-1]]))):
            (frame, _), (_, places) = code_groups[g]
            rx[frame][places, :part.shape[1]] = part
            coded_bits[frame][places] = len(coded[g])

    results: list = [None] * n
    for frame, rows in by_frame.items():
        info, plain = streams[frame]
        ids = parse_streams(rx[frame], frame.width).tolist()
        errors = rx[frame] != np.concatenate([info, plain])
        n_protected = len(frame.protected_ids)
        for row, row_ids, sent, coded_errors, uncoded_errors in zip(
                rows, ids, coded_bits[frame].tolist(),
                np.count_nonzero(errors[:, :len(info)], axis=1).tolist(),
                np.count_nonzero(errors[:, len(info):], axis=1).tolist()):
            results[row] = TransmitResult(
                received_protected=tuple(row_ids[:n_protected]),
                received_unprotected=tuple(row_ids[n_protected:]),
                coded_channel_bits=sent,
                uncoded_channel_bits=len(plain),
                coded_bit_errors=coded_errors,
                uncoded_bit_errors=uncoded_errors,
            )
    return results
