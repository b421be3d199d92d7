"""End-to-end transmission of id frames: UEP channel coding, 16QAM, AWGN.

The protected stream is encoded with the punctured code of ``convcode``, its
pattern picked from the row's SNR by ``convcode.puncture`` (rate 2/3 below
10 dB, 5/6 from 10 dB, 7/8 from 12 dB; a frame with no protected id sends no
coded bits); the unprotected stream enters the channel as-is. Rows are grouped
by (frame, pattern), and each group's two streams cross
``qam.channel_groups`` (16QAM, AWGN) as two groups, each with the group's rows
of plain SNR and noise-seed values: the coded group comes back as soft bit
metrics for the Viterbi decoder, the uncoded one as hard-sliced bits.
``channel_bit_cost`` sizes both from ``frame.payload_bits`` and
``convcode.coded_length`` at the SNR's pattern; nothing else restates them.
The two streams see independent noise derived from the same 64-bit seed, and
a row's noise depends on its seed alone, never on its group. The rows of one
group are decoded, parsed and checked for bit errors together.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .convcode import (UNPUNCTURED, coded_length, conv_encode, depuncture, puncture,
                       viterbi_decode_frames)
from .frame import TransmissionFrame, parse_streams, payload_bits, serialize_frame
from .qam import ChannelConfig, channel_groups
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


def transmit(frame: TransmissionFrame, cfg: ChannelConfig) -> TransmitResult:
    return transmit_many([frame], [cfg])[0]


def transmit_many(frames: Sequence[TransmissionFrame],
                  cfgs: Sequence[ChannelConfig]) -> list[TransmitResult]:
    """Send ``frames[i]`` over the channel of ``cfgs[i]``; result i equals
    ``transmit(frames[i], cfgs[i])``. The rows are grouped by (frame,
    pattern). Each group is serialized and encoded once, all coded and
    uncoded streams cross the channel in one call, each group's metrics are
    depunctured, Viterbi runs once per distinct trellis length, and each
    group is parsed and its bit errors counted as one 2-D array."""
    if len(frames) != len(cfgs):
        raise ValueError("one channel config per frame")
    if not frames:
        return []
    groups: dict[tuple[TransmissionFrame, tuple[int, ...]], list[int]] = {}
    for row, (frame, cfg) in enumerate(zip(frames, cfgs)):
        groups.setdefault((frame, puncture(cfg.snr_db)), []).append(row)
    sent = []
    for frame, pattern in groups:
        coded_info, uncoded = serialize_frame(frame)
        sent.append((coded_info, conv_encode(coded_info, pattern), uncoded))
    # each group's coded rows, then each group's uncoded rows, every row with
    # its own substream per class, so class sizes never shift the noise
    seeds = [cfgs[row].seed for rows in groups.values() for row in rows]
    n = len(seeds)
    keys = iter(seed_state((seeds + seeds, [0] * n + [1] * n), 1)[:, 0].tolist())
    snrs_db = [[cfgs[row].snr_db for row in rows] for rows in groups.values()]
    received = channel_groups(
        [coded for _, coded, _ in sent] + [uncoded for *_, uncoded in sent], snrs_db + snrs_db,
        [[next(keys) for _ in rows] for _ in range(2) for rows in groups.values()],
        soft=[True] * len(sent) + [False] * len(sent))
    rx_coded, rx_uncoded = received[:len(sent)], received[len(sent):]

    # on the mother code's trellis, groups of one trellis length share a
    # Viterbi call whatever their pattern
    full = [depuncture(rx, pattern) for rx, (_, pattern) in zip(rx_coded, groups)]
    decoded: list = [None] * len(sent)
    by_steps: dict[int, list[int]] = {}
    for group, metrics in enumerate(full):
        by_steps.setdefault(metrics.shape[1], []).append(group)
    for batch in by_steps.values():
        bits = viterbi_decode_frames(np.concatenate([full[g] for g in batch]), UNPUNCTURED)
        ends = np.cumsum([len(full[g]) for g in batch[:-1]])
        for group, part in zip(batch, np.split(bits, ends)):
            decoded[group] = part

    results: list = [None] * n
    for (frame, _), rows, (coded_info, coded, uncoded), rx_info, rx_plain in zip(
            groups, groups.values(), sent, decoded, rx_uncoded):
        rx = np.concatenate([rx_info, rx_plain], axis=1)
        ids = parse_streams(rx, frame.width).tolist()
        errors = rx != np.concatenate([coded_info, uncoded])
        split = len(coded_info)
        n_protected = len(frame.protected_ids)
        for row, row_ids, coded_errors, uncoded_errors in zip(
                rows, ids, np.count_nonzero(errors[:, :split], axis=1).tolist(),
                np.count_nonzero(errors[:, split:], axis=1).tolist()):
            results[row] = TransmitResult(
                received_protected=tuple(row_ids[:n_protected]),
                received_unprotected=tuple(row_ids[n_protected:]),
                coded_channel_bits=len(coded),
                uncoded_channel_bits=len(uncoded),
                coded_bit_errors=coded_errors,
                uncoded_bit_errors=uncoded_errors,
            )
    return results
