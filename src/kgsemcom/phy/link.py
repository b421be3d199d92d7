"""End-to-end transmission of id frames: UEP channel coding, 16QAM, AWGN.

The protected stream is encoded with the code ``convcode.GENERATORS`` (a frame
with no protected id still sends its tail); the unprotected stream enters the
channel as-is. Both cross ``qam.channel_rows`` (16QAM, AWGN, hard slicing),
which takes each row's SNR and noise seed as plain values. ``channel_bit_cost``
sizes both from ``frame.payload_bits`` and ``convcode.coded_length``; nothing
else restates them. The two streams see independent noise derived from the
same 64-bit seed. The rows that send one frame are decoded, parsed and checked
for bit errors together, as 2-D arrays.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .convcode import coded_length, conv_encode, viterbi_decode_frames
from .frame import TransmissionFrame, parse_streams, payload_bits, serialize_frame
from .qam import ChannelConfig, channel_rows
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


def channel_bit_cost(n_protected: int, n_unprotected: int, width: int) -> int:
    """The coded protected ids plus the raw unprotected ids."""
    return coded_length(payload_bits(n_protected, width)) + payload_bits(n_unprotected, width)


def transmit(frame: TransmissionFrame, cfg: ChannelConfig) -> TransmitResult:
    return transmit_many([frame], [cfg])[0]


def transmit_many(frames: Sequence[TransmissionFrame],
                  cfgs: Sequence[ChannelConfig]) -> list[TransmitResult]:
    """Send ``frames[i]`` over the channel of ``cfgs[i]``; result i equals
    ``transmit(frames[i], cfgs[i])``. The rows are grouped by distinct frame.
    Each frame is serialized and encoded once, all coded and uncoded streams
    cross the channel in one call, Viterbi runs once per distinct coded
    length, and each group is parsed and its bit errors counted as one 2-D
    array."""
    if len(frames) != len(cfgs):
        raise ValueError("one channel config per frame")
    if not frames:
        return []
    groups: dict[TransmissionFrame, list[int]] = {}
    for row, frame in enumerate(frames):
        groups.setdefault(frame, []).append(row)
    sent = []
    for frame in groups:
        coded_info, uncoded = serialize_frame(frame)
        sent.append((coded_info, conv_encode(coded_info), uncoded))
    sizes = [len(rows) for rows in groups.values()]
    # the channel's rows follow the groups; separate substreams per class so
    # class sizes never shift the noise
    order = [row for rows in groups.values() for row in rows]
    n = len(order)
    snrs_db = [cfgs[row].snr_db for row in order]
    seeds = [cfgs[row].seed for row in order]
    substream = seed_state((seeds + seeds, [0] * n + [1] * n), 1)[:, 0].tolist()
    received = channel_rows([coded for (_, coded, _), k in zip(sent, sizes) for _ in range(k)]
                            + [uncoded for (*_, uncoded), k in zip(sent, sizes) for _ in range(k)],
                            snrs_db + snrs_db, substream)
    ends = np.cumsum(sizes).tolist()
    rx_coded = [np.stack(received[end - k:end]) for end, k in zip(ends, sizes)]
    rx_uncoded = [np.stack(received[n + end - k:n + end]) for end, k in zip(ends, sizes)]

    decoded: list = [None] * len(sent)
    by_length: dict[int, list[int]] = {}
    for group, (_, coded, _) in enumerate(sent):
        by_length.setdefault(len(coded), []).append(group)
    for batch in by_length.values():
        bits = viterbi_decode_frames(np.concatenate([rx_coded[g] for g in batch]))
        for group, part in zip(batch, np.split(bits, np.cumsum([sizes[g] for g in batch[:-1]]))):
            decoded[group] = part

    results: list = [None] * n
    for frame, rows, (coded_info, coded, uncoded), rx_info, rx_plain in zip(
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
