"""End-to-end transmission of id frames: UEP channel coding, 16QAM, AWGN.

The protected stream is convolutionally encoded before it enters the channel
(a frame with no protected id still sends the code's tail); the unprotected
stream enters as-is. Both cross ``qam.transmit_rows`` (16QAM, AWGN, hard
slicing). ``frame.py`` serializes and parses both streams, and
``channel_bit_cost`` gives the total channel bits from its ``payload_bits``
and the code's tail; nothing else restates them. The two streams see
independent noise derived from the same 64-bit seed.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .convcode import TAIL, conv_encode, viterbi_decode_frames
from .frame import TransmissionFrame, parse_coded_stream, payload_bits, serialize_frame
from .qam import ChannelConfig, transmit_rows
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
    """Rate-1/2 coded protected ids and tail, plus the raw unprotected ids:
    the payload once, its coded part again as parity, the tail twice."""
    return (payload_bits(n_protected + n_unprotected, width)
            + payload_bits(n_protected, width) + 2 * TAIL)


def transmit(frame: TransmissionFrame, cfg: ChannelConfig) -> TransmitResult:
    return transmit_many([frame], [cfg])[0]


def transmit_many(frames: Sequence[TransmissionFrame],
                  cfgs: Sequence[ChannelConfig]) -> list[TransmitResult]:
    """Send ``frames[i]`` over the channel of ``cfgs[i]``; result i equals
    ``transmit(frames[i], cfgs[i])``. Each distinct frame is serialized and
    encoded once, all coded and uncoded streams cross the channel in one
    call, and Viterbi runs once per distinct coded length."""
    if len(frames) != len(cfgs):
        raise ValueError("one channel config per frame")
    if not frames:
        return []
    streams = {}
    for frame in frames:
        if frame not in streams:
            coded_info, uncoded = serialize_frame(frame)
            streams[frame] = (coded_info, conv_encode(coded_info), uncoded)
    sent = [streams[frame] for frame in frames]
    # separate substreams per class so class sizes never shift the noise
    n = len(cfgs)
    seeds = [c.seed for c in cfgs]
    substream = seed_state((seeds + seeds, [0] * n + [1] * n), 1)[:, 0].tolist()
    channels = [ChannelConfig(c.snr_db, s) for c, s in zip(list(cfgs) * 2, substream)]
    received = transmit_rows([coded for _, coded, _ in sent] + [uncoded for *_, uncoded in sent],
                             channels)
    rx_coded, rx_uncoded = received[:n], received[n:]

    decoded: list = [None] * n
    by_length: dict[int, list[int]] = {}
    for row, bits in enumerate(rx_coded):
        by_length.setdefault(len(bits), []).append(row)
    for rows in by_length.values():
        for row, bits in zip(rows, viterbi_decode_frames(np.stack([rx_coded[r] for r in rows]))):
            decoded[row] = bits

    results = []
    for frame, (coded_info, coded, uncoded), rx_info, rx_plain in zip(
            frames, sent, decoded, rx_uncoded):
        results.append(TransmitResult(
            received_protected=parse_coded_stream(rx_info, frame.width),
            received_unprotected=parse_coded_stream(rx_plain, frame.width),
            coded_channel_bits=len(coded),
            uncoded_channel_bits=len(uncoded),
            coded_bit_errors=int(np.count_nonzero(rx_info != coded_info)),
            uncoded_bit_errors=int(np.count_nonzero(rx_plain != uncoded)),
        ))
    return results
