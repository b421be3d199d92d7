"""End-to-end transmission of one frame: UEP channel coding, 16QAM, AWGN.

The header+protected stream is convolutionally encoded before it enters the
channel; the unprotected stream enters as-is. Both cross ``qam.transmit_bits``
(16QAM, AWGN, hard slicing). ``frame.py`` serializes and parses both streams,
and ``channel_bit_cost`` gives the total channel bits from its
``payload_bits`` and the code's tail; nothing else restates them. The two
streams see independent noise derived from the same 64-bit seed.
"""

from dataclasses import dataclass

import numpy as np

from .convcode import TAIL, conv_encode, viterbi_decode_frames
from .frame import (TransmissionFrame, parse_coded_stream, parse_uncoded_stream,
                    payload_bits, serialize_frame)
from .qam import ChannelConfig, transmit_bits


@dataclass(frozen=True)
class TransmitResult:
    received_protected: tuple[int, ...]
    received_unprotected: tuple[int, ...]
    coded_channel_bits: int
    uncoded_channel_bits: int
    coded_bit_errors: int    # info-bit errors on the decoded header+protected stream
    uncoded_bit_errors: int
    header_consistent: bool

    @property
    def received_ids(self) -> tuple[int, ...]:
        """Protected-first concatenation, as handed to reconstruction."""
        return self.received_protected + self.received_unprotected

    @property
    def channel_bits(self) -> int:
        return self.coded_channel_bits + self.uncoded_channel_bits


def channel_bit_cost(n_protected: int, n_unprotected: int, width: int) -> int:
    """Rate-1/2 coded header, protected ids and tail, plus the raw unprotected
    ids: the payload once, its coded part again as parity, the tail twice."""
    return (payload_bits(n_protected + n_unprotected, width)
            + payload_bits(n_protected, width) + 2 * TAIL)


def transmit(frame: TransmissionFrame, cfg: ChannelConfig) -> TransmitResult:
    return transmit_many(frame, [cfg])[0]


def transmit_many(frame: TransmissionFrame, cfgs: list[ChannelConfig]) -> list[TransmitResult]:
    """Send the same frame over independently seeded channel realizations.
    Noise is drawn per config (bit-identical to one-at-a-time transmit calls);
    the Viterbi pass is batched across realizations."""
    coded_info, uncoded = serialize_frame(frame)
    coded = conv_encode(coded_info)
    # separate substreams per class so class sizes never shift the noise
    rx_coded_bits = transmit_bits(coded, [ChannelConfig(c.snr_db, _substream_seed(c.seed, 0))
                                          for c in cfgs])
    rx_uncoded_bits = transmit_bits(uncoded, [ChannelConfig(c.snr_db, _substream_seed(c.seed, 1))
                                              for c in cfgs])

    decoded = viterbi_decode_frames(rx_coded_bits)
    results = []
    for row in range(len(cfgs)):
        parsed = parse_coded_stream(decoded[row], frame.width)
        uncoded_ids = parse_uncoded_stream(rx_uncoded_bits[row], frame.width)
        results.append(TransmitResult(
            received_protected=parsed.ids,
            received_unprotected=uncoded_ids,
            coded_channel_bits=len(coded),
            uncoded_channel_bits=len(uncoded),
            coded_bit_errors=int(np.count_nonzero(decoded[row] != coded_info)),
            uncoded_bit_errors=int(np.count_nonzero(rx_uncoded_bits[row] != uncoded)),
            header_consistent=parsed.header_consistent and parsed.n_unprotected == len(uncoded_ids),
        ))
    return results


def _substream_seed(seed: int, stream: int) -> int:
    state = np.random.SeedSequence((seed, stream)).generate_state(1, np.uint64)
    return int(state[0])
