"""End-to-end transmission of one frame: UEP channel coding, 16QAM, AWGN.

The header+protected stream is convolutionally encoded before modulation; the
unprotected stream is modulated as-is. ``channel_bit_cost`` gives the total
channel bits from the frame sizes in ``frame.py`` (``payload_bits``) and the
code's tail; nothing else restates them. The two streams see independent
noise derived from the same 64-bit seed.
"""

from dataclasses import dataclass

import numpy as np

from .bits import Bits, bits_to_ids
from .convcode import TAIL, conv_encode, viterbi_decode_frames
from .frame import ID_BITS, TransmissionFrame, parse_coded_stream, payload_bits, serialize_frame
from .qam import ChannelConfig, awgn, qam16_demodulate, qam16_modulate


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


def channel_bit_cost(n_protected: int, n_unprotected: int) -> int:
    """Rate-1/2 coded header, protected ids and tail, plus the raw unprotected ids."""
    return 2 * (payload_bits(n_protected) + TAIL) + ID_BITS * n_unprotected


def transmit(frame: TransmissionFrame, cfg: ChannelConfig) -> TransmitResult:
    return transmit_many(frame, [cfg])[0]


def transmit_many(frame: TransmissionFrame, cfgs: list[ChannelConfig]) -> list[TransmitResult]:
    """Send the same frame over independently seeded channel realizations.
    Noise is drawn per config (bit-identical to one-at-a-time transmit calls);
    the Viterbi pass is batched across realizations."""
    coded_info, uncoded = serialize_frame(frame)
    coded = conv_encode(coded_info)
    tx_coded = qam16_modulate(coded)
    tx_uncoded = qam16_modulate(uncoded) if len(uncoded) else None

    rx_coded_bits = np.empty((len(cfgs), len(coded)), dtype=np.uint8)
    rx_uncoded_bits: list[Bits] = []
    for row, cfg in enumerate(cfgs):
        # separate substreams per class so class sizes never shift the noise
        c_cfg = ChannelConfig(cfg.snr_db, _substream_seed(cfg.seed, 0))
        rx_coded_bits[row] = qam16_demodulate(awgn(tx_coded, c_cfg))
        if tx_uncoded is not None:
            u_cfg = ChannelConfig(cfg.snr_db, _substream_seed(cfg.seed, 1))
            rx_uncoded_bits.append(qam16_demodulate(awgn(tx_uncoded, u_cfg)))
        else:
            rx_uncoded_bits.append(np.zeros(0, dtype=np.uint8))

    decoded = viterbi_decode_frames(rx_coded_bits)
    results = []
    for row in range(len(cfgs)):
        parsed = parse_coded_stream(decoded[row])
        uncoded_ids = tuple(bits_to_ids(rx_uncoded_bits[row]))
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
