"""Physical layer: framing, channel coding, modulation, noise, seeding, baselines."""

from .bits import Bits, as_bits, ids_to_bits
from .convcode import (PUNCTURES, WordPrior, code_rate, conv_encode, conv_encode_frames,
                       puncture, viterbi_decode_frames, word_prior)
from .frame import TransmissionFrame, parse_coded_stream, payload_bits, serialize_frame
from .huffman import HuffmanTable, huffman_build, huffman_decode, huffman_encode
from .link import TransmitResult, channel_bit_cost, transmit, transmit_many
from .qam import (ChannelConfig, SymbolStream, awgn, noise_normals, qam16_demodulate,
                  qam16_modulate, transmit_bits, channel_groups)
from .seeding import seed_state

__all__ = [
    "Bits", "as_bits", "ids_to_bits",
    "PUNCTURES", "WordPrior", "code_rate", "conv_encode", "conv_encode_frames", "puncture",
    "viterbi_decode_frames", "word_prior",
    "TransmissionFrame", "parse_coded_stream", "payload_bits", "serialize_frame",
    "HuffmanTable", "huffman_build", "huffman_decode", "huffman_encode",
    "TransmitResult", "channel_bit_cost", "transmit", "transmit_many",
    "ChannelConfig", "SymbolStream", "awgn", "noise_normals", "qam16_demodulate",
    "qam16_modulate", "transmit_bits", "channel_groups",
    "seed_state",
]
