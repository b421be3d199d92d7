"""Physical layer: framing, channel coding, modulation, noise, baselines."""

from .bits import Bits, as_bits, bits_to_ids, ids_to_bits
from .convcode import conv_encode, conv_encode_frames, viterbi_decode, viterbi_decode_frames
from .frame import ParsedHeader, TransmissionFrame, parse_coded_stream, payload_bits, serialize_frame
from .huffman import HuffmanTable, huffman_build, huffman_decode, huffman_encode
from .link import TransmitResult, channel_bit_cost, transmit, transmit_many
from .qam import (ChannelConfig, SymbolStream, awgn, noise_generator,
                  qam16_demodulate, qam16_modulate)

__all__ = [
    "Bits", "as_bits", "bits_to_ids", "ids_to_bits",
    "conv_encode", "conv_encode_frames", "viterbi_decode", "viterbi_decode_frames",
    "ParsedHeader", "TransmissionFrame", "parse_coded_stream", "payload_bits",
    "serialize_frame",
    "HuffmanTable", "huffman_build", "huffman_decode", "huffman_encode",
    "TransmitResult", "channel_bit_cost", "transmit", "transmit_many",
    "ChannelConfig", "SymbolStream", "awgn", "noise_generator",
    "qam16_demodulate", "qam16_modulate",
]
