"""Wire format for one id payload, in big-endian words of W bits.

Both ends share a KG of N entities and send each id as its rank among the
sorted entity ids, so W = max(1, (N - 1).bit_length()). The protected ids form
the coded stream, which is convolutionally encoded; the unprotected ids travel
as a second, uncoded stream. A stream is its W-bit words and nothing else: its
length gives the id count, so no header is sent. This module is the one place
the layout and its size (``payload_bits``) live.
"""

from dataclasses import dataclass

from .bits import Bits, bits_to_ids, ids_to_bits


def payload_bits(n_ids: int, width: int) -> int:
    """Bits of an id payload before channel coding: one W-bit word per id."""
    return width * n_ids


@dataclass(frozen=True)
class TransmissionFrame:
    protected_ids: tuple[int, ...]
    unprotected_ids: tuple[int, ...]
    width: int  # bits per id

    def __post_init__(self):
        for ids in (self.protected_ids, self.unprotected_ids):
            if list(ids) != sorted(set(ids)):
                raise ValueError("id classes must be sorted and duplicate-free")
        if set(self.protected_ids) & set(self.unprotected_ids):
            raise ValueError("protected and unprotected ids must be disjoint")


def serialize_frame(frame: TransmissionFrame) -> tuple[Bits, Bits]:
    """-> (protected, unprotected) bitstreams."""
    return (ids_to_bits(frame.protected_ids, frame.width),
            ids_to_bits(frame.unprotected_ids, frame.width))


def parse_coded_stream(bits: Bits, width: int) -> tuple[int, ...]:
    """The ids of a received stream, coded or uncoded: every whole W-bit word.
    Never raises on corruption; a trailing partial word is dropped."""
    return tuple(bits_to_ids(bits, width))
