"""Wire format for one id payload, in big-endian words of W bits.

Both ends share a KG of N entities and send each id as its rank among the
sorted entity ids, so W = N.bit_length(). The coded stream carries a header
(two W-bit counts, protected and unprotected, each at most N < 2^W) followed
by the protected ids; it is convolutionally encoded. The unprotected ids
travel as a second, uncoded stream of W-bit words. A corrupted header
degrades to parsing as many whole words as the stream actually holds. This
module is the one place the layout and its size (``payload_bits``) live.
"""

from dataclasses import dataclass

from .bits import Bits, bits_to_ids, ids_to_bits


def payload_bits(n_ids: int, width: int) -> int:
    """Bits of an id payload before channel coding: the two header counts plus the ids."""
    return width * (n_ids + 2)


@dataclass(frozen=True)
class TransmissionFrame:
    protected_ids: tuple[int, ...]
    unprotected_ids: tuple[int, ...]
    width: int  # bits per id and per header count

    def __post_init__(self):
        for ids in (self.protected_ids, self.unprotected_ids):
            if list(ids) != sorted(set(ids)):
                raise ValueError("id classes must be sorted and duplicate-free")
        if set(self.protected_ids) & set(self.unprotected_ids):
            raise ValueError("protected and unprotected ids must be disjoint")


def serialize_frame(frame: TransmissionFrame) -> tuple[Bits, Bits]:
    """-> (header_and_protected, unprotected) bitstreams."""
    header = (len(frame.protected_ids), len(frame.unprotected_ids))
    coded = ids_to_bits((*header, *frame.protected_ids), frame.width)
    return coded, ids_to_bits(frame.unprotected_ids, frame.width)


@dataclass(frozen=True)
class ParsedHeader:
    n_protected: int
    n_unprotected: int
    ids: tuple[int, ...]
    header_consistent: bool


def parse_coded_stream(bits: Bits, width: int) -> ParsedHeader:
    """Recover counts and protected ids from a decoded coded stream. Never
    raises on corruption: inconsistent counts fall back to length-derived
    parsing of whole words."""
    if len(bits) < 2 * width:
        return ParsedHeader(0, 0, (), False)
    n_p, n_u, *ids = bits_to_ids(bits, width)
    return ParsedHeader(n_p, n_u, tuple(ids), n_p == len(ids))


def parse_uncoded_stream(bits: Bits, width: int) -> tuple[int, ...]:
    """The unprotected ids: every whole word of the received uncoded stream."""
    return tuple(bits_to_ids(bits, width))
