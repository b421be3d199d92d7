"""Wire format for one id payload.

The coded stream carries a header (two 16-bit big-endian counts: protected,
unprotected; together one 32-bit word) followed by the protected ids as
32-bit big-endian words; it is convolutionally encoded. The unprotected ids
travel as a second, uncoded stream of 32-bit words. A corrupted header
degrades to parsing as many whole 32-bit ids as the stream actually holds.
"""

from dataclasses import dataclass

from .bits import Bits, bits_to_ids, ids_to_bits

HEADER_BITS = 32
ID_BITS = 32
MAX_CLASS_IDS = 0xFFFF


@dataclass(frozen=True)
class TransmissionFrame:
    protected_ids: tuple[int, ...]
    unprotected_ids: tuple[int, ...]

    def __post_init__(self):
        for ids in (self.protected_ids, self.unprotected_ids):
            if list(ids) != sorted(set(ids)):
                raise ValueError("id classes must be sorted and duplicate-free")
        if set(self.protected_ids) & set(self.unprotected_ids):
            raise ValueError("protected and unprotected ids must be disjoint")
        if (len(self.protected_ids) > MAX_CLASS_IDS
                or len(self.unprotected_ids) > MAX_CLASS_IDS):
            raise ValueError("more than 65535 ids in one class")


def serialize_frame(frame: TransmissionFrame) -> tuple[Bits, Bits]:
    """-> (header_and_protected, unprotected) bitstreams."""
    header = (len(frame.protected_ids) << 16) | len(frame.unprotected_ids)
    coded = ids_to_bits((header, *frame.protected_ids))
    return coded, ids_to_bits(frame.unprotected_ids)


@dataclass(frozen=True)
class ParsedHeader:
    n_protected: int
    n_unprotected: int
    ids: tuple[int, ...]
    header_consistent: bool


def parse_coded_stream(bits: Bits) -> ParsedHeader:
    """Recover counts and protected ids from a decoded coded stream. Never
    raises on corruption: inconsistent counts fall back to length-derived
    parsing of whole 32-bit words."""
    if len(bits) < HEADER_BITS:
        return ParsedHeader(0, 0, (), False)
    header, *ids = bits_to_ids(bits)
    n_p, n_u = header >> 16, header & 0xFFFF
    return ParsedHeader(n_p, n_u, tuple(ids), n_p == len(ids))
