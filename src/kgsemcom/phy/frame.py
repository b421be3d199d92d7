"""Wire format for one id payload, in big-endian words of W bits.

Both ends share a KG of N entities and send each id as its rank among the
sorted entity ids, so W = max(1, (N - 1).bit_length()), 1 <= W <= 64. The
payload is a sentence's seed ids only (``PipelineContext.send_frame``): the
receiver re-derives their one-hop neighbours from its copy of the KG. The
importance table holds exactly those seeds, and its UEP split gives the two
classes. The protected ids form the coded stream, which the link encodes with
the punctured code of ``convcode`` at the pattern its SNR picks
(``convcode.puncture``; its size is ``convcode.coded_length``); the
unprotected ids travel as a second, uncoded stream. A stream is its W-bit
words and nothing else: its length gives the id count, so no header is sent. This
module is the one place the layout and its size (``payload_bits``) live.
``parse_streams`` is the one parser of W-bit words: it reads a (rows, bits)
array of received streams at once, and ``parse_coded_stream`` is its one-row
case.
"""

from dataclasses import dataclass

import numpy as np

from .bits import Bits, check_width, ids_to_bits


def payload_bits(n_ids: int, width: int) -> int:
    """Bits of an id payload before channel coding: one W-bit word per id."""
    return width * n_ids


@dataclass(frozen=True)
class TransmissionFrame:
    protected_ids: tuple[int, ...]
    unprotected_ids: tuple[int, ...]
    width: int  # bits per id, 1..64

    def __post_init__(self):
        check_width(self.width)
        for ids in (self.protected_ids, self.unprotected_ids):
            if list(ids) != sorted(set(ids)):
                raise ValueError("id classes must be sorted and duplicate-free")
        if set(self.protected_ids) & set(self.unprotected_ids):
            raise ValueError("protected and unprotected ids must be disjoint")


def serialize_frame(frame: TransmissionFrame) -> tuple[Bits, Bits]:
    """-> (protected, unprotected) bitstreams."""
    return (ids_to_bits(frame.protected_ids, frame.width),
            ids_to_bits(frame.unprotected_ids, frame.width))


def parse_streams(rows: np.ndarray, width: int) -> np.ndarray:
    """The ids of each row of a (R, n) array of received streams, coded or
    uncoded, as a (R, n // W) array: every whole W-bit word. Never raises on
    corruption; a trailing partial word is dropped. The words are big-endian
    and come back as uint64."""
    check_width(width)
    n_rows, n = rows.shape
    k = n // width
    words = np.zeros((n_rows, k, 64), dtype=np.uint8)
    words[:, :, 64 - width:] = rows[:, :k * width].reshape(n_rows, k, width)
    return np.packbits(words, axis=2).view(">u8").reshape(n_rows, k)


def parse_coded_stream(bits: Bits, width: int) -> tuple[int, ...]:
    """``parse_streams`` of one received stream."""
    return tuple(parse_streams(np.reshape(bits, (1, -1)), width)[0].tolist())
