#!/usr/bin/env python3
"""Measure the raw link: uncoded 16QAM bit error rate against the closed-form
curve, and the convolutional code's post-Viterbi error rate beside it.

Prints one CSV block to stdout (redirect it into a file and plot with any
tool). ``coded_ber_<k>_<n>`` is the production code at each rate of the
schedule ``convcode.PUNCTURES`` (2/3 below 10 dB, 3/4 from 10 dB, 7/8 from
12 dB): soft-decision Viterbi on the punctured stream, every rate at every
SNR. ``hard_half_ber`` is the unpunctured rate-1/2 mother code under hard
decisions, the decoder the link used before. Two lessons fall out of the
numbers: the uncoded simulation sits on top of theory, and on long frames
a code only helps once the channel is good enough. The hard rate-1/2
crossover lands between 6 and 8 dB symbol SNR, the soft rate-2/3 one between
8 and 10 dB, 3/4 between 9 and 10 dB and 7/8 between 12 and 13 dB. So at
the SNR where the schedule starts it, rate 3/4 already beats no coding on
long frames (0.037 against 0.060 at 10 dB), but 7/8 loses to it (0.051
against 0.028 at 12 dB, with ``--bits 200000``). The schedule was chosen on
kgrag's short, tail-terminated frames, where 7/8 costs no similarity
(demos/rate_schedule.py).

    python3 demos/ber_curves.py --bits 200000 > ber.csv
"""

import argparse
import math

import numpy as np

from kgsemcom.phy import (PUNCTURES, ChannelConfig, channel_groups, code_rate,
                          conv_encode_frames, transmit_bits, viterbi_decode_frames)

MOTHER_CODE = (1, 1)  # every output bit sent: rate 1/2


def uncoded_ber(bits: np.ndarray, snr_db: float, seed: int) -> float:
    rx = transmit_bits(bits, [ChannelConfig(snr_db, seed)])[0]
    return float(np.mean(rx != bits))


def coded_ber(frames: np.ndarray, snr_db: float, seed: int, pattern) -> float:
    coded = conv_encode_frames(frames, pattern)
    metrics = channel_groups([coded.ravel()], [[snr_db]], [[seed]], soft=[True])[0]
    decoded = viterbi_decode_frames(metrics.reshape(coded.shape), pattern)
    return float(np.mean(decoded != frames))


def hard_half_ber(frames: np.ndarray, snr_db: float, seed: int) -> float:
    coded = conv_encode_frames(frames, MOTHER_CODE)
    rx = transmit_bits(coded.ravel(), [ChannelConfig(snr_db, seed)])[0]
    hard = 1 - 2 * rx.reshape(coded.shape).astype(np.int8)  # hard bits as +-1
    return float(np.mean(viterbi_decode_frames(hard, MOTHER_CODE) != frames))


def theory_ber(symbol_snr_db: float) -> float:
    # Gray-mapped 16QAM over AWGN, nearest-neighbor term; gamma_b is per
    # info bit, and a symbol carries 4 bits.
    gamma_b = 10 ** ((symbol_snr_db - 10 * math.log10(4)) / 10)
    return 0.375 * math.erfc(math.sqrt(0.4 * gamma_b))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bits", type=int, default=200_000,
                        help="info bits per SNR point")
    parser.add_argument("--frame-bits", type=int, default=1000,
                        help="frame length for the coded paths")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--snr", type=float, nargs="*",
                        default=[0, 2, 4, 6, 8, 10, 12])
    args = parser.parse_args()

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    n_bits = args.bits - args.bits % args.frame_bits
    bits = rng.integers(0, 2, size=n_bits, dtype=np.uint8)
    frames = bits.reshape(-1, args.frame_bits)

    patterns = [pattern for _, pattern in PUNCTURES]
    rates = [code_rate(pattern) for pattern in patterns]
    print("snr_db,uncoded_ber,theory_uncoded_ber,"
          + "".join(f"coded_ber_{r.numerator}_{r.denominator}," for r in rates)
          + "hard_half_ber")
    for i, snr_db in enumerate(args.snr):
        seed = args.seed * 1000 + 2 * i
        row = (uncoded_ber(bits, snr_db, seed), theory_ber(snr_db),
               *(coded_ber(frames, snr_db, seed + 1, pattern) for pattern in patterns),
               hard_half_ber(frames, snr_db, seed + 1))
        print(f"{snr_db:g}," + ",".join(f"{v:.6e}" for v in row))


if __name__ == "__main__":
    main()
