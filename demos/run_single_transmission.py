#!/usr/bin/env python3
"""Walk one sentence through the whole pipeline, stage by stage.

The sentence is matched against the bundled knowledge graph, compressed to
the node ids of its one-hop subgraph, split into protected and unprotected
ids by importance, sent through the coded/uncoded 16QAM link at a chosen
SNR, reconstructed on the receiver's copy of the graph, and re-verbalized.
This is `kgsemcom send` on the bundled graph: every stage prints what it
produced, so you can watch where noise starts to bite as you lower --snr.

    python3 demos/run_single_transmission.py --snr 6 --seed 3
"""

import argparse
import sys
from importlib import resources

from kgsemcom import cli

DATA = resources.files("kgsemcom") / "data"
DEFAULT_SENTENCE = ("After the Intrepid lander settled onto the Ocean of Storms, "
                    "Alan Bean joined Pete Conrad on the dusty surface while their "
                    "crewmate kept watch overhead.")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sentence", default=DEFAULT_SENTENCE)
    parser.add_argument("--snr", default="6",
                        help="symbol SNR in dB (try inf, 12, 6, 0)")
    parser.add_argument("--seed", default="0")
    args = parser.parse_args()
    return cli.main(["send", "--kg", str(DATA / "sample_kg.tsv"), "--sentence", args.sentence,
                     "--snr", args.snr, "--seed", args.seed])


if __name__ == "__main__":
    sys.exit(main())
