#!/usr/bin/env python3
"""Walk one sentence through the whole pipeline, stage by stage.

The sentence is matched against the bundled knowledge graph and expanded
to its one-hop subgraph. Its seed ids are split into protected and
unprotected by their importance in that subgraph and sent through the
coded/uncoded 16QAM link at a chosen SNR. The receiver expands the seeds it
gets by one hop in its copy of the graph, rebuilds the subgraph and
re-verbalizes it.
This is `kgsemcom send` on the bundled graph: every stage prints what it
produced, so you can watch where noise starts to bite as you lower --snr.

    python3 demos/run_single_transmission.py --snr 6 --seed 3
"""

import argparse
import sys
from importlib import resources

from kgsemcom import cli

DATA = resources.files("kgsemcom") / "data"
# the bundled corpus's first sentence: above 0 dB its frame carries one
# protected and one unprotected seed, so both classes can be watched
DEFAULT_SENTENCE = ("Alan Bean and Pete Conrad rehearsed every traverse for months, and the "
                    "training logs describe how calm both men stayed when the checklist grew "
                    "crowded near the end.")


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
