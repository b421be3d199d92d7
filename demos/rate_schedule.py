#!/usr/bin/env python3
"""Derive the protected stream's rate schedule, ``convcode.PUNCTURES``, on
two held-out synthetic graphs.

Each candidate puncturing pattern of the K=7 mother code (the standard
rate-2/3, 3/4, 5/6 and 7/8 matrices, as in DVB-S and IEEE 802.11a) codes
every SNR of a kgrag sweep in turn; the link's schedule lookup is swapped for
that one pattern while it runs. The receiver decodes without its KG prior
(``PipelineContext.seed_prior``): these graphs' corpora send only pairs a
triple joins, so with the prior on, the rule would credit it with protection
that a sentence whose protected seeds no triple joins does not get (it
would then pick rate 7/8 from 10 dB). A rate is raised only where the code
alone affords it. The graphs are
``synthkg.generate(5, 300, 60)`` and ``synthkg.generate(11, 2000, 100)``
under sweep seeds 100-102: neither benchmark workload, and neither of the
acceptance gate's sweep seeds (9009, 4242). The table gives kgrag's mean
similarity @ mean channel bits per graph, rate and SNR; a line per SNR and
graph then gives each higher rate's cost, rate 2/3's mean similarity less
its own, beside the tolerance, so a reader sees how close each decision is.

The rule: at each SNR, take the highest rate whose mean similarity is
within 0.002 of rate 2/3's on both graphs. Rate 2/3 is the floor; each pick
that differs from the row below starts a schedule row at its SNR.

    python3 demos/rate_schedule.py
    python3 demos/rate_schedule.py --seeds 100 --trials 1 --snr 12
"""

import argparse
import importlib.util
import math
import tempfile
from contextlib import contextmanager
from pathlib import Path

from kgsemcom.harness import PipelineContext, SweepConfig, run_sweep
from kgsemcom.phy import PUNCTURES, code_rate, link

GRAPHS = ((5, 300, 60), (11, 2000, 100))  # synthkg.generate(seed, entities, sentences)
CANDIDATES = ((1, 1, 1, 0), (1, 1, 0, 1, 1, 0), (1, 1, 0, 1, 1, 0, 0, 1, 1, 0),
              (1, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0))  # rates 2/3, 3/4, 5/6, 7/8
FLOOR = CANDIDATES[0]
TOLERANCE = 0.002  # similarity a higher rate may cost against rate 2/3


def load_synthkg():
    """``bench/synthkg.py``, loaded by file path: ``bench`` is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / "synthkg.py"
    spec = importlib.util.spec_from_file_location("synthkg", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextmanager
def every_snr_at(pattern):
    """The link codes every SNR with ``pattern`` while the block runs."""
    schedule = link.puncture
    link.puncture = lambda snr_db: pattern
    try:
        yield
    finally:
        link.puncture = schedule


def measure(graph, seeds, trials, snrs, workdir: Path) -> dict:
    """-> {(pattern, snr_db): (mean similarity, mean channel bits)} over the seeds."""
    kg_text, corpus_text = load_synthkg().generate(*graph)
    kg_path, corpus_path = workdir / "kg.tsv", workdir / "corpus.txt"
    kg_path.write_text(kg_text, encoding="utf-8")
    corpus_path.write_text(corpus_text, encoding="utf-8")
    configs = [SweepConfig(kg_path=str(kg_path), corpus_path=str(corpus_path), snr_grid=snrs,
                           trials_per_point=trials, seed=seed, schemes=("kgrag",))
               for seed in seeds]
    ctx = PipelineContext.from_config(configs[0])
    ctx.seed_prior = None  # the code alone decides the rate
    out = {}
    for pattern in CANDIDATES:
        with every_snr_at(pattern):
            records = [r for config in configs for r in run_sweep(config, ctx)]
        for snr_db in snrs:
            point = [r for r in records if r.snr_db == snr_db]
            out[pattern, snr_db] = (sum(r.similarity for r in point) / len(point),
                                    sum(r.channel_bits for r in point) / len(point))
    return out


def cost(table: dict, pattern, snr_db: float) -> float:
    """The mean similarity ``pattern`` loses against rate 2/3 at ``snr_db``."""
    return table[FLOOR, snr_db][0] - table[pattern, snr_db][0]


def schedule(tables: list[dict], snrs) -> list[tuple[float, tuple[int, ...]]]:
    """The rule's (lowest SNR, pattern) rows, from the floor up."""
    rows = [(-math.inf, FLOOR)]
    for snr_db in sorted(snrs):
        fit = [p for p in CANDIDATES if all(cost(t, p, snr_db) <= TOLERANCE for t in tables)]
        pick = max(fit, key=code_rate)
        if pick != rows[-1][1]:
            rows.append((snr_db, pick))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[100, 101, 102])
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--snr", type=float, nargs="+", default=[8.0, 10.0, 12.0])
    args = parser.parse_args()

    tables = []
    with tempfile.TemporaryDirectory() as tmp:
        for graph in GRAPHS:
            tables.append(measure(graph, args.seeds, args.trials, args.snr, Path(tmp)))

    print("| graph | rate | " + " | ".join(f"{s:g} dB" for s in args.snr) + " |")
    print("|---|---|" + "---|" * len(args.snr))
    for graph, table in zip(GRAPHS, tables):
        for pattern in CANDIDATES:
            cells = " | ".join("{:.4f} @ {:.1f}".format(*table[pattern, s]) for s in args.snr)
            print(f"| synthkg {graph} | {code_rate(pattern)} | {cells} |")
    for snr_db in args.snr:
        for graph, table in zip(GRAPHS, tables):
            costs = ", ".join(f"{code_rate(p)} {cost(table, p, snr_db):+.4f}"
                              for p in CANDIDATES[1:])
            print(f"cost against rate 2/3 at {snr_db:g} dB on synthkg {graph}: {costs} "
                  f"(tolerance {TOLERANCE})")
    rows = schedule(tables, args.snr)
    print("schedule: " + ", ".join(f"rate {code_rate(p)} from {lowest:g} dB"
                                   for lowest, p in rows))
    print(f"convcode.PUNCTURES is this schedule: {rows == list(PUNCTURES)}")


if __name__ == "__main__":
    main()
