"""Golden guard: the bundled fixture sweep renders byte-identical CSV.

A change that alters sweep output on purpose (a new decoder, a new embedder)
re-pins this hash in the same change and says so."""

import hashlib

from kgsemcom.harness import SweepConfig, render_report, run_sweep

FIXTURE_SWEEP_SHA256 = "8ec28c1cd9fd31e45317b6886d3ab2897ea45ef32ab1f1d6582ba62af240f7be"


def test_fixture_sweep_matches_golden_sha256(sample_kg_path, sample_corpus_path):
    config = SweepConfig(kg_path=sample_kg_path, corpus_path=sample_corpus_path,
                         trials_per_point=5, seed=0)
    records = run_sweep(config)
    assert len(records) == 60 * 7 * 5 * 3
    report = render_report(records, config.snr_grid)
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == FIXTURE_SWEEP_SHA256
