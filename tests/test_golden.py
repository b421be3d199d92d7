"""Golden guard: the bundled fixture sweep renders byte-identical CSV.

A change that alters sweep output on purpose (a new decoder, a new embedder)
re-pins this hash in the same change and says so."""

import hashlib
import math

import pytest

from kgsemcom.harness import SweepConfig, baseline_records, render_report, run_sweep

from kgtools import load_synthkg

FIXTURE_SWEEP_SHA256 = "572f9e0e08325ea87373b165936c5402a27eb69a987cabd3d33c71978938ac52"
# the same sweep's huffman_baseline and ascii trial rows alone: a change to the
# coded id link (decoder, code rate) must leave the text schemes untouched
FIXTURE_TEXT_ROWS_SHA256 = "e852ba66224825167876a7826c135a9010ab52bc5c7bdb1aab5a41b20831392b"
# sweep seed 2**40 + 3 (two 32-bit words, so six-word seed entropy), both
# infinite SNRs, every scheme; the -inf rows are labelled "-inf"
WIDE_SEED_SWEEP_SHA256 = "4a5342e66b70010fa6dfd9795826846af7451f2bb3526bbbb317bf4e37ba7928"
# `kgsemcom baseline` reports on the fixture corpus: (SNR grid, seed, sha256)
BASELINE_SHA256 = [
    ([math.inf], 0, "b3f1adb8af841ed2657a8a5fbb22d71c3f81636f0d0718d078fb584ebae581c1"),
    ([0.0, 3.0, 12.0, math.inf, -math.inf], 7,
     "12ff0e33f63eaac34cb0b064fb0ae606ac646378f34afab9370cf95743d87b68"),
    ([2.0], 2**70, "ad5501afd2b2f3610e975bae9d8dbfd3a6ce5dbc5f7a919f758924caf84ca7fa"),
]
# every scheme on the benchmark's synthetic graph generator at 8,000 entities
# and 80 sentences (generator seed 3), so the KG path is pinned at scale
SYNTHETIC_KG_SWEEP_SHA256 = "b6976f186c1436222650f5d311bf05b3772a51dabe59cf5bdc5cd08b03e0b220"


@pytest.fixture(scope="module")
def fixture_report(sample_kg_path, sample_corpus_path) -> str:
    config = SweepConfig(kg_path=sample_kg_path, corpus_path=sample_corpus_path,
                         trials_per_point=5, seed=0)
    records = run_sweep(config)
    assert len(records) == 60 * 7 * 5 * 3
    return render_report(records, config.snr_grid)


def test_fixture_sweep_matches_golden_sha256(fixture_report):
    assert hashlib.sha256(fixture_report.encode("utf-8")).hexdigest() == FIXTURE_SWEEP_SHA256


def test_fixture_sweep_text_rows_match_pinned_sha256(fixture_report):
    rows = [line for line in fixture_report.splitlines(keepends=True)
            if line.startswith("trial,") and line.split(",")[3] in ("huffman_baseline", "ascii")]
    assert len(rows) == 60 * 7 * 5 * 2
    assert hashlib.sha256("".join(rows).encode("utf-8")).hexdigest() == FIXTURE_TEXT_ROWS_SHA256


def test_wide_seed_sweep_matches_pinned_sha256(sample_kg_path, sample_corpus_path):
    config = SweepConfig(kg_path=sample_kg_path, corpus_path=sample_corpus_path,
                         snr_grid=[-math.inf, 0.0, 3.0, 12.0, math.inf],
                         trials_per_point=3, seed=2**40 + 3)
    records = run_sweep(config)
    assert len(records) == 60 * 5 * 3 * 3
    report = render_report(records, config.snr_grid)
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == WIDE_SEED_SWEEP_SHA256


@pytest.mark.parametrize("grid, seed, sha256", BASELINE_SHA256,
                         ids=["inf", "wide-grid", "seed-2**70"])
def test_baseline_report_matches_pinned_sha256(sample_corpus, grid, seed, sha256):
    records = baseline_records(sample_corpus, grid, seed)
    assert len(records) == 60 * len(grid) * 2
    report = render_report(records, grid)
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == sha256


def test_synthetic_kg_sweep_matches_pinned_sha256(tmp_path):
    kg_text, corpus_text = load_synthkg().generate(3, 8000, 80)
    kg_path, corpus_path = tmp_path / "kg.tsv", tmp_path / "corpus.txt"
    kg_path.write_text(kg_text, encoding="utf-8")
    corpus_path.write_text(corpus_text, encoding="utf-8")
    config = SweepConfig(kg_path=str(kg_path), corpus_path=str(corpus_path),
                         snr_grid=[0.0, 3.0, 6.0, 12.0, math.inf], trials_per_point=3, seed=5)
    records = run_sweep(config)
    assert len(records) == 80 * 5 * 3 * 3
    report = render_report(records, config.snr_grid)
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == SYNTHETIC_KG_SWEEP_SHA256
