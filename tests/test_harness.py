"""Experiment harness: bit accounting, similarity metric, pipeline runs,
sweeps, and the CSV report contract."""

import csv
import io
import json
import math

import pytest

import kgsemcom.harness as harness
from kgsemcom.harness import (
    SCHEMES,
    ExperimentRecord,
    PipelineContext,
    SweepConfig,
    baseline_records,
    derive_seed,
    load_corpus,
    render_report,
    run_pipeline,
    run_sweep,
    semantic_similarity,
    write_report,
)
from kgsemcom.importance import partition_uep
from kgsemcom.phy import channel_bit_cost, huffman_build, huffman_encode


@pytest.fixture(scope="module")
def ctx(sample_kg, sample_corpus):
    return PipelineContext(sample_kg, sample_corpus)


@pytest.fixture()
def small_config(tmp_path, sample_kg_path, sample_corpus):
    corpus_path = tmp_path / "two.txt"
    corpus_path.write_text("\n".join(sample_corpus[:2]) + "\n", encoding="utf-8")
    return SweepConfig(kg_path=str(sample_kg_path), corpus_path=str(corpus_path),
                       snr_grid=[0.0], trials_per_point=1,
                       schemes=("kgrag", "ascii"))


# -- bit accounting ----------------------------------------------------------------

def test_count_bits_ascii(ctx, sample_corpus):
    sentence = sample_corpus[0]
    for snr_db in (0.0, math.inf):
        record = run_pipeline(ctx, sentence, 0, snr_db, seed=1, scheme="ascii")
        assert record.payload_bits == record.channel_bits == 8 * len(sentence)


def test_count_bits_kgrag(ctx, sample_corpus):
    sentence = sample_corpus[0]
    analysis = ctx.analyze(sentence)
    for snr_db in (0.0, 12.0):
        record = run_pipeline(ctx, sentence, 0, snr_db, seed=1)
        protected, unprotected = partition_uep(analysis.table, snr_db,
                                               ctx.importance_config)
        assert record.payload_bits == 32 + 32 * (len(protected) + len(unprotected))
        assert record.channel_bits == channel_bit_cost(len(protected), len(unprotected))


def test_count_bits_huffman(ctx, sample_corpus):
    table = huffman_build("\n".join(sample_corpus))
    sentence = sample_corpus[0]
    bits = len(huffman_encode(sentence, table))
    for snr_db in (0.0, math.inf):
        record = run_pipeline(ctx, sentence, 0, snr_db, seed=1, scheme="huffman_baseline")
        assert record.payload_bits == record.channel_bits == bits


def test_ascii_codec_replaces_non_latin1_and_drops_partial_byte():
    text = "naïve €5"
    bits = harness._ascii_bits(text)
    assert len(bits) == 8 * len(text)
    assert harness._bits_to_ascii(bits) == "naïve ?5"
    assert harness._bits_to_ascii(bits[:-3]) == "naïve ?"
    assert harness._bits_to_ascii(bits[:0]) == ""


# -- similarity metric -------------------------------------------------------------

def test_similarity_identity_and_empty(embedder):
    assert semantic_similarity("Alan Bean", "Alan Bean", embedder) == pytest.approx(1.0)
    assert semantic_similarity("", "anything", embedder) == 0.0
    assert semantic_similarity("anything", "   ", embedder) == 0.0
    assert semantic_similarity("", "", embedder) == 0.0


def test_similarity_orders_related_above_unrelated(embedder):
    ref = "Alan Bean walked on the Moon during the second crewed landing."
    close = "Alan Bean walked on the Moon."
    far = "Quarterly corn futures dipped on Thursday."
    assert semantic_similarity(ref, close, embedder) > semantic_similarity(ref, far, embedder)


# -- record validation -------------------------------------------------------------

def test_record_validation():
    with pytest.raises(ValueError, match="unknown scheme"):
        ExperimentRecord(0, 0.0, "morse", 0, 0, 0, 0, 0.0, 0, 0, 0)
    with pytest.raises(ValueError, match="non-negative"):
        ExperimentRecord(0, 0.0, "ascii", 0, 0, -1, 0, 0.0, 0, 0, 0)
    with pytest.raises(ValueError, match="finite"):
        ExperimentRecord(0, 0.0, "ascii", 0, 0, 0, 0, float("nan"), 0, 0, 0)


# -- seed derivation ---------------------------------------------------------------

def test_derive_seed_deterministic_and_sensitive():
    base = derive_seed(7, 3, 1, 0, "kgrag")
    assert derive_seed(7, 3, 1, 0, "kgrag") == base
    variants = {derive_seed(7, 3, 1, 0, s) for s in SCHEMES}
    variants |= {derive_seed(7, 3, 1, 1, "kgrag"), derive_seed(7, 3, 2, 0, "kgrag"),
                 derive_seed(7, 4, 1, 0, "kgrag"), derive_seed(8, 3, 1, 0, "kgrag")}
    assert len(variants) == 7
    assert all(0 <= v < 2**64 for v in variants | {base})


# -- single runs -------------------------------------------------------------------

def test_run_pipeline_no_noise_full_recovery(ctx, sample_corpus):
    record = run_pipeline(ctx, sample_corpus[0], 0, math.inf, seed=5)
    assert record.scheme == "kgrag"
    assert record.n_selected > 0
    assert record.n_received_valid == record.n_mcsg_nodes > 0
    assert record.flags == ""
    assert 0.0 < record.similarity <= 1.0
    assert record.payload_bits == 32 * (record.n_mcsg_nodes + 1)
    assert record.channel_bits > record.payload_bits


def test_run_pipeline_repeat_determinism(ctx, sample_corpus):
    a = run_pipeline(ctx, sample_corpus[0], 0, 4.0, seed=123)
    b = run_pipeline(ctx, sample_corpus[0], 0, 4.0, seed=123)
    assert a == b


def test_run_pipeline_text_schemes_no_noise(ctx, sample_corpus):
    sentence = sample_corpus[0]
    for scheme in ("huffman_baseline", "ascii"):
        record = run_pipeline(ctx, sentence, 0, math.inf, seed=1, scheme=scheme)
        assert record.similarity == pytest.approx(1.0, abs=1e-6)
        assert record.payload_bits == record.channel_bits > 0


def test_high_snr_beats_low_snr_on_average(ctx, sample_corpus):
    sentence = sample_corpus[0]

    def mean_similarity(snr_db):
        sims = [run_pipeline(ctx, sentence, 0, snr_db, seed=s).similarity
                for s in range(100)]
        return sum(sims) / len(sims)

    assert mean_similarity(12.0) >= mean_similarity(0.0) - 0.02


def test_empty_selection_flagged(ctx):
    record = run_pipeline(ctx, "Nothing here matches the graph at all.", 9, 6.0, seed=3)
    assert record.flags == "empty_selection"
    assert record.similarity == 0.0
    assert record.payload_bits == record.channel_bits == 0
    assert record.n_selected == record.n_mcsg_nodes == record.n_received_valid == 0


# -- corpus + config ---------------------------------------------------------------

def test_load_corpus_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# header\n\nFirst line.\n   \nSecond line.\n# trailing\n", encoding="utf-8")
    assert load_corpus(p) == ["First line.", "Second line."]


def test_load_corpus_empty_rejected(tmp_path):
    p = tmp_path / "empty.txt"
    p.write_text("# only comments\n\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no sentences"):
        load_corpus(p)


def test_sweep_config_validation(sample_kg_path, sample_corpus_path):
    paths = dict(kg_path=str(sample_kg_path), corpus_path=str(sample_corpus_path))
    with pytest.raises(ValueError, match="snr_grid"):
        SweepConfig(snr_grid=[], **paths)
    with pytest.raises(ValueError, match="trials_per_point"):
        SweepConfig(trials_per_point=0, **paths)
    with pytest.raises(ValueError, match="unknown scheme"):
        SweepConfig(schemes=("kgrag", "morse"), **paths)
    with pytest.raises(ValueError, match="alpha"):
        SweepConfig(alpha=2.0, **paths)
    with pytest.raises(ValueError, match="non-decreasing"):
        SweepConfig(threshold_policy=((0.0, 0.8), (12.0, 0.2)), **paths)
    for name in ("top_k", "max_selected", "embedding_dim"):
        for bad in (0, -1):
            with pytest.raises(ValueError, match=name):
                SweepConfig(**{name: bad}, **paths)
    for name in ("extract_backend", "generate_backend"):
        with pytest.raises(ValueError, match=name):
            SweepConfig(**{name: "htttp"}, **paths)
    for name, bad in (("seed", -1), ("seed", "x"), ("trials_per_point", 1.5),
                      ("kg_path", 5), ("snr_grid", [math.nan]), ("schemes", ()),
                      ("keep_all_components", "no")):
        with pytest.raises(ValueError, match=name):
            SweepConfig(**{**paths, name: bad})


def test_sweep_config_from_json(tmp_path, sample_kg_path, sample_corpus_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "kg_path": str(sample_kg_path), "corpus_path": str(sample_corpus_path),
        "snr_grid": [0, 6], "schemes": ["ascii"], "trials_per_point": 2,
    }), encoding="utf-8")
    cfg = SweepConfig.from_json(good)
    assert cfg.snr_grid == [0.0, 6.0]
    assert cfg.schemes == ("ascii",)
    assert cfg.trials_per_point == 2

    bad = tmp_path / "bad.json"
    bad.write_text('{"kg_path": "x", "corpus_path": "y", "bogus_knob": 1}', encoding="utf-8")
    with pytest.raises(ValueError, match="bogus_knob"):
        SweepConfig.from_json(bad)

    inf_cfg = tmp_path / "inf.json"
    inf_cfg.write_text('{"kg_path": "%s", "corpus_path": "%s", "snr_grid": [Infinity]}'
                       % (sample_kg_path, sample_corpus_path), encoding="utf-8")
    assert SweepConfig.from_json(inf_cfg).snr_grid == [math.inf]


# -- sweeps ------------------------------------------------------------------------

def test_run_sweep_row_count_and_order(small_config):
    records = run_sweep(small_config)
    assert len(records) == 4  # 2 sentences x 1 snr x 1 trial x 2 schemes
    key = [(r.sentence_id, r.trial, r.scheme) for r in records]
    assert key == [(0, 0, "kgrag"), (0, 0, "ascii"), (1, 0, "kgrag"), (1, 0, "ascii")]
    for r in records:
        assert r.seed == derive_seed(0, r.sentence_id, 0, r.trial, r.scheme)


def test_run_sweep_kgrag_invariants(small_config):
    ctx = PipelineContext.from_config(small_config)
    for r in run_sweep(small_config, ctx):
        if r.scheme != "kgrag":
            continue
        assert 0 <= r.n_received_valid <= r.n_mcsg_nodes
        assert r.payload_bits == 32 * (r.n_mcsg_nodes + 1)
        analysis = ctx.analyze(ctx.corpus[r.sentence_id])
        protected, unprotected = partition_uep(analysis.table, r.snr_db,
                                               ctx.importance_config)
        assert r.channel_bits == channel_bit_cost(len(protected), len(unprotected))
        assert r.channel_bits >= r.payload_bits


@pytest.mark.parametrize("stage, failing", [("transmit_many", {"kgrag"}),
                                            ("qam16_modulate", {"ascii"})],
                         ids=["transmit_many", "qam16_modulate"])
def test_run_sweep_captures_stage_errors(small_config, monkeypatch, stage, failing):
    ctx = PipelineContext.from_config(small_config)

    def explode(*args):
        raise TypeError("boom")

    monkeypatch.setattr(harness, stage, explode)
    records = run_sweep(small_config, ctx)
    assert {r.scheme for r in records} == {"kgrag", "ascii"}
    for r in records:
        if r.scheme in failing:
            assert r.flags == "error:TypeError"
            assert r.similarity == 0.0
            assert r.payload_bits == r.channel_bits == 0
        else:
            assert "error" not in r.flags


def test_baseline_records_no_noise(sample_corpus):
    records = baseline_records(sample_corpus[:3])
    assert len(records) == 6
    assert {r.scheme for r in records} == {"huffman_baseline", "ascii"}
    for r in records:
        assert math.isinf(r.snr_db)
        assert r.similarity == pytest.approx(1.0, abs=1e-6)
        assert r.payload_bits == r.channel_bits > 0


# -- CSV reports -------------------------------------------------------------------

def test_report_byte_determinism(small_config, tmp_path):
    text_a = render_report(run_sweep(small_config), small_config.snr_grid)
    text_b = render_report(run_sweep(small_config), small_config.snr_grid)
    assert text_a == text_b
    out = tmp_path / "report.csv"
    write_report(run_sweep(small_config), small_config.snr_grid, out)
    assert out.read_text(encoding="utf-8") == text_a


def test_report_sections_and_sums(small_config):
    records = run_sweep(small_config)
    rows = list(csv.reader(io.StringIO(render_report(records, small_config.snr_grid))))
    header, body = rows[0], rows[1:]
    assert header == list(harness.CSV_COLUMNS)
    kinds = [row[0] for row in body]
    assert kinds == ["trial"] * 4 + ["summary"] * 2 + ["cumulative"] * 4

    summaries = {row[3]: float(row[8]) for row in body if row[0] == "summary"}
    for scheme in ("kgrag", "ascii"):
        sims = [r.similarity for r in records if r.scheme == scheme]
        assert summaries[scheme] == pytest.approx(sum(sims) / len(sims), abs=1e-6)

    for scheme in ("kgrag", "ascii"):
        cum_rows = [row for row in body if row[0] == "cumulative" and row[3] == scheme]
        payload_total = channel_total = 0
        for row in cum_rows:
            r = next(rec for rec in records
                     if rec.scheme == scheme and rec.sentence_id == int(row[1]))
            payload_total += r.payload_bits
            channel_total += r.channel_bits
            assert int(row[6]) == payload_total
            assert int(row[7]) == channel_total


def test_report_formats_infinite_snr(sample_corpus):
    records = baseline_records(sample_corpus[:1])
    text = render_report(records, [math.inf])
    assert ",inf," in text
    assert "Infinity" not in text


def test_pipeline_caches_do_not_change_results(sample_kg, sample_corpus):
    fresh = PipelineContext(sample_kg, sample_corpus)
    warm = PipelineContext(sample_kg, sample_corpus)
    warm.analyze(sample_corpus[0])  # prime
    a = run_pipeline(fresh, sample_corpus[0], 0, 4.0, seed=9)
    b = run_pipeline(warm, sample_corpus[0], 0, 4.0, seed=9)
    assert a == b
