"""Experiment harness: bit accounting, similarity metric, pipeline runs,
sweeps, and the CSV report contract."""

import csv
import dataclasses
import io
import json
import math
import random

import numpy as np
import pytest

import kgsemcom.harness as harness
from kgsemcom.embedding import TrigramEmbedder, _signed_coords, _trigram_keys
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
from kgsemcom.kg import ingest
from kgsemcom.phy import (ChannelConfig, TransmitResult, channel_bit_cost, huffman_build,
                          huffman_encode, transmit)

from kgtools import cosine, tiny_kg


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
        # 104 entities: ids travel as 7-bit ranks, behind two 7-bit counts
        assert record.payload_bits == 7 * (len(protected) + len(unprotected) + 2)
        assert record.channel_bits == channel_bit_cost(len(protected), len(unprotected), 7)


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


def _signed_counts_cancel(text: str, dim: int) -> bool:
    coords, signs = _signed_coords(_trigram_keys(text), dim)
    return not np.bincount(coords, weights=signs, minlength=dim).any()


@pytest.mark.parametrize("dim", [384, 7, 1])
def test_similarity_equals_cosine_of_the_embeddings(dim):
    # dim 1 and 7 make signed counts cancel, which exercises the one-hot fallback
    emb = TrigramEmbedder(dim=dim)
    rnd = random.Random(dim)
    alphabet = "ab Ac\u00e9\u4e2d\U0001F600\U0010FFFF"
    texts = ["Alan Bean", "x\U0010FFFF", "\U0001F600 on the Moon", "a"]
    texts += ["".join(rnd.choice(alphabet) for _ in range(rnd.randint(1, 30)))
              for _ in range(60)]
    texts = [t for t in texts if t.strip()]
    if dim == 1:
        assert any(_signed_counts_cancel(t, dim) for t in texts)
    for _ in range(200):
        a, b = rnd.choice(texts), rnd.choice(texts)
        want = max(-1.0, min(1.0, cosine(emb.embed_one(a), emb.embed_one(b))))
        assert semantic_similarity(a, b, emb) == pytest.approx(want, abs=1e-12)


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


def test_derive_seed_arrays_equal_scalar_calls():
    snr_index, trial, scheme = np.indices((3, 2, 3)).reshape(3, -1)
    names = [SCHEMES[k] for k in scheme]
    for base in (0, 2**40 + 3, 2**70):
        seeds = derive_seed(base, 4, snr_index, trial, names)
        assert seeds.dtype == np.uint64 and seeds.shape == (18,)
        assert seeds.tolist() == [
            int(np.random.SeedSequence((base, 4, i, t, k)).generate_state(1, np.uint64)[0])
            for i, t, k in zip(snr_index.tolist(), trial.tolist(), scheme.tolist())]
        assert seeds.tolist() == [derive_seed(base, 4, i, t, n)
                                  for i, t, n in zip(snr_index.tolist(), trial.tolist(), names)]
    assert isinstance(derive_seed(0, 0, 0, 0, "ascii"), int)


# -- single runs -------------------------------------------------------------------

def test_run_pipeline_no_noise_full_recovery(ctx, sample_corpus):
    record = run_pipeline(ctx, sample_corpus[0], 0, math.inf, seed=5)
    assert record.scheme == "kgrag"
    assert record.n_selected > 0
    assert record.n_received_valid == record.n_mcsg_nodes > 0
    assert record.flags == ""
    assert 0.0 < record.similarity <= 1.0
    assert record.payload_bits == 7 * (record.n_mcsg_nodes + 2)
    assert record.channel_bits > record.payload_bits


# -- ids on the wire ---------------------------------------------------------------

@pytest.mark.parametrize("n, width", [(127, 7), (128, 8)])
def test_id_width_follows_the_entity_count(n, width):
    kg = ingest(["C\tc0\tlabel\tsummary"] + [f"E\t\tNode {k}\tc0\t\t" for k in range(n)])
    ctx = PipelineContext(kg)
    assert ctx.id_width == width
    # a class may hold every entity: its count N still fits in W bits
    frame = ctx.frame(sorted(kg.entities), [])
    assert frame.width == width
    result = transmit(frame, ChannelConfig(math.inf, 0))
    assert result.header_consistent
    assert ctx.received_ids(result) == sorted(kg.entities)


def test_sparse_ids_near_the_top_of_the_range_roundtrip():
    ids = [0, 7, 2**31, 2**32 - 2, 2**32 - 1]
    names = ["Amber", "Basalt", "Cobalt", "Dolomite", "Emerald"]
    records = ["C\tc0\tlabel\tsummary"]
    records += [f"E\t{i}\t{name}\tc0\t\t" for i, name in zip(ids, names)]
    records += [f"T\t{a}\tnext\t{b}" for a, b in zip(ids, ids[1:])]
    ctx = PipelineContext(ingest(records))
    assert ctx.id_width == 3
    frame = ctx.frame(ids[:2], ids[2:])
    assert frame.protected_ids + frame.unprotected_ids == (0, 1, 2, 3, 4)
    assert ctx.received_ids(transmit(frame, ChannelConfig(math.inf, 0))) == ids
    record = run_pipeline(ctx, "Cobalt lies between Basalt and Dolomite.", 0, math.inf, seed=0)
    assert record.n_received_valid == record.n_mcsg_nodes > 0
    assert record.payload_bits == 3 * (record.n_mcsg_nodes + 2)


def test_rank_no_entity_holds_is_dropped(monkeypatch):
    kg = tiny_kg(triples=("Amber r Basalt", "Basalt s Cobalt", "Cobalt t Dolomite",
                          "Dolomite u Emerald"))
    ctx = PipelineContext(kg)
    assert ctx.id_width == 3  # words 5, 6 and 7 name no entity

    words = TransmitResult((0, 5), (1, 6, 7), 0, 0, 0, 0, False)
    assert ctx.received_ids(words) == [0, -1, 1, -1, -1]
    monkeypatch.setattr(harness, "transmit_many", lambda frame, cfgs: [words] * len(cfgs))
    record = run_pipeline(ctx, "Amber met Basalt.", 0, 0.0, seed=0)
    assert record.n_received_valid == 2
    recon, _, _ = ctx.receive([0, -1, 1, -1, -1])
    assert recon.nodes == {0, 1}


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
                      ("keep_all_components", "no"), ("snr_grid", ["x"]),
                      ("snr_grid", 5), ("threshold_policy", [[1]]), ("schemes", "kgrag"),
                      ("alpha", "x"), ("snr_grid", [4.0, 4.0]), ("snr_grid", [0.0, -0.0])):
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
        assert r.payload_bits == 7 * (r.n_mcsg_nodes + 2)
        analysis = ctx.analyze(ctx.corpus[r.sentence_id])
        protected, unprotected = partition_uep(analysis.table, r.snr_db,
                                               ctx.importance_config)
        assert r.channel_bits == channel_bit_cost(len(protected), len(unprotected), 7)
        assert r.channel_bits >= r.payload_bits


@pytest.mark.parametrize("stage, failing", [("transmit_many", {"kgrag"}),
                                            ("transmit_bits", {"ascii"})],
                         ids=["transmit_many", "transmit_bits"])
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


def test_run_sweep_failure_at_one_snr_flags_only_that_point(tmp_path, sample_kg_path,
                                                              sample_corpus, monkeypatch):
    corpus_path = tmp_path / "three.txt"
    corpus_path.write_text("\n".join(sample_corpus[:3]) + "\n", encoding="utf-8")
    config = SweepConfig(kg_path=str(sample_kg_path), corpus_path=str(corpus_path),
                         snr_grid=[0.0, 6.0, 12.0], trials_per_point=2)
    ctx = PipelineContext.from_config(config)
    clean = run_sweep(config, ctx)
    real_partition = harness.partition_uep

    def partition_failing_at_six_db(table, snr_db, importance_config):
        if snr_db == 6.0:
            raise KeyError("boom")
        return real_partition(table, snr_db, importance_config)

    monkeypatch.setattr(harness, "partition_uep", partition_failing_at_six_db)
    records = run_sweep(config, ctx)
    assert len(records) == len(clean) == 3 * 3 * 2 * 3
    for got, want in zip(records, clean):
        if got.scheme == "kgrag" and got.snr_db == 6.0 and want.n_selected:
            assert got.flags == "error:KeyError"
            assert (got.sentence_id, got.trial, got.seed) == (
                want.sentence_id, want.trial, want.seed)
        else:
            assert got == want
    assert any(r.flags == "error:KeyError" for r in records)


def test_run_sweep_scoring_failure_on_one_text_flags_only_its_point(small_config, monkeypatch):
    config = SweepConfig(kg_path=small_config.kg_path, corpus_path=small_config.corpus_path,
                         snr_grid=[math.inf, 0.0], trials_per_point=2, schemes=("ascii",))
    ctx = PipelineContext.from_config(config)
    clean = run_sweep(config, ctx)
    real_similarity = harness.semantic_similarity

    def similarity_failing_on_noise(a, b, embedder):
        if a != b:  # only a noisy decode differs from its sentence
            raise ZeroDivisionError
        return real_similarity(a, b, embedder)

    monkeypatch.setattr(harness, "semantic_similarity", similarity_failing_on_noise)
    for got, want in zip(run_sweep(config, ctx), clean):
        assert got == want if got.snr_db == math.inf else got.flags == "error:ZeroDivisionError"


def test_run_sweep_embeds_each_distinct_text_once_per_sentence(small_config, monkeypatch):
    config = SweepConfig(kg_path=small_config.kg_path, corpus_path=small_config.corpus_path,
                         snr_grid=[math.inf, 4.0, 12.0], trials_per_point=3)
    ctx = PipelineContext.from_config(config)
    # extraction embeds mentions through its own embedder, so only scoring is counted
    ctx.extraction = dataclasses.replace(ctx.extraction,
                                         embedder=TrigramEmbedder(dim=ctx.embedder.dim))
    clean = run_sweep(config, ctx)
    calls: list[str] = []  # every text embedded, one at a time or in a batch
    real_embed_one, real_embed = ctx.embedder.embed_one, ctx.embedder.embed
    monkeypatch.setattr(ctx.embedder, "embed_one",
                        lambda text: calls.append(text) or real_embed_one(text))
    batches: list[int] = []
    monkeypatch.setattr(ctx.embedder, "embed", lambda texts: batches.append(len(texts))
                        or calls.extend(texts) or real_embed(texts))
    memos: list[harness.SentenceVectors] = []
    real_memo = harness.SentenceVectors
    monkeypatch.setattr(harness, "SentenceVectors",
                        lambda embedder: memos.append(real_memo(embedder)) or memos[-1])
    assert run_sweep(config, ctx) == clean
    assert len(memos) == len(ctx.corpus)  # one memo per sentence, none shared
    assert len(calls) == sum(len(m._vectors) for m in memos)
    for sentence, memo in zip(ctx.corpus, memos):
        assert sentence in memo._vectors
    assert calls.count(ctx.corpus[0]) == 1
    assert len(batches) <= len(ctx.corpus) * len(config.schemes)  # one per (sentence, scheme)


def test_batched_sentence_vectors_score_like_the_embedder(embedder):
    rnd = random.Random(31)
    texts = ["", " \t", "Straße \u00e9t\u00e9 \u65e5\u672c", "Alan Bean", "Alan Bean",
             bytes(rnd.randrange(256) for _ in range(80)).decode("latin-1")]
    vectors = harness.SentenceVectors(embedder)
    vectors.add(texts)
    assert set(vectors._vectors) == {t for t in texts if t.strip()}  # blanks score unembedded
    for a in texts:
        for b in texts:
            assert semantic_similarity(a, b, vectors) == semantic_similarity(a, b, embedder)


def test_run_sweep_reconstructs_each_received_id_list_once_per_sentence(small_config,
                                                                         monkeypatch):
    config = SweepConfig(kg_path=small_config.kg_path, corpus_path=small_config.corpus_path,
                         snr_grid=[math.inf, 4.0, 12.0], trials_per_point=3, schemes=("kgrag",))
    clean = run_sweep(config)
    ctx = PipelineContext.from_config(config)
    real_derive_seed, real_reconstruct = harness.derive_seed, harness.reconstruct
    real_generate_text = ctx.generate_text
    sentence = [-1]
    calls: list[tuple[int, tuple[int, ...]]] = []
    generated: list[tuple[int, tuple[int, ...]]] = []  # (sentence, received ids) per generation

    def derive_seed(base_seed, sentence_id, *rest):  # marks the sentence being served
        sentence[0] = sentence_id
        return real_derive_seed(base_seed, sentence_id, *rest)

    def reconstruct(received, kg, **kwargs):
        calls.append((sentence[0], tuple(received)))
        return real_reconstruct(received, kg, **kwargs)

    def generate_text(recon):  # the receiver generates from the last reconstruction
        generated.append(calls[-1])
        return real_generate_text(recon)

    monkeypatch.setattr(harness, "derive_seed", derive_seed)
    monkeypatch.setattr(harness, "reconstruct", reconstruct)
    monkeypatch.setattr(ctx, "generate_text", generate_text)
    assert run_sweep(config, ctx) == clean
    assert len(calls) == len(set(calls))
    assert len(calls) < sum(1 for r in clean if r.n_selected)  # the noiseless points repeat
    assert generated and len(generated) == len(set(generated))


def test_an_empty_text_scores_zero_without_a_similarity_call(small_config, monkeypatch):
    config = SweepConfig(kg_path=small_config.kg_path, corpus_path=small_config.corpus_path,
                         snr_grid=[math.inf, 0.0], trials_per_point=2,
                         schemes=("kgrag", "huffman_baseline"))
    ctx = PipelineContext.from_config(config)
    clean = run_sweep(config, ctx)
    real_decode, real_similarity = harness.huffman_decode, harness.semantic_similarity

    def decode_empty_when_noiseless(bits, table):
        text = real_decode(bits, table)
        return "" if text in ctx.corpus else text  # only the noiseless point decodes cleanly

    scored: list[str] = []

    def similarity(a, b, embedder):
        scored.append(b)
        return real_similarity(a, b, embedder)

    monkeypatch.setattr(harness, "huffman_decode", decode_empty_when_noiseless)
    monkeypatch.setattr(harness, "semantic_similarity", similarity)
    # the one received rank names no entity: kgrag's reconstruction is empty
    nowhere = TransmitResult(((1 << ctx.id_width) - 1,), (), 0, 0, 0, 0, False)
    monkeypatch.setattr(harness, "transmit_many", lambda frames, cfgs: [nowhere] * len(cfgs))
    records = run_sweep(config, ctx)
    assert len(scored) == sum(1 for r in records if "empty_" not in r.flags)
    assert "" not in scored
    for got, want in zip(records, clean):
        if got.scheme == "huffman_baseline" and got.snr_db == math.inf:
            assert (got.flags, got.similarity) == ("empty_decode", 0.0)
        elif got.scheme == "kgrag":
            assert want.n_selected
            assert (got.flags, got.similarity) == ("empty_reconstruction", 0.0)
        else:
            assert got == want


def test_generation_memo_stays_within_its_cap(small_config, monkeypatch):
    config = SweepConfig(kg_path=small_config.kg_path, corpus_path=small_config.corpus_path,
                         snr_grid=[0.0, 2.0, 4.0], trials_per_point=4, schemes=("kgrag",))
    clean = run_sweep(config)
    monkeypatch.setattr(harness, "GENERATION_CACHE_SIZE", 2)
    ctx = PipelineContext.from_config(config)
    real_generate_text, real_generate = ctx.generate_text, ctx.generator.generate
    sizes: list[int] = []
    generated: list = []

    def generate_text(recon):
        hit = real_generate_text(recon)
        sizes.append(len(ctx._generation_cache))
        return hit

    monkeypatch.setattr(ctx, "generate_text", generate_text)
    monkeypatch.setattr(ctx.generator, "generate",
                        lambda prompt: generated.append(prompt) or real_generate(prompt))
    assert run_sweep(config, ctx) == clean
    assert max(sizes) == 2
    assert len(generated) > 2  # so entries were evicted


def test_baseline_records_no_noise(sample_corpus):
    records = baseline_records(sample_corpus[:3])
    assert len(records) == 6
    assert {r.scheme for r in records} == {"huffman_baseline", "ascii"}
    for r in records:
        assert math.isinf(r.snr_db)
        assert r.similarity == pytest.approx(1.0, abs=1e-6)
        assert r.payload_bits == r.channel_bits > 0


def test_baseline_records_equal_the_sweeps_text_records(tmp_path, sample_kg_path,
                                                        sample_corpus):
    corpus_path = tmp_path / "three.txt"
    corpus_path.write_text("\n".join(sample_corpus[:3]) + "\n", encoding="utf-8")
    grid = [-math.inf, 0.0, 6.0, math.inf]
    config = SweepConfig(kg_path=str(sample_kg_path), corpus_path=str(corpus_path),
                         snr_grid=grid, trials_per_point=1, seed=11)
    text_records = [r for r in run_sweep(config) if r.scheme != "kgrag"]
    assert baseline_records(sample_corpus[:3], grid, seed=11) == text_records


def test_baseline_records_flag_a_failing_stage_and_keep_going(sample_corpus, monkeypatch):
    corpus, grid = sample_corpus[:3], [0.0, math.inf]
    clean = baseline_records(corpus, grid, seed=5)
    real_decode = harness.huffman_decode

    def decode_failing_on_sentence_one(bits, table):
        text = real_decode(bits, table)
        if text == corpus[1]:
            raise ValueError("boom")
        return text

    monkeypatch.setattr(harness, "huffman_decode", decode_failing_on_sentence_one)
    records = baseline_records(corpus, grid, seed=5)
    assert len(records) == len(clean) == 3 * 2 * 2
    for got, want in zip(records, clean):
        if (got.sentence_id, got.snr_db, got.scheme) == (1, math.inf, "huffman_baseline"):
            assert got.flags == "error:ValueError"
            assert (got.trial, got.seed, got.similarity) == (want.trial, want.seed, 0.0)
        else:
            assert got == want


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
    run_pipeline(warm, sample_corpus[0], 0, 4.0, seed=9)  # fills the generation memo
    assert warm._generation_cache
    a = run_pipeline(fresh, sample_corpus[0], 0, 4.0, seed=9)
    b = run_pipeline(warm, sample_corpus[0], 0, 4.0, seed=9)
    assert a == b
