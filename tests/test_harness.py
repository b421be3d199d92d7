"""Experiment harness: bit accounting, similarity metric, pipeline runs,
sweeps, and the CSV report contract."""

import csv
import dataclasses
import io
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import kgsemcom.harness as harness
import kgsemcom.remote
from kgsemcom.embedding import TrigramEmbedder
from kgsemcom.extraction import HttpSelector
from kgsemcom.generation import HttpGenerator, StubGenerator, build_prompt
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
from kgsemcom.importance import importance_scores, partition_uep
from kgsemcom.kg import ingest
from kgsemcom.semgraph import build_mcsg
from kgsemcom.phy import (ChannelConfig, TransmissionFrame, TransmitResult, channel_bit_cost,
                          huffman_build, huffman_encode, transmit, transmit_many)

from kgtools import cosine, load_synthkg, reference_hashes, tiny_kg


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
    assert len(analysis.mcsg.seed_nodes) < len(analysis.mcsg.nodes)
    for snr_db in (0.0, 10.0, 12.0):
        record = run_pipeline(ctx, sentence, 0, snr_db, seed=1)
        protected, unprotected = partition_uep(analysis.table, snr_db, ctx.importance_config)
        # 104 entities: the seeds travel as 7-bit ranks, and nothing else is sent
        assert record.payload_bits == 7 * record.n_selected
        assert len(protected) + len(unprotected) == record.n_selected
        assert record.n_mcsg_nodes == len(analysis.mcsg.nodes)
        assert record.channel_bits == channel_bit_cost(len(protected), len(unprotected), 7,
                                                       snr_db)


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
    counts: Counter = Counter()
    for coord, sign in reference_hashes(text, dim):
        counts[coord] += sign
    return not any(counts.values())


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
    assert record.n_mcsg_nodes > record.n_selected > 0
    assert record.n_received_valid == record.n_selected
    assert record.flags == ""
    assert 0.0 < record.similarity <= 1.0
    assert record.payload_bits == 7 * record.n_selected
    assert record.channel_bits > record.payload_bits
    analysis = ctx.analyze(sample_corpus[0])
    frame = ctx.send_frame(analysis, math.inf)
    recon, _, _ = ctx.receive(ctx.received_ids(transmit(frame, ChannelConfig(math.inf, 5))))
    assert (recon.nodes, recon.edges) == (analysis.mcsg.nodes, analysis.mcsg.edges)


# -- ids on the wire ---------------------------------------------------------------

def _analysis_of(ctx, seeds) -> harness.SentenceAnalysis:
    """What ``ctx.analyze`` gives a sentence that selects ``seeds``."""
    mcsg = build_mcsg(seeds, ctx.kg)
    return harness.SentenceAnalysis(mcsg, importance_scores(mcsg, ctx.importance_config))


@pytest.mark.parametrize("n, width", [(127, 7), (128, 7), (129, 8), (1, 1)])
def test_id_width_follows_the_entity_count(n, width):
    kg = ingest(["C\tc0\tlabel\tsummary"] + [f"E\t\tNode {k}\tc0\t\t" for k in range(n)])
    ctx = PipelineContext(kg)
    assert ctx.id_width == width
    # a class may hold every entity: the largest rank N - 1 fits in W bits.
    # At 0 dB the threshold is 0, so every seed is protected.
    frame = ctx.send_frame(_analysis_of(ctx, sorted(kg.entities)), 0.0)
    assert frame.width == width
    assert frame.protected_ids == tuple(range(n)) and frame.unprotected_ids == ()
    result = transmit(frame, ChannelConfig(math.inf, 0))
    assert ctx.received_ids(result) == sorted(kg.entities)


def test_sparse_ids_near_the_top_of_the_range_roundtrip():
    ids = [0, 7, 2**31, 2**32 - 2, 2**32 - 1]
    names = ["Amber", "Basalt", "Cobalt", "Dolomite", "Emerald"]
    records = ["C\tc0\tlabel\tsummary"]
    records += [f"E\t{i}\t{name}\tc0\t\t" for i, name in zip(ids, names)]
    records += [f"T\t{a}\tnext\t{b}" for a, b in zip(ids, ids[1:])]
    ctx = PipelineContext(ingest(records))
    assert ctx.id_width == 3
    frame = ctx.send_frame(_analysis_of(ctx, ids), 0.0)
    assert frame.protected_ids + frame.unprotected_ids == (0, 1, 2, 3, 4)
    assert ctx.received_ids(transmit(frame, ChannelConfig(math.inf, 0))) == ids
    record = run_pipeline(ctx, "Cobalt lies between Basalt and Dolomite.", 0, math.inf, seed=0)
    assert record.n_received_valid == record.n_selected == 3
    assert record.n_mcsg_nodes == 5
    assert record.payload_bits == 3 * record.n_selected
    assert record.flags == ""


def test_seed_prior_lists_the_ranks_each_triple_joins():
    # sparse ids map to their ranks; a self-loop and a repeated, reversed
    # edge add no pair
    ids = [0, 7, 2**31, 2**32 - 2, 2**32 - 1]
    records = ["C\tc0\tlabel\tsummary"]
    records += [f"E\t{i}\tNode{k}\tc0\t\t" for k, i in enumerate(ids)]
    records += [f"T\t{ids[a]}\tr\t{ids[b]}" for a, b in ((3, 1), (1, 3), (4, 0), (2, 2))]
    ctx = PipelineContext(ingest(records))
    prior = ctx.seed_prior
    assert prior.n_ranks == 5
    assert [(int(k) // 5, int(k) % 5) for k in prior.keys] == [(0, 4), (1, 3)]
    assert ctx.seed_prior is prior  # built once per context


@pytest.mark.parametrize("snr_db", [10.0, 12.0])
def test_the_prior_seldom_traps_a_pair_no_triple_joins(sample_kg, snr_db):
    # the margin is a log prior ratio, so in metric steps it narrows as the
    # SNR rises: a pair no triple joins keeps arriving about as often as it
    # does without the prior (a fixed 128-step margin trapped 333-622 of
    # 1,000 such pairs at 10-12 dB, against 1-19 without it)
    ctx = PipelineContext(sample_kg)
    prior, n = ctx.seed_prior, ctx.seed_prior.n_ranks
    listed = set(prior.keys.tolist())
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(71)))
    pairs = [tuple(sorted(int(i) for i in rng.choice(n, size=2, replace=False)))
             for _ in range(600)]
    frames = [TransmissionFrame(pair, (), ctx.id_width) for pair in pairs
              if pair[0] * n + pair[1] not in listed][:500]
    cfgs = [ChannelConfig(snr_db, seed) for seed in range(len(frames))]

    def wrong(results):
        return sum(r.received_protected != f.protected_ids for r, f in zip(results, frames))

    assert wrong(transmit_many(frames, cfgs, prior)) <= wrong(transmit_many(frames, cfgs)) + 10


def test_rank_no_entity_holds_is_dropped(monkeypatch):
    kg = tiny_kg(triples=("Amber r Basalt", "Basalt s Cobalt", "Cobalt t Dolomite",
                          "Dolomite u Emerald"))
    ctx = PipelineContext(kg)
    assert ctx.id_width == 3  # words 5, 6 and 7 name no entity

    words = TransmitResult((0, 5), (1, 6, 7), 0, 0, 0, 0)
    assert ctx.received_ids(words) == [0, -1, 1, -1, -1]
    monkeypatch.setattr(harness, "transmit_many", lambda frames, cfgs, prior: [words] * len(cfgs))
    record = run_pipeline(ctx, "Amber met Basalt.", 0, 0.0, seed=0)
    assert record.n_received_valid == 2
    # the invalid words are dropped; the seeds Amber and Basalt bring Cobalt
    recon, _, _ = ctx.receive([0, -1, 1, -1, -1])
    assert recon.nodes == {0, 1, 2} and recon.seed_nodes == {0, 1}


def _assert_noiseless_seeds_only(ctx) -> int:
    """At +inf dB each sentence's frame holds exactly the ranks of its seeds,
    and the receiver rebuilds its subgraph exactly. -> sentences checked."""
    rank_of = {nid: rank for rank, nid in enumerate(sorted(ctx.kg.entities))}
    checked = 0
    for sentence in ctx.corpus:
        analysis = ctx.analyze(sentence)
        if not analysis.mcsg.seed_nodes:
            continue
        frame = ctx.send_frame(analysis, math.inf)
        assert (sorted(frame.protected_ids + frame.unprotected_ids)
                == sorted(rank_of[n] for n in analysis.mcsg.seed_nodes))
        received = ctx.received_ids(transmit(frame, ChannelConfig(math.inf, 0)))
        recon, text, flags = ctx.receive(received)
        assert recon == analysis.mcsg
        assert text and flags == ""
        checked += 1
    return checked


def test_frame_classes_are_the_uep_split_of_the_seeds(ctx):
    # the table holds exactly the seeds, so send_frame filters nothing: its
    # classes are partition_uep's, each id mapped to its rank
    rank_of = {nid: rank for rank, nid in enumerate(sorted(ctx.kg.entities))}
    grid = SweepConfig(kg_path="", corpus_path="").snr_grid
    for sentence in ctx.corpus:
        analysis = ctx.analyze(sentence)
        assert set(analysis.table) == analysis.mcsg.seed_nodes
        for snr_db in grid:
            frame = ctx.send_frame(analysis, snr_db)
            classes = partition_uep(analysis.table, snr_db, ctx.importance_config)
            assert (frame.protected_ids, frame.unprotected_ids) == tuple(
                tuple(rank_of[n] for n in ids) for ids in classes)


def test_noiseless_frame_holds_the_seeds_and_the_receiver_rebuilds_the_mcsg(ctx):
    assert _assert_noiseless_seeds_only(ctx) == len(ctx.corpus)


def test_noiseless_seeds_only_on_a_synthetic_graph(tmp_path):
    kg_text, corpus_text = load_synthkg().generate(5, 300, 60)
    kg_path, corpus_path = tmp_path / "kg.tsv", tmp_path / "corpus.txt"
    kg_path.write_text(kg_text, encoding="utf-8")
    corpus_path.write_text(corpus_text, encoding="utf-8")
    ctx = PipelineContext.from_config(SweepConfig(kg_path=str(kg_path),
                                                  corpus_path=str(corpus_path)))
    assert _assert_noiseless_seeds_only(ctx) > 50


@pytest.mark.parametrize("protected, unprotected, n_valid, nodes, flags", [
    ((5,), (6, 7), 0, set(), "empty_reconstruction"),  # every word names no entity
    ((0, 0), (0,), 1, {0, 1}, ""),                     # one seed, three times
    ((3, 7), (6,), 1, {2, 3, 4}, ""),                  # ranks >= N dropped
    ((4, 1), (1, 4, 6), 2, {0, 1, 2, 3, 4}, ""),       # both, out of order
], ids=["all-invalid", "repeated", "rank-past-n", "mixed"])
def test_corrupted_receptions_are_flagged_and_never_raise(monkeypatch, protected,
                                                          unprotected, n_valid, nodes, flags):
    kg = tiny_kg(triples=("Amber r Basalt", "Basalt s Cobalt", "Cobalt t Dolomite",
                          "Dolomite u Emerald"))
    ctx = PipelineContext(kg)
    assert ctx.id_width == 3  # words 5, 6 and 7 name no entity
    words = TransmitResult(protected, unprotected, 0, 0, 0, 0)
    monkeypatch.setattr(harness, "transmit_many", lambda frames, cfgs, prior: [words] * len(cfgs))
    record = run_pipeline(ctx, "Amber met Basalt.", 0, 0.0, seed=0)
    assert (record.n_received_valid, record.flags) == (n_valid, flags)
    assert record.n_selected == 2 and record.n_mcsg_nodes == 3
    assert (record.similarity > 0.0) == bool(nodes)
    recon, _, _ = ctx.receive(ctx.received_ids(words))
    assert recon.nodes == nodes


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


def test_graph_without_communities_flags_empty_selection(tmp_path):
    # a capitalized fallback mention on a graph with no communities links to
    # nothing: the kgrag records are empty selections, not errors
    kg_path, corpus_path = tmp_path / "bare.tsv", tmp_path / "one.txt"
    kg_path.write_text("# no communities\n", encoding="utf-8")
    corpus_path.write_text("Alan Bean met Pete Conrad\n", encoding="utf-8")
    records = run_sweep(SweepConfig(kg_path=str(kg_path), corpus_path=str(corpus_path),
                                    snr_grid=[0.0, 6.0], trials_per_point=2))
    assert len(records) == 2 * 2 * len(SCHEMES)
    for r in records:
        if r.scheme == "kgrag":
            assert (r.flags, r.similarity, r.channel_bits) == ("empty_selection", 0.0, 0)
        else:
            assert not r.flags.startswith("error:")


# -- corpus + config ---------------------------------------------------------------

def test_load_corpus_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# header\n\nFirst line.\n   \nSecond line.\n# trailing\n", encoding="utf-8")
    assert load_corpus(p) == ["First line.", "Second line."]


def test_load_corpus_skips_a_byte_order_mark(tmp_path):
    p = tmp_path / "bom.txt"
    p.write_bytes(b"\xef\xbb\xbf# header comment\nFirst line.\n")
    assert load_corpus(p) == ["First line."]


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
    for name in ("extract_backend", "generate_backend"):
        with pytest.raises(ValueError, match=name):
            SweepConfig(**{name: "htttp"}, **paths)
    for name, bad in (("seed", -1), ("seed", "x"), ("trials_per_point", 1.5),
                      ("kg_path", 5), ("snr_grid", [math.nan]), ("schemes", ()),
                      ("snr_grid", ["x"]),
                      ("snr_grid", 5), ("threshold_policy", [[1]]), ("schemes", "kgrag"),
                      ("alpha", "x"), ("snr_grid", [4.0, 4.0]), ("snr_grid", [0.0, -0.0]),
                      ("snr_grid", [0.0, 1e-7])):
        with pytest.raises(ValueError, match=name):
            SweepConfig(**{**paths, name: bad})


def test_every_sweep_config_field_reaches_the_context(tmp_path, monkeypatch):
    # each field gets a value other than its default and a check that the
    # value reached the context or the sweep; a field without a check fails
    kg_path, corpus_path = tmp_path / "kg.tsv", tmp_path / "corpus.txt"
    kg = tiny_kg(triples=("A r B", "C s D"))  # two disconnected pairs
    kg.dump(kg_path)
    corpus_path.write_text("A met C.\n", encoding="utf-8")
    monkeypatch.setenv("KGSEMCOM_API_BASE", "http://endpoint.invalid/v1")
    monkeypatch.setattr(kgsemcom.remote, "chat_completion", lambda config, prompt: "A\nC")
    policy = ((0.0, 0.1), (6.0, 0.3), (20.0, 0.9))
    values = dict(kg_path=str(kg_path), corpus_path=str(corpus_path), snr_grid=[3.0, math.inf],
                  trials_per_point=2, seed=9, schemes=("ascii", "kgrag"), alpha=0.25,
                  threshold_policy=policy, extract_backend="http", generate_backend="http")
    names = [f.name for f in dataclasses.fields(SweepConfig)]
    assert sorted(values) == sorted(names)
    for f in dataclasses.fields(SweepConfig):
        default = f.default if f.default_factory is dataclasses.MISSING else f.default_factory()
        assert values[f.name] != default, f.name
    config = SweepConfig(**values)
    ctx = PipelineContext.from_config(config)
    records = run_sweep(config, ctx)
    snr_index = {snr: i for i, snr in enumerate(config.snr_grid)}
    checks = {
        "kg_path": ctx.kg == kg,
        "corpus_path": ctx.corpus == ["A met C."],
        "snr_grid": [r.snr_db for r in records[::4]] == [3.0, math.inf],
        "trials_per_point": [r.trial for r in records[:4]] == [0, 0, 1, 1],
        "seed": all(r.seed == derive_seed(9, r.sentence_id, snr_index[r.snr_db], r.trial,
                                          r.scheme) for r in records),
        "schemes": {r.scheme for r in records} == {"ascii", "kgrag"},
        "alpha": ctx.importance_config.alpha == 0.25,
        "threshold_policy": ctx.importance_config.threshold_policy.points == policy,
        "extract_backend": isinstance(ctx.selector, HttpSelector),
        "generate_backend": isinstance(ctx.generator, HttpGenerator),
    }
    assert len(records) == 8
    assert [name for name in names if not checks.get(name)] == []
    # the receiver keeps the largest component; the tie goes to the smaller id
    assert ctx.receive([0, 2])[0].nodes == {0, 1}


def test_readme_sweep_config_block_matches_the_fields(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Sweep config (JSON)", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert list(json.loads(block)) == [f.name for f in dataclasses.fields(SweepConfig)]
    path = tmp_path / "readme.json"
    path.write_text(block, encoding="utf-8")
    assert SweepConfig.from_json(path).trials_per_point == json.loads(block)["trials_per_point"]


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


def test_sweep_config_from_json_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.json"
    path.write_bytes(b"\xef\xbb\xbf" + json.dumps({
        "kg_path": "kg.tsv", "corpus_path": "corpus.txt", "snr_grid": [4]}).encode())
    cfg = SweepConfig.from_json(path)
    assert (cfg.kg_path, cfg.snr_grid) == ("kg.tsv", [4.0])


@pytest.mark.parametrize("document, kind", [('"abc"', "string"), ("[1]", "array"),
                                            ("5", "number"), ("null", "null")])
def test_sweep_config_from_json_rejects_a_document_that_is_not_an_object(tmp_path, document,
                                                                        kind):
    path = tmp_path / "cfg.json"
    path.write_text(document, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        SweepConfig.from_json(path)
    assert str(err.value) == f"config must be a JSON object, got {kind}"


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
        assert 0 <= r.n_received_valid <= r.n_selected <= r.n_mcsg_nodes
        assert r.payload_bits == 7 * r.n_selected
        analysis = ctx.analyze(ctx.corpus[r.sentence_id])
        protected, unprotected = partition_uep(analysis.table, r.snr_db, ctx.importance_config)
        assert r.channel_bits == channel_bit_cost(len(protected), len(unprotected), 7,
                                                  r.snr_db)
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


def test_sentence_groups_change_no_byte(sample_kg_path, sample_corpus_path, monkeypatch):
    # the whole fixture corpus at 12 kgrag rows a sentence fills two groups;
    # groups of one sentence, or of the whole corpus, give the same report,
    # and a row from the middle of a group replays alone
    config = SweepConfig(kg_path=str(sample_kg_path), corpus_path=str(sample_corpus_path),
                         snr_grid=[0.0, 6.0, 12.0], trials_per_point=4)
    ctx = PipelineContext.from_config(config)
    rows = len(config.snr_grid) * config.trials_per_point
    per_group = harness._GROUP_ROWS // rows
    assert per_group < len(ctx.corpus) <= 2 * per_group
    real_transmit = harness.transmit_many
    calls: list[int] = []
    monkeypatch.setattr(harness, "transmit_many", lambda frames, cfgs, prior: calls.append(
        len(cfgs)) or real_transmit(frames, cfgs, prior))
    records = run_sweep(config, ctx)
    assert len(calls) == 2  # one kgrag channel call a group
    report = render_report(records, config.snr_grid)
    for group_rows in (1, len(ctx.corpus) * rows + 1):
        monkeypatch.setattr(harness, "_GROUP_ROWS", group_rows)
        assert render_report(run_sweep(config, ctx), config.snr_grid) == report
    mid = per_group // 2
    replayed = [r for r in records if r.sentence_id == mid]
    assert any(r.scheme == "kgrag" and r.n_received_valid for r in replayed)
    for r in replayed:
        assert run_pipeline(ctx, ctx.corpus[mid], mid, r.snr_db, r.seed, r.scheme, r.trial) == r


@pytest.fixture()
def grouped_config(tmp_path, sample_kg_path, sample_corpus, monkeypatch):
    """Six sentences at 4 kgrag rows each, in groups of two sentences."""
    corpus_path = tmp_path / "six.txt"
    corpus_path.write_text("\n".join(sample_corpus[:6]) + "\n", encoding="utf-8")
    monkeypatch.setattr(harness, "_GROUP_ROWS", 8)
    return SweepConfig(kg_path=str(sample_kg_path), corpus_path=str(corpus_path),
                       snr_grid=[0.0, 12.0], trials_per_point=2)


def _flagged_only(records, clean, failing, flag: str) -> None:
    """``records`` equal ``clean`` but for the records ``failing`` picks, which
    carry ``flag`` and their own trial and seed."""
    assert len(records) == len(clean)
    for got, want in zip(records, clean):
        if failing(want):
            assert got.flags == flag
            assert (got.sentence_id, got.snr_db, got.scheme, got.trial, got.seed) == (
                want.sentence_id, want.snr_db, want.scheme, want.trial, want.seed)
        else:
            assert got == want
    assert any(failing(want) for want in clean)


def test_a_failing_analysis_flags_only_its_sentences_kgrag_records(grouped_config,
                                                                   monkeypatch):
    ctx = PipelineContext.from_config(grouped_config)
    clean = run_sweep(grouped_config, ctx)
    real_analyze = ctx.analyze

    def analyze(sentence):
        if sentence == ctx.corpus[2]:  # the first sentence of the second group
            raise KeyError("boom")
        return real_analyze(sentence)

    monkeypatch.setattr(ctx, "analyze", analyze)
    _flagged_only(run_sweep(grouped_config, ctx), clean,
                  lambda r: r.scheme == "kgrag" and r.sentence_id == 2, "error:KeyError")


def test_a_failing_channel_call_flags_only_its_groups_kgrag_records(grouped_config,
                                                                    monkeypatch):
    ctx = PipelineContext.from_config(grouped_config)
    clean = run_sweep(grouped_config, ctx)
    real_transmit = harness.transmit_many
    calls: list[int] = []

    def transmit_failing_for_the_second_group(frames, cfgs, prior):
        calls.append(len(cfgs))
        if len(calls) == 2:
            raise OverflowError("boom")
        return real_transmit(frames, cfgs, prior)

    monkeypatch.setattr(harness, "transmit_many", transmit_failing_for_the_second_group)
    records = run_sweep(grouped_config, ctx)
    assert len(calls) == 3
    # a sentence that selects nothing sends nothing, so keeps its records
    _flagged_only(records, clean, lambda r: r.scheme == "kgrag" and r.sentence_id in (2, 3)
                  and r.n_selected, "error:OverflowError")


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
    clean = run_sweep(config, ctx)
    calls: list[str] = []  # every text scoring embeds; embed_one is a one-text embed
    batches: list[int] = []

    class Counting(TrigramEmbedder):
        def embed(self, texts):
            batches.append(len(texts))
            calls.extend(texts)
            return super().embed(texts)

    memos: list[harness.SentenceVectors] = []
    real_memo = harness.SentenceVectors
    monkeypatch.setattr(harness, "SentenceVectors", lambda embedder: memos.append(
        real_memo(Counting(embedder.dim))) or memos[-1])
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
    # the receiver's output depends only on the valid seeds received, so the
    # sweep receives each distinct set of them once per sentence
    config = SweepConfig(kg_path=small_config.kg_path, corpus_path=small_config.corpus_path,
                         snr_grid=[math.inf, 4.0, 12.0], trials_per_point=3, schemes=("kgrag",))
    clean = run_sweep(config)
    ctx = PipelineContext.from_config(config)
    real_derive_seed, real_receive = harness.derive_seed, ctx.receive
    real_generate_text = ctx.generate_text
    sentence = [-1]
    calls: list[tuple[int, frozenset[int]]] = []
    generated: list[tuple[int, frozenset[int]]] = []  # (sentence, seeds) per generation

    def derive_seed(base_seed, sentence_id, *rest):  # marks the sentence being served
        sentence[0] = sentence_id
        return real_derive_seed(base_seed, sentence_id, *rest)

    def receive(received):
        seeds = frozenset(received)
        assert seeds <= set(ctx.kg.entities)  # the sweep keys its memo by valid seeds
        calls.append((sentence[0], seeds))
        return real_receive(received)

    def generate_text(recon):  # the receiver generates from the last reception
        generated.append(calls[-1])
        return real_generate_text(recon)

    monkeypatch.setattr(harness, "derive_seed", derive_seed)
    monkeypatch.setattr(ctx, "receive", receive)
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
    nowhere = TransmitResult(((1 << ctx.id_width) - 1,), (), 0, 0, 0, 0)
    monkeypatch.setattr(harness, "transmit_many", lambda frames, cfgs, prior: [nowhere] * len(cfgs))
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


def test_one_node_set_from_two_seed_sets_gets_two_texts(sample_kg):
    # seeds {2} and {2, 3} reconstruct the same nodes, but each text states
    # its own seeds' facts, so the memo may not hand one the other's text
    ctx = PipelineContext(sample_kg)
    one, one_text, _ = ctx.receive([2])
    two, two_text, _ = ctx.receive([2, 3])
    assert one.nodes == two.nodes == {1, 2, 3, 10}
    assert one_text != two_text
    for recon, text in ((one, one_text), (two, two_text)):
        assert text == StubGenerator().generate(build_prompt(recon, sample_kg)).text
        assert ctx.receive(recon.seed_nodes)[1] == text


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


@pytest.mark.parametrize("grid", [[4.0, 4.0], [0.0, -0.0], [math.inf, 2.0, math.inf],
                                  [0.0, 1e-7], [-1e-9, -2e-9], [2.0, 2.0000001]],
                         ids=["4-4", "0-minus0", "inf-2-inf",
                              "0-1e-7", "minus0-minus0", "2-2.0000001"])
def test_baseline_records_reject_a_repeated_snr(sample_corpus, grid):
    # a repeated point would write its summary rows and cumulative blocks twice,
    # and so would unequal values the report labels alike ("0", "-0", "2")
    with pytest.raises(ValueError, match="repeats a value"):
        baseline_records(sample_corpus[:2], grid)


def test_snrs_with_distinct_labels_keep_their_rows(sample_corpus):
    grid = [0.0, 1e-6, -1e-9]  # "0", "0.000001" and "-0"
    report = render_report(baseline_records(sample_corpus[:2], grid), grid)
    summaries = [row for row in csv.reader(io.StringIO(report)) if row[0] == "summary"]
    assert [row[2] for row in summaries] == ["0", "0", "0.000001", "0.000001", "-0", "-0"]


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


# -- the embedding index: entity rows embedded on first use ------------------------

@pytest.fixture(scope="module")
def synth_config(tmp_path_factory) -> SweepConfig:
    kg_text, corpus_text = load_synthkg().generate(5, 300, 60)
    base = tmp_path_factory.mktemp("synth")
    (base / "kg.tsv").write_text(kg_text, encoding="utf-8")
    (base / "corpus.txt").write_text(corpus_text, encoding="utf-8")
    return SweepConfig(kg_path=str(base / "kg.tsv"), corpus_path=str(base / "corpus.txt"),
                       snr_grid=[0.0, 6.0, math.inf], trials_per_point=2, seed=3)


def test_set_up_embeds_one_text_per_community(sample_kg, monkeypatch):
    texts: list[str] = []
    real_embed = TrigramEmbedder.embed
    monkeypatch.setattr(TrigramEmbedder, "embed",
                        lambda self, batch: texts.extend(batch) or real_embed(self, batch))
    PipelineContext(sample_kg)
    assert len(texts) == len(sample_kg.communities)


def test_each_communitys_entities_are_embedded_at_most_once(synth_config, monkeypatch):
    ctx = PipelineContext.from_config(synth_config)
    community_of = {f"{e.name}: {e.description}": e.community for e in ctx.kg.entities.values()}
    embedded: Counter = Counter()
    real_embed = ctx.embedder.embed
    monkeypatch.setattr(ctx.embedder, "embed", lambda texts: embedded.update(
        t for t in texts if t in community_of) or real_embed(texts))
    run_sweep(synth_config, ctx)
    run_sweep(synth_config, ctx)  # the second sweep routes to communities already held
    assert embedded and max(embedded.values()) == 1
    # whole communities only: every member of a community once some member is
    routed = {community_of[t] for t in embedded}
    assert len(embedded) == sum(len(ids) for ids, _ in ctx.index.entities(routed))
    assert len(routed) < len(ctx.kg.communities)


def test_a_pre_filled_index_gives_the_same_report(synth_config):
    def report(ctx: PipelineContext) -> bytes:
        return render_report(run_sweep(synth_config, ctx), synth_config.snr_grid).encode()

    full = PipelineContext.from_config(synth_config)
    full.index.entities(full.index.community_ids)
    assert report(full) == report(PipelineContext.from_config(synth_config))
