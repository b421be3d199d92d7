"""Three-stage entity extraction: gazetteer recognition, community-guided
candidate expansion, and deterministic (or model-backed) selection."""

import numpy as np
import pytest

from kgsemcom import (
    CandidateSet,
    EmbeddingIndex,
    HttpSelector,
    Mention,
    StubSelector,
    TrigramEmbedder,
    expand,
    extract_trace,
    ingest,
    recognize,
    select,
)
from kgsemcom.extraction import MAX_SELECTED, TOP_K

from kgtools import cosine


# -- stage 1: recognize --------------------------------------------------------

def test_exact_kg_name_recognized(sample_kg):
    mentions = recognize("Alan Bean flew twice.", sample_kg)
    assert [m.surface for m in mentions] == ["Alan Bean"]
    assert mentions[0].start == 0 and mentions[0].end == len("Alan Bean")


def test_no_names_no_capitalized_runs_empty(sample_kg):
    assert recognize("the quick brown fox jumps over nothing here", sample_kg) == []


def test_longest_match_swallows_nested_name():
    kg = ingest([
        "C\tc0\tL\tS",
        "E\t0\tAcharya Institute of Technology\tc0\t\t",
        "E\t1\tTechnology\tc0\t\t",
    ])
    mentions = recognize("She studied at Acharya Institute of Technology today.", kg)
    assert [m.surface for m in mentions] == ["Acharya Institute of Technology"]


def test_shorter_name_still_found_alone():
    kg = ingest([
        "C\tc0\tL\tS",
        "E\t0\tAcharya Institute of Technology\tc0\t\t",
        "E\t1\tTechnology\tc0\t\t",
    ])
    mentions = recognize("technology is everywhere", kg)
    assert [m.surface for m in mentions] == ["technology"]


def test_case_insensitive_gazetteer(sample_kg):
    mentions = recognize("ALAN BEAN and alan bean", sample_kg)
    assert len(mentions) == 2
    assert all(m.surface.casefold() == "alan bean" for m in mentions)


def test_alias_recognized(sample_kg):
    mentions = recognize("They cheered for Captain Bean loudly.", sample_kg)
    assert [m.surface for m in mentions] == ["Captain Bean"]


def test_capitalized_run_fallback(sample_kg):
    mentions = recognize("He met the Zanzibar Quartet yesterday.", sample_kg)
    assert [m.surface for m in mentions] == ["Zanzibar Quartet"]


def test_single_capitalized_token_not_a_fallback_mention(sample_kg):
    assert recognize("Yesterday it rained.", sample_kg) == []


def test_mentions_sorted_non_overlapping_surface_matches_slice(sample_kg, sample_corpus):
    for sentence in sample_corpus[:20]:
        mentions = recognize(sentence, sample_kg)
        last_end = 0
        for m in mentions:
            assert m.start >= last_end
            assert sentence[m.start:m.end] == m.surface
            last_end = m.end


# -- stage 2: expand -----------------------------------------------------------

def test_expand_zero_mentions_empty(sample_index, embedder):
    cset = expand([], sample_index, embedder)
    assert set(cset.provenance) == set()
    assert cset.provenance == {}


def test_expand_exact_entity_text_scores_one(sample_kg, sample_index, embedder):
    # a mention whose embedding equals one entity's indexed text embedding
    ent = sample_kg.entities[sample_kg.id_of("Alan Bean")]
    surface = f"{ent.name}: {ent.description}"
    mention = Mention(surface, 0, len(surface))
    cset = expand([mention], sample_index, embedder)
    assert ent.node_id in cset.provenance
    assert cset.provenance[ent.node_id][1] == pytest.approx(1.0, abs=1e-9)


def test_expand_matches_exhaustive_scan_oracle(sample_kg, sample_index, embedder):
    surfaces = ["Alan Bean", "Koh-i-Noor", "Flying Scotsman"]  # disjoint communities
    mentions = [Mention(s, 0, len(s)) for s in surfaces]
    cset = expand(mentions, sample_index, embedder, k=3)
    assert len(cset.provenance) <= 9

    # oracle: for each mention scan all summaries, then all entities there
    expected: set[int] = set()
    for s in surfaces:
        q = embedder.embed_one(s)
        comm_sims = {cid: cosine(q, embedder.embed_one(c.summary))
                     for cid, c in sample_kg.communities.items()}
        best = max(comm_sims.values())
        cstar = min(cid for cid, v in comm_sims.items() if v == best)
        ent_sims = {nid: cosine(q, embedder.embed_one(f"{e.name}: {e.description}"))
                    for nid, e in sample_kg.entities.items() if e.community == cstar}
        top3 = sorted(ent_sims, key=lambda n: (-ent_sims[n], n))[:3]
        expected.update(top3)
    assert set(cset.provenance) == expected


def test_expand_provenance_keeps_best_similarity(sample_kg, sample_index, embedder):
    # two mentions of the same entity at different lexical distances
    mentions = [Mention("Alan Bean.", 0, 10), Mention("Alan Bean", 20, 29)]
    cset = expand(mentions, sample_index, embedder)
    nid = sample_kg.id_of("Alan Bean")
    assert nid in cset.provenance
    best = max(
        cosine(embedder.embed_one(m.surface),
               embedder.embed_one("Alan Bean: " + sample_kg.entities[nid].description))
        for m in mentions)
    assert cset.provenance[nid][1] == pytest.approx(best, abs=1e-12)


def test_expand_search_space_reduction_counters(sample_kg, sample_index, embedder):
    before = dict(sample_index.eval_counts)
    surfaces = ["Alan Bean", "Koh-i-Noor", "Flying Scotsman"]
    mentions = [Mention(s, 0, len(s)) for s in surfaces]
    cset = expand(mentions, sample_index, embedder, k=3)
    evals = {kind: n - before[kind] for kind, n in sample_index.eval_counts.items()}
    routed = [community for _, community, _ in cset.per_mention]
    assert evals["entity"] == sum(len(ids) for ids, _ in sample_index.entities(routed))
    assert evals["community"] == len(mentions) * len(sample_kg.communities)
    assert evals["entity"] + evals["community"] < len(mentions) * len(sample_kg)


def test_expand_embeds_a_sentences_mentions_in_one_call(sample_kg, sample_corpus,
                                                        monkeypatch):
    # one embed call of a sentence's mentions, also with no mention, then at
    # most one of the entity texts of the routed communities not embedded
    # before, and each mention routed and ranked as its own embedding would
    # route and rank it
    emb = TrigramEmbedder()
    index = EmbeddingIndex.build(sample_kg, emb)
    real_embed = emb.embed
    batches: list[list[str]] = []
    monkeypatch.setattr(emb, "embed", lambda texts: batches.append(list(texts))
                        or real_embed(texts))
    held: set[str] = set()
    for sentence in sample_corpus + ["nothing relevant here at all"]:
        mentions = recognize(sentence, sample_kg)
        batches.clear()
        cset = expand(mentions, index, emb)
        assert batches[0] == [m.surface for m in mentions]
        routed = dict.fromkeys(community for _, community, _ in cset.per_mention)
        fresh = [c for c in routed if c not in held]
        held.update(fresh)
        entity_texts = [f"{ent.name}: {ent.description}" for c in fresh
                        for _, ent in sorted(sample_kg.entities.items()) if ent.community == c]
        assert batches[1:] == ([entity_texts] if fresh else [])
        assert [m for m, _, _ in cset.per_mention] == mentions
        for mention, community, ranked in cset.per_mention:
            query = real_embed([mention.surface])[0]
            assert community == index.best_community(query)
            assert ranked == index.top_k_in_community(community, query, k=TOP_K)


# -- stage 3: select -----------------------------------------------------------

def _cset(pairs) -> CandidateSet:
    """pairs: (node_id, similarity) with a dummy mention."""
    m = Mention("m", 0, 1)
    return CandidateSet(provenance={nid: (m, sim) for nid, sim in pairs})


def test_stub_keeps_name_found_in_sentence(sample_kg):
    nid = sample_kg.id_of("Alan Bean")
    got = StubSelector().select("we saw alan  bean there", _cset([(nid, 0.01)]), sample_kg)
    assert got.ids == (nid,)


def test_stub_drops_absent_low_similarity(sample_kg):
    nid = sample_kg.id_of("Alan Bean")
    got = StubSelector().select("unrelated sentence", _cset([(nid, 0.49)]), sample_kg)
    assert got.ids == ()


def test_stub_keeps_absent_high_similarity(sample_kg):
    nid = sample_kg.id_of("Alan Bean")
    got = StubSelector().select("unrelated sentence", _cset([(nid, 0.5)]), sample_kg)
    assert got.ids == (nid,)


def test_stub_caps_at_max_by_descending_similarity(sample_kg):
    ids = sorted(sample_kg.entities)[:10]
    pairs = [(nid, 0.9 - 0.01 * i) for i, nid in enumerate(ids)]
    got = StubSelector().select("unrelated", _cset(pairs), sample_kg, max_selected=8)
    assert got.ids == tuple(sorted(ids[:8]))
    assert len(got.ids) == 8


def test_stub_output_ascending(sample_kg):
    ids = sorted(sample_kg.entities)[:4]
    pairs = [(nid, 0.6) for nid in ids]
    got = StubSelector().select("unrelated", _cset(pairs), sample_kg)
    assert list(got.ids) == sorted(got.ids)


def test_http_selector_subset_filter(sample_kg, monkeypatch):
    # model names 2 of 6 candidates (one with decoration), then unknown junk
    ids = sorted(sample_kg.entities)[:6]
    names = [sample_kg.entities[i].name for i in ids]
    reply = f"- {names[4]}\n{names[1]}\n\nCompletely Unknown Thing"
    import kgsemcom.remote as remote_mod
    monkeypatch.setattr(remote_mod, "chat_completion", lambda config, prompt: reply)
    selector = HttpSelector(config=object(), prompt_template="{sentence}|{candidates}")
    got = selector.select("any sentence", _cset([(i, 0.3) for i in ids]), sample_kg)
    assert got.ids == tuple(sorted([ids[1], ids[4]]))


def test_http_selector_reads_one_name_per_line(monkeypatch):
    # the prompt asks for one name per line, and a name may hold a comma
    kg = ingest(["C\tc0\tlabel\tsummary", "E\t\tWashington, D.C.\tc0\t\t",
                 "E\t\tOhio\tc0\t\t", "E\t\tWashington\tc0\t\t"])
    capital, ohio, state = (kg.id_of(n) for n in ("Washington, D.C.", "Ohio", "Washington"))
    import kgsemcom.remote as remote_mod
    monkeypatch.setattr(remote_mod, "chat_completion",
                        lambda config, prompt: "Washington, D.C.\nOhio\n")
    selector = HttpSelector(config=object(), prompt_template="{sentence}|{candidates}")
    got = selector.select("s", _cset([(i, 0.3) for i in (capital, ohio, state)]), kg)
    assert got.ids == tuple(sorted([capital, ohio]))


def test_http_selector_caps_by_descending_similarity(sample_kg, monkeypatch):
    # the reply names every candidate; the cap keeps the most similar, as the
    # stub does, with ties to the smaller id
    ids = sorted(sample_kg.entities)[:4]
    reply = "\n".join(sample_kg.entities[i].name for i in ids)
    import kgsemcom.remote as remote_mod
    monkeypatch.setattr(remote_mod, "chat_completion", lambda config, prompt: reply)
    selector = HttpSelector(config=object(), prompt_template="{sentence}|{candidates}")
    cands = _cset(zip(ids, [0.1, 0.2, 0.95, 0.2]))
    assert selector.select("s", cands, sample_kg, max_selected=1).ids == (ids[2],)
    assert selector.select("s", cands, sample_kg, max_selected=2).ids == (ids[1], ids[2])
    assert selector.select("s", cands, sample_kg, max_selected=3).ids == tuple(ids[1:])
    high = _cset(zip(ids, [0.6, 0.7, 0.95, 0.7]))  # every candidate clears the stub's bar
    for k in range(1, 5):
        assert (selector.select("s", high, sample_kg, max_selected=k)
                == StubSelector().select("s", high, sample_kg, max_selected=k))


def test_http_selector_never_admits_non_candidates(sample_kg, monkeypatch):
    ids = sorted(sample_kg.entities)[:2]
    outside = next(i for i in sorted(sample_kg.entities) if i not in ids)
    reply = sample_kg.entities[outside].name  # names a real entity, not a candidate
    import kgsemcom.remote as remote_mod
    monkeypatch.setattr(remote_mod, "chat_completion", lambda config, prompt: reply)
    selector = HttpSelector(config=object(), prompt_template="{sentence}|{candidates}")
    got = selector.select("s", _cset([(i, 0.3) for i in ids]), sample_kg)
    assert got.ids == ()


def test_http_selector_prompt_contains_sentence_and_descriptions(sample_kg, monkeypatch):
    seen = {}

    def fake_chat(config, prompt):
        seen["prompt"] = prompt
        return ""

    import kgsemcom.remote as remote_mod
    monkeypatch.setattr(remote_mod, "chat_completion", fake_chat)
    ids = sorted(sample_kg.entities)[:3]
    selector = HttpSelector(config=object(), prompt_template="{sentence}|{candidates}")
    selector.select("the probe sentence", _cset([(i, 0.3) for i in ids]), sample_kg)
    assert "the probe sentence" in seen["prompt"]
    for nid in ids:
        assert sample_kg.entities[nid].name in seen["prompt"]
        if sample_kg.entities[nid].description:
            assert sample_kg.entities[nid].description in seen["prompt"]


# -- composition ---------------------------------------------------------------

def _trace(sentence, kg, index, embedder):
    return extract_trace(sentence, kg, index, embedder, StubSelector())


def test_sentence_equal_to_entity_name(sample_kg, sample_index, embedder):
    got = _trace("Alan Bean", sample_kg, sample_index, embedder).selected
    assert got.ids == (sample_kg.id_of("Alan Bean"),)


def test_empty_pipeline_reports_empty_selection(sample_kg, sample_index, embedder):
    trace = _trace("nothing relevant here at all", sample_kg, sample_index, embedder)
    assert trace.mentions == []
    assert set(trace.candidates.provenance) == set()
    assert trace.selected.ids == ()


def test_fixture_sentence_hand_trace(sample_kg, sample_index, sample_corpus, embedder):
    # three planted names -> exactly their ids, ascending
    sentence = sample_corpus[6]
    assert "Moonwalk Simulator" in sentence
    expected = tuple(sorted(sample_kg.id_of(n) for n in
                            ("Pete Conrad", "Surveyor Crater", "Moonwalk Simulator")))
    got = _trace(sentence, sample_kg, sample_index, embedder).selected
    assert got.ids == expected


def test_selected_subset_of_candidates_subset_of_kg(sample_kg, sample_index,
                                                    sample_corpus, embedder):
    for sentence in sample_corpus[:15]:
        trace = _trace(sentence, sample_kg, sample_index, embedder)
        assert set(trace.selected.ids) <= set(trace.candidates.provenance)
        assert set(trace.candidates.provenance) <= set(sample_kg.entities)


def test_extract_deterministic(sample_kg, sample_index, sample_corpus, embedder):
    for sentence in sample_corpus[:5]:
        a = _trace(sentence, sample_kg, sample_index, embedder).selected
        b = _trace(sentence, sample_kg, sample_index, embedder).selected
        assert a == b


def test_stage_timings_recorded(sample_kg, sample_index, sample_corpus, embedder):
    trace = _trace(sample_corpus[0], sample_kg, sample_index, embedder)
    assert set(trace.stage_seconds) == {"recognize", "expand", "select"}
    assert all(v >= 0 for v in trace.stage_seconds.values())


def test_select_dispatches_to_backend(sample_kg):
    class Recorder:
        def select(self, sentence, candidates, kg, max_selected=8):
            self.seen = (sentence, max_selected)
            from kgsemcom import SelectedEntities
            return SelectedEntities(ids=())

    backend = Recorder()
    select("s", _cset([]), sample_kg, backend, max_selected=5)
    assert backend.seen == ("s", 5)
    select("s", _cset([]), sample_kg, backend)
    assert backend.seen == ("s", MAX_SELECTED)
