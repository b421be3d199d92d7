"""Prompt assembly and text regeneration from reconstructed subgraphs."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

import kgsemcom.remote
from kgsemcom.generation import (
    HttpGenerator,
    StubGenerator,
    build_prompt,
    enrich_kg,
    verbalize_relation,
)
from kgsemcom.harness import PipelineContext
from kgsemcom.kg import ingest
from kgsemcom.phy import ChannelConfig, transmit
from kgsemcom.semgraph import reconstruct

from kgtools import tiny_kg


def _mcsg(kg, ids, keep_all=True):
    return reconstruct(list(ids), kg, keep_all_components=keep_all)


def test_prompt_single_triple_structure():
    kg = tiny_kg(triples=("A r B",))
    prompt = build_prompt(_mcsg(kg, [0, 1]), kg)
    assert prompt.descriptions_section == ("A: ", "B: ")
    assert prompt.triples == (("A", "r", "B"),)
    assert prompt.isolated_names == ()


def test_prompt_render_layout():
    kg = tiny_kg(triples=("A r B",))
    rendered = build_prompt(_mcsg(kg, [0, 1]), kg).render()
    instruction, _, rest = rendered.partition("\n\nFacts:\n")
    assert instruction  # non-empty instruction header
    assert rest == "- A -r-> B\n\nEntity descriptions:\n- A: \n- B: \n"


def test_empty_subgraph_rejected(sample_kg):
    with pytest.raises(ValueError, match="empty"):
        build_prompt(_mcsg(sample_kg, []), sample_kg)


def test_prompt_deterministic(sample_kg):
    ids = [2, 3, 11, 12]
    a = build_prompt(_mcsg(sample_kg, ids), sample_kg)
    b = build_prompt(_mcsg(sample_kg, list(reversed(ids))), sample_kg)
    assert a == b
    assert a.render() == b.render()


def test_prompt_sections_cover_subgraph(sample_kg):
    mcsg = _mcsg(sample_kg, [2, 3, 5, 11, 12])
    prompt = build_prompt(mcsg, sample_kg)
    assert len(prompt.descriptions_section) == len(mcsg.nodes)
    facts = prompt.render().partition("\n\nFacts:\n")[2].partition("\n\nEntity")[0]
    assert facts.splitlines() == [f"- {s} -{r}-> {o}" for s, r, o in prompt.triples]
    assert len(prompt.triples) == len(mcsg.edges)
    assert list(prompt.triples) == sorted(prompt.triples)
    for nid in sorted(mcsg.nodes):
        name = sample_kg.entities[nid].name
        assert any(line.startswith(f"{name}: ") for line in prompt.descriptions_section)


def test_prompt_states_the_edges_with_a_seed_end(sample_kg, sample_corpus):
    # over the receiver's reconstructions of the fixture's frames: the facts
    # are a plain filter of the edges, every node the edges touch is still
    # named, and a subgraph whose every node is a seed states every edge
    ctx = PipelineContext(sample_kg, sample_corpus)
    cut = 0
    for sentence in sample_corpus:
        analysis = ctx.analyze(sentence)
        if not analysis.mcsg.seed_nodes:
            continue
        for snr_db in (0.0, 4.0, 12.0, math.inf):
            for seed in range(3):
                frame = ctx.send_frame(analysis, snr_db)
                result = transmit(frame, ChannelConfig(snr_db, seed), ctx.seed_prior)
                recon, _, _ = ctx.receive(ctx.received_ids(result))
                if not recon.nodes:
                    continue
                name = {n: sample_kg.entities[n].name for n in recon.nodes}
                names = [(name[t.subject], t.relation, name[t.object]) for t in recon.edges]
                seeds = recon.seed_nodes
                star = [(name[t.subject], t.relation, name[t.object]) for t in recon.edges
                        if t.subject in seeds or t.object in seeds]
                touched = {n for t in recon.edges for n in (t.subject, t.object)}
                prompt = build_prompt(recon, sample_kg)
                assert list(prompt.triples) == star
                assert prompt.isolated_names == tuple(name[n] for n in sorted(recon.nodes)
                                                      if n not in touched)
                assert prompt.descriptions_section == tuple(
                    f"{name[n]}: {sample_kg.entities[n].description}" for n in sorted(recon.nodes))
                everything = build_prompt(replace(recon, seed_nodes=recon.nodes), sample_kg)
                assert list(everything.triples) == names
                assert everything.isolated_names == prompt.isolated_names
                cut += len(star) < len(names)
    assert cut  # some reception drops a fact between two hop nodes


def test_verbalize_relation():
    assert verbalize_relation("birthPlace") == "birth place"
    assert verbalize_relation("launch_site") == "launch site"
    assert verbalize_relation("operatedBy") == "operated by"
    assert verbalize_relation("crewed_missionRole") == "crewed mission role"
    assert verbalize_relation("r") == "r"


def test_verbalize_relation_memo_equals_the_function(sample_kg):
    labels = {t.relation for t in sample_kg.triples}
    assert len(labels) == 50
    rnd = random.Random(65)
    parts = ["birth", "Place", "launch", "SITE", "x", "9", "Of", "crew", "Mission"]
    for _ in range(500):
        words = [rnd.choice(parts) for _ in range(rnd.randint(1, 4))]
        labels.add(rnd.choice(["", "_"]).join(words))
    for label in sorted(labels):
        assert verbalize_relation(label) == verbalize_relation.__wrapped__(label)
    maxsize = verbalize_relation.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize < 100_000


def test_stub_verbalizes_single_triple():
    kg = tiny_kg(triples=("Alan_Bean birthPlace Wheeler",))
    result = StubGenerator().generate(build_prompt(_mcsg(kg, [0, 1]), kg))
    assert result.text == "Alan Bean birth place Wheeler."
    assert not result.degraded


def test_stub_joins_clauses_in_edge_order():
    kg = tiny_kg(triples=("A r B", "B s C"))
    result = StubGenerator().generate(build_prompt(_mcsg(kg, [0, 1, 2]), kg))
    assert result.text == "A r B; B s C."


def test_stub_mentions_isolated_nodes():
    kg = tiny_kg(triples=("A r B",), extra_entities=("Lone_Star",))
    prompt = build_prompt(_mcsg(kg, [0, 1, 2]), kg)
    assert prompt.isolated_names == ("Lone_Star",)
    assert StubGenerator().generate(prompt).text == "A r B; Lone Star."


def test_stub_mentions_every_node_random_subgraphs(sample_kg):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(81)))
    all_ids = sorted(sample_kg.entities)
    for _ in range(100):
        ids = rng.choice(all_ids, size=int(rng.integers(1, 7)), replace=False)
        mcsg = _mcsg(sample_kg, [int(i) for i in ids])
        text = StubGenerator().generate(build_prompt(mcsg, sample_kg)).text
        for nid in mcsg.nodes:
            assert sample_kg.entities[nid].name.replace("_", " ") in text


def test_stub_output_grounded_in_subgraph(sample_kg):
    mcsg = _mcsg(sample_kg, [2, 3])
    text = StubGenerator().generate(build_prompt(mcsg, sample_kg)).text
    inside = {sample_kg.entities[n].name for n in mcsg.nodes}
    for nid, ent in sample_kg.entities.items():
        if nid in mcsg.nodes or any(ent.name in name for name in inside):
            continue
        assert ent.name not in text


def test_http_generator_returns_trimmed_reply(monkeypatch, sample_kg):
    calls = []

    def fake_chat(config, prompt_text):
        calls.append(prompt_text)
        return "  Alan Bean flew on the second lunar landing.  \n"

    monkeypatch.setattr(kgsemcom.remote, "chat_completion", fake_chat)
    prompt = build_prompt(_mcsg(sample_kg, [2, 3]), sample_kg)
    result = HttpGenerator(config=None).generate(prompt)
    assert result.text == "Alan Bean flew on the second lunar landing."
    assert not result.degraded
    assert calls == [prompt.render()]


def test_http_generator_empty_reply_falls_back(monkeypatch, sample_kg):
    monkeypatch.setattr(kgsemcom.remote, "chat_completion", lambda cfg, p: "   \n")
    prompt = build_prompt(_mcsg(sample_kg, [2, 3]), sample_kg)
    result = HttpGenerator(config=None).generate(prompt)
    assert result.degraded
    assert result.text == StubGenerator().generate(prompt).text


def test_enrich_fills_only_empty_fields(monkeypatch):
    kg = ingest([
        "C\tc0\tCrew\t",
        "E\t\tA\tc0\talready described\t",
        "E\t\tB\tc0\t\t",
        "T\t0\tknows\t1",
    ])
    prompts_seen = []

    def fake_chat(config, prompt_text):
        prompts_seen.append(prompt_text)
        return f"generated #{len(prompts_seen)}"

    monkeypatch.setattr(kgsemcom.remote, "chat_completion", fake_chat)
    enriched = enrich_kg(kg, remote_config=None)
    assert enriched.entities[0].description == "already described"
    assert enriched.entities[1].description == "generated #1"
    assert enriched.communities["c0"].summary == "generated #2"
    assert len(prompts_seen) == 2
    assert "B" in prompts_seen[0]  # entity prompt names the entity
    assert "A, B" in prompts_seen[1]  # community prompt lists members


def test_enrich_noop_when_fully_described(monkeypatch, sample_kg):
    def explode(config, prompt_text):  # fixture KG is fully described
        raise AssertionError("no remote call expected")

    monkeypatch.setattr(kgsemcom.remote, "chat_completion", explode)
    enriched = enrich_kg(sample_kg, remote_config=None)
    assert enriched.entities == sample_kg.entities
    assert enriched.communities == sample_kg.communities
