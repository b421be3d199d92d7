"""Embeddings and hierarchical retrieval: cosine math, the deterministic
trigram embedder, and community-first search against full-scan oracles."""

import math

import numpy as np
import pytest

from kgsemcom import EmbeddingIndex, TrigramEmbedder, cosine, ingest


# -- cosine ------------------------------------------------------------------

def test_cosine_identity():
    assert cosine(np.array([1.0, 0, 0]), np.array([1.0, 0, 0])) == pytest.approx(1.0)


def test_cosine_orthogonal():
    assert cosine(np.array([1.0, 0]), np.array([0, 1.0])) == pytest.approx(0.0)


def test_cosine_closed_form():
    got = cosine(np.array([1.0, 0]), np.array([1.0, 1.0]))
    assert got == pytest.approx(math.sqrt(2) / 2, abs=1e-9)


def test_cosine_dimension_mismatch_and_zero_norm_distinct_errors():
    with pytest.raises(ValueError, match="dimension mismatch"):
        cosine(np.array([1.0, 0]), np.array([1.0, 0, 0]))
    with pytest.raises(ValueError, match="zero-norm"):
        cosine(np.array([0.0, 0.0]), np.array([1.0, 0.0]))


def test_cosine_scale_invariance():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
    for _ in range(50):
        a = rng.standard_normal(16)
        b = rng.standard_normal(16)
        lam = float(rng.uniform(1e-3, 1e3))
        assert cosine(lam * a, b) == pytest.approx(cosine(a, b), abs=1e-9)


def test_cosine_symmetry():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2)))
    a = rng.standard_normal(8)
    b = rng.standard_normal(8)
    assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-12)


# -- trigram embedder ---------------------------------------------------------

def test_empty_text_has_a_stable_vector(embedder):
    v1 = embedder.embed_one("")
    v2 = embedder.embed_one("")
    assert np.array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0)


def test_identical_text_bitwise_identical_vectors():
    # separate instances: no shared cache, still bitwise equal
    a = TrigramEmbedder().embed_one("Alan Bean")
    b = TrigramEmbedder().embed_one("Alan Bean")
    assert np.array_equal(a, b)


def test_lexical_overlap_orders_similarity(embedder):
    base = embedder.embed_one("Alan Bean")
    near = embedder.embed_one("Alan Bean.")
    far = embedder.embed_one("carbon dioxide")
    assert cosine(base, near) > cosine(base, far)


def test_configured_dimension_and_never_zero():
    emb = TrigramEmbedder(dim=64)
    for text in ("", "x", "hello world", "Alan Bean", "  spaced   out  "):
        v = emb.embed_one(text)
        assert v.shape == (64,)
        assert np.all(np.isfinite(v))
        assert np.linalg.norm(v) > 0


def test_embed_batch_matches_embed_one(embedder):
    texts = ["alpha", "beta", "gamma"]
    batch = embedder.embed(texts)
    for text, vec in zip(texts, batch):
        assert np.array_equal(vec, embedder.embed_one(text))


def test_casefold_and_whitespace_collapse_share_vectors(embedder):
    assert np.array_equal(embedder.embed_one("Alan  Bean"),
                          embedder.embed_one("alan bean"))


# -- index construction -------------------------------------------------------

def _random_kg(rng, n_communities=5, members_per=10):
    records = []
    nid = 0
    for c in range(n_communities):
        words = [f"word{int(rng.integers(0, 50))}" for _ in range(4)]
        records.append(f"C\tc{c}\tlabel {c}\t{' '.join(words)}")
        for _ in range(members_per):
            name = f"entity {nid} {words[int(rng.integers(0, 4))]}"
            records.append(f"E\t{nid}\t{name}\tc{c}\tdescription {nid}\t")
            nid += 1
    return ingest(records)


def test_every_entity_indexed_exactly_once(sample_kg, sample_index):
    total = sum(sample_index.community_size(c) for c in sample_index.community_ids)
    assert total == len(sample_kg)
    assert sorted(sample_index.community_ids) == sorted(sample_kg.communities)


def test_best_community_exact_match_wins(sample_kg, sample_index, embedder):
    for cid in sample_index.community_ids:
        query = embedder.embed_one(sample_kg.communities[cid].summary)
        assert sample_index.best_community(query) == cid


def test_best_community_single_community(embedder):
    kg = ingest(["C\tonly\tL\tsummary text", "E\t0\tA\tonly\t\t"])
    index = EmbeddingIndex.build(kg, embedder)
    for text in ("anything", "else", ""):
        assert index.best_community(embedder.embed_one(text)) == "only"


def test_best_community_matches_exhaustive_scan(embedder):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(11)))
    for trial in range(10):
        kg = _random_kg(rng)
        index = EmbeddingIndex.build(kg, embedder)
        query = embedder.embed_one(f"probe text {trial}")
        sims = {cid: cosine(query, embedder.embed_one(kg.communities[cid].summary))
                for cid in kg.communities}
        best = max(sims.values())
        oracle = min(cid for cid, s in sims.items() if s == best)
        assert index.best_community(query) == oracle


def test_best_community_tie_breaks_to_smallest_id(embedder):
    # two communities with the same summary text tie exactly
    kg = ingest([
        "C\tzz_second\tL\tshared summary",
        "C\taa_first\tL\tshared summary",
        "E\t0\tA\tzz_second\t\t",
        "E\t1\tB\taa_first\t\t",
    ])
    index = EmbeddingIndex.build(kg, embedder)
    assert index.best_community(embedder.embed_one("shared summary")) == "aa_first"


def test_top_k_member_text_scores_one(sample_kg, sample_index, embedder):
    # entity indexed text is "name: description"; that exact text ranks first
    cid = sample_index.community_ids[0]
    ids, _ = sample_index._entities[cid]
    target = sample_kg.entities[ids[0]]
    query = embedder.embed_one(f"{target.name}: {target.description}")
    ranked = sample_index.top_k_in_community(cid, query, k=3)
    assert ranked[0][0] == target.node_id
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-9)


def test_top_k_larger_than_community_returns_all(sample_index, embedder):
    cid = sample_index.community_ids[0]
    size = sample_index.community_size(cid)
    ranked = sample_index.top_k_in_community(cid, embedder.embed_one("probe"), k=size + 50)
    assert len(ranked) == size
    sims = [s for _, s in ranked]
    assert sims == sorted(sims, reverse=True)


def test_top_k_matches_full_sort_oracle(embedder):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(12)))
    records = ["C\tbig\tL\tsummary"]
    for i in range(50):
        records.append(f"E\t{i}\tentity {int(rng.integers(0, 20))} var{i}\tbig\tdesc\t")
    kg = ingest(records)
    index = EmbeddingIndex.build(kg, embedder)
    for probe in ("entity 7", "var33", "unrelated text"):
        query = embedder.embed_one(probe)
        sims = {}
        for nid, ent in kg.entities.items():
            sims[nid] = cosine(query, embedder.embed_one(f"{ent.name}: {ent.description}"))
        oracle = sorted(sims, key=lambda n: (-sims[n], n))[:3]
        got = [nid for nid, _ in index.top_k_in_community("big", query, k=3)]
        assert got == oracle


def test_top_k_tie_breaks_to_smaller_node_id(embedder):
    # distinct names whose "name: description" texts coincide -> exact tie
    kg = ingest([
        "C\tc0\tL\tS",
        "E\t9\tSame\tc0\tthing: extra\t",
        "E\t4\tSame: thing\tc0\textra\t",
        "E\t7\tother words\tc0\td\t",
    ])
    index = EmbeddingIndex.build(kg, embedder)
    ranked = index.top_k_in_community("c0", embedder.embed_one("Same: thing: extra"), k=3)
    assert ranked[0][1] == pytest.approx(ranked[1][1], abs=0)
    assert [nid for nid, _ in ranked[:2]] == [4, 9]


def test_queries_invariant_under_positive_rescaling(sample_index, embedder):
    query = embedder.embed_one("Alan Bean")
    for lam in (1e-6, 0.5, 1.0, 3.0, 1e6):
        scaled = lam * query
        assert (sample_index.best_community(scaled)
                == sample_index.best_community(query))
        cid = sample_index.best_community(query)
        a = sample_index.top_k_in_community(cid, scaled, k=3)
        b = sample_index.top_k_in_community(cid, query, k=3)
        assert [nid for nid, _ in a] == [nid for nid, _ in b]


def test_hierarchical_search_exact_within_community(sample_kg, sample_index, embedder):
    # restriction of a full-index scan to one community == top_k there
    query = embedder.embed_one("expedition program")
    for cid in sample_index.community_ids:
        sims = {}
        for nid, ent in sample_kg.entities.items():
            if ent.community == cid:
                sims[nid] = cosine(query, embedder.embed_one(f"{ent.name}: {ent.description}"))
        oracle = sorted(sims, key=lambda n: (-sims[n], n))[:3]
        got = [nid for nid, _ in sample_index.top_k_in_community(cid, query, k=3)]
        assert got == oracle


def test_top_k_rejects_bad_k(sample_index, embedder):
    with pytest.raises(ValueError, match="positive"):
        sample_index.top_k_in_community(
            sample_index.community_ids[0], embedder.embed_one("x"), k=0)


def test_index_groups_interleaved_communities(embedder):
    # ids interleave three communities and are declared out of order
    order = [7, 2, 9, 0, 4, 11, 1, 6, 3, 10, 5, 8]
    kg = ingest([f"C\tc{c}\tL{c}\tS{c}" for c in (2, 0, 1)]
                + [f"E\t{i}\tn{i}\tc{i % 3}\td{i}\t" for i in order])
    index = EmbeddingIndex.build(kg, embedder)
    for c in range(3):
        ids, matrix = index._entities[f"c{c}"]
        assert ids == [i for i in range(12) if i % 3 == c]
        assert matrix.shape == (4, index.dim)
        assert np.array_equal(matrix[0], embedder.embed_one(f"n{c}: d{c}"))


def test_empty_index_rejected(embedder):
    index = EmbeddingIndex.build(ingest([]), embedder)
    with pytest.raises(ValueError, match="no communities"):
        index.best_community(embedder.embed_one("query"))
