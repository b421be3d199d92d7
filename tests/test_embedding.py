"""Embeddings and hierarchical retrieval: the cosine oracle, the deterministic
trigram embedder, and community-first search against full-scan oracles."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from kgsemcom import EmbeddingIndex, TrigramEmbedder, ingest
from kgsemcom import embedding as embmod

from kgtools import (cosine, load_synthkg, reference_counts, reference_embedding,
                     reference_hashes)


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


def test_casefold_and_whitespace_collapse_share_vectors(embedder):
    assert np.array_equal(embedder.embed_one("Alan  Bean"),
                          embedder.embed_one("alan bean"))


def _random_texts(seed: int, n: int, max_len: int = 40) -> list[str]:
    # ASCII, whitespace, NUL, Latin-1, BMP, lone surrogates and astral planes
    rnd = random.Random(seed)
    ranges = [(0x20, 0x7E), (0x00, 0x00), (0x09, 0x0D), (0xA0, 0xFF),
              (0x100, 0xD7FF), (0xD800, 0xDFFF), (0x10000, 0x10FFFF)]
    texts = []
    for _ in range(n):
        chars = []
        for _ in range(rnd.randrange(max_len + 1)):
            lo, hi = ranges[rnd.randrange(len(ranges))]
            chars.append(chr(rnd.randint(lo, hi)))
        texts.append("".join(chars))
    return texts


ORACLE_TEXTS = (["", " ", "a", "ab", "\x00", "\x00\x00\x00", "\U0001F600",
                 "x\U0010FFFF", "\udcff", "Alan Bean \udcff walked", "Straße"]
                + _random_texts(5, 300))


@pytest.mark.parametrize("dim", [384, 7, 1])
def test_embed_one_equals_integer_reference_bitwise(dim):
    # dim 1 and 7 make signed counts cancel, which exercises the one-hot fallback
    emb = TrigramEmbedder(dim=dim)
    for text in ORACLE_TEXTS:
        got = emb.embed_one(text)
        assert got.shape == (dim,)
        assert np.array_equal(got, reference_embedding(text, dim)), repr(text)
    if dim == 1:
        assert any(sum(sign for _, sign in reference_hashes(t, 1)) == 0
                   for t in ORACLE_TEXTS)


@pytest.mark.parametrize("dim", [7, 1])
def test_embed_maps_cancelled_rows_itself(monkeypatch, dim):
    # a text whose signed counts cancel gets the one-hot of its first trigram
    # inside the batch, with no per-text path
    def forbidden(self, text):
        raise AssertionError("embed must not call embed_one")
    monkeypatch.setattr(TrigramEmbedder, "embed_one", forbidden)
    rows = TrigramEmbedder(dim=dim).embed(ORACLE_TEXTS)
    for text, row in zip(ORACLE_TEXTS, rows):
        assert np.array_equal(row, reference_embedding(text, dim)), repr(text)


def test_embed_batch_matches_embed_one(embedder):
    # bitwise, in any batch order; at dim 1 the signed counts of some texts cancel
    for emb in (embedder, TrigramEmbedder(dim=1)):
        texts = list(ORACLE_TEXTS)
        singles = {t: emb.embed_one(t) for t in texts}
        for seed in range(3):
            random.Random(seed).shuffle(texts)
            batch = emb.embed(texts)
            assert batch.shape == (len(texts), emb.dim)
            for text, row in zip(texts, batch):
                assert np.array_equal(row, singles[text]), repr(text)
        assert emb.embed([]).shape == (0, emb.dim)


# texts that meet the frame characters, each other's edges and the padding of
# one batch encode: the frame characters themselves, adjacent empty texts,
# one-character texts and lone surrogates at text edges
BOUNDARY_TEXTS = ["", "", "\x02", "\x03", "\x03\x02", "\x02\x03", "", "a", "b",
                  "\x02a", "a\x03", "\ud83d", "\ude00", "x\ud800", "\udfffy", "\udcff",
                  "", "c", " ", "\U0010FFFF", ""]


@pytest.mark.parametrize("dim", [384, 7, 1])
def test_embed_rows_equal_embed_one_across_text_boundaries(dim):
    emb = TrigramEmbedder(dim=dim)
    for text in BOUNDARY_TEXTS:
        assert np.array_equal(emb.embed_one(text), reference_embedding(text, dim)), repr(text)
    rnd = random.Random(dim)
    batches = [BOUNDARY_TEXTS, BOUNDARY_TEXTS[::-1], [""], ["", ""], ["a"], ["a", ""],
               ["", "a"], ["\x03", "\x02"], ["\ud83d", "\ude00"]]
    batches += [rnd.choices(BOUNDARY_TEXTS, k=rnd.randrange(1, 12)) for _ in range(50)]
    for batch in batches:
        rows = emb.embed(batch)
        assert rows.shape == (len(batch), dim)
        for text, row in zip(batch, rows):
            assert np.array_equal(row, emb.embed_one(text)), (repr(text), batch)


def _scored_text(rnd: random.Random) -> str:
    """One text of a kind a sweep scores: empty, whitespace only, non-Latin-1,
    a Latin-1 channel decode, or words."""
    kind = rnd.randrange(5)
    if kind == 0:
        return ""
    if kind == 1:
        return "".join(rnd.choices(" \t\n\r\x0b\x0c\x85\xa0\u2003\u3000", k=rnd.randrange(1, 6)))
    if kind == 2:
        return _random_texts(rnd.random(), 1)[0]
    if kind == 3:
        return bytes(rnd.randrange(256) for _ in range(rnd.randrange(1, 60))).decode("latin-1")
    return " ".join(rnd.choices(["Alan", "Bean", "walked", "on", "the", "Moon", "Straße"],
                                k=rnd.randrange(1, 9)))


@pytest.mark.parametrize("dim", [384, 7, 1])
def test_batch_rows_and_their_dots_equal_embed_one_bitwise(dim):
    # property: for random batches of the texts a sweep scores, each batch row
    # is embed_one's vector, so a 1-D dot of two rows is bitwise the dot of
    # the two single vectors
    emb = TrigramEmbedder(dim=dim)
    rnd = random.Random(400 + dim)
    for _ in range(150):
        texts = [_scored_text(rnd) for _ in range(rnd.randrange(1, 40))]
        rows = emb.embed(texts)
        singles = [emb.embed_one(t) for t in texts]
        for text, row, single in zip(texts, rows, singles):
            assert np.array_equal(row, single), repr(text)
        i, j = rnd.randrange(len(texts)), rnd.randrange(len(texts))
        assert float(rows[i] @ rows[j]) == float(singles[i] @ singles[j])


def test_index_matrices_equal_embed_one_rows(sample_kg, sample_index, embedder):
    summaries = sample_index._summaries  # coordinate-major: one column per community
    assert summaries.shape == (embedder.dim, len(sample_kg.communities))
    for cid, row in zip(sample_index.community_ids, summaries.T):
        assert np.array_equal(row, embedder.embed_one(sample_kg.communities[cid].summary))
    for cid in sample_index.community_ids:
        [(ids, matrix)] = sample_index.entities([cid])
        assert matrix.shape == (len(ids), embedder.dim)
        for nid, row in zip(ids, matrix):
            ent = sample_kg.entities[nid]
            assert np.array_equal(row, embedder.embed_one(f"{ent.name}: {ent.description}"))


def test_embedder_memory_stays_bounded():
    # no cache: 50,000 distinct texts leave nothing behind (one cached
    # 384-float vector per text would keep 150 MB)
    texts = _random_texts(6, 50_000)
    emb = TrigramEmbedder()
    emb.embed_one("warm up")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for text in texts[:10_000]:
            emb.embed_one(text)
        for start in range(0, len(texts), 10_000):
            emb.embed(texts[start:start + 10_000])
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1_000_000


def test_no_embedding_path_draws_a_random_generator(monkeypatch, sample_kg):
    def forbidden(*args, **kwargs):
        raise AssertionError("embedding must not build a random generator")
    monkeypatch.setattr(np.random, "Philox", forbidden)
    monkeypatch.setattr(np.random, "SeedSequence", forbidden)
    emb = TrigramEmbedder()
    emb.embed_one("Alan Bean walked on the Moon")
    emb.embed(["Pete Conrad", "Surveyor Crater", ""])
    index = EmbeddingIndex.build(sample_kg, emb)
    rows = index.entities(index.community_ids)  # every entity row, embedded on demand
    assert sum(len(ids) for ids, _ in rows) == len(sample_kg)


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


def test_every_entity_indexed_exactly_once(sample_kg, embedder):
    index = EmbeddingIndex.build(sample_kg, embedder)  # a fresh one: this embeds it whole
    ids = [i for members, _ in index.entities(index.community_ids) for i in members]
    assert sorted(ids) == sorted(sample_kg.entities)
    assert sorted(index.community_ids) == sorted(sample_kg.communities)


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
    [(ids, _)] = sample_index.entities([cid])
    target = sample_kg.entities[ids[0]]
    query = embedder.embed_one(f"{target.name}: {target.description}")
    ranked = sample_index.top_k_in_community(cid, query, k=3)
    assert ranked[0][0] == target.node_id
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-9)


def test_top_k_larger_than_community_returns_all(sample_index, embedder):
    cid = sample_index.community_ids[0]
    size = len(sample_index.entities([cid])[0][0])
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


def test_real_valued_ties_go_to_the_smallest_id():
    # both rows sum to 0.6 as real numbers, but 0.1 + 0.2 + 0.3 rounds one bit
    # above 0.3 + 0.2 + 0.1 in floating point
    first, second = np.array([0.3, 0.2, 0.1]), np.array([0.1, 0.2, 0.3])
    query = np.ones(3)
    assert first @ query < second @ query
    index = EmbeddingIndex(dim=3)
    index.community_ids = ["aa", "bb"]
    index._summaries = np.stack([first, second], axis=1)
    index._entities["aa"] = ([2, 5], np.stack([first, second]))
    assert index.best_community(query) == "aa"
    ranked = index.top_k_in_community("aa", query, k=2)
    assert ranked == [(2, float(first @ query)), (5, float(second @ query))]


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_real_valued_ties_go_to_the_smallest_id_at_any_query_norm(scale):
    # both rows score 1.03 * scale / sqrt(3) as real numbers. For the scaled
    # queries the floating-point sums differ by more than 1e-12, the first
    # one lower, so a fixed 12-decimal rounding gives the tie to "bb"
    first, second = np.array([0.5, 0.4, 0.13]), np.array([0.13, 0.4, 0.5])
    query = scale * (np.ones(3) / np.sqrt(3.0))
    if scale > 1.0:
        assert np.round(first @ query, 12) < np.round(second @ query, 12)
    index = EmbeddingIndex(dim=3)
    index.community_ids = ["aa", "bb"]
    index._summaries = np.stack([first, second], axis=1)
    index._entities["aa"] = ([2, 5], np.stack([first, second]))
    assert index.best_community(query) == "aa"
    assert [nid for nid, _ in index.top_k_in_community("aa", query, k=2)] == [2, 5]


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


def _dense_route(community_ids, dense, query):
    """The row-major routing oracle: every community's summary row scored
    against the whole query, then the first maximum of the rounded scores."""
    return community_ids[int(np.argmax(np.round(dense @ query, 12)))]


def _exact_best(summary_counts: np.ndarray, query_counts: np.ndarray) -> list[int]:
    """Indices of the exact real maxima of a . c / |a| over the summaries a:
    the sign of a . c times its square over |a|^2 orders them alike."""
    dots = summary_counts @ query_counts
    keys = [Fraction(int(d) * abs(int(d)), int(a @ a)) for d, a in zip(dots, summary_counts)]
    top = max(keys)
    return [i for i, key in enumerate(keys) if key == top]


@pytest.mark.parametrize("dim", [1, 7, 384])
def test_best_community_matches_the_dense_routing_oracle(dim):
    emb = TrigramEmbedder(dim=dim)
    rnd = random.Random(500 + dim)
    words = [f"w{i}" for i in range(12)]
    for _ in range(4):
        n = rnd.randrange(1, 300)
        cids = rnd.sample(range(10**6), n)
        summaries = []
        for _ in range(n):
            kind = rnd.randrange(4)
            if kind == 0 and summaries:  # a repeated summary: an exact tie
                summaries.append(rnd.choice(summaries))
            elif kind == 1:
                summaries.append(_scored_text(rnd))
            else:
                summaries.append(" ".join(rnd.choices(words, k=rnd.randrange(1, 6))))
        kg = ingest([f"C\tc{cid:06d}\tL\t{' '.join(text.split())}"
                     for cid, text in zip(cids, summaries)])
        index = EmbeddingIndex.build(kg, emb)
        ids = index.community_ids
        dense = emb.embed([kg.communities[c].summary for c in ids])
        summary_counts = np.stack([reference_counts(kg.communities[c].summary, dim)
                                   for c in ids])
        # (query, its integer counts): a zero vector, one-hots, then texts
        queries = [(np.zeros(dim), np.zeros(dim, dtype=np.int64))]
        for _ in range(3):
            one_hot = np.zeros(dim, dtype=np.int64)
            one_hot[rnd.randrange(dim)] = rnd.choice((-1, 1))
            queries.append((one_hot.astype(float), one_hot))
        texts = [" ".join(rnd.choices(words, k=rnd.randrange(1, 4))) for _ in range(15)]
        texts += [_scored_text(rnd) for _ in range(5)]
        texts += [kg.communities[c].summary for c in rnd.sample(ids, min(n, 5))]
        queries += zip(emb.embed(texts), [reference_counts(text, dim) for text in texts])
        for query, query_counts in queries:
            best = [ids[i] for i in _exact_best(summary_counts, query_counts)]
            for lam in (1e-6, 1e-3, 1.0, 1e3, 1e6):
                scaled = lam * query
                route = index.best_community(scaled)
                assert route in best, (dim, lam, query_counts)
                # a score of 1e3 or more has an ulp near the 1e-12 rounding
                # step, so from there both sums break real-valued ties by the
                # order of their terms
                if lam <= 1.0:
                    assert route == _dense_route(ids, dense, scaled) == best[0]


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
        [(ids, matrix)] = index.entities([f"c{c}"])
        assert ids == [i for i in range(12) if i % 3 == c]
        assert matrix.shape == (4, index.dim)
        assert np.array_equal(matrix[0], embedder.embed_one(f"n{c}: d{c}"))


def test_batched_summary_matrix_equals_one_embed(embedder):
    # two whole batches of summaries and a remainder
    n = 2 * embmod.SUMMARY_BATCH + 5
    kg = ingest([f"C\tc{c:03d}\tL{c}\tsummary {c} of words {c * 7 % 13}" for c in range(n)])
    index = EmbeddingIndex.build(kg, embedder)
    summaries = [kg.communities[c].summary for c in index.community_ids]
    assert np.array_equal(index._summaries, embedder.embed(summaries).T)
    assert EmbeddingIndex.build(ingest([]), embedder)._summaries.shape == (embedder.dim, 0)


def test_summary_storage_is_one_coordinate_major_array(embedder):
    kg_text, _ = load_synthkg().generate(11, 2000, 100)
    kg = ingest(kg_text.splitlines())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = EmbeddingIndex.build(kg, embedder)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n = len(kg.communities)
    [summaries] = [v for v in vars(index).values() if isinstance(v, np.ndarray)]
    assert summaries.dtype == np.float64 and summaries.flags.owndata
    assert summaries.shape == (embedder.dim, n)
    assert summaries.nbytes == 8 * n * embedder.dim
    # measured 1.10x: the member id lists take the rest; a second copy makes it 2.1x
    assert kept < 1.5 * summaries.nbytes


def test_best_community_rejects_a_query_of_another_length(sample_index, embedder):
    query = embedder.embed_one("Alan Bean")
    for bad in (query[:-1], np.ones(embedder.dim - 1), np.append(query, 0.0),
                np.ones(embedder.dim + 1)):
        with pytest.raises(ValueError, match="dim"):
            sample_index.best_community(bad)


def test_empty_index_rejected(embedder):
    index = EmbeddingIndex.build(ingest([]), embedder)
    with pytest.raises(ValueError, match="no communities"):
        index.best_community(embedder.embed_one("query"))
