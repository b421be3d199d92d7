"""Knowledge-graph store: ingestion, lookups, persistence, error reporting."""

import numpy as np
import pytest

from kgsemcom import KgFormatError, canonical_name, ingest
from kgsemcom import kg as kgmod

from kgtools import tiny_kg


def test_two_entities_one_edge_dense_ids():
    kg = ingest([
        "C\tc0\tPlaces\tsummary text",
        "E\t\tAlpha\tc0\t\t",
        "E\t\tBeta\tc0\t\t",
        "T\t0\tnear\t1",
    ])
    assert len(kg) == 2
    assert len(kg.triples) == 1
    assert set(kg.entities) == {0, 1}
    assert kg.entities[0].name == "Alpha"
    assert kg.entities[1].name == "Beta"


def test_empty_input_is_a_valid_empty_graph():
    kg = ingest([])
    assert len(kg) == 0
    assert kg.triples == []
    assert kg.communities == {}


def test_comments_and_blank_lines_ignored():
    kg = ingest([
        "# header comment",
        "",
        "C\tc0\tL\tS",
        "   ",
        "E\t5\tGamma\tc0\tdesc\talias one|alias two",
        "# trailing comment",
    ])
    assert set(kg.entities) == {5}
    assert kg.entities[5].aliases == ("alias one", "alias two")


def test_auto_ids_skip_explicitly_used_ids():
    kg = ingest([
        "C\tc0\tL\tS",
        "E\t1\tTaken\tc0\t\t",
        "E\t\tFirstAuto\tc0\t\t",   # 0 free
        "E\t\tSecondAuto\tc0\t\t",  # 1 taken -> 2
    ])
    assert kg.id_of("FirstAuto") == 0
    assert kg.id_of("SecondAuto") == 2


def test_forward_reference_edge_before_entities():
    kg = ingest([
        "T\t0\tr\t1",
        "C\tc0\tL\tS",
        "E\t0\tA\tc0\t\t",
        "E\t1\tB\tc0\t\t",
    ])
    assert len(kg.triples) == 1


def test_sample_file_triple_count_matches_line_count(sample_kg, sample_kg_path):
    # independent line-count oracle over the shipped file
    lines = open(sample_kg_path, encoding="utf-8").read().splitlines()
    t_lines = [l for l in lines if l.startswith("T\t")]
    e_lines = [l for l in lines if l.startswith("E\t")]
    c_lines = [l for l in lines if l.startswith("C\t")]
    assert len(sample_kg.triples) == len(t_lines)
    assert len(sample_kg) == len(e_lines)
    assert len(sample_kg.communities) == len(c_lines)


def test_entity_by_id_present_and_absent(sample_kg):
    some_id = next(iter(sample_kg.entities))
    assert sample_kg.entity_by_id(some_id).node_id == some_id
    assert sample_kg.entity_by_id(0xDEADBEEF) is None


def test_uniform_random_ids_hit_rate_matches_density():
    # densified variant of the absent-with-high-probability property:
    # ids dense in [0, 8192) probed uniformly from [0, 2^20)
    records = ["C\tc0\tL\tS"] + [f"E\t{i}\tN{i}\tc0\t\t" for i in range(8192)]
    kg = ingest(records)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(7)))
    draws = rng.integers(0, 2**20, size=100_000)
    hits = sum(1 for d in draws if kg.entity_by_id(int(d)) is not None)
    p = 8192 / 2**20
    n = len(draws)
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(hits - n * p) <= 3 * sigma


def test_neighbors_both_directions():
    kg = tiny_kg(triples=("A r B",))
    a, b = kg.id_of("A"), kg.id_of("B")
    assert kg.neighbors(a) == {("r", b)}
    assert kg.neighbors(b) == {("r", a)}


def test_neighbors_and_induced_edges_on_self_loop():
    kg = tiny_kg(triples=("A r A", "A r B", "A s B"))
    a, b = kg.id_of("A"), kg.id_of("B")
    assert kg.neighbors(a) == {("r", a), ("r", b), ("s", b)}
    assert kg.neighbors(b) == {("r", a), ("s", a)}
    assert [(t.subject, t.relation, t.object) for t in kg.induced_edges(frozenset({a}))] \
        == [(a, "r", a)]
    assert len(kg.induced_edges(frozenset({a, b}))) == 3
    assert kg.induced_edges(frozenset({b, 12345})) == ()


def test_neighbors_isolated_and_unknown():
    kg = tiny_kg(triples=("A r B",), extra_entities=("Lone",))
    assert kg.neighbors(kg.id_of("Lone")) == set()
    with pytest.raises(KeyError, match="12345"):
        kg.neighbors(12345)


def test_highest_degree_node_matches_edge_scan(sample_kg):
    # brute-force scan oracle over the raw triple list
    counts: dict[int, set[tuple[str, int]]] = {i: set() for i in sample_kg.entities}
    for t in sample_kg.triples:
        counts[t.subject].add((t.relation, t.object))
        counts[t.object].add((t.relation, t.subject))
    top = max(sample_kg.entities, key=lambda i: len(counts[i]))
    assert len(sample_kg.neighbors(top)) == len(counts[top])
    for nid in sample_kg.entities:
        assert sample_kg.neighbors(nid) == counts[nid]


def test_neighbors_symmetric_relation(sample_kg):
    for nid in sample_kg.entities:
        for _, other in sample_kg.neighbors(nid):
            assert nid in {o for _, o in sample_kg.neighbors(other)}


def test_id_of_canonicalization(sample_kg):
    nid = sample_kg.id_of("Alan Bean")
    assert nid is not None
    assert sample_kg.id_of("  aLaN   bEan ") == nid
    assert sample_kg.id_of("no such entity anywhere") is None


def test_id_of_alias_fallback(sample_kg):
    assert sample_kg.id_of("Captain Bean") == sample_kg.id_of("Alan Bean")
    assert sample_kg.id_of("Mountain of Light") == sample_kg.id_of("Koh-i-Noor")


def test_id_of_roundtrip_all_ids(sample_kg):
    for nid, ent in sample_kg.entities.items():
        assert sample_kg.id_of(ent.name) == nid


def test_canonical_name_rule():
    assert canonical_name("  aLaN   bEan ") == "alan bean"


def test_save_then_load_identity(sample_kg, tmp_path):
    path = tmp_path / "roundtrip.tsv"
    sample_kg.dump(path)
    again = kgmod.load(path)
    assert again == sample_kg
    # and a second dump is byte-identical
    path2 = tmp_path / "roundtrip2.tsv"
    again.dump(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_duplicate_canonical_name_rejected():
    with pytest.raises(KgFormatError, match="alpha"):
        ingest(["C\tc0\tL\tS", "E\t\tAlpha\tc0\t\t", "E\t\tALPHA\tc0\t\t"])


def test_duplicate_node_id_rejected():
    with pytest.raises(KgFormatError, match="duplicate node id 3"):
        ingest(["C\tc0\tL\tS", "E\t3\tA\tc0\t\t", "E\t3\tB\tc0\t\t"])


def test_edge_to_unknown_entity_rejected_with_triple():
    with pytest.raises(KgFormatError, match=r"\(0, 'r', 9\)"):
        ingest(["C\tc0\tL\tS", "E\t0\tA\tc0\t\t", "T\t0\tr\t9"])


def test_malformed_line_rejected_with_line_number():
    with pytest.raises(KgFormatError, match="line 2"):
        ingest(["C\tc0\tL\tS", "E\tonly three\tfields"])
    with pytest.raises(KgFormatError, match="line 1"):
        ingest(["X\twhat\tis\tthis"])


def test_node_id_range_enforced():
    with pytest.raises(KgFormatError, match="32-bit"):
        ingest(["C\tc0\tL\tS", f"E\t{2**32}\tBig\tc0\t\t"])
    # the top of the range is fine
    kg = ingest(["C\tc0\tL\tS", f"E\t{2**32 - 1}\tEdge\tc0\t\t"])
    assert kg.id_of("Edge") == 2**32 - 1


def test_unknown_community_rejected():
    with pytest.raises(KgFormatError, match="unknown community"):
        ingest(["E\t0\tA\tnowhere\t\t"])


def test_duplicate_community_rejected():
    with pytest.raises(KgFormatError, match="duplicate community"):
        ingest(["C\tc0\tL\tS", "C\tc0\tL2\tS2"])


def test_duplicate_triples_collapse():
    kg = ingest([
        "C\tc0\tL\tS", "E\t0\tA\tc0\t\t", "E\t1\tB\tc0\t\t",
        "T\t0\tr\t1", "T\t0\tr\t1",
    ])
    assert len(kg.triples) == 1
