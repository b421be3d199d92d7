"""Knowledge-graph store: ingestion, lookups, persistence, error reporting."""

import random
from pathlib import Path

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
    lines = Path(sample_kg_path).read_text(encoding="utf-8").splitlines()
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


def test_ingest_hands_over_the_name_index_the_graph_would_build(sample_kg):
    odd = ingest(["C\tc\tl\ts", "E\t\t  Mixed   CASE name \tc\td\t", "E\t7\tStraße\tc\t\t",
                  "E\t\tſigma\tc\t\tAlias"])
    for kg in (sample_kg, odd):
        rebuilt = kgmod.KnowledgeGraph(kg.entities, kg.communities, kg.triples)
        assert kg.name_index == rebuilt.name_index
        assert kg._alias_index == rebuilt._alias_index


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


# -- the bulk ingest against the per-line ingest it replaced -------------------

def _reference_parse_node_id(text: str, lineno: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise KgFormatError(f"line {lineno}: node id {text!r} is not an integer") from None
    if not 0 <= value <= kgmod.MAX_NODE_ID:
        raise KgFormatError(f"line {lineno}: node id {value} outside unsigned 32-bit range")
    return value


def _reference_ingest(records) -> kgmod.KnowledgeGraph:
    """Second implementation of ingest: every line split and kept as its
    field list, edges checked in a second pass and deduplicated through a set."""
    entities: dict = {}
    communities: dict = {}
    names_seen: dict = {}
    edge_lines: list = []
    next_auto = 0

    lines = list(records)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind == "C":
            if len(fields) != 4:
                raise KgFormatError(f"line {lineno}: C record needs 4 fields, got {len(fields)}")
            _, cid, label, summary = fields
            if cid in communities:
                raise KgFormatError(f"line {lineno}: duplicate community id {cid!r}")
            communities[cid] = kgmod.Community(cid, label, summary)
        elif kind == "E":
            if len(fields) not in (5, 6):
                raise KgFormatError(f"line {lineno}: E record needs 5 or 6 fields, got {len(fields)}")
            id_text, name, cid = fields[1], fields[2], fields[3]
            description = fields[4]
            aliases = tuple(a for a in (fields[5].split("|") if len(fields) == 6 else []) if a)
            if not name.strip():
                raise KgFormatError(f"line {lineno}: entity name is empty")
            if id_text.strip() == "":
                while next_auto in entities:
                    next_auto += 1
                nid = next_auto
                next_auto += 1
            else:
                nid = _reference_parse_node_id(id_text, lineno)
            if nid in entities:
                raise KgFormatError(f"line {lineno}: duplicate node id {nid}")
            key = canonical_name(name)
            if key in names_seen:
                raise KgFormatError(
                    f"line {lineno}: duplicate canonical name {key!r} "
                    f"(first defined on line {names_seen[key]})")
            names_seen[key] = lineno
            entities[nid] = kgmod.Entity(nid, name, cid, description, aliases)
        elif kind == "T":
            if len(fields) != 4:
                raise KgFormatError(f"line {lineno}: T record needs 4 fields, got {len(fields)}")
            edge_lines.append((lineno, fields))
        else:
            raise KgFormatError(f"line {lineno}: unknown record kind {kind!r}")

    for ent in entities.values():
        if ent.community not in communities:
            raise KgFormatError(
                f"entity {ent.node_id} ({ent.name!r}) references unknown community "
                f"{ent.community!r}")

    triples: list = []
    seen: set = set()
    for lineno, fields in edge_lines:
        _, s_text, relation, o_text = fields
        if not relation:
            raise KgFormatError(f"line {lineno}: empty relation label")
        s = _reference_parse_node_id(s_text, lineno)
        o = _reference_parse_node_id(o_text, lineno)
        for nid in (s, o):
            if nid not in entities:
                raise KgFormatError(
                    f"line {lineno}: edge ({s}, {relation!r}, {o}) references unknown node {nid}")
        t = kgmod.Triple(s, relation, o)
        if t not in seen:
            seen.add(t)
            triples.append(t)

    return kgmod.KnowledgeGraph(entities, communities, triples)


def _outcome(ingest_fn, records):
    """("graph", graph, its triples) or ("error", the KgFormatError message)."""
    try:
        kg = ingest_fn(records)
    except KgFormatError as exc:
        return ("error", str(exc))
    return ("graph", kg, kg.triples)


def _random_records(rnd) -> list[str]:
    """A shuffled stream: communities, entities with explicit and auto ids
    and aliases, triples that repeat and point forward, comments, blanks."""
    cids = [f"c{i}" for i in range(rnd.randint(1, 4))]
    records = [f"C\t{cid}\tlabel {cid}\tsummary of {cid}" for cid in cids]
    explicit = rnd.sample(range(100, 200), rnd.randint(0, 15))
    n_auto = rnd.randint(0, 15)
    ids = explicit + list(range(n_auto))
    for k, nid in enumerate(explicit + [None] * n_auto):
        aliases = "|".join(rnd.choice(["", f"alias {k}", f"aka {k}"])
                           for _ in range(rnd.randint(0, 3)))
        fields = ["E", "" if nid is None else str(nid), f"Name {k}", rnd.choice(cids),
                  rnd.choice(["", f"described {k}"])]
        if aliases or rnd.random() < 0.5:
            fields.append(aliases)
        records.append("\t".join(fields))
    if ids:  # a small pool of edges, so that triples repeat
        pool = [(rnd.choice(ids), rnd.choice(["r", "s", "near"]), rnd.choice(ids))
                for _ in range(rnd.randint(1, 10))]
        records += [f"T\t{s}\t{r}\t{o}" for s, r, o in rnd.choices(pool, k=rnd.randint(0, 30))]
    rnd.shuffle(records)
    for _ in range(rnd.randint(0, 4)):
        records.insert(rnd.randint(0, len(records)),
                       rnd.choice(["", "   ", "\t", "# comment", "  # indented comment"]))
    return [r + "\n" if rnd.random() < 0.2 else r for r in records]


def _corrupt(rnd, records: list[str]) -> list[str]:
    """records with one line replaced or added by a malformed one."""
    bad = rnd.choice([
        "T\t0\tr", "T\t0\tr\t1\t2", "T\tx\tr\t0", "T\t0\tr\ty", "T\t0\t\t0",
        "T\t9999\tr\t0", "T\t0\tr\t9999", f"T\t{2**32}\tr\t0", "E\t\tName 0\tc0\t\t",
        "E\t100\tFresh\tc0\t\t", "E\t-1\tNegative\tc0\t\t", "E\t\t \tc0\t\t",
        "E\t7\tShort\tc0", "E\t\tLost\tnowhere\t\t", "C\tc0\tagain\tS", "C\tc9\tshort",
        "X\tunknown", " C\tc8\tL\tS",
    ])
    out = list(records)
    if out and rnd.random() < 0.5:
        out[rnd.randrange(len(out))] = bad
    else:
        out.insert(rnd.randint(0, len(out)), bad)
    return out


def test_ingest_matches_reference_on_random_streams():
    rnd = random.Random(2024)
    graphs = errors = 0
    for _ in range(400):
        records = _random_records(rnd)
        got, want = _outcome(ingest, records), _outcome(_reference_ingest, records)
        assert got == want, records
        graphs += got[0] == "graph"
        for _ in range(2):
            records = _corrupt(rnd, records)
            got, want = _outcome(ingest, records), _outcome(_reference_ingest, records)
            assert got == want, records
            errors += got[0] == "error"
    # both kinds of outcome are well represented
    assert graphs > 200 and errors > 400


MALFORMED_STREAMS = [
    # the malformed cases above
    ["C\tc0\tL\tS", "E\t\tAlpha\tc0\t\t", "E\t\tALPHA\tc0\t\t"],
    ["C\tc0\tL\tS", "E\t3\tA\tc0\t\t", "E\t3\tB\tc0\t\t"],
    ["C\tc0\tL\tS", "E\t0\tA\tc0\t\t", "T\t0\tr\t9"],
    ["C\tc0\tL\tS", "E\tonly three\tfields"],
    ["X\twhat\tis\tthis"],
    ["C\tc0\tL\tS", f"E\t{2**32}\tBig\tc0\t\t"],
    ["E\t0\tA\tnowhere\t\t"],
    ["C\tc0\tL\tS", "C\tc0\tL2\tS2"],
    # two different errors: the one ingest meets first is reported
    ["C\tc0\tL\tS", "T\t0\tr\t1\t2", "E\t0\tA\tc0\t\t", "E\t0\tB\tc0\t\t"],
    ["C\tc0\tL\tS", "T\t0\tr\t9", "E\t0\tA\tc0\t\t", "E\tbad\tB\tc0\t\t"],
    ["C\tc0\tL\tS", "T\t0\tr\t9", "E\t0\tA\tnowhere\t\t"],
    ["C\tc0\tL\tS", "E\t0\tA\tc0\t\t", "T\t0\tr\t9", "T\t0\t\t0"],
    ["C\tc0\tL\tS", "E\t0\tA\tc0\t\t", "T\tx\t\ty"],
    ["C\tc0\tL\tS", "E\t0\tA\tc0\t\t", "T\t8\tr\t9"],
    ["C\tc0\tL\tS", "E\t0\tA\tc0\t\t", f"T\t0\tr\t{2**32}", "T\t0\tr\tz"],
    ["C\tc0\tL\tS", "E\t0\tA\tc0\t\t", "T\t0\tr"],
]


@pytest.mark.parametrize("records", MALFORMED_STREAMS, ids=range(len(MALFORMED_STREAMS)))
def test_ingest_raises_the_reference_message(records):
    with pytest.raises(KgFormatError) as want:
        _reference_ingest(records)
    with pytest.raises(KgFormatError) as got:
        ingest(records)
    assert str(got.value) == str(want.value)


def test_induced_edges_sort_as_tuples():
    kg = ingest(["C\tc0\tL\tS", "E\t0\tA\tc0\t\t", "E\t1\tB\tc0\t\t", "E\t2\tC\tc0\t\t",
                 "T\t1\tb\t0", "T\t0\tz\t1", "T\t0\ta\t2", "T\t0\ta\t1", "T\t2\ta\t0"])
    edges = kg.induced_edges(frozenset({0, 1, 2}))
    assert edges == ((0, "a", 1), (0, "a", 2), (0, "z", 1), (1, "b", 0), (2, "a", 0))
    assert all(isinstance(t, kgmod.Triple) for t in edges)
