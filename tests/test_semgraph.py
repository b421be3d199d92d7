"""Subgraph construction, the one-hop expansion both ends share, and
receiver-side reconstruction, checked against set-comprehension oracles on
random graphs."""

import numpy as np
import pytest

from kgsemcom import (
    KnowledgeGraph,
    build_mcsg,
    ingest,
    one_hop,
    reconstruct,
)

from kgsemcom import kg as kgmod
from kgsemcom.harness import PipelineContext, run_pipeline

from kgtools import tiny_kg


def _oracle_nodes(kg: KnowledgeGraph, seeds: set[int]) -> set[int]:
    """Direct transcription of the one-hop expansion as a set comprehension."""
    return seeds | {t.object for t in kg.triples if t.subject in seeds} \
                 | {t.subject for t in kg.triples if t.object in seeds}


def _oracle_edges(kg: KnowledgeGraph, nodes: set[int]):
    return sorted((t for t in kg.triples
                   if t.subject in nodes and t.object in nodes),
                  key=lambda t: (t.subject, t.relation, t.object))


def _random_kg(rng, max_nodes=30) -> KnowledgeGraph:
    n = int(rng.integers(1, max_nodes + 1))
    records = ["C\tc0\tL\tS"] + [f"E\t{i}\tnode {i}\tc0\t\t" for i in range(n)]
    n_edges = int(rng.integers(0, 2 * n + 1))
    for _ in range(n_edges):
        s, o = int(rng.integers(0, n)), int(rng.integers(0, n))
        records.append(f"T\t{s}\trel{int(rng.integers(0, 3))}\t{o}")
    return ingest(records)


# -- build_mcsg ----------------------------------------------------------------

def test_single_seed_pulls_its_neighbor():
    kg = tiny_kg(triples=("A r B", "B s C"))
    a, b, c = kg.id_of("A"), kg.id_of("B"), kg.id_of("C")
    mcsg = build_mcsg((a,), kg)
    assert mcsg.nodes == {a, b}
    assert mcsg.seed_nodes == {a}
    assert [(t.subject, t.relation, t.object) for t in mcsg.edges] == [(a, "r", b)]


def test_two_seeds_cover_whole_path():
    kg = tiny_kg(triples=("A r B", "B s C"))
    a, b, c = kg.id_of("A"), kg.id_of("B"), kg.id_of("C")
    mcsg = build_mcsg((a, c), kg)
    assert mcsg.nodes == {a, b, c}
    assert len(mcsg.edges) == 2


def test_unknown_seed_rejected():
    kg = tiny_kg()
    with pytest.raises(KeyError, match="999"):
        build_mcsg((999,), kg)


def test_empty_selection_gives_empty_subgraph():
    kg = tiny_kg()
    mcsg = build_mcsg((), kg)
    assert mcsg.nodes == frozenset()
    assert mcsg.edges == ()


def test_mcsg_may_be_disconnected():
    kg = tiny_kg(triples=("A r B", "C s D"))
    seeds = (kg.id_of("A"), kg.id_of("C"))
    mcsg = build_mcsg(seeds, kg)
    assert len(mcsg.nodes) == 4
    assert len(mcsg.edges) == 2


def test_build_matches_set_comprehension_oracle():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(21)))
    for _ in range(100):
        kg = _random_kg(rng)
        pool = sorted(kg.entities)
        k = int(rng.integers(0, min(5, len(pool)) + 1))
        seeds = set(int(i) for i in rng.choice(pool, size=k, replace=False)) if k else set()
        mcsg = build_mcsg(tuple(sorted(seeds)), kg)
        assert mcsg.nodes == _oracle_nodes(kg, seeds)
        assert list(mcsg.edges) == _oracle_edges(kg, mcsg.nodes)


def test_build_independent_of_seed_order():
    kg = tiny_kg(triples=("A r B", "B s C", "C t D"))
    ids = (kg.id_of("A"), kg.id_of("C"), kg.id_of("D"))
    base = build_mcsg(ids, kg)
    for perm in ((ids[2], ids[0], ids[1]), (ids[1], ids[2], ids[0])):
        assert build_mcsg(perm, kg) == base


# -- the receiver: one hop from the received seeds ------------------------------

def test_receiver_rederives_the_subgraph_of_one_seed():
    kg = ingest(["C\tc0\tL\tS"] + [f"E\t{i}\tn{i}\tc0\t\t" for i in (2, 7, 9)]
                + ["T\t2\tr\t7", "T\t7\tr\t9", "T\t9\tr\t2"])
    mcsg = build_mcsg((7,), kg)
    assert one_hop([7], kg) == mcsg.nodes == {2, 7, 9}
    recon, text, flags = PipelineContext(kg).receive([7])
    assert recon == mcsg
    assert text and flags == ""


def test_receiver_of_no_seed_is_empty():
    kg = tiny_kg()
    assert one_hop((), kg) == frozenset()
    recon, text, flags = PipelineContext(kg).receive([])
    assert recon == build_mcsg((), kg)
    assert (text, flags) == ("", "empty_reconstruction")


def test_receiver_rebuilds_each_single_seed_subgraph():
    # one seed's subgraph is a star, so connected: the receiver keeps all of it
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(22)))
    for _ in range(50):
        kg = _random_kg(rng)
        seeds = {int(rng.choice(sorted(kg.entities)))}
        mcsg = build_mcsg(tuple(seeds), kg)
        assert one_hop(seeds, kg) == _oracle_nodes(kg, seeds)
        assert PipelineContext(kg).receive([*seeds, -1, *seeds])[0] == mcsg


# -- reconstruct ---------------------------------------------------------------

def test_noiseless_roundtrip_on_connected_subgraph():
    kg = tiny_kg(triples=("A r B", "B s C"))
    mcsg = build_mcsg((kg.id_of("A"), kg.id_of("C")), kg)
    recon = reconstruct(mcsg.nodes, kg)
    assert recon.nodes == mcsg.nodes
    assert recon.edges == mcsg.edges
    assert recon.seed_nodes == recon.nodes  # reconstruct is not told the seeds


def test_invalid_id_discarded():
    kg = tiny_kg(triples=("A r B",))
    a, b = kg.id_of("A"), kg.id_of("B")
    recon = reconstruct([a, b, 0xDEADBEEF], kg)
    assert recon.nodes == {a, b}


def test_largest_component_kept():
    kg = tiny_kg(triples=("A r B",), extra_entities=("X",))
    a, b, x = kg.id_of("A"), kg.id_of("B"), kg.id_of("X")
    recon = reconstruct([a, b, x], kg)
    assert recon.nodes == {a, b}


def test_component_tie_goes_to_smallest_id():
    # two 2-node components: {0,1} and {2,3}; tie -> component with id 0
    kg = ingest(["C\tc0\tL\tS"] + [f"E\t{i}\tn{i}\tc0\t\t" for i in range(4)]
                + ["T\t0\tr\t1", "T\t2\tr\t3"])
    recon = reconstruct([0, 1, 2, 3], kg)
    assert recon.nodes == {0, 1}
    # relabel so the higher-id pair comes first in the received list: same result
    assert reconstruct([3, 2, 1, 0], kg).nodes == {0, 1}


def test_empty_received_list_is_valid():
    recon = reconstruct([], tiny_kg())
    assert recon.nodes == frozenset()
    assert recon.edges == ()


def test_adding_invalid_ids_never_changes_result():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(23)))
    for _ in range(50):
        kg = _random_kg(rng)
        pool = sorted(kg.entities)
        k = int(rng.integers(1, min(6, len(pool)) + 1))
        received = [int(i) for i in rng.choice(pool, size=k, replace=False)]
        base = reconstruct(received, kg)
        invalid = [int(rng.integers(10**6, 2**32)) for _ in range(3)]
        assert all(i not in kg.entities for i in invalid)
        noisy = received + invalid
        rng.shuffle(noisy)
        assert reconstruct([int(i) for i in noisy], kg) == base


def test_reconstruct_undirected_connectivity():
    # edges point away from the middle node; connectivity must ignore direction
    kg = ingest(["C\tc0\tL\tS"] + [f"E\t{i}\tn{i}\tc0\t\t" for i in range(3)]
                + ["T\t1\tr\t0", "T\t1\ts\t2"])
    recon = reconstruct([0, 1, 2], kg)
    assert recon.nodes == {0, 1, 2}


def test_valid_but_wrong_id_adjacent_to_component_is_kept():
    # corruption landing on a real neighbor id stays: documented residual mode
    kg = tiny_kg(triples=("A r B", "B s C"))
    a, b, c = kg.id_of("A"), kg.id_of("B"), kg.id_of("C")
    recon = reconstruct([a, b, c], kg)  # c was never transmitted, say
    assert c in recon.nodes


def _oracle_largest_component(kg: KnowledgeGraph, nodes: set[int]) -> set[int]:
    """Brute force: grow each node's component to a fixpoint over the raw
    triples; largest wins, ties go to the component with the smallest id."""
    edges = _oracle_edges(kg, nodes)
    comps = []
    for start in nodes:
        comp = {start}
        grown = True
        while grown:
            grown = False
            for t in edges:
                if (t.subject in comp) != (t.object in comp):
                    comp |= {t.subject, t.object}
                    grown = True
        comps.append(comp)
    return min(comps, key=lambda c: (-len(c), min(c)))


def test_reconstruct_matches_brute_force_oracle():
    # random graphs carry self-loops and parallel relations between one pair
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(24)))
    for _ in range(100):
        kg = _random_kg(rng)
        pool = sorted(kg.entities)
        k = int(rng.integers(0, len(pool) + 1))
        received = [int(i) for i in rng.choice(pool, size=k, replace=False)]
        recon = reconstruct(received + [2**32 - 1], kg)
        nodes = _oracle_largest_component(kg, set(received)) if received else set()
        assert recon.nodes == nodes
        assert recon.seed_nodes == nodes
        assert list(recon.edges) == _oracle_edges(kg, nodes)


class _NoScan(list):
    def __iter__(self):
        raise AssertionError("whole-graph scan of kg.triples")


def test_record_path_never_scans_the_whole_graph(sample_kg_path, sample_corpus):
    kg = kgmod.load(sample_kg_path)
    kg.triples = _NoScan(kg.triples)
    ctx = PipelineContext(kg, sample_corpus)
    ctx.seed_prior  # the receiver's prior reads the KG's rank columns
    record = run_pipeline(ctx, sample_corpus[0], 0, 6.0, seed=5)
    assert record.n_selected > 0
    assert "error" not in record.flags
    mcsg = ctx.analyze(sample_corpus[0]).mcsg
    assert mcsg.edges
    assert reconstruct(mcsg.nodes, kg).nodes == mcsg.nodes
