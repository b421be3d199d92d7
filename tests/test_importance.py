"""Structural importance and the SNR-driven protection split, checked against
a literal all-shortest-paths enumeration oracle."""

import numpy as np
import pytest

from kgsemcom import (
    ImportanceConfig,
    SelectedEntities,
    ThresholdPolicy,
    betweenness_centrality,
    build_mcsg,
    degree_centrality,
    importance_scores,
    ingest,
    partition_uep,
)
from kgsemcom.importance import _minmax

from kgtools import tiny_kg


def _path_mcsg():
    kg = ingest(["C\tc0\tL\tS"] + [f"E\t{i}\tn{i}\tc0\t\t" for i in range(3)]
                + ["T\t0\tr\t1", "T\t1\tr\t2"])
    return build_mcsg(SelectedEntities(ids=(0, 1, 2)), kg)


def _whole_graph_mcsg(records):
    kg = ingest(records)
    return build_mcsg(SelectedEntities(ids=tuple(sorted(kg.entities))), kg)


def _random_mcsg(rng, max_nodes=8):
    n = int(rng.integers(1, max_nodes + 1))
    records = ["C\tc0\tL\tS"] + [f"E\t{i}\tn{i}\tc0\t\t" for i in range(n)]
    for _ in range(int(rng.integers(0, 2 * n + 1))):
        s, o = int(rng.integers(0, n)), int(rng.integers(0, n))
        records.append(f"T\t{s}\trel{int(rng.integers(0, 2))}\t{o}")
    return _whole_graph_mcsg(records)


def _undirected_adj(mcsg):
    adj = {v: set() for v in mcsg.nodes}
    for t in mcsg.edges:
        if t.subject != t.object:
            adj[t.subject].add(t.object)
            adj[t.object].add(t.subject)
    return adj


def _all_shortest_paths(adj, s, t):
    """Every shortest s-t path as a node tuple, by BFS layering + DFS."""
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    if t not in dist:
        return []
    paths = []

    def walk(prefix):
        v = prefix[-1]
        if v == t:
            paths.append(tuple(prefix))
            return
        for w in adj[v]:
            if dist.get(w) == dist[v] + 1 and dist[w] <= dist[t]:
                walk(prefix + [w])

    walk([s])
    return paths


def _oracle_betweenness(mcsg):
    adj = _undirected_adj(mcsg)
    nodes = sorted(mcsg.nodes)
    bc = {v: 0.0 for v in nodes}
    for i, s in enumerate(nodes):
        for t in nodes[i + 1:]:
            paths = _all_shortest_paths(adj, s, t)
            if not paths:
                continue
            for v in nodes:
                if v in (s, t):
                    continue
                through = sum(1 for p in paths if v in p)
                bc[v] += through / len(paths)
    return bc


# -- degree --------------------------------------------------------------------

def test_degree_path_closed_form():
    deg = degree_centrality(_path_mcsg())
    assert deg == {0: 1, 1: 2, 2: 1}


def test_degree_isolated_node_zero():
    kg = tiny_kg(triples=("A r B",), extra_entities=("X",))
    mcsg = build_mcsg(SelectedEntities(ids=tuple(sorted(kg.entities))), kg)
    assert degree_centrality(mcsg)[kg.id_of("X")] == 0


def test_parallel_relations_count_once():
    mcsg = _whole_graph_mcsg(
        ["C\tc0\tL\tS", "E\t0\tA\tc0\t\t", "E\t1\tB\tc0\t\t",
         "T\t0\tr\t1", "T\t0\ts\t1", "T\t1\tt\t0"])
    assert degree_centrality(mcsg) == {0: 1, 1: 1}


def test_self_loop_ignored():
    mcsg = _whole_graph_mcsg(
        ["C\tc0\tL\tS", "E\t0\tA\tc0\t\t", "T\t0\tr\t0"])
    assert degree_centrality(mcsg) == {0: 0}


def test_degree_matches_adjacency_count_oracle():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(31)))
    for _ in range(100):
        mcsg = _random_mcsg(rng)
        adj = _undirected_adj(mcsg)
        assert degree_centrality(mcsg) == {v: len(adj[v]) for v in mcsg.nodes}


# -- betweenness ---------------------------------------------------------------

def test_betweenness_path_closed_form():
    bc = betweenness_centrality(_path_mcsg())
    assert bc[1] == pytest.approx(1.0, abs=1e-12)
    assert bc[0] == bc[2] == pytest.approx(0.0, abs=1e-12)


def test_betweenness_star_closed_form():
    mcsg = _whole_graph_mcsg(
        ["C\tc0\tL\tS"] + [f"E\t{i}\tn{i}\tc0\t\t" for i in range(4)]
        + ["T\t0\tr\t1", "T\t0\tr\t2", "T\t0\tr\t3"])
    bc = betweenness_centrality(mcsg)
    assert bc[0] == pytest.approx(3.0, abs=1e-12)  # C(3,2) leaf pairs
    assert all(bc[i] == pytest.approx(0.0, abs=1e-12) for i in (1, 2, 3))


def test_betweenness_matches_path_enumeration_oracle():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(32)))
    for _ in range(50):
        mcsg = _random_mcsg(rng)
        got = betweenness_centrality(mcsg)
        want = _oracle_betweenness(mcsg)
        for v in mcsg.nodes:
            assert got[v] == pytest.approx(want[v], abs=1e-9)


def test_betweenness_conservation():
    # sum over nodes == sum over pairs of expected internal-node count
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(33)))
    for _ in range(20):
        mcsg = _random_mcsg(rng)
        adj = _undirected_adj(mcsg)
        nodes = sorted(mcsg.nodes)
        pair_total = 0.0
        for i, s in enumerate(nodes):
            for t in nodes[i + 1:]:
                paths = _all_shortest_paths(adj, s, t)
                if paths:
                    pair_total += sum(len(p) - 2 for p in paths) / len(paths)
        got_total = sum(betweenness_centrality(mcsg).values())
        assert got_total == pytest.approx(pair_total, abs=1e-9)


def test_disconnected_pairs_contribute_nothing():
    mcsg = _whole_graph_mcsg(
        ["C\tc0\tL\tS"] + [f"E\t{i}\tn{i}\tc0\t\t" for i in range(4)]
        + ["T\t0\tr\t1", "T\t2\tr\t3"])
    bc = betweenness_centrality(mcsg)
    assert all(v == pytest.approx(0.0, abs=1e-12) for v in bc.values())


# -- combined scores -----------------------------------------------------------

def test_path_alpha_half_scores():
    table = importance_scores(_path_mcsg(), ImportanceConfig(alpha=0.5))
    assert table.score(1) == pytest.approx(1.0, abs=1e-12)
    assert table.score(0) == pytest.approx(0.0, abs=1e-12)
    assert table.score(2) == pytest.approx(0.0, abs=1e-12)


def test_single_node_degenerate_score_one():
    mcsg = _whole_graph_mcsg(["C\tc0\tL\tS", "E\t0\tonly\tc0\t\t"])
    table = importance_scores(mcsg, ImportanceConfig())
    assert table.score(0) == pytest.approx(1.0)


def test_alpha_one_ranking_equals_degree_ranking():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(34)))
    for _ in range(50):
        mcsg = _random_mcsg(rng)
        table = importance_scores(mcsg, ImportanceConfig(alpha=1.0))
        deg = degree_centrality(mcsg)
        nodes = sorted(mcsg.nodes)
        for a in nodes:
            for b in nodes:
                ds = np.sign(deg[a] - deg[b])
                ss = np.sign(round(table.score(a) - table.score(b), 12))
                assert ds == ss, (a, b, deg, table.rows)


def test_minmax_positive_affine_invariance():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(35)))
    for _ in range(30):
        raw = {i: float(v) for i, v in enumerate(rng.integers(0, 10, size=6))}
        a = float(rng.uniform(0.1, 5.0))
        b = float(rng.uniform(-10, 10))
        scaled = {i: a * v + b for i, v in raw.items()}
        base = _minmax(raw)
        moved = _minmax(scaled)
        for i in raw:
            assert moved[i] == pytest.approx(base[i], abs=1e-9)


def test_minmax_degenerate_all_equal_maps_to_one():
    assert _minmax({0: 4.0, 1: 4.0, 2: 4.0}) == {0: 1.0, 1: 1.0, 2: 1.0}


def test_table_covers_exactly_the_nodes():
    mcsg = _path_mcsg()
    table = importance_scores(mcsg, ImportanceConfig())
    assert set(table.rows) == set(mcsg.nodes)
    for nid, (d, b, s) in table.rows.items():
        assert 0.0 <= s <= 1.0


def test_alpha_validation():
    with pytest.raises(ValueError, match="alpha"):
        ImportanceConfig(alpha=1.5)


# -- threshold policy ----------------------------------------------------------

def test_default_policy_interpolation_and_clamping():
    policy = ThresholdPolicy()
    assert policy.threshold(6.0) == pytest.approx(0.4)
    assert policy.threshold(0.0) == pytest.approx(0.0)
    assert policy.threshold(12.0) == pytest.approx(0.8)
    assert policy.threshold(-5.0) == pytest.approx(0.0)   # clamp below
    assert policy.threshold(50.0) == pytest.approx(0.8)   # clamp above
    assert policy.threshold(float("inf")) == pytest.approx(0.8)


def test_policy_validation():
    with pytest.raises(ValueError, match="increasing"):
        ThresholdPolicy(points=((5.0, 0.1), (5.0, 0.2)))
    with pytest.raises(ValueError, match="increasing"):
        ThresholdPolicy(points=((5.0, 0.1), (3.0, 0.2)))
    with pytest.raises(ValueError):
        ThresholdPolicy(points=((0.0, -0.1), (1.0, 0.5)))
    with pytest.raises(ValueError):
        ThresholdPolicy(points=((0.0, 0.5), (1.0, 0.2)))  # decreasing tau


# -- partition -----------------------------------------------------------------

def test_tau_zero_protects_everything():
    mcsg = _path_mcsg()
    config = ImportanceConfig()
    table = importance_scores(mcsg, config)
    protected, unprotected = partition_uep(table, 0.0, config)  # tau = 0
    assert protected == [0, 1, 2]
    assert unprotected == []


def test_tau_one_keeps_only_top_scorers():
    mcsg = _path_mcsg()
    config = ImportanceConfig(threshold_policy=ThresholdPolicy(points=((0.0, 1.0),)))
    table = importance_scores(mcsg, config)
    protected, unprotected = partition_uep(table, 3.0, config)
    assert protected == [1]            # scores exactly 1.0 stay protected
    assert unprotected == [0, 2]


def test_single_node_protected_at_any_tau():
    mcsg = _whole_graph_mcsg(["C\tc0\tL\tS", "E\t0\tonly\tc0\t\t"])
    config = ImportanceConfig(threshold_policy=ThresholdPolicy(points=((0.0, 1.0),)))
    table = importance_scores(mcsg, config)
    protected, unprotected = partition_uep(table, 0.0, config)
    assert protected == [0] and unprotected == []


def test_path_at_six_db_protects_middle():
    mcsg = _path_mcsg()
    config = ImportanceConfig()
    table = importance_scores(mcsg, config)
    protected, unprotected = partition_uep(table, 6.0, config)
    assert protected == [1]
    assert unprotected == [0, 2]


def test_partition_disjoint_ascending_complete():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(36)))
    config = ImportanceConfig()
    for _ in range(30):
        mcsg = _random_mcsg(rng)
        table = importance_scores(mcsg, config)
        snr = float(rng.uniform(-2, 14))
        protected, unprotected = partition_uep(table, snr, config)
        assert protected == sorted(protected)
        assert unprotected == sorted(unprotected)
        assert not (set(protected) & set(unprotected))
        assert set(protected) | set(unprotected) == set(mcsg.nodes)


def test_partition_monotone_in_tau():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(37)))
    for _ in range(20):
        mcsg = _random_mcsg(rng)
        config = ImportanceConfig()
        table = importance_scores(mcsg, config)
        prev: set[int] | None = None
        for snr in (0.0, 3.0, 6.0, 9.0, 12.0):  # tau rises with snr
            protected, _ = partition_uep(table, snr, config)
            if prev is not None:
                assert set(protected) <= prev
            prev = set(protected)
