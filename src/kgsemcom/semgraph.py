"""Minimum connected subgraph construction and receiver-side reconstruction.

The subgraph of a sentence is its selected entity ids (the seeds) expanded by
one hop in the shared KG. ``one_hop`` is that expansion, and both ends call
it: the transmitter to build the subgraph in which it scores the seeds, the
receiver to re-derive it from the seeds, which are all that crosses the
channel. The receiver discards ids that do not exist in its KG copy before it
expands them; then ``reconstruct`` re-induces the edges and keeps the largest
connected component.
"""

from collections.abc import Iterable
from dataclasses import dataclass

from .kg import KnowledgeGraph, NodeId, Triple


@dataclass(frozen=True)
class Mcsg:
    nodes: frozenset[NodeId]
    seed_nodes: frozenset[NodeId]
    edges: tuple[Triple, ...]  # sorted by (subject, relation, object)


def one_hop(seeds: Iterable[NodeId], kg: KnowledgeGraph) -> frozenset[NodeId]:
    """The seeds plus all their one-hop neighbors, either edge direction. A
    seed the graph lacks raises ``KeyError`` from ``kg.neighbors``."""
    seeds = frozenset(seeds)
    nodes = set(seeds)
    for nid in seeds:
        nodes.update(other for _, other in kg.neighbors(nid))
    return frozenset(nodes)


def build_mcsg(seeds: Iterable[NodeId], kg: KnowledgeGraph) -> Mcsg:
    """The ``one_hop`` expansion of the seeds, with every KG edge among those
    nodes. May be disconnected; may be empty for no seeds."""
    seeds = frozenset(seeds)
    nodes = one_hop(seeds, kg)
    return Mcsg(nodes=nodes, seed_nodes=seeds, edges=kg.induced_edges(nodes))


def undirected_adjacency(nodes: frozenset[NodeId],
                         edges: tuple[Triple, ...]) -> dict[NodeId, set[NodeId]]:
    """Each node's neighbours, either edge direction. A self-loop adds none,
    and parallel relations between the same pair collapse to one."""
    adj: dict[NodeId, set[NodeId]] = {n: set() for n in nodes}
    for t in edges:
        if t.subject != t.object:
            adj[t.subject].add(t.object)
            adj[t.object].add(t.subject)
    return adj


def _components(adj: dict[NodeId, set[NodeId]]) -> list[set[NodeId]]:
    seen: set[NodeId] = set()
    comps: list[set[NodeId]] = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in comp:
                    comp.add(nxt)
                    stack.append(nxt)
        seen |= comp
        comps.append(comp)
    return comps


def reconstruct(received: Iterable[NodeId], kg: KnowledgeGraph) -> Mcsg:
    """Receiver-side rebuild from (possibly corrupted) ids. Invalid ids are
    dropped; surviving nodes are induced against the KG, and the largest
    connected component is kept, ties going to the one containing the
    smallest id."""
    valid = frozenset(i for i in received if i in kg.entities)
    if not valid:
        return Mcsg(nodes=valid, seed_nodes=valid, edges=())
    edges = kg.induced_edges(valid)
    comps = _components(undirected_adjacency(valid, edges))
    chosen = frozenset(min(comps, key=lambda c: (-len(c), min(c))))
    # a component is closed under its edges, so an edge is in it iff its subject is
    edges = tuple(t for t in edges if t.subject in chosen)
    return Mcsg(nodes=chosen, seed_nodes=chosen, edges=edges)
