"""Importance of the sent ids and the UEP split.

Only a sentence's seeds cross the channel, so only they are scored. Each
seed's importance blends degree centrality (local influence) with exact
unweighted betweenness centrality over unordered node pairs (bridging role),
both read from one ``semgraph.undirected_adjacency`` of the whole one-hop
subgraph and each min-max normalized over all of its nodes, so a seed keeps
the centrality it has among its neighbours. The SNR-dependent threshold
policy splits the seeds into the frame's protected and unprotected classes.
"""

from dataclasses import dataclass, field

import numpy as np

from .kg import NodeId
from .semgraph import Mcsg, undirected_adjacency


def degree_centrality(adj: dict[NodeId, set[NodeId]]) -> dict[NodeId, int]:
    return {n: len(others) for n, others in adj.items()}


def betweenness_centrality(adj: dict[NodeId, set[NodeId]]) -> dict[NodeId, float]:
    """Exact betweenness, unweighted shortest paths, each unordered pair
    counted once. Brandes accumulation; endpoints excluded."""
    bc = {n: 0.0 for n in adj}
    for s in adj:
        stack: list[NodeId] = []
        preds: dict[NodeId, list[NodeId]] = {v: [] for v in adj}
        sigma = {v: 0 for v in adj}
        dist = {v: -1 for v in adj}
        sigma[s] = 1
        dist[s] = 0
        queue = [s]
        while queue:
            v = queue.pop(0)
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: 0.0 for v in adj}
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    # each unordered pair was visited from both endpoints
    return {n: v / 2.0 for n, v in bc.items()}


def _minmax(values: dict[NodeId, float]) -> dict[NodeId, float]:
    if not values:
        return {}
    lo = min(values.values())
    hi = max(values.values())
    if hi == lo:
        return {n: 1.0 for n in values}
    return {n: (v - lo) / (hi - lo) for n, v in values.items()}


@dataclass(frozen=True)
class ThresholdPolicy:
    """Piecewise-linear SNR(dB) -> protection threshold, clamped at the ends."""

    points: tuple[tuple[float, float], ...] = ((0.0, 0.0), (12.0, 0.8))

    def __post_init__(self):
        snrs = [p[0] for p in self.points]
        taus = [p[1] for p in self.points]
        if len(self.points) < 1 or snrs != sorted(snrs) or len(set(snrs)) != len(snrs):
            raise ValueError("policy breakpoints must have strictly increasing SNR")
        if any(not 0.0 <= t <= 1.0 for t in taus) or taus != sorted(taus):
            raise ValueError("thresholds must be non-decreasing within [0, 1]")
        # the breakpoints as np.interp reads them, built once
        object.__setattr__(self, "_xp_fp", (np.array(snrs, dtype=float),
                                            np.array(taus, dtype=float)))

    def threshold(self, snr_db: float) -> float:
        return float(np.interp(snr_db, *self._xp_fp))


@dataclass
class ImportanceConfig:
    alpha: float = 0.5
    threshold_policy: ThresholdPolicy = field(default_factory=ThresholdPolicy)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


def importance_scores(mcsg: Mcsg,
                      config: ImportanceConfig) -> dict[NodeId, tuple[int, float, float]]:
    """Seed id -> (raw degree, raw betweenness, combined score in [0, 1]), with
    both centralities and their normalization taken over the whole subgraph."""
    adj = undirected_adjacency(mcsg.nodes, mcsg.edges)
    deg = degree_centrality(adj)
    btw = betweenness_centrality(adj)
    deg_n = _minmax({n: float(v) for n, v in deg.items()})
    btw_n = _minmax(btw)
    a = config.alpha
    return {n: (deg[n], btw[n], a * deg_n[n] + (1.0 - a) * btw_n[n]) for n in mcsg.seed_nodes}


def partition_uep(table: dict[NodeId, tuple[int, float, float]], snr_db: float,
                  config: ImportanceConfig) -> tuple[list[NodeId], list[NodeId]]:
    """Split the table's ids into (protected, unprotected), both ascending.
    Protection goes to scores at or above the policy threshold for this SNR."""
    tau = config.threshold_policy.threshold(snr_db)
    protected, unprotected = [], []
    for n in sorted(table):
        (protected if table[n][2] >= tau else unprotected).append(n)
    return protected, unprotected
