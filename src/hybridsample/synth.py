"""Seeded synthetic network generation.

Builds preferential-attachment graphs and the two-community hybrid network
used by the experiment harness: a target graph made of two attachment
graphs joined by a single bridge edge, a denser auxiliary graph, and an
affiliation graph that links every target node to at least one auxiliary
node plus a batch of extra random pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import BipartiteGraph, Graph, HybridNetwork
from .seeds import spawn_rng

ORIENT_ONE_WAY = 0.45  # per direction; both arcs with the remaining 0.1


@dataclass(frozen=True)
class SynthConfig:
    n_per_graph: int
    m1: int = 2
    m2: int = 5
    m3: int = 10
    extra_pairs: int = 0
    seed: int = 0

    def __post_init__(self):
        for m in (self.m1, self.m2, self.m3):
            if m < 1:
                raise ValueError("attachment counts must be >= 1")
            if m >= self.n_per_graph:
                raise ValueError(f"attachment count {m} must be < n_per_graph")
        if self.extra_pairs < 0:
            raise ValueError("extra_pairs must be >= 0")
        # every target node already has one of its n possible pairs
        free = 2 * self.n_per_graph * (self.n_per_graph - 1)
        if self.extra_pairs > free:
            raise ValueError(
                f"extra_pairs={self.extra_pairs} exceeds the {free} free affiliation "
                f"pairs of n_per_graph={self.n_per_graph} (at most 2n(n-1))"
            )


def generate_ba(n: int, m: int, seed) -> Graph:
    """Preferential-attachment graph: clique core of m+1 nodes, then each new
    node attaches to m distinct existing nodes chosen proportionally to
    current degree (repeated draws from the running edge-endpoint list,
    rejecting duplicates within one node's picks).
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = seed if hasattr(seed, "randrange") else spawn_rng(seed)
    randrange = rng.randrange
    # Edge k is (endpoints[2k], endpoints[2k + 1]); the filled prefix is the
    # running endpoint list the attachment draws from.
    endpoints = [0] * (2 * ba_edge_count(n, m))
    filled = 0
    core = m + 1
    for u in range(core):
        for v in range(u + 1, core):
            endpoints[filled] = u
            endpoints[filled + 1] = v
            filled += 2
    for new in range(core, n):
        picks: list[int] = []
        while len(picks) < m:
            t = endpoints[randrange(filled)]
            if t not in picks:
                picks.append(t)
        for t in picks:
            endpoints[filled] = new
            endpoints[filled + 1] = t
            filled += 2
    return Graph(n, np.array(endpoints, dtype=np.int64).reshape(-1, 2))


def ba_edge_count(n: int, m: int) -> int:
    """Exact edge count of generate_ba(n, m, ...): clique core plus m per node."""
    return m * (m + 1) // 2 + (n - m - 1) * m


def build_synthetic_hybrid(cfg: SynthConfig) -> HybridNetwork:
    """Two attachment graphs bridged by one edge as the target, a third as the
    auxiliary graph, and an affiliation graph built by (1) linking every
    target node to one random auxiliary node and (2) adding extra_pairs
    distinct random pairs on top.
    """
    n = cfg.n_per_graph
    g1 = generate_ba(n, cfg.m1, spawn_rng(cfg.seed, 0))
    aux = generate_ba(n, cfg.m2, spawn_rng(cfg.seed, 1))
    g3 = generate_ba(n, cfg.m3, spawn_rng(cfg.seed, 2))

    rng_bridge = spawn_rng(cfg.seed, 3)
    bridge = (rng_bridge.randrange(n), n + rng_bridge.randrange(n))
    target = Graph(2 * n, np.concatenate((g1.edge_array(), g3.edge_array() + n, [bridge])))

    # affiliation pairs (u, v) packed as u * n + v
    rng_aff = spawn_rng(cfg.seed, 4)
    keys = [u * n + rng_aff.randrange(n) for u in range(2 * n)]
    taken = set(keys)
    while len(keys) < 2 * n + cfg.extra_pairs:
        u = rng_aff.randrange(2 * n)
        key = u * n + rng_aff.randrange(n)
        if key not in taken:
            taken.add(key)
            keys.append(key)
    u, v = np.divmod(np.array(keys, dtype=np.int64), n)
    affiliation = BipartiteGraph(2 * n, n, np.column_stack((u, v)))
    return HybridNetwork(target, aux, affiliation)


def orient_edges(graph: Graph, seed) -> np.ndarray:
    """Follower-style arcs of an undirected graph, as an (m', 2) array.

    Each edge (u, v) with u < v becomes u->v with probability ORIENT_ONE_WAY,
    v->u with the same probability, and both arcs otherwise.  The arcs only
    give in- and out-degree labels; the walks use the undirected graph.
    """
    rng = seed if hasattr(seed, "random") else spawn_rng(seed, 5)
    edges = graph.edge_array()
    r = np.array([rng.random() for _ in range(len(edges))])
    forward = r < ORIENT_ONE_WAY
    backward = ~forward & (r < 2 * ORIENT_ONE_WAY)
    return np.concatenate((edges[~backward], edges[~forward][:, ::-1]))
