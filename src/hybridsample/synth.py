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
from .seeds import (STREAM_AFFILIATION, STREAM_AUX_GRAPH, STREAM_BRIDGE, STREAM_HALF_A,
                    STREAM_HALF_B, STREAM_ORIENT, spawn_generator)

ORIENT_ONE_WAY = 0.45  # per direction; both arcs with the remaining 0.1
CHUNK_GROWTH = 1.5  # attachment resolves nodes [a, CHUNK_GROWTH * a) together
PAIR_BLOCK = 1 << 14  # affiliation candidates drawn per block


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


def generate_ba(n: int, m: int, seed: int, *key: int) -> Graph:
    """Preferential-attachment graph drawn from ``spawn_generator(seed, *key)``.

    The core is a clique on m+1 nodes; each later node attaches to the
    first m distinct nodes it draws from the running edge-endpoint list,
    i.e. proportionally to current degree (see ``ba_endpoints``).
    """
    if not 1 <= m < n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    return Graph(n, ba_endpoints(n, m, spawn_generator(seed, *key)).reshape(-1, 2))


def ba_edge_count(n: int, m: int) -> int:
    """Exact edge count of generate_ba(n, m, ...): clique core plus m per node."""
    return m * (m + 1) // 2 + (n - m - 1) * m


def ba_endpoints(n: int, m: int, gen: np.random.Generator) -> np.ndarray:
    """Endpoint list of the attachment graph: edge e is (ends[2e], ends[2e+1]),
    the newer node and the node it picked.

    Node j (after the clique core on nodes 0..m) draws positions
    ``floor(u * f_j)`` in the list, f_j = 2 x (edges before j), and takes the
    first m distinct endpoint values in draw order (Batagelj and Brandes,
    Phys. Rev. E 71, 036113, 2005).  Its first m uniforms are row j-m-1 of
    one (n-m-1, m) block; its draw m+k is entry j-m-1 of extra round k, a
    (n-m-1,) vector that follows the block in gen's stream.  A chunk draws
    its rows of the block, and reads its slice of a round only once one of
    its nodes needs it, with a copy of gen's PCG64 advanced there (one
    output per uniform).  So the graph does not depend on CHUNK_GROWTH,
    which only sets how many nodes are resolved together with numpy.
    ``ends`` is int32 below 2**31 entries.
    """
    core = m + 1
    size = 2 * ba_edge_count(n, m)
    ends = np.empty(size, dtype=np.int32 if size < 2**31 else np.int64)
    newer = np.repeat(np.arange(core), np.arange(core))  # core edge (v, u), u < v
    ends[0:len(newer) * 2:2] = newer
    ends[1:len(newer) * 2:2] = np.arange(len(newer)) - newer * (newer - 1) // 2
    state, spare = gen.bit_generator.state, np.random.Generator(type(gen.bit_generator)())
    used = 0  # extra rounds that some node needed

    start = core
    while start < n:
        stop = int(min(n, max(start + 1, start * CHUNK_GROWTH)))
        rounds: list[np.ndarray] = []

        def extra(k: int) -> np.ndarray:
            while len(rounds) <= k:
                spare.bit_generator.state = state
                spare.bit_generator.advance((n - core) * (m + len(rounds)) + start - core)
                rounds.append(spare.random(stop - start))
            return rounds[k]

        _attach_chunk(ends, gen.random((stop - start, m)), extra, start, m, core)
        used = max(used, len(rounds))
        start = stop
    gen.bit_generator.advance((n - core) * used)  # where drawing the rounds left it
    return ends


def _attach_chunk(ends, draws, extra, start, m, core) -> None:
    """Fill the edges of nodes start .. start+len(draws)-1 into ends;
    ``extra(k)`` is their uniforms of extra round k.

    An endpoint before the chunk is read from ends.  Inside the chunk an
    even position is its newer node, and an odd one holds whatever its
    edge's accepted draw position holds: ``src`` maps chunk edges to those
    positions, which always lie earlier, so following them ends.  src starts
    at each node's first m draws and is iterated to a fixpoint: each pass
    resolves the chunk, marks the nodes whose values repeat as redone (for
    good), and redoes them in node order from their further draws.  A node's
    picks read only earlier nodes, so a pass that changes no pick leaves
    the sequential graph.
    """
    f0 = 2 * (m * (m + 1) // 2 + (start - core) * m)  # endpoints before the chunk
    size = len(draws)
    ends[f0:f0 + 2 * size * m:2] = np.repeat(np.arange(start, start + size), m)
    f = f0 + 2 * m * np.arange(size)  # endpoints before each node
    src = (draws * f[:, None]).astype(np.int64).ravel()

    def resolve() -> np.ndarray:
        pos = src.copy()
        live = np.flatnonzero((pos >= f0) & (pos % 2 == 1))
        while live.size:
            hop = src[(pos[live] - f0) >> 1]
            pos[live] = hop
            live = live[(hop >= f0) & (hop % 2 == 1)]
        return ends[pos]

    def picks(row: int) -> list[int]:
        """Accepted draw positions of a node."""
        fj = int(f[row])
        values: list[int] = []
        accepted: list[int] = []
        a = 0
        while len(values) < m:
            u = draws[row, a] if a < m else extra(a - m)[row]
            p = q = int(u * fj)
            while q >= f0 and q % 2:
                q = int(src[(q - f0) >> 1])
            value = int(ends[q])
            if value not in values:
                values.append(value)
                accepted.append(p)
            a += 1
        return accepted

    redone = np.zeros(size, dtype=bool)
    changed = True
    while changed:
        values = resolve()
        ordered = np.sort(values.reshape(-1, m), axis=1)
        redone |= (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        changed = False
        for row in np.flatnonzero(redone).tolist():
            accepted = picks(row)
            if accepted != src[row * m:(row + 1) * m].tolist():
                src[row * m:(row + 1) * m] = accepted
                changed = True
    ends[f0 + 1:f0 + 2 * size * m:2] = values


def affiliation_keys(n: int, extra_pairs: int, gen: np.random.Generator) -> np.ndarray:
    """Affiliation pairs (u, v) of 2n target and n auxiliary nodes, packed as
    u * n + v: target node u's pair with ``floor(g_u * n)`` from one
    ``random(2n)`` call, then the first extra_pairs keys of a candidate
    sequence, drawn in (PAIR_BLOCK, 2) blocks, that are neither taken nor
    seen earlier in the sequence.
    """
    first = np.arange(2 * n, dtype=np.int64) * n + (gen.random(2 * n) * n).astype(np.int64)
    taken = first  # sorted: one key per target node, in node order
    parts = [first]
    need = extra_pairs
    while need:
        u, v = (gen.random((PAIR_BLOCK, 2)) * (2 * n, n)).astype(np.int64).T
        cand = u * n + v
        keys, first_at = np.unique(cand, return_index=True)
        at = np.minimum(np.searchsorted(taken, keys), len(taken) - 1)
        new = cand[np.sort(first_at[taken[at] != keys])[:need]]
        parts.append(new)
        taken = np.sort(np.concatenate((taken, new)))
        need -= len(new)
    return np.concatenate(parts)


def build_synthetic_hybrid(cfg: SynthConfig) -> HybridNetwork:
    """Two attachment graphs bridged by one edge as the target, a third as the
    auxiliary graph, and an affiliation graph built by (1) linking every
    target node to one random auxiliary node and (2) adding extra_pairs
    distinct random pairs on top.  Each part has its own stream of cfg.seed
    (seeds.STREAM_HALF_A to STREAM_AFFILIATION).
    """
    n = cfg.n_per_graph
    g1 = ba_endpoints(n, cfg.m1, spawn_generator(cfg.seed, STREAM_HALF_A)).reshape(-1, 2)
    g3 = ba_endpoints(n, cfg.m3, spawn_generator(cfg.seed, STREAM_HALF_B)).reshape(-1, 2)
    g3 += n
    u, v = (spawn_generator(cfg.seed, STREAM_BRIDGE).random(2) * n).astype(np.int64).tolist()
    edges = np.concatenate((g1, g3, np.array([(u, n + v)], dtype=g1.dtype)))
    del g1, g3  # the target's CSR build is the peak of set-up; build it alone
    target = Graph(2 * n, edges)
    del edges
    aux = generate_ba(n, cfg.m2, cfg.seed, STREAM_AUX_GRAPH)

    keys = affiliation_keys(n, cfg.extra_pairs, spawn_generator(cfg.seed, STREAM_AFFILIATION))
    u, v = np.divmod(keys, n)
    affiliation = BipartiteGraph(2 * n, n, np.column_stack((u, v)))
    return HybridNetwork(target, aux, affiliation)


def orient_edges(graph: Graph, seed: int) -> np.ndarray:
    """Follower-style arcs of an undirected graph, as an (m', 2) array.

    Each edge (u, v) with u < v becomes u->v with probability ORIENT_ONE_WAY,
    v->u with the same probability, and both arcs otherwise.  The arcs only
    give in- and out-degree labels; the walks use the undirected graph.
    """
    edges = graph.edge_array()
    r = spawn_generator(seed, STREAM_ORIENT).random(len(edges))
    forward = r < ORIENT_ONE_WAY
    backward = ~forward & (r < 2 * ORIENT_ONE_WAY)
    return np.concatenate((edges[~backward], edges[~forward][:, ::-1]))
