"""Shared test fixtures and independent oracles.

Oracles here deliberately avoid the library's own code paths: probabilities
come from exhaustive recursion or enumeration, stationary laws from dense
linear algebra on explicitly constructed kernels.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from hybridsample.geo import Region, VenueIndex, zoom_in_law
from hybridsample.graphs import BipartiteGraph, Graph, HybridNetwork
from hybridsample.samplers import AuxDistribution, JumpLaw, VsaSample, compute_qu

KERNEL_SIZE_LIMIT = 2000


def two_user_hybrid():
    """Users u0,u1; venues v0,v1; edges (u0,v0),(u1,v0),(u1,v1)."""
    target = Graph(2, [(0, 1)])
    aux = Graph(2, [])
    aff = BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
    return HybridNetwork(target, aux, aff)


def three_user_hybrid():
    """Users u0..u2, venues v0,v1; every user covered:
    (u0,v0),(u1,v0),(u1,v1),(u2,v1)."""
    target = Graph(3, [(0, 1), (1, 2)])
    aux = Graph(2, [])
    aff = BipartiteGraph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
    return HybridNetwork(target, aux, aff)


def csr_rows(indptr, indices) -> list:
    """CSR rows as tuples of ints, for oracles that loop over neighbors."""
    ptr, flat = indptr.tolist(), indices.tolist()
    return [tuple(flat[a:b]) for a, b in zip(ptr, ptr[1:])]


def hand_sample(draws, degree) -> VsaSample:
    """VsaSample of hand-made (venue, p, harvested users) draws, with
    ``degree[u]`` the affiliation degree recorded for user u."""
    users = [u for _, _, nbrs in draws for u in nbrs]
    return VsaSample(
        np.array([v for v, _, _ in draws], dtype=np.int64),
        np.array([p for _, p, _ in draws], dtype=float),
        np.cumsum([0] + [len(nbrs) for _, _, nbrs in draws], dtype=np.int64),
        np.array(users, dtype=np.int64),
        np.array([degree[u] for u in users], dtype=np.int64),
        len(draws),
    )


def random_connected_graph(rng: random.Random, n: int, extra_edges: int) -> Graph:
    """Random tree plus extra random edges; always connected."""
    edges = set()
    for u in range(1, n):
        edges.add((rng.randrange(u), u))
    want = min(n - 1 + extra_edges, n * (n - 1) // 2)
    while len(edges) < want:
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        edges.add((min(a, b), max(a, b)))
    return Graph(n, sorted(edges))


def random_hybrid(
    rng: random.Random,
    n_t: int,
    n_a: int,
    extra_t: int | None = None,
    extra_a: int | None = None,
    aff_per_user: int = 2,
) -> HybridNetwork:
    """Random connected hybrid with full affiliation coverage on both sides."""
    if extra_t is None:
        extra_t = n_t
    if extra_a is None:
        extra_a = n_a
    target = random_connected_graph(rng, n_t, extra_t)
    aux = random_connected_graph(rng, n_a, extra_a)
    pairs = set()
    for u in range(n_t):
        for _ in range(aff_per_user):
            pairs.add((u, rng.randrange(n_a)))
    for v in range(n_a):  # cover every auxiliary node too
        pairs.add((rng.randrange(n_t), v))
    return HybridNetwork(target, aux, BipartiteGraph(n_t, n_a, sorted(pairs)))


def enumerate_bipartite(n_t: int, n_a: int, full_coverage: bool):
    """All bipartite graphs as tuples of per-user venue subsets."""
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(n_a), k) for k in range(0 if not full_coverage else 1, n_a + 1)
    ))
    yield from itertools.product(subsets, repeat=n_t)


def exact_vsa_expectations(aff: BipartiteGraph, probs, labeler, b_prime, estimator):
    """E[estimator] by exhaustive enumeration of all p-weighted draw sequences.

    ``estimator`` maps a list of drawn venues to a number.
    """
    total = 0.0
    for seq in itertools.product(range(aff.n_right), repeat=b_prime):
        weight = 1.0
        for v in seq:
            weight *= probs[v]
        if weight == 0.0:
            continue
        total += weight * estimator(list(seq))
    return total


def reference_walk_theta(nodes, weights, rows) -> dict:
    """walk_theta one visit at a time: per label, the math.fsum of 1/w_i
    over the visits whose node carries it (``rows[x]`` holds the labels of
    node x), over the math.fsum of every 1/w_i."""
    per_label: dict = {}
    for x, w in zip(nodes, weights):
        for l in rows[x]:
            per_label.setdefault(l, []).append(1.0 / w)
    z = math.fsum(1.0 / w for w in weights)
    return {l: math.fsum(terms) / z for l, terms in per_label.items()}


def reference_theta(sample, rows, n):
    """(ratio theta, known-n theta, n_hat) of a VsaSample one harvested user
    at a time, each sum a math.fsum of the terms (1/p_i) / d_u_bip."""
    per_label: dict = {}
    every = []
    offsets = sample.offsets.tolist()
    for i, p in enumerate(sample.p.tolist()):
        inv_p = 1.0 / p
        for j in range(offsets[i], offsets[i + 1]):
            term = inv_p / int(sample.degrees[j])
            every.append(term)
            for l in rows[int(sample.users[j])]:
                per_label.setdefault(l, []).append(term)
    size = math.fsum(every)
    scale = 1.0 / (n * sample.b_prime)
    return (
        {l: math.fsum(t) / size for l, t in per_label.items()},
        {l: math.fsum(t) * scale for l, t in per_label.items()},
        size / sample.b_prime,
    )


def ba_exact_law(n: int, m: int) -> dict:
    """Exact law of the preferential-attachment graph on n nodes: a clique
    core on m+1 nodes, then each node picks m distinct earlier nodes one at
    a time, t with probability c(t) / (f - sum of c over its earlier picks),
    where c counts t's endpoints among the f edge endpoints so far.

    Enumerates every pick order of each node, summing the orders of one set
    of picks; maps each graph, as a sorted tuple of (u, v) edges with u < v,
    to its probability.
    """
    core = m + 1
    edges = [(u, v) for v in range(core) for u in range(v)]
    law: dict = {}

    def attach(node: int, edges: list, count: list, prob: float):
        if node == n:
            key = tuple(sorted(edges))
            law[key] = law.get(key, 0.0) + prob
            return
        f = 2 * len(edges)
        picked: dict = {}  # set of picks -> probability, summed over pick orders

        def pick(chosen: list, p: float):
            if len(chosen) == m:
                key = tuple(sorted(chosen))
                picked[key] = picked.get(key, 0.0) + p
                return
            left = f - sum(count[t] for t in chosen)
            for t in range(node):
                if t not in chosen:
                    pick(chosen + [t], p * count[t] / left)

        pick([], 1.0)
        for chosen, p in picked.items():
            new_count = count + [m]
            for t in chosen:
                new_count[t] += 1
            attach(node + 1, edges + [(t, node) for t in chosen], new_count, prob * p)

    attach(core, edges, [m] * core, 1.0)
    return law


def rrzi_exact_probabilities(index: VenueIndex, root: Region, k: int, depths=None) -> dict:
    """Exact draw probability of every venue via recursion over the zoom tree.
    Given a dict ``depths``, fills in the zoom depth of each venue's leaf."""
    out: dict = {}

    def descend(region: Region, prob: float, depth: int):
        assert depth <= 80, "runaway recursion"
        hits, truncated = index.query(region, k)
        if not truncated:
            assert hits, "descended into an empty region"
            share = prob / len(hits)
            for v in hits:
                out[v.id] = out.get(v.id, 0.0) + share
                if depths is not None:
                    depths[v.id] = depth
            return
        quads = region.quadrants()
        nonempty = [q for q in quads if index.query(q, 1)[0]]
        for q in nonempty:
            descend(q, prob / len(nonempty), depth + 1)

    descend(root, 1.0, 0)
    return out


def zoom_in_distribution(index: VenueIndex, root: Region, k: int, n: int) -> AuxDistribution:
    """RRZI-VSA's draw source over n auxiliary nodes: zoom_in_law's p and
    calls, spread over the node ids as prepare_experiment does."""
    ids, p, calls = zoom_in_law(index, root, k)
    probs, costs = np.zeros(n), np.zeros(n, dtype=np.int64)
    probs[ids], costs[ids] = p, calls
    return AuxDistribution(n, probs, costs)


def hybrid_rows(h: HybridNetwork, ws) -> np.ndarray:
    """Dense (N, N) weights of the RWT-RWA walk's rows over the hybrid
    nodes (target x is x, auxiliary v is n_t + v), in each row's own units:
    1 per graph edge, and the cumulative-weight steps of the row's
    affiliation entries, which the walk's tables place in rows in node order.
    """
    n_t = h.target.n
    rows = np.zeros((n_t + h.auxiliary.n, n_t + h.auxiliary.n))
    for offset, g in ((0, h.target), (n_t, h.auxiliary)):
        for z, nbrs in enumerate(csr_rows(g.indptr, g.indices)):
            rows[offset + z, [offset + y for y in nbrs]] = 1.0
    entry = np.diff(ws.cum, prepend=0.0).tolist()
    first = 0
    for z, last in enumerate(ws.last.tolist()):
        for j in range(first, last + 1):
            rows[z, int(ws.dest[j])] += entry[j]
        first = last + 1
    return rows


def rwt_vsa_weight(hybrid: HybridNetwork, p: AuxDistribution, alpha: float) -> np.ndarray:
    """Visit weights d_u + alpha*q_u of the jump-augmented target walk."""
    return hybrid.target.degrees + alpha * compute_qu(hybrid, p)


def rwt_vsa_jumps(hybrid: HybridNetwork, p: AuxDistribution, alpha: float) -> JumpLaw:
    """The jump law of rwt_vsa_run through p at total jump mass alpha."""
    return JumpLaw(p, hybrid.affiliation, rwt_vsa_weight(hybrid, p, alpha))


def stationary_rwt_vsa(hybrid: HybridNetwork, p: AuxDistribution, alpha: float) -> np.ndarray:
    """Stationary law of the jump-augmented target walk:
    pi_u = (d_u + alpha*q_u) / (2|E| + alpha)."""
    return rwt_vsa_weight(hybrid, p, alpha) / (hybrid.target.degree_sum + alpha)


def rwt_vsa_transition_matrix(hybrid: HybridNetwork, p: AuxDistribution, alpha: float) -> np.ndarray:
    """Dense one-step kernel of the jump-augmented walk with the virtual
    jumper node marginalized out:

        P[u, u'] = 1{u~u'} / (d_u + omega_u) + omega_u/(d_u+omega_u) * q_{u'}

    Intended for small instances (stationarity and reversibility checks).
    """
    n = hybrid.target.n
    if n > KERNEL_SIZE_LIMIT:
        raise ValueError(f"kernel construction limited to {KERNEL_SIZE_LIMIT} nodes")
    qu = compute_qu(hybrid, p)
    omega = alpha * qu
    target = hybrid.target
    tot = target.degrees + omega
    stuck = tot == 0
    inv = np.divide(1.0, tot, out=np.zeros(n), where=~stuck)
    jump = np.divide(omega, tot, out=np.zeros(n), where=~stuck)
    P = jump[:, None] * qu[None, :]
    rows = np.repeat(np.arange(n), target.degrees)
    P[rows, target.indices] += inv[rows]
    P[stuck, stuck] = 1.0
    return P


def stationary_solve(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of an irreducible stochastic matrix: pi P = pi
    with sum(pi) = 1, by one linear solve."""
    n = len(P)
    lhs = P.T - np.eye(n)
    lhs[-1] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(lhs, rhs)


def left_stationary(P: np.ndarray) -> np.ndarray:
    """Stationary row vector of a stochastic matrix via eigen decomposition."""
    vals, vecs = np.linalg.eig(P.T)
    i = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.real(vecs[:, i])
    pi = np.abs(pi)
    return pi / pi.sum()
