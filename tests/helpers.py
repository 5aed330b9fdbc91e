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

from hybridsample.geo import Region, zoom_in_law
from hybridsample.graphs import BipartiteGraph, Graph, HybridNetwork, LabelTable
from hybridsample.samplers import AuxDistribution, VsaSample, WalkBatch

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


def edges(graph: Graph) -> list:
    """Each edge once as (u, v) with u < v, sorted by u, then v."""
    return list(map(tuple, graph.edge_array().tolist()))


def label_table(rows) -> LabelTable:
    """The LabelTable of one iterable of labels per node, in node order; a
    label's code is the order of its first appearance.  Each node's slots
    are 1 + its codes, padded with 0, in at least one row."""
    index: dict = {}
    columns = [[index.setdefault(l, len(index)) + 1 for l in row] for row in rows]
    slots = np.zeros((max([1, *map(len, columns)]), len(columns)), dtype=np.int64)
    for u, column in enumerate(columns):
        slots[:len(column), u] = column
    return LabelTable(slots, index)


def labels_of(table, u: int) -> tuple:
    """The labels of node u of a LabelTable."""
    return tuple(table.values[c - 1] for c in table.slots[:, u].tolist() if c)


def by_label(table) -> dict:
    """The rows of a ResultTable keyed by label."""
    return {row.label: row for row in table.rows}


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
        [len(draws)],
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


def one_walk(nodes, weight) -> WalkBatch:
    """A batch of one walk visiting target ``nodes`` in order, with visit weight ``weight[x]``."""
    steps = np.asarray(nodes, dtype=np.int64).reshape(-1, 1)
    flags = np.zeros(steps.shape, dtype=bool)
    return WalkBatch(steps, flags, np.asarray(weight, dtype=float), [len(steps)], len(weight))


def walk_visits(batch: WalkBatch, r: int) -> tuple:
    """Walk r's target visits in order, at the steps ``batch.visits(r)``
    marks: (nodes, jumped), an int64 and a bool array."""
    visit = batch.visits(r)
    return batch.nodes[:, r][visit], batch.flags[:, r][visit]


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


def contains(region: Region, lat: float, lon: float) -> bool:
    """Half-open membership, as the zoom-in law reads a region."""
    return region.lat_min <= lat < region.lat_max and region.lon_min <= lon < region.lon_max


def quadrants(region: Region) -> tuple:
    """Four equal quadrants partitioning the region (half-open): lower then
    upper latitude half, each lower then upper longitude half."""
    mid_lat = (region.lat_min + region.lat_max) / 2.0
    mid_lon = (region.lon_min + region.lon_max) / 2.0
    return (
        Region(region.lat_min, mid_lat, region.lon_min, mid_lon),
        Region(region.lat_min, mid_lat, mid_lon, region.lon_max),
        Region(mid_lat, region.lat_max, region.lon_min, mid_lon),
        Region(mid_lat, region.lat_max, mid_lon, region.lon_max),
    )


def venues(points) -> tuple:
    """The (lats, lons) arrays of (lat, lon) points, point v on auxiliary
    node v; a (nan, nan) point is a node without a venue."""
    lats, lons = np.array(points, dtype=np.float64).reshape(-1, 2).T
    return lats, lons


def query(venues: tuple, region: Region, k: int):
    """The simulated venue-query API: the nodes whose venue lies in the
    region, truncated to the K smallest ids.  Returns (ids, truncated)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    lats, lons = venues
    ids = np.flatnonzero((lats >= region.lat_min) & (lats < region.lat_max)
                         & (lons >= region.lon_min) & (lons < region.lon_max)).tolist()
    return ids[:k], len(ids) > k


def rrzi_exact_probabilities(venues: tuple, root: Region, k: int, depths=None) -> dict:
    """Exact draw probability of every venue via recursion over the zoom tree.
    Given a dict ``depths``, fills in the zoom depth of each venue's leaf."""
    out: dict = {}

    def descend(region: Region, prob: float, depth: int):
        assert depth <= 80, "runaway recursion"
        hits, truncated = query(venues, region, k)
        if not truncated:
            assert hits, "descended into an empty region"
            share = prob / len(hits)
            for v in hits:
                out[v] = out.get(v, 0.0) + share
                if depths is not None:
                    depths[v] = depth
            return
        nonempty = [q for q in quadrants(region) if query(venues, q, 1)[0]]
        for q in nonempty:
            descend(q, prob / len(nonempty), depth + 1)

    descend(root, 1.0, 0)
    return out


def zoom_in_distribution(venues: tuple, root: Region, k: int) -> AuxDistribution:
    """RRZI-VSA's draw source over the auxiliary nodes of ``venues``, as
    prepare_experiment builds it from zoom_in_law."""
    return AuxDistribution(len(venues[0]), *zoom_in_law(*venues, root, k))


def hybrid_rows(h: HybridNetwork, alpha: float, beta: float, q=None) -> np.ndarray:
    """Dense (N, N) weights of the RWT-RWA walk's rows over the hybrid
    nodes (target x is x, auxiliary v is n_t + v), in each row's own units,
    from q, alpha, beta and the affiliation degrees alone: 1 per graph
    edge, alpha * q_x / d_bip(x) on each affiliation edge of x, and
    beta * q_x / d_bip(x) on v's edge to x.  q defaults to uniform over the
    affiliation-covered target nodes.
    """
    n_t, aff = h.target.n, h.affiliation
    d_bip = aff.left_degrees.tolist()
    if q is None:
        covered = [x for x in range(n_t) if d_bip[x]]
        q = [1.0 / len(covered) if d_bip[x] else 0.0 for x in range(n_t)]
    rows = np.zeros((n_t + h.auxiliary.n, n_t + h.auxiliary.n))
    for offset, g in ((0, h.target), (n_t, h.auxiliary)):
        for z, nbrs in enumerate(csr_rows(g.indptr, g.indices)):
            rows[offset + z, [offset + y for y in nbrs]] = 1.0
    for x, venues in enumerate(csr_rows(aff.left_indptr, aff.left_indices)):
        for v in venues:
            rows[x, n_t + v] += alpha * q[x] / d_bip[x]
            rows[n_t + v, x] += beta * q[x] / d_bip[x]
    return rows


def jump_target_law(hybrid: HybridNetwork, p: AuxDistribution) -> np.ndarray:
    """q_u = sum over the auxiliary nodes v of u of p_v / d_v_bip: where a
    p-draw followed by a uniform affiliation neighbour lands, one venue at a
    time (in venue order, as the package's bincount adds)."""
    aff = hybrid.affiliation
    q = np.zeros(hybrid.target.n)
    for v, users in enumerate(csr_rows(aff.right_indptr, aff.right_indices)):
        for u in users:
            q[u] += p.probs[v] / len(users)
    return q


def rwt_vsa_weight(hybrid: HybridNetwork, p: AuxDistribution, alpha: float) -> np.ndarray:
    """Visit weights d_u + alpha*q_u of the jump-augmented target walk."""
    return hybrid.target.degrees + alpha * jump_target_law(hybrid, p)


def stationary_rwt_vsa(hybrid: HybridNetwork, p: AuxDistribution, alpha: float) -> np.ndarray:
    """Stationary law of the jump-augmented target walk:
    pi_u = (d_u + alpha*q_u) / (2|E| + alpha)."""
    return rwt_vsa_weight(hybrid, p, alpha) / (2 * hybrid.target.num_edges + alpha)


def rwt_vsa_transition_matrix(hybrid: HybridNetwork, p: AuxDistribution, alpha: float) -> np.ndarray:
    """Dense one-step kernel of the jump-augmented walk with the virtual
    jumper node marginalized out:

        P[u, u'] = 1{u~u'} / (d_u + omega_u) + omega_u/(d_u+omega_u) * q_{u'}

    Intended for small instances (stationarity and reversibility checks).
    """
    n = hybrid.target.n
    if n > KERNEL_SIZE_LIMIT:
        raise ValueError(f"kernel construction limited to {KERNEL_SIZE_LIMIT} nodes")
    qu = jump_target_law(hybrid, p)
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


# ------------------------------------------------- line-loop file oracles


def oracle_load_edge_list(path):
    """(n, edges, names) of an edge list, read one line at a time."""
    ids: dict = {}
    names: list = []
    edges = []

    def intern(token: str) -> int:
        i = ids.get(token)
        if i is None:
            i = ids[token] = len(names)
            names.append(token)
        return i

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two ids, got {line!r}")
            a, b = parts
            if a == b:
                raise ValueError(f"{path}:{lineno}: self-loop {a!r}")
            edges.append((intern(a), intern(b)))
    return len(names), edges, names


def oracle_load_affiliation(path, left_names, right_names) -> list:
    """The (left, right) id pairs of an affiliation file, one line at a time."""
    left_ids = {name: i for i, name in enumerate(left_names)}
    right_ids = {name: i for i, name in enumerate(right_names)}
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two ids, got {line!r}")
            a, b = parts
            if a not in left_ids:
                raise ValueError(f"{path}:{lineno}: unknown target id {a!r}")
            if b not in right_ids:
                raise ValueError(f"{path}:{lineno}: unknown auxiliary id {b!r}")
            pairs.append((left_ids[a], right_ids[b]))
    return pairs


def oracle_load_venues(path, node_names) -> list:
    """The (id, lat, lon) triples of a venue file in file order, one line at
    a time."""
    node_ids = {name: i for i, name in enumerate(node_names)}
    venues = []
    first_line = {}  # venue id -> line it was read from
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'id lat lon', got {line!r}")
            vid = node_ids.get(parts[0])
            if vid is None:
                raise ValueError(f"{path}:{lineno}: venue id {parts[0]!r} is not an auxiliary node id")
            try:
                lat, lon = float(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            if not -90.0 <= lat <= 90.0:
                raise ValueError(f"{path}:{lineno}: latitude {lat} out of range")
            if not -180.0 <= lon <= 180.0:
                raise ValueError(f"{path}:{lineno}: longitude {lon} out of range")
            earlier = first_line.setdefault(vid, lineno)
            if earlier != lineno:
                raise ValueError(f"{path}:{lineno}: duplicate venue id {parts[0]!r} "
                                 f"(first on line {earlier})")
            venues.append((vid, lat, lon))
    return venues


def oracle_write_edge_list(graph: Graph, path) -> None:
    names = graph.node_names
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in edges(graph):
            if names is not None:
                fh.write(f"{names[u]} {names[v]}\n")
            else:
                fh.write(f"{u} {v}\n")


def oracle_write_affiliation(aff: BipartiteGraph, path) -> None:
    rows = np.repeat(np.arange(aff.n_left), aff.left_degrees).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in zip(rows, aff.left_indices.tolist()):
            fh.write(f"{u} {v}\n")


def oracle_write_venues(venues, path) -> None:
    """``venues``: (id, lat, lon) triples."""
    with open(path, "w", encoding="utf-8") as fh:
        for vid, lat, lon in sorted(venues):
            fh.write(f"{vid} {lat!r} {lon!r}\n")
