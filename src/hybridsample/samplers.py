"""Sampling procedures over hybrid networks.

Three families are implemented:

* auxiliary vertex sampling that harvests affiliation neighbors,
* a target-graph random walk, plain or with jumps that route through
  auxiliary vertex sampling plus a uniform affiliation-neighbor step,
* one random walk on the weighted hybrid graph: the target and auxiliary
  graphs joined by weighted affiliation edges, which carry the jumps of
  each side into the other.

Jump propensities are expressed as virtual jumper-edge weights omega_u (and
w_v on the auxiliary side).  ``alpha`` and ``beta`` throughout this module
are the *total* jumper masses: with a desired distribution q summing to 1,
omega_u = alpha * q_u and sum(omega) = alpha.  The per-step jump
probability at stationarity is then alpha / (2|E| + alpha), so alpha must
be sized relative to the graph volume.  The experiment harness exposes the
more intuitive per-node units and rescales (see experiment.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._tokens import raise_first
from .graphs import BipartiteGraph, Graph, HybridNetwork
from .seeds import STREAM_AUX, STREAM_TARGET, spawn_generator

BLOCK_STEPS = 256  # steps of uniforms _blocks draws from each walk's stream at a time


class AuxDistribution:
    """Sampling distribution over auxiliary nodes: ``probs[v]`` is the
    probability of node v, uniform over all n' nodes unless given, and
    ``calls[v]`` the API calls one draw of v costs, 1 each unless given.
    """

    def __init__(self, n: int, probs=None, calls=None):
        if n <= 0:
            raise ValueError("auxiliary graph must be nonempty")
        self.n = n
        # unless given, a read-only view of ones: no n entries are held
        self.calls = np.asarray(calls, np.int64) if calls is not None else np.broadcast_to(np.int64(1), n)
        if self.calls.shape != (n,):
            raise ValueError("call count vector length must equal n'")
        if probs is None:
            self.probs = np.full(n, 1.0 / n)
            return
        probs = np.array(probs, dtype=float)
        if probs.shape != (n,):
            raise ValueError("probability vector length must equal n'")
        if not (np.isfinite(probs) & (probs >= 0)).all():
            raise ValueError("probabilities must be finite and nonnegative")
        # fsum: a naive sum of ~1e5 equal shares misses 1 by ~2e-12
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities not normalized (sum={total!r})")
        self.probs = probs

    def pick(self, u: np.ndarray) -> np.ndarray:
        """Nodes drawn from p by uniforms u in [0, 1), one per uniform;
        never a node without p-mass."""
        support, cum = self._support_cum
        if cum is None:
            return support[(u * len(support)).astype(np.int64)]
        return support[np.searchsorted(cum, u, side="right")]

    @cached_property
    def _support_cum(self) -> tuple:
        """(nodes with p-mass, their cumulative p; None for equal masses)."""
        support = np.flatnonzero(self.probs)
        mass = self.probs[support]
        if (mass == mass[0]).all():
            return support, None
        cum = np.cumsum(mass)
        cum[-1] = 1.0
        return support, cum


@dataclass
class VsaSample:
    """Independent auxiliary-node draws and the target nodes they harvest.

    Draw i drew auxiliary node ``venues[i]`` with probability ``p[i]`` and
    harvested its affiliation row ``users[offsets[i]:offsets[i + 1]]``.
    ``degrees[j]`` is the affiliation degree of ``users[j]`` as recorded at
    collection time, so estimation does not need the network.
    """

    venues: np.ndarray
    p: np.ndarray
    offsets: np.ndarray
    users: np.ndarray
    degrees: np.ndarray
    query_count: int

    @property
    def b_prime(self) -> int:
        return len(self.venues)

    @property
    def harvested(self) -> int:
        return len(self.users)


def harvest(aff: BipartiteGraph, venues, p, query_count: int) -> VsaSample:
    """The sample of draws of auxiliary nodes ``venues`` with probabilities
    ``p``, each > 0 with a finite reciprocal.  Each draw harvests the node's
    affiliation row (empty for an unaffiliated node, which adds zero to the
    estimators); the rows of all draws are gathered at once from the CSR
    arrays.
    """
    venues = np.asarray(venues, dtype=np.int64)
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        inv_p = 1.0 / p
    raise_first([
        ((venues < 0) | (venues >= aff.n_right),
         lambda i: f"venue id {venues[i]} is not an auxiliary node"),
        (~(p > 0.0), lambda i: f"draw of venue {venues[i]} with nonpositive probability {p[i]}"),
        (~np.isfinite(inv_p),
         lambda i: f"draw of venue {venues[i]} with probability {p[i]} has no finite reciprocal"),
    ])
    counts = aff.right_degrees[venues]
    offsets = np.zeros(len(venues) + 1, dtype=np.int64)
    counts.cumsum(out=offsets[1:])
    # entry j of draw i's row sits at right_indptr[venue] + (j - offsets[i])
    pos = (aff.right_indptr[venues] - offsets[:-1]).repeat(counts)
    pos += np.arange(offsets[-1])
    users = aff.right_indices[pos]
    return VsaSample(venues, p, offsets, users, aff.left_degrees[users], int(query_count))


def vs_a_collect(hybrid: HybridNetwork, p: AuxDistribution, b_prime: int, seed) -> VsaSample:
    """B' i.i.d. draws from p, each harvesting the drawn node's affiliation
    row (see harvest).  Each draw is p.pick of one uniform of the STREAM_AUX
    generator of ``seed`` and costs its node's p.calls.
    """
    if b_prime < 1:
        raise ValueError("b_prime must be >= 1")
    if p.n != hybrid.auxiliary.n:
        raise ValueError("distribution size must match auxiliary graph")
    venues = p.pick(spawn_generator(seed, STREAM_AUX).random(b_prime))
    return harvest(hybrid.affiliation, venues, p.probs[venues], p.calls[venues].sum())


def compute_qu(hybrid: HybridNetwork, p: AuxDistribution) -> np.ndarray:
    """Jump-target distribution induced by auxiliary vertex sampling followed
    by a uniform affiliation-neighbor step:

        q_u = sum over affiliated v of p_v / d_v_bip.

    Sums to 1 whenever every node carrying p-mass has affiliation edges.
    """
    aff = hybrid.affiliation
    if p.n != aff.n_right:
        raise ValueError("distribution size must match auxiliary graph")
    raise_first([((p.probs > 0.0) & (aff.right_degrees == 0), lambda v: (
        f"unreachable probability mass: auxiliary node {v} has p>0 but no affiliation edges"))])
    return _spread(p.probs, aff.right_degrees, aff.right_indices, hybrid.target.n)


def _spread(mass: np.ndarray, degrees: np.ndarray, indices: np.ndarray, n_out: int) -> np.ndarray:
    """out[j] = sum over rows i holding j of mass[i] / degrees[i].

    bincount adds in input order (row by row), so each sum matches a plain
    loop over the rows bit for bit; rows without entries add nothing.
    """
    share = np.divide(mass, degrees, out=np.zeros(len(mass)), where=degrees > 0)
    return np.bincount(indices, weights=np.repeat(share, degrees), minlength=n_out)


@dataclass
class WalkBatch:
    """R walks of one budget run in lockstep.

    ``nodes[t, r]`` is the node of walk r after step t and ``flags[t, r]``
    says whether a jump entered it; nodes below ``n_target`` are target
    visits, the others the hybrid walk's auxiliary nodes.  The hybrid walk
    flags only target visits entered from an auxiliary node, so its
    auxiliary nodes read False even when a jump entered them.  ``weight`` is
    the visit weight of every node and ``queries[r]`` walk r's query count.
    ``len()`` counts the steps of all walks together.
    """

    nodes: np.ndarray
    flags: np.ndarray
    weight: np.ndarray
    queries: list
    n_target: int

    def __len__(self) -> int:
        return self.nodes.size

    def visits(self, r: int) -> tuple:
        """Walk r's target visits in order: (nodes, jumped), an int64 and a
        bool array."""
        visit = self.nodes[:, r] < self.n_target
        return self.nodes[visit, r], self.flags[visit, r]


class WalkError(RuntimeError):
    """A walk of a lockstep batch cannot go on; ``replication`` is its
    column in the batch and ``reason`` names the node."""

    def __init__(self, replication: int, reason: str):
        super().__init__(f"replication {replication}: {reason}")
        self.replication = replication
        self.reason = reason


def _blocks(seeds, budget: int, key: int, k: int):
    """(first step, uniforms) of each block of at most BLOCK_STEPS of steps
    1..budget-1, from stream ``key`` of each walk's own generator: uniforms
    is a (k, steps, R) array, [j, i, r] walk r's j-th uniform at the
    block's i-th step.  A walk takes k uniforms a step, so it reads the
    same numbers whatever the batch size or block length."""
    gens = [spawn_generator(s, key) for s in seeds]
    t = 1
    while t < budget:
        steps = min(BLOCK_STEPS, budget - t)
        buf = np.empty((len(gens), steps, k))
        for gen, out in zip(gens, buf):
            gen.random(out=out)
        yield t, buf.transpose(2, 1, 0).copy()
        t += steps


def _entries(indices: np.ndarray) -> np.ndarray:
    """CSR entries to pick from with ``take(mode="clip")``: a pick past its
    row (a jump's, or an empty row's) reads some valid id, which the step
    then discards or flags as an error."""
    return indices if len(indices) else np.zeros(1, dtype=indices.dtype)


def _walk_args(weight: np.ndarray, budget: int, starts, seeds) -> tuple:
    """(the batch's (budget, R) int64 node array with the starts in row 0,
    seeds as a list), after the checks every walk makes before its first
    step: ``weight`` is the visit weight of each node a walk may start on,
    and each start needs weight to leave by."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    starts = np.asarray(starts, dtype=np.int64)
    seeds = list(seeds)
    if starts.shape != (len(seeds),):
        raise ValueError("need one start per seed")
    if ((starts < 0) | (starts >= len(weight))).any():
        raise ValueError("start node out of range")
    _check_absorbing(weight, starts[None])
    nodes = np.empty((budget, len(seeds)), dtype=np.int64)
    nodes[0] = starts
    return nodes, seeds


def _check_absorbing(weight: np.ndarray, nodes: np.ndarray) -> None:
    """Raise WalkError for the first (step, walk) of the (steps, R) array
    ``nodes`` at a node of zero visit weight, which a walk cannot leave."""
    stuck = weight[nodes] == 0.0
    if stuck.any():
        t, r = np.unravel_index(np.argmax(stuck), stuck.shape)
        raise WalkError(int(r), f"absorbing node {nodes[t, r]}: zero visit weight, "
                        "so the walk cannot leave it")


def write_trace(batch: WalkBatch, path) -> None:
    """Export walk 0's target visits as line-oriented records: step,node,weight,jumped."""
    nodes, jumped = batch.visits(0)
    rows = zip(nodes.tolist(), batch.weight[nodes].tolist(), jumped.tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,node,weight,jumped\n")
        for i, (x, w, j) in enumerate(rows):
            fh.write(f"{i},{x},{w!r},{int(j)}\n")


@dataclass
class JumpLaw:
    """Jumps of a target-graph walk through auxiliary vertex sampling: a
    uniform draw from ``venues``, the auxiliary nodes with affiliation
    edges, then a uniform neighbour in ``affiliation``.  ``total`` is the
    visit weight d_x + omega_x of every target node, with jump weight
    omega_x = alpha * q_x (q from compute_qu with p uniform on venues)."""

    venues: np.ndarray
    affiliation: BipartiteGraph
    total: np.ndarray


def jump_law(hybrid: HybridNetwork, alpha: float) -> JumpLaw:
    """The jump law of total jump mass ``alpha``, drawing uniformly over the
    auxiliary nodes that have affiliation edges."""
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    aff = hybrid.affiliation
    has_edges = aff.right_degrees > 0
    venues = np.flatnonzero(has_edges)
    if not len(venues):
        raise ValueError("no auxiliary node has affiliation edges")
    q = _spread(has_edges / len(venues), aff.right_degrees, aff.right_indices, hybrid.target.n)
    return JumpLaw(venues, aff, hybrid.target.degrees + alpha * q)


def rwt_vsa_run(graph: Graph, budget: int, starts, seeds, jumps: JumpLaw | None = None) -> WalkBatch:
    """R random walks on ``graph`` from ``starts`` on ``seeds`` (one start
    per seed), run in lockstep; with ``jumps`` each walk also jumps through
    auxiliary vertex sampling.  The visit weight is ``jumps.total``, or the
    node degree d_x for the plain walk (SRW).

    Step t scales the walk's t-th STREAM_TARGET uniform u_t by the visit
    weight: the walker moves to neighbour floor(s) of its row when
    s = u_t (d_x + omega_x) < d_x, and otherwise jumps (the virtual jumper
    edge of weight omega_x): it draws a node of ``jumps.venues`` and lands
    on a uniform affiliation neighbour of it, one query.  A landing takes
    two STREAM_AUX uniforms a step, the venue and the neighbour; the plain
    walk draws none.  At alpha = 0 a jump law never fires, so the walk
    gives the plain walk's trace.
    """
    deg = graph.degrees.astype(float)
    total = deg if jumps is None else jumps.total
    nodes, seeds = _walk_args(total, budget, starts, seeds)
    base, cols = graph.indptr.astype(np.int64, copy=False), _entries(graph.indices)
    flags = np.zeros(nodes.shape, dtype=bool)
    if jumps is not None:
        venues, aff = jumps.venues, jumps.affiliation
        landings = _blocks(seeds, budget, STREAM_AUX, 2)
    for t0, (u,) in _blocks(seeds, budget, STREAM_TARGET, 1):
        if jumps is not None:
            _, a = next(landings)
            # every venue has affiliation edges, so each landing has a row to pick from
            v = venues[(a[0] * len(venues)).astype(np.int64)]
            pick = (a[1] * aff.right_degrees[v]).astype(np.int64)
            land = aff.right_indices[aff.right_indptr[v] + pick]
        for i in range(len(u)):
            t = t0 + i
            x = nodes[t - 1]
            s = u[i] * total[x]
            nodes[t] = cols.take(base[x] + s.astype(np.int64), mode="clip")
            if jumps is not None:
                np.greater_equal(s, deg[x], out=flags[t])
                np.copyto(nodes[t], land[i], where=flags[t])
        # a plain walk leaves by the edge it came in on; a landing may be stuck
        if jumps is not None:
            _check_absorbing(total, nodes[t0 - 1:t0 + len(u) - 1])
    queries = (budget + flags.sum(axis=0)).tolist()
    return WalkBatch(nodes, flags, total, queries, graph.n)


@dataclass
class WeightSystem:
    """The weighted hybrid graph of the RWT-RWA walk (see fixed_weight_scheme).

    Hybrid node z is target node z for z < n_t and auxiliary node z - n_t
    otherwise.  Each row is kept in its own edge units, 1 for a target
    graph edge and k = alpha/beta for an auxiliary one, so that its graph
    entries weigh 1 each: ``total[z]`` is the degree ``deg[z]`` plus the
    row's jump mass, d_x + omega_x on the target (the visit weight) and
    d_v + w_v/k on the auxiliary side.  ``base[z]`` is where z's row
    starts in ``HybridNetwork.columns`` (an auxiliary row after all of the
    target's entries), whose entries are local ids: ``shift[z]``, 0 on a
    target row and n_t on an auxiliary one, makes them hybrid ids in int64.
    The jump mass sits on z's affiliation entries, the target rows' entries
    first, then the auxiliary rows': entry j of row z leads to hybrid node
    ``dest[j]`` and covers ``[key[j], key[j+1])`` inside ``[2z, 2z + 1)``,
    a width its share of the row's jump mass.
    """

    total: np.ndarray
    deg: np.ndarray
    base: np.ndarray
    shift: np.ndarray
    key: np.ndarray
    dest: np.ndarray


def fixed_weight_scheme(hybrid: HybridNetwork, alpha: float, beta: float) -> WeightSystem:
    """The weighted hybrid graph with jump masses alpha and beta:

        omega_x = alpha * q_x                     target jump weight
        c_x     = omega_x / d_x_bip               each affiliation edge of x
        w_v     = sum over users x of v of c_x    auxiliary jump weight

    with target edges of weight 1 and auxiliary edges of weight
    k = alpha/beta, so that the auxiliary side's jump mass sum(w)/k is beta
    in auxiliary-edge units.  The weights are symmetric, so the walk is
    reversible with stationary law proportional to d_x + omega_x on the
    target and k d_v + w_v on the auxiliary side.  In an auxiliary row
    (units of k) the edge to x weighs beta * q_x / d_x_bip, so alpha = 0
    needs no division.  The keys split each row by q_x / d_x_bip over its
    row sum, where alpha and beta cancel.  q is fixed: uniform over the
    affiliation-covered target nodes.
    """
    if not (0 <= alpha < math.inf and 0 <= beta < math.inf):
        raise ValueError(f"alpha and beta must be finite and >= 0, got {alpha!r}, {beta!r}")
    if alpha > 0 and beta == 0:
        raise ValueError("beta must be > 0 when alpha > 0: an auxiliary visit "
                         "returns to the target only through jump mass")
    target, aux, aff = hybrid.target, hybrid.auxiliary, hybrid.affiliation
    covered = hybrid.covered_targets()
    if not len(covered):
        raise ValueError("no target node has affiliation edges")
    q = np.zeros(target.n)
    q[covered] = 1.0 / len(covered)

    share = np.divide(q, aff.left_degrees, out=np.zeros(target.n), where=aff.left_degrees > 0)
    spread = _spread(q, aff.left_degrees, aff.left_indices, aux.n)
    n_aff = aff.num_edges
    key = np.empty(2 * n_aff)
    _row_keys(key[:n_aff], np.repeat(share, aff.left_degrees), aff.left_indptr, q, 0)
    _row_keys(key[n_aff:], share[aff.right_indices], aff.right_indptr, spread, target.n)
    deg = np.concatenate((target.degrees, aux.degrees)).astype(float)
    base = np.concatenate((target.indptr[:-1], aux.indptr[:-1]), dtype=np.int64)
    base[target.n:] += len(target.indices)
    return WeightSystem(
        total=deg + np.concatenate((alpha * q, beta * spread)),
        deg=deg,
        base=base,
        shift=np.repeat(np.array([0, target.n], dtype=np.int64), [target.n, aux.n]),
        key=key,
        # hybrid ids in int64: left_indices + n_t in the CSR's int32 could wrap
        dest=np.concatenate((np.add(aff.left_indices, target.n, dtype=np.int64),
                             aff.right_indices)),
    )


def _row_keys(out: np.ndarray, weight: np.ndarray, indptr: np.ndarray, mass: np.ndarray, row0: int):
    """Write the keys of the CSR rows ``indptr`` into ``out``: entry j of
    row i starts at 2 (row0 + i) plus the summed ``weight`` of the row's
    entries before j, divided by ``mass[i]``, the row's total weight."""
    deg = np.diff(indptr)
    out[0] = 0.0
    np.cumsum(weight[:-1], out=out[1:])
    out -= np.repeat(out.take(indptr[:-1], mode="clip"), deg)
    out /= np.repeat(np.where(mass > 0, mass, 1.0), deg)  # a row without mass is never picked
    out += np.repeat(2.0 * np.arange(row0, row0 + len(deg)), deg)


def target_share(ws: WeightSystem, n_target: int, alpha: float, beta: float) -> float:
    """The stationary share of an RWT-RWA walk's steps on the target: its law
    is proportional to ``total`` on the target rows and to k = alpha/beta
    times it on the auxiliary rows, which are in units of k (1 at alpha = 0)."""
    t, a = ws.total[:n_target].sum(), ws.total[n_target:].sum()
    return float(t / (t + alpha / beta * a)) if alpha else 1.0


@np.errstate(invalid="ignore")  # 0/0 only on an absorbing node, which _check_absorbing reports
def rwt_rwa_run(hybrid: HybridNetwork, ws: WeightSystem, budget: int, starts, seeds) -> WalkBatch:
    """Random walk on the weighted hybrid graph of ``ws``, started on the
    target.  The walk is reversible, so target visits have stationary law
    proportional to d_x + omega_x, their recorded weight.

    Step t from hybrid node z sets s = u_t total[z], with u_t the walk's
    t-th STREAM_TARGET uniform: s < deg[z] moves to graph neighbour
    floor(s) of z, ``shift[z] + columns[base[z] + floor(s)]``, one pick
    from ``hybrid.columns`` on either side.  Otherwise the pick is dropped
    and the walker jumps along the affiliation entry whose key range holds
    2z + (s - deg[z]) / (total[z] - deg[z]), normalised by z's own jump
    mass.  Only the walkers whose s reaches deg[z] compute that
    fraction, add 2z (from z itself), and search ``key``: a cache-missing
    binary search over all 2 * n_aff keys, while about 8% of steps jump
    (alpha = beta = 1 per node on the default 2x10k network).  At alpha = 0
    a target walk never jumps and its trace is the plain walk's
    (rwt_vsa_run without a jump law).

    Every step is one query, so a walk of ``budget`` steps costs ``budget``
    queries; its target visits are kept in order (WalkBatch.visits),
    each flagged jumped when it was entered from an auxiliary node.
    ``starts`` (target nodes) and ``seeds`` are as in rwt_vsa_run.
    """
    n_t = hybrid.target.n
    nodes, seeds = _walk_args(ws.total[:n_t], budget, starts, seeds)
    total, deg, base, shift = ws.total, ws.deg, ws.base, ws.shift
    later, dest, cols = ws.key[1:], _entries(ws.dest), _entries(hybrid.columns)
    for t0, (u,) in _blocks(seeds, budget, STREAM_TARGET, 1):
        for i in range(len(u)):
            z, nxt = nodes[t0 + i - 1], nodes[t0 + i]
            s = total[z] * u[i]
            pos = base[z] + s.astype(np.int64)
            np.add(shift[z], cols.take(pos, mode="clip"), out=nxt)
            hop = (s >= deg[z]).nonzero()[0]
            if len(hop):
                # entry j of z's row holds 2z + fraction; j keys after the first are <= it
                zh = z[hop]
                f = (s[hop] - deg[zh]) / (total[zh] - deg[zh]) + 2.0 * zh
                nxt[hop] = dest[later.searchsorted(f, side="right")]
        _check_absorbing(total, nodes[t0 - 1:t0 + len(u) - 1])
    flags = np.zeros(nodes.shape, dtype=bool)
    np.greater_equal(nodes[:-1], n_t, out=flags[1:])
    flags[1:] &= nodes[1:] < n_t
    return WalkBatch(nodes, flags, total, [budget] * len(seeds), n_t)
