"""Sampling procedures over hybrid networks.

Three families are implemented:

* auxiliary vertex sampling that harvests affiliation neighbors,
* a target-graph random walk whose jumps route through auxiliary vertex
  sampling plus a uniform affiliation-neighbor step,
* two coupled random walks (target and auxiliary) whose jumps route through
  each other via the affiliation graph, with a Metropolis-Hastings chain
  correcting the jump distribution on the target side.

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import BipartiteGraph, Graph, HybridNetwork
from .seeds import STREAM_AUX, STREAM_AUX_JUMP, STREAM_MH, STREAM_TARGET, spawn_generator

KERNEL_SIZE_LIMIT = 2000
CLOSED_FORM_CELL_LIMIT = 4_000_000
BLOCK_STEPS = 256  # steps of uniforms a walk draws from each stream at a time


class AuxDistribution:
    """Sampling distribution over auxiliary nodes: ``probs[v]`` is the
    probability of node v, uniform over all n' nodes unless given.
    """

    def __init__(self, n: int, probs=None):
        if n <= 0:
            raise ValueError("auxiliary graph must be nonempty")
        self.n = n
        if probs is None:
            self.probs = np.full(n, 1.0 / n)
            return
        probs = np.array(probs, dtype=float)
        if probs.shape != (n,):
            raise ValueError("probability vector length must equal n'")
        if (probs < 0).any():
            raise ValueError("probabilities must be nonnegative")
        # fsum: a naive sum of ~1e5 equal shares misses 1 by ~2e-12
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"probabilities not normalized (sum={total!r})")
        self.probs = probs

    @classmethod
    def uniform(cls, n: int) -> "AuxDistribution":
        return cls(n)

    @classmethod
    def explicit(cls, probs) -> "AuxDistribution":
        return cls(len(probs), probs)

    @classmethod
    def uniform_over(cls, n: int, support) -> "AuxDistribution":
        """Uniform over a subset of auxiliary nodes, zero elsewhere."""
        support = np.unique(np.asarray(support, dtype=np.int64))
        if not len(support):
            raise ValueError("support must be nonempty")
        for v in (support[0], support[-1]):
            if not 0 <= v < n:
                raise ValueError(f"support id {v} out of range for n'={n}")
        probs = np.zeros(n)
        probs[support] = 1.0 / len(support)
        return cls(n, probs)

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

    def draws(self, gen: np.random.Generator, count: int) -> tuple:
        """(nodes, their p, query count) of ``count`` draws for vs_a_collect:
        one uniform of ``gen`` and one query a draw."""
        v = self.pick(gen.random(count))
        return v, self.probs[v], count


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
    ``p``.  Each draw harvests the node's affiliation row (empty for an
    unaffiliated node, which adds zero to the estimators); the rows of all
    draws are gathered at once from the CSR arrays.
    """
    venues = np.asarray(venues, dtype=np.int64)
    p = np.asarray(p, dtype=float)
    off_range = (venues < 0) | (venues >= aff.n_right)
    bad = off_range | ~(p > 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        if off_range[i]:
            raise ValueError(f"venue id {venues[i]} is not an auxiliary node")
        raise ValueError(f"draw of venue {venues[i]} with nonpositive probability {p[i]}")
    counts = aff.right_degrees[venues]
    offsets = np.zeros(len(venues) + 1, dtype=np.int64)
    counts.cumsum(out=offsets[1:])
    # entry j of draw i's row sits at right_indptr[venue] + (j - offsets[i])
    pos = (aff.right_indptr[venues] - offsets[:-1]).repeat(counts)
    pos += np.arange(offsets[-1])
    users = aff.right_indices[pos]
    return VsaSample(venues, p, offsets, users, aff.left_degrees[users], int(query_count))


def vs_a_collect(hybrid: HybridNetwork, source, b_prime: int, seed) -> VsaSample:
    """B' i.i.d. auxiliary draws, each harvesting the drawn node's
    affiliation row (see harvest).  ``source.draws(gen, b_prime)`` gives
    the nodes, probabilities and query count of all draws, read from the
    STREAM_AUX generator of ``seed``: an AuxDistribution reads one uniform
    and costs one query a draw, a ``geo.ZoomInSource`` reads one uniform per
    zoom level plus one for the leaf and costs its API calls.
    """
    if b_prime < 1:
        raise ValueError("b_prime must be >= 1")
    n_aux = hybrid.auxiliary.n
    if getattr(source, "n", n_aux) != n_aux:  # only sized sources can be checked up front
        raise ValueError("distribution size must match auxiliary graph")
    venues, p, queries = source.draws(spawn_generator(seed, STREAM_AUX), b_prime)
    return harvest(hybrid.affiliation, venues, p, queries)


def compute_qu(hybrid: HybridNetwork, p: AuxDistribution) -> np.ndarray:
    """Jump-target distribution induced by auxiliary vertex sampling followed
    by a uniform affiliation-neighbor step:

        q_u = sum over affiliated v of p_v / d_v_bip.

    Sums to 1 whenever every node carrying p-mass has affiliation edges.
    """
    aff = hybrid.affiliation
    if p.n != aff.n_right:
        raise ValueError("distribution size must match auxiliary graph")
    pv = p.probs
    stranded = (pv > 0.0) & (aff.right_degrees == 0)
    if stranded.any():
        v = int(np.argmax(stranded))
        raise ValueError(
            f"unreachable probability mass: auxiliary node {v} has p>0 "
            "but no affiliation edges"
        )
    return _spread(pv, aff.right_degrees, aff.right_indices, hybrid.target.n)


def _spread(mass: np.ndarray, degrees: np.ndarray, indices: np.ndarray, n_out: int) -> np.ndarray:
    """out[j] = sum over rows i holding j of mass[i] / degrees[i].

    bincount adds in input order (row by row), so each sum matches a plain
    loop over the rows bit for bit; rows without entries add nothing.
    """
    share = np.divide(mass, degrees, out=np.zeros(len(mass)), where=degrees > 0)
    return np.bincount(indices, weights=np.repeat(share, degrees), minlength=n_out)


@dataclass
class SampleTrace:
    """Ordered node visits of a walk (int64 array) with per-visit estimator
    weights (float64 array) and jump flags."""

    nodes: np.ndarray
    weights: np.ndarray
    jumped: list
    budget: int
    query_count: int

    def __post_init__(self):
        if not (len(self.nodes) == len(self.weights) == len(self.jumped) == self.budget):
            raise ValueError("trace arrays must all have length budget")

    def __len__(self) -> int:
        return self.budget


class Jumps:
    """Jump weights omega_x of a walk on a graph with degrees d_x, and the
    totals d_x + omega_x that are its visit weights.

    A step scales its uniform u by the total: the walker moves to neighbour
    floor(s) of its row when s = u (d_x + omega_x) < d_x, and jumps
    otherwise (the virtual jumper edge of weight omega_x).  At omega_x = 0
    that is a plain walk's pick from the same uniform.
    """

    def __init__(self, degrees: np.ndarray, omega: np.ndarray):
        self.omega = omega
        self.total = degrees + omega


@dataclass
class WalkBatch:
    """R walks of one budget run in lockstep.

    ``nodes[t, r]`` is visit t of walk r and ``flags[t, r]`` says whether a
    jump entered it; ``weight`` is the visit weight of every node and
    ``queries[r]`` walk r's query count.  ``len()`` and ``jumped`` count the
    visits and jumps of all walks together.
    """

    nodes: np.ndarray
    flags: np.ndarray
    weight: np.ndarray
    queries: list

    def __len__(self) -> int:
        return self.nodes.size

    @property
    def jumped(self) -> list:
        """Jump flags of every visit, walk by walk."""
        return self.flags.T.ravel().tolist()

    def trace(self, r: int) -> SampleTrace:
        nodes = self.nodes[:, r].copy()
        jumped = self.flags[:, r].tolist()
        return SampleTrace(nodes, self.weight[nodes], jumped, len(nodes), self.queries[r])


class WalkError(RuntimeError):
    """A walk of a lockstep batch cannot go on; ``replication`` is its
    column in the batch and ``reason`` names the node."""

    def __init__(self, replication: int, reason: str):
        super().__init__(f"replication {replication}: {reason}")
        self.replication = replication
        self.reason = reason


class _Uniforms:
    """One logical stream of each walk of a batch: k uniforms a step from
    the walk's own generator, drawn BLOCK_STEPS steps at a time.  A walk
    reads the same numbers whatever the batch size or block length."""

    def __init__(self, seeds, stream: int, k: int):
        self.gens = [spawn_generator(s, stream) for s in seeds]
        self.k = k

    def block(self, steps: int) -> np.ndarray:
        """(k, steps, R) array: [j, i, r] is walk r's j-th uniform at step i."""
        buf = np.empty((len(self.gens), steps, self.k))
        for gen, out in zip(self.gens, buf):
            gen.random(out=out)
        return buf.transpose(2, 1, 0).copy()


def _blocks(budget: int):
    """(first step, steps) of each block of steps 1..budget-1."""
    t = 1
    while t < budget:
        steps = min(BLOCK_STEPS, budget - t)
        yield t, steps
        t += steps


def _entries(indices: np.ndarray) -> np.ndarray:
    """CSR entries to pick from with ``take(mode="clip")``: a pick past its
    row (a jump's, or an empty row's) reads some valid id, which the step
    then discards or flags as an error."""
    return indices if len(indices) else np.zeros(1, dtype=np.int64)


def _batch_args(start, seed):
    """(starts as an int64 array, seeds as a list, whether one walk was asked)."""
    one = np.ndim(seed) == 0
    seeds = [seed] if one else list(seed)
    starts = np.array([start] if one else start, dtype=np.int64)
    if len(starts) != len(seeds):
        raise ValueError("need one start per seed")
    return starts, seeds, one


def _first_error(checks, states: dict):
    """Raise WalkError for the first (step, walk) flagged by any check.

    ``checks`` is a list of ((steps, R) masks, message template) in the
    order a round makes them; ``states`` maps each template field to the
    (steps, R) nodes it names.
    """
    flagged = checks[0][0].copy()
    for mask, _ in checks[1:]:
        flagged |= mask
    if not flagged.any():
        return
    t, r = np.unravel_index(np.argmax(flagged), flagged.shape)
    for mask, template in checks:
        if mask[t, r]:
            raise WalkError(int(r), template.format(**{k: v[t, r] for k, v in states.items()}))


def write_trace(trace: SampleTrace, path) -> None:
    """Export a trace as line-oriented records: step,node,weight,jumped."""
    rows = zip(trace.nodes.tolist(), trace.weights.tolist(), trace.jumped)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,node,weight,jumped\n")
        for i, (x, w, j) in enumerate(rows):
            fh.write(f"{i},{x},{w!r},{int(j)}\n")


def simple_rw_run(
    graph: Graph, budget: int, start, seed, *, stream: int = STREAM_TARGET
) -> SampleTrace | WalkBatch:
    """Uniform-neighbor random walk; visit weight is the node degree.

    ``start`` and ``seed`` are one walk's, giving its SampleTrace, or
    sequences of R walks', giving a WalkBatch of R walks run in lockstep.
    Step t sets x = indices[indptr[x] + floor(u_t d_x)] with u_t the walk's
    t-th uniform of ``stream``, so a walk embedded in a coupled run on the
    same stream is reproduced exactly.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    starts, seeds, one = _batch_args(start, seed)
    if ((starts < 0) | (starts >= graph.n)).any():
        raise ValueError("start node out of range")
    stuck = graph.degrees[starts] == 0
    if stuck.any():
        r = int(np.argmax(stuck))
        raise WalkError(r, f"absorbing node {starts[r]}: walk cannot leave it")
    deg = graph.degrees.astype(float)
    base, cols = graph.indptr, graph.indices
    nodes = np.empty((budget, len(seeds)), dtype=np.int64)
    nodes[0] = starts
    uniforms = _Uniforms(seeds, stream, 1)
    # every node entered has the edge it was entered by, so none is absorbing
    for t0, steps in _blocks(budget):
        u = uniforms.block(steps)[0]
        for i in range(steps):
            x = nodes[t0 + i - 1]
            cols.take(base[x] + (u[i] * deg[x]).astype(np.int64), mode="clip", out=nodes[t0 + i])
    batch = WalkBatch(nodes, np.zeros(nodes.shape, dtype=bool), deg, [budget] * len(seeds))
    return batch.trace(0) if one else batch


def rwt_vsa_run(
    hybrid: HybridNetwork,
    p: AuxDistribution,
    alpha: float,
    budget: int,
    start,
    seed,
    *,
    jumps: Jumps | None = None,
) -> SampleTrace | WalkBatch:
    """Random walk on the target graph with jumps through auxiliary vertex
    sampling.

    At each step the walker at x jumps with probability
    omega_x / (d_x + omega_x) where omega_x = alpha * q_x; a jump draws an
    auxiliary node from p and lands on a uniform affiliation neighbor of it,
    one query.  Otherwise the walker moves to a uniform target-graph
    neighbor.  Recorded visit weights are d_x + omega_x.  ``jumps`` is
    ``Jumps(target.degrees, alpha * compute_qu(hybrid, p))``, made here when
    not given; ``start`` and ``seed`` are as in simple_rw_run.

    Streams: the move takes one STREAM_TARGET uniform a step (see Jumps),
    so alpha = 0 gives simple_rw_run's trace; the landing takes two
    STREAM_AUX uniforms a step, the node of p and the neighbor.
    """
    target = hybrid.target
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    starts, seeds, one = _batch_args(start, seed)
    if ((starts < 0) | (starts >= target.n)).any():
        raise ValueError("start node out of range")
    if jumps is None:
        jumps = Jumps(target.degrees, alpha * compute_qu(hybrid, p))
    aff = hybrid.affiliation
    deg = target.degrees.astype(float)
    total = jumps.total
    base, cols = target.indptr, _entries(target.indices)
    nodes = np.empty((budget, len(seeds)), dtype=np.int64)
    nodes[0] = starts
    flags = np.zeros(nodes.shape, dtype=bool)
    moves = _Uniforms(seeds, STREAM_TARGET, 1)
    landings = _Uniforms(seeds, STREAM_AUX, 2)
    for t0, steps in _blocks(budget):
        u = moves.block(steps)[0]
        a = landings.block(steps)
        # compute_qu vetoes p-mass on unaffiliated nodes up front
        v = p.pick(a[0])
        land = aff.right_indices[aff.right_indptr[v] + (a[1] * aff.right_degrees[v]).astype(np.int64)]
        for i in range(steps):
            t = t0 + i
            x = nodes[t - 1]
            s = u[i] * total[x]
            np.greater_equal(s, deg[x], out=flags[t])
            cols.take(base[x] + s.astype(np.int64), mode="clip", out=nodes[t])
            np.copyto(nodes[t], land[i], where=flags[t])
        left = nodes[t0 - 1:t0 + steps - 1]
        _first_error(
            [(total[left] == 0.0,
              "absorbing node {x}; increase alpha or fix affiliation coverage")],
            {"x": left},
        )
    queries = (budget + flags.sum(axis=0)).tolist()
    batch = WalkBatch(nodes, flags, total, queries)
    return batch.trace(0) if one else batch


def stationary_rwt_vsa(hybrid: HybridNetwork, p: AuxDistribution, alpha: float) -> np.ndarray:
    """Stationary law of the jump-augmented target walk:
    pi_u = (d_u + alpha*q_u) / (2|E| + alpha)."""
    qu = compute_qu(hybrid, p)
    deg = hybrid.target.degrees.astype(float)
    return (deg + alpha * qu) / (hybrid.target.degree_sum + alpha)


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


@dataclass
class WeightSystem:
    """Jump weights and distributions for the coupled two-walk sampler.

    q is the desired jump-target distribution on the target side; omega and
    w are jumper-edge weights; q_prime is the distribution the affiliation
    machinery actually proposes, reconciled with q by the MH chain.
    ``target_jumps``/``aux_jumps`` hold omega and w with the walkers' visit
    weights (see Jumps).
    """

    q: np.ndarray
    omega: np.ndarray
    pi_u: np.ndarray
    w: np.ndarray
    pi_v: np.ndarray
    q_prime: np.ndarray
    target_jumps: Jumps
    aux_jumps: Jumps


def default_desired_distribution(hybrid: HybridNetwork) -> np.ndarray:
    """Uniform over target nodes that have affiliation edges, renormalized."""
    covered = hybrid.covered_targets()
    if not covered:
        raise ValueError("no target node has affiliation edges")
    q = np.zeros(hybrid.target.n)
    q[covered] = 1.0 / len(covered)
    return q


def fixed_weight_scheme(
    hybrid: HybridNetwork,
    alpha: float,
    beta: float,
    q: np.ndarray | None = None,
) -> WeightSystem:
    """Derive all coupled-walk quantities from a fixed desired distribution q:

        omega_u = alpha * q_u
        pi_u    = (d_u + omega_u) / (2|E| + alpha)
        w_v     = beta * sum_{u ~b v} pi_u / d_u_bip
        pi_v    = (d_v + w_v) / (2|E'| + beta)
        q'_u    = sum_{v ~b u} pi_v / d_v_bip

    q defaults to uniform over the affiliation-covered target nodes.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be >= 0")
    if q is None:
        q = default_desired_distribution(hybrid)
    q = np.asarray(q, dtype=float)
    if q.shape != (hybrid.target.n,):
        raise ValueError("q must have one entry per target node")
    if abs(float(q.sum()) - 1.0) > 1e-9:
        raise ValueError(f"q not normalized (sum={float(q.sum())!r})")
    aff = hybrid.affiliation
    stranded = (q != 0) & (aff.left_degrees == 0)
    if stranded.any():
        u = int(np.argmax(stranded))
        raise ValueError(
            f"q-mass on target node {u} with no affiliation edges; "
            "jumps cannot reach it"
        )

    deg_t = hybrid.target.degrees.astype(float)
    deg_a = hybrid.auxiliary.degrees.astype(float)
    two_e = float(hybrid.target.degree_sum)
    two_e_prime = float(hybrid.auxiliary.degree_sum)

    omega = alpha * q
    if two_e + alpha <= 0:
        raise ValueError("target graph has no edges and alpha=0; walk is degenerate")
    pi_u = (deg_t + omega) / (two_e + alpha)

    w = _spread(beta * pi_u, aff.left_degrees, aff.left_indices, hybrid.auxiliary.n)

    denom_v = two_e_prime + beta
    pi_v = (deg_a + w) / denom_v if denom_v > 0 else np.zeros(hybrid.auxiliary.n)

    q_prime = _spread(pi_v, aff.right_degrees, aff.right_indices, hybrid.target.n)

    return WeightSystem(
        q, omega, pi_u, w, pi_v, q_prime,
        Jumps(deg_t, omega), Jumps(deg_a, w),
    )


def closed_form_weights(hybrid: HybridNetwork, alpha: float, beta: float):
    """Solve the self-consistent jump-weight system exactly:

        omega = c' (I - c c' A Dv^-1 A^T Du^-1)^-1 A Dv^-1 (d_V + c A^T Du^-1 d_U)
        w     = c  (I - c c' A^T Du^-1 A Dv^-1)^-1 A^T Du^-1 (d_U + c' A Dv^-1 d_V)

    with c = beta/(2|E|+alpha), c' = alpha/(2|E'|+beta).  A is the affiliation
    adjacency matrix; Du, Dv are diagonal affiliation-degree matrices, with
    isolated nodes excluded from the inverses (their weight is zero).  Dense
    solve; intended as an oracle on small instances.
    """
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be >= 0")
    n, npr = hybrid.target.n, hybrid.auxiliary.n
    if n * npr > CLOSED_FORM_CELL_LIMIT:
        raise ValueError("closed-form solver is restricted to small instances")
    aff = hybrid.affiliation
    A = np.zeros((n, npr))
    A[np.repeat(np.arange(n), aff.left_degrees), aff.left_indices] = 1.0
    dbu = A.sum(axis=1)
    dbv = A.sum(axis=0)
    inv_u = np.where(dbu > 0, 1.0 / np.where(dbu > 0, dbu, 1.0), 0.0)
    inv_v = np.where(dbv > 0, 1.0 / np.where(dbv > 0, dbv, 1.0), 0.0)

    deg_t = hybrid.target.degrees.astype(float)
    deg_a = hybrid.auxiliary.degrees.astype(float)
    two_e = float(hybrid.target.degree_sum)
    two_e_prime = float(hybrid.auxiliary.degree_sum)
    c = beta / (two_e + alpha)
    cp = alpha / (two_e_prime + beta)

    B1 = A * inv_v[None, :]          # A Dv^-1       (n x n')
    B2 = A.T * inv_u[None, :]        # A^T Du^-1     (n' x n)

    lhs_u = np.eye(n) - c * cp * (B1 @ B2)
    rhs_u = cp * (B1 @ (deg_a + c * (B2 @ deg_t)))
    lhs_v = np.eye(npr) - c * cp * (B2 @ B1)
    rhs_v = c * (B2 @ (deg_t + cp * (B1 @ deg_a)))
    try:
        omega = np.linalg.solve(lhs_u, rhs_u)
        w = np.linalg.solve(lhs_v, rhs_v)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cc' < 1 in theory
        raise RuntimeError(
            "singular weight system: cond(target side)="
            f"{np.linalg.cond(lhs_u):.3e}, cond(auxiliary side)={np.linalg.cond(lhs_v):.3e}"
        ) from exc
    return omega, w


def mh_step(current: int, proposal: int, q, q_prime, u: float) -> int:
    """One Metropolis-Hastings accept/reject step, taking the proposal when
    its acceptance uniform u in [0, 1) falls below the acceptance ratio.

    q is the desired distribution, q_prime the proposal distribution.  The
    ratio min{1, q[prop] q'[cur] / (q[cur] q'[prop])} only uses ratios, so
    unnormalized vectors work.
    """
    qc = q[current]
    qpc = q_prime[current]
    if qc <= 0.0 or qpc <= 0.0:
        raise RuntimeError(
            f"chain mis-initialized: state {current} has zero desired or proposal mass"
        )
    qu = q[proposal]
    if qu <= 0.0:
        return current
    qpu = q_prime[proposal]
    if qpu <= 0.0:
        return proposal
    ratio = (qu * qpc) / (qc * qpu)
    if ratio >= 1.0 or u < ratio:
        return proposal
    return current


def mh_accept(current, proposal, u, q, q_prime) -> np.ndarray:
    """mh_step for arrays of states: whether each proposal is taken, given
    its uniform u in [0, 1).

    Every current state must have positive q and q' mass (the caller
    checks), and q, q' are nonnegative.  The ratio is mh_step's expression,
    so u < ratio is mh_step's test, and it also decides mh_step's two early
    returns: a proposal without q-mass gives ratio 0 (or nan, 0/0), never
    taken, and one with q-mass but no q'-mass gives inf, always taken.  Run
    it under ``np.errstate(divide="ignore", invalid="ignore")`` to silence
    those divisions.
    """
    ratio = (q[proposal] * q_prime[current]) / (q[current] * q_prime[proposal])
    return u < ratio


def run_mh_chain(q, q_prime, start: int, steps: int, seed) -> list:
    """Standalone MH chain with proposals drawn i.i.d. from q_prime.

    Returns the visited states x_1..x_steps (x_1 = start).  Step i reads
    the i-th pair of STREAM_MH uniforms: the proposal, the first node whose
    cumulative q' mass exceeds u * sum(q') (never one without mass), and
    the acceptance uniform.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    cum = np.cumsum(np.asarray(q_prime, dtype=float))
    if not cum[-1] > 0:
        raise ValueError("proposal distribution has no mass")
    u = spawn_generator(seed, STREAM_MH).random((steps - 1, 2))
    proposals = np.searchsorted(cum, u[:, 0] * cum[-1], side="right").tolist()
    # Python lists: the chain indexes one scalar at a time
    q = np.asarray(q, dtype=float).tolist()
    qp = np.asarray(q_prime, dtype=float).tolist()
    x = start
    out = [x]
    for proposal, accept_u in zip(proposals, u[:, 1].tolist()):
        x = mh_step(x, proposal, q, qp, accept_u)
        out.append(x)
    return out


@dataclass
class RwtRwaDetail:
    """Side-channel record of a coupled run: companion chain paths (flat,
    walk by walk) and the count of auxiliary jumps that fell back to a
    walking move because the target walker had no affiliation edges."""

    aux_nodes: list = field(default_factory=list)
    mh_nodes: list = field(default_factory=list)
    fallback_jumps: int = 0


def rwt_rwa_run(
    hybrid: HybridNetwork,
    ws: WeightSystem,
    budget: int,
    starts,
    seed,
    *,
    detail: RwtRwaDetail | None = None,
) -> SampleTrace | WalkBatch:
    """Coupled run of three chains advancing in lockstep, with the jump
    weights and distributions of ``ws`` (see fixed_weight_scheme).

    Per round, from (x_i, x'_i, y_i):

    1. MH chain: propose a uniform affiliation neighbor of y_i and
       accept/reject against (q, q'), giving x'_{i+1}.
    2. Auxiliary walk: with probability w_y/(d_y + w_y) jump to a uniform
       affiliation neighbor of x_i (falling back to a walking move if x_i
       has none), else move to a uniform auxiliary-graph neighbor.
    3. Target walk: with probability omega_x/(d_x + omega_x) jump to
       x'_{i+1}, else move to a uniform target-graph neighbor.

    The trace records target visits with weights d_x + omega_x.  ``starts``
    and ``seed`` are one walk's (x, x', y) and seed, giving a SampleTrace,
    or sequences of R walks', giving a WalkBatch run in lockstep.  With
    ``detail`` the auxiliary and MH paths are appended to it walk by walk.

    Streams, each read the same number of times in every round: the MH
    step takes two STREAM_MH uniforms (proposal, acceptance); each walk
    takes one uniform of its own stream for its move (see Jumps), so at
    alpha = beta = 0 both walks are simple_rw_run's; the auxiliary jump's
    landing, or its fallback move, takes one STREAM_AUX_JUMP uniform.
    """
    target, aux, aff = hybrid.target, hybrid.auxiliary, hybrid.affiliation
    if budget < 1:
        raise ValueError("budget must be >= 1")
    triples, seeds, one = _batch_args(starts, seed)
    if triples.ndim != 2 or triples.shape[1] != 3:
        raise ValueError("starts must be (x, x', y) triples")
    x0, xp, y = triples.T.copy()
    if ((x0 < 0) | (x0 >= target.n) | (xp < 0) | (xp >= target.n) | (y < 0) | (y >= aux.n)).any():
        raise ValueError("start nodes out of range")
    q, q_prime = ws.q, ws.q_prime
    bad_mass = (q <= 0.0) | (q_prime <= 0.0)
    if bad_mass[xp].any():
        r = int(np.argmax(bad_mass[xp]))
        raise WalkError(
            r, f"chain mis-initialized: MH start {xp[r]} has zero desired or proposal mass"
        )

    t_deg, a_deg = target.degrees.astype(float), aux.degrees.astype(float)
    l_deg, r_deg = aff.left_degrees.astype(float), aff.right_degrees.astype(float)
    no_venue, has_users = aff.left_degrees == 0, aff.right_degrees > 0
    t_total, a_total = ws.target_jumps.total, ws.aux_jumps.total
    walks = len(seeds)
    # A round makes five picks k, each the entry floor(s_k) of a row, with
    # s_k = u_k * scale: the MH proposal (right row of y), the auxiliary
    # move (auxiliary row of y, scaled by d + w), the venue (left row of x),
    # the fallback move (auxiliary row of y) and the target move (target
    # row of x, scaled by d + omega).  Their rows share the tables scale,
    # deg and base at offsets[k] + node; a move with s_k >= d_k is a jump.
    n_t, n_a = target.n, aux.n
    offsets = np.repeat(np.cumsum([0, n_a, n_a, n_t, n_a])[:, None], walks, axis=1)
    of_node = np.array([0, 0, 1, 0, 1])  # each pick's row is of y or of x
    scale = np.concatenate((r_deg, a_total, l_deg, a_deg, t_total))
    deg = np.concatenate((r_deg, a_deg, l_deg, a_deg, t_deg))
    base = np.concatenate((aff.right_indptr[:-1], aux.indptr[:-1], aff.left_indptr[:-1],
                           aux.indptr[:-1], target.indptr[:-1]))
    r_cols, a_cols = _entries(aff.right_indices), _entries(aux.indices)
    l_cols, t_cols = _entries(aff.left_indices), _entries(target.indices)
    nodes = np.empty((budget, walks), dtype=np.int64)
    nodes[0] = x0
    flags = np.zeros(nodes.shape, dtype=bool)
    mh_u = _Uniforms(seeds, STREAM_MH, 2)
    aux_u = _Uniforms(seeds, STREAM_AUX, 1)
    land_u = _Uniforms(seeds, STREAM_AUX_JUMP, 1)
    move_u = _Uniforms(seeds, STREAM_TARGET, 1)
    state = np.stack((y, x0, xp))  # (y, x, x') of every walk
    aux_path, mh_path, fallbacks = [y[None]], [xp[None]], 0
    # a zero-mass MH proposal divides by zero (see mh_accept)
    with np.errstate(divide="ignore", invalid="ignore"):
        for t0, steps in _blocks(budget):
            m = mh_u.block(steps)
            uj = land_u.block(steps)[0]
            u = np.stack((m[0], aux_u.block(steps)[0], uj, uj, move_u.block(steps)[0]), axis=1)
            # states[i]: (y, x, x') entering round t0 + i; jumped[i]: s_k >= d_k
            states = np.empty((steps + 1, 3, walks), dtype=np.int64)
            states[0] = state
            jumped = np.empty((steps, 5, walks), dtype=bool)
            for i in range(steps):
                y, x, xp = states[i, 0], states[i, 1], states[i, 2]
                y_next, x_next, xp_next = states[i + 1, 0], states[i + 1, 1], states[i + 1, 2]
                rows = states[i].take(of_node, axis=0)
                rows += offsets
                s = u[i] * scale[rows]
                d = deg[rows]
                jump = np.greater_equal(s, d, out=jumped[i])
                pos = base[rows] + s.astype(np.int64)
                # MH chain fed by the auxiliary walker's affiliation neighbors
                proposal = r_cols.take(pos[0], mode="clip")
                accept = mh_accept(xp, proposal, m[1, i], q, q_prime)
                accept &= has_users[y]
                xp_next[:] = xp
                np.copyto(xp_next, proposal, where=accept)
                # auxiliary walk, jumping through the target walker's
                # affiliations, or walking when it has none
                a_cols.take(pos[1], mode="clip", out=y_next)
                land = l_cols.take(pos[2], mode="clip")
                np.copyto(land, a_cols.take(pos[3], mode="clip"), where=no_venue[x])
                np.copyto(y_next, land, where=jump[1])
                # target walk jumping to the fresh MH sample
                t_cols.take(pos[4], mode="clip", out=x_next)
                np.copyto(x_next, xp_next, where=jump[4])
            state = states[-1]
            nodes[t0:t0 + steps] = states[1:, 1]
            flags[t0:t0 + steps] = jumped[:, 4]
            ys, xs, xps = states[:-1, 0], states[:-1, 1], states[:-1, 2]
            _first_error(
                [
                    (has_users[ys] & bad_mass[xps],
                     "chain mis-initialized: state {xp} has zero desired or proposal mass"),
                    (a_total[ys] == 0.0, "auxiliary chain absorbed at node {y}"),
                    ((a_deg[ys] == 0.0) & no_venue[xs],
                     "auxiliary chain absorbed: node {y} has no neighbors and the "
                     "target walker at {x} has no affiliation edges to jump through"),
                    (t_total[xs] == 0.0,
                     "absorbing node {x}; increase alpha or fix affiliation coverage"),
                ],
                {"x": xs, "xp": xps, "y": ys},
            )
            fallbacks += int(np.count_nonzero(jumped[:, 1] & no_venue[xs]))
            if detail is not None:
                aux_path.append(states[1:, 0])
                mh_path.append(states[1:, 2])
    if detail is not None:
        detail.aux_nodes.extend(np.concatenate(aux_path).T.ravel().tolist())
        detail.mh_nodes.extend(np.concatenate(mh_path).T.ravel().tolist())
        detail.fallback_jumps += fallbacks
    batch = WalkBatch(nodes, flags, t_total, [2 * budget] * len(seeds))
    return batch.trace(0) if one else batch
