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
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .graphs import Graph, HybridNetwork
from .seeds import STREAM_AUX, STREAM_MH, STREAM_TARGET, spawn_rng

KERNEL_SIZE_LIMIT = 2000
CLOSED_FORM_CELL_LIMIT = 4_000_000


class AuxDistribution:
    """Sampling distribution over auxiliary nodes.

    Either uniform over all n' nodes or an explicit probability vector.
    """

    def __init__(self, n: int, probs=None):
        if n <= 0:
            raise ValueError("auxiliary graph must be nonempty")
        self.n = n
        if probs is None:
            self.probs = None
            self._cum = None
        else:
            probs = [float(p) for p in probs]
            if len(probs) != n:
                raise ValueError("probability vector length must equal n'")
            if any(p < 0 for p in probs):
                raise ValueError("probabilities must be nonnegative")
            # fsum: a naive sum of ~1e5 equal shares misses 1 by ~2e-12
            total = math.fsum(probs)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"probabilities not normalized (sum={total!r})")
            self.probs = probs
            self._cum = list(accumulate(probs))
            self._cum[-1] = 1.0

    @classmethod
    def uniform(cls, n: int) -> "AuxDistribution":
        return cls(n)

    @classmethod
    def explicit(cls, probs) -> "AuxDistribution":
        return cls(len(probs), probs)

    @classmethod
    def uniform_over(cls, n: int, support) -> "AuxDistribution":
        """Uniform over a subset of auxiliary nodes, zero elsewhere."""
        support = sorted(set(support))
        if not support:
            raise ValueError("support must be nonempty")
        for v in (support[0], support[-1]):
            if not 0 <= v < n:
                raise ValueError(f"support id {v} out of range for n'={n}")
        probs = [0.0] * n
        share = 1.0 / len(support)
        for v in support:
            probs[v] = share
        return cls(n, probs)

    def prob(self, v: int) -> float:
        if self.probs is None:
            return 1.0 / self.n
        return self.probs[v]

    def sample(self, rng) -> int:
        if self.probs is None:
            return rng.randrange(self.n)
        return bisect_left(self._cum, rng.random())

    def draw(self, rng) -> tuple:
        """(node, p_node, cost) for vs_a_collect; one query per draw."""
        v = self.sample(rng)
        return v, self.prob(v), 1


@dataclass
class VsaDraw:
    venue: int
    p: float
    neighbors: tuple


@dataclass
class VsaSample:
    """Independent auxiliary-node draws with their harvested neighbor lists.

    ``bip_degree`` maps each harvested target node to its affiliation degree
    as recorded at collection time, so estimation does not need the network.
    """

    draws: list
    bip_degree: dict
    query_count: int

    @property
    def b_prime(self) -> int:
        return len(self.draws)

    @property
    def harvested(self) -> int:
        return sum(len(d.neighbors) for d in self.draws)


def vs_a_collect(hybrid: HybridNetwork, source, b_prime: int, seed) -> VsaSample:
    """B' i.i.d. auxiliary draws; each draw records the drawn node's full
    affiliation neighbor list (empty for unaffiliated nodes, which add zero
    to the estimators).  ``source.draw(rng)`` gives (v, p_v, cost): an
    AuxDistribution costs one query a draw, a ``geo.ZoomInSource`` its API
    calls; ``query_count`` sums the costs.
    """
    if b_prime < 1:
        raise ValueError("b_prime must be >= 1")
    n_aux = hybrid.auxiliary.n
    if getattr(source, "n", n_aux) != n_aux:  # only sized sources can be checked up front
        raise ValueError("distribution size must match auxiliary graph")
    rng = spawn_rng(seed, STREAM_AUX)
    right = hybrid.affiliation.right_adj
    left = hybrid.affiliation.left_adj
    draws = []
    degrees: dict = {}
    queries = 0
    for _ in range(b_prime):
        v, p, cost = source.draw(rng)
        queries += cost
        if not 0 <= v < n_aux:
            raise ValueError(f"venue id {v} is not an auxiliary node")
        nbrs = right[v]
        draws.append(VsaDraw(v, p, nbrs))
        for u in nbrs:
            if u not in degrees:
                degrees[u] = len(left[u])
    return VsaSample(draws, degrees, query_count=queries)


def compute_qu(hybrid: HybridNetwork, p: AuxDistribution) -> np.ndarray:
    """Jump-target distribution induced by auxiliary vertex sampling followed
    by a uniform affiliation-neighbor step:

        q_u = sum over affiliated v of p_v / d_v_bip.

    Sums to 1 whenever every node carrying p-mass has affiliation edges.
    """
    aff = hybrid.affiliation
    if p.n != aff.n_right:
        raise ValueError("distribution size must match auxiliary graph")
    pv = np.full(p.n, 1.0 / p.n) if p.probs is None else np.array(p.probs)
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
    """Jump weights omega_x of a walk on a graph with degrees d_x.

    ``prob`` holds the jump probabilities omega_x / (d_x + omega_x), 0.0
    where omega_x = 0, as Python floats: the walk loops read one at every
    step, and a list item is read several times faster than a numpy scalar
    and holds the same IEEE value as dividing at each step.  The list costs
    a few ms per 100k nodes, so build it once per experiment, not per walk.
    """

    def __init__(self, degrees: np.ndarray, omega: np.ndarray):
        self.omega = omega
        self.prob = np.divide(
            omega, degrees + omega, out=np.zeros(len(omega)), where=omega > 0
        ).tolist()


def write_trace(trace: SampleTrace, path) -> None:
    """Export a trace as line-oriented records: step,node,weight,jumped."""
    rows = zip(trace.nodes.tolist(), trace.weights.tolist(), trace.jumped)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,node,weight,jumped\n")
        for i, (x, w, j) in enumerate(rows):
            fh.write(f"{i},{x},{w!r},{int(j)}\n")


def simple_rw_run(graph: Graph, budget: int, start: int, seed, *, stream: int = STREAM_TARGET) -> SampleTrace:
    """Uniform-neighbor random walk; visit weight is the node degree.

    ``stream`` selects the derived RNG stream so that walks embedded in
    coupled runs can be reproduced exactly.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not 0 <= start < graph.n:
        raise ValueError("start node out of range")
    adj = graph.adj
    if not adj[start]:
        raise RuntimeError(f"absorbing node {start}: walk cannot leave it")
    randrange = spawn_rng(seed, stream).randrange
    path = [start]
    visit = path.append
    x = start
    for _ in range(budget - 1):
        row = adj[x]
        x = row[randrange(len(row))]
        visit(x)
    # every node entered has the edge it was entered by, so none is absorbing
    nodes = np.array(path, dtype=np.int64)
    return SampleTrace(nodes, graph.degrees[nodes].astype(float), [False] * budget, budget, budget)


def rwt_vsa_run(
    hybrid: HybridNetwork,
    p: AuxDistribution,
    alpha: float,
    budget: int,
    start: int,
    seed,
    *,
    jumps: Jumps | None = None,
) -> SampleTrace:
    """Random walk on the target graph with jumps through auxiliary vertex
    sampling.

    At each step the walker at x jumps with probability
    omega_x / (d_x + omega_x) where omega_x = alpha * q_x; a jump draws an
    auxiliary node from p and lands on a uniform affiliation neighbor of it.
    Otherwise the walker moves to a uniform target-graph neighbor.  Recorded
    visit weights are d_x + omega_x.  ``jumps`` is
    ``Jumps(target.degrees, alpha * compute_qu(hybrid, p))``, made here when
    not given.
    """
    target = hybrid.target
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not 0 <= start < target.n:
        raise ValueError("start node out of range")
    if jumps is None:
        jumps = Jumps(target.degrees, alpha * compute_qu(hybrid, p))
    jump = jumps.prob

    adj = target.adj
    right = hybrid.affiliation.right_adj
    rng_t = spawn_rng(seed, STREAM_TARGET)
    rng_a = spawn_rng(seed, STREAM_AUX)

    path = [start]
    jumped = [False] * budget
    aux_queries = 0
    x = start
    for i in range(1, budget):
        jx = jump[x]
        if jx > 0.0 and rng_t.random() < jx:
            v = p.sample(rng_a)
            users = right[v]
            aux_queries += 1
            # compute_qu vetoes p-mass on unaffiliated nodes up front
            x = users[rng_a.randrange(len(users))]
            jumped[i] = True
        else:
            row = adj[x]
            if not row:
                raise RuntimeError(
                    f"absorbing node {x}; increase alpha or fix affiliation coverage"
                )
            x = row[rng_t.randrange(len(row))]
        path.append(x)
    nodes = np.array(path, dtype=np.int64)
    weights = target.degrees[nodes] + jumps.omega[nodes]
    return SampleTrace(nodes, weights, jumped, budget, budget + aux_queries)


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
    ``target_jumps``/``aux_jumps`` hold omega and w with the walkers' jump
    probabilities, and ``q_lists`` is (q, q_prime) as lists of Python floats
    for the MH step of every round (see Jumps).
    """

    q: np.ndarray
    omega: np.ndarray
    pi_u: np.ndarray
    w: np.ndarray
    pi_v: np.ndarray
    q_prime: np.ndarray
    target_jumps: Jumps
    aux_jumps: Jumps
    q_lists: tuple[list, list]


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
        Jumps(deg_t, omega), Jumps(deg_a, w), (q.tolist(), q_prime.tolist()),
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


def mh_step(current: int, proposal: int, q, q_prime, rng) -> int:
    """One Metropolis-Hastings accept/reject step.

    q is the desired distribution, q_prime the proposal distribution.  The
    acceptance ratio min{1, q[u] q'[cur] / (q[cur] q'[u])} only uses ratios,
    so unnormalized vectors work.
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
    if ratio >= 1.0 or rng.random() < ratio:
        return proposal
    return current


def run_mh_chain(q, q_prime, start: int, steps: int, seed) -> list:
    """Standalone MH chain with proposals drawn i.i.d. from q_prime.

    Returns the visited states x_1..x_steps (x_1 = start).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    q = np.asarray(q, dtype=float)
    qp = np.asarray(q_prime, dtype=float)
    total = float(qp.sum())
    if total <= 0:
        raise ValueError("proposal distribution has no mass")
    cum = list(accumulate(float(x) / total for x in qp))
    cum[-1] = 1.0
    rng = spawn_rng(seed, STREAM_MH)
    x = start
    out = [x]
    for _ in range(steps - 1):
        u = bisect_left(cum, rng.random())
        x = mh_step(x, u, q, qp, rng)
        out.append(x)
    return out


@dataclass
class RwtRwaDetail:
    """Side-channel record of a coupled run: companion chain paths and the
    count of auxiliary jumps that fell back to a walking move because the
    target walker had no affiliation edges."""

    aux_nodes: list = field(default_factory=list)
    mh_nodes: list = field(default_factory=list)
    fallback_jumps: int = 0


def rwt_rwa_run(
    hybrid: HybridNetwork,
    ws: WeightSystem,
    budget: int,
    starts: tuple,
    seed,
    *,
    detail: RwtRwaDetail | None = None,
) -> SampleTrace:
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

    The trace records target visits with weights d_x + omega_x.
    """
    target, aux, aff = hybrid.target, hybrid.auxiliary, hybrid.affiliation
    if budget < 1:
        raise ValueError("budget must be >= 1")
    x, xp, y = starts
    if not (0 <= x < target.n and 0 <= xp < target.n and 0 <= y < aux.n):
        raise ValueError("start nodes out of range")
    if ws.q[xp] <= 0.0 or ws.q_prime[xp] <= 0.0:
        raise RuntimeError(
            f"chain mis-initialized: MH start {xp} has zero desired or proposal mass"
        )

    t_adj = target.adj
    a_adj = aux.adj
    left = aff.left_adj
    right = aff.right_adj
    jump_t = ws.target_jumps.prob
    jump_a = ws.aux_jumps.prob
    q, q_prime = ws.q_lists
    rng_t = spawn_rng(seed, STREAM_TARGET)
    rng_m = spawn_rng(seed, STREAM_MH)
    rng_a = spawn_rng(seed, STREAM_AUX)

    path = [x]
    jumped = [False] * budget
    if detail is not None:
        detail.aux_nodes.append(y)
        detail.mh_nodes.append(xp)

    for i in range(1, budget):
        # MH chain fed by the auxiliary walker's affiliation neighbors.
        users = right[y]
        if users:
            proposal = users[rng_m.randrange(len(users))]
            xp = mh_step(xp, proposal, q, q_prime, rng_m)

        # Auxiliary walk with jumps through the target walker's affiliations.
        a_row = a_adj[y]
        jy = jump_a[y]
        if not a_row and jy == 0.0:
            raise RuntimeError(f"auxiliary chain absorbed at node {y}")
        if jy > 0.0 and rng_a.random() < jy:
            venues = left[x]
            if venues:
                y = venues[rng_a.randrange(len(venues))]
            elif a_row:
                if detail is not None:
                    detail.fallback_jumps += 1
                y = a_row[rng_a.randrange(len(a_row))]
            else:
                raise RuntimeError(
                    f"auxiliary chain absorbed: node {y} has no neighbors and the "
                    f"target walker at {x} has no affiliation edges to jump through"
                )
        else:
            y = a_row[rng_a.randrange(len(a_row))]

        # Target walk jumping to the fresh MH sample.
        t_row = t_adj[x]
        jx = jump_t[x]
        if not t_row and jx == 0.0:
            raise RuntimeError(
                f"absorbing node {x}; increase alpha or fix affiliation coverage"
            )
        if jx > 0.0 and rng_t.random() < jx:
            x = xp
            jumped[i] = True
        else:
            x = t_row[rng_t.randrange(len(t_row))]
        path.append(x)

        if detail is not None:
            detail.aux_nodes.append(y)
            detail.mh_nodes.append(xp)

    nodes = np.array(path, dtype=np.int64)
    return SampleTrace(nodes, target.degrees[nodes] + ws.omega[nodes], jumped, budget, 2 * budget)
