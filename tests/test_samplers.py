import hashlib
import random

import numpy as np
import pytest

from helpers import (
    csr_rows,
    left_stationary,
    pair_hybrid,
    random_hybrid,
    two_user_hybrid,
)
from hybridsample import samplers
from hybridsample.graphs import BipartiteGraph, Graph, HybridNetwork
from hybridsample.samplers import (
    AuxDistribution,
    RwtRwaDetail,
    WalkError,
    closed_form_weights,
    compute_qu,
    default_desired_distribution,
    fixed_weight_scheme,
    harvest,
    mh_accept,
    mh_step,
    run_mh_chain,
    rwt_rwa_run,
    rwt_vsa_run,
    rwt_vsa_transition_matrix,
    simple_rw_run,
    stationary_rwt_vsa,
    vs_a_collect,
    write_trace,
)
from hybridsample.seeds import STREAM_AUX, spawn_generator
from hybridsample.synth import SynthConfig, build_synthetic_hybrid


def small_synthetic(n=12, extra=10, seed=3):
    return build_synthetic_hybrid(
        SynthConfig(n_per_graph=n, m1=2, m2=3, m3=4, extra_pairs=extra, seed=seed)
    )


def covered_uniform(h):
    """Uniform p over the auxiliary nodes that have affiliation edges, the
    support a jump needs; a small synthetic network may leave some uncovered."""
    return AuxDistribution.uniform_over(h.auxiliary.n, np.flatnonzero(h.affiliation.right_degrees).tolist())


# ---------------------------------------------------------------- AuxDistribution


def test_aux_distribution_validation():
    with pytest.raises(ValueError, match="not normalized"):
        AuxDistribution.explicit([0.5, 0.4])
    with pytest.raises(ValueError, match="nonnegative"):
        AuxDistribution.explicit([1.5, -0.5])
    d = AuxDistribution.explicit([0.25, 0.75])
    assert d.probs[1] == 0.75
    assert AuxDistribution.uniform(4).probs[2] == 0.25


def test_aux_distribution_sampling_frequencies():
    # dyadic p and the midpoints of N = 2^10 equal cells of [0, 1): pick gives
    # each node exactly N p_v of the uniforms and a node without mass none,
    # through the cumulative search and through the equal-mass shortcut
    n_cells = 1024
    u = (np.arange(n_cells) + 0.5) / n_cells
    for probs in ([0.125, 0.5, 0.0, 0.375], [0.25, 0.0, 0.25, 0.25, 0.25], [0.5, 0.5]):
        d = AuxDistribution.explicit(probs)
        counts = np.bincount(d.pick(u), minlength=len(probs))
        assert counts.tolist() == [n_cells * p for p in probs]


# ---------------------------------------------------------------- compute_qu


def test_compute_qu_symmetric_pair():
    h = HybridNetwork(Graph(2, [(0, 1)]), Graph(1, []), BipartiteGraph(2, 1, [(0, 0), (1, 0)]))
    q = compute_qu(h, AuxDistribution.explicit([1.0]))
    assert q.tolist() == [0.5, 0.5]


def test_compute_qu_uncovered_user_gets_zero():
    h = HybridNetwork(Graph(2, [(0, 1)]), Graph(1, []), BipartiteGraph(2, 1, [(0, 0)]))
    q = compute_qu(h, AuxDistribution.explicit([1.0]))
    assert q.tolist() == [1.0, 0.0]


def test_compute_qu_sums_to_one_on_synthetic():
    h = small_synthetic(40, 60, seed=8)
    support = np.flatnonzero(h.affiliation.right_degrees)
    p = AuxDistribution.uniform_over(h.auxiliary.n, support)
    q = compute_qu(h, p)
    assert abs(q.sum() - 1.0) <= 1e-12


def test_compute_qu_unreachable_mass():
    h = HybridNetwork(Graph(2, [(0, 1)]), Graph(2, []), BipartiteGraph(2, 2, [(0, 0), (1, 0)]))
    with pytest.raises(ValueError, match="unreachable probability mass"):
        compute_qu(h, AuxDistribution.uniform(2))


def test_uniform_over_accepts_its_own_output_at_scale():
    # a naive sum of 99,991 equal shares misses 1 by more than 1e-12
    n = 99_991
    share = 1.0 / n
    assert abs(sum([share] * n) - 1.0) > 1e-12
    d = AuxDistribution.uniform_over(n, range(n))
    assert d.probs[0] == d.probs[n - 1] == share


@pytest.mark.parametrize("bad", [-1, 7])
def test_uniform_over_rejects_ids_outside_range(bad):
    with pytest.raises(ValueError, match=f"support id {bad} out of range"):
        AuxDistribution.uniform_over(5, [0, bad])


# ---------------------------------------------------------------- vs_a_collect


def test_vsa_collect_full_venue():
    n = 5
    h = HybridNetwork(
        Graph(n, [(0, 1)]), Graph(1, []), BipartiteGraph(n, 1, [(u, 0) for u in range(n)])
    )
    sample = vs_a_collect(h, AuxDistribution.explicit([1.0]), 3, seed=1)
    assert sample.b_prime == 3
    assert sample.offsets.tolist() == [0, n, 2 * n, 3 * n]
    assert sample.users.tolist() == list(range(n)) * 3
    assert sample.p.tolist() == [1.0] * 3
    assert sample.harvested == 15
    assert sample.query_count == 3


def test_vsa_collect_isolated_venue_draw_kept():
    h = HybridNetwork(Graph(1, []), Graph(1, []), BipartiteGraph(1, 1, []))
    sample = vs_a_collect(h, AuxDistribution.uniform(1), 2, seed=0)
    assert sample.b_prime == 2
    assert sample.offsets.tolist() == [0, 0, 0]


def test_vsa_collect_reaches_exactly_covered_nodes():
    h = small_synthetic(30, 40, seed=6)
    aff = h.affiliation
    sample = vs_a_collect(h, AuxDistribution.uniform(h.auxiliary.n), 4000, seed=2)
    reached = set(sample.users.tolist())
    covered = set(np.flatnonzero(aff.left_degrees).tolist())
    assert reached <= covered
    assert reached == covered  # 4000 draws on a 30-venue graph hit everything
    # each draw harvests its node's affiliation row, with the users' degrees
    left = csr_rows(aff.left_indptr, aff.left_indices)
    right = csr_rows(aff.right_indptr, aff.right_indices)
    offsets = sample.offsets.tolist()
    for i, v in enumerate(sample.venues.tolist()):
        assert tuple(sample.users[offsets[i]:offsets[i + 1]].tolist()) == right[v]
    for u, d in zip(sample.users.tolist(), sample.degrees.tolist()):
        assert d == len(left[u])


def test_vsa_collect_deterministic():
    h = small_synthetic()
    a = vs_a_collect(h, AuxDistribution.uniform(h.auxiliary.n), 50, seed=9)
    b = vs_a_collect(h, AuxDistribution.uniform(h.auxiliary.n), 50, seed=9)
    assert a.venues.tolist() == b.venues.tolist()


def test_vsa_collect_reads_one_aux_uniform_a_draw():
    h = small_synthetic(30, 40, seed=6)
    p = covered_uniform(h)
    sample = vs_a_collect(h, p, 300, seed=11)
    venues = p.pick(spawn_generator(11, STREAM_AUX).random(300))
    assert sample.venues.tolist() == venues.tolist()
    assert sample.p.tolist() == p.probs[venues].tolist()


def test_harvest_rejects_bad_draws():
    aff = BipartiteGraph(2, 2, [(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="venue id 2 is not an auxiliary node"):
        harvest(aff, [0, 2], [0.5, 0.5], 2)
    with pytest.raises(ValueError, match="venue 1 with nonpositive probability 0.0"):
        harvest(aff, [0, 1], [0.5, 0.0], 2)


# ---------------------------------------------------------------- simple walk


def test_simple_rw_path_transition_probabilities():
    g = Graph(3, [(0, 1), (1, 2)])
    trace = simple_rw_run(g, 40_001, 1, seed=3)
    nxt = [trace.nodes[i + 1] for i in range(len(trace) - 1) if trace.nodes[i] == 1]
    frac0 = nxt.count(0) / len(nxt)
    assert set(nxt) <= {0, 2}
    assert frac0 == pytest.approx(0.5, abs=0.02)


def test_simple_rw_cycle_uniform():
    n = 11
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    trace = simple_rw_run(g, 10**6, 0, seed=4)
    freq = np.bincount(trace.nodes, minlength=n) / len(trace)
    assert np.abs(freq - 1.0 / n).max() < 0.01


def test_simple_rw_degree_stationary_law():
    rng = random.Random(12)
    from helpers import random_connected_graph

    g = random_connected_graph(rng, 40, 80)
    trace = simple_rw_run(g, 10**6, 0, seed=7)
    freq = np.bincount(trace.nodes, minlength=g.n) / len(trace)
    pi = np.array([g.degree(u) for u in range(g.n)]) / g.degree_sum
    assert np.abs(freq - pi).max() < 0.01


def test_simple_rw_absorbing_error():
    g = Graph(3, [(0, 1)])
    with pytest.raises(RuntimeError, match="absorbing"):
        simple_rw_run(g, 10, 2, seed=0)


# ---------------------------------------------------------------- rwt_vsa


def test_rwt_vsa_alpha_zero_equals_simple_rw():
    h = small_synthetic()
    p = covered_uniform(h)
    a = rwt_vsa_run(h, p, 0.0, 5000, 5, seed=42)
    b = simple_rw_run(h.target, 5000, 5, seed=42)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)
    assert not any(a.jumped)


def test_rwt_vsa_empirical_stationarity_four_nodes():
    target = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    aux = Graph(2, [(0, 1)])
    aff = BipartiteGraph(4, 2, [(0, 0), (1, 0), (2, 1), (3, 1), (0, 1)])
    h = HybridNetwork(target, aux, aff)
    p = AuxDistribution.uniform(2)
    trace = rwt_vsa_run(h, p, 1.0, 10**6, 0, seed=13)
    freq = np.bincount(trace.nodes, minlength=4) / len(trace)
    pi = stationary_rwt_vsa(h, p, 1.0)
    assert np.abs(freq - pi).max() < 0.01
    assert trace.query_count == trace.budget + sum(trace.jumped)


def test_rwt_vsa_absorbing_error():
    target = Graph(3, [(0, 1)])
    aux = Graph(1, [])
    aff = BipartiteGraph(3, 1, [(0, 0), (1, 0)])  # node 2 uncovered and isolated
    h = HybridNetwork(target, aux, aff)
    with pytest.raises(RuntimeError, match="absorbing node"):
        rwt_vsa_run(h, AuxDistribution.uniform(1), 1.0, 10, 2, seed=0)


# ---------------------------------------------------------------- stationary law


def test_stationary_alpha_zero_is_degree_law():
    h = small_synthetic()
    p = covered_uniform(h)
    pi = stationary_rwt_vsa(h, p, 0.0)
    deg = np.array([h.target.degree(u) for u in range(h.target.n)], dtype=float)
    assert np.allclose(pi, deg / h.target.degree_sum)


def test_stationary_regular_graph_uniform_q():
    n = 6
    target = Graph(n, [(i, (i + 1) % n) for i in range(n)])  # 2-regular
    aux = Graph(1, [])
    aff = BipartiteGraph(n, 1, [(u, 0) for u in range(n)])
    h = HybridNetwork(target, aux, aff)
    pi = stationary_rwt_vsa(h, AuxDistribution.explicit([1.0]), 3.0)
    assert np.allclose(pi, 1.0 / n)


def test_stationary_matches_eigenvector_of_kernel():
    rng = random.Random(2)
    h = random_hybrid(rng, 15, 6)
    p = AuxDistribution.uniform(h.auxiliary.n)
    for alpha in (0.5, 2.0):
        P = rwt_vsa_transition_matrix(h, p, alpha)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
        pi_eig = left_stationary(P)
        pi = stationary_rwt_vsa(h, p, alpha)
        assert np.abs(pi_eig - pi).max() < 1e-10


def test_detailed_balance_small_hybrids():
    rng = random.Random(77)
    for _ in range(3):
        h = random_hybrid(rng, rng.randrange(5, 30), rng.randrange(3, 10))
        p = AuxDistribution.uniform(h.auxiliary.n)
        for alpha in (0.1, 1.0, 10.0):
            P = rwt_vsa_transition_matrix(h, p, alpha)
            pi = stationary_rwt_vsa(h, p, alpha)
            F = pi[:, None] * P
            assert np.abs(F - F.T).max() < 1e-10


# ---------------------------------------------------------------- weights


def test_fixed_weight_scheme_beta_zero():
    h = small_synthetic()
    ws = fixed_weight_scheme(h, 1.0, 0.0)
    assert np.all(ws.w == 0.0)
    deg = np.array([h.auxiliary.degree(v) for v in range(h.auxiliary.n)], dtype=float)
    assert np.allclose(ws.pi_v, deg / h.auxiliary.degree_sum)


def test_fixed_weight_scheme_hand_numbers():
    h = two_user_hybrid()
    # both users linked to one shared venue; p concentrated there gives q = (1/2, 1/2)
    hb = HybridNetwork(Graph(2, [(0, 1)]), Graph(1, []), BipartiteGraph(2, 1, [(0, 0), (1, 0)]))
    q = compute_qu(hb, AuxDistribution.explicit([1.0]))
    ws = fixed_weight_scheme(hb, 1.0, 1.0, q)
    assert np.allclose(ws.omega, [0.5, 0.5])
    assert np.allclose(ws.pi_u, [0.5, 0.5])            # (1 + 0.5) / (2 + 1)
    assert np.allclose(ws.w, [1.0])                     # 0.5/1 + 0.5/1
    assert np.allclose(ws.pi_v, [1.0])                  # (0 + 1) / (0 + 1)
    assert np.allclose(ws.q_prime, [0.5, 0.5])
    assert h.affiliation.num_edges == 3  # the asymmetric variant stays available


def test_fixed_weight_scheme_pi_v_normalized_on_synthetic():
    h = small_synthetic(50, 80, seed=10)
    ws = fixed_weight_scheme(h, 2.0, 3.0)
    assert abs(ws.pi_u.sum() - 1.0) <= 1e-12
    assert abs(ws.pi_v.sum() - 1.0) <= 1e-12


def test_fixed_weight_scheme_rejects_uncovered_q_mass():
    h = HybridNetwork(Graph(2, [(0, 1)]), Graph(1, []), BipartiteGraph(2, 1, [(0, 0)]))
    with pytest.raises(ValueError, match="no affiliation edges"):
        fixed_weight_scheme(h, 1.0, 1.0, np.array([0.5, 0.5]))


def test_closed_form_alpha_zero():
    h = small_synthetic()
    omega, w = closed_form_weights(h, 0.0, 2.0)
    assert np.abs(omega).max() == 0.0
    assert np.all(w >= 0.0)


def test_closed_form_pair_hand_algebra():
    h = pair_hybrid()
    omega, w = closed_form_weights(h, 1.0, 1.0)
    # scalar fixed point: omega_u0 = c'(d_v0 + c d_u0) / (1 - c c'), c = c' = 1/3
    assert omega[0] == pytest.approx(0.5, abs=1e-12)
    assert omega[1] == 0.0
    assert w[0] == pytest.approx(0.5, abs=1e-12)
    assert w[1] == 0.0


def _weight_residuals(h, alpha, beta, omega, w):
    deg_t = np.array([h.target.degree(u) for u in range(h.target.n)], dtype=float)
    deg_a = np.array([h.auxiliary.degree(v) for v in range(h.auxiliary.n)], dtype=float)
    pi_u = (deg_t + omega) / (h.target.degree_sum + alpha)
    pi_v = (deg_a + w) / (h.auxiliary.degree_sum + beta)
    aff = h.affiliation
    left = csr_rows(aff.left_indptr, aff.left_indices)
    right = csr_rows(aff.right_indptr, aff.right_indices)
    r_omega = omega.copy()
    for u in range(h.target.n):
        r_omega[u] -= alpha * sum(pi_v[v] / len(right[v]) for v in left[u])
    r_w = w.copy()
    for v in range(h.auxiliary.n):
        r_w[v] -= beta * sum(pi_u[u] / len(left[u]) for u in right[v])
    return max(np.abs(r_omega).max(), np.abs(r_w).max())


def test_closed_form_satisfies_residual_system():
    rng = random.Random(31)
    h = random_hybrid(rng, 50, 30)
    assert _weight_residuals(h, 1.3, 0.8, *closed_form_weights(h, 1.3, 0.8)) < 1e-9


def test_closed_form_equals_fixed_point_iteration_limit():
    rng = random.Random(6)
    h = random_hybrid(rng, 60, 40)
    alpha, beta = 1.1, 2.3
    omega_cf, w_cf = closed_form_weights(h, alpha, beta)
    omega = alpha * default_desired_distribution(h)
    aff = h.affiliation
    left = csr_rows(aff.left_indptr, aff.left_indices)
    right = csr_rows(aff.right_indptr, aff.right_indices)
    deg_t = np.array([h.target.degree(u) for u in range(h.target.n)], dtype=float)
    deg_a = np.array([h.auxiliary.degree(v) for v in range(h.auxiliary.n)], dtype=float)
    w = np.zeros(h.auxiliary.n)
    for _ in range(400):
        pi_u = (deg_t + omega) / (h.target.degree_sum + alpha)
        w = np.zeros(h.auxiliary.n)
        for u in range(h.target.n):
            share = beta * pi_u[u] / len(left[u])
            for v in left[u]:
                w[v] += share
        pi_v = (deg_a + w) / (h.auxiliary.degree_sum + beta)
        omega = np.zeros(h.target.n)
        for v in range(h.auxiliary.n):
            share = alpha * pi_v[v] / len(right[v])
            for u in right[v]:
                omega[u] += share
    assert np.abs(omega - omega_cf).max() < 1e-9
    assert np.abs(w - w_cf).max() < 1e-9


# ---------------------------------------------------------------- MH chain


def test_mh_step_identity_distributions_always_accept():
    q = np.array([0.2, 0.3, 0.5])
    for proposal in range(3):
        for u in (0.0, 0.5, 0.999):
            assert mh_step(1, proposal, q, q, u) == proposal


def test_mh_step_zero_mass_proposal_never_accepted():
    q = np.array([0.5, 0.5, 0.0])
    qp = np.array([0.4, 0.4, 0.2])
    assert all(mh_step(0, 2, q, qp, u) == 0 for u in np.linspace(0.0, 0.999, 50))


def test_mh_step_misinitialized():
    q = np.array([0.0, 1.0])
    with pytest.raises(RuntimeError, match="mis-initialized"):
        mh_step(0, 1, q, q, 0.5)


def test_mh_chain_long_run_matches_desired():
    rng = random.Random(21)
    h = random_hybrid(rng, 10, 5)
    ws = fixed_weight_scheme(h, 4.0, 3.0)
    states = run_mh_chain(ws.q, ws.q_prime, 0, 10**6, seed=5)
    freq = np.bincount(states, minlength=10) / len(states)
    assert 0.5 * np.abs(freq - ws.q).sum() < 0.02


# ---------------------------------------------------------------- rwt_rwa


def test_rwt_rwa_zero_jump_reduction():
    h = small_synthetic()
    ws = fixed_weight_scheme(h, 0.0, 0.0)
    detail = RwtRwaDetail()
    trace = rwt_rwa_run(h, ws, 4000, (5, 0, 7), seed=42, detail=detail)
    ref_target = simple_rw_run(h.target, 4000, 5, seed=42)
    assert np.array_equal(trace.nodes, ref_target.nodes)
    assert np.array_equal(trace.weights, ref_target.weights)
    ref_aux = simple_rw_run(h.auxiliary, 4000, 7, seed=42, stream=STREAM_AUX)
    assert np.array_equal(detail.aux_nodes, ref_aux.nodes)


def test_rwt_rwa_empirical_stationarity():
    h = small_synthetic()
    ws = fixed_weight_scheme(h, 1.0, 1.0)
    trace = rwt_rwa_run(h, ws, 10**6, (0, 0, 0), seed=99)
    freq = np.bincount(trace.nodes, minlength=h.target.n) / len(trace)
    assert np.abs(freq - ws.pi_u).max() < 0.01


def test_rwt_rwa_crosses_components_via_jumps():
    h = build_synthetic_hybrid(
        SynthConfig(n_per_graph=500, m1=2, m2=5, m3=10, extra_pairs=1000, seed=1)
    )
    n_cov = len(h.covered_targets())
    alpha = 1.0 * n_cov
    beta = 1.0 * h.auxiliary.n
    ws = fixed_weight_scheme(h, alpha, beta)
    trace = rwt_rwa_run(h, ws, 10_000, (10, 10, 0), seed=2)
    in_first = sum(1 for x in trace.nodes if x < 500)
    assert in_first > 0.2 * len(trace)
    assert len(trace) - in_first > 0.2 * len(trace)
    assert any(trace.jumped)


def test_rwt_rwa_fallback_jump_logged():
    # target node 1 has no affiliation edges; jumps landing while the walker
    # sits there fall back to plain auxiliary moves
    target = Graph(2, [(0, 1)])
    aux = Graph(2, [(0, 1)])
    aff = BipartiteGraph(2, 2, [(0, 0), (0, 1)])
    h = HybridNetwork(target, aux, aff)
    q = np.array([1.0, 0.0])
    ws = fixed_weight_scheme(h, 5.0, 5.0, q)
    detail = RwtRwaDetail()
    rwt_rwa_run(h, ws, 4000, (0, 0, 0), seed=3, detail=detail)
    assert detail.fallback_jumps > 0


def test_rwt_rwa_misinitialized_mh_start():
    h = small_synthetic()
    q = default_desired_distribution(h)
    q = np.where(np.arange(len(q)) == 0, 0.0, q)
    q = q / q.sum()
    ws = fixed_weight_scheme(h, 1.0, 1.0, q)
    with pytest.raises(RuntimeError, match="mis-initialized"):
        rwt_rwa_run(h, ws, 100, (1, 0, 0), seed=0)


def test_rwt_rwa_auxiliary_absorbed():
    target = Graph(2, [(0, 1)])
    aux = Graph(3, [(0, 1)])  # node 2 isolated; beta=0 gives it no jump mass
    aff = BipartiteGraph(2, 3, [(0, 0), (1, 1)])
    h = HybridNetwork(target, aux, aff)
    ws = fixed_weight_scheme(h, 0.0, 0.0)
    with pytest.raises(RuntimeError, match="auxiliary chain absorbed"):
        rwt_rwa_run(h, ws, 100, (0, 0, 2), seed=0)


def test_runs_deterministic_per_seed():
    h = small_synthetic()
    p = covered_uniform(h)
    t1 = rwt_vsa_run(h, p, 2.0, 2000, 0, seed=5)
    t2 = rwt_vsa_run(h, p, 2.0, 2000, 0, seed=5)
    t3 = rwt_vsa_run(h, p, 2.0, 2000, 0, seed=6)
    assert np.array_equal(t1.nodes, t2.nodes) and t1.jumped == t2.jumped
    assert not np.array_equal(t1.nodes, t3.nodes)
    ws = fixed_weight_scheme(h, 1.0, 1.0)
    r1 = rwt_rwa_run(h, ws, 2000, (0, 0, 0), seed=5)
    r2 = rwt_rwa_run(h, ws, 2000, (0, 0, 0), seed=5)
    assert np.array_equal(r1.nodes, r2.nodes)


def test_write_trace_format(tmp_path):
    h = small_synthetic()
    trace = simple_rw_run(h.target, 50, 0, seed=1)
    path = tmp_path / "trace.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,node,weight,jumped"
    assert len(lines) == 51
    step, node, weight, jumped = lines[1].split(",")
    assert (int(step), int(node)) == (0, trace.nodes[0])
    assert float(weight) == trace.weights[0]
    assert jumped in ("0", "1")


# ------------------------------------------------------------ trace arrays

# Walk cases on one 2x500 network: (method, per-node alpha, per-node beta).
TRACE_CASES = [("SRW", 0, 0), ("RWT-VSA", 0, 0), ("RWT-VSA", 1, 0)] + [
    ("RWT-RWA", a, b) for a in (0, 1) for b in (0, 1)
]

# sha256 of the int64 nodes, float64 weights and bool jumped of each case's
# trace, recorded at seed version 3 (synthetic networks on numpy streams).
# The four zero-jump cases share one digest: they are the same plain walk.
PINNED_TRACE_DIGESTS = {
    ("SRW", 0, 0):
        "36bf9405328d8ace2e4d9334e1e5c0d7dc812cada815119d10d1f53ee34076f1",
    ("RWT-VSA", 0, 0):
        "36bf9405328d8ace2e4d9334e1e5c0d7dc812cada815119d10d1f53ee34076f1",
    ("RWT-VSA", 1, 0):
        "74f4aed10181515981eb72d14f951e693d67b69e15929e50b33014249051dabc",
    ("RWT-RWA", 0, 0):
        "36bf9405328d8ace2e4d9334e1e5c0d7dc812cada815119d10d1f53ee34076f1",
    ("RWT-RWA", 0, 1):
        "36bf9405328d8ace2e4d9334e1e5c0d7dc812cada815119d10d1f53ee34076f1",
    ("RWT-RWA", 1, 0):
        "e78ba1baf135c6fc841b37c318573a0c8007d527a389c3d14162fe1dc9e648a6",
    ("RWT-RWA", 1, 1):
        "ae48eb1166b9faa2efc6efa60b657856b22dbf56a87a72db3f06140400c3e6d1",
}


@pytest.fixture(scope="module")
def net_2x500():
    return build_synthetic_hybrid(
        SynthConfig(n_per_graph=500, m1=2, m2=3, m3=5, extra_pairs=1000, seed=11)
    )


def _case_trace(h, method, alpha, beta):
    """(trace, omega) of a 3000-step walk; alpha and beta are per node, as
    in experiment configs."""
    covered = h.covered_targets()
    alpha_total, beta_total = alpha * len(covered), beta * h.auxiliary.n
    start = covered[0]
    if method == "SRW":
        return simple_rw_run(h.target, 3000, start, seed=4), np.zeros(h.target.n)
    if method == "RWT-VSA":
        support = np.flatnonzero(h.affiliation.right_degrees).tolist()
        p = AuxDistribution.uniform_over(h.auxiliary.n, support)
        trace = rwt_vsa_run(h, p, alpha_total, 3000, start, seed=4)
        return trace, alpha_total * compute_qu(h, p)
    ws = fixed_weight_scheme(h, alpha_total, beta_total)
    return rwt_rwa_run(h, ws, 3000, (start, start, 0), seed=4), ws.omega


@pytest.mark.parametrize("method,alpha,beta", TRACE_CASES)
def test_trace_weights_are_degree_plus_omega(net_2x500, method, alpha, beta):
    trace, omega = _case_trace(net_2x500, method, alpha, beta)
    for i, x in enumerate(trace.nodes):
        assert trace.weights[i] == net_2x500.target.degree(x) + float(omega[x])
    assert any(trace.jumped) == (alpha > 0)


@pytest.mark.parametrize("method,alpha,beta", TRACE_CASES)
def test_traces_match_pinned_digests(net_2x500, method, alpha, beta):
    trace, _ = _case_trace(net_2x500, method, alpha, beta)
    digest = hashlib.sha256(
        np.asarray(trace.nodes, dtype=np.int64).tobytes()
        + np.asarray(trace.weights, dtype=np.float64).tobytes()
        + np.asarray(trace.jumped, dtype=bool).tobytes()
    ).hexdigest()
    assert digest == PINNED_TRACE_DIGESTS[(method, alpha, beta)]


# ------------------------------------------------------------ lockstep batches


def _case_run(h, method, alpha, beta, starts, seeds, detail=None):
    """A 600-step run of a TRACE_CASES case; starts and seeds as the walk
    functions take them (one walk's, or sequences)."""
    covered = h.covered_targets()
    alpha_total, beta_total = alpha * len(covered), beta * h.auxiliary.n
    if method == "SRW":
        return simple_rw_run(h.target, 600, starts, seeds)
    if method == "RWT-VSA":
        support = np.flatnonzero(h.affiliation.right_degrees).tolist()
        p = AuxDistribution.uniform_over(h.auxiliary.n, support)
        return rwt_vsa_run(h, p, alpha_total, 600, starts, seeds)
    ws = fixed_weight_scheme(h, alpha_total, beta_total)
    return rwt_rwa_run(h, ws, 600, starts, seeds, detail=detail)


@pytest.mark.parametrize("method,alpha,beta", TRACE_CASES)
def test_batch_replication_equals_lone_run(net_2x500, monkeypatch, method, alpha, beta):
    # walk r reads only its own streams, a fixed count of uniforms a step,
    # so neither the batch nor the block length can move its trace
    covered = net_2x500.covered_targets()
    seeds = [101 + r for r in range(5)]
    if method == "RWT-RWA":
        starts = [(covered[7 * r], covered[3 * r], r) for r in range(5)]
    else:
        starts = [covered[7 * r] for r in range(5)]
    runs = []  # (batch, its RwtRwaDetail) at the default block and at 1 and 7
    for block in (samplers.BLOCK_STEPS, 1, 7):
        monkeypatch.setattr(samplers, "BLOCK_STEPS", block)
        detail = RwtRwaDetail()
        runs.append((_case_run(net_2x500, method, alpha, beta, starts, seeds, detail), detail))
    monkeypatch.undo()
    for r in range(5):
        lone_detail = RwtRwaDetail()
        lone = _case_run(net_2x500, method, alpha, beta, starts[r], seeds[r], lone_detail)
        for batch, detail in runs:
            trace = batch.trace(r)
            assert np.array_equal(trace.nodes, lone.nodes)
            assert np.array_equal(trace.weights, lone.weights)
            assert trace.jumped == lone.jumped
            assert trace.query_count == lone.query_count
            # the companion paths of a batch are flat, walk by walk
            part = slice(600 * r, 600 * (r + 1))
            assert detail.aux_nodes[part] == lone_detail.aux_nodes
            assert detail.mh_nodes[part] == lone_detail.mh_nodes


def test_mh_accept_matches_mh_step_exactly():
    gen = np.random.default_rng(3)
    n = 12
    q = gen.random(n)
    q[[1, 4, 7]] = 0.0
    q_prime = gen.random(n)
    q_prime[[2, 4, 9]] = 0.0
    cases = []
    for cur in range(n):
        if q[cur] <= 0.0 or q_prime[cur] <= 0.0:
            continue
        for prop in range(n):
            us = gen.random(40).tolist() + [0.0, 0.5, float(np.nextafter(1.0, 0.0))]
            if q[prop] > 0.0 and q_prime[prop] > 0.0:
                ratio = (q[prop] * q_prime[cur]) / (q[cur] * q_prime[prop])
                if ratio < 1.0:  # the boundary: u == ratio is a rejection
                    us += [ratio, float(np.nextafter(ratio, 0.0))]
            cases += [(cur, prop, u) for u in us]
    cur, prop, u = (np.array(col) for col in zip(*cases))
    with np.errstate(divide="ignore", invalid="ignore"):
        got = np.where(mh_accept(cur, prop, u, q, q_prime), prop, cur)
    want = [mh_step(int(c), int(p), q, q_prime, x) for c, p, x in cases]
    assert got.tolist() == want


def test_rwt_vsa_batch_error_names_node_and_replication():
    target = Graph(3, [(0, 1)])
    aux = Graph(1, [])
    aff = BipartiteGraph(3, 1, [(0, 0), (1, 0)])  # node 2 uncovered and isolated
    h = HybridNetwork(target, aux, aff)
    with pytest.raises(WalkError, match=r"replication 1: absorbing node 2;") as info:
        rwt_vsa_run(h, AuxDistribution.uniform(1), 1.0, 10, [0, 2], [0, 1])
    assert info.value.replication == 1


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_rwt_vsa_one_step_law_matches_kernel(alpha):
    # first transitions of many two-step walks against the dense kernel
    target = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    aux = Graph(2, [(0, 1)])
    aff = BipartiteGraph(4, 2, [(0, 0), (1, 0), (2, 1), (3, 1), (0, 1)])
    h = HybridNetwork(target, aux, aff)
    p = AuxDistribution.uniform(2)
    walks = 8000
    batch = rwt_vsa_run(h, p, alpha, 2, np.arange(walks) % 4, list(range(walks)))
    counts = np.zeros((4, 4))
    np.add.at(counts, (batch.nodes[0], batch.nodes[1]), 1.0)
    P = rwt_vsa_transition_matrix(h, p, alpha)
    n_from = counts.sum(axis=1, keepdims=True)
    se = np.sqrt(n_from * P * (1.0 - P))
    assert (np.abs(counts - n_from * P) <= 5.0 * se).all()
    assert (batch.flags[1].sum() > 0) == (alpha > 0)
