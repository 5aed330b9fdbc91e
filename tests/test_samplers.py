import dataclasses
import hashlib
import random
import warnings

import numpy as np
import pytest

from helpers import (
    csr_rows,
    hybrid_rows,
    jump_target_law,
    left_stationary,
    random_hybrid,
    rwt_vsa_transition_matrix,
    rwt_vsa_weight,
    stationary_rwt_vsa,
    stationary_solve,
    walk_visits,
)
from hybridsample import samplers
from hybridsample.graphs import BipartiteGraph, Graph, HybridNetwork
from hybridsample.samplers import (
    AuxDistribution,
    WalkError,
    fixed_weight_scheme,
    harvest,
    jump_law,
    rwt_rwa_run,
    rwt_vsa_run,
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
    support = np.flatnonzero(h.affiliation.right_degrees)
    probs = np.zeros(h.auxiliary.n)
    probs[support] = 1.0 / len(support)
    return AuxDistribution(h.auxiliary.n, probs)


# ---------------------------------------------------------------- AuxDistribution


def test_aux_distribution_validation():
    with pytest.raises(ValueError, match="not normalized"):
        AuxDistribution(2, [0.5, 0.4])
    with pytest.raises(ValueError, match="nonnegative"):
        AuxDistribution(2, [1.5, -0.5])
    d = AuxDistribution(2, [0.25, 0.75])
    assert d.probs[1] == 0.75
    assert AuxDistribution(4).probs[2] == 0.25


def test_aux_distribution_calls_default_to_one_without_n_entries():
    d = AuxDistribution(5)
    assert d.calls.tolist() == [1] * 5 and d.calls.strides == (0,)
    assert not d.calls.flags.writeable
    h = small_synthetic()
    assert vs_a_collect(h, AuxDistribution(h.auxiliary.n), 7, seeds=[2]).queries[0] == 7
    with pytest.raises(ValueError, match="call count"):
        AuxDistribution(2, calls=[1, 1, 1])


@pytest.mark.parametrize("probs", [[np.nan, np.nan], [np.inf, 0.0], [0.5, np.nan]])
def test_aux_distribution_rejects_non_finite_probabilities(probs):
    # a NaN sum passes an abs(total - 1) > tol test, so finiteness is checked first
    with pytest.raises(ValueError, match="finite"):
        AuxDistribution(2, probs)


def test_aux_distribution_sampling_frequencies():
    # dyadic p and the midpoints of N = 2^10 equal cells of [0, 1): pick gives
    # each node exactly N p_v of the uniforms and a node without mass none,
    # through the cumulative search and through the equal-mass shortcut
    n_cells = 1024
    u = (np.arange(n_cells) + 0.5) / n_cells
    for probs in ([0.125, 0.5, 0.0, 0.375], [0.25, 0.0, 0.25, 0.25, 0.25], [0.5, 0.5]):
        d = AuxDistribution(len(probs), probs)
        counts = np.bincount(d.pick(u), minlength=len(probs))
        assert counts.tolist() == [n_cells * p for p in probs]


# ---------------------------------------------------------------- jump weights


def test_jump_law_symmetric_pair():
    h = HybridNetwork(Graph(2, [(0, 1)]), Graph(1, []), BipartiteGraph(2, 1, [(0, 0), (1, 0)]))
    assert jump_law(h, 1.0).total.tolist() == [1.5, 1.5]


def test_jump_law_uncovered_user_gets_no_jump_weight():
    h = HybridNetwork(Graph(2, [(0, 1)]), Graph(1, []), BipartiteGraph(2, 1, [(0, 0)]))
    assert jump_law(h, 1.0).total.tolist() == [2.0, 1.0]


def test_jump_law_weights_sum_to_alpha_on_synthetic():
    h = small_synthetic(40, 60, seed=8)
    q = jump_law(h, 1.0).total - h.target.degrees
    assert abs(q.sum() - 1.0) <= 1e-12


def test_jump_law_draws_no_venue_without_affiliation_edges():
    # auxiliary node 1 has no affiliation edges, so no jump draws it
    h = HybridNetwork(Graph(2, [(0, 1)]), Graph(2, []), BipartiteGraph(2, 2, [(0, 0), (1, 0)]))
    law = jump_law(h, 1.0)
    assert law.venues.tolist() == [0]
    assert law.total.tolist() == [1.5, 1.5]


def test_aux_distribution_accepts_equal_shares_at_scale():
    # a naive sum of 99,991 equal shares misses 1 by more than 1e-12
    n = 99_991
    share = 1.0 / n
    assert abs(sum([share] * n) - 1.0) > 1e-12
    d = AuxDistribution(n, np.full(n, 1 / n))
    assert d.probs[0] == d.probs[n - 1] == share


# ---------------------------------------------------------------- jump_law


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2000.0])
def test_jump_law_matches_the_oracle_weights(alpha):
    # some auxiliary nodes of this network have no affiliation edges
    h = small_synthetic(40, 60, seed=8)
    assert not h.affiliation.right_degrees.all()
    p = covered_uniform(h)
    law = jump_law(h, alpha)
    venues = law.venues
    assert venues.tolist() == np.flatnonzero(p.probs).tolist()
    assert law.affiliation is h.affiliation
    assert law.total.tobytes() == rwt_vsa_weight(h, p, alpha).tobytes()
    # a walk lands from venues[floor(u len(venues))]: the oracle's pick,
    # also at each entry boundary k / len and just below it
    bounds = np.arange(1, len(venues) + 1) / len(venues)
    u = np.concatenate(([0.0], bounds[:-1], np.nextafter(bounds, 0.0),
                        np.random.default_rng(8).random(500)))
    assert venues[(u * len(venues)).astype(np.int64)].tolist() == p.pick(u).tolist()


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -1.0])
def test_jump_law_rejects_a_non_finite_or_negative_mass(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        jump_law(small_synthetic(), alpha)


# ---------------------------------------------------------------- vs_a_collect


def test_vsa_collect_full_venue():
    n = 5
    h = HybridNetwork(
        Graph(n, [(0, 1)]), Graph(1, []), BipartiteGraph(n, 1, [(u, 0) for u in range(n)])
    )
    sample = vs_a_collect(h, AuxDistribution(1, [1.0]), 3, seeds=[1])
    assert sample.b_prime == 3
    assert sample.offsets.tolist() == [0, n, 2 * n, 3 * n]
    assert sample.users.tolist() == list(range(n)) * 3
    assert sample.p.tolist() == [1.0] * 3
    assert len(sample.users) == 15
    assert sample.queries[0] == 3


def test_vsa_collect_isolated_venue_draw_kept():
    h = HybridNetwork(Graph(1, []), Graph(1, []), BipartiteGraph(1, 1, []))
    sample = vs_a_collect(h, AuxDistribution(1), 2, seeds=[0])
    assert sample.b_prime == 2
    assert sample.offsets.tolist() == [0, 0, 0]


def test_vsa_collect_reaches_exactly_covered_nodes():
    h = small_synthetic(30, 40, seed=6)
    aff = h.affiliation
    sample = vs_a_collect(h, AuxDistribution(h.auxiliary.n), 4000, seeds=[2])
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
    a = vs_a_collect(h, AuxDistribution(h.auxiliary.n), 50, seeds=[9])
    b = vs_a_collect(h, AuxDistribution(h.auxiliary.n), 50, seeds=[9])
    assert a.venues.tolist() == b.venues.tolist()


def test_vsa_collect_reads_one_aux_uniform_a_draw():
    h = small_synthetic(30, 40, seed=6)
    p = covered_uniform(h)
    sample = vs_a_collect(h, p, 300, seeds=[11])
    venues = p.pick(spawn_generator(11, STREAM_AUX).random(300))
    assert sample.venues.tolist() == venues.tolist()
    assert sample.p.tolist() == p.probs[venues].tolist()


def test_vsa_collect_batch_equals_lone_collections():
    # each replication reads its own seed's stream and pays its own draws
    h = small_synthetic(30, 40, seed=6)
    p = AuxDistribution(h.auxiliary.n, calls=np.arange(h.auxiliary.n) % 4 + 1)
    batch = vs_a_collect(h, p, 25, seeds=[3, 4, 5])
    assert batch.b_prime == 25
    lone = [vs_a_collect(h, p, 25, seeds=[s]) for s in (3, 4, 5)]
    assert batch.venues.tolist() == [v for one in lone for v in one.venues.tolist()]
    assert batch.users.tolist() == [u for one in lone for u in one.users.tolist()]
    assert batch.queries == [one.queries[0] for one in lone]


def test_harvest_rejects_bad_draws():
    aff = BipartiteGraph(2, 2, [(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="venue id 2 is not an auxiliary node"):
        harvest(aff, [0, 2], [0.5, 0.5], [2])
    with pytest.raises(ValueError, match="venue 1 with nonpositive probability 0.0"):
        harvest(aff, [0, 1], [0.5, 0.0], [2])


# ---------------------------------------------------------------- simple walk

# the one message of a walk at a node it cannot leave, here node 2
ABSORBING_2 = "absorbing node 2: zero visit weight, so the walk cannot leave it"


def test_simple_rw_path_transition_probabilities():
    g = Graph(3, [(0, 1), (1, 2)])
    nodes, _ = walk_visits(rwt_vsa_run(g, 40_001, [1], [3]), 0)
    nxt = [nodes[i + 1] for i in range(len(nodes) - 1) if nodes[i] == 1]
    frac0 = nxt.count(0) / len(nxt)
    assert set(nxt) <= {0, 2}
    assert frac0 == pytest.approx(0.5, abs=0.02)


def _visit_freq(batch, burn_in: int, n: int) -> np.ndarray:
    """Visit frequencies of a lockstep batch after its first burn_in steps."""
    kept = batch.nodes[burn_in:].ravel()
    return np.bincount(kept, minlength=n) / len(kept)


def test_simple_rw_cycle_uniform():
    # 1100 lockstep walks, 100 from each node: 1.1e6 visits after burn-in
    n = 11
    g = Graph(n, [(i, (i + 1) % n) for i in range(n)])
    walks = 1100
    batch = rwt_vsa_run(g, 1100, np.arange(walks) % n, [4 + r for r in range(walks)])
    assert np.abs(_visit_freq(batch, 100, n) - 1.0 / n).max() < 0.01


def test_simple_rw_degree_stationary_law():
    rng = random.Random(12)
    from helpers import random_connected_graph

    g = random_connected_graph(rng, 40, 80)
    # five walks from each CSR entry's row start at the degree law: 1190
    # walks, 1.19e6 visits after burn-in
    starts = np.tile(np.repeat(np.arange(g.n), g.degrees), 5)
    batch = rwt_vsa_run(g, 1100, starts, [7 + r for r in range(len(starts))])
    pi = g.degrees / g.degrees.sum()
    assert np.abs(_visit_freq(batch, 100, g.n) - pi).max() < 0.01


def test_simple_rw_absorbing_error():
    g = Graph(3, [(0, 1)])
    with pytest.raises(WalkError, match=ABSORBING_2):
        rwt_vsa_run(g, 10, [2], [0])


def test_plain_walk_opens_no_landing_stream(monkeypatch):
    # without a jump law the walk draws moves only; with one, landings too
    h = small_synthetic()
    keys = []

    def spy(seed, *key):
        keys.append(key)
        return spawn_generator(seed, *key)

    monkeypatch.setattr(samplers, "spawn_generator", spy)
    rwt_vsa_run(h.target, 300, [5, 6], [1, 2])
    assert keys and (STREAM_AUX,) not in keys
    keys.clear()
    rwt_vsa_run(h.target, 300, [5, 6], [1, 2], jump_law(h, 1.0))
    assert keys.count((STREAM_AUX,)) == 2


# ---------------------------------------------------------------- rwt_vsa


def test_rwt_vsa_alpha_zero_equals_simple_rw():
    h = small_synthetic()
    a = rwt_vsa_run(h.target, 5000, [5], [42], jump_law(h, 0.0))
    b = rwt_vsa_run(h.target, 5000, [5], [42])
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weight, b.weight)
    assert not a.flags.any()


def test_rwt_vsa_empirical_stationarity_four_nodes():
    target = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    aux = Graph(2, [(0, 1)])
    aff = BipartiteGraph(4, 2, [(0, 0), (1, 0), (2, 1), (3, 1), (0, 1)])
    h = HybridNetwork(target, aux, aff)
    p = AuxDistribution(2)
    # 1000 lockstep walks, 250 from each node: 1e6 visits after burn-in
    walks = 1000
    batch = rwt_vsa_run(h.target, 1100, np.arange(walks) % 4, [13 + r for r in range(walks)],
                        jump_law(h, 1.0))
    pi = stationary_rwt_vsa(h, p, 1.0)
    assert np.abs(_visit_freq(batch, 100, 4) - pi).max() < 0.01
    assert batch.queries == (1100 + batch.flags.sum(axis=0)).tolist()


def test_rwt_vsa_absorbing_error():
    target = Graph(3, [(0, 1)])
    aux = Graph(1, [])
    aff = BipartiteGraph(3, 1, [(0, 0), (1, 0)])  # node 2 uncovered and isolated
    h = HybridNetwork(target, aux, aff)
    with pytest.raises(WalkError, match=ABSORBING_2):
        rwt_vsa_run(h.target, 10, [2], [0], jump_law(h, 1.0))


@pytest.mark.parametrize("method", ["SRW", "RWT-VSA", "RWT-RWA"])
def test_walks_share_one_start_check(method):
    # node 2 has no edge and no affiliation, so no visit weight
    h = HybridNetwork(Graph(3, [(0, 1)]), Graph(2, [(0, 1)]),
                      BipartiteGraph(3, 2, [(0, 0), (1, 1)]))
    walk = {
        "SRW": lambda *args: rwt_vsa_run(h.target, *args),
        "RWT-VSA": lambda *args: rwt_vsa_run(h.target, *args, jump_law(h, 1.0)),
        "RWT-RWA": lambda *args: rwt_rwa_run(h, fixed_weight_scheme(h, 1.0, 1.0), *args),
    }[method]
    with pytest.raises(ValueError, match="budget must be >= 1"):
        walk(0, [0], [0])
    with pytest.raises(ValueError, match="one start per seed"):
        walk(10, [0, 1], [0])
    with pytest.raises(ValueError, match="start node out of range"):
        walk(10, [0, 3], [0, 1])
    with pytest.raises(WalkError, match="replication 1: " + ABSORBING_2):
        walk(10, [0, 2], [0, 1])
    assert walk(10, [0, 1], [0, 1]).nodes.shape == (10, 2)
    # budget 1: the starts alone, no block of uniforms drawn
    lone = walk(1, [0, 1], [0, 1])
    assert lone.nodes.tolist() == [[0, 1]]
    assert not lone.flags.any()
    assert lone.queries == [1, 1]


def test_rwt_vsa_stops_at_a_zero_weight_landing():
    # a total that gives node 2 no weight, though a jump can land there:
    # the walk stops at the block's end instead of recording weight 0
    target = Graph(3, [(0, 1)])
    aff = BipartiteGraph(3, 1, [(0, 0), (2, 0)])
    h = HybridNetwork(target, Graph(1, []), aff)
    law = jump_law(h, 1.0)
    total = law.total.copy()
    total[2] = 0.0
    with pytest.raises(WalkError, match=ABSORBING_2):
        rwt_vsa_run(h.target, 100, [0] * 20, list(range(20)), dataclasses.replace(law, total=total))


# ---------------------------------------------------------------- stationary law


def test_stationary_alpha_zero_is_degree_law():
    h = small_synthetic()
    p = covered_uniform(h)
    pi = stationary_rwt_vsa(h, p, 0.0)
    assert np.allclose(pi, h.target.degrees / h.target.degrees.sum())


def test_stationary_regular_graph_uniform_q():
    n = 6
    target = Graph(n, [(i, (i + 1) % n) for i in range(n)])  # 2-regular
    aux = Graph(1, [])
    aff = BipartiteGraph(n, 1, [(u, 0) for u in range(n)])
    h = HybridNetwork(target, aux, aff)
    pi = stationary_rwt_vsa(h, AuxDistribution(1, [1.0]), 3.0)
    assert np.allclose(pi, 1.0 / n)


def test_stationary_matches_eigenvector_of_kernel():
    rng = random.Random(2)
    h = random_hybrid(rng, 15, 6)
    p = AuxDistribution(h.auxiliary.n)
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
        p = AuxDistribution(h.auxiliary.n)
        for alpha in (0.1, 1.0, 10.0):
            P = rwt_vsa_transition_matrix(h, p, alpha)
            pi = stationary_rwt_vsa(h, p, alpha)
            F = pi[:, None] * P
            assert np.abs(F - F.T).max() < 1e-10


# ---------------------------------------------------------------- weights


def test_fixed_weight_scheme_beta_zero():
    h = small_synthetic()
    # a walk that jumps to the auxiliary side could never come back
    with pytest.raises(ValueError, match="beta must be > 0 when alpha > 0"):
        fixed_weight_scheme(h, 1.0, 0.0)
    ws = fixed_weight_scheme(h, 0.0, 0.0)  # no jump mass: the two plain graphs
    assert np.array_equal(ws.total, ws.deg)


def test_fixed_weight_scheme_hand_numbers():
    # both users linked to one venue, q = (1/2, 1/2), alpha = 2, beta = 1:
    # omega = (1, 1), each affiliation edge weighs c = 1 in target units and
    # c / k = 1/2 in the venue's (k = alpha / beta = 2)
    hb = HybridNetwork(Graph(2, [(0, 1)]), Graph(1, []), BipartiteGraph(2, 1, [(0, 0), (1, 0)]))
    ws = fixed_weight_scheme(hb, 2.0, 1.0)
    assert ws.total.tolist() == [2.0, 2.0, 1.0]
    assert ws.deg.tolist() == [1.0, 1.0, 0.0]
    # one entry in each user's row; the venue's two halves share row 2's [4, 5)
    assert ws.key.tolist() == [0.0, 2.0, 4.0, 4.5]
    assert ws.dest.tolist() == [2, 2, 0, 1]


def test_fixed_weight_scheme_jump_masses_on_synthetic():
    # each side's jump mass in its own edge units: alpha, then beta
    h = small_synthetic(50, 80, seed=10)
    ws = fixed_weight_scheme(h, 2.0, 3.0)
    n_t, aff = h.target.n, h.affiliation
    mass = ws.total - ws.deg
    assert abs(mass[:n_t].sum() - 2.0) <= 1e-12
    assert abs(mass[n_t:].sum() - 3.0) <= 1e-12
    # the keys of row z lie in [2z, 2z + 1), increasing along the row
    row = np.repeat(np.arange(n_t + h.auxiliary.n),
                    np.concatenate((aff.left_degrees, aff.right_degrees)))
    assert ((2 * row <= ws.key) & (ws.key < 2 * row + 1)).all()
    same_row = row[1:] == row[:-1]
    assert (np.diff(ws.key)[same_row] > 0).all()


def test_hybrid_ids_are_int64_over_int32_graphs():
    # the CSR arrays are int32 here, but hybrid ids are not computed in it:
    # left_indices + n_t in int32 would wrap once n_t + n_a reaches 2**31
    h = small_synthetic(50, 80, seed=10)
    ws = fixed_weight_scheme(h, 2.0, 3.0)
    aff, n_t = h.affiliation, h.target.n
    assert aff.left_indices.dtype == h.target.indptr.dtype == np.int32
    assert ws.base.dtype == ws.shift.dtype == ws.dest.dtype == np.int64
    assert np.array_equal(ws.shift, np.repeat([0, n_t], [n_t, h.auxiliary.n]))
    assert np.array_equal(ws.dest[:aff.num_edges], aff.left_indices.astype(np.int64) + n_t)
    assert rwt_rwa_run(h, ws, 50, [0, 1], [1, 2]).nodes.dtype == np.int64
    assert rwt_vsa_run(h.target, 50, [0, 1], [1, 2], jump_law(h, 2.0)).nodes.dtype == np.int64


@pytest.mark.parametrize("alpha,beta", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf)])
def test_fixed_weight_scheme_rejects_non_finite_masses(alpha, beta):
    with pytest.raises(ValueError, match="finite"):
        fixed_weight_scheme(small_synthetic(), alpha, beta)


# ---------------------------------------------------------------- rwt_rwa


def test_rwt_rwa_zero_jump_reduction():
    # at alpha = 0 a target walk never jumps, whatever beta
    h = small_synthetic()
    ref = rwt_vsa_run(h.target, 4000, [5], [42])
    for beta in (0.0, 1.0):
        batch = rwt_rwa_run(h, fixed_weight_scheme(h, 0.0, beta), 4000, [5], [42])
        nodes, jumped = walk_visits(batch, 0)
        assert np.array_equal(nodes, ref.nodes[:, 0])
        assert np.array_equal(batch.weight[nodes], ref.weight[nodes])
        assert not jumped.any() and batch.queries == [4000]


def test_rwt_rwa_crosses_components_via_jumps():
    # the two halves of the target are joined by one bridge edge; the walk
    # crosses through the auxiliary side.  20 walks of 10,000 steps from a
    # first-half node: their mean share of target visits in the first half is
    # the stationary share of d + omega within 4 SE, the SE taken from the
    # spread of the walks' shares
    n = 500
    h = build_synthetic_hybrid(
        SynthConfig(n_per_graph=n, m1=2, m2=5, m3=10, extra_pairs=1000, seed=1)
    )
    covered = h.covered_targets()
    alpha, beta = 1.0 * len(covered), 1.0 * h.auxiliary.n
    ws = fixed_weight_scheme(h, alpha, beta)
    walks = 20
    batch = rwt_rwa_run(h, ws, 10_000, [10] * walks, [2 + r for r in range(walks)])
    share = np.array([np.mean(walk_visits(batch, r)[0] < n) for r in range(walks)])
    weight = h.target.degrees.astype(float)
    weight[covered] += alpha / len(covered)
    exact = weight[:n].sum() / weight.sum()
    se = share.std(ddof=1) / np.sqrt(walks)
    assert abs(share.mean() - exact) < 4 * se
    assert share.min() > 0.0 and share.max() < 1.0
    assert batch.flags.any()


def test_rwt_rwa_absorbing_start():
    # target node 2 has no edges and no q-mass, so no weight to leave by
    target = Graph(3, [(0, 1)])
    aux = Graph(2, [(0, 1)])
    aff = BipartiteGraph(3, 2, [(0, 0), (1, 1)])
    h = HybridNetwork(target, aux, aff)
    ws = fixed_weight_scheme(h, 1.0, 1.0)
    with pytest.raises(WalkError, match=r"replication 1: " + ABSORBING_2) as info:
        rwt_rwa_run(h, ws, 100, [0, 2], [0, 1])
    assert info.value.replication == 1


def test_rwt_rwa_jump_onto_absorbing_node_raises_without_warning():
    # fixed_weight_scheme leaves no absorbing node a walk can reach, so the
    # edgeless auxiliary node 0 (hybrid node 2) loses its jump mass by hand:
    # with total = deg = 0, a walker there takes the jump branch at 0/0
    h = HybridNetwork(Graph(2, [(0, 1)]), Graph(1, []), BipartiteGraph(2, 1, [(0, 0)]))
    ws = fixed_weight_scheme(h, 1.0, 1.0)
    ws.total[2] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(WalkError, match=ABSORBING_2):
            rwt_rwa_run(h, ws, 100, [0], [3])


def test_runs_deterministic_per_seed():
    h = small_synthetic()
    jumps = jump_law(h, 2.0)
    t1, t2, t3 = (rwt_vsa_run(h.target, 2000, [0], [s], jumps) for s in (5, 5, 6))
    assert np.array_equal(t1.nodes, t2.nodes) and np.array_equal(t1.flags, t2.flags)
    assert not np.array_equal(t1.nodes, t3.nodes)
    ws = fixed_weight_scheme(h, 1.0, 1.0)
    r1, r2, r3 = (rwt_rwa_run(h, ws, 2000, [0], [s]) for s in (5, 5, 6))
    assert np.array_equal(r1.nodes, r2.nodes) and np.array_equal(r1.flags, r2.flags)
    assert not np.array_equal(r1.nodes, r3.nodes)


def test_write_trace_format(tmp_path):
    h = small_synthetic()
    batch = rwt_vsa_run(h.target, 50, [0, 1], [1, 2])
    path = tmp_path / "trace.csv"
    write_trace(batch, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,node,weight,jumped"
    assert len(lines) == 51
    step, node, weight, jumped = lines[1].split(",")
    assert (int(step), int(node)) == (0, batch.nodes[0, 0])
    assert float(weight) == batch.weight[batch.nodes[0, 0]]
    assert jumped in ("0", "1")


def test_rwt_rwa_venue_rows_exact_at_extreme_jump_ratio():
    # no venue links to another, so every venue step jumps; at (1e8, 1e-8)
    # per node a venue row's weights are 1e-16 of the target rows', and the
    # pick out of it must still follow them (independent oracle rows)
    h = HybridNetwork(
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]), Graph(3, []),
        BipartiteGraph(6, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (3, 1), (3, 2),
                              (4, 2), (5, 0), (5, 1), (5, 2)]))
    n_t = h.target.n
    alpha, beta = 1e8 * n_t, 1e-8 * h.auxiliary.n
    rows = hybrid_rows(h, alpha, beta)[n_t:]
    law = rows / rows.sum(axis=1, keepdims=True)
    # about 60,000 venue steps: 3000 walks of 41 steps, every other one a venue's
    batch = rwt_rwa_run(h, fixed_weight_scheme(h, alpha, beta), 41, np.arange(3000) % n_t,
                        list(range(3000)))
    src, dst = batch.nodes[:-1].ravel(), batch.nodes[1:].ravel()
    counts = np.zeros(law.shape)
    at_venue = src >= n_t
    np.add.at(counts, (src[at_venue] - n_t, dst[at_venue]), 1.0)
    assert counts.sum() >= 59_000
    tv = 0.5 * np.abs(counts / counts.sum(axis=1, keepdims=True) - law).sum(axis=1)
    # sampling floor about 0.007; always taking a venue's last entry reads 0.86
    assert tv.max() < 0.03


@pytest.mark.parametrize("seed,variant", [
    (1, "random"), (2, "random"), (3, "random"),
    (4, "no auxiliary edges"), (5, "isolated covered target")])
def test_rwt_rwa_steps_only_along_positive_weights(seed, variant):
    # every step of a batch follows a row entry of positive weight in the
    # independent dense rows: a row start off by the target's entries, or
    # a wrong id shift, breaks this on every seed, where the law test
    # (criterion 4) sees it only statistically
    h = random_hybrid(random.Random(seed), 12, 7)
    n_t, n_a, aff = h.target.n, h.auxiliary.n, h.affiliation
    if variant == "no auxiliary edges":
        h = HybridNetwork(h.target, Graph(n_a, []), aff)
    elif variant == "isolated covered target":
        # target node n_t has no target edges, only one to auxiliary node 0
        pairs = np.column_stack((np.repeat(np.arange(n_t), aff.left_degrees), aff.left_indices))
        n_t += 1
        h = HybridNetwork(Graph(n_t, h.target.edge_array()), h.auxiliary,
                          BipartiteGraph(n_t, n_a, np.vstack((pairs, [[n_t - 1, 0]]))))
    alpha, beta = 0.5 * n_t, 0.5 * n_a
    batch = rwt_rwa_run(h, fixed_weight_scheme(h, alpha, beta), 2000, h.covered_targets()[-4:],
                        range(4))
    rows = hybrid_rows(h, alpha, beta)
    assert (rows[batch.nodes[:-1], batch.nodes[1:]] > 0).all()
    assert (batch.nodes >= n_t).any() and (batch.nodes == n_t - 1).any()


def test_target_share_is_the_stationary_target_mass():
    # the share behind the set-up stall check, against the dense kernel's law
    for s in (1, 2, 3):
        h = random_hybrid(random.Random(s), 6, 5, aff_per_user=1)
        n_t = h.target.n
        for a, b in ((1.0, 1.0), (5.0, 0.2), (0.2, 5.0), (1e3, 1e-3)):
            alpha, beta = a * len(h.covered_targets()), b * h.auxiliary.n
            rows = hybrid_rows(h, alpha, beta)
            pi = stationary_solve(rows / rows.sum(axis=1, keepdims=True))
            share = samplers.target_share(fixed_weight_scheme(h, alpha, beta), n_t, alpha, beta)
            assert share == pytest.approx(pi[:n_t].sum(), rel=1e-9)
        # no jump mass: a walk started on the target never leaves it
        assert samplers.target_share(fixed_weight_scheme(h, 0.0, 1.0), n_t, 0.0, 1.0) == 1.0


# ------------------------------------------------------------ trace arrays

# Walk cases on one 2x500 network: (method, per-node alpha, per-node beta).
TRACE_CASES = [("SRW", 0, 0), ("RWT-VSA", 0, 0), ("RWT-VSA", 1, 0)] + [
    ("RWT-RWA", a, b) for a, b in ((0, 0), (0, 1), (1, 1), (1, 5))
]

# sha256 of the int64 nodes, float64 weights and bool jumped of each case's
# trace, recorded at seed version 3 (synthetic networks on numpy streams);
# the jumping RWT-RWA cases at seed version 5 (one walk on the hybrid graph).
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
    ("RWT-RWA", 1, 1):
        "4fdd927106131a05952039eccbb964ac21ebcc1c9da9e51075e43e4bdb2688f1",
    ("RWT-RWA", 1, 5):
        "e32ca48943a9fca446d6e845ef38e893834eeaff89b4c201eba337c355dcc469",
}


@pytest.fixture(scope="module")
def net_2x500():
    return build_synthetic_hybrid(
        SynthConfig(n_per_graph=500, m1=2, m2=3, m3=5, extra_pairs=1000, seed=11)
    )


def _case_trace(h, method, alpha, beta):
    """(nodes, weights, jumped) of the target visits of a 3000-step walk,
    and omega; alpha and beta are per node, as in experiment configs."""
    covered = h.covered_targets()
    alpha_total, beta_total = alpha * len(covered), beta * h.auxiliary.n
    start = covered[0]
    if method == "SRW":
        batch, omega = rwt_vsa_run(h.target, 3000, [start], [4]), np.zeros(h.target.n)
    elif method == "RWT-VSA":
        batch = rwt_vsa_run(h.target, 3000, [start], [4], jump_law(h, alpha_total))
        omega = alpha_total * jump_target_law(h, covered_uniform(h))
    else:
        q = np.zeros(h.target.n)
        q[covered] = 1.0 / len(covered)
        ws = fixed_weight_scheme(h, alpha_total, beta_total)
        batch, omega = rwt_rwa_run(h, ws, 3000, [start], [4]), alpha_total * q
    nodes, jumped = walk_visits(batch, 0)
    return (nodes, batch.weight[nodes], jumped), omega


@pytest.mark.parametrize("method,alpha,beta", TRACE_CASES)
def test_trace_weights_are_degree_plus_omega(net_2x500, method, alpha, beta):
    (nodes, weights, jumped), omega = _case_trace(net_2x500, method, alpha, beta)
    for i, x in enumerate(nodes):
        assert weights[i] == net_2x500.target.degrees[x] + float(omega[x])
    assert jumped.any() == (alpha > 0)


@pytest.mark.parametrize("method,alpha,beta", TRACE_CASES)
def test_traces_match_pinned_digests(net_2x500, method, alpha, beta):
    (nodes, weights, jumped), _ = _case_trace(net_2x500, method, alpha, beta)
    digest = hashlib.sha256(
        np.asarray(nodes, dtype=np.int64).tobytes()
        + np.asarray(weights, dtype=np.float64).tobytes()
        + np.asarray(jumped, dtype=bool).tobytes()
    ).hexdigest()
    assert digest == PINNED_TRACE_DIGESTS[(method, alpha, beta)]


# ------------------------------------------------------------ lockstep batches


def _case_run(h, method, alpha, beta, starts, seeds):
    """A 600-step lockstep batch of a TRACE_CASES case from ``starts`` on
    ``seeds``."""
    covered = h.covered_targets()
    alpha_total, beta_total = alpha * len(covered), beta * h.auxiliary.n
    if method == "SRW":
        return rwt_vsa_run(h.target, 600, starts, seeds)
    if method == "RWT-VSA":
        return rwt_vsa_run(h.target, 600, starts, seeds, jump_law(h, alpha_total))
    ws = fixed_weight_scheme(h, alpha_total, beta_total)
    return rwt_rwa_run(h, ws, 600, starts, seeds)


@pytest.mark.parametrize("method,alpha,beta", TRACE_CASES)
def test_batch_replication_equals_lone_run(net_2x500, monkeypatch, method, alpha, beta):
    # walk r reads only its own streams, a fixed count of uniforms a step,
    # so neither the batch nor the block length can move its trace
    covered = net_2x500.covered_targets()
    seeds = [101 + r for r in range(5)]
    starts = [covered[7 * r] for r in range(5)]
    runs = []  # at the default block and at 1 and 7
    for block in (samplers.BLOCK_STEPS, 1, 7):
        monkeypatch.setattr(samplers, "BLOCK_STEPS", block)
        runs.append(_case_run(net_2x500, method, alpha, beta, starts, seeds))
    monkeypatch.undo()
    for r in range(5):
        lone = _case_run(net_2x500, method, alpha, beta, [starts[r]], [seeds[r]])
        for batch in runs:
            assert np.array_equal(batch.nodes[:, r], lone.nodes[:, 0])
            assert np.array_equal(batch.flags[:, r], lone.flags[:, 0])
            assert np.array_equal(batch.weight, lone.weight)
            assert batch.queries[r] == lone.queries[0]


# sha256 of the int64 nodes and bool flags of a whole (600, 64) RWT-RWA
# batch, recorded at seed version 6; unlike the one-walk pins above, most
# of its steps mix several jumpers with graph moves on both sides.
PINNED_WIDE_BATCH_DIGESTS = {
    (1, 1): "f62a5087c5903f60a4a31f0761d8060bc6c2d690d1b04a253574a15ce827a2a0",
    (1, 5): "4448e72770782450041db822f42c1901b103f1919dc6df0c5eaad54563a14881",
}


@pytest.mark.parametrize("alpha,beta", sorted(PINNED_WIDE_BATCH_DIGESTS))
def test_rwt_rwa_wide_batch_matches_pinned_digest(net_2x500, alpha, beta):
    covered = net_2x500.covered_targets()
    starts = [covered[(7 * r) % len(covered)] for r in range(64)]
    batch = _case_run(net_2x500, "RWT-RWA", alpha, beta, starts, [101 + r for r in range(64)])
    assert batch.nodes.shape == (600, 64)
    digest = hashlib.sha256(batch.nodes.tobytes() + batch.flags.tobytes()).hexdigest()
    assert digest == PINNED_WIDE_BATCH_DIGESTS[(alpha, beta)]


def test_rwt_vsa_batch_error_names_node_and_replication():
    target = Graph(3, [(0, 1)])
    aux = Graph(1, [])
    aff = BipartiteGraph(3, 1, [(0, 0), (1, 0)])  # node 2 uncovered and isolated
    h = HybridNetwork(target, aux, aff)
    with pytest.raises(WalkError, match=r"replication 1: " + ABSORBING_2) as info:
        rwt_vsa_run(h.target, 10, [0, 2], [0, 1], jump_law(h, 1.0))
    assert info.value.replication == 1


@pytest.mark.parametrize("alpha", [0.0, 1.0])
def test_rwt_vsa_one_step_law_matches_kernel(alpha):
    # first transitions of many two-step walks against the dense kernel
    target = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    aux = Graph(2, [(0, 1)])
    aff = BipartiteGraph(4, 2, [(0, 0), (1, 0), (2, 1), (3, 1), (0, 1)])
    h = HybridNetwork(target, aux, aff)
    p = AuxDistribution(2)
    walks = 8000
    batch = rwt_vsa_run(h.target, 2, np.arange(walks) % 4, list(range(walks)), jump_law(h, alpha))
    counts = np.zeros((4, 4))
    np.add.at(counts, (batch.nodes[0], batch.nodes[1]), 1.0)
    P = rwt_vsa_transition_matrix(h, p, alpha)
    n_from = counts.sum(axis=1, keepdims=True)
    se = np.sqrt(n_from * P * (1.0 - P))
    assert (np.abs(counts - n_from * P) <= 5.0 * se).all()
    assert (batch.flags[1].sum() > 0) == (alpha > 0)
