import dataclasses
import math
import random
import sys

import numpy as np
import pytest

from helpers import (
    exact_vsa_expectations,
    hand_sample,
    label_table,
    one_walk,
    reference_theta,
    reference_walk_theta,
    three_user_hybrid,
    two_user_hybrid,
)
from hybridsample import estimators
from hybridsample.estimators import nrmse, vsa_theta_unknown_n, walk_theta
from hybridsample.graphs import LabelTable, degree_labels, ground_truth_theta
from hybridsample.samplers import (
    AuxDistribution,
    fixed_weight_scheme,
    harvest,
    jump_law,
    rwt_rwa_run,
    rwt_vsa_run,
    vs_a_collect,
)
from hybridsample.synth import SynthConfig, build_synthetic_hybrid


def make_sample(hybrid, venues, probs):
    """VsaSample for a fixed draw sequence (the enumeration oracle's path)."""
    return harvest(hybrid.affiliation, venues, [probs[v] for v in venues], [len(venues)])


# node 0 carries "a"; nodes 1 and 2 carry no label
LABEL_A_FIRST_USER = label_table([("a",), (), ()])


def constant_labels(n, label="a"):
    return label_table([(label,)] * n)


# ------------------------------------------------------------ exact expectations


def test_known_n_unbiased_two_user_enumeration():
    h = two_user_hybrid()
    probs = [0.5, 0.5]

    def estimate(seq):
        return vsa_theta_unknown_n(make_sample(h, seq, probs), 0, LABEL_A_FIRST_USER, n=2).theta_known_n.get("a", 0.0)

    for b_prime in (1, 2):
        expect = exact_vsa_expectations(h.affiliation, probs, LABEL_A_FIRST_USER, b_prime, estimate)
        assert expect == pytest.approx(0.5, abs=1e-12)


def test_known_n_all_one_label_expectation_is_one():
    h = three_user_hybrid()
    probs = [0.3, 0.7]

    def estimate(seq):
        return vsa_theta_unknown_n(make_sample(h, seq, probs), 0, constant_labels(3, "x"), n=3).theta_known_n.get("x", 0.0)

    expect = exact_vsa_expectations(h.affiliation, probs, constant_labels(3, "x"), 2, estimate)
    assert expect == pytest.approx(1.0, abs=1e-12)


def test_estimate_n_single_full_venue_exact():
    n = 7
    from hybridsample.graphs import BipartiteGraph, Graph, HybridNetwork

    h = HybridNetwork(Graph(n, [(0, 1)]), Graph(1, []), BipartiteGraph(n, 1, [(u, 0) for u in range(n)]))
    for b_prime in (1, 4):
        sample = vs_a_collect(h, AuxDistribution(1, [1.0]), b_prime, seeds=[0])
        assert vsa_theta_unknown_n(sample, 0, constant_labels(n)).n_hat == pytest.approx(n, abs=1e-12)


def test_estimate_n_three_user_enumeration():
    h = three_user_hybrid()
    probs = [0.5, 0.5]

    def estimate(seq):
        return vsa_theta_unknown_n(make_sample(h, seq, probs), 0, LABEL_A_FIRST_USER).n_hat

    for b_prime in (1, 2):
        expect = exact_vsa_expectations(h.affiliation, probs, None, b_prime, estimate)
        assert expect == pytest.approx(3.0, abs=1e-12)


def test_estimate_n_monte_carlo_synthetic():
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=300, m1=2, m2=3, m3=5, extra_pairs=300, seed=14))
    sample = vs_a_collect(h, AuxDistribution(h.auxiliary.n), 10_000, seeds=[5])
    covered = len(h.covered_targets())
    n_hat = vsa_theta_unknown_n(sample, 0, constant_labels(h.target.n)).n_hat
    assert n_hat == pytest.approx(covered, rel=0.05)


def test_exact_unbiasedness_five_venue_instance():
    from hybridsample.graphs import BipartiteGraph, Graph, HybridNetwork

    aff = BipartiteGraph(
        3, 5, [(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 3), (2, 4), (0, 4)]
    )
    h = HybridNetwork(Graph(3, [(0, 1), (1, 2)]), Graph(5, []), aff)
    probs = [0.1, 0.15, 0.2, 0.25, 0.3]
    theta_a_truth = 1 / 3

    def theta_of(seq):
        return vsa_theta_unknown_n(make_sample(h, seq, probs), 0, LABEL_A_FIRST_USER, n=3).theta_known_n.get("a", 0.0)

    def n_of(seq):
        return vsa_theta_unknown_n(make_sample(h, seq, probs), 0, LABEL_A_FIRST_USER).n_hat

    for b_prime in (1, 2):
        assert exact_vsa_expectations(aff, probs, None, b_prime, theta_of) == pytest.approx(
            theta_a_truth, abs=1e-12
        )
        assert exact_vsa_expectations(aff, probs, None, b_prime, n_of) == pytest.approx(3.0, abs=1e-12)


def test_duplicating_a_draw_blends_estimate():
    h = three_user_hybrid()
    probs = [0.4, 0.6]
    seq = [0, 1, 1]
    base = vsa_theta_unknown_n(make_sample(h, seq, probs), 0, LABEL_A_FIRST_USER, n=3).theta_known_n.get("a", 0.0)
    dup = vsa_theta_unknown_n(make_sample(h, seq + [0], probs), 0, LABEL_A_FIRST_USER, n=3).theta_known_n.get("a", 0.0)
    solo = vsa_theta_unknown_n(make_sample(h, [0], probs), 0, LABEL_A_FIRST_USER, n=3).theta_known_n.get("a", 0.0)
    assert dup == pytest.approx((3 * base + solo) / 4, abs=1e-12)


# ------------------------------------------------------------ ratio form


def test_unknown_n_equals_known_n_rescaled():
    h = three_user_hybrid()
    sample = vs_a_collect(h, AuxDistribution(2), 40, seeds=[3])
    labeler = LABEL_A_FIRST_USER
    ratio = vsa_theta_unknown_n(sample, 0, labeler, n=3)
    _, _, n_hat = reference_theta(sample, [("a",), (), ()], 3)
    assert ratio.n_hat == pytest.approx(n_hat, abs=1e-15)
    for l, v in ratio.theta.items():
        assert v == pytest.approx(ratio.theta_known_n[l] * 3 / n_hat, rel=1e-12)


def test_unknown_n_single_label_is_one():
    h = three_user_hybrid()
    sample = vs_a_collect(h, AuxDistribution(2), 5, seeds=[1])
    rep = vsa_theta_unknown_n(sample, 0, constant_labels(3, "z"))
    assert rep.theta == {"z": pytest.approx(1.0, abs=1e-12)}


def test_unknown_n_no_effective_samples():
    from hybridsample.graphs import BipartiteGraph, Graph, HybridNetwork

    h = HybridNetwork(Graph(1, []), Graph(1, []), BipartiteGraph(1, 1, []))
    sample = vs_a_collect(h, AuxDistribution(1), 3, seeds=[0])
    with pytest.raises(RuntimeError, match="no effective samples"):
        vsa_theta_unknown_n(sample, 0, constant_labels(1))


def test_unknown_n_error_shrinks_with_budget():
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=400, m1=2, m2=3, m3=5, extra_pairs=400, seed=4))
    truth = ground_truth_theta(degree_labels(h.target.degrees))
    labeler = degree_labels(h.target.degrees)
    p = AuxDistribution(h.auxiliary.n)

    def mean_abs_err(b_prime, runs=30):
        errs = []
        for r in range(runs):
            sample = vs_a_collect(h, p, b_prime, seeds=[1000 + r])
            rep = vsa_theta_unknown_n(sample, 0, labeler)
            errs.append(abs(rep.theta.get(2, 0.0) - truth[2]))
        return sum(errs) / len(errs)

    assert mean_abs_err(10_000) < mean_abs_err(100)


def test_unknown_n_scale_free_in_p():
    h = three_user_hybrid()
    sample = vs_a_collect(h, AuxDistribution(2, [0.25, 0.75]), 30, seeds=[6])
    scaled = dataclasses.replace(sample, p=sample.p * 3.0)
    a = vsa_theta_unknown_n(sample, 0, LABEL_A_FIRST_USER).theta
    b = vsa_theta_unknown_n(scaled, 0, LABEL_A_FIRST_USER).theta
    for l in a:
        assert a[l] == pytest.approx(b[l], rel=1e-12)


# ------------------------------------------------------------ walk estimator


def test_walk_theta_single_node():
    rep = walk_theta(one_walk([3], [1.0, 1.0, 1.0, 2.0]), 0, constant_labels(4))
    assert rep.theta == {"a": 1.0}


def test_walk_theta_uniform_weights_is_frequency():
    batch = one_walk([0, 1, 1, 2, 2, 2], [5.0] * 3)
    rep = walk_theta(batch, 0, label_table((u,) for u in range(3)))
    assert rep.theta == {0: pytest.approx(1 / 6), 1: pytest.approx(2 / 6), 2: pytest.approx(3 / 6)}


def _pooled_walk(batch, burn_in: int):
    """One walk of the visits of every walk of a lockstep batch after its
    first burn_in steps (walk_theta's sums do not depend on visit order)."""
    return one_walk(batch.nodes[burn_in:].ravel(), batch.weight)


def test_walk_theta_long_run_rwt_vsa():
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=10, m1=2, m2=3, m3=4, extra_pairs=12, seed=2))
    truth = ground_truth_theta(degree_labels(h.target.degrees))
    # 1000 lockstep walks, 50 from each node: 1e6 visits after burn-in
    walks = 1000
    batch = rwt_vsa_run(h.target, 1300, np.arange(walks) % h.target.n,
                        [17 + r for r in range(walks)], jump_law(h, 1.0))
    rep = walk_theta(_pooled_walk(batch, 300), 0, degree_labels(h.target.degrees))
    for l, t in truth.items():
        assert rep.theta.get(l, 0.0) == pytest.approx(t, abs=0.01)


def test_walk_theta_simple_rw_reweighted():
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=10, m1=2, m2=3, m3=4, extra_pairs=12, seed=2))
    # bridge makes the target connected, so the degree-weighted walk covers it
    truth = ground_truth_theta(degree_labels(h.target.degrees))
    # 1000 lockstep walks, 50 from each node: 1e6 visits after burn-in
    walks = 1000
    batch = rwt_vsa_run(h.target, 1300, np.arange(walks) % h.target.n,
                        [23 + r for r in range(walks)])
    rep = walk_theta(_pooled_walk(batch, 300), 0, degree_labels(h.target.degrees))
    for l, t in truth.items():
        assert rep.theta.get(l, 0.0) == pytest.approx(t, abs=0.01)


def test_walk_theta_counts_only_target_steps_of_rwt_rwa():
    # the hybrid walk's auxiliary steps are queries but not visits
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=10, m1=2, m2=3, m3=4, extra_pairs=12, seed=2))
    n_t = h.target.n
    ws = fixed_weight_scheme(h, 1.0 * len(h.covered_targets()), 1.0 * h.auxiliary.n)
    batch = rwt_rwa_run(h, ws, 500, [0, 3, 5], [1, 2, 3])
    rows = [(d,) for d in h.target.degrees.tolist()]
    for r in range(3):
        steps = batch.nodes[:, r]
        visits = steps[steps < n_t].tolist()
        rep = walk_theta(batch, r, degree_labels(h.target.degrees))
        assert rep.target_samples == (steps < n_t).sum() == len(visits) < 500
        assert rep.query_count == 500
        assert rep.theta == reference_walk_theta(visits, ws.total[visits].tolist(), rows)


def test_walk_theta_rejects_empty_and_bad_weights():
    with pytest.raises(ValueError, match="no target visit"):
        walk_theta(one_walk([], [1.0]), 0, constant_labels(1))
    with pytest.raises(ValueError, match="weight"):
        walk_theta(one_walk([0], [0.0]), 0, constant_labels(1))


def test_compensated_summation_matches_fsum():
    # visit weights over 18 orders of magnitude, on two labels: node x
    # carries "even" or "odd" by its parity
    rng = random.Random(9)
    weights = [10.0 ** rng.uniform(-6, 12) for _ in range(5000)]
    nodes = [rng.randrange(5000) for _ in weights]
    rep = walk_theta(one_walk(nodes, weights), 0, label_table([("even",), ("odd",)] * 2500))
    inv = [1.0 / weights[x] for x in nodes]
    for label, parity in (("even", 0), ("odd", 1)):
        want = math.fsum(t for t, x in zip(inv, nodes) if x % 2 == parity) / math.fsum(inv)
        assert rep.theta[label] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_walk_theta_rejects_nonfinite_weight_naming_node(bad):
    with pytest.raises(ValueError, match=f"visit weight {bad} at node 2"):
        walk_theta(one_walk([0, 2, 1], [1.0, 2.0, bad]), 0, constant_labels(3))


def test_vsa_zero_affiliation_degree_names_node():
    # the check must survive python -O, unlike an assert
    sample = hand_sample([(0, 0.5, (1, 2))], {1: 1, 2: 0})
    with pytest.raises(ValueError, match="harvested node 2 .*affiliation degree 0"):
        vsa_theta_unknown_n(sample, 0, constant_labels(3))


def _random_rows(rng, n):
    """Per-node label tuples: none, one or several labels of mixed types."""
    pool = ["a", "b", 3, 7, 12]
    return [tuple(rng.sample(pool, rng.choice((0, 1, 1, 2, 3)))) for _ in range(n)]


@pytest.mark.parametrize("trial", range(8))
def test_label_table_estimators_match_fsum_reference(trial):
    rng = random.Random(100 + trial)
    n = rng.randrange(1, 40)
    rows = _random_rows(rng, n)
    labels = label_table(rows)

    counts = {}
    for row in rows:
        for l in row:
            counts[l] = counts.get(l, 0) + 1
    assert ground_truth_theta(labels) == {l: c / n for l, c in counts.items()}

    steps = rng.randrange(1, 400)
    nodes = [rng.randrange(n) for _ in range(steps)]
    weight = [10.0 ** rng.uniform(-3, 9) for _ in range(n)]
    want = reference_walk_theta(nodes, [weight[x] for x in nodes], rows)
    assert walk_theta(one_walk(nodes, weight), 0, labels).theta == want

    draws = [
        (v, rng.uniform(1e-4, 1.0), tuple(rng.sample(range(n), rng.randrange(min(n, 5) + 1))))
        for v in range(rng.randrange(1, 60))
    ]
    draws.append((0, 0.3, (0,)))  # at least one harvested user
    degree = {u: rng.randrange(1, 9) for u in range(n)}
    sample = hand_sample(draws, degree)
    theta, known, n_hat = reference_theta(sample, rows, n)
    rep = vsa_theta_unknown_n(sample, 0, labels, n=n)
    assert (rep.theta, rep.theta_known_n, rep.n_hat) == (theta, known, n_hat)


def _fsum_by_label(rows, nodes, terms):
    """_label_sums one group at a time: ({label: math.fsum of the terms of
    the nodes carrying it}, math.fsum of every term)."""
    groups: dict = {}
    for x, t in zip(nodes, terms):
        for l in rows[x]:
            groups.setdefault(l, []).append(t)
    return {l: math.fsum(g) for l, g in groups.items()}, math.fsum(terms)


def _spread_terms(rng, size):
    """size finite terms >= 0 in a random band of magnitudes within 1e-320
    to 1e300, a tenth of them zeros or subnormals."""
    lo = rng.uniform(-320, 300)
    hi = rng.uniform(lo, 300)
    terms = [10.0 ** rng.uniform(lo, hi) for _ in range(size)]
    for i in rng.sample(range(size), size // 10):
        terms[i] = rng.choice((0.0, rng.randrange(1, 2 ** 52) * 5e-324))
    return terms


# both paths of _label_sums: limbs for every size, or the sort for every size
BOTH_PATHS = pytest.mark.parametrize("limb_min", [1, sys.maxsize], ids=["limbs", "sort"])


@BOTH_PATHS
@pytest.mark.parametrize("trial", range(24))
def test_label_sums_equal_fsum_per_label(monkeypatch, trial, limb_min):
    monkeypatch.setattr(estimators, "LIMB_SUMS_MIN", limb_min)
    rng = random.Random(500 + trial)
    n = rng.randrange(1, 60)
    rows = _random_rows(rng, n) if trial % 4 else [()] * n  # every fourth unlabelled
    nodes = [rng.randrange(n) for _ in range(rng.randrange(1, 1500))]
    terms = _spread_terms(rng, len(nodes))
    got = estimators._label_sums(label_table(rows), np.array(nodes), np.array(terms))
    assert got == _fsum_by_label(rows, nodes, terms)


@BOTH_PATHS
def test_label_sums_near_the_float_limit_match_fsum(monkeypatch, limb_min):
    monkeypatch.setattr(estimators, "LIMB_SUMS_MIN", limb_min)
    rows = [("a",), ("b",)]
    labels = label_table(rows)
    # a finite sum over a term near the largest float
    nodes, terms = [0] * 999 + [1], [1.0] * 999 + [1.7e308]
    got = estimators._label_sums(labels, np.array(nodes), np.array(terms))
    assert got == _fsum_by_label(rows, nodes, terms)
    # a label's sum, or only the total, overflows: OverflowError, never inf
    # (terms this close to the limit take the sort path whatever the size)
    for nodes, terms in (([0] * 600, [1e306] * 600), ([0, 1] * 300, [5e305] * 600)):
        with pytest.raises(OverflowError):
            _fsum_by_label(rows, nodes, terms)
        with pytest.raises(OverflowError):
            estimators._label_sums(labels, np.array(nodes), np.array(terms))


@BOTH_PATHS
def test_zero_slot_before_a_label_adds_to_no_label(monkeypatch, limb_min):
    monkeypatch.setattr(estimators, "LIMB_SUMS_MIN", limb_min)
    # node 0's first slot is empty and its second holds "a", a gap that no
    # per-node list of codes can give: node 0 carries "a" alone
    gap = LabelTable([[0, 1, 2], [1, 0, 0]], ["a", "b"])
    same = label_table([("a",), ("a",), ("b",)])
    assert ground_truth_theta(gap) == ground_truth_theta(same) == {"a": 2 / 3, "b": 1 / 3}
    nodes, terms = np.array([0, 0, 1, 2]), np.array([1.0, 2.0, 4.0, 8.0])
    assert estimators._label_sums(gap, nodes, terms) == ({"a": 7.0, "b": 8.0}, 15.0)


# ------------------------------------------------------------ NRMSE


def test_nrmse_hand_cases():
    assert nrmse([0.3, 0.3], 0.3) == 0.0
    assert nrmse([0.6], 0.3) == pytest.approx(1.0)
    th = 0.4
    assert nrmse([0.8 * th, 1.2 * th], th) == pytest.approx(0.2, abs=1e-12)


def test_nrmse_zero_truth_rejected():
    with pytest.raises(ValueError, match="zero-mass label"):
        nrmse([0.1], 0.0)
    with pytest.raises(ValueError):
        nrmse([], 0.5)
