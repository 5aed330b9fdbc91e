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
    WalkBatch,
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
        return vsa_theta_unknown_n(make_sample(h, seq, probs), LABEL_A_FIRST_USER, n=2).theta_of(0, known_n=True).get("a", 0.0)

    for b_prime in (1, 2):
        expect = exact_vsa_expectations(h.affiliation, probs, LABEL_A_FIRST_USER, b_prime, estimate)
        assert expect == pytest.approx(0.5, abs=1e-12)


def test_known_n_all_one_label_expectation_is_one():
    h = three_user_hybrid()
    probs = [0.3, 0.7]

    def estimate(seq):
        return vsa_theta_unknown_n(make_sample(h, seq, probs), constant_labels(3, "x"), n=3).theta_of(0, known_n=True).get("x", 0.0)

    expect = exact_vsa_expectations(h.affiliation, probs, constant_labels(3, "x"), 2, estimate)
    assert expect == pytest.approx(1.0, abs=1e-12)


def test_estimate_n_single_full_venue_exact():
    n = 7
    from hybridsample.graphs import BipartiteGraph, Graph, HybridNetwork

    h = HybridNetwork(Graph(n, [(0, 1)]), Graph(1, []), BipartiteGraph(n, 1, [(u, 0) for u in range(n)]))
    for b_prime in (1, 4):
        sample = vs_a_collect(h, AuxDistribution(1, [1.0]), b_prime, seeds=[0])
        assert vsa_theta_unknown_n(sample, constant_labels(n)).n_hat[0] == pytest.approx(n, abs=1e-12)


def test_estimate_n_three_user_enumeration():
    h = three_user_hybrid()
    probs = [0.5, 0.5]

    def estimate(seq):
        return vsa_theta_unknown_n(make_sample(h, seq, probs), LABEL_A_FIRST_USER).n_hat[0]

    for b_prime in (1, 2):
        expect = exact_vsa_expectations(h.affiliation, probs, None, b_prime, estimate)
        assert expect == pytest.approx(3.0, abs=1e-12)


def test_estimate_n_monte_carlo_synthetic():
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=300, m1=2, m2=3, m3=5, extra_pairs=300, seed=14))
    sample = vs_a_collect(h, AuxDistribution(h.auxiliary.n), 10_000, seeds=[5])
    covered = len(h.covered_targets())
    n_hat = vsa_theta_unknown_n(sample, constant_labels(h.target.n)).n_hat[0]
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
        return vsa_theta_unknown_n(make_sample(h, seq, probs), LABEL_A_FIRST_USER, n=3).theta_of(0, known_n=True).get("a", 0.0)

    def n_of(seq):
        return vsa_theta_unknown_n(make_sample(h, seq, probs), LABEL_A_FIRST_USER).n_hat[0]

    for b_prime in (1, 2):
        assert exact_vsa_expectations(aff, probs, None, b_prime, theta_of) == pytest.approx(
            theta_a_truth, abs=1e-12
        )
        assert exact_vsa_expectations(aff, probs, None, b_prime, n_of) == pytest.approx(3.0, abs=1e-12)


def test_duplicating_a_draw_blends_estimate():
    h = three_user_hybrid()
    probs = [0.4, 0.6]
    seq = [0, 1, 1]
    base = vsa_theta_unknown_n(make_sample(h, seq, probs), LABEL_A_FIRST_USER, n=3).theta_of(0, known_n=True).get("a", 0.0)
    dup = vsa_theta_unknown_n(make_sample(h, seq + [0], probs), LABEL_A_FIRST_USER, n=3).theta_of(0, known_n=True).get("a", 0.0)
    solo = vsa_theta_unknown_n(make_sample(h, [0], probs), LABEL_A_FIRST_USER, n=3).theta_of(0, known_n=True).get("a", 0.0)
    assert dup == pytest.approx((3 * base + solo) / 4, abs=1e-12)


# ------------------------------------------------------------ ratio form


def test_unknown_n_equals_known_n_rescaled():
    h = three_user_hybrid()
    sample = vs_a_collect(h, AuxDistribution(2), 40, seeds=[3])
    labeler = LABEL_A_FIRST_USER
    ratio = vsa_theta_unknown_n(sample, labeler, n=3)
    _, _, n_hat = reference_theta(sample, [("a",), (), ()], 3)
    assert ratio.n_hat[0] == pytest.approx(n_hat, abs=1e-15)
    known = ratio.theta_of(0, known_n=True)
    for l, v in ratio.theta_of(0).items():
        assert v == pytest.approx(known[l] * 3 / n_hat, rel=1e-12)


def test_unknown_n_single_label_is_one():
    h = three_user_hybrid()
    sample = vs_a_collect(h, AuxDistribution(2), 5, seeds=[1])
    rep = vsa_theta_unknown_n(sample, constant_labels(3, "z"))
    assert rep.theta_of(0) == {"z": pytest.approx(1.0, abs=1e-12)}


def test_unknown_n_no_effective_samples():
    from hybridsample.graphs import BipartiteGraph, Graph, HybridNetwork

    h = HybridNetwork(Graph(1, []), Graph(1, []), BipartiteGraph(1, 1, []))
    sample = vs_a_collect(h, AuxDistribution(1), 3, seeds=[0])
    with pytest.raises(RuntimeError, match="no effective samples"):
        vsa_theta_unknown_n(sample, constant_labels(1))


def test_unknown_n_error_shrinks_with_budget():
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=400, m1=2, m2=3, m3=5, extra_pairs=400, seed=4))
    truth = ground_truth_theta(degree_labels(h.target.degrees))
    labeler = degree_labels(h.target.degrees)
    p = AuxDistribution(h.auxiliary.n)

    def mean_abs_err(b_prime, runs=30):
        errs = []
        for r in range(runs):
            sample = vs_a_collect(h, p, b_prime, seeds=[1000 + r])
            rep = vsa_theta_unknown_n(sample, labeler)
            errs.append(abs(rep.theta_of(0).get(2, 0.0) - truth[2]))
        return sum(errs) / len(errs)

    assert mean_abs_err(10_000) < mean_abs_err(100)


def test_unknown_n_scale_free_in_p():
    h = three_user_hybrid()
    sample = vs_a_collect(h, AuxDistribution(2, [0.25, 0.75]), 30, seeds=[6])
    scaled = dataclasses.replace(sample, p=sample.p * 3.0)
    a = vsa_theta_unknown_n(sample, LABEL_A_FIRST_USER).theta_of(0)
    b = vsa_theta_unknown_n(scaled, LABEL_A_FIRST_USER).theta_of(0)
    for l in a:
        assert a[l] == pytest.approx(b[l], rel=1e-12)


# ------------------------------------------------------------ walk estimator


def test_walk_theta_single_node():
    rep = walk_theta(one_walk([3], [1.0, 1.0, 1.0, 2.0]), constant_labels(4))
    assert rep.theta_of(0) == {"a": 1.0}


def test_walk_theta_uniform_weights_is_frequency():
    batch = one_walk([0, 1, 1, 2, 2, 2], [5.0] * 3)
    rep = walk_theta(batch, label_table((u,) for u in range(3)))
    assert rep.theta_of(0) == {0: pytest.approx(1 / 6), 1: pytest.approx(2 / 6), 2: pytest.approx(3 / 6)}


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
    rep = walk_theta(_pooled_walk(batch, 300), degree_labels(h.target.degrees)).theta_of(0)
    for l, t in truth.items():
        assert rep.get(l, 0.0) == pytest.approx(t, abs=0.01)


def test_walk_theta_simple_rw_reweighted():
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=10, m1=2, m2=3, m3=4, extra_pairs=12, seed=2))
    # bridge makes the target connected, so the degree-weighted walk covers it
    truth = ground_truth_theta(degree_labels(h.target.degrees))
    # 1000 lockstep walks, 50 from each node: 1e6 visits after burn-in
    walks = 1000
    batch = rwt_vsa_run(h.target, 1300, np.arange(walks) % h.target.n,
                        [23 + r for r in range(walks)])
    rep = walk_theta(_pooled_walk(batch, 300), degree_labels(h.target.degrees)).theta_of(0)
    for l, t in truth.items():
        assert rep.get(l, 0.0) == pytest.approx(t, abs=0.01)


def test_walk_theta_counts_only_target_steps_of_rwt_rwa():
    # the hybrid walk's auxiliary steps are queries but not visits
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=10, m1=2, m2=3, m3=4, extra_pairs=12, seed=2))
    n_t = h.target.n
    ws = fixed_weight_scheme(h, 1.0 * len(h.covered_targets()), 1.0 * h.auxiliary.n)
    batch = rwt_rwa_run(h, ws, 500, [0, 3, 5], [1, 2, 3])
    rows = [(d,) for d in h.target.degrees.tolist()]
    est = walk_theta(batch, degree_labels(h.target.degrees))
    for r in range(3):
        steps = batch.nodes[:, r]
        visits = steps[steps < n_t].tolist()
        assert est.target_samples[r] == (steps < n_t).sum() == len(visits) < 500
        assert est.query_count[r] == 500
        assert est.theta_of(r) == reference_walk_theta(visits, ws.total[visits].tolist(), rows)


def test_walk_theta_rejects_empty_and_bad_weights():
    with pytest.raises(ValueError, match="no target visit"):
        walk_theta(one_walk([], [1.0]), constant_labels(1))
    with pytest.raises(ValueError, match="weight"):
        walk_theta(one_walk([0], [0.0]), constant_labels(1))


def test_compensated_summation_matches_fsum():
    # visit weights over 18 orders of magnitude, on two labels: node x
    # carries "even" or "odd" by its parity
    rng = random.Random(9)
    weights = [10.0 ** rng.uniform(-6, 12) for _ in range(5000)]
    nodes = [rng.randrange(5000) for _ in weights]
    rep = walk_theta(one_walk(nodes, weights), label_table([("even",), ("odd",)] * 2500))
    inv = [1.0 / weights[x] for x in nodes]
    for label, parity in (("even", 0), ("odd", 1)):
        want = math.fsum(t for t, x in zip(inv, nodes) if x % 2 == parity) / math.fsum(inv)
        assert rep.theta_of(0)[label] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_walk_theta_rejects_nonfinite_weight_naming_node(bad):
    with pytest.raises(ValueError, match=f"visit weight {bad} at node 2"):
        walk_theta(one_walk([0, 2, 1], [1.0, 2.0, bad]), constant_labels(3))


def test_vsa_zero_affiliation_degree_names_node():
    # the check must survive python -O, unlike an assert
    sample = hand_sample([(0, 0.5, (1, 2))], {1: 1, 2: 0})
    with pytest.raises(ValueError, match="harvested node 2 .*affiliation degree 0"):
        vsa_theta_unknown_n(sample, constant_labels(3))


def test_first_failing_replication_raises_marked_with_its_row():
    def sample(*draws):  # one draw per replication; user 9's degree is 0
        return dataclasses.replace(hand_sample(draws, {1: 1, 2: 1, 9: 0}), queries=[1] * len(draws))

    labels = constant_labels(10)
    with pytest.raises(ValueError, match="^harvested node 9 recorded with affiliation degree 0") as exc:
        vsa_theta_unknown_n(sample((0, 0.5, (1,)), (1, 0.5, (2, 9)), (0, 0.5, ())), labels)
    assert exc.value.replication == 1
    # an empty replication before the bad degree raises first
    with pytest.raises(RuntimeError, match="^no effective samples") as exc:
        vsa_theta_unknown_n(sample((0, 0.5, (1,)), (0, 0.5, ()), (1, 0.5, (9,))), labels)
    assert exc.value.replication == 1
    # walk 1 of three never visits the target (nodes 0 and 1)
    nodes = np.array([[0, 5, 1], [1, 5, 5]])
    with pytest.raises(ValueError, match="^walk 1 has no target visit$") as exc:
        walk_theta(WalkBatch(nodes, np.zeros(nodes.shape, dtype=bool), np.ones(2), [2] * 3, 2), labels)
    assert exc.value.replication == 1


def test_batch_estimate_refuses_a_bad_theta_naming_label_and_row():
    theta = np.array([[0.5, 0.5], [-0.0, math.nan]])
    with pytest.raises(ValueError, match=r"^estimate theta\['b'\]=nan must be finite and >= 0$") as exc:
        estimators.BatchEstimate(["a", "b"], theta, theta >= 0.0, np.ones(2), np.ones(2))
    assert exc.value.replication == 1


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
    assert walk_theta(one_walk(nodes, weight), labels).theta_of(0) == want

    draws = [
        (v, rng.uniform(1e-4, 1.0), tuple(rng.sample(range(n), rng.randrange(min(n, 5) + 1))))
        for v in range(rng.randrange(1, 60))
    ]
    draws.append((0, 0.3, (0,)))  # at least one harvested user
    degree = {u: rng.randrange(1, 9) for u in range(n)}
    sample = hand_sample(draws, degree)
    theta, known, n_hat = reference_theta(sample, rows, n)
    rep = vsa_theta_unknown_n(sample, labels, n=n)
    assert (rep.theta_of(0), rep.theta_of(0, known_n=True), rep.n_hat[0]) == (theta, known, n_hat)


def _fsum_by_label(rows, nodes, terms):
    """_label_sums of one group by math.fsum: ({label: math.fsum of the
    terms of the nodes carrying it}, math.fsum of every term)."""
    groups: dict = {}
    for x, t in zip(nodes, terms):
        for l in rows[x]:
            groups.setdefault(l, []).append(t)
    return {l: math.fsum(g) for l, g in groups.items()}, math.fsum(terms)


def _fsum_by_group(rows, nodes, terms, groups, count):
    """_fsum_by_label of each group g < count, the terms i of groups[i] == g."""
    return [_fsum_by_label(rows, [x for x, h in zip(nodes, groups) if h == g],
                           [t for t, h in zip(terms, groups) if h == g]) for g in range(count)]


def _label_sums(labels, nodes, terms, groups=None, count=1):
    """estimators._label_sums in _fsum_by_group's form: per group, the sums
    of the labels it counted and its total."""
    if groups is not None:
        groups = np.array(groups, dtype=np.int64)
    sums, counts, totals = estimators._label_sums(labels, np.array(nodes, dtype=np.int64),
                                                  np.array(terms, dtype=float), groups, count)
    return [({l: s for l, s, k in zip(labels.values, row, seen) if k}, total)
            for row, seen, total in zip(sums.tolist(), counts.tolist(), totals.tolist())]


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
    # R groups, one of them empty; every fourth trial's nodes are all
    # unlabelled, and the others' random rows leave some nodes unlabelled
    monkeypatch.setattr(estimators, "LIMB_SUMS_MIN", limb_min)
    rng = random.Random(500 + trial)
    n = rng.randrange(1, 60)
    rows = _random_rows(rng, n) if trial % 4 else [()] * n
    nodes = [rng.randrange(n) for _ in range(rng.randrange(1, 1500))]
    terms = _spread_terms(rng, len(nodes))
    count = rng.randrange(1, 6) + 1
    empty = rng.randrange(count)
    groups = [rng.choice([g for g in range(count) if g != empty]) for _ in nodes]
    labels = label_table(rows)
    assert _label_sums(labels, nodes, terms, groups, count) == _fsum_by_group(rows, nodes, terms, groups, count)
    assert _label_sums(labels, nodes, terms) == [_fsum_by_label(rows, nodes, terms)]


def test_label_sums_past_two_limbs_take_fsum(monkeypatch):
    # group 1's terms span 1e-300 to 1e300 (subnormals too), so its cells
    # have more than two nonzero limb sums and take math.fsum of them
    monkeypatch.setattr(estimators, "LIMB_SUMS_MIN", 1)
    rng = random.Random(8)
    rows = [("a",), ("b",), ("a", "b"), ()]
    nodes = [rng.randrange(4) for _ in range(400)]
    groups = [i % 2 for i in range(400)]
    terms = [rng.uniform(1.0, 2.0) if g == 0 else rng.choice((1e300, 1.0, 1e-300, 3e-310)) * rng.uniform(1, 2)
             for g in groups]
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: calls.append(1) or fsum(xs))
    got = _label_sums(label_table(rows), nodes, terms, groups, 2)
    assert len(calls) >= 3  # group 1's "a", "b" and total at least
    monkeypatch.setattr(math, "fsum", fsum)
    assert got == _fsum_by_group(rows, nodes, terms, groups, 2)


@BOTH_PATHS
def test_label_sums_near_the_float_limit_match_fsum(monkeypatch, limb_min):
    monkeypatch.setattr(estimators, "LIMB_SUMS_MIN", limb_min)
    rows = [("a",), ("b",)]
    labels = label_table(rows)
    # a finite sum over a term near the largest float
    nodes, terms = [0] * 999 + [1], [1.0] * 999 + [1.7e308]
    assert _label_sums(labels, nodes, terms) == [_fsum_by_label(rows, nodes, terms)]
    # a label's sum, or only the total, overflows: OverflowError, never inf
    # (terms this close to the limit take the sort path whatever the size),
    # naming the first group that overflows
    for nodes, terms in (([0] * 600, [1e306] * 600), ([0, 1] * 300, [5e305] * 600)):
        with pytest.raises(OverflowError):
            _fsum_by_label(rows, nodes, terms)
        with pytest.raises(OverflowError) as exc:
            _label_sums(labels, [1] * 10 + nodes, [1.0] * 10 + terms, [0] * 10 + [1] * 600, 3)
        assert exc.value.replication == 1


@BOTH_PATHS
def test_zero_slot_before_a_label_adds_to_no_label(monkeypatch, limb_min):
    monkeypatch.setattr(estimators, "LIMB_SUMS_MIN", limb_min)
    # node 0's first slot is empty and its second holds "a", a gap that no
    # per-node list of codes can give: node 0 carries "a" alone
    gap = LabelTable([[0, 1, 2], [1, 0, 0]], ["a", "b"])
    same = label_table([("a",), ("a",), ("b",)])
    assert ground_truth_theta(gap) == ground_truth_theta(same) == {"a": 2 / 3, "b": 1 / 3}
    nodes, terms = np.array([0, 0, 1, 2]), np.array([1.0, 2.0, 4.0, 8.0])
    assert _label_sums(gap, nodes, terms) == [({"a": 7.0, "b": 8.0}, 15.0)]


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


def _nrmse_by_column(table, truths):
    """nrmse one column at a time, as Python floats: (e - truth) ** 2 is
    libm pow, and each sum one math.fsum."""
    runs = len(table)
    return [(math.fsum((row[c] - t) ** 2 for row in table) / runs) ** 0.5 / t
            for c, t in enumerate(truths)]


def test_nrmse_squares_are_python_pow():
    # errors whose exact squares are midpoints between floats (a 27-bit odd
    # mantissa squares to 54 bits), random ones, of which about one in 1250
    # squares differently under x * x than under pow, tiny and subnormal
    # ones past Dekker's split, and zero estimates
    rng = random.Random(3)
    mids = [(rng.randrange(2 ** 26, 2 ** 27) | 1) * 2.0 ** -27 for _ in range(300)]
    table = [[1.0 + m, rng.uniform(0.0, 1.0), rng.choice((0.0, 0.3 + 1e-300, 0.3 + 5e-324)),
              rng.uniform(0.0, 2e-150)] for m in mids]
    truths = [1.0, 0.4, 0.3, 1e-150]
    assert nrmse(np.array(table), truths).tolist() == _nrmse_by_column(table, truths)
    for c, t in enumerate(truths):
        column = [row[c] for row in table]
        assert nrmse(column, t) == _nrmse_by_column([[e] for e in column], [t])[0]
    d = np.array(mids + [rng.uniform(-1, 1) for _ in range(20000)] + [3e-310, -2.0 ** -500])
    want = [x ** 2 for x in d.tolist()]
    assert (d * d != want).any()
    assert estimators._squares(d).tolist() == want
    # a square past the largest float raises, as Python's power does, and
    # only where an error is that large
    with pytest.raises(OverflowError):
        nrmse([1e200], 1.0)
    assert nrmse([1e200, 1e200], 1e200) == 0.0
