"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Everything is seeded; reruns are bit-identical.
"""

import itertools
import random
import time

import numpy as np
import pytest

from helpers import (
    by_label,
    enumerate_bipartite,
    hybrid_rows,
    label_table,
    labels_of,
    random_hybrid,
    rrzi_exact_probabilities,
    rwt_vsa_transition_matrix,
    stationary_rwt_vsa,
    stationary_solve,
    three_user_hybrid,
    venues,
    walk_visits,
    zoom_in_distribution,
)
from hybridsample import experiment as ex
from hybridsample.estimators import vsa_theta_unknown_n
from hybridsample.geo import Region, zoom_in_law
from hybridsample.samplers import (
    AuxDistribution,
    VsaSample,
    fixed_weight_scheme,
    harvest,
    jump_law,
    rwt_rwa_run,
    rwt_vsa_run,
    vs_a_collect,
)
from hybridsample.seeds import replication_seeds
from hybridsample.synth import SynthConfig, build_synthetic_hybrid

MASTER_SEED = 1
DESK = dict(n_per_graph=10_000, m1=2, m2=5, m3=10, extra_pairs=20_000)


def report(num, detail, elapsed, limit):
    print(f"criterion {num} PASS: {detail} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its runtime limit"


# --------------------------------------------------------------------------- 1


def _mixed_labels(n):
    """Even nodes carry ("a", "x"), odd nodes ("b", "x")."""
    return label_table(("a", "x") if u % 2 == 0 else ("b", "x") for u in range(n))


def _expected_estimates(neighbor_sets, n_a, probs, labels, b_prime):
    """(E[known-n theta_hat per label], E[n_hat]) by exhaustive enumeration
    of the p-weighted draw sequences, evaluating the real estimator on the
    sample of every sequence.

    A draw of venue v harvests the users whose venue set in
    ``neighbor_sets`` holds v, each recorded with its set size as degree.
    A sequence that harvests no user estimates 0, n_hat too; the draws of
    all the others are one sample, the s-th of them its replication s,
    draws s*B'..(s+1)*B'-1, and one estimator call estimates them all.
    """
    n_t = len(neighbor_sets)
    users_of = [[u for u in range(n_t) if v in neighbor_sets[u]] for v in range(n_a)]
    weights = {}
    for seq in itertools.product(range(n_a), repeat=b_prime):
        weight = 1.0
        for v in seq:
            weight *= probs[v]
        if weight != 0.0 and any(users_of[v] for v in seq):
            weights[seq] = weight
    if not weights:
        return {}, 0.0
    flat = [v for seq in weights for v in seq]
    users = [u for v in flat for u in users_of[v]]
    offsets = list(itertools.accumulate((len(users_of[v]) for v in flat), initial=0))
    sample = VsaSample(np.array(flat, dtype=np.int64), np.array([probs[v] for v in flat]),
                       np.array(offsets, dtype=np.int64), np.array(users, dtype=np.int64),
                       np.array([len(neighbor_sets[u]) for u in users], dtype=np.int64),
                       [b_prime] * len(weights))
    est = vsa_theta_unknown_n(sample, labels, n=n_t)
    # an unseen label's known-n estimate is 0.0, adding nothing
    w = np.array(list(weights.values()))
    return dict(zip(est.labels, (w @ est.theta_known_n).tolist())), float(w @ est.n_hat)


def test_criterion_1_exact_unbiasedness():
    t0 = time.time()
    checked = 0
    shapes_full = [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3)]
    shapes_partial = [(3, 2), (2, 3)]

    for n_t, n_a in shapes_full:
        nonuniform = [i + 1 for i in range(n_a)]
        total = sum(nonuniform)
        p_vectors = [[1.0 / n_a] * n_a, [x / total for x in nonuniform]]
        big = (n_t, n_a) == (4, 3)
        labels = _mixed_labels(n_t)
        truth = {}
        for u in range(n_t):
            for l in labels_of(labels, u):
                truth[l] = truth.get(l, 0.0) + 1.0 / n_t
        for gi, neighbor_sets in enumerate(enumerate_bipartite(n_t, n_a, full_coverage=True)):
            probs_list = p_vectors if not big else p_vectors[:1]
            bps = (1, 2) if not big else ((1, 2) if gi % 8 == 0 else (1,))
            for probs in probs_list:
                for b_prime in bps:
                    e_theta, e_n = _expected_estimates(neighbor_sets, n_a, probs, labels, b_prime)
                    for label, t in truth.items():
                        assert abs(e_theta.get(label, 0.0) - t) < 1e-12
                    assert abs(e_n - n_t) < 1e-12  # full coverage
                    checked += 1

    # partial coverage: labels live only on covered nodes, n-hat counts coverage
    for n_t, n_a in shapes_partial:
        probs = [1.0 / n_a] * n_a
        for neighbor_sets in enumerate_bipartite(n_t, n_a, full_coverage=False):
            covered = frozenset(u for u, vs in enumerate(neighbor_sets) if vs)

            labels = label_table(
                ("a",) if (u in covered and u % 2 == 0) else () for u in range(n_t)
            )

            truth_a = sum(1.0 for u in covered if u % 2 == 0) / n_t
            for b_prime in (1, 2):
                e_theta, e_n = _expected_estimates(neighbor_sets, n_a, probs, labels, b_prime)
                assert abs(e_theta.get("a", 0.0) - truth_a) < 1e-12
                assert abs(e_n - len(covered)) < 1e-12
            checked += 1

    report(1, f"exact expectations on {checked} instance configurations", time.time() - t0, 1.0)


# --------------------------------------------------------------------------- 2


def test_criterion_2_detailed_balance():
    t0 = time.time()
    rng = random.Random(404)
    worst = 0.0
    for _ in range(10):
        h = random_hybrid(rng, rng.randrange(5, 51), rng.randrange(3, 13))
        p = AuxDistribution(h.auxiliary.n)
        for alpha in (0.1, 1.0, 10.0):
            P = rwt_vsa_transition_matrix(h, p, alpha)
            pi = stationary_rwt_vsa(h, p, alpha)
            F = pi[:, None] * P
            worst = max(worst, float(np.abs(F - F.T).max()))
    assert worst < 1e-10
    report(2, f"max detailed-balance residual {worst:.2e} over 10 hybrids x 3 alphas", time.time() - t0, 5.0)


# --------------------------------------------------------------------------- 3


def _row_units(h, alpha, beta):
    """Edge units of the hybrid rows: 1 on the target, k = alpha/beta on the
    auxiliary side."""
    return np.concatenate((np.ones(h.target.n), np.full(h.auxiliary.n, alpha / beta)))


def _jump_shares(h, ws):
    """Each hybrid row's law given a jump, read from the walk's tables:
    entry j of row z weighs its key width, up to the next key or, after the
    row's last entry, 2z + 1, and leads to ``dest[j]``."""
    aff = h.affiliation
    n = h.target.n + h.auxiliary.n
    ptr = np.concatenate((aff.left_indptr, aff.num_edges + aff.right_indptr[1:]))
    shares = np.zeros((n, n))
    for z in range(n):
        a, b = ptr[z], ptr[z + 1]
        np.add.at(shares[z], ws.dest[a:b], np.diff(ws.key[a:b], append=2.0 * z + 1))
    return shares


def test_criterion_3_hybrid_weight_system():
    t0 = time.time()
    rng = random.Random(505)
    worst = {False: 0.0, True: 0.0}
    for i in range(10):
        h = random_hybrid(rng, rng.randrange(20, 101), rng.randrange(10, 101))
        n_t, n_a = h.target.n, h.auxiliary.n
        # four total masses, then (1e8, 1e-8) per node (every node is covered)
        extreme = i % 5 == 4
        alpha, beta = ((0.5, 2.0), (1.0, 0.7), (3.0, 1.0), (7.0, 0.1), (1e8 * n_t, 1e-8 * n_a))[i % 5]
        ws = fixed_weight_scheme(h, alpha, beta)
        rows = hybrid_rows(h, alpha, beta)
        cross = rows.copy()
        cross[:n_t, :n_t] = cross[n_t:, n_t:] = 0.0
        # each row's law given a jump: the walk's key widths against the oracle
        shares = _jump_shares(h, ws)
        residuals = [np.abs(shares - cross / cross.sum(axis=1, keepdims=True)).max()]
        # the weights the walk picks from: u * total[z], jumping at or above deg[z]
        jump = ws.total - ws.deg
        walk = rows - cross + shares * jump[:, None]
        unit = _row_units(h, alpha, beta)
        if extreme:
            # weights reach 1e16 and an auxiliary row's jump mass falls below
            # ulp(deg), where total - deg keeps it to about 1e-7 of itself:
            # measure in units of each row's, each side's and the stationary
            # flow's total weight, the errors of the walk's law
            row_unit, sides, flow = ws.total, (ws.total[:n_t].sum(), ws.total[n_t:].sum()), (unit * ws.total).sum()
        else:
            row_unit, sides, flow = 1.0, (1.0, 1.0), 1.0
        residuals.append((np.abs(walk - rows).max(axis=1) / row_unit).max())
        # each side's jump mass, in its own edge units
        residuals += [abs(jump[:n_t].sum() - alpha) / sides[0], abs(jump[n_t:].sum() - beta) / sides[1]]
        # symmetric weights in common units, so pi = unit * total is stationary
        weights = unit[:, None] * walk / flow
        residuals.append(np.abs(weights - weights.T).max())
        pi = unit * ws.total / (unit * ws.total).sum()
        residuals.append(np.abs(pi @ (walk / ws.total[:, None]) - pi).max())
        worst[extreme] = max(worst[extreme], *map(float, residuals))
    assert max(worst.values()) < 1e-12
    report(3, f"max hybrid weight residual {worst[False]:.2e} over 8 hybrids, "
              f"{worst[True]:.2e} of the row totals over 2 at (1e8, 1e-8) per node", time.time() - t0, 10.0)


# --------------------------------------------------------------------------- 4


def test_criterion_4_rwt_rwa_law():
    t0 = time.time()
    worst = 0.0
    for s in (1, 2, 3):
        h = random_hybrid(random.Random(s), 6, 5, aff_per_user=1)
        n_t = h.target.n
        covered = h.covered_targets()
        for a, b in itertools.product((0.2, 1.0, 5.0), repeat=2):
            alpha, beta = a * len(covered), b * h.auxiliary.n
            ws = fixed_weight_scheme(h, alpha, beta)
            rows = hybrid_rows(h, alpha, beta)
            pi = stationary_solve(rows / rows.sum(axis=1, keepdims=True))
            # the estimator's limit: target visits reweighted by 1/(d + omega)
            weight = h.target.degrees.astype(float)
            weight[covered] += alpha / len(covered)
            limit = pi[:n_t] / weight
            worst = max(worst, float(np.abs(limit / limit.sum() - 1.0 / n_t).max()))
    assert worst < 1e-12

    # the walk's transitions against that kernel: 8000 lockstep walks of 40
    # steps, each transition a fresh uniform given the node it leaves
    h = random_hybrid(random.Random(1), 6, 5, aff_per_user=1)
    alpha, beta = 1.0 * len(h.covered_targets()), 1.0 * h.auxiliary.n
    ws = fixed_weight_scheme(h, alpha, beta)
    rows = hybrid_rows(h, alpha, beta)
    P = rows / rows.sum(axis=1, keepdims=True)
    walks = 8000
    batch = rwt_rwa_run(h, ws, 40, np.arange(walks) % h.target.n, list(range(walks)))
    counts = np.zeros(P.shape)
    np.add.at(counts, (batch.nodes[:-1].ravel(), batch.nodes[1:].ravel()), 1.0)
    n_from = counts.sum(axis=1, keepdims=True)
    se = np.sqrt(n_from * P * (1.0 - P))
    assert (np.abs(counts - n_from * P) <= 5.0 * se).all()
    assert (n_from > 0).all()
    report(4, f"RWT-RWA limit bias {worst:.1e} over 3 hybrids x 9 (alpha, beta); "
           "one-step law within 5 SE", time.time() - t0, 10.0)


# --------------------------------------------------------------------------- 5


def test_criterion_5_reduction_identities():
    t0 = time.time()
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=200, m1=2, m2=3, m3=5, extra_pairs=150, seed=8))
    walk = rwt_vsa_run(h.target, 5000, [17], [MASTER_SEED], jump_law(h, 0.0))
    plain = rwt_vsa_run(h.target, 5000, [17], [MASTER_SEED])
    assert np.array_equal(walk.nodes, plain.nodes) and np.array_equal(walk.weight, plain.weight)

    ws = fixed_weight_scheme(h, 0.0, 0.0)
    coupled = rwt_rwa_run(h, ws, 5000, [17], [MASTER_SEED])
    nodes, _ = walk_visits(coupled, 0)
    assert np.array_equal(nodes, plain.nodes[:, 0])
    assert np.array_equal(coupled.weight[nodes], plain.weight[nodes])
    report(5, "alpha=0 and alpha=beta=0 walks are trace-identical to the plain walk", time.time() - t0, 30.0)


# --------------------------------------------------------------------------- 6


def test_criterion_6_convergence():
    t0 = time.time()
    budgets = ("0.5%", "1%", "2%", "5%")
    # jump strengths: the auxiliary vertex sampling variant at its strong-jump
    # setting; the hybrid walk at a weak one (its law is exact at any
    # strength, see criterion 4)
    methods = (("VS-A", 1.0, 1.0), ("RWT-VSA", 10.0, 0.0), ("RWT-RWA", 0.2, 0.2))
    details = []
    for method, alpha, beta in methods:
        maes = {2: [], 12: []}
        final_rel_err = {}
        for budget in budgets:
            cfg = ex.ExperimentConfig(
                method=method, budget=budget, runs=100, seed=MASTER_SEED,
                alpha=alpha, beta=beta, **DESK,
            )
            prep = ex.prepare_experiment(cfg)
            est = ex.replicate(prep, replication_seeds(cfg.seed, cfg.runs))
            for label in (2, 12):
                truth = prep.truth[label]
                ests = est.theta[:, est.labels.index(label)]  # 0.0 where unseen
                maes[label].append(float(np.mean(np.abs(ests - truth))))
                if budget == "5%":
                    final_rel_err[label] = abs(float(ests.mean()) - truth) / truth
        for label in (2, 12):
            seq = maes[label]
            assert all(a > b for a, b in zip(seq, seq[1:])), (
                f"{method}: mean |error| for label {label} not monotone: {seq}"
            )
            assert final_rel_err[label] < 0.05, (
                f"{method}: label {label} run-averaged estimate off by "
                f"{final_rel_err[label]:.3f} at the 5% budget"
            )
        details.append(f"{method} err@5%=({final_rel_err[2]:.3f},{final_rel_err[12]:.3f})")
    report(6, "; ".join(details), time.time() - t0, 300.0)


# --------------------------------------------------------------------------- 7


def _desk_table(method, alpha=1.0, beta=1.0):
    cfg = ex.ExperimentConfig(
        method=method, budget="2%", runs=200, seed=MASTER_SEED, alpha=alpha, beta=beta, **DESK
    )
    return ex.run_experiment(cfg)


def test_criterion_7_nrmse_crossover():
    t0 = time.time()
    srw = by_label(_desk_table("SRW"))
    vsa = by_label(_desk_table("VS-A"))
    rv1 = by_label(_desk_table("RWT-VSA", alpha=1.0))
    rv10 = by_label(_desk_table("RWT-VSA", alpha=10.0))

    labels = sorted(srw)
    low = [l for l in labels if l <= 5]
    cut = np.percentile(labels, 90)
    top = [l for l in labels if l >= cut]
    assert low and top

    for l in low:
        assert vsa[l].nrmse < srw[l].nrmse, f"VS-A not better at degree {l}"
    top_vsa = float(np.mean([vsa[l].nrmse for l in top]))
    top_srw = float(np.mean([srw[l].nrmse for l in top]))
    assert top_vsa > top_srw

    low1 = float(np.mean([rv1[l].nrmse for l in low]))
    low10 = float(np.mean([rv10[l].nrmse for l in low]))
    t1 = float(np.mean([rv1[l].nrmse for l in top]))
    t10 = float(np.mean([rv10[l].nrmse for l in top]))
    assert low10 < low1, "raising jump strength did not help low degrees"
    assert t10 > t1, "raising jump strength did not hurt high degrees"
    report(
        7,
        f"low: VS-A<SRW on {low}; top decile VS-A {top_vsa:.2f}>SRW {top_srw:.2f}; "
        f"walk low {low1:.2f}->{low10:.2f}, top {t1:.2f}->{t10:.2f}",
        time.time() - t0,
        600.0,
    )


# --------------------------------------------------------------------------- 8


def test_criterion_8_rrzi_probability_closure():
    t0 = time.time()
    rng = random.Random(808)
    root = Region(0.0, 1.0, 0.0, 1.0)
    for n, k in ((10, 1), (37, 3), (100, 10), (64, 2)):
        coords = venues([(rng.random() * 0.999, rng.random() * 0.999) for _ in range(n)])
        exact = rrzi_exact_probabilities(coords, root, k)
        assert abs(sum(exact.values()) - 1.0) < 1e-12
        assert len(exact) == n and min(exact.values()) > 0.0
        p, _ = zoom_in_law(*coords, root, k)
        assert p.tolist() == [exact[v] for v in range(n)]  # the sampler's law, bit for bit

    # combined sampler: exact draw probabilities feed the indirect estimators
    h = three_user_hybrid()
    coords = venues([(0.1, 0.6), (0.7, 0.2)])
    exact = rrzi_exact_probabilities(coords, root, k=1)
    assert abs(sum(exact.values()) - 1.0) < 1e-12
    aff = h.affiliation
    label_a = label_table([("a",), (), ()])

    reports = {v: vsa_theta_unknown_n(harvest(aff, [v], [p], [1]), label_a, n=3)
               for v, p in exact.items()}
    e_theta = sum(exact[v] * rep.theta_of(0, known_n=True).get("a", 0.0) for v, rep in reports.items())
    e_n = sum(exact[v] * rep.n_hat[0] for v, rep in reports.items())
    assert abs(e_theta - 1.0 / 3.0) < 1e-12        # theta_a over all 3 users
    assert abs(e_n - 3.0) < 1e-12                  # all users are covered
    # ratio form recovers theta_a from the two expectations
    assert abs((e_theta * 3.0) / e_n - 1.0 / 3.0) < 1e-12

    sample = vs_a_collect(h, zoom_in_distribution(coords, root, 1), 20_000, seeds=[MASTER_SEED])
    rep = vsa_theta_unknown_n(sample, label_a, n=h.target.n)
    assert rep.theta_of(0)["a"] == pytest.approx(1.0 / 3.0, abs=0.02)
    report(8, "closure exact and zoom_in_law equal to it on 4 layouts; "
              "combined sampler unbiased on the enumeration instance", time.time() - t0, 5.0)


# --------------------------------------------------------------------------- 9


def test_criterion_9_disconnection_robustness():
    # the two halves of the target are joined by one bridge edge, and hybrid
    # walks from a first-half node cross through the auxiliary side: the
    # mean share of target visits in the first half over 50 lockstep walks
    # is the stationary share of d + omega within 4 SE (the SE from the
    # spread of the walks' shares), and every walk visits both halves.
    # Plain walks from the same node on the same seeds mostly stay in the
    # first half: their mean share is more than 10 SE above the plain
    # walk's stationary share, the first half's degree volume.
    t0 = time.time()
    h = build_synthetic_hybrid(SynthConfig(seed=MASTER_SEED, **DESK))
    n_half = DESK["n_per_graph"]
    covered = h.covered_targets()
    alpha = 1.0 * len(covered)   # per-node jump strength 1
    beta = 1.0 * h.auxiliary.n
    ws = fixed_weight_scheme(h, alpha, beta)
    start = 152                  # ordinary low-degree node inside the first half
    budget = 10_000
    walks = 50

    seeds = replication_seeds(MASTER_SEED, walks)
    batch = rwt_rwa_run(h, ws, budget, [start] * walks, seeds)
    share = np.array([np.mean(walk_visits(batch, r)[0] < n_half) for r in range(walks)])
    weight = h.target.degrees.astype(float)
    weight[covered] += alpha / len(covered)
    exact = weight[:n_half].sum() / weight.sum()
    se = share.std(ddof=1) / np.sqrt(walks)
    assert abs(share.mean() - exact) < 4 * se
    assert share.min() > 0.0 and share.max() < 1.0

    plain = rwt_vsa_run(h.target, budget, [start] * walks, seeds)
    stay = np.mean(plain.nodes < n_half, axis=0)
    volume = h.target.degrees[:n_half].sum() / h.target.degrees.sum()
    stay_se = stay.std(ddof=1) / np.sqrt(walks)
    assert stay.mean() > volume + 10 * stay_se
    report(
        9,
        f"hybrid walks' first-half share {share.mean():.3f} (exact {exact:.3f}, SE {se:.4f}); "
        f"plain walks' {stay.mean():.3f} (stationary {volume:.3f}, SE {stay_se:.4f})",
        time.time() - t0,
        60.0,
    )
