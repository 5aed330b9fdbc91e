"""Estimators of label fractions from indirect samples and walks.

Two families:

* probability-weighted (Hansen-Hurwitz style) estimators over independent
  auxiliary draws, in a known-population-size form and a ratio form that
  also estimates the population size.  They need only each draw's p_v and
  neighbors, whatever the draw source of ``vs_a_collect``: a known
  distribution (VS-A) or the zoom-in sampler (RRZI-VSA, venue id = node id);
* a ratio estimator over one walk of a lockstep batch that divides out the
  stationary visit weights d_x + omega_x of its target visits.

Note on coverage: auxiliary draws can only reach target nodes with at least
one affiliation edge.  The size estimator therefore converges to the count
of affiliation-covered nodes, and the known-n form is exact for labels
carried only by covered nodes.  Reports carry both normalizations (the
known-n thetas and n_hat) so callers can reconcile them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tokens import raise_first
from .graphs import LabelTable
from .samplers import VsaSample, WalkBatch


@dataclass
class EstimateReport:
    """Per-label estimates plus enough bookkeeping to compare methods."""

    theta: dict
    target_samples: int
    query_count: int
    n_hat: float | None = None
    theta_known_n: dict | None = None

    def __post_init__(self):
        for l, t in self.theta.items():
            if not (math.isfinite(t) and t >= 0.0):
                raise ValueError(f"estimate theta[{l!r}]={t} must be finite and >= 0")


# from this many terms on, _label_sums adds by limbs (measured crossover:
# about 300 terms; below it one sort and a math.fsum per label is faster)
LIMB_SUMS_MIN = 300


def _label_sums(labels: LabelTable, nodes: np.ndarray, terms: np.ndarray):
    """({label: sum of terms[i] over the i whose node carries it}, sum of all
    terms), for finite terms >= 0.  Every sum is exactly rounded, as one
    math.fsum of its terms gives it, whatever their order."""
    # [j, i]: 1 + the code of the j-th label of nodes[i], or 0
    slots = labels.slots.take(nodes, axis=1)
    counts = np.bincount(slots.ravel(), minlength=len(labels.values) + 1).tolist()
    if len(terms) >= LIMB_SUMS_MIN:
        top = math.frexp(terms.max())[1]
        # every limb sum and every sum is below 2**(top + bit_length) - 2**top,
        # so none overflows while that power is at most 2**1024; past it the
        # sort path's math.fsum raises OverflowError where a sum overflows
        if top + slots.size.bit_length() <= 1024:
            sums, totals = _limb_sums(slots, terms, top, len(counts))
            return {value: math.fsum(s) for value, count, s in zip(labels.values, counts[1:], sums[1:])
                    if count}, math.fsum(totals)
    order = slots.ravel().argsort()
    grouped = terms.take(order, mode="wrap").tolist()  # wrap: entry j * len + i is terms[i]
    per_label = {}
    end = counts[0]  # slot 0 (a node short of labels) sorts first and adds nowhere
    for value, count in zip(labels.values, counts[1:]):
        if count:
            per_label[value] = math.fsum(grouped[end:end + count])
            end += count
    return per_label, math.fsum(terms.tolist())


def _limb_sums(slots: np.ndarray, terms: np.ndarray, top: int, bins: int):
    """([per slot code: its limb sums], [per limb: the sum of all terms' limbs]),
    for finite terms >= 0, all below 2**top.  Each term is split into limbs
    on fixed binary grids, each grid spanning fewer than 2**width units, so
    that each limb sum of slots.size limbs holds in 53 bits and numpy adds
    it exactly, in any order (the error-free extraction of Rump, Ogita and
    Oishi, "Accurate floating-point summation, part I", 2008).  The limbs
    of a term add up to it exactly, so the math.fsum of a slot's limb sums
    is its sum, exactly rounded."""
    width = 53 - slots.size.bit_length()
    low = terms.min()
    # every term is a multiple of the smallest one's last bit, 2**bottom
    bottom = max(math.frexp(low)[1] - 53, -1074) if low else -1074
    grid, rest, part = top, terms.copy(), np.empty_like(terms)
    sums, totals = [], []
    while grid > bottom:
        grid = max(grid - width, -1074)
        np.ldexp(rest, -grid, out=part)
        np.floor(part, out=part)
        np.ldexp(part, grid, out=part)
        rest -= part
        sums.append(sum(np.bincount(row, weights=part, minlength=bins) for row in slots))
        totals.append(part.sum())
    return np.array(sums).T.tolist(), totals


def vsa_theta_unknown_n(sample: VsaSample, labels: LabelTable, n: int | None = None) -> EstimateReport:
    """Ratio form of the Hansen-Hurwitz estimators over the draws:

        theta_hat_l = sum_i (1/p_i) sum_{u in nbrs_i} 1{l in L(u)}/d_u_bip
                      / sum_i (1/p_i) sum_{u in nbrs_i} 1/d_u_bip

    The denominator over B' is the size estimate ``n_hat``.  Given ``n``,
    the known-n form, the numerator over n B', rides along as
    ``theta_known_n`` (same pass).
    """
    degrees, offsets, b_prime = sample.degrees, sample.offsets, sample.b_prime
    raise_first([(degrees <= 0, lambda j: f"harvested node {sample.users[j]} recorded with "
                                          f"affiliation degree {degrees[j]}; expected > 0")])
    # the term of user u harvested by draw i: (1/p_i) / d_u_bip, finite and
    # > 0 for the draws harvest admits
    terms = (1.0 / sample.p).repeat(offsets[1:] - offsets[:-1])
    terms /= degrees
    per_label, size = _label_sums(labels, sample.users, terms)
    if size <= 0.0:
        raise RuntimeError("no effective samples: every draw hit an unaffiliated node")
    known = None
    if n is not None:
        if n <= 0:
            raise ValueError("n must be positive")
        scale = 1.0 / (n * b_prime)
        known = {l: s * scale for l, s in per_label.items()}
    return EstimateReport(
        {l: s / size for l, s in per_label.items()}, n_hat=size / b_prime, theta_known_n=known,
        target_samples=sample.harvested, query_count=sample.query_count,
    )


def walk_theta(batch: WalkBatch, r: int, labels: LabelTable) -> EstimateReport:
    """Ratio estimator over the target visits x_i of walk r of ``batch``:

        theta_hat_l = sum_i 1{l in L(x_i)}/w_i  /  sum_i 1/w_i

    with w_i = batch.weight[x_i], the visit weight (degree plus jump weight;
    plain degree for a simple walk).  ``target_samples`` counts the visits,
    which are fewer than the budget for the hybrid walk.
    """
    column = batch.nodes[:, r]
    nodes = column[column < batch.n_target]
    if not len(nodes):
        raise ValueError(f"walk {r} has no target visit")
    weights = batch.weight[nodes]
    with np.errstate(divide="ignore", over="ignore"):
        inv_w = 1.0 / weights
    raise_first([
        (~(np.isfinite(weights) & (weights > 0.0)),
         lambda i: f"nonpositive or non-finite visit weight {weights[i]} at node {nodes[i]}"),
        (~np.isfinite(inv_w),
         lambda i: f"visit weight {weights[i]} at node {nodes[i]} has no finite reciprocal"),
    ])
    per_label, z = _label_sums(labels, nodes, inv_w)
    theta = {l: s / z for l, s in per_label.items()}
    return EstimateReport(theta, target_samples=len(nodes), query_count=batch.queries[r])


def nrmse(estimates, truth: float) -> float:
    """Root mean squared error over runs, normalized by the true value."""
    estimates = list(estimates)
    if not estimates:
        raise ValueError("need at least one estimate")
    if truth <= 0.0:
        raise ValueError("NRMSE undefined for zero-mass label")
    return (math.fsum((e - truth) ** 2 for e in estimates) / len(estimates)) ** 0.5 / truth
