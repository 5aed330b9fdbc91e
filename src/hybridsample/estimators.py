"""Estimators of label fractions from indirect samples and walk traces.

Two families:

* probability-weighted (Hansen-Hurwitz style) estimators over independent
  auxiliary draws, in a known-population-size form and a ratio form that
  also estimates the population size.  They need only each draw's p_v and
  neighbors, whatever the draw source of ``vs_a_collect``: a known
  distribution (VS-A) or the zoom-in sampler (RRZI-VSA, venue id = node id);
* a ratio estimator over walk traces that divides out the stationary visit
  weights d_x + omega_x.

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

from .graphs import LabelTable
from .samplers import SampleTrace, VsaSample


@dataclass
class EstimateReport:
    """Per-label estimates plus enough bookkeeping to compare methods."""

    method: str
    theta: dict
    budget: int
    seed: int
    n_hat: float | None = None
    theta_known_n: dict | None = None
    target_samples: int | None = None
    query_count: int | None = None

    def __post_init__(self):
        for l, t in self.theta.items():
            if not (math.isfinite(t) and t >= 0.0):
                raise ValueError(f"estimate theta[{l!r}]={t} must be finite and >= 0")

    def csv_rows(self, truth=None) -> list[str]:
        """Rows "method,label,theta_hat,theta_true,budget,seed"."""
        rows = []
        for l in sorted(self.theta):
            t_true = "" if truth is None or l not in truth.theta else repr(truth.theta[l])
            rows.append(f"{self.method},{l},{self.theta[l]!r},{t_true},{self.budget},{self.seed}")
        return rows


def _label_sums(labels: LabelTable, nodes: np.ndarray, terms: np.ndarray):
    """({label: sum of terms[i] over the i whose node carries it}, sum of all
    terms).  Every sum is one math.fsum, exactly rounded whatever the order
    of its terms, so the terms are grouped by label code in any order."""
    total = math.fsum(terms.tolist())
    # entry j * len(nodes) + i: 1 + the code of the j-th label of nodes[i], or 0
    slots = labels.slots.take(nodes, axis=1).ravel()
    order = slots.argsort()
    grouped = terms.take(order, mode="wrap").tolist()  # wrap: entry k is terms[k % len]
    counts = np.bincount(slots, minlength=len(labels.values) + 1)
    present = counts.nonzero()[0]
    per_label = {}
    end = 0
    for slot, count in zip(present.tolist(), counts.take(present).tolist()):
        if slot:  # slot 0 (a node short of labels) sorts first and adds nowhere
            per_label[labels.values[slot - 1]] = math.fsum(grouped[end:end + count])
        end += count
    return per_label, total


def _vsa_terms(sample: VsaSample) -> tuple[list, list]:
    """(harvested users, their terms (1/p_i) / d_u_bip), in draw order."""
    users = []
    terms = []
    deg = sample.bip_degree
    for draw in sample.draws:
        if draw.p <= 0.0:
            raise ValueError("draw with nonpositive probability")
        inv_p = 1.0 / draw.p
        for u in draw.neighbors:
            d = deg[u]
            if d <= 0:
                raise ValueError(
                    f"harvested node {u} recorded with affiliation degree {d}; expected > 0"
                )
            users.append(u)
            terms.append(inv_p / d)
    return users, terms


def _vsa_sums(sample: VsaSample, labels: LabelTable):
    """Per-label and size terms sum_i (1/p_i) sum_u 1{l in L(u)}/d_u_bip."""
    users, terms = _vsa_terms(sample)
    return _label_sums(labels, np.array(users, dtype=np.int64), np.array(terms, dtype=float))


def _known_n_theta(per_label: dict, n: int, b_prime: int) -> dict:
    if n <= 0:
        raise ValueError("n must be positive")
    scale = 1.0 / (n * b_prime)
    return {l: s * scale for l, s in per_label.items()}


def vsa_theta_known_n(sample: VsaSample, labels: LabelTable, n: int, seed: int = 0) -> EstimateReport:
    """theta_hat_l = (1/(n B')) sum_i (1/p_i) sum_{u in nbrs_i} 1{l in L(u)}/d_u_bip."""
    per_label, _ = _vsa_sums(sample, labels)
    return EstimateReport(
        "VS-A", _known_n_theta(per_label, n, sample.b_prime), sample.b_prime, seed,
        target_samples=sample.harvested, query_count=sample.query_count,
    )


def vsa_estimate_n(sample: VsaSample) -> float:
    """n_hat = (1/B') sum_i (1/p_i) sum_{u in nbrs_i} 1/d_u_bip."""
    if sample.b_prime < 1:
        raise ValueError("empty sample")
    _, terms = _vsa_terms(sample)
    return math.fsum(terms) / sample.b_prime


def vsa_theta_unknown_n(
    sample: VsaSample, labels: LabelTable, seed: int = 0, n: int | None = None
) -> EstimateReport:
    """Ratio form: the known-n numerator normalized by n_hat instead of n.

    The 1/B' factors cancel, leaving a pure ratio of weighted sums.  Given
    ``n``, the known-n form rides along as ``theta_known_n`` (same pass).
    """
    per_label, size = _vsa_sums(sample, labels)
    if size <= 0.0:
        raise RuntimeError("no effective samples: every draw hit an unaffiliated node")
    theta = {l: s / size for l, s in per_label.items()}
    return EstimateReport(
        "VS-A", theta, sample.b_prime, seed,
        n_hat=size / sample.b_prime,
        theta_known_n=None if n is None else _known_n_theta(per_label, n, sample.b_prime),
        target_samples=sample.harvested, query_count=sample.query_count,
    )


def walk_theta(trace: SampleTrace, labels: LabelTable, method: str = "RW", seed: int = 0) -> EstimateReport:
    """Ratio estimator over a walk trace:

        theta_hat_l = sum_i 1{l in L(x_i)}/w_i  /  sum_i 1/w_i

    with w_i the recorded visit weight (degree plus jump weight; plain
    degree for a simple walk).
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    nodes = np.asarray(trace.nodes, dtype=np.int64)
    weights = np.asarray(trace.weights, dtype=float)
    bad = ~(np.isfinite(weights) & (weights > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"nonpositive or non-finite visit weight {weights[i]} at node {nodes[i]}")
    per_label, z = _label_sums(labels, nodes, 1.0 / weights)
    theta = {l: s / z for l, s in per_label.items()}
    return EstimateReport(
        method, theta, trace.budget, seed,
        target_samples=trace.budget, query_count=trace.query_count,
    )


def nrmse(estimates, truth: float) -> float:
    """Root mean squared error over runs, normalized by the true value."""
    estimates = list(estimates)
    if not estimates:
        raise ValueError("need at least one estimate")
    if truth <= 0.0:
        raise ValueError("NRMSE undefined for zero-mass label")
    return (math.fsum((e - truth) ** 2 for e in estimates) / len(estimates)) ** 0.5 / truth
