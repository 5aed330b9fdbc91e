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

from .graphs import Labeler
from .samplers import SampleTrace, VsaSample


class CompensatedSum:
    """Neumaier compensated accumulator; keeps long sums exact enough for
    the 1e-12 oracle tolerances even when terms span orders of magnitude."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    @property
    def value(self) -> float:
        return self.s + self.c


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


def _vsa_sums(sample: VsaSample, labeler: Labeler):
    """Accumulate per-label and size terms sum_i (1/p_i) sum_u 1{l}/d_u_bip."""
    per_label: dict = {}
    size = CompensatedSum()
    deg = sample.bip_degree
    for draw in sample.draws:
        if draw.p <= 0.0:
            raise ValueError("draw with nonpositive probability")
        inv_p = 1.0 / draw.p
        for u in draw.neighbors:
            d = deg[u]
            assert d > 0, "harvested node recorded with zero affiliation degree"
            contrib = inv_p / d
            size.add(contrib)
            for l in labeler(u):
                acc = per_label.get(l)
                if acc is None:
                    acc = per_label[l] = CompensatedSum()
                acc.add(contrib)
    return per_label, size.value


def _known_n_theta(per_label: dict, n: int, b_prime: int) -> dict:
    if n <= 0:
        raise ValueError("n must be positive")
    scale = 1.0 / (n * b_prime)
    return {l: acc.value * scale for l, acc in per_label.items()}


def vsa_theta_known_n(sample: VsaSample, labeler: Labeler, n: int, seed: int = 0) -> EstimateReport:
    """theta_hat_l = (1/(n B')) sum_i (1/p_i) sum_{u in nbrs_i} 1{l in L(u)}/d_u_bip."""
    per_label, _ = _vsa_sums(sample, labeler)
    return EstimateReport(
        "VS-A", _known_n_theta(per_label, n, sample.b_prime), sample.b_prime, seed,
        target_samples=sample.harvested, query_count=sample.query_count,
    )


def vsa_estimate_n(sample: VsaSample) -> float:
    """n_hat = (1/B') sum_i (1/p_i) sum_{u in nbrs_i} 1/d_u_bip."""
    if sample.b_prime < 1:
        raise ValueError("empty sample")
    _, size = _vsa_sums(sample, lambda u: ())
    return size / sample.b_prime


def vsa_theta_unknown_n(
    sample: VsaSample, labeler: Labeler, seed: int = 0, n: int | None = None
) -> EstimateReport:
    """Ratio form: the known-n numerator normalized by n_hat instead of n.

    The 1/B' factors cancel, leaving a pure ratio of weighted sums.  Given
    ``n``, the known-n form rides along as ``theta_known_n`` (same pass).
    """
    per_label, size = _vsa_sums(sample, labeler)
    if size <= 0.0:
        raise RuntimeError("no effective samples: every draw hit an unaffiliated node")
    theta = {l: acc.value / size for l, acc in per_label.items()}
    return EstimateReport(
        "VS-A", theta, sample.b_prime, seed,
        n_hat=size / sample.b_prime,
        theta_known_n=None if n is None else _known_n_theta(per_label, n, sample.b_prime),
        target_samples=sample.harvested, query_count=sample.query_count,
    )


def walk_theta(trace: SampleTrace, labeler: Labeler, method: str = "RW", seed: int = 0) -> EstimateReport:
    """Ratio estimator over a walk trace:

        theta_hat_l = sum_i 1{l in L(x_i)}/w_i  /  sum_i 1/w_i

    with w_i the recorded visit weight (degree plus jump weight; plain
    degree for a simple walk).
    """
    if len(trace) == 0:
        raise ValueError("empty trace")
    per_label: dict = {}
    z = CompensatedSum()
    for x, wgt in zip(trace.nodes, trace.weights):
        if wgt <= 0.0:
            raise ValueError(f"nonpositive visit weight {wgt} at node {x}")
        inv = 1.0 / wgt
        z.add(inv)
        for l in labeler(x):
            acc = per_label.get(l)
            if acc is None:
                acc = per_label[l] = CompensatedSum()
            acc.add(inv)
    zv = z.value
    theta = {l: acc.value / zv for l, acc in per_label.items()}
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
    acc = CompensatedSum()
    for e in estimates:
        acc.add((e - truth) ** 2)
    return (acc.value / len(estimates)) ** 0.5 / truth
