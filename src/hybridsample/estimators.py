"""Estimators of label fractions from indirect samples and walks.

Two families, each estimating every replication of one lockstep batch:

* probability-weighted (Hansen-Hurwitz style) estimators over each
  replication's independent auxiliary draws, in a known-population-size
  form and a ratio form that also estimates the population size.  They
  need only each draw's p_v and neighbors, whatever the draw source of
  ``vs_a_collect``: a known distribution (VS-A) or the zoom-in sampler
  (RRZI-VSA, venue id = node id);
* a ratio estimator over each walk of a batch that divides out the
  stationary visit weights d_x + omega_x of its target visits.

Both return a ``BatchEstimate``, whose arrays hold replication r in row r
and label ``labels[c]`` in column c.

Note on coverage: auxiliary draws can only reach target nodes with at least
one affiliation edge.  The size estimator therefore converges to the count
of affiliation-covered nodes, and the known-n form is exact for labels
carried only by covered nodes.  Estimates carry both normalizations (the
known-n thetas and n_hat) so callers can reconcile them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from ._tokens import raise_first
from .graphs import LabelTable
from .samplers import VsaSample, WalkBatch


def _failed(error: Exception, r: int) -> Exception:
    """``error``, marked as the failure of replication r of its batch: its
    ``replication``, which experiment.replicate names."""
    error.replication = r
    return error


@dataclass
class BatchEstimate:
    """Per-label estimates of the R replications of a batch.

    ``theta[r, c]`` is replication r's estimate for label ``labels[c]``;
    ``seen[r, c]`` says whether any sampled node carried that label, and
    where it did not, theta is 0.0.  ``target_samples[r]`` and
    ``query_count[r]`` count replication r's samples and API calls.  The
    harvest estimator adds the size estimates ``n_hat`` and, given n, the
    known-n estimates ``theta_known_n``, shaped like ``theta``.
    """

    labels: list
    theta: np.ndarray
    seen: np.ndarray
    target_samples: np.ndarray
    query_count: np.ndarray
    n_hat: np.ndarray | None = None
    theta_known_n: np.ndarray | None = None

    def __post_init__(self):
        bad = ~(np.isfinite(self.theta) & (self.theta >= 0.0))
        if bad.any():
            r, c = divmod(int(bad.argmax()), bad.shape[1])
            raise _failed(ValueError(f"estimate theta[{self.labels[c]!r}]={self.theta[r, c].item()} "
                                     "must be finite and >= 0"), r)

    def theta_of(self, r: int, known_n: bool = False) -> dict:
        """Replication r's estimates as {label: theta} over the labels it
        saw: of ``theta``, or of ``theta_known_n``."""
        row = (self.theta_known_n if known_n else self.theta)[r].tolist()
        return {l: t for l, t, s in zip(self.labels, row, self.seen[r].tolist()) if s}

    @classmethod
    def concat(cls, parts) -> BatchEstimate:
        """The estimates of the replications of ``parts``, in order, all
        over the same labels."""
        first = parts[0]
        return cls(first.labels, **{
            f.name: None if getattr(first, f.name) is None
            else np.concatenate([getattr(part, f.name) for part in parts])
            for f in fields(cls) if f.name != "labels"})


# from this many terms on, _label_sums adds by limbs (measured crossover:
# about 300 terms; below it one sort and a math.fsum per sum is faster)
LIMB_SUMS_MIN = 300


def _label_sums(labels: LabelTable, nodes: np.ndarray, terms: np.ndarray, groups=None, count: int = 1):
    """(sums, counts, totals) of finite terms >= 0 in ``count`` groups,
    ``groups[i]`` the group of term i (all in group 0 without it):
    sums[g, c] adds the terms of group g whose node carries label code c,
    counts[g, c] counts them and totals[g] adds every term of group g.
    Every sum is exactly rounded, as one math.fsum of its terms gives it,
    whatever their order.  An OverflowError is marked with its group as
    ``replication`` (_failed)."""
    # a group's cells: slot 0 (a node short of labels, adding nowhere), one
    # per label code, then its total; keys[j, i] is the cell of the j-th
    # label of nodes[i]
    stride = len(labels.values) + 2
    keys = labels.slots.take(nodes, axis=1)
    if groups is not None:
        keys += groups * stride
    cells = count * stride
    sums = None
    if len(terms) >= LIMB_SUMS_MIN:
        top = math.frexp(terms.max())[1]
        # every limb sum and every sum is below 2**(top + bit_length) - 2**top,
        # so none overflows while that power is at most 2**1024; past it the
        # sort path's math.fsum raises OverflowError where a sum overflows
        if top + keys.size.bit_length() <= 1024:
            sums = _limb_sums(keys, terms, top, cells, stride)
    if sums is None:
        totals = np.full(len(nodes), stride - 1) if groups is None else groups * stride + (stride - 1)
        sums = _sorted_sums(np.concatenate([keys.ravel(), totals]), terms, cells, stride)
    sums = sums.reshape(count, stride)
    counts = np.bincount(keys.ravel(), minlength=cells).reshape(count, stride)
    return sums[:, 1:-1], counts[:, 1:-1], sums[:, -1]


def _sorted_sums(keys: np.ndarray, terms: np.ndarray, cells: int, stride: int) -> np.ndarray:
    """Per cell: the math.fsum of the terms ``keys`` puts in it (entry
    j * len(terms) + i of keys is a cell of term i), group by group, from
    one sort of the keys."""
    grouped = terms.take(keys.argsort(), mode="wrap").tolist()
    sizes = np.bincount(keys, minlength=cells)
    ends = sizes.cumsum().tolist()
    sums = np.zeros(cells)
    for cell in np.flatnonzero(sizes).tolist():
        if cell % stride:
            try:
                sums[cell] = math.fsum(grouped[ends[cell] - int(sizes[cell]):ends[cell]])
            except OverflowError as exc:
                raise _failed(exc, cell // stride)
    return sums


def _limb_sums(keys: np.ndarray, terms: np.ndarray, top: int, cells: int, stride: int) -> np.ndarray:
    """Per cell: the sum of the terms ``keys`` puts in it, exactly rounded,
    and in the last cell of every ``stride`` the group's total, for finite
    terms >= 0, all below 2**top.

    Each term is split into limbs on fixed binary grids, each grid spanning
    fewer than 2**width units, so that each cell's limb sum holds in 53
    bits and numpy adds it exactly, in any order (the error-free extraction
    of Rump, Ogita and Oishi, "Accurate floating-point summation, part I",
    2008).  A term is in row 0 of ``keys`` once, so a group's total limb
    sum adds up its row-0 cells, exactly too.  The limbs of a term add up
    to it exactly, so a cell's sum is its limb sums' exact sum.  Where at
    most two of them are nonzero, their one float add rounds it exactly
    (adding a zero is exact); the deeper cells take the math.fsum of their
    limb sums.
    """
    width = 53 - keys.size.bit_length()
    low = terms.min()
    # every term is a multiple of the smallest one's last bit, 2**bottom
    bottom = max(math.frexp(low)[1] - 53, -1074) if low else -1074
    grid, rest, part = top, terms.copy(), np.empty_like(terms)
    limbs = []
    while grid > bottom:
        grid = max(grid - width, -1074)
        np.ldexp(rest, -grid, out=part)
        np.floor(part, out=part)
        np.ldexp(part, grid, out=part)
        rest -= part
        first = np.bincount(keys[0], weights=part, minlength=cells)
        limb = sum((np.bincount(row, weights=part, minlength=cells) for row in keys[1:]), first)
        limb.reshape(-1, stride)[:, -1] = first.reshape(-1, stride).sum(axis=1)
        limbs.append(limb)
    limbs = np.array(limbs)
    sums = limbs.sum(axis=0)
    deep = np.flatnonzero(np.count_nonzero(limbs, axis=0) > 2)
    for cell, column in zip(deep.tolist(), limbs[:, deep].T.tolist()):
        sums[cell] = math.fsum(column)
    return sums


def vsa_theta_unknown_n(sample: VsaSample, labels: LabelTable, n: int | None = None) -> BatchEstimate:
    """Ratio form of the Hansen-Hurwitz estimators over the B' draws i of
    each replication of ``sample``:

        theta_hat_l = sum_i (1/p_i) sum_{u in nbrs_i} 1{l in L(u)}/d_u_bip
                      / sum_i (1/p_i) sum_{u in nbrs_i} 1/d_u_bip

    The denominator over B' is the size estimate ``n_hat``.  Given ``n``,
    the known-n form, the numerator over n B', rides along as
    ``theta_known_n``.  The sums of all replications are one _label_sums
    pass, grouped by replication.  The first replication with a harvested
    node recorded with affiliation degree <= 0, no positive term or a sum
    that overflows raises, marked as ``replication`` (_failed).
    """
    if n is not None and n <= 0:
        raise ValueError("n must be positive")
    b_prime, runs = sample.b_prime, len(sample.queries)
    offsets, users, degrees = sample.offsets, sample.users, sample.degrees
    ends = offsets[::b_prime]  # replication r harvested users[ends[r]:ends[r + 1]]
    harvested = ends[1:] - ends[:-1]
    groups = np.arange(runs).repeat(harvested)
    # the term of user u harvested by draw i: (1/p_i) / d_u_bip, finite and
    # > 0 for the draws harvest admits and the degrees checked below
    terms = (1.0 / sample.p).repeat(offsets[1:] - offsets[:-1])
    with np.errstate(divide="ignore"):
        terms /= degrees
    bad = degrees <= 0
    first_bad = int(groups[bad.argmax()]) if bad.any() else runs
    empty = np.bincount(groups[terms > 0.0], minlength=runs) == 0
    stop = min(first_bad, int(empty.argmax()) if empty.any() else runs)
    # the replications before the first failing one still raise first
    end = ends[stop]
    sums, counts, size = _label_sums(labels, users[:end], terms[:end], groups[:end], stop)
    if stop < runs:
        if first_bad == stop:
            j = int(bad.argmax())
            raise _failed(ValueError(f"harvested node {users[j]} recorded with affiliation "
                                     f"degree {degrees[j]}; expected > 0"), stop)
        raise _failed(RuntimeError("no effective samples: every draw hit an unaffiliated node"), stop)
    return BatchEstimate(
        labels.values, sums / size[:, None], counts > 0, harvested, np.asarray(sample.queries),
        n_hat=size / b_prime, theta_known_n=None if n is None else sums * (1.0 / (n * b_prime)),
    )


def walk_theta(batch: WalkBatch, labels: LabelTable) -> BatchEstimate:
    """Ratio estimator over the target visits x_i of each walk r of
    ``batch`` (``batch.visits(r)``):

        theta_hat_l = sum_i 1{l in L(x_i)}/w_i  /  sum_i 1/w_i

    with w_i = batch.weight[x_i], the visit weight (degree plus jump weight;
    plain degree for a simple walk).  ``target_samples`` counts the visits,
    which are fewer than the budget for the hybrid walk.  Each walk is one
    _label_sums call, filling its row: one pass over the whole (T, R) batch
    was slower and more than doubled the peak memory of 2x10k walks.  The first walk that fails (no
    target visit, a bad visit weight, a sum that overflows) raises, marked
    as ``replication`` (_failed).
    """
    runs = batch.nodes.shape[1]
    theta = np.zeros((runs, len(labels.values)))
    seen = np.zeros(theta.shape, dtype=bool)
    visits = np.zeros(runs, dtype=np.int64)
    for r in range(runs):
        try:
            nodes = batch.nodes[:, r][batch.visits(r)]
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
            sums, counts, z = _label_sums(labels, nodes, inv_w)
        except (ValueError, OverflowError) as exc:
            raise _failed(exc, r)
        theta[r] = sums[0] / z[0]
        seen[r] = counts[0] > 0
        visits[r] = len(nodes)
    return BatchEstimate(labels.values, theta, seen, visits, np.asarray(batch.queries))


def _squares(d: np.ndarray) -> np.ndarray:
    """d ** 2 of every element, bit for bit as Python's float power, the
    libm pow, gives it.  numpy's d * d rounds the exact square to nearest;
    glibc's pow is within 0.54 ulp of it, so the two can differ only where
    the exact square lies within 0.04 ulp of a midpoint between floats
    (and do: for 16 of 20,000 uniform values in [-1, 1]).  Dekker's split
    gives d * d's exact error; the elements whose error is 0.45 ulp or
    more, or whose square is a power of two (a binade edge), or that lie
    outside the split's exact range take Python's power."""
    with np.errstate(all="ignore"):
        sq = d * d
        t = d * 134217729.0  # 2**27 + 1
        hi = t - (t - d)
        lo = d - hi
        err = ((hi * hi - sq) + 2.0 * hi * lo) + lo * lo  # d * d - sq, exactly
        size = np.abs(d)
        slow = ~((size >= 2.0**-480) & (size <= 2.0**500)) & (d != 0.0)
        slow |= np.abs(err) >= 0.45 * np.spacing(sq)
        slow |= np.frexp(sq)[0] == 0.5
    where = np.flatnonzero(slow)
    sq[where] = [x ** 2 for x in d[where].tolist()]
    return sq


def nrmse(estimates, truth):
    """Root mean squared error over runs, normalized by the true value: a
    float of a (runs,) array and its truth, or one per column of a (runs, L)
    array and its L truths.  Each squared error is Python's (e - truth) ** 2
    (_squares), and each sum of them one math.fsum."""
    estimates = np.asarray(estimates, dtype=float)
    if not len(estimates):
        raise ValueError("need at least one estimate")
    truths = np.asarray(truth, dtype=float)
    if (truths <= 0.0).any():
        raise ValueError("NRMSE undefined for zero-mass label")
    runs = len(estimates)
    table = estimates.reshape(runs, -1)
    truths = np.broadcast_to(truths, estimates.shape[1:]).reshape(-1)
    # an estimate of 0.0, of a label its run did not see, errs by -truth:
    # one power for each column that holds one
    zero = table == 0.0
    squares = np.where(zero, [(0.0 - t) ** 2 if z else 0.0
                              for t, z in zip(truths.tolist(), zero.any(axis=0).tolist())], 0.0)
    squares[~zero] = _squares((table - truths)[~zero])
    out = [(math.fsum(c) / runs) ** 0.5 / t for c, t in zip(squares.T.tolist(), truths.tolist())]
    return out[0] if estimates.ndim == 1 else np.array(out)
