"""Graph containers, node labels and their ground-truth fractions.

A hybrid network couples a target graph (the one being measured), an
auxiliary graph (the one that is easy to sample), and a bipartite
affiliation graph that bridges the two node universes.  Nodes are dense
0-based integers on each side; external string ids, when present, map
through an ingest-time dictionary kept on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._tokens import raise_first


def _pair_array(pairs) -> np.ndarray:
    """An (m, 2) int64 array (int32 stays int32) from an (m, 2) array or an iterable of pairs."""
    if not isinstance(pairs, np.ndarray):
        pairs = np.asarray(list(pairs), dtype=np.int64)
    arr = pairs if pairs.dtype == np.int32 else pairs.astype(np.int64, copy=False)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be (u, v) pairs")
    return arr


def _csr(blocks, n_rows: int, n_cols: int):
    """(indptr, indices, degrees) of the distinct (row, col) pairs of the
    (rows, cols) array pairs in ``blocks``.

    Pairs are packed into one preallocated array of int64 keys, sorted, and
    adjacent duplicates are dropped, which leaves every row strictly
    increasing.  A row's length is its count in the row blocks less its
    dropped duplicates, and the keys become the column indices in place.
    (np.unique would dedupe too, but its hash path is ~70x slower on
    millions of keys.)  The rows may be int32: the keys are multiplied out
    in int64.  The three arrays are int32 when every column id and offset
    fits, i.e. when max(n_cols, entries) < 2**31, and int64 otherwise.
    They are read-only, so a network can be shared by every experiment
    that runs on it.
    """
    width = max(n_cols, 1)
    counts = sum(np.bincount(rows, minlength=n_rows) for rows, _ in blocks)
    keys = np.empty(sum(len(rows) for rows, _ in blocks), dtype=np.int64)
    end = 0
    for rows, cols in blocks:
        np.multiply(rows, width, out=keys[end:end + len(rows)], dtype=np.int64)
        keys[end:end + len(rows)] += cols
        end += len(rows)
    keys.sort()
    if len(keys) > 1:
        keep = np.empty(len(keys), dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        if np.count_nonzero(keep) < len(keys):
            counts -= np.bincount(keys[~keep] // width, minlength=n_rows)
            keys = keys[keep]
        del keep
    indptr = np.concatenate(([0], np.cumsum(counts)))
    np.remainder(keys, width, out=keys)
    if max(n_cols, len(keys)) < 2**31:
        indptr, keys = indptr.astype(np.int32), keys.astype(np.int32)
    arrays = indptr, keys, indptr[1:] - indptr[:-1]
    for a in arrays:
        a.flags.writeable = False
    return arrays


class Graph:
    """Immutable undirected simple graph in CSR form.

    ``indptr``/``indices`` hold the sorted, deduplicated neighbors of every
    node (row u is ``indices[indptr[u]:indptr[u + 1]]``), both directions
    of each edge stored, and ``degrees`` the row lengths; all three are
    read-only.  Self-loops are rejected; duplicate input edges, in either
    direction, are merged silently.
    """

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray = (),
        node_names: Sequence[str] | None = None,
    ):
        if n < 0:
            raise ValueError("node count must be nonnegative")
        if node_names is not None and len(node_names) != n:
            raise ValueError("node_names length must equal n")
        self.n = n
        self.node_names = list(node_names) if node_names is not None else None

        e = _pair_array(edges)
        u, v = e[:, 0], e[:, 1]
        if len(e) and (e.min() < 0 or e.max() >= n or (u == v).any()):
            raise_first([
                (((e < 0) | (e >= n)).any(axis=1),
                 lambda i: f"edge ({e[i, 0]},{e[i, 1]}) out of range for n={n}"),
                (u == v, lambda i: f"self-loop at node {e[i, 0]} not allowed"),
            ])
        self.indptr, self.indices, self.degrees = _csr(((u, v), (v, u)), n, n)
        self.num_edges = len(self.indices) // 2

    def edge_array(self) -> np.ndarray:
        """(m, 2) array of the edges, each once as (u, v) with u < v, sorted
        by u, then v."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        keep = rows < self.indices
        return np.column_stack((rows[keep], self.indices[keep]))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


class BipartiteGraph:
    """Simple bipartite graph in CSR form, indexed from both sides.

    ``left_indptr``/``left_indices``/``left_degrees`` hold the sorted right
    neighbors of every left node; ``right_*`` the transpose.  All six arrays
    are read-only.
    """

    def __init__(
        self, n_left: int, n_right: int, pairs: Iterable[tuple[int, int]] | np.ndarray = ()
    ):
        if n_left < 0 or n_right < 0:
            raise ValueError("side sizes must be nonnegative")
        self.n_left = n_left
        self.n_right = n_right
        e = _pair_array(pairs)
        u, v = e[:, 0], e[:, 1]
        if len(e) and (e.min() < 0 or u.max() >= n_left or v.max() >= n_right):
            raise_first([
                ((u < 0) | (u >= n_left), lambda i: f"left id {u[i]} out of range"),
                ((v < 0) | (v >= n_right), lambda i: f"right id {v[i]} out of range"),
            ])
        self.left_indptr, self.left_indices, self.left_degrees = _csr(((u, v),), n_left, n_right)
        self.right_indptr, self.right_indices, self.right_degrees = _csr(((v, u),), n_right, n_left)
        self.num_edges = len(self.left_indices)

    def __repr__(self) -> str:
        return f"BipartiteGraph({self.n_left}x{self.n_right}, m={self.num_edges})"


@dataclass
class HybridNetwork:
    """Target graph, auxiliary graph and the affiliation graph joining them.

    ``columns`` is the target's CSR ``indices`` followed by the auxiliary
    graph's, each in its own local ids, and read-only; the two graphs'
    ``indices`` are views of its halves, so no second copy is held and
    the hybrid walk picks a neighbour on either side from one array.
    """

    target: Graph
    auxiliary: Graph
    affiliation: BipartiteGraph

    def __post_init__(self):
        if self.affiliation.n_left != self.target.n:
            raise ValueError("affiliation left side must match target node count")
        if self.affiliation.n_right != self.auxiliary.n:
            raise ValueError("affiliation right side must match auxiliary node count")
        m_t = len(self.target.indices)
        self.columns = np.concatenate((self.target.indices, self.auxiliary.indices))
        self.columns.flags.writeable = False
        self.target.indices, self.auxiliary.indices = self.columns[:m_t], self.columns[m_t:]

    def covered_targets(self) -> np.ndarray:
        """Target nodes with at least one affiliation edge, in increasing order."""
        return np.flatnonzero(self.affiliation.left_degrees)


class LabelTable:
    """The labels L(u) of every node, as one (J, n) int array ``slots``:
    ``slots[j, u]`` is 1 + the code of node u's j-th label, and 0 means no
    label, so a node may carry several labels or none.  Code c stands for
    ``values[c]``, a Python object, so estimates are keyed by the values.
    The estimators gather the codes of many visits with one take.
    """

    def __init__(self, slots, values: Sequence):
        self.slots = np.asarray(slots, dtype=np.int64)
        self.values = list(values)
        if self.slots.ndim != 2 or len(self.slots) == 0:
            raise ValueError("slots must be a (J, n) array with J >= 1")
        if self.slots.size and not 0 <= self.slots.min() <= self.slots.max() <= len(self.values):
            raise ValueError(f"label slots out of range [0, {len(self.values)}]")
        self.n = self.slots.shape[1]


def ground_truth_theta(labels: LabelTable) -> dict:
    """Exhaustive label fractions {l: theta_l}, theta_l = #{u : l in L(u)} / labels.n.

    Labels that no node carries are omitted.  The counts are integers, so
    every fraction is exactly rounded.
    """
    if labels.n == 0:
        raise ValueError("empty target graph")
    counts = np.bincount(labels.slots.ravel(), minlength=len(labels.values) + 1)[1:].tolist()
    return {l: c / labels.n for l, c in zip(labels.values, counts) if c}


def degree_labels(degrees) -> LabelTable:
    """One label per node: node u's label is the count ``degrees[u]``."""
    d = np.asarray(degrees, dtype=np.int64)
    present = np.bincount(d) > 0
    return LabelTable(np.cumsum(present)[d][None], np.flatnonzero(present).tolist())
