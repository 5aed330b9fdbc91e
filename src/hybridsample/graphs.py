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
    """Target graph, auxiliary graph and the affiliation graph joining them."""

    target: Graph
    auxiliary: Graph
    affiliation: BipartiteGraph

    def __post_init__(self):
        if self.affiliation.n_left != self.target.n:
            raise ValueError("affiliation left side must match target node count")
        if self.affiliation.n_right != self.auxiliary.n:
            raise ValueError("affiliation right side must match auxiliary node count")

    def covered_targets(self) -> np.ndarray:
        """Target nodes with at least one affiliation edge, in increasing order."""
        return np.flatnonzero(self.affiliation.left_degrees)


class LabelTable:
    """The labels L(u) of every node, given as a CSR of integer codes:
    node u carries ``values[c]`` for each c in ``codes[indptr[u]:indptr[u + 1]]``,
    a node may carry several labels or none, and ``values`` holds the label
    values as Python objects, so estimates are keyed by them.  The table
    keeps the codes only as ``slots``: ``slots[j, u]`` is 1 + the code of
    node u's j-th label, 0 where u has fewer, so the estimators gather the
    codes of many visits with one take.
    """

    def __init__(self, indptr, codes, values: Sequence):
        indptr = np.asarray(indptr, dtype=np.int64)
        codes = np.asarray(codes, dtype=np.int64)
        self.values = list(values)
        per_node = indptr[1:] - indptr[:-1]
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(codes) or (per_node < 0).any():
            raise ValueError("indptr must run from 0 to len(codes) without decreasing")
        if len(codes) and not 0 <= codes.min() <= codes.max() < len(self.values):
            raise ValueError("label codes out of range")
        self.n = len(per_node)
        self.slots = np.zeros((max(1, int(per_node.max(initial=0))), self.n), dtype=np.int64)
        node = np.repeat(np.arange(self.n), per_node)
        self.slots[np.arange(len(codes)) - indptr[node], node] = codes + 1


def ground_truth_theta(graph: Graph, labels: LabelTable) -> dict:
    """Exhaustive label fractions {l: theta_l}, theta_l = (1/n) * #{u : l in L(u)}.

    Labels that no node carries are omitted.  The counts are integers, so
    every fraction is exactly rounded.
    """
    if graph.n == 0:
        raise ValueError("empty target graph")
    if labels.n != graph.n:
        raise ValueError(f"label table covers {labels.n} nodes, graph has {graph.n}")
    counts = np.bincount(labels.slots.ravel(), minlength=len(labels.values) + 1)[1:].tolist()
    return {l: c / graph.n for l, c in zip(labels.values, counts) if c}


def degree_labels(degrees) -> LabelTable:
    """One label per node: node u's label is the count ``degrees[u]``."""
    d = np.asarray(degrees, dtype=np.int64)
    present = np.bincount(d) > 0
    codes = (np.cumsum(present) - 1)[d]
    return LabelTable(np.arange(len(d) + 1), codes, np.flatnonzero(present).tolist())
