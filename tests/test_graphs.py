import collections
import random
import tracemalloc

import numpy as np
import pytest

from hybridsample.graphs import (
    BipartiteGraph,
    Graph,
    HybridNetwork,
    LabelTable,
    _csr,
    degree_labels,
    ground_truth_theta,
)
from helpers import csr_rows, edges, label_table, labels_of
from hybridsample.ingest import (
    load_affiliation,
    load_checkins,
    load_edge_list,
    write_affiliation,
    write_edge_list,
)
from hybridsample.synth import (
    SynthConfig,
    ba_edge_count,
    build_synthetic_hybrid,
    generate_ba,
)


def test_path_graph_degree_theta():
    g = Graph(3, [(0, 1), (1, 2)])
    dist = ground_truth_theta(g, degree_labels(g.degrees))
    assert dist == {1: 2 / 3, 2: 1 / 3}


def test_constant_labeler_theta_is_one():
    g = Graph(5, [(0, 1), (2, 3)])
    dist = ground_truth_theta(g, label_table([("a",)] * g.n))
    assert dist == {"a": 1.0}


def test_label_table_rows_roundtrip_and_checks():
    rows = [("a", 3), (), (3,), ("b", "a", 7)]
    table = label_table(rows)
    assert [labels_of(table, u) for u in range(table.n)] == rows
    with pytest.raises(ValueError, match="indptr"):
        LabelTable([0, 2], [0], ["a"])
    with pytest.raises(ValueError, match="indptr"):
        LabelTable([0, 2, 1], [0], ["a"])
    with pytest.raises(ValueError, match="codes out of range"):
        LabelTable([0, 1], [1], ["a"])
    with pytest.raises(ValueError, match="covers 3 nodes"):
        ground_truth_theta(Graph(2, [(0, 1)]), label_table([("a",)] * 3))


@pytest.mark.parametrize("size,top", [(0, 1), (1, 0), (50, 7), (3000, 10_000)])
def test_degree_labels_match_unique(size, top):
    # counts with gaps and repeats: values and codes as np.unique gives them
    d = np.random.default_rng(size).integers(0, top + 1, size=size).astype(np.int32)
    values, codes = np.unique(d, return_inverse=True)
    labels = degree_labels(d)
    assert labels.values == values.tolist()
    assert all(type(v) is int for v in labels.values)
    assert np.array_equal(labels.slots[0] - 1, codes)


def test_label_table_keeps_one_slot_table():
    # the CSR given is not kept: the estimators and ground truth read slots
    table = label_table([("a", 3), (), (3,), ("b", "a", 7)])
    assert set(vars(table)) == {"n", "slots", "values"}
    assert table.slots.tolist() == [[1, 0, 2, 3], [2, 0, 0, 1], [0, 0, 0, 4]]
    assert ground_truth_theta(Graph(4), table) == {"a": 0.5, 3: 0.5, "b": 0.25, 7: 0.25}


def test_theta_matches_independent_degree_histogram():
    g = generate_ba(10_000, 2, seed=5)
    dist = ground_truth_theta(g, degree_labels(g.degrees))
    hist = collections.Counter(len(row) for row in csr_rows(g.indptr, g.indices))
    assert set(dist) == set(hist)
    for label, count in hist.items():
        assert dist[label] == pytest.approx(count / g.n, abs=1e-15)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_theta_permutation_invariant():
    rng = random.Random(3)
    g = generate_ba(200, 3, seed=9)
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = Graph(g.n, [(perm[u], perm[v]) for u, v in edges(g)])
    a = ground_truth_theta(g, degree_labels(g.degrees))
    b = ground_truth_theta(relabeled, degree_labels(relabeled.degrees))
    assert a == b


def test_empty_graph_rejected():
    g = Graph(0, [])
    with pytest.raises(ValueError, match="empty target graph"):
        ground_truth_theta(g, label_table([]))


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, [(1, 1)])


def test_duplicate_edges_merged_and_handshake():
    g = Graph(3, [(0, 1), (1, 0), (0, 1), (1, 2)])
    assert g.num_edges == 2
    assert sum(len(a) for a in csr_rows(g.indptr, g.indices)) == 2 * g.num_edges == 4


def test_edge_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [(0, 5)])


def test_graph_arrays_are_read_only():
    # experiments on one network share its build, so nothing may write into it
    g = Graph(3, [(0, 1), (1, 2)])
    b = BipartiteGraph(3, 2, [(0, 0), (2, 1)])
    arrays = [a for graph in (g, b) for a in vars(graph).values() if isinstance(a, np.ndarray)]
    assert len(arrays) == 3 + 6
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_bip_neighbors_basics():
    # a node's affiliation neighbors are its CSR row on its side
    aff = BipartiteGraph(2, 3, [(0, 2), (0, 0), (0, 1)])
    assert csr_rows(aff.left_indptr, aff.left_indices) == [(0, 1, 2), ()]
    assert csr_rows(aff.right_indptr, aff.right_indices) == [(0,), (0,), (0,)]
    assert aff.left_degrees.tolist() == [3, 0]
    assert aff.right_degrees.tolist() == [1, 1, 1]


def test_bipartite_transpose_consistency_on_synthetic():
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=60, m1=2, m2=3, m3=4, extra_pairs=50, seed=2))
    aff = h.affiliation
    left = csr_rows(aff.left_indptr, aff.left_indices)
    right = csr_rows(aff.right_indptr, aff.right_indices)
    for u in range(aff.n_left):
        for v in left[u]:
            assert u in right[v]
    for v in range(aff.n_right):
        for u in right[v]:
            assert v in left[u]
    assert sum(len(a) for a in left) == sum(len(a) for a in right)


def test_hybrid_side_mismatch_rejected():
    with pytest.raises(ValueError):
        HybridNetwork(Graph(2, []), Graph(2, []), BipartiteGraph(3, 2, []))


def _csr_rows(indptr, indices, degrees, n_rows, n_cols):
    """Check one CSR triple; return the row id of every entry."""
    assert len(indptr) == n_rows + 1
    assert indptr[0] == 0 and indptr[-1] == len(indices)
    assert np.all(np.diff(indptr) >= 0)
    assert np.array_equal(np.diff(indptr), degrees)
    assert np.all((indices >= 0) & (indices < n_cols))
    rows = np.repeat(np.arange(n_rows), degrees)
    same_row = rows[1:] == rows[:-1]
    assert np.all(indices[1:][same_row] > indices[:-1][same_row])  # strictly increasing
    return rows


def _assert_transposes(rows, indices, t_rows, t_indices, n_cols):
    """(row, col) pairs of one CSR equal the (col, row) pairs of the other."""
    keys = rows * n_cols + indices
    t_keys = np.sort(t_indices * n_cols + t_rows)
    assert np.array_equal(keys, t_keys)


def _assert_graph_invariants(g):
    rows = _csr_rows(g.indptr, g.indices, g.degrees, g.n, g.n)
    assert not np.any(rows == g.indices)  # no self-loops
    _assert_transposes(rows, g.indices, rows, g.indices, g.n)  # symmetric rows
    assert g.degrees.sum() == 2 * g.num_edges
    assert g.indptr.dtype == g.indices.dtype == g.degrees.dtype == np.int32  # all < 2**31


def _assert_hybrid_invariants(h):
    _assert_graph_invariants(h.target)
    _assert_graph_invariants(h.auxiliary)
    aff = h.affiliation
    rows = _csr_rows(aff.left_indptr, aff.left_indices, aff.left_degrees, aff.n_left, aff.n_right)
    t_rows = _csr_rows(
        aff.right_indptr, aff.right_indices, aff.right_degrees, aff.n_right, aff.n_left
    )
    _assert_transposes(rows, aff.left_indices, t_rows, aff.right_indices, aff.n_right)
    assert aff.left_degrees.sum() == aff.right_degrees.sum() == aff.num_edges
    assert h.covered_targets().tolist() == [u for u in range(aff.n_left) if aff.left_degrees[u]]


def test_csr_invariants_synthetic_hybrid():
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=300, m1=2, m2=3, m3=5, extra_pairs=400, seed=3))
    _assert_hybrid_invariants(h)


def test_csr_invariants_ingested_hybrid(tmp_path):
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=200, m1=2, m2=3, m3=4, extra_pairs=150, seed=8))
    for name, g in (("t.txt", h.target), ("a.txt", h.auxiliary)):
        write_edge_list(g, tmp_path / name)
    write_affiliation(h.affiliation, tmp_path / "aff.txt")
    target = load_edge_list(tmp_path / "t.txt")
    auxiliary = load_edge_list(tmp_path / "a.txt")
    loaded = HybridNetwork(
        target, auxiliary, load_affiliation(tmp_path / "aff.txt", target, auxiliary)
    )
    _assert_hybrid_invariants(loaded)
    assert loaded.target.num_edges == h.target.num_edges
    assert loaded.affiliation.num_edges == h.affiliation.num_edges


def test_csr_invariants_lbsn_hybrid(tmp_path):
    rng = random.Random(6)
    lines = {f"u{rng.randrange(40)} u{rng.randrange(40)}" for _ in range(120)}
    (tmp_path / "social.txt").write_text(
        "".join(f"{line}\n" for line in sorted(lines) if len(set(line.split())) == 2)
    )
    social = load_edge_list(tmp_path / "social.txt")
    (tmp_path / "checkins.tsv").write_text("".join(
        f"u{rng.randrange(50)}\tt\t40.7\t-74.0\tv{rng.randrange(30)}\n" for _ in range(200)))
    h, _ = load_checkins(tmp_path / "checkins.tsv", social)
    assert h.target.n > social.n  # users seen only in check-ins
    _assert_hybrid_invariants(h)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (50, 1), (200, 4), (1000, 7)])
def test_ba_edge_count_matches_csr(n, m):
    g = generate_ba(n, m, seed=n + m)
    assert g.num_edges == ba_edge_count(n, m)
    _assert_graph_invariants(g)


def test_csr_matches_set_semantics():
    rng = random.Random(12)
    n = 40
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(300)]
    pairs = [(a, b) for a, b in pairs if a != b]
    und = Graph(n, pairs + [(b, a) for a, b in pairs[:50]])
    bip = BipartiteGraph(n, 7, [(a, b % 7) for a, b in pairs])
    und_rows = csr_rows(und.indptr, und.indices)
    bip_rows = csr_rows(bip.left_indptr, bip.left_indices)
    for u in range(n):
        assert list(und_rows[u]) == sorted(
            {b for a, b in pairs if a == u} | {a for a, b in pairs if b == u}
        )
        assert list(bip_rows[u]) == sorted({b % 7 for a, b in pairs if a == u})
    assert np.array_equal(Graph(n, np.array(pairs)).indices, und.indices)


def _plain_csr(rows, cols, n_rows, n_cols):
    """(indptr, indices, degrees) by the plain definition: the distinct
    (row, col) pairs in order, a row's length counted by bincount."""
    keys = np.unique(rows * max(n_cols, 1) + cols)
    row, indices = np.divmod(keys, max(n_cols, 1))
    degrees = np.bincount(row, minlength=n_rows)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return indptr, indices, degrees


@pytest.mark.parametrize("n,m,n_right", [(1, 0, 1), (2, 1, 5), (30, 200, 4), (3000, 20000, 700)])
def test_csr_build_matches_plain_definition(n, m, n_right):
    gen = np.random.default_rng(n + m)
    e = gen.integers(0, n, size=(m, 2))
    e = e[e[:, 0] != e[:, 1]]
    e = np.concatenate((e, e[: len(e) // 3, ::-1]))  # duplicates in both directions
    g = Graph(n, e)
    want = _plain_csr(np.concatenate((e[:, 0], e[:, 1])), np.concatenate((e[:, 1], e[:, 0])), n, n)
    for got, ref in zip((g.indptr, g.indices, g.degrees), want):
        assert got.dtype == np.int32 and np.array_equal(got, ref)
    pairs = np.column_stack((e[:, 0], e[:, 1] % n_right))
    bip = BipartiteGraph(n, n_right, pairs)
    left = _plain_csr(pairs[:, 0], pairs[:, 1], n, n_right)
    right = _plain_csr(pairs[:, 1], pairs[:, 0], n_right, n)
    got = (bip.left_indptr, bip.left_indices, bip.left_degrees,
           bip.right_indptr, bip.right_indices, bip.right_degrees)
    for got_arr, ref in zip(got, left + right):
        assert got_arr.dtype == np.int32 and np.array_equal(got_arr, ref)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    "n_rows,n_cols,m", [(1, 1, 0), (9, 9, 60), (2000, 2000, 20000), (5, 2**30, 80)])
def test_csr_matches_unique_reference(dtype, n_rows, n_cols, m):
    # a multigraph with repeated pairs, and the last two rows and columns
    # left empty; at 2**30 columns row * width passes 2**31, which int32
    # rows would wrap if the keys were multiplied out in int32
    gen = np.random.default_rng(n_rows + m)
    rows = gen.integers(0, max(n_rows - 2, 1), size=m)
    cols = gen.integers(0, max(n_cols - 2, 1), size=m)
    rows, cols = (np.concatenate((a, a[: m // 3])).astype(dtype) for a in (rows, cols))
    blocks = ((rows, cols),)
    if n_rows == n_cols:  # each pair in both directions, as Graph stores it
        blocks += ((cols, rows),)
    want = _plain_csr(*(np.concatenate(side).astype(np.int64) for side in zip(*blocks)),
                      n_rows, n_cols)
    for got, ref in zip(_csr(blocks, n_rows, n_cols), want):
        assert got.dtype == np.int32 and np.array_equal(got, ref)
    if n_rows == n_cols and m:
        e = np.column_stack((rows, cols))
        e = e[e[:, 0] != e[:, 1]]
        g, g64 = Graph(n_rows, e), Graph(n_rows, e.astype(np.int64))
        for name in ("indptr", "indices", "degrees"):
            assert np.array_equal(getattr(g, name), getattr(g64, name))


@pytest.mark.parametrize("n_cols,dtype", [(2**31 - 1, np.int32), (2**31, np.int64)])
def test_csr_arrays_are_int32_below_2_31_columns(n_cols, dtype):
    # one row whose one entry is the last column: nothing big is allocated
    arrays = _csr(((np.array([0]), np.array([n_cols - 1])),), 1, n_cols)
    assert [a.dtype for a in arrays] == [dtype] * 3
    assert [a.tolist() for a in arrays] == [[0, 1], [n_cols - 1], [1]]


def test_csr_build_peak_memory():
    # 1M edges on 200k nodes. Building the keys from two concatenated copies
    # of the endpoints and splitting them with divmod peaked at 84.0 MB of
    # numpy allocations (tracemalloc), 4.4 times the 19.2 MB int64 output;
    # the preallocated keys, turned into the indices in place, need at most
    # half.  The stored arrays are int32: 9.6 MB
    gen = np.random.default_rng(0)
    e = gen.integers(0, 200_000, size=(1_000_000, 2))
    e = e[e[:, 0] != e[:, 1]]
    tracemalloc.start()
    try:
        g = Graph(200_000, e)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    out = g.indptr.nbytes + g.indices.nbytes + g.degrees.nbytes
    assert out == pytest.approx(9.6e6, rel=0.01)
    assert peak <= 84.0e6 / 2


def test_first_bad_edge_named():
    with pytest.raises(ValueError, match="self-loop at node 1"):
        Graph(3, [(0, 1), (1, 1), (0, 5)])
    with pytest.raises(ValueError, match=r"edge \(0,5\) out of range for n=3"):
        Graph(3, [(0, 1), (0, 5), (1, 1)])
    with pytest.raises(ValueError, match="right id 4 out of range"):
        BipartiteGraph(2, 2, [(0, 4), (5, 0)])
    with pytest.raises(ValueError, match="left id 5 out of range"):
        BipartiteGraph(2, 2, [(5, 4)])
    with pytest.raises(ValueError, match="pairs"):
        Graph(3, [(0, 1, 2)])
    # int32 pairs, kept as they are, name the same first bad pair
    with pytest.raises(ValueError, match="self-loop at node 1"):
        Graph(3, np.array([(0, 1), (1, 1), (0, 5)], dtype=np.int32))
    with pytest.raises(ValueError, match="left id -1 out of range"):
        BipartiteGraph(2, 2, np.array([(0, 1), (-1, 0)], dtype=np.int32))
