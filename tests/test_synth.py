import collections
import hashlib
import math

import numpy as np
import pytest
from helpers import ba_exact_law, edges

from hybridsample import synth
from hybridsample.graphs import Graph
from hybridsample.seeds import STREAM_AUX_GRAPH, STREAM_HALF_A, STREAM_HALF_B, spawn_generator
from hybridsample.synth import (
    SynthConfig,
    affiliation_keys,
    ba_edge_count,
    ba_endpoints,
    build_synthetic_hybrid,
    generate_ba,
    orient_edges,
)


def _components(graph):
    seen = [False] * graph.n
    comps = []
    for s in range(graph.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        size = 0
        while stack:
            u = stack.pop()
            size += 1
            for v in graph.indices[graph.indptr[u]:graph.indptr[u + 1]].tolist():
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        comps.append(size)
    return comps


def test_ba_minimal_is_tree():
    g = generate_ba(3, 1, seed=0)
    assert g.num_edges == 2


def test_ba_edge_count_formula_and_mean_degree():
    n, m = 10_000, 2
    g = generate_ba(n, m, seed=4)
    assert g.num_edges == ba_edge_count(n, m) == m * (m + 1) // 2 + (n - m - 1) * m
    mean_deg = 2 * g.num_edges / n
    assert 3.9 <= mean_deg <= 4.0


def test_ba_deterministic_per_seed():
    a = generate_ba(500, 3, seed=11)
    b = generate_ba(500, 3, seed=11)
    c = generate_ba(500, 3, seed=12)
    assert edges(a) == edges(b)
    assert edges(a) != edges(c)


def test_ba_connected():
    g = generate_ba(300, 2, seed=8)
    assert _components(g) == [300]


def test_ba_rejects_bad_m():
    with pytest.raises(ValueError):
        generate_ba(5, 5, seed=0)
    with pytest.raises(ValueError):
        generate_ba(5, 0, seed=0)


def test_hybrid_construction_arithmetic():
    cfg = SynthConfig(n_per_graph=100, m1=2, m2=5, m3=10, extra_pairs=200, seed=7)
    h = build_synthetic_hybrid(cfg)
    assert h.target.n == 200
    assert h.target.num_edges == ba_edge_count(100, 2) + ba_edge_count(100, 10) + 1
    assert h.auxiliary.num_edges == ba_edge_count(100, 5)
    assert h.affiliation.left_degrees.min() >= 1
    assert h.affiliation.num_edges == 2 * 100 + 200


def test_hybrid_no_extra_pairs_edge_count():
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=50, m1=2, m2=3, m3=4, extra_pairs=0, seed=1))
    assert h.affiliation.num_edges == 2 * 50


def test_hybrid_two_components_bridged():
    cfg = SynthConfig(n_per_graph=80, m1=2, m2=3, m3=5, extra_pairs=10, seed=5)
    h = build_synthetic_hybrid(cfg)
    assert _components(h.target) == [160]
    # removing the bridge edge splits the target into the two halves
    bridge = [(u, v) for u, v in edges(h.target) if u < 80 <= v]
    assert len(bridge) == 1


def test_hybrid_deterministic():
    cfg = SynthConfig(n_per_graph=60, m1=2, m2=3, m3=4, extra_pairs=30, seed=9)
    a = build_synthetic_hybrid(cfg)
    b = build_synthetic_hybrid(cfg)
    assert edges(a.target) == edges(b.target)
    assert edges(a.auxiliary) == edges(b.auxiliary)
    assert np.array_equal(a.affiliation.left_indptr, b.affiliation.left_indptr)
    assert np.array_equal(a.affiliation.left_indices, b.affiliation.left_indices)


def test_orient_edges_roundtrip():
    g = generate_ba(120, 2, seed=3)
    arcs = orient_edges(g, 44)
    assert arcs.shape[1] == 2
    pairs = set(map(tuple, arcs.tolist()))
    assert len(pairs) == len(arcs)  # no arc repeats
    # every edge keeps at least one arc, and the arcs give back the edges
    assert all((u, v) in pairs or (v, u) in pairs for u, v in edges(g))
    assert edges(Graph(g.n, arcs)) == edges(g)
    # all three arc outcomes occur at this size
    outcomes = collections.Counter(((u, v) in pairs, (v, u) in pairs) for u, v in edges(g))
    assert set(outcomes) == {(True, False), (False, True), (True, True)}
    assert np.array_equal(orient_edges(g, 44), arcs)


def test_extra_pairs_beyond_free_pairs_rejected():
    # 2n target nodes x n auxiliary nodes, 2n of the pairs taken up front
    with pytest.raises(ValueError, match=r"extra_pairs=181 exceeds the 180 free"):
        SynthConfig(n_per_graph=10, m1=2, m2=3, m3=4, extra_pairs=181)
    h = build_synthetic_hybrid(SynthConfig(n_per_graph=10, m1=2, m2=3, m3=4, extra_pairs=180))
    assert h.affiliation.num_edges == 2 * 10 * 10


@pytest.mark.parametrize("n,m", [(6, 1), (6, 2), (7, 3)])
def test_ba_matches_exact_law(n, m):
    law = ba_exact_law(n, m)
    # every graph is expected at least 20 times, so its binomial SE is a fair scale
    draws = math.ceil(20 / min(law.values()))
    gen = spawn_generator(2024, n, m)
    counts = collections.Counter()
    for _ in range(draws):
        pairs = np.sort(ba_endpoints(n, m, gen).reshape(-1, 2), axis=1)
        counts[tuple(sorted(map(tuple, pairs.tolist())))] += 1
    assert set(counts) <= set(law)  # no graph outside the law
    for graph, p in law.items():
        se = math.sqrt(p * (1 - p) / draws)
        assert abs(counts[graph] / draws - p) <= 5 * se, (graph, counts[graph], p * draws)


@pytest.mark.parametrize("n,m", [(50, 1), (500, 4), (3000, 10)])
def test_ba_endpoints_do_not_depend_on_chunking(monkeypatch, n, m):
    gen = spawn_generator(7, n)
    want, after = ba_endpoints(n, m, gen), gen.random()
    assert len(want) == 2 * ba_edge_count(n, m)
    for growth in (1.0, math.inf):  # one node per chunk (sequential), one chunk
        monkeypatch.setattr(synth, "CHUNK_GROWTH", growth)
        gen = spawn_generator(7, n)
        assert np.array_equal(ba_endpoints(n, m, gen), want)
        # gen is left past every extra round that some node read
        assert gen.random() == after


# sha256 of the int64 endpoint lists of the seed-1 synthetic network's three
# attachment graphs at n_per_graph=100,000, recorded with the resolution
# passes that restarted after the first changed node.  Resolving each chunk
# to a fixpoint, storing the list as int32 and reading the extra rounds
# chunk by chunk must not move them.
PINNED_BA_DIGESTS = {
    (2, STREAM_HALF_A): "c8542f2fb215207f6e6f4b340c3a9604bb116a1280cc521d1cafb0f031b2e94f",
    (5, STREAM_AUX_GRAPH): "2137b7b8a202248c7b254d70047dc3e40992faaa0667066407b7e293c0763c53",
    (10, STREAM_HALF_B): "398830990c71cc1ac86ad72425a3d809890f87516c129e501d20f11d688543e7",
}


@pytest.mark.parametrize("m,key", sorted(PINNED_BA_DIGESTS))
def test_ba_endpoints_match_pinned_digest(m, key):
    ends = ba_endpoints(100_000, m, spawn_generator(1, key))
    assert ends.dtype == np.int32
    assert hashlib.sha256(ends.astype(np.int64).tobytes()).hexdigest() == PINNED_BA_DIGESTS[m, key]


@pytest.mark.parametrize("n,extra", [(10, 0), (10, 37), (10, 180), (300, 5000)])
def test_affiliation_keys_do_not_depend_on_block(monkeypatch, n, extra):
    want = affiliation_keys(n, extra, spawn_generator(3, n))
    assert len(want) == len(set(want.tolist())) == 2 * n + extra
    assert np.array_equal(want[:2 * n] // n, np.arange(2 * n))
    for block in (1, 7):
        monkeypatch.setattr(synth, "PAIR_BLOCK", block)
        assert np.array_equal(affiliation_keys(n, extra, spawn_generator(3, n)), want)
