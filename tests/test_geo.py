import random

import numpy as np
import pytest

from helpers import csr_rows, rrzi_exact_probabilities, three_user_hybrid
from hybridsample.estimators import nrmse, vsa_theta_unknown_n
from hybridsample.geo import (
    NYC_REGION,
    Region,
    Venue,
    VenueIndex,
    ZoomInSource,
    load_venues,
    rrzi_draw,
    write_venues,
)
from hybridsample.graphs import (
    BipartiteGraph,
    Graph,
    HybridNetwork,
    degree_labels,
    ground_truth_theta,
)
from hybridsample.samplers import vs_a_collect
from hybridsample.seeds import STREAM_AUX, spawn_generator


def aux_stream(seed):
    """The generator a harvest of ``seed`` draws its zoom-ins from."""
    return spawn_generator(seed, STREAM_AUX)


def grid_index(n, region=Region(0.0, 1.0, 0.0, 1.0), seed=5):
    rng = random.Random(seed)
    venues = [
        Venue(
            i,
            region.lat_min + rng.random() * (region.lat_max - region.lat_min),
            region.lon_min + rng.random() * (region.lon_max - region.lon_min),
        )
        for i in range(n)
    ]
    return VenueIndex(venues)


def test_region_validation_and_membership():
    with pytest.raises(ValueError, match="degenerate"):
        Region(1.0, 1.0, 0.0, 2.0)
    r = Region(0.0, 1.0, 0.0, 1.0)
    assert r.contains(0.0, 0.0) and not r.contains(1.0, 0.5)
    assert r.contains_closed(1.0, 1.0)
    quads = r.quadrants()
    # quadrants partition: every interior point in exactly one quadrant
    rng = random.Random(0)
    for _ in range(200):
        lat, lon = rng.random(), rng.random()
        assert sum(q.contains(lat, lon) for q in quads) == 1


def test_query_region_basics():
    idx = grid_index(10)
    empty = Region(5.0, 6.0, 5.0, 6.0)
    assert idx.query(empty, 3) == ([], False)
    all_, truncated = idx.query(Region(0.0, 1.0, 0.0, 1.0), 10)
    assert len(all_) == 10 and not truncated
    some, truncated = idx.query(Region(0.0, 1.0, 0.0, 1.0), 9)
    assert truncated and [v.id for v in some] == list(range(9))  # smallest ids win
    with pytest.raises(ValueError):
        idx.query(empty, 0)


def test_rrzi_no_zoom_uniform_leaf():
    idx = grid_index(4)
    root = Region(0.0, 1.0, 0.0, 1.0)
    draw = rrzi_draw(idx, root, 5, aux_stream(3))
    assert draw.p == pytest.approx(1 / 4)
    assert draw.zoom_path == []
    assert draw.api_calls == 1


def test_rrzi_four_quadrant_symmetry():
    venues = [Venue(0, 0.25, 0.25), Venue(1, 0.25, 0.75), Venue(2, 0.75, 0.25), Venue(3, 0.75, 0.75)]
    idx = VenueIndex(venues)
    root = Region(0.0, 1.0, 0.0, 1.0)
    seen = set()
    for s in range(40):
        draw = rrzi_draw(idx, root, 1, aux_stream(s))
        assert draw.p == pytest.approx(0.25, abs=1e-15)
        assert len(draw.zoom_path) == 1
        assert draw.api_calls == 1 + 4 + 1  # root query, 4 probes, leaf query
        seen.add(draw.venue.id)
    assert seen == {0, 1, 2, 3}


def test_rrzi_probability_closure_and_match():
    idx = grid_index(20, seed=8)
    root = Region(0.0, 1.0, 0.0, 1.0)
    exact = rrzi_exact_probabilities(idx, root, k=3)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(exact) == 20 and min(exact.values()) > 0.0
    # the recorded p of each draw equals the exact inclusion probability
    gen = aux_stream(123)
    counts = {}
    for _ in range(6000):
        draw = rrzi_draw(idx, root, 3, gen)
        assert draw.p == pytest.approx(exact[draw.venue.id], abs=1e-12)
        counts[draw.venue.id] = counts.get(draw.venue.id, 0) + 1
    for vid, c in counts.items():
        assert c / 6000 == pytest.approx(exact[vid], abs=0.03)


def test_rrzi_deterministic_and_cost_tracks_depth():
    idx = grid_index(50, seed=2)
    root = Region(0.0, 1.0, 0.0, 1.0)
    a = rrzi_draw(idx, root, 2, aux_stream(9))
    b = rrzi_draw(idx, root, 2, aux_stream(9))
    assert (a.venue, a.p, a.zoom_path, a.api_calls) == (b.venue, b.p, b.zoom_path, b.api_calls)
    # one query per visited region plus four probes per zoom level
    assert a.api_calls == 1 + 5 * len(a.zoom_path)
    assert len(a.zoom_path) >= 1


def test_rrzi_empty_root_and_max_depth():
    # each error is raised again by a second draw on the same (memoising) index
    idx = grid_index(5)
    for _ in range(2):
        with pytest.raises(ValueError, match="no venues"):
            rrzi_draw(idx, Region(5.0, 6.0, 5.0, 6.0), 2, aux_stream(0))
    # more than K venues at one point can never become fully accessible
    stacked = VenueIndex([Venue(i, 0.5, 0.5) for i in range(3)])
    for seed in (0, 0, 1):
        with pytest.raises(RuntimeError, match="depth"):
            rrzi_draw(stacked, Region(0.0, 1.0, 0.0, 1.0), 2, aux_stream(seed))


def _draws(idx, root, k, seeds):
    return [
        (d.venue, d.p, d.zoom_path, d.api_calls)
        for d in (rrzi_draw(idx, root, k, aux_stream(s)) for s in seeds)
    ]


@pytest.mark.parametrize("k", [1, 3, 25])
def test_rrzi_zoom_cache_does_not_change_draws(k):
    root = Region(0.0, 1.0, 0.0, 1.0)
    fresh = _draws(grid_index(2000, seed=11), root, k, range(200))
    # warmed by other seeds, and at every k, since steps are kept per (cell, k)
    warmed = grid_index(2000, seed=11)
    for warm_k in (1, 3, 25):
        _draws(warmed, root, warm_k, range(1000, 1200))
    assert _draws(warmed, root, k, range(200)) == fresh


def test_rrzi_zoom_cache_serves_repeated_draws(monkeypatch):
    idx = grid_index(2000, seed=11)
    root = Region(0.0, 1.0, 0.0, 1.0)
    first = _draws(idx, root, 3, range(100))
    calls = []
    real_query = VenueIndex.query

    def counting_query(self, region, k):
        calls.append((region, k))
        return real_query(self, region, k)

    monkeypatch.setattr(VenueIndex, "query", counting_query)
    assert _draws(idx, root, 3, range(100)) == first
    assert calls == []
    # new seeds query only the cells they reach first, each once
    _draws(idx, root, 3, range(100, 300))
    assert len(calls) == len(set(calls)) > 0


def test_rrzi_vsa_single_full_venue_exact():
    n = 6
    target = Graph(n, [(i, i + 1) for i in range(n - 1)])
    aux = Graph(1, [])
    aff = BipartiteGraph(n, 1, [(u, 0) for u in range(n)])
    h = HybridNetwork(target, aux, aff)
    idx = VenueIndex([Venue(0, 0.5, 0.5)])
    root = Region(0.0, 1.0, 0.0, 1.0)
    truth = ground_truth_theta(target, degree_labels(target.degrees))
    sample = vs_a_collect(h, ZoomInSource(idx, root, 3), 4, seed=2)
    rep = vsa_theta_unknown_n(sample, degree_labels(target.degrees), seed=2, n=h.target.n)
    for l, t in truth.theta.items():
        assert rep.theta[l] == pytest.approx(t, abs=1e-12)
        assert rep.theta_known_n[l] == pytest.approx(t, abs=1e-12)


def test_zoom_in_source_harvest_cost_is_api_calls():
    h = HybridNetwork(
        Graph(20, [(i, i + 1) for i in range(19)]),
        Graph(20, []),
        BipartiteGraph(20, 20, [(u, u) for u in range(20)]),
    )
    idx = grid_index(20, seed=8)
    root = Region(0.0, 1.0, 0.0, 1.0)
    sample = vs_a_collect(h, ZoomInSource(idx, root, 3), 30, seed=4)
    # the same draws, replayed from the harvest's stream
    gen = aux_stream(4)
    draws = [rrzi_draw(idx, root, 3, gen) for _ in range(30)]
    assert sample.venues.tolist() == [d.venue.id for d in draws]
    assert sample.p.tolist() == [d.p for d in draws]
    assert sample.query_count == sum(d.api_calls for d in draws) > 30


def test_rrzi_vsa_rejects_venue_outside_auxiliary_graph():
    h = three_user_hybrid()
    idx = VenueIndex([Venue(h.auxiliary.n, 0.5, 0.5)])
    with pytest.raises(ValueError, match="not an auxiliary node"):
        vs_a_collect(h, ZoomInSource(idx, Region(0.0, 1.0, 0.0, 1.0), 3), 2, seed=0)


def test_rrzi_vsa_enumeration_ratio_unbiased():
    # both venues inside one fully accessible leaf; draws are uniform over them
    h = three_user_hybrid()
    idx = VenueIndex([Venue(0, 0.2, 0.2), Venue(1, 0.3, 0.3)])
    root = Region(0.0, 1.0, 0.0, 1.0)
    exact = rrzi_exact_probabilities(idx, root, k=2)
    assert exact == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}

    aff = h.affiliation
    left = csr_rows(aff.left_indptr, aff.left_indices)
    right = csr_rows(aff.right_indptr, aff.right_indices)
    # enumeration over single draws, weighted by the oracle probabilities
    num = 0.0
    den = 0.0
    for v, pv in exact.items():
        inv = 1.0 / pv
        num += pv * inv * sum(1.0 / len(left[u]) for u in right[v] if u == 0)
        den += pv * inv * sum(1.0 / len(left[u]) for u in right[v])
    theta_a_truth = 1 / 3
    assert num / den == pytest.approx(theta_a_truth, abs=1e-12)


def test_rrzi_vsa_lbsn_city_pattern():
    # synthetic city: venues scattered over the box, users checking in at random
    rng = random.Random(42)
    n_users, n_venues = 1000, 1000
    from helpers import random_connected_graph

    social = random_connected_graph(rng, n_users, 2500)
    venues = [
        Venue(
            i,
            NYC_REGION.lat_min + rng.random() * 0.999,
            NYC_REGION.lon_min + rng.random() * 0.999,
        )
        for i in range(n_venues)
    ]
    pairs = set()
    for u in range(n_users):
        for _ in range(3):
            pairs.add((u, rng.randrange(n_venues)))
    h = HybridNetwork(social, Graph(n_venues, []), BipartiteGraph(n_users, n_venues, sorted(pairs)))
    idx = VenueIndex(venues)
    root = idx.bounding_region()
    labeler = degree_labels(social.degrees)
    truth = ground_truth_theta(social, labeler)

    def runs(b_prime, n_runs=25):
        zoom = ZoomInSource(idx, root, 20)
        return [
            vsa_theta_unknown_n(vs_a_collect(h, zoom, b_prime, seed=s), labeler,
                                seed=s, n=h.target.n)
            for s in range(n_runs)
        ]

    labels = sorted(l for l, t in truth.theta.items() if t > 0)
    low = [l for l in labels if l <= 5]
    high = [l for l in labels if l >= np.percentile(labels, 80)]

    small, large = runs(40), runs(640)
    def mean_err(reports, label):
        return np.mean([abs(r.theta.get(label, 0.0) - truth[label]) for r in reports])

    # estimates tighten as the number of draws grows
    assert mean_err(large, 2) < mean_err(small, 2)
    # low-degree labels are estimated better than high-degree ones
    nr = {l: nrmse([r.theta.get(l, 0.0) for r in large], truth[l]) for l in low + high}
    assert np.mean([nr[l] for l in low]) < np.mean([nr[l] for l in high])


def test_venue_file_roundtrip(tmp_path):
    venues = [Venue(3, 40.5, -74.0), Venue(1, 41.0, -73.5)]
    path = tmp_path / "venues.txt"
    write_venues(venues, path)
    loaded = load_venues(path)
    assert [v.id for v in loaded] == [1, 3]
    assert loaded[1] == Venue(3, 40.5, -74.0)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        load_venues(bad)


def test_venue_ids_resolve_by_auxiliary_name(tmp_path):
    path = tmp_path / "venues.txt"
    write_venues([Venue(7, 40.5, -74.0), Venue(3, 41.0, -73.5)], path)
    loaded = load_venues(path, node_names=["7", "5", "3"])
    assert loaded == [Venue(2, 41.0, -73.5), Venue(0, 40.5, -74.0)]
    with pytest.raises(ValueError, match="venues.txt:2: venue id '7'"):
        load_venues(path, node_names=["3"])
