import math
import random

import numpy as np
import pytest

from helpers import (
    contains,
    csr_rows,
    oracle_load_venues,
    quadrants,
    query,
    rrzi_exact_probabilities,
    three_user_hybrid,
    venues,
    zoom_in_distribution,
)
from hybridsample import experiment as ex
from hybridsample.estimators import nrmse, vsa_theta_unknown_n
from hybridsample.geo import (
    NYC_REGION,
    Region,
    bounding_region,
    load_venues,
    write_venues,
    zoom_in_law,
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


ROOT = Region(0.0, 1.0, 0.0, 1.0)


def grid_venues(n, region=ROOT, seed=5):
    rng = random.Random(seed)
    return venues([
        (
            region.lat_min + rng.random() * (region.lat_max - region.lat_min),
            region.lon_min + rng.random() * (region.lon_max - region.lon_min),
        )
        for _ in range(n)
    ])


def test_region_validation_and_membership():
    with pytest.raises(ValueError, match="degenerate"):
        Region(1.0, 1.0, 0.0, 2.0)
    r = Region(0.0, 1.0, 0.0, 1.0)
    assert contains(r, 0.0, 0.0) and not contains(r, 1.0, 0.5)
    quads = quadrants(r)
    # quadrants partition: every interior point in exactly one quadrant
    rng = random.Random(0)
    for _ in range(200):
        lat, lon = rng.random(), rng.random()
        assert sum(contains(q, lat, lon) for q in quads) == 1


def test_query_region_basics():
    idx = grid_venues(10)
    empty = Region(5.0, 6.0, 5.0, 6.0)
    assert query(idx, empty, 3) == ([], False)
    all_, truncated = query(idx, Region(0.0, 1.0, 0.0, 1.0), 10)
    assert len(all_) == 10 and not truncated
    some, truncated = query(idx, Region(0.0, 1.0, 0.0, 1.0), 9)
    assert truncated and some == list(range(9))  # smallest ids win
    with pytest.raises(ValueError):
        query(idx, empty, 0)


def test_rrzi_no_zoom_uniform_leaf():
    p, calls = zoom_in_law(*grid_venues(4), ROOT, 5)
    assert p.tolist() == [0.25] * 4
    assert calls.tolist() == [1] * 4


def test_rrzi_four_quadrant_symmetry():
    p, calls = zoom_in_law(*venues([(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]),
                           ROOT, 1)
    assert p.tolist() == [0.25] * 4
    assert calls.tolist() == [1 + 4 + 1] * 4  # root query, 4 probes, leaf query


def path_hybrid(n):
    """n users on a path, each affiliated with its own one of n venues."""
    return HybridNetwork(
        Graph(n, [(i, i + 1) for i in range(n - 1)]),
        Graph(n, []),
        BipartiteGraph(n, n, [(u, u) for u in range(n)]),
    )


def test_rrzi_probability_closure_and_match():
    idx = grid_venues(20, seed=8)
    exact = rrzi_exact_probabilities(idx, ROOT, k=3)
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(exact) == 20 and min(exact.values()) > 0.0
    p, calls = zoom_in_law(*idx, ROOT, 3)
    assert p.tolist() == [exact[v] for v in range(20)]
    # the draws of a harvest follow p, and each costs its venue's calls
    sample = vs_a_collect(path_hybrid(20), zoom_in_distribution(idx, ROOT, 3), 6000, seed=123)
    assert sample.p.tolist() == p[sample.venues].tolist()
    assert sample.query_count == calls[sample.venues].sum()
    freq = np.bincount(sample.venues, minlength=20) / 6000
    assert np.abs(freq - p).max() < 0.03


def test_rrzi_deterministic_and_cost_tracks_depth():
    idx = grid_venues(50, seed=2)
    depths = {}
    rrzi_exact_probabilities(idx, ROOT, 2, depths)
    p, calls = zoom_in_law(*idx, ROOT, 2)
    again = zoom_in_law(*idx, ROOT, 2)
    assert all(np.array_equal(a, b) for a, b in zip((p, calls), again))
    # one query per visited cell plus four probes per zoom level
    assert calls.tolist() == [1 + 5 * depths[v] for v in range(50)]
    assert calls.min() >= 6


@pytest.mark.parametrize("k", [1, 3, 25])
def test_zoom_in_law_matches_oracle_on_grid(k):
    idx = grid_venues(2000, seed=11)
    depths = {}
    exact = rrzi_exact_probabilities(idx, ROOT, k, depths)
    p, calls = zoom_in_law(*idx, ROOT, k)
    assert p.tolist() == [exact[v] for v in range(2000)]  # bit for bit
    assert calls.tolist() == [1 + 5 * depths[v] for v in range(2000)]


def test_zoom_in_law_gives_nodes_without_a_venue_no_draws():
    # every third node has no venue: the law over the others is the
    # oracle's law of those venues alone, position for position
    idx = grid_venues(60, seed=3)
    hole = np.arange(60) % 3 == 0
    holed = tuple(np.where(hole, np.nan, a) for a in idx)
    placed = venues(np.column_stack(idx)[~hole])
    root = bounding_region(*holed)
    assert root == bounding_region(*placed)
    depths = {}
    exact = rrzi_exact_probabilities(placed, root, 3, depths)
    p, calls = zoom_in_law(*holed, root, 3)
    assert p[hole].tolist() == [0.0] * 20 and calls[hole].tolist() == [0] * 20
    assert p[~hole].tolist() == [exact[v] for v in range(40)]
    assert calls[~hole].tolist() == [1 + 5 * depths[v] for v in range(40)]


def test_rrzi_empty_root_and_max_depth():
    with pytest.raises(ValueError, match="no venues"):
        zoom_in_law(*grid_venues(5), Region(5.0, 6.0, 5.0, 6.0), 2)
    # more than K venues at one point can never become fully accessible: at
    # 0.5 the midpoints stop splitting in float precision, at 0.0 the zoom
    # reaches MAX_ZOOM_DEPTH first
    for at in (0.5, 0.0):
        stacked = venues([(at, at)] * 3)
        with pytest.raises(RuntimeError, match=rf"depth limit.*more than 2 venues .*\({at}, {at}\)"):
            zoom_in_law(*stacked, ROOT, 2)
    # venues outside the root are never drawn
    idx = grid_venues(6)
    p, _ = zoom_in_law(*idx, Region(0.0, 0.5, 0.0, 1.0), 10)
    inside = (idx[0] < 0.5).tolist()
    assert (p > 0).tolist() == inside and math.fsum(p.tolist()) == 1.0


def test_rrzi_vsa_single_full_venue_exact():
    n = 6
    target = Graph(n, [(i, i + 1) for i in range(n - 1)])
    aux = Graph(1, [])
    aff = BipartiteGraph(n, 1, [(u, 0) for u in range(n)])
    h = HybridNetwork(target, aux, aff)
    idx = venues([(0.5, 0.5)])
    truth = ground_truth_theta(target, degree_labels(target.degrees))
    sample = vs_a_collect(h, zoom_in_distribution(idx, ROOT, 3), 4, seed=2)
    rep = vsa_theta_unknown_n(sample, degree_labels(target.degrees), n=h.target.n)
    for l, t in truth.items():
        assert rep.theta[l] == pytest.approx(t, abs=1e-12)
        assert rep.theta_known_n[l] == pytest.approx(t, abs=1e-12)


def test_zoom_in_source_harvest_cost_is_api_calls():
    idx = grid_venues(20, seed=8)
    zoom = zoom_in_distribution(idx, ROOT, 3)
    sample = vs_a_collect(path_hybrid(20), zoom, 30, seed=4)
    # one uniform of the harvest's stream a draw, as for VS-A
    assert sample.venues.tolist() == zoom.pick(spawn_generator(4, STREAM_AUX).random(30)).tolist()
    assert sample.query_count == zoom.calls[sample.venues].sum() > 30


def test_rrzi_vsa_rejects_venue_outside_auxiliary_graph(monkeypatch):
    # venue arrays over more (or fewer) nodes than the auxiliary graph has
    h = three_user_hybrid()
    cfg = ex.make_config({"method": "RRZI-VSA", "budget": "2"})
    for n in (h.auxiliary.n + 1, h.auxiliary.n - 1):
        idx = venues([(0.25 + 0.5 * v / n, 0.5) for v in range(n)])
        monkeypatch.setattr(ex, "build_network", lambda cfg, venues: (h, idx))
        with pytest.raises(ValueError, match="length must equal n'"):
            ex.prepare_experiment(cfg)


def test_rrzi_vsa_enumeration_ratio_unbiased():
    # both venues inside one fully accessible leaf; draws are uniform over them
    h = three_user_hybrid()
    idx = venues([(0.2, 0.2), (0.3, 0.3)])
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
    idx = venues([
        (
            NYC_REGION.lat_min + rng.random() * 0.999,
            NYC_REGION.lon_min + rng.random() * 0.999,
        )
        for _ in range(n_venues)
    ])
    pairs = set()
    for u in range(n_users):
        for _ in range(3):
            pairs.add((u, rng.randrange(n_venues)))
    h = HybridNetwork(social, Graph(n_venues, []), BipartiteGraph(n_users, n_venues, sorted(pairs)))
    root = bounding_region(*idx)
    labeler = degree_labels(social.degrees)
    truth = ground_truth_theta(social, labeler)

    def runs(b_prime, n_runs=25):
        zoom = zoom_in_distribution(idx, root, 20)
        return [
            vsa_theta_unknown_n(vs_a_collect(h, zoom, b_prime, seed=s), labeler, n=h.target.n)
            for s in range(n_runs)
        ]

    labels = sorted(l for l, t in truth.items() if t > 0)
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
    path = tmp_path / "venues.txt"
    venues = ([math.nan, 41.0, math.nan, 40.5], [math.nan, -73.5, math.nan, -74.0])
    write_venues(venues, path)
    assert path.read_text() == "1 41.0 -73.5\n3 40.5 -74.0\n"
    assert np.array_equal(load_venues(path, ["0", "1", "2", "3"]), venues, equal_nan=True)
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n")
    with pytest.raises(ValueError, match="bad.txt:1"):
        load_venues(bad, ["1"])


def test_venue_ids_resolve_by_auxiliary_name(tmp_path):
    path = tmp_path / "venues.txt"
    path.write_text("3 41.0 -73.5\n7 40.5 -74.0\n")
    lats, lons = load_venues(path, node_names=["7", "5", "3"])
    assert np.array_equal(lats, [40.5, math.nan, 41.0], equal_nan=True)
    assert np.array_equal(lons, [-74.0, math.nan, -73.5], equal_nan=True)
    with pytest.raises(ValueError, match="venues.txt:2: venue id '7'"):
        load_venues(path, node_names=["3"])


def test_duplicate_venue_id_names_the_id_and_lines(tmp_path):
    path = tmp_path / "venues.txt"
    path.write_text("0 40.5 -74.0\n1 40.6 -74.0\n# again\n0 40.7 -74.1\n")
    with pytest.raises(ValueError, match=r"venues.txt:4: duplicate venue id '0' \(first on line 1\)"):
        load_venues(path, node_names=["1", "0"])


@pytest.mark.parametrize("lat,lon", [(90.5, 0.0), (0.0, -180.5), (math.nan, 0.0), (0.0, math.inf)])
def test_venue_index_rejects_coordinates_out_of_range(lat, lon):
    # the zoom-in law checks every node's pair: both NaN (no venue), or in range
    with pytest.raises(ValueError, match=rf"node 1: venue coordinates \({lat}, {lon}\) out of range"):
        zoom_in_law([0.0, lat, math.nan], [0.0, lon, math.nan], ROOT, 1)
