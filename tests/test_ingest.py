import logging

import numpy as np
import pytest

from helpers import csr_rows

from hybridsample.geo import Region
from hybridsample.ingest import (
    CheckinRecord,
    build_hybrid_from_lbsn,
    load_affiliation,
    load_checkins,
    load_edge_list,
    write_affiliation,
    write_edge_list,
)
from hybridsample.synth import generate_ba

NYC = Region(40.4, 41.4, -74.3, -73.3)


def test_load_edge_list_path_graph(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("a b\nb c\n")
    g = load_edge_list(p)
    assert g.n == 3 and g.num_edges == 2
    assert g.node_names == ["a", "b", "c"]
    assert csr_rows(g.indptr, g.indices)[g.node_names.index("b")] == (0, 2)


def test_load_edge_list_dedup_and_comments(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("# comment\na b\nb a\n\na b\n")
    g = load_edge_list(p)
    assert g.num_edges == 1


def test_load_edge_list_malformed_line_number(tmp_path):
    p = tmp_path / "edges.txt"
    p.write_text("a b\nxyz\n")
    with pytest.raises(ValueError, match=r"edges\.txt:2"):
        load_edge_list(p)


def test_edge_list_roundtrip_ba(tmp_path):
    g = generate_ba(300, 3, seed=21)
    p = tmp_path / "ba.txt"
    write_edge_list(g, p)
    back = load_edge_list(p)
    assert back.n == g.n
    # identical under the dictionary: translate reloaded edges to original ids
    names = [int(t) for t in back.node_names]
    edges_back = {tuple(sorted((names[u], names[v]))) for u, v in back.edges()}
    assert edges_back == set(g.edges())


def test_load_edge_list_order_insensitive(tmp_path):
    lines = ["a b", "b c", "c d", "a d", "b d"]
    p1 = tmp_path / "e1.txt"
    p2 = tmp_path / "e2.txt"
    p1.write_text("\n".join(lines) + "\n")
    p2.write_text("\n".join(reversed(lines)) + "\n")
    g1, g2 = load_edge_list(p1), load_edge_list(p2)

    def named_edges(g):
        return {tuple(sorted((g.node_names[u], g.node_names[v]))) for u, v in g.edges()}

    assert named_edges(g1) == named_edges(g2)
    # adjacency is normalized: sorted and deduplicated on both loads
    for g in (g1, g2):
        assert all(list(adj) == sorted(set(adj)) for adj in csr_rows(g.indptr, g.indices))


def test_load_checkins_bbox_inclusive(tmp_path):
    p = tmp_path / "checkins.tsv"
    rows = [
        "u1\t2010-10-17T01:48:53Z\t40.7\t-74.0\tv1",     # interior
        "u2\t2010-10-17T01:48:53Z\t42.0\t-74.0\tv2",     # north of the box
        "u3\t2010-10-17T01:48:53Z\t40.4\t-74.0\tv3",     # exactly on the boundary
    ]
    p.write_text("\n".join(rows) + "\n")
    recs = load_checkins(p, bbox=NYC)
    assert [r.user for r in recs] == ["u1", "u3"]
    assert recs[0].venue == "v1" and recs[0].timestamp == "2010-10-17T01:48:53Z"


def test_load_checkins_skips_malformed(tmp_path, caplog):
    p = tmp_path / "checkins.tsv"
    rows = [
        "u1\tts\t40.7\t-74.0\tv1",
        "u2\tts\tnot-a-number\t-74.0\tv2",
        "u3\tts\t40.6",
        "u4\tts\t40.6\t-74.0\tv4",
    ]
    p.write_text("\n".join(rows) + "\n")
    with caplog.at_level(logging.WARNING):
        recs = load_checkins(p)
    assert [r.user for r in recs] == ["u1", "u4"]
    assert "skipped 2" in caplog.text


def test_build_hybrid_dedups_checkins(tmp_path):
    social = _social(tmp_path, "a b\n")
    recs = [CheckinRecord("a", 40.7, -74.0, "v9", "t")] * 3
    hybrid, index = build_hybrid_from_lbsn(social, recs)
    assert hybrid.affiliation.left_degree(0) == 1
    assert len(index) == 1


def _social(tmp_path, text):
    p = tmp_path / "social.txt"
    p.write_text(text)
    return load_edge_list(p)


def test_build_hybrid_shared_venue_degree(tmp_path):
    social = _social(tmp_path, "a b\n")
    recs = [
        CheckinRecord("a", 40.7, -74.0, "v1", "t"),
        CheckinRecord("b", 40.7, -74.0, "v1", "t"),
    ]
    hybrid, _ = build_hybrid_from_lbsn(social, recs)
    assert hybrid.affiliation.right_degree(0) == 2
    assert hybrid.auxiliary.num_edges == 0


def test_build_hybrid_edge_count_matches_pair_set(tmp_path):
    import random

    rng = random.Random(3)
    social = _social(tmp_path, "u0 u1\nu1 u2\nu2 u3\n")
    recs = []
    for _ in range(300):
        recs.append(
            CheckinRecord(f"u{rng.randrange(6)}", 40.5, -74.0, f"v{rng.randrange(8)}", "t")
        )
    hybrid, _ = build_hybrid_from_lbsn(social, recs)
    distinct = {(r.user, r.venue) for r in recs}
    assert hybrid.affiliation.num_edges == len(distinct)
    # users u4, u5 only exist in check-ins: isolated target nodes
    assert hybrid.target.n == 6
    names = hybrid.target.node_names
    for extra in ("u4", "u5"):
        assert hybrid.target.degrees[names.index(extra)] == 0


def test_build_hybrid_coordinate_conflict_keeps_first(tmp_path, caplog):
    social = _social(tmp_path, "a b\n")
    recs = [
        CheckinRecord("a", 40.7, -74.0, "v1", "t"),
        CheckinRecord("b", 40.9, -73.9, "v1", "t"),
    ]
    with caplog.at_level(logging.WARNING):
        _, index = build_hybrid_from_lbsn(social, recs)
    assert index.venues[0].lat == 40.7
    assert "first-seen" in caplog.text


def test_affiliation_roundtrip(tmp_path):
    left = _social(tmp_path, "a b\nb c\n")
    right_p = tmp_path / "right.txt"
    right_p.write_text("x y\n")
    right = load_edge_list(right_p)
    aff_p = tmp_path / "aff.txt"
    aff_p.write_text("a x\nb y\nc x\n")
    aff = load_affiliation(aff_p, left, right)
    assert aff.num_edges == 3
    out = tmp_path / "aff_out.txt"
    write_affiliation(aff, out, left_names=left.node_names, right_names=right.node_names)
    again = load_affiliation(out, left, right)
    assert np.array_equal(again.left_indptr, aff.left_indptr)
    assert np.array_equal(again.left_indices, aff.left_indices)
    bad = tmp_path / "aff_bad.txt"
    bad.write_text("a zz\n")
    with pytest.raises(ValueError, match="unknown auxiliary id"):
        load_affiliation(bad, left, right)
