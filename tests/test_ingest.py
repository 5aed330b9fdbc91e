import logging
import random
import re

import numpy as np
import pytest

from helpers import (
    csr_rows,
    edges,
    oracle_load_affiliation,
    oracle_load_edge_list,
    oracle_load_venues,
    oracle_write_affiliation,
    oracle_write_edge_list,
    oracle_write_venues,
)

from hybridsample import _tokens
from hybridsample.experiment import synthetic_venues
from hybridsample.geo import Region, load_venues, write_venues
from hybridsample.graphs import BipartiteGraph, Graph
from hybridsample.ingest import (
    load_affiliation,
    load_checkins,
    load_edge_list,
    write_affiliation,
    write_edge_list,
)
from hybridsample.synth import SynthConfig, build_synthetic_hybrid, generate_ba

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
    edges_back = {tuple(sorted((names[u], names[v]))) for u, v in edges(back)}
    assert edges_back == set(edges(g))


def test_load_edge_list_order_insensitive(tmp_path):
    lines = ["a b", "b c", "c d", "a d", "b d"]
    p1 = tmp_path / "e1.txt"
    p2 = tmp_path / "e2.txt"
    p1.write_text("\n".join(lines) + "\n")
    p2.write_text("\n".join(reversed(lines)) + "\n")
    g1, g2 = load_edge_list(p1), load_edge_list(p2)

    def named_edges(g):
        return {tuple(sorted((g.node_names[u], g.node_names[v]))) for u, v in edges(g)}

    assert named_edges(g1) == named_edges(g2)
    # adjacency is normalized: sorted and deduplicated on both loads
    for g in (g1, g2):
        assert all(list(adj) == sorted(set(adj)) for adj in csr_rows(g.indptr, g.indices))


def _social(tmp_path, text):
    p = tmp_path / "social.txt"
    p.write_text(text)
    return load_edge_list(p)


def _checkins(tmp_path, rows, social="a b\n"):
    """load_checkins of (user, lat, lon, venue) rows, tab separated."""
    p = tmp_path / "checkins.tsv"
    p.write_text("".join(f"{u}\t2010-10-17T01:48:53Z\t{lat}\t{lon}\t{v}\n" for u, lat, lon, v in rows))
    return load_checkins(p, _social(tmp_path, social))


def test_load_checkins_bbox_inclusive(tmp_path):
    p = tmp_path / "checkins.tsv"
    rows = [
        "u1\t2010-10-17T01:48:53Z\t40.7\t-74.0\tv1",     # interior
        "u2\t2010-10-17T01:48:53Z\t42.0\t-74.0\tv2",     # north of the box
        "u3\t2010-10-17T01:48:53Z\t40.4\t-74.0\tv3",     # exactly on the boundary
    ]
    p.write_text("\n".join(rows) + "\n")
    hybrid, (lats, lons) = load_checkins(p, _social(tmp_path, "a b\n"), bbox=NYC)
    assert hybrid.target.node_names == ["a", "b", "u1", "u3"]
    assert hybrid.auxiliary.node_names == ["v1", "v3"]
    assert (lats.tolist(), lons.tolist()) == ([40.7, 40.4], [-74.0, -74.0])
    assert csr_rows(hybrid.affiliation.left_indptr, hybrid.affiliation.left_indices) == \
        [(), (), (0,), (1,)]


# (file text, message): every kind of bad line fails naming path:line
BAD_CHECKINS = [
    ("a t 40.7 -74.0 v1\nb t 40.6 -74.0\n", ":2: expected 'user time lat lon venue', got 'b t 40.6 -74.0'"),
    ("a t 40.7 -74.0 v1\nb t 40.6 -74.0 v2 x\n", ":2: expected 'user time lat lon venue'"),
    ("a t 40.7 -74.0 v1\n# c\nb t north -74.0 v2\n", ":3: could not convert string to float: 'north'"),
    ("a t 40.7 -74.0 v1\nb t 40.6 west v2\n", ":2: could not convert string to float: 'west'"),
    ("a t 40.7 -74.0 v1\nb t 90.5 -74.0 v2\n", ":2: latitude 90.5 out of range"),
    ("a t 40.7 -180.5 v1\n", ":1: longitude -180.5 out of range"),
    ("a t nan -74.0 v1\n", ":1: latitude nan out of range"),
    ("a t 40.7 inf v1\n", ":1: longitude inf out of range"),
    ("a t 40.7 -74.0 v1\nb t 40.6 -74.0 v\xe9\n".encode("latin-1"), ":2: not UTF-8"),
    ("a t 40.7 -74.0 v1\nb t 40.6 -74.0 v2\xa0\n", ":2: non-ASCII whitespace '\\xa0'"),
    ("a t 95 -74.0 v1\nb t 40.6 -74.0\n", ":1: latitude 95.0 out of range"),  # the first bad line
]


@pytest.mark.parametrize("text,message", BAD_CHECKINS)
def test_load_checkins_errors_name_the_line(tmp_path, text, message):
    p = tmp_path / "checkins.tsv"
    p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(ValueError, match=re.escape(f"{p}{message}")):
        load_checkins(p, _social(tmp_path, "a b\n"))


def test_load_checkins_crlf_gives_the_lf_network(tmp_path):
    text = "a\tt\t40.7\t-74.0\tv1\nc\tt\t40.8\t-73.9\tv2\nb\tt\t40.7\t-74.0\tv1\n"
    social = _social(tmp_path, "a b\n")
    loaded = []
    for name, ends in (("lf.tsv", text), ("crlf.tsv", text.replace("\n", "\r\n"))):
        (tmp_path / name).write_bytes(ends.encode("utf-8"))
        loaded.append(load_checkins(tmp_path / name, social))
    (lf, lf_at), (crlf, crlf_at) = loaded
    assert crlf.auxiliary.node_names == lf.auxiliary.node_names == ["v1", "v2"]
    assert crlf.target.node_names == lf.target.node_names == ["a", "b", "c"]
    for side in ("left", "right"):
        for part in ("indptr", "indices"):
            assert np.array_equal(getattr(crlf.affiliation, f"{side}_{part}"),
                                  getattr(lf.affiliation, f"{side}_{part}"))
    assert np.array_equal(crlf_at, lf_at)


def test_build_hybrid_dedups_checkins(tmp_path):
    hybrid, (lats, lons) = _checkins(tmp_path, [("a", 40.7, -74.0, "v9")] * 3)
    assert hybrid.affiliation.left_degrees.tolist() == [1, 0]
    assert (lats.tolist(), lons.tolist()) == ([40.7], [-74.0])


def test_build_hybrid_shared_venue_degree(tmp_path):
    hybrid, _ = _checkins(tmp_path, [("a", 40.7, -74.0, "v1"), ("b", 40.7, -74.0, "v1")])
    assert hybrid.affiliation.right_degrees[0] == 2
    assert hybrid.auxiliary.num_edges == 0


def test_build_hybrid_edge_count_matches_pair_set(tmp_path):
    rng = random.Random(3)
    rows = [(f"u{rng.randrange(6)}", 40.5, -74.0, f"v{rng.randrange(8)}") for _ in range(300)]
    hybrid, _ = _checkins(tmp_path, rows, social="u0 u1\nu1 u2\nu2 u3\n")
    distinct = {(u, v) for u, _, _, v in rows}
    assert hybrid.affiliation.num_edges == len(distinct)
    # users u4, u5 only exist in check-ins: isolated target nodes after the social ones
    assert hybrid.target.n == 6
    names = hybrid.target.node_names
    assert names[:4] == ["u0", "u1", "u2", "u3"] and sorted(names[4:]) == ["u4", "u5"]
    for extra in ("u4", "u5"):
        assert hybrid.target.degrees[names.index(extra)] == 0
    aux = hybrid.auxiliary.node_names
    assert aux == list(dict.fromkeys(v for *_, v in rows))  # first-seen order
    pairs = {(names[u], aux[v]) for u, v in zip(
        np.repeat(np.arange(hybrid.target.n), hybrid.affiliation.left_degrees).tolist(),
        hybrid.affiliation.left_indices.tolist())}
    assert pairs == distinct


def test_build_hybrid_coordinate_conflict_keeps_first(tmp_path, caplog):
    with caplog.at_level(logging.WARNING):
        _, (lats, lons) = _checkins(tmp_path, [("a", 40.7, -74.0, "v1"), ("b", 40.9, -73.9, "v1")])
    assert (lats.tolist(), lons.tolist()) == ([40.7], [-74.0])
    assert "1 check-in(s) disagreed with a venue's first-seen coordinates" in caplog.text


def test_affiliation_roundtrip(tmp_path):
    # write_affiliation writes node indices: ids named by their first-seen
    # index read back as the same pairs
    left = _social(tmp_path, "0 1\n1 2\n")
    right_p = tmp_path / "right.txt"
    right_p.write_text("0 1\n")
    right = load_edge_list(right_p)
    aff_p = tmp_path / "aff.txt"
    aff_p.write_text("0 0\n1 1\n2 0\n")
    aff = load_affiliation(aff_p, left, right)
    assert aff.num_edges == 3
    out = tmp_path / "aff_out.txt"
    write_affiliation(aff, out)
    assert out.read_text() == aff_p.read_text()
    again = load_affiliation(out, left, right)
    assert np.array_equal(again.left_indptr, aff.left_indptr)
    assert np.array_equal(again.left_indices, aff.left_indices)
    bad = tmp_path / "aff_bad.txt"
    bad.write_text("0 zz\n")
    with pytest.raises(ValueError, match="unknown auxiliary id"):
        load_affiliation(bad, left, right)


# ------------------------------------------- the byte tokenizer vs the oracles

SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", " \t ", "\x1c", "\x1f"]
LINE_ENDS = ["\n", "\r\n", "\r"]
ID_CHARS = "abcxyz0123456789_-.#\x00éß中😀"


def random_id(rng, max_bytes=20) -> str:
    """An id of 1 to max_bytes UTF-8 bytes that does not start with '#'."""
    while True:
        text = "".join(rng.choice(ID_CHARS) for _ in range(rng.randint(1, max_bytes)))
        text = text.encode("utf-8")[:max_bytes].decode("utf-8", "ignore")
        if text and not text.startswith("#"):
            return text


def random_file(rng, rows) -> str:
    """The rows (lists of fields) as lines, mixed with comment and blank
    lines, random whitespace between and around the fields, the three line
    ends and sometimes no final newline."""
    lines = []
    for row in rows:
        while rng.random() < 0.15:
            lines.append(rng.choice(["", " \t", "#", "# a comment", "   # indented",
                                     "\t#" + random_id(rng)]))
        pad = [rng.choice(["", "", " ", "\t", "\x0b "]) for _ in range(2)]
        seps = [rng.choice(SEPARATORS) for _ in row[1:]]
        lines.append(pad[0] + row[0] + "".join(s + f for s, f in zip(seps, row[1:])) + pad[1])
    text = "".join(line + rng.choice(LINE_ENDS) for line in lines)
    return text.rstrip("\r\n") if rng.random() < 0.3 else text


def write_text(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


def assert_graph_matches(graph, oracle):
    n, edges, names = oracle
    expected = Graph(n, edges, node_names=names)
    assert graph.node_names == expected.node_names
    assert np.array_equal(graph.indptr, expected.indptr)
    assert np.array_equal(graph.indices, expected.indices)


@pytest.mark.parametrize("seed", range(12))
def test_loaders_match_line_loop_oracles(tmp_path, seed):
    rng = random.Random(seed)
    width = rng.choice([3, 8, 20])  # ids above 8 bytes take several packed words
    pool = list(dict.fromkeys(random_id(rng, width) for _ in range(rng.randint(2, 60))))
    rows = []
    for _ in range(rng.randint(1, 150)):
        a, b = rng.sample(pool, 2) if len(pool) > 1 else (pool[0], pool[0] + "x")
        rows.append([a, b])
        if rng.random() < 0.2:  # a duplicate, maybe reversed
            rows.append(rng.choice([[a, b], [b, a]]))
    target_path = write_text(tmp_path / "target.txt", random_file(rng, rows))
    aux_rows = [[f"v{i}", f"v{(i + 1) % 7}"] for i in range(7)]
    aux_path = write_text(tmp_path / "aux.txt", random_file(rng, aux_rows))
    target, aux = load_edge_list(target_path), load_edge_list(aux_path)
    assert_graph_matches(target, oracle_load_edge_list(target_path))
    assert_graph_matches(aux, oracle_load_edge_list(aux_path))

    pairs = [[rng.choice(target.node_names), rng.choice(aux.node_names)] for _ in range(80)]
    aff_path = write_text(tmp_path / "aff.txt", random_file(rng, pairs))
    aff = load_affiliation(aff_path, target, aux)
    expected = BipartiteGraph(target.n, aux.n,
                              oracle_load_affiliation(aff_path, target.node_names, aux.node_names))
    for side in ("left", "right"):
        for part in ("indptr", "indices"):
            assert np.array_equal(getattr(aff, f"{side}_{part}"), getattr(expected, f"{side}_{part}"))

    formats = [repr, "{:.3f}".format, "{:g}".format, "{:e}".format, "{:+}".format]
    rows = [[name, rng.choice(formats)(rng.uniform(-90, 90)), rng.choice(formats)(rng.uniform(-180, 180))]
            for name in rng.sample(aux.node_names, 5)]
    venues_path = write_text(tmp_path / "venues.txt", random_file(rng, rows))
    expected = np.full((2, aux.n), np.nan)
    for vid, lat, lon in oracle_load_venues(venues_path, aux.node_names):
        expected[:, vid] = lat, lon
    assert np.array_equal(load_venues(venues_path, aux.node_names), expected, equal_nan=True)


# (file text, message): each error names path:line of the first bad line and
# reads as the line loop's did
EDGE_ERRORS = [
    ("a b\n\n# c\nx y z\n", ":4: expected two ids, got 'x y z'"),
    ("a b\r\nc d\re\n", ":3: expected two ids, got 'e'"),
    ("a b\nc c\nx y z\n", ":2: self-loop 'c'"),
    ("a b\nx y z\nc c\n", ":2: expected two ids"),
    ("a b\n  \tq\tq  ", ":2: self-loop 'q'"),
]


@pytest.mark.parametrize("text,message", EDGE_ERRORS)
def test_edge_list_errors_name_the_first_bad_line(tmp_path, text, message):
    path = write_text(tmp_path / "edges.txt", text)
    with pytest.raises(ValueError, match=re.escape(str(path) + message)):
        oracle_load_edge_list(path)
    with pytest.raises(ValueError, match=re.escape(str(path) + message)):
        load_edge_list(path)


AFFILIATION_ERRORS = [
    ("a x\nzz x\n", ":2: unknown target id 'zz'"),
    ("a x\nb zz\n", ":2: unknown auxiliary id 'zz'"),
    ("a x\nzz zz\n", ":2: unknown target id 'zz'"),  # the target id is checked first
    ("a x\nb\nzz x\n", ":2: expected two ids, got 'b'"),
    ("a x\nzz x\nb\n", ":2: unknown target id 'zz'"),
]


@pytest.mark.parametrize("text,message", AFFILIATION_ERRORS)
def test_affiliation_errors_name_the_first_bad_line(tmp_path, text, message):
    left = _social(tmp_path, "a b\n")
    right = load_edge_list(write_text(tmp_path / "right.txt", "x y\n"))
    path = write_text(tmp_path / "aff.txt", text)
    with pytest.raises(ValueError, match=re.escape(str(path) + message)):
        oracle_load_affiliation(path, left.node_names, right.node_names)
    with pytest.raises(ValueError, match=re.escape(str(path) + message)):
        load_affiliation(path, left, right)


VENUE_ERRORS = [
    ("0 40.5 -74.0\n1 40.6\n", ":2: expected 'id lat lon', got '1 40.6'"),
    ("0 40.5 -74.0\n7 40.6 -74.0\n", ":2: venue id '7' is not an auxiliary node id"),
    ("0 40.5 -74.0\n1 91.0 -74.0\n", ":2: latitude 91.0 out of range"),
    ("0 40.5 -74.0\n1 40.5 -180.5\n", ":2: longitude -180.5 out of range"),
    ("0 nan -74.0\n", ":1: latitude nan out of range"),
    ("0 40.5 -74.0\n1 40.5 inf\n", ":2: longitude inf out of range"),
    ("0 40.5 -74.0\n1 north -74.0\n", ":2: could not convert string to float: 'north'"),
    ("0 40.5 -74.0\n1 40.5 0x1\n2 40.5 west\n", ":2: could not convert string to float: '0x1'"),
    ("0 40.5 -74.0\n1 40.6 -74.0\n# again\n0 40.7 -74.1\n",
     ":4: duplicate venue id '0' (first on line 1)"),
    ("0 40.5 -74.0\n1 95 -74.0\n0 40.7 -74.1\n", ":2: latitude 95.0 out of range"),
    ("0 40.5 -74.0\n9 x y\n", ":2: venue id '9' is not an auxiliary node id"),
    ("0 0 nan\n1 40.5 x\n", ":1: longitude nan out of range"),
    ("0 40.5 -74.0\n1 2\x00 -74.0\n", ":2: could not convert string to float: '2\\x00'"),
]


@pytest.mark.parametrize("text,message", VENUE_ERRORS)
def test_venue_errors_name_the_first_bad_line(tmp_path, text, message):
    path = write_text(tmp_path / "venues.txt", text)
    names = ["0", "1", "2"]
    with pytest.raises(ValueError, match=re.escape(str(path) + message)):
        oracle_load_venues(path, names)
    with pytest.raises(ValueError, match=re.escape(str(path) + message)):
        load_venues(path, names)


@pytest.mark.parametrize("text,line", [
    ("a b\nc d e\n", 2),      # str.split() would split here: refused
    ("a b\r\n　a c\n", 2),
    ("# café\na b c\nx\n", 2),  # before the bad field count of line 3
    ("a b\nx\nc d e\n", 2),  # the bad field count of line 2 comes first
])
def test_non_ascii_whitespace_is_an_error(tmp_path, text, line):
    path = write_text(tmp_path / "edges.txt", text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
        load_edge_list(path)


def test_whitespace_is_exactly_what_str_split_splits_on():
    ascii_space = [c for c in range(128) if chr(c).isspace()]
    assert np.flatnonzero(_tokens.SPACE).tolist() == ascii_space
    every = "".join(map(chr, range(0x80, 0x110000)))
    assert _tokens.WIDE_SPACE.findall(every) == [ch for ch in every if ch.isspace()]


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 64])
def test_first_non_ascii_error_offsets_across_chunks(chunk):
    """Byte offsets stay exact when a chunk ends inside a UTF-8 sequence."""
    for text, bad, reason in [
        ("é中 x\n😀\u3000y", "\u3000".encode("utf-8"), "non-ASCII whitespace '\\u3000'"),
        ("ab é\n\xa0", "\xa0".encode("utf-8"), "non-ASCII whitespace '\\xa0'"),
        ("é中 x\n😀", None, None),
    ]:
        data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
        found = _tokens.first_non_ascii_error(data, chunk)
        if bad is None:
            assert found is None
        else:
            assert found[0] == text.encode("utf-8").index(bad) and found[1].startswith(reason)
    raw = "é中 x\n".encode("utf-8") + b"\xe4\xb8 y"  # a sequence cut short by a space
    found = _tokens.first_non_ascii_error(np.frombuffer(raw, dtype=np.uint8), chunk)
    assert found[0] == raw.rindex(b"\xe4") and found[1].startswith("not UTF-8")


@pytest.mark.parametrize("raw,line", [
    (b"a b\nc \xff\n", 2),
    (b"a b\n# \xe9t\xe9\nc d e\n", 2),  # a comment is decoded too
    (b"a b\nc d e\n\xff x\n", 2),  # the bad field count of line 2 comes first
    (b"a b\nx \xc3\n", 2),  # a sequence cut short at the line end
])
def test_bytes_that_are_not_utf8_are_an_error(tmp_path, raw, line):
    path = tmp_path / "edges.txt"
    path.write_bytes(raw)
    with pytest.raises(ValueError):  # the line loop's UnicodeDecodeError
        oracle_load_edge_list(path)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ")):
        load_edge_list(path)


def test_long_and_nul_ids_stay_distinct(tmp_path):
    ids = ["a", "a\x00", "a\x00\x00", "abcdefg", "abcdefgh", "abcdefgh\x00", "x" * 40, "x" * 41]
    path = write_text(tmp_path / "edges.txt", "".join(f"{a} {b}\n" for a, b in zip(ids, ids[1:])))
    g = load_edge_list(path)
    assert g.node_names == ids and g.num_edges == len(ids) - 1


def test_empty_and_comment_only_files(tmp_path):
    for text in ("", "# nothing\n", "\n\n  \r\n"):
        g = load_edge_list(write_text(tmp_path / "edges.txt", text))
        assert (g.n, g.num_edges, g.node_names) == (0, 0, [])


def test_writers_match_the_line_loop_writers(tmp_path):
    hybrid = build_synthetic_hybrid(SynthConfig(n_per_graph=2000, extra_pairs=4000, seed=3))
    write_edge_list(hybrid.target, tmp_path / "named.txt")
    named = load_edge_list(tmp_path / "named.txt")  # ids written as re-interned names
    names = [f"u{i}" for i in range(hybrid.auxiliary.n)]
    lats, lons = synthetic_venues(hybrid.auxiliary.n, NYC, seed=3)
    hole = np.random.default_rng(3).random(len(lats)) < 0.3  # nodes without a venue
    venues = (np.where(hole, np.nan, lats), np.where(hole, np.nan, lons))
    own = np.flatnonzero(~hole)
    for new, old in [
        (lambda p: write_edge_list(hybrid.target, p), lambda p: oracle_write_edge_list(hybrid.target, p)),
        (lambda p: write_edge_list(named, p), lambda p: oracle_write_edge_list(named, p)),
        (lambda p: write_affiliation(hybrid.affiliation, p),
         lambda p: oracle_write_affiliation(hybrid.affiliation, p)),
        (lambda p: write_venues(venues, p),
         lambda p: oracle_write_venues(list(zip(own.tolist(), lats[own].tolist(), lons[own].tolist())), p)),
    ]:
        new(tmp_path / "new.txt")
        old(tmp_path / "old.txt")
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()
