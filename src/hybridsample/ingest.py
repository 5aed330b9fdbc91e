"""Loading edge lists, affiliations and check-ins into hybrid networks.

Edge lists and affiliation files hold one "u v" pair per line, check-in
files one "user time lat lon venue" record; all three allow '#' comments
and are read by the byte tokenizer of ``_tokens``, which names
``path:line`` of the first bad line.  External string ids map to dense
integer ids through first-seen dictionaries kept on the resulting graphs.
"""

from __future__ import annotations

import logging

import numpy as np

from . import _tokens
from .geo import Region
from .graphs import BipartiteGraph, Graph, HybridNetwork

log = logging.getLogger(__name__)


def load_edge_list(path) -> Graph:
    """Undirected simple graph from a whitespace-separated pair file.

    Duplicate lines and reversed duplicates merge into one edge.  The
    first-seen id dictionary is kept on the graph as node_names.
    """
    data, starts, lens, lines, pending = _tokens.records(path, 2, "expected two ids")
    codes, names = _tokens.intern(data, starts, lens)
    del data, starts, lens  # the CSR build is the peak: hold little else
    edges = codes.reshape(-1, 2)
    _tokens.raise_first([
        (edges[:, 0] == edges[:, 1], lambda i: f"self-loop {names[edges[i, 0]]!r}"),
    ], path, lines, pending)
    del lines
    return Graph(len(names), edges, node_names=names)


def write_edge_list(graph: Graph, path) -> None:
    """Write one edge per line using external names when present."""
    u, v = graph.edge_array().T
    _write_pairs(path, u, v, graph.node_names)


def load_affiliation(path, left_graph: Graph, right_graph: Graph) -> BipartiteGraph:
    """Bipartite pairs from a "u v" file, resolved through the id
    dictionaries of the two side graphs: one lookup per distinct id."""
    if left_graph.node_names is None or right_graph.node_names is None:
        raise ValueError("side graphs need id dictionaries (load_edge_list)")
    data, starts, lens, lines, pending = _tokens.records(path, 2, "expected two ids")
    pairs = np.column_stack([_tokens.resolve(data, starts[:, j], lens[:, j], graph.node_names)
                             for j, graph in enumerate((left_graph, right_graph))])

    def unknown(j, side):
        return lambda i: f"unknown {side} id {_tokens.token_text(data, starts[i, j], lens[i, j])!r}"

    _tokens.raise_first([
        (pairs[:, 0] < 0, unknown(0, "target")),
        (pairs[:, 1] < 0, unknown(1, "auxiliary")),
    ], path, lines, pending)
    return BipartiteGraph(left_graph.n, right_graph.n, pairs)


def write_affiliation(aff: BipartiteGraph, path) -> None:
    """Write one "u v" line per affiliation edge, as node indices, sorted by u, then v."""
    rows = np.repeat(np.arange(aff.n_left), aff.left_degrees)
    _write_pairs(path, rows, aff.left_indices)


def _write_pairs(path, left, right, names=None) -> None:
    """One "a b" line per pair of ids, each written as its name where names are given."""
    def column(ids):
        return ids.tolist() if names is None else list(map(names.__getitem__, ids.tolist()))

    rows = map("{} {}\n".format, column(left), column(right))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(rows))


def load_checkins(path, social: Graph, bbox: Region | None = None) -> tuple:
    """The hybrid network of a friendship graph plus a check-in file, and
    the venues' (lats, lons) over its auxiliary nodes.

    A check-in is one "user time lat lon venue" line; the time is not used.
    With a bbox only check-ins inside it (bounds inclusive) are read.  Users
    not in ``social`` become isolated target nodes after its own, and venues
    auxiliary nodes without edges, each numbered by first appearance; a
    venue keeps its first-seen coordinates.  Repeated (user, venue) pairs
    make one affiliation edge.
    """
    if social.node_names is None:
        raise ValueError("social graph needs an id dictionary (load_edge_list)")
    data, starts, lens, lines, pending = _tokens.records(
        path, 5, "expected 'user time lat lon venue'")
    (lats, bad_lat), (lons, bad_lon) = (_tokens.floats(data, starts[:, j], lens[:, j])
                                        for j in (2, 3))

    def number(j):
        return lambda i: (f"could not convert string to float: "
                          f"{_tokens.token_text(data, starts[i, j], lens[i, j])!r}")

    _tokens.raise_first([
        (bad_lat, number(2)),
        (bad_lon, number(3)),
        (~((-90.0 <= lats) & (lats <= 90.0)), lambda i: f"latitude {lats[i]} out of range"),
        (~((-180.0 <= lons) & (lons <= 180.0)), lambda i: f"longitude {lons[i]} out of range"),
    ], path, lines, pending)
    if bbox is not None:
        keep = ((bbox.lat_min <= lats) & (lats <= bbox.lat_max)
                & (bbox.lon_min <= lons) & (lons <= bbox.lon_max))
        starts, lens, lats, lons = starts[keep], lens[keep], lats[keep], lons[keep]
    users = _tokens.resolve(data, starts[:, 0], lens[:, 0], social.node_names)
    new = users < 0
    codes, extra = _tokens.intern(data, starts[new, 0], lens[new, 0])
    users[new] = social.n + codes
    venues, names = _tokens.intern(data, starts[:, 4], lens[:, 4])
    del data, starts, lens
    first = np.unique(venues, return_index=True)[1]  # each venue's first check-in
    at = lats[first], lons[first]
    conflicts = np.count_nonzero((lats != at[0][venues]) | (lons != at[1][venues]))
    if conflicts:
        log.warning("%d check-in(s) disagreed with a venue's first-seen coordinates", conflicts)

    n_users = social.n + len(extra)
    target = social if not extra else Graph(
        n_users, social.edge_array(), node_names=social.node_names + extra)
    affiliation = BipartiteGraph(n_users, len(names), np.column_stack((users, venues)))
    auxiliary = Graph(len(names), (), node_names=names)
    return HybridNetwork(target, auxiliary, affiliation), at
