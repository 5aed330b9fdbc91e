"""Loading edge lists and check-in records into hybrid networks.

Edge lists and affiliation files hold one "u v" pair per line, '#'
comments allowed, and are read by the byte tokenizer of ``_tokens``.
Check-ins are 5-field tab-separated lines: user, timestamp, lat, lon,
venue.  External string ids map to dense integer ids through first-seen
dictionaries kept on the resulting graphs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _tokens
from .geo import Region
from .graphs import BipartiteGraph, Graph, HybridNetwork

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CheckinRecord:
    user: str
    lat: float
    lon: float
    venue: str
    timestamp: str = ""

    def __post_init__(self):
        if not self.user or not self.venue:
            raise ValueError("user and venue ids must be nonempty")


def load_edge_list(path) -> Graph:
    """Undirected simple graph from a whitespace-separated pair file.

    Duplicate lines and reversed duplicates merge into one edge.  The
    first-seen id dictionary is kept on the graph as node_names.
    """
    data, starts, lens, lines, pending = _tokens.records(path, 2, "expected two ids")
    codes, names = _tokens.intern(data, starts, lens)
    del data, starts, lens  # the CSR build is the peak: hold little else
    edges = codes.reshape(-1, 2)
    _tokens.raise_first(path, lines, [
        (edges[:, 0] == edges[:, 1], lambda i: f"self-loop {names[edges[i, 0]]!r}"),
    ], pending)
    del lines
    return Graph(len(names), edges, node_names=names)


def write_edge_list(graph: Graph, path) -> None:
    """Write one edge per line using external names when present."""
    u, v = graph.edge_array().T
    _write_pairs(path, u, v, graph.node_names, graph.node_names)


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

    _tokens.raise_first(path, lines, [
        (pairs[:, 0] < 0, unknown(0, "target")),
        (pairs[:, 1] < 0, unknown(1, "auxiliary")),
    ], pending)
    return BipartiteGraph(left_graph.n, right_graph.n, pairs)


def write_affiliation(aff: BipartiteGraph, path, left_names=None, right_names=None) -> None:
    rows = np.repeat(np.arange(aff.n_left), aff.left_degrees)
    _write_pairs(path, rows, aff.left_indices, left_names, right_names)


def _write_pairs(path, left, right, left_names, right_names) -> None:
    """One "a b" line per pair of ids, each written as its name where names are given."""
    def column(ids, names):
        return ids.tolist() if names is None else list(map(names.__getitem__, ids.tolist()))

    rows = map("{} {}\n".format, column(left, left_names), column(right, right_names))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(rows))


def load_checkins(path, bbox: Region | None = None) -> list:
    """Parse check-in records, optionally keeping only those inside bbox
    (inclusive bounds).  Malformed records are skipped and counted in a
    single warning.
    """
    records = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                skipped += 1
                continue
            user, ts, lat_s, lon_s, venue = parts
            try:
                lat = float(lat_s)
                lon = float(lon_s)
            except ValueError:
                skipped += 1
                continue
            if not (-90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0):
                skipped += 1
                continue
            if not user or not venue:
                skipped += 1
                continue
            if bbox is not None and not bbox.contains_closed(lat, lon):
                continue
            records.append(CheckinRecord(user, lat, lon, venue, ts))
    if skipped:
        log.warning("%s: skipped %d malformed check-in record(s)", path, skipped)
    return records


def build_hybrid_from_lbsn(social: Graph, checkins) -> tuple:
    """Assemble a hybrid network from a friendship graph plus check-ins.

    Venues become auxiliary nodes with an empty edge set; deduplicated
    (user, venue) pairs become the affiliation graph.  Users appearing only
    in check-ins are added as isolated target nodes.  Returns the
    HybridNetwork and the venues' (ids, lats, lons) arrays.
    """
    if social.node_names is None:
        raise ValueError("social graph needs an id dictionary (load_edge_list)")
    user_ids = {name: i for i, name in enumerate(social.node_names)}
    names = list(social.node_names)

    venue_ids: dict = {}
    venue_coords: list = []
    coord_conflicts = 0
    pairs = set()
    for rec in checkins:
        uid = user_ids.get(rec.user)
        if uid is None:
            uid = user_ids[rec.user] = len(names)
            names.append(rec.user)
        vid = venue_ids.get(rec.venue)
        if vid is None:
            vid = venue_ids[rec.venue] = len(venue_coords)
            venue_coords.append((rec.lat, rec.lon))
        elif venue_coords[vid] != (rec.lat, rec.lon):
            coord_conflicts += 1
        pairs.add((uid, vid))
    if coord_conflicts:
        log.warning(
            "%d check-in(s) disagreed with a venue's first-seen coordinates", coord_conflicts
        )

    n_users = len(names)
    target = social if n_users == social.n else Graph(
        n_users, social.edge_array(), node_names=names
    )
    auxiliary = Graph(len(venue_coords), ())
    affiliation = BipartiteGraph(n_users, len(venue_coords), list(pairs))
    lats, lons = np.array(venue_coords, dtype=np.float64).reshape(-1, 2).T
    return HybridNetwork(target, auxiliary, affiliation), (np.arange(len(lats)), lats, lons)
