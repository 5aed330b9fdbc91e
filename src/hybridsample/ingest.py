"""Loading edge lists and check-in records into hybrid networks.

Edge lists are plain text, one "u v" pair per line, '#' comments allowed.
Check-ins are 5-field tab-separated lines: user, timestamp, lat, lon,
venue.  External string ids map to dense integer ids through first-seen
dictionaries kept on the resulting graphs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .geo import Region, Venue, VenueIndex
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
    ids: dict = {}
    names: list = []
    edges = []

    def intern(token: str) -> int:
        i = ids.get(token)
        if i is None:
            i = ids[token] = len(names)
            names.append(token)
        return i

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two ids, got {line!r}")
            a, b = parts
            if a == b:
                raise ValueError(f"{path}:{lineno}: self-loop {a!r}")
            edges.append((intern(a), intern(b)))
    return Graph(len(names), edges, node_names=names)


def write_edge_list(graph: Graph, path) -> None:
    """Write one edge per line using external names when present."""
    names = graph.node_names
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in graph.edges():
            if names is not None:
                fh.write(f"{names[u]} {names[v]}\n")
            else:
                fh.write(f"{u} {v}\n")


def load_affiliation(path, left_graph: Graph, right_graph: Graph) -> BipartiteGraph:
    """Bipartite pairs from a "u v" file, resolved through the id
    dictionaries of the two side graphs."""
    if left_graph.node_names is None or right_graph.node_names is None:
        raise ValueError("side graphs need id dictionaries (load_edge_list)")
    left_ids = {name: i for i, name in enumerate(left_graph.node_names)}
    right_ids = {name: i for i, name in enumerate(right_graph.node_names)}
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two ids, got {line!r}")
            a, b = parts
            if a not in left_ids:
                raise ValueError(f"{path}:{lineno}: unknown target id {a!r}")
            if b not in right_ids:
                raise ValueError(f"{path}:{lineno}: unknown auxiliary id {b!r}")
            pairs.append((left_ids[a], right_ids[b]))
    return BipartiteGraph(left_graph.n, right_graph.n, pairs)


def write_affiliation(aff: BipartiteGraph, path, left_names=None, right_names=None) -> None:
    rows = np.repeat(np.arange(aff.n_left), aff.left_degrees).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in zip(rows, aff.left_indices.tolist()):
            a = left_names[u] if left_names is not None else u
            b = right_names[v] if right_names is not None else v
            fh.write(f"{a} {b}\n")


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
    in check-ins are added as isolated target nodes.  Returns
    (HybridNetwork, VenueIndex).
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
    index = VenueIndex(
        [Venue(i, lat, lon) for i, (lat, lon) in enumerate(venue_coords)]
    )
    return HybridNetwork(target, auxiliary, affiliation), index
