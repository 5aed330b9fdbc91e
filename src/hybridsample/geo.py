"""Venue coordinates and the law of the random region zoom-in sampler.

A location-based service API answers rectangle queries truncated to at
most K venues.  The zoom-in sampler recursively splits a truncated region
into four equal quadrants, descends into a uniformly chosen nonempty
quadrant, and finally picks one venue uniformly in a fully accessible
leaf.  Because a venue sits in exactly one leaf, the product of
branching factors times the leaf pick gives the exact draw probability,
which is what the indirect estimators need.  ``zoom_in_law`` computes it
for every venue at once, so RRZI-VSA draws from a fixed AuxDistribution.
Venues are auxiliary nodes: their coordinates are two arrays over the
nodes, NaN where a node has no venue.

Region membership is half-open, [lat_min, lat_max) x [lon_min, lon_max),
so quadrant splits partition a region exactly and no probability mass is
lost or counted twice.  Build the root region with a little headroom above
the largest coordinates (see bounding_region).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _tokens

MAX_ZOOM_DEPTH = 60


@dataclass(frozen=True)
class Region:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError(f"degenerate region {self}")


# Default demo bounding box: New York City.
NYC_REGION = Region(40.4, 41.4, -74.3, -73.3)


def bounding_region(lats, lons) -> Region:
    """The smallest region holding every venue, padded by 1e-6 above the
    largest coordinates; NaN entries are nodes without a venue."""
    if np.isnan(lats).all():
        raise ValueError("no venue coordinates")
    return Region(float(np.nanmin(lats)), float(np.nanmax(lats)) + 1e-6,
                  float(np.nanmin(lons)), float(np.nanmax(lons)) + 1e-6)


def zoom_in_law(lats, lons, root: Region, k: int) -> tuple:
    """The law of one zoom-in draw over the auxiliary nodes: (p, API calls)
    of each node, from its venue's coordinates ``lats[v]``, ``lons[v]``
    (both NaN where node v has no venue).

    A draw queries the root; while the answer is truncated it splits the
    cell into its four quadrants, probes each, and descends into a uniform
    nonempty one; in a complete cell it picks a venue uniformly.  So a
    venue's p is 1/(nonempty quadrants) per level, then 1/(leaf size),
    divided in that order, and its draw costs 1 + 5 * depth calls.  One pass
    over the zoom tree splits each truncated cell's venues by the float
    midpoints into four equal half-open quadrants; nodes outside the root,
    or without a venue, get p = 0.  Every cell is reached with positive
    probability, so a cell no draw could finish fails here.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lats, lons = np.asarray(lats, dtype=np.float64), np.asarray(lons, dtype=np.float64)
    _tokens.raise_first([
        (~((np.abs(lats) <= 90.0) & (np.abs(lons) <= 180.0) | np.isnan(lats) & np.isnan(lons)),
         lambda v: f"node {v}: venue coordinates ({lats[v]}, {lons[v]}) out of range"),
    ])
    p, calls = np.zeros(len(lats)), np.zeros(len(lats), dtype=np.int64)
    member = np.flatnonzero((lats >= root.lat_min) & (lats < root.lat_max)
                            & (lons >= root.lon_min) & (lons < root.lon_max))
    if not len(member):
        raise ValueError("region contains no venues")
    cell = np.zeros(len(member), dtype=np.int64)  # cell of each member
    bounds = np.array([[root.lat_min, root.lat_max, root.lon_min, root.lon_max]])
    reach = np.ones(1)  # probability of entering each cell
    for depth in range(MAX_ZOOM_DEPTH + 1):
        size = np.bincount(cell, minlength=len(bounds))
        leaf = size[cell] <= k
        done, at = member[leaf], cell[leaf]
        p[done] = reach[at] / size[at]
        calls[done] = 1 + 5 * depth
        member, cell = member[~leaf], cell[~leaf]
        if not len(member):
            return p, calls
        mid = (bounds[:, 0::2] + bounds[:, 1::2]) / 2.0  # (lat, lon) midpoints
        split = (bounds[:, 0::2] < mid).all(axis=1) & (mid < bounds[:, 1::2]).all(axis=1)
        stuck = member if depth == MAX_ZOOM_DEPTH else member[~split[cell]]
        if len(stuck):
            lat, lon = float(lats[stuck[0]]), float(lons[stuck[0]])
            raise RuntimeError(
                f"zoom exhausted (depth limit {MAX_ZOOM_DEPTH}): more than {k} venues "
                f"share the location ({lat!r}, {lon!r})"
            )
        upper = np.column_stack((lats[member], lons[member])) >= mid[cell]
        # quadrant q: bit 1 upper latitude half, bit 0 upper longitude half
        child, cell = np.unique(cell * 4 + upper @ [2, 1], return_inverse=True)
        parent, quad = np.divmod(child, 4)
        reach = reach[parent] / np.bincount(parent)[parent]
        up = np.column_stack((quad >= 2, quad % 2 == 1))
        b, m = bounds[parent], mid[parent]
        bounds = np.empty_like(b)
        bounds[:, 0::2] = np.where(up, m, b[:, 0::2])
        bounds[:, 1::2] = np.where(up, b[:, 1::2], m)


def load_venues(path, node_names) -> tuple:
    """Read a venue file: one "id lat lon" triple per line, '#' comments.
    Each id names an auxiliary node, resolved through its id dictionary
    ``node_names``.  Returns the (lats, lons) arrays over those nodes, NaN
    where a node has no venue."""
    data, starts, lens, lines, pending = _tokens.records(path, 3, "expected 'id lat lon'")
    ids = _tokens.resolve(data, starts[:, 0], lens[:, 0], node_names)
    (lats, bad_lat), (lons, bad_lon) = (_tokens.floats(data, starts[:, j], lens[:, j])
                                        for j in (1, 2))
    again = np.ones(len(ids), dtype=bool)  # the id is on an earlier line
    again[np.unique(ids, return_index=True)[1]] = False

    def token(i, j=0):
        return _tokens.token_text(data, starts[i, j], lens[i, j])

    _tokens.raise_first([
        (ids < 0, lambda i: f"venue id {token(i)!r} is not an auxiliary node id"),
        (bad_lat, lambda i: f"could not convert string to float: {token(i, 1)!r}"),
        (bad_lon, lambda i: f"could not convert string to float: {token(i, 2)!r}"),
        (~((-90.0 <= lats) & (lats <= 90.0)), lambda i: f"latitude {lats[i]} out of range"),
        (~((-180.0 <= lons) & (lons <= 180.0)), lambda i: f"longitude {lons[i]} out of range"),
        (again, lambda i: f"duplicate venue id {token(i)!r} "
                          f"(first on line {lines[np.argmax(ids == ids[i])]})"),
    ], path, lines, pending)
    placed = np.full((2, len(node_names)), np.nan)
    placed[:, ids] = lats, lons
    return placed[0], placed[1]


def write_venues(venues, path) -> None:
    """Write the (lats, lons) arrays over the auxiliary nodes one "id lat lon"
    line per node with a venue, in node order, the coordinates as repr floats.
    Node v is written as id v, so the file reads back onto the same nodes
    where index and name agree, as in the synthetic networks `generate` writes."""
    lats, lons = (np.asarray(a) for a in venues)
    ids = np.flatnonzero(~np.isnan(lats))
    rows = map("{} {!r} {!r}\n".format, ids.tolist(), lats[ids].tolist(), lons[ids].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(rows))
