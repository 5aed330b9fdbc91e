"""Simulated venue-query API and the random region zoom-in sampler.

The index answers rectangle queries truncated to at most K venues, the way
location-based service APIs do.  The zoom-in sampler recursively splits a
truncated region into four equal quadrants, descends into a uniformly
chosen nonempty quadrant, and finally picks one venue uniformly in a fully
accessible leaf.  Because a venue sits in exactly one leaf, the product of
branching factors times the leaf pick gives the exact draw probability,
which is what the indirect estimators need.  ``zoom_in_law`` computes it
for every venue at once, so RRZI-VSA draws from a fixed AuxDistribution.
Venue ids are auxiliary node ids.

Region membership is half-open, [lat_min, lat_max) x [lon_min, lon_max),
so quadrant splits partition a region exactly and no probability mass is
lost or counted twice.  Build the root region with a little headroom above
the largest coordinates (see VenueIndex.bounding_region).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_ZOOM_DEPTH = 60


@dataclass(frozen=True)
class Venue:
    id: int
    lat: float
    lon: float

    def __post_init__(self):
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of range")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of range")


@dataclass(frozen=True)
class Region:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError(f"degenerate region {self}")

    def contains(self, lat: float, lon: float) -> bool:
        """Half-open membership used by the venue index."""
        return (
            self.lat_min <= lat < self.lat_max
            and self.lon_min <= lon < self.lon_max
        )

    def contains_closed(self, lat: float, lon: float) -> bool:
        """Inclusive membership, used for bounding-box record filters."""
        return (
            self.lat_min <= lat <= self.lat_max
            and self.lon_min <= lon <= self.lon_max
        )

    def quadrants(self) -> tuple:
        """Four equal quadrants partitioning the region (half-open)."""
        mid_lat = (self.lat_min + self.lat_max) / 2.0
        mid_lon = (self.lon_min + self.lon_max) / 2.0
        return (
            Region(self.lat_min, mid_lat, self.lon_min, mid_lon),
            Region(self.lat_min, mid_lat, mid_lon, self.lon_max),
            Region(mid_lat, self.lat_max, self.lon_min, mid_lon),
            Region(mid_lat, self.lat_max, mid_lon, self.lon_max),
        )


# Default demo bounding box: New York City.
NYC_REGION = Region(40.4, 41.4, -74.3, -73.3)


class VenueIndex:
    """Immutable spatial point set with truncated rectangle queries."""

    def __init__(self, venues):
        self.venues = sorted(venues, key=lambda v: v.id)
        for a, b in zip(self.venues, self.venues[1:]):
            if a.id == b.id:
                raise ValueError(f"duplicate venue id {a.id}")
        self._lats = np.array([v.lat for v in self.venues])
        self._lons = np.array([v.lon for v in self.venues])

    def __len__(self) -> int:
        return len(self.venues)

    def query(self, region: Region, k: int):
        """Venues inside the region, truncated to the K smallest ids.

        Returns (venues, truncated).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        idx = self.inside(region)
        if len(idx) > k:
            return [self.venues[i] for i in idx[:k]], True
        return [self.venues[i] for i in idx], False

    def inside(self, region: Region) -> np.ndarray:
        """Positions in ``venues`` of the venues in the region (half-open)."""
        return np.flatnonzero(
            (self._lats >= region.lat_min)
            & (self._lats < region.lat_max)
            & (self._lons >= region.lon_min)
            & (self._lons < region.lon_max)
        )

    def bounding_region(self, pad: float = 1e-6) -> Region:
        if not self.venues:
            raise ValueError("empty index has no bounding region")
        lats = [v.lat for v in self.venues]
        lons = [v.lon for v in self.venues]
        return Region(min(lats), max(lats) + pad, min(lons), max(lons) + pad)


def zoom_in_law(index: VenueIndex, root: Region, k: int) -> tuple:
    """The law of one zoom-in draw: (venue ids, their p, their API calls).

    A draw queries the root; while the answer is truncated it splits the
    cell into its four quadrants, probes each, and descends into a uniform
    nonempty one; in a complete cell it picks a venue uniformly.  So a
    venue's p is 1/(nonempty quadrants) per level, then 1/(leaf size),
    divided in that order, and its draw costs 1 + 5 * depth calls.  One pass
    over the zoom tree splits each truncated cell's venues by the float
    midpoints and half-open bounds of Region.quadrants; venues outside the
    root get p = 0.  Every cell is reached with positive probability, so a
    cell no draw could finish fails here.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lats, lons = index._lats, index._lons
    ids = np.array([v.id for v in index.venues], dtype=np.int64)
    p = np.zeros(len(ids))
    calls = np.zeros(len(ids), dtype=np.int64)
    member = index.inside(root)
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
            return ids, p, calls
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
        # quadrant q of Region.quadrants: bit 1 upper latitude half, bit 0 upper longitude
        child, cell = np.unique(cell * 4 + upper @ [2, 1], return_inverse=True)
        parent, quad = np.divmod(child, 4)
        reach = reach[parent] / np.bincount(parent)[parent]
        up = np.column_stack((quad >= 2, quad % 2 == 1))
        b, m = bounds[parent], mid[parent]
        bounds = np.empty_like(b)
        bounds[:, 0::2] = np.where(up, m, b[:, 0::2])
        bounds[:, 1::2] = np.where(up, b[:, 1::2], m)


def load_venues(path, node_names=None) -> list:
    """Read a venue file: one "id lat lon" triple per line, '#' comments.
    Given ``node_names`` (the auxiliary graph's id dictionary), ids resolve by name."""
    node_ids = None if node_names is None else {name: i for i, name in enumerate(node_names)}
    venues = []
    first_line = {}  # venue id -> line it was read from
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'id lat lon', got {line!r}")
            vid = parts[0] if node_ids is None else node_ids.get(parts[0])
            if vid is None:
                raise ValueError(f"{path}:{lineno}: venue id {parts[0]!r} is not an auxiliary node id")
            try:
                venues.append(Venue(int(vid), float(parts[1]), float(parts[2])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            earlier = first_line.setdefault(venues[-1].id, lineno)
            if earlier != lineno:
                raise ValueError(f"{path}:{lineno}: duplicate venue id {parts[0]!r} "
                                 f"(first on line {earlier})")
    return venues


def write_venues(venues, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in sorted(venues, key=lambda v: v.id):
            fh.write(f"{v.id} {v.lat!r} {v.lon!r}\n")
