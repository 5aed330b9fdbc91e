"""Simulated venue-query API and the random region zoom-in sampler.

The index answers rectangle queries truncated to at most K venues, the way
location-based service APIs do.  The zoom-in sampler recursively splits a
truncated region into four equal quadrants, descends into a uniformly
chosen nonempty quadrant, and finally picks one venue uniformly in a fully
accessible leaf.  Because a venue sits in exactly one leaf, the product of
branching factors times the leaf pick gives the exact draw probability,
which is what the indirect estimators need; ``ZoomInSource`` feeds these
draws to ``samplers.vs_a_collect``.  Venue ids are auxiliary node ids.

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
        ids = [v.id for v in self.venues]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate venue ids")
        self._lats = np.array([v.lat for v in self.venues])
        self._lons = np.array([v.lon for v in self.venues])
        self._steps = {}  # (region, k) -> zoom step; see zoom_step

    def __len__(self) -> int:
        return len(self.venues)

    def query(self, region: Region, k: int):
        """Venues inside the region, truncated to the K smallest ids.

        Returns (venues, truncated).
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        mask = (
            (self._lats >= region.lat_min)
            & (self._lats < region.lat_max)
            & (self._lons >= region.lon_min)
            & (self._lons < region.lon_max)
        )
        idx = np.flatnonzero(mask)
        if len(idx) > k:
            return [self.venues[i] for i in idx[:k]], True
        return [self.venues[i] for i in idx], False

    def zoom_step(self, region: Region, k: int) -> tuple:
        """One zoom-in level at a region: (hits, truncated, quads, nonempty).

        ``hits`` (as a tuple) and ``truncated`` are ``query(region, k)``.
        For a truncated region that still splits in float precision,
        ``quads`` are its quadrants and ``nonempty`` the indices of those a
        ``query(quad, 1)`` finds nonempty; otherwise both are empty.  Zoom
        cells repeat across draws and the index is immutable, so each step
        is computed once and kept.
        """
        key = (region, k)
        step = self._steps.get(key)
        if step is None:
            hits, truncated = self.query(region, k)
            quads = nonempty = ()
            mid_lat = (region.lat_min + region.lat_max) / 2.0
            mid_lon = (region.lon_min + region.lon_max) / 2.0
            if truncated and (region.lat_min < mid_lat < region.lat_max
                              and region.lon_min < mid_lon < region.lon_max):
                quads = region.quadrants()
                nonempty = tuple(qi for qi, quad in enumerate(quads) if self.query(quad, 1)[0])
            step = self._steps[key] = (tuple(hits), truncated, quads, nonempty)
        return step

    def bounding_region(self, pad: float = 1e-6) -> Region:
        if not self.venues:
            raise ValueError("empty index has no bounding region")
        lats = [v.lat for v in self.venues]
        lons = [v.lon for v in self.venues]
        return Region(min(lats), max(lats) + pad, min(lons), max(lons) + pad)


@dataclass
class RrziDraw:
    """One venue draw with its exact inclusion probability and cost."""

    venue: Venue
    p: float
    zoom_path: list
    api_calls: int


def rrzi_draw(index: VenueIndex, root: Region, k: int, gen: np.random.Generator) -> RrziDraw:
    """Zoom into the root region until a query is no longer truncated, then
    pick one venue uniformly in the leaf.

    Each level splits into four equal quadrants, probes each with one query
    to find the nonempty ones, and descends into one of those uniformly at
    random.  The recorded probability is the product of the per-level
    branching choices times the uniform leaf pick and equals the overall
    probability of drawing that venue.  Each choice among c options reads
    one uniform u of ``gen`` and takes option floor(u * c): one per level and
    one for the leaf.  Levels are read from ``index.zoom_step``, which runs
    each query once per cell; ``api_calls`` still charges every query of the
    draw.
    """
    region = root
    p = 1.0
    path = []
    api_calls = 0
    for _ in range(MAX_ZOOM_DEPTH + 1):
        hits, truncated, quads, nonempty = index.zoom_step(region, k)
        api_calls += 1
        if not truncated:
            if not hits:
                raise ValueError("region contains no venues")
            venue = hits[int(gen.random() * len(hits))]
            return RrziDraw(venue, p / len(hits), path, api_calls)
        if not quads:
            break  # region no longer splittable in float precision
        api_calls += len(quads)
        choice = nonempty[int(gen.random() * len(nonempty))]
        p /= len(nonempty)
        path.append(choice)
        region = quads[choice]
    raise RuntimeError(
        f"zoom exhausted (depth limit {MAX_ZOOM_DEPTH}); more than {k} venues share a location"
    )


@dataclass(frozen=True)
class ZoomInSource:
    """Draw source for vs_a_collect: one zoom-in per draw, costing its API calls."""

    index: VenueIndex
    root: Region
    k: int

    def draws(self, gen: np.random.Generator, count: int) -> tuple:
        """(venue ids, their p, API calls) of ``count`` zoom-ins on ``gen``."""
        draws = [rrzi_draw(self.index, self.root, self.k, gen) for _ in range(count)]
        return ([d.venue.id for d in draws], [d.p for d in draws],
                sum(d.api_calls for d in draws))


def load_venues(path, node_names=None) -> list:
    """Read a venue file: one "id lat lon" triple per line, '#' comments.
    Given ``node_names`` (the auxiliary graph's id dictionary), ids resolve by name."""
    node_ids = None if node_names is None else {name: i for i, name in enumerate(node_names)}
    venues = []
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
    return venues


def write_venues(venues, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in sorted(venues, key=lambda v: v.id):
            fh.write(f"{v.id} {v.lat!r} {v.lon!r}\n")
