"""Deterministic RNG derivation.

Every stochastic routine takes a 64-bit master seed and derives one
generator per logical stream from it, so that concurrent chains never share
state and reduction identities (e.g. a walk with jump weight zero equals a
plain walk) hold exactly.
"""

from __future__ import annotations

import numpy as np

# Streams of the master seed: the synthetic network (synth), the venues of
# experiment.synthetic_venues, and the replication seeds.
STREAM_HALF_A = 0  # first target half, attachment parameter m1
STREAM_AUX_GRAPH = 1  # auxiliary graph, m2
STREAM_HALF_B = 2  # second target half, m3
STREAM_BRIDGE = 3  # the edge joining the halves
STREAM_AFFILIATION = 4  # affiliation pairs
STREAM_ORIENT = 5  # orient_edges arcs
STREAM_VENUES = 6
STREAM_REPLICATIONS = 97

# Streams of a replication seed: the walk's moves, the auxiliary draws and
# a walk's start node.
STREAM_TARGET = 0
STREAM_AUX = 2
STREAM_WALK_START = 98


def spawn_seed(master: int, *key: int) -> int:
    """128-bit child seed, a pure function of (master, key)."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(key))
    hi, lo = ss.generate_state(2, np.uint64)
    return (int(hi) << 64) | int(lo)


def spawn_generator(master: int, *key: int) -> np.random.Generator:
    """PCG64 generator of the stream ``key`` of ``master``."""
    return np.random.Generator(np.random.PCG64(spawn_seed(master, *key)))


def replication_seeds(master: int, runs: int) -> list[int]:
    """Pairwise-distinct per-replication seeds derived from the master seed."""
    seeds = [spawn_seed(master, STREAM_REPLICATIONS, r) for r in range(runs)]
    if len(set(seeds)) != len(seeds):  # pragma: no cover - 128-bit collision
        raise RuntimeError("replication seed collision; change master seed")
    return seeds
