"""The exact message of each in-memory input check, and which bad entry it
names when several fail: the earliest record, and on one record the first
check listed."""

import math
import warnings

import pytest

from helpers import hand_sample, label_table, one_walk
from hybridsample.estimators import vsa_theta_unknown_n, walk_theta
from hybridsample.geo import Region, zoom_in_law
from hybridsample.graphs import BipartiteGraph, Graph, HybridNetwork
from hybridsample.samplers import AuxDistribution, compute_qu, harvest

AFF = BipartiteGraph(2, 2, [(0, 0), (1, 0)])
UNLABELLED = label_table([()] * 4)

CASES = [
    # (0, 5) fails nothing; (5, 5) fails both checks, and range is listed first
    (lambda: Graph(3, [(0, 1), (5, 5)]), "edge (5,5) out of range for n=3"),
    (lambda: Graph(3, [(1, 1), (0, 5)]), "self-loop at node 1 not allowed"),
    (lambda: BipartiteGraph(2, 2, [(0, 0), (5, 7)]), "left id 5 out of range"),
    (lambda: BipartiteGraph(2, 2, [(0, 7), (5, 0)]), "right id 7 out of range"),
    (lambda: harvest(AFF, [0, 2], [0.5, 0.0], 2), "venue id 2 is not an auxiliary node"),
    (lambda: harvest(AFF, [1, 0], [0.0, 0.5], 2),
     "draw of venue 1 with nonpositive probability 0.0"),
    (lambda: compute_qu(HybridNetwork(Graph(2, [(0, 1)]), Graph(2, []), AFF), AuxDistribution(2)),
     "unreachable probability mass: auxiliary node 1 has p>0 but no affiliation edges"),
    (lambda: vsa_theta_unknown_n(hand_sample([(0, 0.5, (1, 2)), (1, 0.5, (3,))],
                                             {1: 1, 2: 0, 3: -1}), UNLABELLED),
     "harvested node 2 recorded with affiliation degree 0; expected > 0"),
    (lambda: walk_theta(one_walk([0, 2, 1], [1.0, -1.0, math.nan]), 0, UNLABELLED),
     "nonpositive or non-finite visit weight nan at node 2"),
    (lambda: zoom_in_law([0.0, 95.0, math.nan], [0.0, 0.0, math.nan], Region(-1, 1, -1, 1), 1),
     "node 1: venue coordinates (95.0, 0.0) out of range"),
]


@pytest.mark.parametrize("call,message", CASES, ids=[m.split(" ")[0] for _, m in CASES])
def test_first_bad_entry_message(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# a visit weight or draw probability whose reciprocal overflows is named,
# with no numpy overflow warning first; kept out of CASES, where the draw
# message's first word would clash with the id of the nonpositive draw case
RECIPROCAL_CASES = {
    "walk": (lambda: walk_theta(one_walk([0, 1, 2], [1.0, 1e-310, 2.0]), 0, UNLABELLED),
             "visit weight 1e-310 at node 1 has no finite reciprocal"),
    "harvest": (lambda: harvest(AFF, [1, 0, 1], [0.5, 1e-310, 2e-310], 3),
                "draw of venue 0 with probability 1e-310 has no finite reciprocal"),
}


@pytest.mark.parametrize("case", sorted(RECIPROCAL_CASES))
def test_reciprocal_overflow_message(case):
    call, message = RECIPROCAL_CASES[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            call()
    assert str(exc.value) == message
