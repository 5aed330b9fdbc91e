"""Indirect graph sampling on hybrid social-affiliation networks."""

from .estimators import (
    EstimateReport,
    nrmse,
    vsa_theta_unknown_n,
    walk_theta,
)
from .geo import NYC_REGION, Region, bounding_region, zoom_in_law
from .graphs import (
    BipartiteGraph,
    Graph,
    HybridNetwork,
    LabelTable,
    degree_labels,
    ground_truth_theta,
)
from .ingest import load_checkins, load_edge_list
from .samplers import (
    AuxDistribution,
    JumpLaw,
    VsaSample,
    compute_qu,
    fixed_weight_scheme,
    jump_law,
    rwt_rwa_run,
    rwt_vsa_run,
    vs_a_collect,
)
from .synth import SynthConfig, build_synthetic_hybrid, generate_ba, orient_edges

__version__ = "0.1.0"
