"""Critical intensities of Poisson random connection models.

A random connection model places points by a homogeneous Poisson process
in R^d and joins each pair {x, y} independently with probability
phi(|x - y|) for a finite-range connection function phi. This package
estimates the critical intensity (above which an unbounded cluster
appears) by lazy cluster exploration in a finite window, and computes
the analytic branching lower bound alongside.

Entry points: `explore_cluster` grows one cluster; `percolation_verdict`
repeats that at a fixed intensity; `estimate_critical` brackets the
threshold; `branching_bound` / `constant_g_certificate` give the
analytic side; `estimate_pair_connectedness` measures the two-point
function; `reproduce_preset` re-runs a reference table. The `rcmperc`
command exposes all of it on the command line.
"""

from .bounds import BranchingReport, branching_bound, constant_g_certificate
from .connection import (
    MODEL_KINDS,
    ConnectionModel,
    Gilbert,
    PenetrableSphere,
    SoftSphere,
    TabulatedRadial,
)
from .exploration import (
    ClusterOutcome,
    PairConnectednessEstimate,
    SimParams,
    estimate_pair_connectedness,
    explore_cluster,
    wilson_interval,
)
from .geometry import ball_volume, sphere_surface
from .reference import (
    DESK_RUNS, DESK_SYSTEM_SIZE, REFERENCE_TABLES, ReferenceRow, ReferenceTable, reproduce_preset,
)
from .sampling import (
    DEFAULT_SEED,
    derive_seed,
    place_candidates,
    stream,
    trial_stream,
)
from .threshold import CriticalEstimate, PercolationVerdict, estimate_critical, percolation_verdict

__version__ = "0.1.0"

__all__ = [
    "BranchingReport",
    "branching_bound",
    "constant_g_certificate",
    "MODEL_KINDS",
    "ConnectionModel",
    "Gilbert",
    "PenetrableSphere",
    "SoftSphere",
    "TabulatedRadial",
    "ClusterOutcome",
    "PairConnectednessEstimate",
    "SimParams",
    "estimate_pair_connectedness",
    "explore_cluster",
    "wilson_interval",
    "ball_volume",
    "sphere_surface",
    "REFERENCE_TABLES",
    "ReferenceRow",
    "ReferenceTable",
    "DESK_RUNS",
    "DESK_SYSTEM_SIZE",
    "reproduce_preset",
    "DEFAULT_SEED",
    "derive_seed",
    "place_candidates",
    "stream",
    "trial_stream",
    "CriticalEstimate",
    "PercolationVerdict",
    "estimate_critical",
    "percolation_verdict",
    "__version__",
]
