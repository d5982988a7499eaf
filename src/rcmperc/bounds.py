"""Analytic lower bounds on the critical intensity.

For a connection function with mass M = integral of phi over R^d, the
expected number of partners of a typical point at intensity gamma is
q = gamma * M. Comparing cluster growth with a branching process whose
offspring mean is q shows the model cannot percolate while q < 1, so
1 / M is a lower bound on the critical intensity.

The same comparison yields a quantitative certificate: when q < 1, the
constant g = q / (1 - q) satisfies q * (1 + g) <= g, which bounds the
mean number of further cluster points by g and hence the mean cluster
size by 1 + g = 1 / (1 - q).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

from .connection import ConnectionModel

__all__ = ["BranchingReport", "branching_bound", "constant_g_certificate"]


@dataclass(frozen=True)
class BranchingReport:
    """Branching comparison at one intensity.

    expected_degree is gamma times the connectivity mass. When it is
    below 1 the certificate is valid: cluster_excess_bound bounds the
    mean number of cluster points besides the origin, and
    mean_cluster_size_bound = 1 + cluster_excess_bound. certificate_slack
    is cluster_excess_bound minus expected_degree * (1 +
    cluster_excess_bound), non-negative up to rounding for a valid
    certificate. The three certificate fields are None when
    expected_degree >= 1.
    """

    model: str
    dim: int
    connectivity_mass: float
    branching_bound: float
    gamma: float
    expected_degree: float
    certificate_valid: bool
    cluster_excess_bound: float | None
    mean_cluster_size_bound: float | None
    certificate_slack: float | None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _positive_mass(model: ConnectionModel, dim: int) -> float:
    mass = model.connectivity_mass(dim)
    if not math.isfinite(mass):
        raise ValueError(f"connection function mass must be finite, got {mass!r}")
    if mass <= 0.0:
        raise ValueError(
            "connection function has zero mass; the branching bound is infinite"
        )
    return mass


def branching_bound(model: ConnectionModel, dim: int) -> float:
    """Reciprocal of the connectivity mass: a lower bound on the critical intensity."""
    return 1.0 / _positive_mass(model, dim)


def constant_g_certificate(model: ConnectionModel, dim: int, gamma: float) -> BranchingReport:
    """Subcriticality certificate at a given intensity.

    Valid exactly when gamma is below the branching bound; the report
    then carries the implied mean cluster size bound 1 / (1 - q).
    """
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"intensity must be finite and non-negative, got {gamma!r}")
    mass = _positive_mass(model, dim)
    q = gamma * mass
    g = size = slack = None
    if q < 1.0:
        g = q / (1.0 - q)
        size = 1.0 + g
        slack = g - q * (1.0 + g)
    return BranchingReport(
        model=model.describe(),
        dim=dim,
        connectivity_mass=mass,
        branching_bound=1.0 / mass,
        gamma=gamma,
        expected_degree=q,
        certificate_valid=q < 1.0,
        cluster_excess_bound=g,
        mean_cluster_size_bound=size,
        certificate_slack=slack,
    )
