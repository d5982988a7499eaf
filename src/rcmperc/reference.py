"""Checked-in reference values for the five standard model settings.

Each table pairs a connection model with, per dimension, the window size
and run count of the full-scale study, the critical-intensity estimate
obtained at that scale, the analytic branching lower bound, and (for
Gilbert disks) an independent high-precision threshold estimate from the
percolation literature. The numeric values are regression anchors: the
branching column must be reproduced by `rcmperc.bounds` to five
significant digits, and the reproduce command reports simulated brackets
next to these estimates.

Scales: 'paper' uses the full-scale window and 5000 runs per verdict;
'desk' shrinks the window and uses 500 runs so a laptop-class machine
finishes in minutes. Desk brackets are wider and sit slightly below the
full-scale values because escapes come easier in a small window.
`reproduce_preset` re-runs a table at either scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from .bounds import branching_bound
from .connection import ConnectionModel, Gilbert, PenetrableSphere, SoftSphere
from .exploration import DEFAULT_MAX_GENERATED, DEFAULT_MAX_STEPS, SimParams
from .sampling import DEFAULT_SEED, derive_seed
from .threshold import DEFAULT_RAMP_FACTOR, DEFAULT_REFINEMENTS, estimate_critical

__all__ = [
    "ReferenceRow",
    "ReferenceTable",
    "REFERENCE_TABLES",
    "DESK_SYSTEM_SIZE",
    "DESK_RUNS",
    "SCALES",
    "reproduce_preset",
]

SCALES = ("desk", "paper")

DESK_SYSTEM_SIZE: dict[int, float] = {2: 200.0, 3: 100.0, 4: 60.0, 5: 40.0}
DESK_RUNS = 500


@dataclass(frozen=True)
class ReferenceRow:
    """One dimension's reference values at full scale."""

    dim: int
    system_size: float
    runs: int
    critical_estimate: float
    branching_bound: float
    literature_value: float | None = None


@dataclass(frozen=True)
class ReferenceTable:
    """A model setting plus its per-dimension reference rows."""

    number: int
    label: str
    model: ConnectionModel
    rows: tuple[ReferenceRow, ...]

    def row(self, dim: int) -> ReferenceRow:
        for r in self.rows:
            if r.dim == dim:
                return r
        raise KeyError(f"table {self.number} has no row for dimension {dim}")


REFERENCE_TABLES: dict[int, ReferenceTable] = {
    1: ReferenceTable(
        number=1,
        label="Gilbert disks, radius 2",
        model=Gilbert(radius=2.0),
        rows=(
            ReferenceRow(2, 1000.0, 5000, 0.34072, 0.079577, 0.35909),
            ReferenceRow(3, 500.0, 5000, 0.079338, 0.029842, 0.081621),
            ReferenceRow(4, 300.0, 5000, 0.025915, 0.012665, 0.026435),
            ReferenceRow(5, 200.0, 5000, 0.010039, 0.0059368, 0.010342),
        ),
    ),
    2: ReferenceTable(
        number=2,
        label="penetrable spheres, radius 2, connection probability 0.5",
        model=PenetrableSphere(radius=2.0, prob=0.5),
        rows=(
            ReferenceRow(2, 1000.0, 5000, 0.48813, 0.15915),
            ReferenceRow(3, 500.0, 5000, 0.12503, 0.059683),
            ReferenceRow(4, 300.0, 5000, 0.041814, 0.02533),
            ReferenceRow(5, 200.0, 5000, 0.01699, 0.011874),
        ),
    ),
    3: ReferenceTable(
        number=3,
        label="penetrable spheres, radius 2, connection probability 0.75",
        model=PenetrableSphere(radius=2.0, prob=0.75),
        rows=(
            ReferenceRow(2, 1000.0, 5000, 0.39376, 0.1061),
            ReferenceRow(3, 500.0, 5000, 0.096166, 0.039789),
            ReferenceRow(4, 300.0, 5000, 0.03216, 0.016887),
            ReferenceRow(5, 200.0, 5000, 0.012459, 0.0079157),
        ),
    ),
    4: ReferenceTable(
        number=4,
        label="soft spheres, radius 2, hardness 6",
        model=SoftSphere(radius=2.0, hardness=6),
        rows=(
            ReferenceRow(2, 1000.0, 5000, 0.35494, 0.084969),
            ReferenceRow(3, 500.0, 5000, 0.087095, 0.03276),
            ReferenceRow(4, 300.0, 5000, 0.028471, 0.014254),
            ReferenceRow(5, 200.0, 5000, 0.01128, 0.0068329),
        ),
    ),
    5: ReferenceTable(
        number=5,
        label="soft spheres, radius 2, hardness 12",
        model=SoftSphere(radius=2.0, hardness=12),
        rows=(
            ReferenceRow(2, 1000.0, 5000, 0.35272, 0.082379),
            ReferenceRow(3, 500.0, 5000, 0.083445, 0.031387),
            ReferenceRow(4, 300.0, 5000, 0.027011, 0.013523),
            ReferenceRow(5, 200.0, 5000, 0.010873, 0.00643),
        ),
    ),
}


def reproduce_preset(
    table_number: int,
    scale: str,
    master_seed: int = DEFAULT_SEED,
    workers: int = 1,
    dims: Sequence[int] | None = None,
    runs: int | None = None,
    ramp_factor: float = DEFAULT_RAMP_FACTOR,
    refinements: int = DEFAULT_REFINEMENTS,
    max_points: int = DEFAULT_MAX_GENERATED,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> dict[str, Any]:
    """Re-run one reference table and report brackets next to the references.

    Each dimension's search runs under a seed derived from (master_seed,
    table, dim), so rows are independent and any subset of dimensions
    reproduces the full run's rows exactly.
    """
    if table_number not in REFERENCE_TABLES:
        raise ValueError(f"no reference table {table_number}")
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    table = REFERENCE_TABLES[table_number]
    model = table.model
    all_dims = [r.dim for r in table.rows]
    use_dims = list(dims) if dims is not None else all_dims
    if not use_dims:
        raise ValueError("the dimension list must not be empty")
    for d in use_dims:
        if d not in all_dims:
            raise ValueError(f"table {table_number} has no row for dimension {d}")
    if len(set(use_dims)) != len(use_dims):
        raise ValueError(f"dimensions must not repeat, got {use_dims}")

    rows: list[dict[str, Any]] = []
    capped = False
    for d in use_dims:
        ref = table.row(d)
        if scale == "desk":
            system_size = DESK_SYSTEM_SIZE[d]
            n_runs = DESK_RUNS if runs is None else runs
        else:
            system_size = ref.system_size
            n_runs = ref.runs if runs is None else runs
        params = SimParams(
            dim=d, gamma=0.0, system_size=system_size,
            max_generated_points=max_points, max_steps=max_steps,
        )
        seed_d = derive_seed(master_seed, table_number, d)
        est = estimate_critical(
            params, model, n_runs, seed_d,
            ramp_factor=ramp_factor, refinements=refinements, workers=workers,
        )
        capped = capped or not all(v.reliable for v in est.history)
        rows.append(
            {
                "dim": d,
                "system_size": system_size,
                "runs": n_runs,
                "seed": seed_d,
                "lower": est.lower,
                "upper": est.upper,
                "midpoint": est.midpoint,
                "width": est.width,
                "evaluations": len(est.history),
                "warnings": list(est.warnings),
                "reference": {
                    "system_size": ref.system_size,
                    "runs": ref.runs,
                    "critical_estimate": ref.critical_estimate,
                    "branching_bound": ref.branching_bound,
                    "literature_value": ref.literature_value,
                },
                "branching_bound": branching_bound(model, d),
            }
        )

    note = (
        "desk scale shrinks the window and run count for quick turnaround; "
        "brackets are wider and sit below the full-scale estimates because "
        "escapes come easier in a small window"
        if scale == "desk"
        else "full-scale windows and run counts; expect long runtimes"
    )
    return {
        "command": "reproduce",
        "table": table_number,
        "label": table.label,
        "model": model.to_config(),
        "scale": scale,
        "note": note,
        "seed": master_seed,
        "ramp_factor": ramp_factor,
        "refinements": refinements,
        "rows": rows,
        "capped": capped,
    }
