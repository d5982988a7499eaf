"""Per-trial records and their lossless JSON / CSV round trips.

Floats are serialized with shortest-round-trip repr, so parsing a
serialized record reproduces the original bit for bit. `csv_cell` is
the one CSV cell format: records use it here, and the command line uses
it for every table it writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any

from .exploration import ClusterOutcome

__all__ = ["TrialRecord", "CSV_FIELDS", "csv_cell"]

CSV_FIELDS = (
    "trial",
    "seed",
    "gamma",
    "escaped",
    "cluster_size",
    "generated_points",
    "steps",
    "max_norm",
    "capped",
    "wall_ms",
)


def csv_cell(v: Any) -> str:
    """One CSV cell: booleans as true/false, floats by repr, None empty."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass(frozen=True)
class TrialRecord:
    """One exploration trial: identity, outcome, wall time.

    trial numbers the trial within its command; seed is the master seed
    the trial stream was derived from.
    """

    trial: int
    seed: int
    gamma: float
    escaped: bool
    cluster_size: int
    generated_points: int
    steps: int
    max_norm: float
    capped: bool
    wall_ms: float

    @classmethod
    def from_outcome(
        cls, trial: int, seed: int, gamma: float, outcome: ClusterOutcome, wall_ms: float
    ) -> "TrialRecord":
        return cls(
            trial=trial,
            seed=seed,
            gamma=gamma,
            escaped=outcome.escaped,
            cluster_size=outcome.cluster_size,
            generated_points=outcome.generated_points,
            steps=outcome.steps,
            max_norm=outcome.max_norm,
            capped=outcome.capped,
            wall_ms=wall_ms,
        )

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json_line(cls, line: str) -> "TrialRecord":
        return cls(**json.loads(line))

    def to_csv_row(self) -> list[str]:
        return [csv_cell(getattr(self, name)) for name in CSV_FIELDS]

    @classmethod
    def from_csv_row(cls, row: list[str]) -> "TrialRecord":
        if len(row) != len(CSV_FIELDS):
            raise ValueError(f"expected {len(CSV_FIELDS)} columns, got {len(row)}")
        vals = dict(zip(CSV_FIELDS, row))
        return cls(
            trial=int(vals["trial"]),
            seed=int(vals["seed"]),
            gamma=float(vals["gamma"]),
            escaped=vals["escaped"] == "true",
            cluster_size=int(vals["cluster_size"]),
            generated_points=int(vals["generated_points"]),
            steps=int(vals["steps"]),
            max_norm=float(vals["max_norm"]),
            capped=vals["capped"] == "true",
            wall_ms=float(vals["wall_ms"]),
        )
