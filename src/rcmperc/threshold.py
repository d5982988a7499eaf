"""Percolation verdicts and the critical-intensity bracket search.

A verdict at one intensity runs many independent explorations in a
finite window; a single escape is taken as evidence of percolation at
that intensity and window. The search's plan, `_bracket`, decides every
intensity and runs nothing: from the analytic branching bound
(subcritical in the infinite system) it ramps the intensity
geometrically until a verdict percolates, then halves the bracket at its
midpoint. `estimate_critical` runs the verdicts it asks for; evaluation
e is the batch with key e of `exploration.run_trials` (see its
determinism paragraph), so verdicts are identical for any worker count.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import asdict, dataclass, replace
from typing import Any

from .bounds import branching_bound
from .connection import ConnectionModel
from .exploration import SimParams, run_trials

__all__ = ["PercolationVerdict", "CriticalEstimate", "percolation_verdict", "estimate_critical"]

_MAX_RAMP_STEPS = 500
DEFAULT_RAMP_FACTOR = 1.1
DEFAULT_REFINEMENTS = 2


def _given(items: list[tuple[str, Any]]) -> dict[str, Any]:
    """A result document's fields in declaration order, leaving out those that are None."""
    return {name: value for name, value in items if value is not None}


@dataclass(frozen=True)
class PercolationVerdict:
    """Outcome of repeated explorations at one intensity.

    runs counts the trials actually consumed: with early exit the series
    stops at the first escaping trial, so runs can be below the request.
    capped_runs counts trials that hit a work cap; those are unreliable
    and never read as containment. contained counts the trials that
    neither escaped nor hit a cap: a trial can do both, when the budget
    clamp caps a step whose kept candidates then escape. step_kind records the search phase
    ('ramp' or 'refine') when the verdict was produced by a search.
    """

    gamma: float
    runs: int
    escapes: int
    capped_runs: int
    contained: int
    percolates: bool
    step_kind: str | None = None

    @property
    def reliable(self) -> bool:
        return self.capped_runs == 0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self, dict_factory=_given)


def percolation_verdict(
    params: SimParams,
    model: ConnectionModel,
    gamma: float,
    runs: int,
    master_seed: int,
    eval_key: int = 0,
    workers: int = 1,
    full_runs: bool = False,
) -> PercolationVerdict:
    """Explore `runs` independent clusters at one intensity.

    Percolates if any trial escapes. By default the series stops at the
    first escape; full_runs forces all trials (needed when escape counts
    themselves are of interest). The gamma argument overrides
    params.gamma.
    """
    if runs < 1:
        raise ValueError(f"run count must be positive, got {runs}")
    outcomes, _ = run_trials(
        replace(params, gamma=gamma), model, master_seed, eval_key, runs, workers,
        stop_at_escape=not full_runs,
    )
    escaped = outcomes["escaped"]
    capped = outcomes["capped"]
    escapes = int(escaped.sum())
    return PercolationVerdict(
        gamma=gamma,
        runs=len(outcomes),
        escapes=escapes,
        capped_runs=int(capped.sum()),
        contained=int((~(escaped | capped)).sum()),
        percolates=escapes >= 1,
    )


@dataclass(frozen=True)
class CriticalEstimate:
    """Bracket around the finite-window percolation threshold.

    width is maintained by exact halving of the post-ramp bracket width,
    so after k refinements it equals the post-ramp width divided by 2^k
    exactly; upper - lower can differ from it by rounding in the last
    place. midpoint is (lower + upper) / 2. history holds every verdict
    in evaluation order, ramp phase then refine phase; unless the first
    tested intensity percolated (flagged in warnings), the last verdicts
    at lower and upper are non-percolating and percolating respectively.
    """

    lower: float
    upper: float
    midpoint: float
    width: float
    dim: int
    system_size: float
    runs: int
    ramp_factor: float
    refinements: int
    seed: int
    model: str
    warnings: tuple[str, ...] = ()
    history: tuple[PercolationVerdict, ...] = ()

    def to_dict(self) -> dict[str, Any]:
        return asdict(self, dict_factory=_given)


def _bracket(gamma0: float, ramp_factor: float, refinements: int
             ) -> Generator[tuple[float, str], bool, tuple[float, float, float, list[str]]]:
    """The search plan: yields each (gamma, step_kind) to test, is sent whether
    that verdict percolated, and returns (lower, upper, width, warnings).

    It runs no simulation. If the first answer is yes, lower is gamma0 /
    ramp_factor, untested, and the first warning says so.
    """
    warnings = ["first tested intensity (the branching bound) already percolated; "
                "lower bracket endpoint was not tested"]
    lower, upper = gamma0 / ramp_factor, gamma0
    for _ in range(_MAX_RAMP_STEPS):
        if (yield upper, "ramp"):
            break
        warnings = []
        lower, upper = upper, upper * ramp_factor
    else:
        raise RuntimeError(
            f"no percolation after {_MAX_RAMP_STEPS} ramp steps from {gamma0!r}; "
            "check the window size and work caps"
        )
    width = upper - lower
    for _ in range(refinements):
        mid = (lower + upper) / 2.0
        if (yield mid, "refine"):
            upper = mid
        else:
            lower = mid
        width = width / 2.0
    return lower, upper, width, warnings


def estimate_critical(
    params: SimParams,
    model: ConnectionModel,
    runs: int,
    master_seed: int,
    ramp_factor: float = DEFAULT_RAMP_FACTOR,
    refinements: int = DEFAULT_REFINEMENTS,
    workers: int = 1,
    full_runs: bool = False,
) -> CriticalEstimate:
    """Bracket the critical intensity for the given model and window.

    `_bracket`, started at the branching bound, decides every intensity.
    This function runs each verdict it asks for, keyed by the number of
    verdicts before it, and records it. A window that no trial can leave
    within the step cap raises RuntimeError before any verdict runs.
    """
    if not (math.isfinite(ramp_factor) and ramp_factor > 1.0):
        raise ValueError(f"ramp factor must be finite and exceed 1, got {ramp_factor!r}")
    if refinements < 0:
        raise ValueError(f"refinement count must be non-negative, got {refinements}")
    # after k processing steps no cluster point lies beyond k * range
    if params.max_steps * model.radius < params.system_size:
        raise RuntimeError(
            f"no percolation after {params.max_steps} steps is possible: steps of range "
            f"{model.radius!r} reach at most {params.max_steps * model.radius!r}, inside "
            f"the system size {params.system_size!r}; raise the step cap or shrink the window"
        )
    plan = _bracket(branching_bound(model, params.dim), ramp_factor, refinements)
    history: list[PercolationVerdict] = []
    try:
        gamma, step_kind = next(plan)
        while True:
            verdict = percolation_verdict(
                params, model, gamma, runs, master_seed,
                eval_key=len(history), workers=workers, full_runs=full_runs,
            )
            history.append(replace(verdict, step_kind=step_kind))
            gamma, step_kind = plan.send(verdict.percolates)
    except StopIteration as done:
        lower, upper, width, warnings = done.value
    if not all(v.reliable for v in history):
        warnings.append("some explorations hit a work cap; affected verdicts are unreliable")
    return CriticalEstimate(
        lower=lower,
        upper=upper,
        midpoint=(lower + upper) / 2.0,
        width=width,
        history=tuple(history),
        dim=params.dim,
        system_size=params.system_size,
        runs=runs,
        ramp_factor=ramp_factor,
        refinements=refinements,
        seed=master_seed,
        model=model.describe(),
        warnings=tuple(warnings),
    )
