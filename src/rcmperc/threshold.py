"""Percolation verdicts and the critical-intensity bracket search.

A verdict at one intensity runs many independent explorations in a
finite window; a single escape is taken as evidence of percolation at
that intensity and window. The search's plan, `_bracket`, decides every
intensity and runs nothing: from the analytic branching bound gamma0
(subcritical in the infinite system) it ramps the intensity
geometrically until a verdict percolates, then halves the bracket at its
midpoint.

`estimate_critical` answers every intensity the plan asks for from
coupled batches (`coupled_batch`): batch j is the marked batch with key
j of `exploration.run_trials` at gamma_max = gamma0 * 2^(j/4), and gamma is
read from the smallest j whose gamma_max covers it. Each trial of a
batch reports its escape key gamma*_t and its cap key. The verdict at
gamma percolates when some t < runs has gamma*_t <= gamma, and counts
trials up to the first such t as the early exit of
`percolation_verdict` would. A batch's levels are the intensities in its
band that the plan can ask for, whatever the verdicts (`_plan_levels`):
a trial explores only up to the largest level below the escape keys
before it, so after the first escapes it stops where a contained verdict
at that level would, and the search costs about what one batch per
intensity cost. The keys that bound covers do not depend on thread
timing, and the kernel censors every other one (the rule in
`kernel.h`), so verdicts are identical for any worker count.
"""

from __future__ import annotations

import math
from collections.abc import Generator, Iterator
from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from .bounds import branching_bound
from .connection import ConnectionModel
from .exploration import SimParams, run_trials

__all__ = ["PercolationVerdict", "CriticalEstimate", "percolation_verdict", "coupled_batch",
           "estimate_critical"]

_MAX_RAMP_STEPS = 500
_MAX_LEVELS = 1 << 16
# Batch j of a search runs at gamma_max = gamma0 * _SPAN^j. A wider span
# answers more ramp steps per batch, which pays at desk scale, but draws
# up to _SPAN times the points a verdict at gamma needs, which costs most
# in paper windows, where clusters near the threshold are large.
_SPAN = 2.0 ** 0.25
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
    capped_runs counts trials that hit a work cap (in a search, at a key
    at most gamma); those are unreliable and never read as containment.
    contained counts the trials that neither escaped nor hit a cap: a
    trial can do both, when the budget clamp caps a step whose kept
    candidates then escape. step_kind records the search phase ('ramp'
    or 'refine') when the verdict was produced by a search.
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
    return _verdict(outcomes["escape_key"], outcomes["cap_key"], gamma, full_runs)


def _verdict(escape: np.ndarray, cap: np.ndarray, gamma: float, full_runs: bool
             ) -> PercolationVerdict:
    """The verdict at gamma from the trials' escape and cap keys.

    Trial t escapes at gamma when escape[t] <= gamma and is capped when
    cap[t] <= gamma. Without full_runs the trials end at the first that
    escapes.
    """
    escaped = escape <= gamma
    capped = cap <= gamma
    runs = len(escape)
    if not full_runs and escaped.any():
        runs = int(escaped.argmax()) + 1
    escaped, capped = escaped[:runs], capped[:runs]
    escapes = int(escaped.sum())
    return PercolationVerdict(
        gamma=gamma,
        runs=runs,
        escapes=escapes,
        capped_runs=int(capped.sum()),
        contained=int((~(escaped | capped)).sum()),
        percolates=escapes >= 1,
    )


def coupled_batch(
    params: SimParams,
    model: ConnectionModel,
    gamma_max: float,
    runs: int,
    master_seed: int,
    eval_key: int = 0,
    workers: int = 1,
    full_runs: bool = False,
    levels: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The escape and cap keys of `runs` coupled trials at intensity gamma_max.

    Trial t draws from (master_seed, eval_key, t). With full_runs every
    trial runs until its escape key is settled. Otherwise earlier escapes
    cut later trials, and the kernel returns the keys censored by the
    rule in kernel.h: a key counts only up to its trial's serial bound,
    which with levels is a level, so the batch answers verdicts only at
    its levels. A verdict at gamma (a level, if there are levels) never
    reads a trial past the first with escape key <= gamma, so censoring
    changes no verdict, and it leaves only keys that do not depend on
    thread timing. levels, if given, must be a non-empty, strictly
    ascending array of finite values; an uncut batch does not use them.
    """
    if runs < 1:
        raise ValueError(f"run count must be positive, got {runs}")
    if levels is not None:
        levels = np.asarray(levels, dtype=np.float64)
        if not (levels.ndim == 1 and len(levels) and np.isfinite(levels).all()
                and (np.diff(levels) > 0).all()):
            raise ValueError("levels must be a non-empty, strictly ascending array of "
                             "finite values")
    outcomes, _ = run_trials(
        replace(params, gamma=gamma_max), model, master_seed, eval_key, runs, workers,
        stop_at_escape=not full_runs, marked=True, levels=levels,
    )
    return outcomes["escape_key"], outcomes["cap_key"]


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


def _ramp(gamma0: float, ramp_factor: float) -> Iterator[tuple[float, float]]:
    """The ramp's brackets (lower, upper), at most _MAX_RAMP_STEPS of them:
    (gamma0 / ramp_factor, gamma0) first, then each from the last upper to
    ramp_factor times it. `_bracket` tests their uppers, and the levels of
    `_plan_levels` must match them to the bit."""
    lower, upper = gamma0 / ramp_factor, gamma0
    for _ in range(_MAX_RAMP_STEPS):
        yield lower, upper
        lower, upper = upper, upper * ramp_factor


def _bracket(gamma0: float, ramp_factor: float, refinements: int
             ) -> Generator[tuple[float, str], bool, tuple[float, float, float, list[str]]]:
    """The search plan: yields each (gamma, step_kind) to test, is sent whether
    that verdict percolated, and returns (lower, upper, width, warnings).

    It runs no simulation. If the first answer is yes, lower is gamma0 /
    ramp_factor, untested, and the first warning says so.
    """
    warnings = ["first tested intensity (the branching bound) already percolated; "
                "lower bracket endpoint was not tested"]
    for lower, upper in _ramp(gamma0, ramp_factor):
        if (yield upper, "ramp"):
            break
        warnings = []
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


def _plan_levels(gamma0: float, ramp_factor: float, refinements: int, low: float,
                 high: float) -> np.ndarray | None:
    """Every intensity in (low, high] that `_bracket` can ask for, whatever
    its verdicts, ascending and computed as it computes them; None when
    there would be more than _MAX_LEVELS.

    Those are the ramp points and, in each ramp step's bracket, the
    midpoints that `refinements` halvings can reach.
    """
    brackets = []
    for lower, upper in _ramp(gamma0, ramp_factor):
        if lower >= high:
            break
        if upper > low:
            brackets.append((lower, upper))
    if len(brackets) << refinements > _MAX_LEVELS:
        return None
    lo, hi = np.array(brackets).reshape(-1, 2).T
    found = [hi]
    for _ in range(refinements):
        mid = (lo + hi) / 2.0
        found.append(mid)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    levels = np.unique(np.concatenate(found))
    return levels[(levels > low) & (levels <= high)]


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

    `_bracket`, started at the branching bound gamma0, decides every
    intensity. This function answers each one from coupled batch j (key
    j, gamma_max = gamma0 * 2^(j/4)) for the smallest j with gamma <=
    gamma_max, running that batch through the module's `coupled_batch`
    the first time it is needed, with the levels `_plan_levels` gives in
    its band (gamma0 * 2^((j-1)/4), gamma_max], and records the verdict.
    A window that no trial can leave within the step cap raises
    RuntimeError before any batch runs.
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
    gamma0 = branching_bound(model, params.dim)
    plan = _bracket(gamma0, ramp_factor, refinements)
    batches: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    history: list[PercolationVerdict] = []
    try:
        gamma, step_kind = next(plan)
        while True:
            j = 0
            while gamma > gamma0 * _SPAN**j:
                j += 1
            if j not in batches:
                high = gamma0 * _SPAN**j
                levels = _plan_levels(gamma0, ramp_factor, refinements,
                                      gamma0 * _SPAN**(j - 1) if j else -math.inf, high)
                batches[j] = coupled_batch(params, model, high, runs, master_seed,
                                           eval_key=j, workers=workers, full_runs=full_runs,
                                           levels=levels)
            verdict = _verdict(*batches[j], gamma, full_runs)
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
