"""Lazy exploration of the origin's cluster in a random connection model.

The cluster of the origin is grown breadth-outward without ever realizing
the full point process. Every point a run knows of lives in one grid
(`SpatialIndex`), by integer id, in one of three states:

  * covered: cluster points whose neighborhood is fully resolved, one
    per processing step; their balls hold no further undrawn points;
  * cluster: cluster points awaiting processing, kept in the frontier
    and popped farthest-from-origin first (ties by smaller id) so
    escaping clusters reach the boundary quickly;
  * unattached: generated points that have not joined the cluster. They
    are kept forever and retested against later frontier points, because
    their connection to those points is still undecided.

Processing a frontier point x runs, in this fixed order:
  (a) one uniform per unattached point within range of x, ascending id;
      successes join the cluster;
  (b) one Poisson count, then one placement per candidate point, uniform
      in B(x, range), thinned against the covered points' balls (no
      randomness in the thinning);
  (c) one uniform per surviving new point, in generation order; successes
      join the cluster, the rest stay unattached. Finally x becomes
      covered.

No pair is ever tested twice: unattached points sit outside every covered
ball, so they are never regenerated, and points inside the cluster are
never tested against each other.

A run ends in one of three ways. Containment: the frontier empties.
Escape: a point with norm greater than the system size joins the
cluster, checked as it joins, ending the run immediately. Capped: a
work cap (generated points or processing steps) is hit first; capped
runs are flagged and must not be read as containment.

Batches of trials go through `run_trials`. Results never depend on the
worker count: trial t draws from the keyed stream (seed, key, t), trials
go to workers as contiguous index ranges that stop at their own first
escape when asked to, and ranges are read back in trial order, so an
early-exit batch ends at the first escaping trial as a serial run does.
Trials past it that finished in flight are discarded, so counters
derived from the result match a serial run exactly.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from heapq import heappop, heappush

import numpy as np

from .connection import ConnectionModel, decide_connection
from .geometry import CLUSTER, COVERED, UNATTACHED, SpatialIndex, ball_volume
from .sampling import place_candidates, poisson_count, trial_stream

__all__ = [
    "SimParams",
    "ClusterOutcome",
    "PairConnectednessEstimate",
    "explore_cluster",
    "estimate_pair_connectedness",
    "wilson_interval",
]

DEFAULT_MAX_GENERATED = 10_000_000
DEFAULT_MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class SimParams:
    """Parameters of one exploration run.

    extra_points places deterministic points into the initial unattached
    pool (used for pair-connectedness probes). Work caps bound the run
    and flag the outcome as capped: max_steps bounds processed frontier
    points, max_generated_points bounds candidate placements drawn
    (kept or thinned), so a run can never materialize more than that
    many points no matter how large the intensity is.
    """

    dim: int
    gamma: float
    system_size: float
    extra_points: tuple[tuple[float, ...], ...] = ()
    max_generated_points: int = DEFAULT_MAX_GENERATED
    max_steps: int = DEFAULT_MAX_STEPS

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"intensity must be finite and non-negative, got {self.gamma!r}")
        if not (math.isfinite(self.system_size) and self.system_size > 0.0):
            raise ValueError(
                f"system size must be finite and positive, got {self.system_size!r}"
            )
        if self.max_generated_points < 1 or self.max_steps < 1:
            raise ValueError("work caps must be positive")
        cleaned = []
        for pt in self.extra_points:
            tup = tuple(float(v) for v in pt)
            if len(tup) != self.dim:
                raise ValueError(
                    f"extra point {pt!r} has {len(tup)} coordinates, expected {self.dim}"
                )
            if any(not math.isfinite(v) for v in tup):
                raise ValueError(f"extra point {pt!r} has non-finite coordinates")
            cleaned.append(tup)
        object.__setattr__(self, "extra_points", tuple(cleaned))


@dataclass(frozen=True)
class ClusterOutcome:
    """Result of one exploration run.

    cluster_size counts every point known to belong to the cluster when
    the run ended (saturated plus still-unprocessed frontier), so it is a
    partial count for escaped or capped runs. generated_points counts
    points kept after thinning; steps counts processed frontier points.
    extras_in_cluster flags, per SimParams.extra_points entry, whether
    that point had joined the cluster by the end of the run.
    """

    escaped: bool
    cluster_size: int
    generated_points: int
    steps: int
    max_norm: float
    capped: bool
    extras_in_cluster: tuple[bool, ...] = ()


def explore_cluster(
    params: SimParams, model: ConnectionModel, rng: np.random.Generator
) -> ClusterOutcome:
    """Grow the origin's cluster until containment, escape, or a work cap.

    The rng must be fresh for this run: results are a pure function of
    (params, model, seed, key).
    """
    radius = model.radius
    system_size = params.system_size
    if system_size <= radius:
        raise ValueError(
            f"system size {system_size!r} must exceed the connection radius {radius!r}"
        )
    dim = params.dim
    gamma = params.gamma
    max_steps = params.max_steps
    max_generated = params.max_generated_points

    grid = SpatialIndex(radius, dim)
    coords = grid.coords
    state = grid.state
    origin = grid.insert((0.0,) * dim, CLUSTER)
    frontier: list[tuple[float, int]] = [(-0.0, origin)]
    for extra in params.extra_points:
        grid.insert(extra, UNATTACHED)

    escaped = False
    capped = False
    steps = 0
    generated = 0
    candidates = 0
    ball_mean = gamma * ball_volume(dim, radius)
    max_norm = 0.0

    def adopt(i: int) -> None:
        """Move a point into the cluster and the frontier; escape is checked here."""
        nonlocal escaped, max_norm
        state[i] = CLUSTER
        norm = math.hypot(*coords[i])
        if norm > max_norm:
            max_norm = norm
        heappush(frontier, (-norm, i))
        if norm > system_size:
            escaped = True

    while frontier:
        if steps >= max_steps:
            capped = True
            break
        _, i = heappop(frontier)
        x = coords[i]
        steps += 1

        for j in grid.query(x, UNATTACHED):
            u = rng.random()
            if decide_connection(model, x, coords[j], u):
                adopt(j)
                if escaped:
                    break
        if escaped:
            break

        # clamp the Poisson intake to the remaining budget before any
        # candidate materializes, or a huge intensity would stall here
        budget = max_generated - candidates
        if ball_mean > max(2.0 * budget, 1000.0):
            # capping is then certain beyond any doubt (Chernoff gives
            # P[count <= budget] < e^-150) and numpy cannot draw such
            # means at all, so skip the draw
            capped = True
            count = budget
        else:
            count = poisson_count(rng, ball_mean)
            if count > budget:
                capped = True
                count = budget
        candidates += count
        for p in place_candidates(rng, x, radius, grid, dim, count):
            generated += 1
            j = grid.insert(p, UNATTACHED)
            u = rng.random()
            if decide_connection(model, x, p, u):
                adopt(j)
                if escaped:
                    break
        state[i] = COVERED
        if escaped or capped:
            break

    return ClusterOutcome(
        escaped=escaped,
        cluster_size=steps + len(frontier),
        generated_points=generated,
        steps=steps,
        max_norm=max_norm,
        capped=capped,
        extras_in_cluster=tuple(
            s != UNATTACHED for s in state[1 : 1 + len(params.extra_points)]
        ),
    )


def run_trials(
    params: SimParams,
    model: ConnectionModel,
    master_seed: int,
    eval_key: int,
    n: int,
    workers: int = 1,
    stop_at_escape: bool = False,
) -> list[ClusterOutcome]:
    """Outcomes of trials 0..n-1, in trial order; trial t draws from (seed, key, t).

    With stop_at_escape the list ends at the first escaping trial. With
    workers > 1 the trials go to the pool in waves, and each wave goes as
    at most `workers` contiguous ranges of ceil(wave / workers) trials,
    one task each. A full batch is one wave of all n trials, so each
    worker gets one range; an early-exit batch runs waves of
    max(4 * workers, 16) trials, so it waits for little work past its
    first escape.
    """
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    if workers == 1 or n <= 1:
        return _run_range((params, model, master_seed, eval_key, 0, n, stop_at_escape))

    outcomes: list[ClusterOutcome] = []
    wave = max(4 * workers, 16) if stop_at_escape else n
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for start in range(0, n, wave):
            end = min(n, start + wave)
            size = -(-(end - start) // workers)
            ranges = [
                (params, model, master_seed, eval_key, a, min(a + size, end), stop_at_escape)
                for a in range(start, end, size)
            ]
            for part in pool.map(_run_range, ranges):
                outcomes.extend(part)
                if stop_at_escape and part[-1].escaped:
                    return outcomes
    return outcomes


def _run_range(task) -> list[ClusterOutcome]:
    """Trials start..end-1 of one batch, stopping at the first escape if asked.

    The pool's task function: module level so it pickles by name, and it
    looks up explore_cluster and trial_stream as globals when called.
    """
    params, model, master_seed, eval_key, start, end, stop_at_escape = task
    outcomes = []
    for t in range(start, end):
        outcome = explore_cluster(params, model, trial_stream(master_seed, eval_key, t))
        outcomes.append(outcome)
        if stop_at_escape and outcome.escaped:
            break
    return outcomes


def wilson_interval(successes: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """Wilson score 95% confidence interval for a binomial proportion."""
    if n <= 0:
        return (0.0, 1.0)
    phat = successes / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class PairConnectednessEstimate:
    """Monte Carlo estimate of the two-point connection probability.

    A probe point is placed at distance r from the origin and the origin's
    cluster is explored; the estimate is the fraction of resolved trials
    in which the probe joined the cluster. Trials that escaped or were
    capped while the probe was still undecided are excluded and counted
    separately; exclusion_warning is set when they exceed 1% of trials.
    """

    r: float
    gamma: float
    trials: int
    positives: int
    resolved: int
    excluded_escaped: int
    excluded_capped: int
    tau_hat: float
    ci_low: float
    ci_high: float
    exclusion_warning: bool

    def to_dict(self) -> dict:
        return asdict(self)


def estimate_pair_connectedness(
    params: SimParams,
    model: ConnectionModel,
    r: float,
    trials: int,
    master_seed: int,
    eval_key: int = 0,
    workers: int = 1,
) -> PairConnectednessEstimate:
    """Estimate the probability that the origin connects to a point at distance r.

    The probe starts in the unattached pool like any generated point and
    is resolved the moment it joins the cluster; a trial whose exploration
    ends (escape or cap) with the probe still unattached cannot decide it
    and is excluded from the denominator.
    """
    if not (0.0 < r < 2.0 * params.system_size):
        raise ValueError(
            f"probe distance must lie in (0, {2.0 * params.system_size!r}), got {r!r}"
        )
    if trials < 1:
        raise ValueError(f"trial count must be positive, got {trials}")
    probe = (r,) + (0.0,) * (params.dim - 1)
    outcomes = run_trials(
        replace(params, extra_points=(probe,)), model, master_seed, eval_key, trials, workers
    )

    positives = 0
    excluded_escaped = 0
    excluded_capped = 0
    for o in outcomes:
        if o.extras_in_cluster[0]:
            positives += 1
        elif o.capped:
            excluded_capped += 1
        elif o.escaped:
            excluded_escaped += 1
    excluded = excluded_escaped + excluded_capped
    resolved = trials - excluded
    tau_hat = positives / resolved if resolved > 0 else math.nan
    ci_low, ci_high = wilson_interval(positives, resolved)
    return PairConnectednessEstimate(
        r=r,
        gamma=params.gamma,
        trials=trials,
        positives=positives,
        resolved=resolved,
        excluded_escaped=excluded_escaped,
        excluded_capped=excluded_capped,
        tau_hat=tau_hat,
        ci_low=ci_low,
        ci_high=ci_high,
        exclusion_warning=excluded > 0.01 * trials,
    )
