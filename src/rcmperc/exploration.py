"""Lazy exploration of the origin's cluster in a random connection model.

The cluster of the origin is grown breadth-outward without ever realizing
the full point process. The compiled kernel (`kernel.c`, loaded by
`rcmperc.kernel`) runs the whole exploration; this docstring, with the
draw order in `rcmperc.sampling`, `phi_at` in `rcmperc.connection` and
the float contract of distances in `rcmperc.geometry`, states the rules
it follows. A pair at distance r is joined by its uniform u exactly
when r is within the range and u <= phi(r). Every point a run knows of
lives in one grid, by integer id, in one of three states. The grid scans
its points linearly until it holds more than `RCM_LINEAR_POINTS` (in
`kernel.h`), then files them in cells twice as wide as the connection
range; either way a query finds the same points. The states are:

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
      randomness in the thinning; each candidate is tested first against
      the ball of the point that adopted x, which is always covered, and
      that test draws nothing);
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

Batches of trials go through `run_trials`, which returns the kernel's
own arrays. Results never depend on the worker count: the kernel
derives trial t's stream, the keyed stream (seed, key, t) of
`trial_stream`, and writes trial t's record and flags to row t. A batch
is one kernel call, `rcm_run_batch`, which starts its helper threads in
C and joins them before it returns; every thread, the calling one
included, takes trials one at a time from a counter shared by the
batch. Each thread sets up one workspace (the grid, the frontier and
scratch buffers) and empties it before each trial, so a trial's results
do not depend on which trials the same thread ran before it; the
thread frees the workspace when the batch is done. An early-exit batch
also shares the lowest escaping trial found so far: no trial above it
starts, and the arrays end at the first escaping trial as a serial run
does. Rows past it that other threads had filled are cut off, so
counts taken from the arrays match a serial run exactly. The kernel
call releases the interpreter lock for the whole batch.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

import numpy as np

from .connection import ConnectionModel
from .geometry import ball_volume
from .kernel import OUTCOME, bitgen, ffi, lib, model_struct
from .sampling import trial_entropy

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
    that point had joined the cluster by the end of the run. The kernel
    reports the other fields in one `rcm_outcome` record (kernel.h).
    """

    escaped: bool
    cluster_size: int
    generated_points: int
    steps: int
    max_norm: float
    capped: bool
    extras_in_cluster: tuple[bool, ...] = ()

    @classmethod
    def from_record(cls, record: np.void, joined: Sequence[bool] = ()) -> ClusterOutcome:
        """The outcome in a `kernel.OUTCOME` record; joined[k] says whether extra point k joined."""
        names = record.dtype.names
        return cls(**{f.name: record[f.name].item() for f in fields(cls) if f.name in names},
                   extras_in_cluster=tuple(bool(b) for b in joined))


def explore_cluster(
    params: SimParams, model: ConnectionModel, rng: np.random.Generator
) -> ClusterOutcome:
    """Grow the origin's cluster until containment, escape, or a work cap.

    The rng must be fresh for this run: results are a pure function of
    (params, model, seed, key).
    """
    with rng.bit_generator.lock:
        return _explore(params, model, rng)


# Work caps go to the kernel as 64-bit integers. Clamped to 2^61, twice
# the remaining budget stays below numpy's largest Poisson mean, and no
# run can reach such a cap anyway.
_CAP_LIMIT = 1 << 61


def _kernel_args(params: SimParams, model: ConnectionModel):
    """The kernel's `rcm_model *` and `rcm_params *` for runs of params under model."""
    radius = model.radius
    if params.system_size <= radius:
        raise ValueError(
            f"system size {params.system_size!r} must exceed the connection radius {radius!r}"
        )
    c_params = ffi.new("rcm_params *", {
        "dim": params.dim,
        "system_size": params.system_size,
        "ball_mean": params.gamma * ball_volume(params.dim, radius),
        "max_steps": min(params.max_steps, _CAP_LIMIT),
        "max_generated": min(params.max_generated_points, _CAP_LIMIT),
        "n_extras": len(params.extra_points),
        "extras": [c for p in params.extra_points for c in p],
    })
    return model_struct(model), c_params


def _explore(
    params: SimParams,
    model: ConnectionModel,
    rng: np.random.Generator,
    pair_log: list[tuple[int, int]] | None = None,
) -> ClusterOutcome:
    """One exploration drawing from rng, in one kernel call.

    No other thread may draw from rng meanwhile: the kernel reads and
    advances its bit generator without taking its lock. A pair_log list
    receives every connection test as (frontier point id, tested point
    id); ids count the origin 0, the extra points 1.. and then the
    generated points in generation order.
    """
    m, c_params = _kernel_args(params, model)
    outcomes, joined = _batch_arrays(1, len(params.extra_points))
    log = ffi.new("rcm_pair_log *") if pair_log is not None else ffi.NULL
    try:
        if lib.rcm_explore(bitgen(rng), m, c_params, ffi.from_buffer("rcm_outcome[]", outcomes),
                           ffi.from_buffer("uint8_t[]", joined), log) < 0:
            raise MemoryError("the exploration kernel ran out of memory")
        if pair_log is not None and log.n:
            ids = ffi.unpack(log.ids, 2 * log.n)
            pair_log.extend(zip(ids[::2], ids[1::2]))
    finally:
        if pair_log is not None:
            lib.rcm_free(log.ids)
    return ClusterOutcome.from_record(outcomes[0], joined[0])


def _batch_arrays(n: int, n_extras: int) -> tuple[np.ndarray, np.ndarray]:
    """Zeroed outcome records and joined flags for n trials, for the kernel to fill."""
    try:
        return np.zeros(n, OUTCOME), np.zeros((n, n_extras), bool)
    except MemoryError:
        raise MemoryError(f"cannot hold the outcomes of {n} trials in memory") from None


def run_trials(
    params: SimParams,
    model: ConnectionModel,
    master_seed: int,
    eval_key: int,
    n: int,
    workers: int = 1,
    stop_at_escape: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes, joined) of trials 0..n-1; trial t draws from (seed, key, t).

    outcomes[t] is trial t's `kernel.OUTCOME` record, joined[t, k] whether
    extra point k joined its cluster; with stop_at_escape both end at the
    first escaping trial. The batch is one kernel call, `rcm_run_batch`,
    in as many threads as the smaller of workers and the machine's
    cores: the kernel starts the helper threads, runs a share in this
    one and joins them before it returns. The threads take the trials
    from one shared counter and derive each trial's stream in C.
    """
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    entropy = trial_entropy(master_seed, eval_key)
    m, c_params = _kernel_args(params, model)
    outcomes, joined = _batch_arrays(n, len(params.extra_points))
    done = lib.rcm_run_batch(entropy, len(entropy), n, min(workers, os.cpu_count() or 1),
                             stop_at_escape, m, c_params,
                             ffi.from_buffer("rcm_outcome[]", outcomes),
                             ffi.from_buffer("uint8_t[]", joined))
    if done < 0:
        raise MemoryError("the exploration kernel ran out of memory")
    return outcomes[:done], joined[:done]


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
    outcomes, joined = run_trials(
        replace(params, extra_points=(probe,)), model, master_seed, eval_key, trials, workers
    )
    # a joined probe is positive even in a capped or escaped trial
    positive = joined[:, 0]
    capped = outcomes["capped"] & ~positive
    escaped = outcomes["escaped"] & ~(positive | capped)
    positives = int(positive.sum())
    excluded_capped = int(capped.sum())
    excluded_escaped = int(escaped.sum())
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
