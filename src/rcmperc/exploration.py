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
    and popped by smallest bottleneck key, then farthest from the origin
    (so escaping clusters reach the boundary quickly), then smaller id;
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

Keys. A run at one intensity draws no mark, and every key is 0, so its
frontier pops farthest first. A coupled run at intensity gamma_max
(`run_trials(..., marked=True)`) gives every kept point a mark, gamma_max
times a uniform draw (see `rcmperc.sampling`); the origin and extra
points have mark 0. The points with mark <= gamma are the process at
intensity gamma, and the connection uniforms do not depend on gamma. A
point's bottleneck key is the larger of its adopter's key and its own
mark (the origin's is 0). The frontier pops in Prim order (smallest key
first), so keys never fall from pop to pop, and the first key a point
gets is final: no later adopter could give it a smaller one. The
cluster at intensity gamma is then the set of points with key <= gamma.

A run ends in one of five ways. Containment: the frontier empties.
Escape: a point with norm greater than the system size joins; the
smallest key of such a point is the run's escape key gamma*, the least
intensity at which its cluster escapes. It is settled, and the run
ends, once it is <= the key being processed (checked as each point
joins) or <= the next key to pop; at one intensity that is the moment
the point joins. Cut: the next key to pop passes the trial's bound
(see below). Capped: a work cap (generated points or processing steps)
is hit first; the cap key is the key being processed (or, for the step
cap, the next to pop) when it fired, and the run counts as contained
only at intensities below it. Capped runs are flagged and must not be
read as containment. Probe stop: in a batch run with `stop_joined`
(`estimate_pair_connectedness`), a run with extra points ends right
after step (a) of the step in which the last of them joins, since
nothing after that can change whether they joined; extras join only in
step (a), and a run without extras never stops this way. Its
cluster_size and steps are then partial, and it reports an escape or a
cap only if one came first. A coupled run counts its work at gamma_max:
the points it processes up to a key gamma are the cluster at gamma, so
the step cap means what it means at gamma, but its candidates are drawn
at gamma_max, up to gamma_max / gamma times as many as a run at gamma
draws for the same cluster, so max_generated_points is reached sooner.

Batches of trials go through `run_trials`, which returns the kernel's
own arrays. Results never depend on the worker count: the kernel
derives trial t's stream, the keyed stream (seed, key, t) of
`trial_stream`, and writes trial t's record and flags to row t. Each
thread hashes the entropy words its trials share into the SeedSequence
once, and finishes each trial's seed with the words of t. A batch is
one kernel call, `rcm_run_batch`, which starts its helper threads in
C and joins them before it returns; every thread, the calling one
included, takes trials one at a time from a counter shared by the
batch. Each thread sets up one workspace (the grid, the frontier and
scratch buffers) and empties it before each trial, so a trial's results
do not depend on which trials the same thread ran before it; the
thread frees the workspace when the batch is done. A cut batch also
shares the escape keys of its finished trials: trial t pops only keys
below its cutoff, the smallest escape key of the trials s < t that have
finished, re-read at every pop. A batch that answers verdicts only at
given intensities, its levels, cuts further: trial t then pops only keys
up to the largest level below its cutoff, since a verdict at a level
asks only whether a key lies at or below it. A trial's results up to
its bound are those of an uncut run. The serial bound depends only on
the serial prefix minimum rounded up to a level, and a parallel run's
bound can only be larger, so every escape key the serial bound covers is
exact whatever the thread timing; `threshold` censors the rest. At one intensity an escape
has key 0: every later trial stops at its next pop and none starts, so
the arrays end at the first escaping trial as a serial run does, and
counts taken from them match a serial run exactly. The kernel call
releases the interpreter lock for the whole batch.
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
    many points no matter how large the intensity is. A coupled run
    (the critical search) draws its candidates at its gamma_max, so
    there max_generated_points counts draws at gamma_max.
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
    partial count for escaped or capped runs, and for runs ended by the
    probe stop once their extras joined. generated_points counts points
    kept after thinning; steps counts processed frontier points, and is
    partial where cluster_size is.
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


def _kernel_args(params: SimParams, model: ConnectionModel, marked: bool = False,
                 stop_joined: bool = False):
    """The kernel's `rcm_model *` and `rcm_params *` for runs of params under model;
    marked runs mark every kept point with params.gamma times a uniform draw,
    and with stop_joined a run with extra points ends once they have all joined."""
    radius = model.radius
    if params.system_size <= radius:
        raise ValueError(
            f"system size {params.system_size!r} must exceed the connection radius {radius!r}"
        )
    c_params = ffi.new("rcm_params *", {
        "dim": params.dim,
        "stop_joined": stop_joined,
        "system_size": params.system_size,
        "ball_mean": params.gamma * ball_volume(params.dim, radius),
        "mark_max": params.gamma if marked else 0.0,
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
    marked: bool = False,
    levels: np.ndarray | None = None,
    stop_joined: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """(outcomes, joined) of trials 0..n-1; trial t draws from (seed, key, t).

    outcomes[t] is trial t's `kernel.OUTCOME` record, joined[t, k] whether
    extra point k joined its cluster. A marked batch is a coupled one: its
    points carry marks in [0, params.gamma) and its clusters grow by
    bottleneck key. With stop_at_escape the trials are cut: trial t pops
    only keys below the smallest escape key of the trials before it that
    have finished, and with ascending `levels` only keys up to the largest
    level below it. Both arrays end at the first trial after which no
    trial pops: at a fixed intensity the first escaping trial. With
    stop_joined a trial with extra points ends once every one of them has
    joined (the probe stop in this module's docstring): its joined flags
    are those of a full run, but its record stops there, so cluster_size
    and steps are partial, and it escaped or capped only if that came
    first. A trial with an extra still out runs as it would without it.
    The batch is one kernel call, `rcm_run_batch`, in as many threads as
    the smaller of workers and the machine's cores: the kernel starts the
    helper threads, runs a share in this one and joins them before it
    returns. The threads take the trials from one shared counter and
    derive each trial's stream in C.
    """
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    entropy = trial_entropy(master_seed, eval_key)
    m, c_params = _kernel_args(params, model, marked, stop_joined)
    outcomes, joined = _batch_arrays(n, len(params.extra_points))
    if levels is None:
        c_levels, n_levels = ffi.NULL, 0
    else:
        levels = np.ascontiguousarray(levels, dtype=np.float64)
        c_levels, n_levels = ffi.from_buffer("double[]", levels), len(levels)
    done = lib.rcm_run_batch(entropy, len(entropy), n, min(workers, os.cpu_count() or 1),
                             stop_at_escape, c_levels, n_levels, m, c_params,
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
    is resolved the moment it joins the cluster; the trial then ends
    (`run_trials(..., stop_joined=True)`), so its cluster_size and steps
    are partial, but whatever it would have done next, it counts as a
    positive. A trial whose exploration ends (escape or cap) with the
    probe still unattached cannot decide it and is excluded from the
    denominator.
    """
    if not (0.0 < r < 2.0 * params.system_size):
        raise ValueError(
            f"probe distance must lie in (0, {2.0 * params.system_size!r}), got {r!r}"
        )
    if trials < 1:
        raise ValueError(f"trial count must be positive, got {trials}")
    probe = (r,) + (0.0,) * (params.dim - 1)
    outcomes, joined = run_trials(
        replace(params, extra_points=(probe,)), model, master_seed, eval_key, trials, workers,
        stop_joined=True,
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
