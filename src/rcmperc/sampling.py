"""Seeded random sampling primitives.

Reproducibility contract: every stochastic routine draws from a numpy
`Generator` made by `stream(master_seed, *key)`: PCG64 seeded from the
master seed and an integer key. Equal (seed, key) pairs always produce
identical draw sequences, and distinct keys give statistically
independent streams, so trials can be dispatched in any order (or across
threads) without changing results. A batch of trials builds no
Generator: the kernel seeds trial t's PCG64 itself, with numpy's
SeedSequence and PCG64 seeding ported to C, from `trial_entropy` and the
words of t, so it draws exactly the stream of `trial_stream`.

Draw order is part of the interface. The intake of a ball is one
`Generator.poisson` count, then `place_candidates`, one placement per
candidate point in order. A placement consumes one standard-normal
vector (the direction) followed by one uniform (the radius); a candidate
is rejected when a covered ball centre lies within the ball radius of
it, and rejection consumes no randomness. Placement runs in the compiled
kernel (`rcmperc.kernel`), which draws through the Generator's own bit
generator with the functions numpy's Generator calls
(`random_standard_normal_fill`, `next_double`, `random_poisson`), so a
kernel draw and a numpy draw of the same kind consume the same stream.

Float contract: the direction's length, like every distance and norm on
the simulation path, is the square root of the squares summed in
coordinate order (see `rcmperc.geometry`), never `math.hypot`,
`math.dist` or `sum()`, whose roundings differ. A point is
`center + (radius * U^(1/d) / length) * g`, coordinate by coordinate,
with one rounding per operation and no fused multiply-add. Two points at
such a distance r within range are joined by their uniform u exactly
when u <= phi(r).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .kernel import bitgen, ffi, lib

__all__ = [
    "DEFAULT_SEED",
    "stream",
    "trial_stream",
    "derive_seed",
    "place_candidates",
]

# Default master seed for CLI runs when none is given. A fixed constant,
# never wall clock, so bare invocations are reproducible.
DEFAULT_SEED = 1729


def _entropy(master_seed: int, key: tuple[int, ...]) -> list[int]:
    """The seed material (master_seed, len(key), *key), checked to be non-negative."""
    master_seed = int(master_seed)
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    k = tuple(int(v) for v in key)
    if any(v < 0 for v in k):
        raise ValueError(f"stream key entries must be non-negative, got {k}")
    # The key length is part of the seed material: SeedSequence zero-pads
    # short entropy lists, so without it key (e,) would alias (e, 0).
    return [master_seed, len(k), *k]


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """The generator keyed by (master_seed, *key).

    PCG64 is seeded from the integer sequence (master_seed, len(key),
    *key), so the same pair always reproduces the same draws and distinct
    keys, including keys of different lengths, are independent.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(master_seed, key))))


def trial_stream(master_seed: int, eval_index: int, trial_index: int) -> np.random.Generator:
    """The stream assigned to one trial of one evaluation.

    Standalone commands use eval_index 0; the critical-intensity search
    numbers its verdict evaluations 0, 1, 2, ... so every trial anywhere
    in a run has its own independent stream.
    """
    return stream(master_seed, eval_index, trial_index)


def trial_entropy(master_seed: int, eval_index: int) -> list[int]:
    """The 32-bit words of (master_seed, 2, eval_index), which start the entropy of
    every trial_stream(master_seed, eval_index, t); the kernel appends the words of t.

    Values are coerced as SeedSequence coerces Python ints: low word first, 0 as one word.
    """
    return [v >> s & 0xFFFFFFFF for v in _entropy(master_seed, (eval_index, 0))[:-1]
            for s in range(0, max(v.bit_length(), 1), 32)]


def derive_seed(master_seed: int, *key: int) -> int:
    """A fresh 64-bit master seed derived deterministically from (master_seed, *key).

    Used when one command runs several independent searches (e.g. one per
    dimension): each gets its own derived master, so rows stay independent
    and running a subset reproduces the full run's rows exactly.
    """
    seq = np.random.SeedSequence(_entropy(master_seed, key))
    lo, hi = seq.generate_state(2, np.uint32)
    return int(lo) | (int(hi) << 32)


def place_candidates(
    rng: np.random.Generator,
    center: tuple[float, ...],
    radius: float,
    covered: Sequence[tuple[float, ...]],
    dim: int,
    count: int,
) -> list[tuple[float, ...]]:
    """Place `count` uniform candidates in the closed ball B(center, radius),
    thinning covered ones.

    A candidate's direction is a normalized Gaussian vector and its
    distance from the centre radius * U^(1/d). The `covered` points are
    centers of equal-radius balls whose interiors have already been
    exhausted; candidates falling within `radius` of any of them are
    discarded. With a Poisson `count` of mean gamma * |B(center, radius)|
    this realizes a Poisson process of intensity gamma on the uncovered
    part of the ball. The caller draws the count (the exploration clamps
    it to its remaining work budget before any point materializes). Each
    candidate consumes one placement draw whether or not it is kept.
    """
    if not isinstance(dim, int) or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"ball radius must be finite and positive, got {radius!r}")
    if count < 0:
        raise ValueError(f"candidate count must be non-negative, got {count!r}")
    for p in (center, *covered):
        if len(p) != dim:
            raise ValueError(f"point {p!r} has {len(p)} coordinates, expected {dim}")
    out = ffi.new("double[]", count * dim)
    with rng.bit_generator.lock:
        kept = lib.rcm_place(
            bitgen(rng), dim, center, radius, [c for p in covered for c in p],
            len(covered), count, out,
        )
    if kept < 0:
        raise MemoryError("the placement kernel ran out of memory")
    coords = ffi.unpack(out, kept * dim)
    return [tuple(coords[i : i + dim]) for i in range(0, kept * dim, dim)]
