"""Shared helpers for the test suite: tolerances, histogram tests, re-judging,
a counting kernel and a memory-bounded child process."""

from __future__ import annotations

import math
import multiprocessing
import resource
import sys
from collections import Counter
from typing import Callable, Iterable, Sequence

import numpy as np
import pytest
from scipy import stats

from rcmperc import ClusterOutcome, ball_volume, place_candidates
from rcmperc.kernel import lib as KERNEL


def round_sig(x: float, digits: int = 5) -> float:
    """Round to the given number of significant digits."""
    if x == 0.0:
        return 0.0
    return round(x, -int(math.floor(math.log10(abs(x)))) + digits - 1)


def assert_matches_reference(value: float, reference: float, digits: int = 5) -> None:
    """value, rounded to `digits` significant digits, equals the reference."""
    got = round_sig(value, digits)
    assert got == reference, f"{value!r} rounds to {got!r}, reference is {reference!r}"


def as_outcomes(batch: tuple[np.ndarray, np.ndarray]) -> list[ClusterOutcome]:
    """A `run_trials` batch, its records and joined flags, as serial outcomes."""
    outcomes, joined = batch
    return [ClusterOutcome.from_record(r, j) for r, j in zip(outcomes, joined)]


def ball_intake(
    rng: np.random.Generator,
    center: tuple[float, ...],
    radius: float,
    covered: Sequence[tuple[float, ...]],
    gamma: float,
    dim: int,
) -> list[tuple[float, ...]]:
    """The exploration's intake of one ball: a Poisson count of mean
    gamma * |B(center, radius)|, then that many placements, thinned
    against balls of the same radius around the `covered` centres."""
    return place_candidates(
        rng, center, radius, covered, dim, int(rng.poisson(gamma * ball_volume(dim, radius)))
    )


def ball_points(
    rng: np.random.Generator, center: tuple[float, ...], radius: float, dim: int, n: int
) -> list[tuple[float, ...]]:
    """n points uniform in the closed ball B(center, radius): n placements of one
    candidate each, with nothing covered. One call for all n would thin every
    candidate against the kept ones, which takes time quadratic in n."""
    return [place_candidates(rng, center, radius, (), dim, 1)[0] for _ in range(n)]


def pooled_histogram(
    samples_a: Sequence[int], samples_b: Sequence[int], min_expected: float = 5.0
) -> tuple[list[int], list[int]]:
    """Two aligned count vectors over pooled categories.

    Categories are integer outcomes; adjacent sparse categories are merged
    (from the tail downward) until every category's expected count under
    the pooled distribution is at least min_expected in both samples.
    """
    ca, cb = Counter(samples_a), Counter(samples_b)
    keys = sorted(set(ca) | set(cb))
    na, nb = len(samples_a), len(samples_b)
    bins: list[tuple[int, int]] = []
    acc_a = acc_b = 0
    start = None
    for k in keys:
        if start is None:
            start = k
        acc_a += ca.get(k, 0)
        acc_b += cb.get(k, 0)
        pooled = (acc_a + acc_b) / (na + nb)
        if min(na, nb) * pooled >= min_expected:
            bins.append((acc_a, acc_b))
            acc_a = acc_b = 0
            start = None
    if start is not None:
        if bins:
            last_a, last_b = bins.pop()
            bins.append((last_a + acc_a, last_b + acc_b))
        else:
            bins.append((acc_a, acc_b))
    return [a for a, _ in bins], [b for _, b in bins]


def two_sample_pvalue(samples_a: Sequence[int], samples_b: Sequence[int]) -> float:
    """Chi-square contingency p-value that two integer samples share a law."""
    ha, hb = pooled_histogram(samples_a, samples_b)
    if len(ha) < 2:
        return 1.0
    table = np.array([ha, hb])
    table = table[:, table.sum(axis=0) > 0]
    _, p, _, _ = stats.chi2_contingency(table)
    return float(p)


def poisson_gof_pvalue(samples: Sequence[int], mean: float, min_expected: float = 5.0) -> float:
    """Chi-square goodness-of-fit p-value of integer samples against Poisson(mean)."""
    n = len(samples)
    counts = Counter(samples)
    hi = max(counts)
    ks = list(range(0, hi + 1))
    expected = [n * stats.poisson.pmf(k, mean) for k in ks]
    expected.append(n * float(stats.poisson.sf(hi, mean)))
    observed = [counts.get(k, 0) for k in ks] + [0]
    # merge bins until every expected count clears the floor
    obs_b: list[float] = []
    exp_b: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            obs_b.append(acc_o)
            exp_b.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0 and exp_b:
        obs_b[-1] += acc_o
        exp_b[-1] += acc_e
    if len(obs_b) < 2:
        return 1.0
    stat, p = stats.chisquare(obs_b, f_exp=np.array(exp_b) * (sum(obs_b) / sum(exp_b)))
    return float(p)


def majority_rule(check: Callable[[int], bool], primary_seed: int, retry_seeds: Iterable[int]) -> None:
    """Statistical flake policy: re-judge a failing check on fresh seeds.

    check(seed) runs the statistical test and returns True on agreement
    with expectation. If the primary seed passes, done. Otherwise the
    check is re-judged on the retry seeds and must pass at least 2 of 3;
    the failing seed is recorded either way.
    """
    if check(primary_seed):
        return
    print(f"statistical check failed on primary seed {primary_seed}; re-judging", file=sys.stderr)
    retries = list(retry_seeds)
    assert len(retries) == 3, "majority rule re-judges on exactly 3 seeds"
    verdicts = []
    for seed in retries:
        ok = check(seed)
        verdicts.append(ok)
        if not ok:
            print(f"statistical check failed on retry seed {seed}", file=sys.stderr)
    passed = sum(verdicts)
    assert passed >= 2, (
        f"statistical check failed on primary seed {primary_seed} and on "
        f"{3 - passed} of 3 retry seeds {retries}"
    )


def assert_bracket_invariants(estimate) -> None:
    """Structural checks every critical-intensity estimate must satisfy."""
    assert estimate.lower < estimate.upper
    assert estimate.midpoint == (estimate.lower + estimate.upper) / 2.0
    ramp = [v for v in estimate.history if v.step_kind == "ramp"]
    refines = [v for v in estimate.history if v.step_kind == "refine"]
    assert ramp, "search always runs at least one ramp verdict"
    assert ramp[-1].percolates
    for v in ramp[:-1]:
        assert not v.percolates
    assert len(refines) == estimate.refinements
    first_test_percolated = any("lower bracket endpoint was not tested" in w for w in estimate.warnings)
    lower_verdicts = [v for v in estimate.history if v.gamma == estimate.lower]
    upper_verdicts = [v for v in estimate.history if v.gamma == estimate.upper]
    assert upper_verdicts and upper_verdicts[-1].percolates
    if not first_test_percolated:
        assert lower_verdicts and not lower_verdicts[-1].percolates
    # width is maintained by exact halving of the post-ramp bracket
    if len(ramp) >= 2:
        post_ramp = ramp[-1].gamma - ramp[-2].gamma
        assert estimate.width == post_ramp / 2.0**estimate.refinements


class CountingKernel:
    """The kernel library, with each rcm_run_batch call recorded as
    (threads, rows returned)."""

    def __init__(self, calls: list):
        self._calls = calls

    def __getattr__(self, name):
        return getattr(KERNEL, name)

    def rcm_run_batch(self, entropy, n_words, n_trials, threads, *args):
        rows = KERNEL.rcm_run_batch(entropy, n_words, n_trials, threads, *args)
        self._calls.append((threads, rows))
        return rows


def in_bounded_child(fn, seconds: float = 60.0, extra_bytes: int = 1 << 30):
    """fn() in a forked child that may run `seconds` and map `extra_bytes`
    more than it started with. A runaway kernel then fails the test with a
    MemoryError or a timeout instead of exhausting the machine's memory."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def child():
        with open("/proc/self/statm") as f:
            mapped = int(f.read().split()[0]) * resource.getpagesize()
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = mapped + extra_bytes
        if hard != resource.RLIM_INFINITY:
            soft = min(soft, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        try:
            send.send((True, fn()))
        except BaseException as exc:
            send.send((False, repr(exc)))

    proc = ctx.Process(target=child)
    proc.start()
    try:
        if not recv.poll(seconds):
            pytest.fail(f"the child did not finish within {seconds} s")
        ok, value = recv.recv()
    finally:
        proc.kill()
        proc.join()
    assert ok, value
    return value
