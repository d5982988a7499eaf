from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rcmperc import (
    Gilbert,
    PenetrableSphere,
    SimParams,
    ball_volume,
    branching_bound,
    constant_g_certificate,
    estimate_pair_connectedness,
    explore_cluster,
    percolation_verdict,
    stream,
    trial_stream,
    wilson_interval,
)

from rcmperc import exploration
from rcmperc.exploration import run_trials
from rcmperc.sampling import trial_entropy

from brute_force import brute_force_trial
from support import CountingKernel, as_outcomes, in_bounded_child, majority_rule, two_sample_pvalue

GILBERT = Gilbert(radius=2.0)


def run(dim=2, gamma=0.1, system_size=50.0, seed=0, trial=0, **kw):
    params = SimParams(dim=dim, gamma=gamma, system_size=system_size, **kw)
    return explore_cluster(params, GILBERT, trial_stream(seed, 0, trial))


class TestSimParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimParams(dim=0, gamma=0.1, system_size=10.0)
        with pytest.raises(ValueError):
            SimParams(dim=2, gamma=-0.1, system_size=10.0)
        with pytest.raises(ValueError):
            SimParams(dim=2, gamma=0.1, system_size=0.0)
        with pytest.raises(ValueError):
            SimParams(dim=2, gamma=math.nan, system_size=10.0)
        with pytest.raises(ValueError):
            SimParams(dim=2, gamma=0.1, system_size=10.0, max_steps=0)
        with pytest.raises(ValueError):
            SimParams(dim=2, gamma=0.1, system_size=10.0, extra_points=((1.0,),))
        with pytest.raises(ValueError):
            SimParams(
                dim=2, gamma=0.1, system_size=10.0, extra_points=((math.inf, 0.0),)
            )

    def test_system_size_must_exceed_range(self):
        params = SimParams(dim=2, gamma=0.1, system_size=1.5)
        with pytest.raises(ValueError, match="system size"):
            explore_cluster(params, GILBERT, stream(1))


class TestExploreCluster:
    def test_zero_intensity_origin_only(self):
        out = run(gamma=0.0, seed=7)
        assert out.escaped is False
        assert out.cluster_size == 1
        assert out.generated_points == 0
        assert out.steps == 1
        assert out.max_norm == 0.0
        assert out.capped is False
        assert out.extras_in_cluster == ()

    def test_contained_invariants(self):
        seen_contained = 0
        for t in range(60):
            out = run(gamma=0.15, system_size=30.0, seed=101, trial=t)
            if out.escaped or out.capped:
                continue
            seen_contained += 1
            # every frontier point was processed, one step each
            assert out.steps == out.cluster_size
            assert out.max_norm <= 30.0
            assert out.cluster_size >= 1
            assert out.generated_points >= out.cluster_size - 1
        assert seen_contained > 30

    def test_escaped_invariants(self):
        seen_escaped = 0
        for t in range(40):
            out = run(gamma=0.6, system_size=12.0, seed=102, trial=t)
            if not out.escaped:
                continue
            seen_escaped += 1
            assert out.max_norm > 12.0
            assert not out.capped
            # the escapee joined the cluster but was never expanded
            assert out.steps < out.cluster_size
        assert seen_escaped > 30

    def test_step_cap(self):
        out = run(gamma=0.6, system_size=200.0, seed=103, max_steps=5)
        assert out.capped is True
        assert out.escaped is False
        assert out.steps == 5

    def test_generated_cap(self):
        out = run(gamma=0.6, system_size=200.0, seed=104, max_generated_points=37)
        assert out.capped is True
        assert out.generated_points <= 37

    def test_huge_intensity_stays_bounded(self):
        # the candidate budget must hold even when the per-ball Poisson
        # mean dwarfs it
        out = run(gamma=1e9, system_size=30.0, seed=109, max_generated_points=10_000)
        assert out.capped is True
        assert not out.escaped
        assert out.generated_points <= 10_000

    def test_caps_do_not_fire_when_roomy(self):
        out = run(gamma=0.3, system_size=8.0, seed=105, max_steps=10**6)
        assert out.capped is False

    def test_determinism(self):
        a = run(gamma=0.4, system_size=25.0, seed=106, trial=3)
        b = run(gamma=0.4, system_size=25.0, seed=106, trial=3)
        assert a == b
        c = run(gamma=0.4, system_size=25.0, seed=106, trial=4)
        assert a != c

    def test_each_pair_tested_once(self):
        # the kernel logs every connection test as (frontier id, tested id);
        # no unordered pair of points is tested twice in one run
        tested = 0

        def check(params, model, rng):
            nonlocal tested
            pairs: list[tuple[int, int]] = []
            exploration._explore(params, model, rng, pair_log=pairs)
            seen: set[tuple[int, int]] = set()
            for i, j in pairs:
                key = (i, j) if i < j else (j, i)
                assert key not in seen, f"pair {key} tested twice"
                seen.add(key)
            tested += len(pairs)

        for t in range(300):
            params = SimParams(dim=2, gamma=0.45, system_size=15.0)
            check(params, GILBERT, trial_stream(107, 0, t))
        for t in range(100):
            params = SimParams(
                dim=3, gamma=0.05, system_size=8.0,
                extra_points=((1.0, 0.0, 0.0), (0.0, 3.0, 0.0)),
            )
            check(params, PenetrableSphere(radius=2.0, prob=0.6), trial_stream(108, 0, t))
        assert tested > 10_000

    def test_pair_log_leaves_the_outcome_unchanged(self):
        params = SimParams(dim=2, gamma=0.45, system_size=15.0, extra_points=((1.0, 0.5),))
        for t in range(20):
            rng = trial_stream(109, 0, t)
            logged = exploration._explore(params, GILBERT, rng, pair_log=[])
            after = rng.random()
            rng = trial_stream(109, 0, t)
            assert explore_cluster(params, GILBERT, rng) == logged
            assert rng.random() == after

    def test_extras_reported_in_order(self):
        # a forced neighbour at distance 1 always joins under Gilbert;
        # a point far outside the window never does at gamma 0
        params = SimParams(
            dim=2, gamma=0.0, system_size=50.0,
            extra_points=((1.0, 0.0), (40.0, 0.0)),
        )
        out = explore_cluster(params, GILBERT, stream(1))
        assert out.extras_in_cluster == (True, False)
        assert out.cluster_size == 2

    def test_frontier_ties_go_to_the_smaller_id(self):
        # points 1 and 2 join at distance 1 from the origin, 3 and 4 at 2.5,
        # and 3 lies within range of 1 only, 4 of 2 only: of two frontier
        # points at equal distance the smaller id is processed first
        params = SimParams(
            dim=2, gamma=0.0, system_size=50.0,
            extra_points=((1.0, 0.0), (0.0, 1.0), (2.5, 0.0), (0.0, 2.5)),
        )
        pairs: list[tuple[int, int]] = []
        out = exploration._explore(params, GILBERT, stream(1), pair_log=pairs)
        assert pairs == [(0, 1), (0, 2), (1, 3), (2, 4)]
        assert out.cluster_size == 5


class TestRunTrials:
    # first escapes at trial 0, at trial 10, at trial 31 and at trial 33
    # (with later escapes after it, which other threads may reach first),
    # and at trial 7 with two extra points and capped trials
    @pytest.mark.parametrize(
        "params,seed",
        [
            pytest.param(SimParams(2, 0.3, 25.0), 6, id="25.0-6"),
            pytest.param(SimParams(2, 0.3, 25.0), 11, id="25.0-11"),
            pytest.param(SimParams(2, 0.3, 40.0), 11, id="40.0-11"),
            pytest.param(SimParams(2, 0.3, 60.0), 6, id="60.0-6"),
            pytest.param(SimParams(2, 0.3, 12.0, extra_points=((1.0, 0.5), (6.0, 0.0)),
                                   max_generated_points=60), 0, id="12.0-0-extras"),
        ],
    )
    def test_ranges_match_serial_order(self, params, seed, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        serial = [
            explore_cluster(params, GILBERT, trial_stream(seed, 0, t)) for t in range(61)
        ]
        first = next(t for t, o in enumerate(serial) if o.escaped)
        for workers in (1, 2, 3):
            batch = run_trials(params, GILBERT, seed, 0, 61, workers)
            assert as_outcomes(batch) == serial
            stopped = run_trials(params, GILBERT, seed, 0, 61, workers, stop_at_escape=True)
            assert as_outcomes(stopped) == serial[: first + 1]

    def test_one_kernel_call_per_thread(self, monkeypatch):
        # at 4 cores a batch is one kernel call that runs one share per
        # worker, in threads the kernel starts itself; gamma 0 never
        # escapes, so every trial runs and every row is kept in both modes
        calls: list[tuple[int, int]] = []
        monkeypatch.setattr(exploration, "lib", CountingKernel(calls))
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        params = SimParams(dim=2, gamma=0.0, system_size=10.0)
        serial = [explore_cluster(params, GILBERT, trial_stream(5, 0, t)) for t in range(200)]
        for workers, n in ((1, 61), (2, 61), (3, 61), (2, 200)):
            for stop in (False, True):
                calls.clear()
                batch = run_trials(params, GILBERT, 5, 0, n, workers, stop)
                assert as_outcomes(batch) == serial[:n]
                assert calls == [(workers, n)]

    def test_no_more_threads_than_cores(self, monkeypatch):
        # 10,000 workers ask the kernel for one thread per core
        calls: list[tuple[int, int]] = []
        monkeypatch.setattr(exploration, "lib", CountingKernel(calls))
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        params = SimParams(dim=2, gamma=0.0, system_size=10.0)
        serial = [explore_cluster(params, GILBERT, trial_stream(5, 0, t)) for t in range(61)]
        batch = run_trials(params, GILBERT, 5, 0, 61, 10_000)
        assert as_outcomes(batch) == serial
        assert calls == [(4, 61)]

    def test_shared_first_escape_index(self):
        # seed 6 at this size first escapes at trial 33, and again at 37;
        # the kernel entry runs here with preset shared counters
        params = SimParams(dim=2, gamma=0.3, system_size=60.0)
        serial = [
            explore_cluster(params, GILBERT, trial_stream(6, 0, t)) for t in range(45)
        ]
        entropy = trial_entropy(6, 0)
        ffi, lib = exploration.ffi, exploration.lib
        model, c_params = exploration._kernel_args(params, GILBERT)
        outcomes, joined = exploration._batch_arrays(45, 0)
        outs = ffi.from_buffer("rcm_outcome[]", outcomes)
        no_extras = ffi.from_buffer("uint8_t[]", joined)
        next_trial = ffi.new("int64_t *")
        first_escape = ffi.new("int64_t *")

        def run(start: int, index: int) -> int:
            next_trial[0] = start
            first_escape[0] = index
            return lib.rcm_run_trials(entropy, len(entropy), 45, next_trial, first_escape,
                                      model, c_params, outs, no_extras)

        def matches(start: int, end: int) -> bool:
            return as_outcomes((outcomes[start:end], joined[start:end])) == serial[start:end]

        # no trial above a preset index starts, and its slot stays empty
        assert run(20, 32) == 13
        assert matches(20, 33)
        assert first_escape[0] == 32 and outcomes["steps"][33] == 0
        # an escaping trial lowers the index; the trials after it do not start
        assert run(30, 45) == 4
        assert matches(30, 34)
        assert first_escape[0] == 33 and outcomes["steps"][34] == 0
        # earlier trials still run in full, later ones not at all
        assert run(0, 33) == 34
        assert matches(0, 34)
        assert run(34, 33) == 0
        assert first_escape[0] == 33 and outcomes["steps"][34] == 0
        # without an index every trial runs, escaping or not, until the
        # counter passes the batch
        next_trial[0] = 45
        assert lib.rcm_run_trials(entropy, len(entropy), 45, next_trial, ffi.NULL,
                                  model, c_params, outs, no_extras) == 0
        next_trial[0] = 0
        assert lib.rcm_run_trials(entropy, len(entropy), 45, next_trial, ffi.NULL,
                                  model, c_params, outs, no_extras) == 45
        assert matches(0, 45)

    def test_serial_batch_starts_no_trial_past_its_first_escape(self, monkeypatch):
        calls: list[tuple[int, int]] = []
        monkeypatch.setattr(exploration, "lib", CountingKernel(calls))
        # seed 1 at this size first escapes at trial 76
        params = SimParams(dim=2, gamma=0.25, system_size=40.0)
        serial = [explore_cluster(params, GILBERT, trial_stream(1, 0, t)) for t in range(77)]
        assert serial[-1].escaped and not any(o.escaped for o in serial[:-1])
        batch = run_trials(params, GILBERT, 1, 0, 300, stop_at_escape=True)
        assert as_outcomes(batch) == serial
        assert calls == [(1, 77)]
        # the rows cut off past the first escape were never written: no
        # trial after it started
        assert not batch[0].base["steps"][77:].any()

    def test_negative_seed_or_key_fails_before_the_kernel(self, monkeypatch):
        calls: list[tuple[int, int]] = []
        monkeypatch.setattr(exploration, "lib", CountingKernel(calls))
        params = SimParams(dim=2, gamma=0.0, system_size=10.0)
        with pytest.raises(ValueError, match=r"^master seed must be non-negative, got -1$"):
            run_trials(params, GILBERT, -1, 0, 10)
        with pytest.raises(ValueError, match=r"^stream key entries must be non-negative"):
            run_trials(params, GILBERT, 5, -2, 10)
        assert calls == []


class TestWorkspaceReuse:
    """A kernel call reuses one workspace for all its trials; no trial may see it."""

    # Penetrable spheres with p = 0.0125 and 200 candidates per ball. At
    # these seeds trials 0 and 1 are one escape and one capped run, and
    # trials 2-4 take at most 3 steps each.
    @pytest.mark.parametrize(
        "dim, radius, system_size, max_steps, seed",
        [(1, 0.5, 17.0, 100, 824), (2, 2.0, 28.0, 50, 1984), (5, 2.0, 24.0, 50, 6873)],
    )
    def test_large_then_tiny_trials_match_serial_runs(
        self, monkeypatch, dim, radius, system_size, max_steps, seed
    ):
        calls: list[tuple[int, int]] = []
        monkeypatch.setattr(exploration, "lib", CountingKernel(calls))
        model = PenetrableSphere(radius, 0.0125)
        extras = ((1.0,) + (0.0,) * (dim - 1), (-1.5,) + (0.5,) * (dim - 1))
        params = SimParams(dim, 200.0 / ball_volume(dim, radius), system_size,
                           extra_points=extras, max_steps=max_steps)
        # a grid that kept stale cells could chain its points into a cycle
        # and collect without end, so the batch runs in a bounded child
        batch, calls = in_bounded_child(lambda: (run_trials(params, model, seed, 0, 5), calls))
        assert calls == [(1, 5)]
        serial = [explore_cluster(params, model, trial_stream(seed, 0, t)) for t in range(5)]
        assert as_outcomes(batch) == serial
        # the large trials take the point arrays, the frontier heap and the
        # query results well past their first 64 entries (and the cells in
        # use past the first table's 32) before the tiny ones run
        large, tiny = serial[:2], serial[2:]
        assert {(o.escaped, o.capped) for o in large} == {(True, False), (False, True)}
        assert min(o.generated_points for o in large) > 1000
        assert max(o.cluster_size - o.steps for o in large) > 64
        assert min(_most_retests(params, model, trial_stream(seed, 0, t)) for t in (0, 1)) > 128
        assert max(o.steps for o in tiny) <= 3


def _most_retests(params: SimParams, model, rng) -> int:
    """The most unattached points one frontier point tested in step (a)."""
    log: list[tuple[int, int]] = []
    exploration._explore(params, model, rng, log)
    known, most = 1 + len(params.extra_points), 0
    # a step tests the known points it retests, ascending, then every point it kept
    for _, step in itertools.groupby(log, key=lambda pair: pair[0]):
        ids = [j for _, j in step]
        retests = sum(j < known for j in ids)
        most = max(most, retests)
        known += len(ids) - retests
    return most


class TestEscapeMonotone:
    def test_escape_probability_increases_with_gamma(self):
        # full runs so escape counts are binomial with fixed n
        grid = [0.15, 0.25, 0.35, 0.45]
        n = 3_000
        params = SimParams(dim=2, gamma=grid[0], system_size=30.0)
        rates = []
        for i, g in enumerate(grid):
            v = percolation_verdict(
                params, GILBERT, g, runs=n, master_seed=2025, eval_key=i,
                full_runs=True,
            )
            assert v.runs == n
            rates.append(v.escapes / n)
        for lo, hi in zip(rates, rates[1:]):
            se = math.sqrt((lo * (1 - lo) + hi * (1 - hi)) / n) or 1.0 / n
            assert hi - lo > -3.0 * se, (rates,)
        # and the growth is real end to end
        assert rates[-1] - rates[0] > 0.2


class TestMeanClusterBound:
    def test_subcritical_mean_below_certificate(self):
        # at q = 1/2 the certificate gives mean size <= 2
        gamma = 0.5 * branching_bound(GILBERT, 2)
        cert = constant_g_certificate(GILBERT, 2, gamma)
        assert cert.mean_cluster_size_bound == pytest.approx(2.0, rel=1e-12)
        params = SimParams(dim=2, gamma=gamma, system_size=100.0)
        n = 3_000
        sizes = []
        for t in range(n):
            out = explore_cluster(params, GILBERT, trial_stream(2026, 0, t))
            assert not out.escaped and not out.capped
            sizes.append(out.cluster_size)
        mean = sum(sizes) / n
        se = np.std(sizes, ddof=1) / math.sqrt(n)
        assert mean <= 2.0 + 3.0 * se


class TestOracleAgreement:
    def test_cluster_law_matches_brute_force(self):
        # lazy exploration vs full-window adjacency sampling, one gamma
        def check(seed: int) -> bool:
            n = 4_000
            params = SimParams(dim=2, gamma=0.05, system_size=6.0)
            fast = []
            for t in range(n):
                out = explore_cluster(params, GILBERT, trial_stream(seed, 0, t))
                fast.append(-1 if out.escaped else out.cluster_size)
            gen = np.random.default_rng(seed + 1)
            slow = []
            for _ in range(n):
                escaped, size, _ = brute_force_trial(gen, GILBERT, 2, 0.05, 6.0)
                slow.append(-1 if escaped else size)
            return two_sample_pvalue(fast, slow) > 0.01

        majority_rule(check, primary_seed=31, retry_seeds=(32, 33, 34))


class TestWilsonInterval:
    def test_known_value(self):
        lo, hi = wilson_interval(8, 10)
        assert 0.0 <= lo < 0.8 < hi <= 1.0
        # symmetric at one half
        lo2, hi2 = wilson_interval(5, 10)
        assert lo2 == pytest.approx(1.0 - hi2, abs=1e-12)

    def test_edge_counts(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0.0 < hi < 0.2
        lo, hi = wilson_interval(50, 50)
        assert hi == pytest.approx(1.0, abs=1e-12)
        assert 0.8 < lo < 1.0
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestPairConnectedness:
    def test_zero_gamma_within_range_certain(self):
        params = SimParams(dim=2, gamma=0.0, system_size=50.0)
        est = estimate_pair_connectedness(
            params, GILBERT, r=1.5, trials=200, master_seed=41
        )
        assert est.tau_hat == 1.0
        assert est.positives == est.resolved == 200
        assert est.excluded_capped == est.excluded_escaped == 0

    def test_zero_gamma_beyond_range_impossible(self):
        params = SimParams(dim=2, gamma=0.0, system_size=50.0)
        est = estimate_pair_connectedness(
            params, GILBERT, r=2.5, trials=200, master_seed=42
        )
        assert est.tau_hat == 0.0
        assert est.positives == 0

    def test_zero_gamma_penetrable_frequency(self):
        model = PenetrableSphere(radius=2.0, prob=0.75)
        params = SimParams(dim=2, gamma=0.0, system_size=50.0)
        n = 10_000
        est = estimate_pair_connectedness(
            params, model, r=1.5, trials=n, master_seed=43
        )
        sigma = math.sqrt(0.75 * 0.25 / n)
        assert abs(est.tau_hat - 0.75) <= 3.0 * sigma
        assert est.ci_low < 0.75 < est.ci_high

    def test_matches_brute_force_probe(self):
        def check(seed: int) -> bool:
            r, gamma, ssize, n = 3.0, 0.05, 6.0, 4_000
            params = SimParams(dim=2, gamma=gamma, system_size=ssize)
            est = estimate_pair_connectedness(
                params, GILBERT, r=r, trials=n, master_seed=seed
            )
            gen = np.random.default_rng(seed + 1)
            hits = trials = 0
            for _ in range(n):
                escaped, _, probe_in = brute_force_trial(
                    gen, GILBERT, 2, gamma, ssize, probe=(r, 0.0)
                )
                if escaped:
                    continue
                trials += 1
                hits += probe_in
            p1, p2 = est.tau_hat, hits / trials
            pool = (est.positives + hits) / (est.resolved + trials)
            se = math.sqrt(pool * (1 - pool) * (1 / est.resolved + 1 / trials))
            return abs(p1 - p2) <= 3.0 * se

        majority_rule(check, primary_seed=44, retry_seeds=(45, 46, 47))

    def test_tau_beyond_range_sandwiched(self):
        # r = 3 rules out a direct edge; one bridging point landing in
        # the lens of the two range discs already connects the pair, so
        # 1 - exp(-gamma * lens) bounds tau from below
        gamma = 0.5 * branching_bound(GILBERT, 2)
        params = SimParams(dim=2, gamma=gamma, system_size=60.0)
        n = 6_000
        est = estimate_pair_connectedness(
            params, GILBERT, r=3.0, trials=n, master_seed=48
        )
        lens = 8.0 * math.acos(0.75) - 1.5 * math.sqrt(7.0)
        floor = -math.expm1(-gamma * lens)
        se = math.sqrt(floor * (1.0 - floor) / n)
        assert est.tau_hat >= floor - 3.0 * se
        assert est.tau_hat < 0.5  # far from certain at expected degree 1/2

    def test_tau_decreases_with_distance(self):
        gamma = 0.5 * branching_bound(GILBERT, 2)
        params = SimParams(dim=2, gamma=gamma, system_size=60.0)
        near = estimate_pair_connectedness(
            params, GILBERT, r=2.5, trials=4_000, master_seed=51
        )
        far = estimate_pair_connectedness(
            params, GILBERT, r=4.0, trials=4_000, master_seed=52, eval_key=1
        )
        # the gap dwarfs 3 sigma at these sample sizes
        assert near.tau_hat - far.tau_hat > 0.05
        assert near.ci_low > far.ci_high

    def test_joined_probe_counts_before_cap_and_escape(self):
        # under a 60-point cap these trials end joined or not, escaped or
        # not, capped or not, in all eight combinations: a joined probe is
        # a positive, else a capped trial is excluded before an escaped one
        params = SimParams(dim=2, gamma=0.3, system_size=12.0, max_generated_points=60)
        probed = replace(params, extra_points=((6.0, 0.0),))
        serial = [
            explore_cluster(probed, GILBERT, trial_stream(1729, 0, t)) for t in range(300)
        ]
        kinds = Counter((o.extras_in_cluster[0], o.escaped, o.capped) for o in serial)
        assert len(kinds) == 8
        est = estimate_pair_connectedness(params, GILBERT, r=6.0, trials=300, master_seed=1729)
        counts = (est.positives, est.excluded_capped, est.excluded_escaped)
        assert counts == (
            sum(n for (joined, _, _), n in kinds.items() if joined),
            sum(n for (joined, _, capped), n in kinds.items() if capped and not joined),
            kinds[False, True, False],
        ) == (51, 98, 87)
        assert all(type(c) is int for c in counts)

    def test_r_validation(self):
        params = SimParams(dim=2, gamma=0.1, system_size=10.0)
        for bad in (0.0, -1.0, 20.0, math.inf):
            with pytest.raises(ValueError):
                estimate_pair_connectedness(
                    params, GILBERT, r=bad, trials=10, master_seed=1
                )

    def test_exclusion_warning_flag(self):
        # high gamma, small window: most runs escape before resolving
        params = SimParams(dim=2, gamma=0.6, system_size=4.0)
        est = estimate_pair_connectedness(
            params, GILBERT, r=3.0, trials=300, master_seed=49
        )
        assert est.excluded_escaped > 3
        assert est.exclusion_warning is True
        assert est.resolved + est.excluded_escaped + est.excluded_capped == 300

    def test_to_dict_round_trip(self):
        params = SimParams(dim=2, gamma=0.05, system_size=20.0)
        est = estimate_pair_connectedness(
            params, GILBERT, r=1.0, trials=50, master_seed=50
        )
        d = est.to_dict()
        assert d["tau_hat"] == est.tau_hat
        assert d["r"] == 1.0
        assert set(d) >= {
            "r", "gamma", "trials", "positives", "resolved", "tau_hat",
            "ci_low", "ci_high",
        }
