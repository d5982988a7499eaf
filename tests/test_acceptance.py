"""Acceptance gate: one test per release criterion.

Each test pins its tolerances and budgets; the terminal summary prints
one PASS/FAIL line per criterion. These are the checks a release must
clear, so they favor breadth over speed and must never be weakened to
make a failure go away.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest

from rcmperc import (
    Gilbert,
    PenetrableSphere,
    SimParams,
    SoftSphere,
    branching_bound,
    estimate_critical,
    estimate_pair_connectedness,
    explore_cluster,
    stream,
    trial_stream,
)
from rcmperc.cli import run_cli
from rcmperc.reference import REFERENCE_TABLES

from brute_force import brute_force_trial
from support import (
    assert_bracket_invariants,
    ball_intake,
    ball_points,
    assert_matches_reference,
    majority_rule,
    poisson_gof_pvalue,
    round_sig,
    two_sample_pvalue,
)

GILBERT = Gilbert(radius=2.0)


def test_c1_branching_bounds_reproduce_reference_columns():
    # every branching value of the five reference tables, five
    # significant digits, under one second
    t0 = time.perf_counter()
    count = 0
    for table in REFERENCE_TABLES.values():
        for row in table.rows:
            assert_matches_reference(branching_bound(table.model, row.dim), row.branching_bound)
            count += 1
    elapsed = time.perf_counter() - t0
    assert count == 20
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c2_exploration_agrees_with_full_window_oracle():
    # lazy exploration vs direct full-window sampling: cluster size
    # histograms (escape pooled as its own class) must pass a two-sample
    # test at the 1% level for every intensity, 10^4 trials per side
    t0 = time.perf_counter()

    def outcome_samples(seed: int, gamma: float) -> tuple[list[int], list[int]]:
        n = 10_000
        params = SimParams(dim=2, gamma=gamma, system_size=6.0)
        fast = []
        for t in range(n):
            out = explore_cluster(params, GILBERT, trial_stream(seed, 0, t))
            assert not out.capped
            fast.append(-1 if out.escaped else out.cluster_size)
        gen = np.random.default_rng(seed + 1)
        slow = []
        for _ in range(n):
            escaped, size, _ = brute_force_trial(gen, GILBERT, 2, gamma, 6.0)
            slow.append(-1 if escaped else size)
        return fast, slow

    def check(seed: int) -> bool:
        return all(
            two_sample_pvalue(*outcome_samples(seed + i, gamma)) > 0.01
            for i, gamma in enumerate((0.02, 0.05, 0.1))
        )

    majority_rule(check, primary_seed=1001, retry_seeds=(1002, 1003, 1004))
    assert time.perf_counter() - t0 < 120.0


def test_c3_subcritical_mean_cluster_size_within_certificate():
    # expected degree one half: certified mean cluster size bound is 2
    gamma = 0.5 * branching_bound(GILBERT, 2)
    params = SimParams(dim=2, gamma=gamma, system_size=100.0)
    n = 10_000
    sizes = np.empty(n)
    for t in range(n):
        out = explore_cluster(params, GILBERT, trial_stream(1100, 0, t))
        assert not out.escaped and not out.capped
        sizes[t] = out.cluster_size
    mean = sizes.mean()
    se = sizes.std(ddof=1) / math.sqrt(n)
    assert mean <= 2.0 + 3.0 * se, f"mean {mean:.4f}, SE {se:.4f}"


def test_c4_desk_reproduction_of_gilbert_table(tmp_path):
    # the CLI reproduce command at desk scale, default seed, four
    # workers, must land inside wide windows around the full-scale
    # estimates: dimension 2 in [0.28, 0.40], dimension 3 in
    # [0.060, 0.095], within 30 minutes
    out_file = tmp_path / "reproduce.json"
    t0 = time.perf_counter()
    code = run_cli([
        "reproduce", "--table", "1", "--scale", "desk", "--dims", "2,3",
        "--threads", "4", "--output-file", str(out_file),
    ])
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(out_file.read_text())
    mids = {row["dim"]: row["midpoint"] for row in doc["rows"]}
    assert 0.28 <= mids[2] <= 0.40, f"dim 2 midpoint {mids[2]}"
    assert 0.060 <= mids[3] <= 0.095, f"dim 3 midpoint {mids[3]}"
    assert elapsed < 1800.0, f"took {elapsed:.0f}s"


def test_c5_bracket_mechanics_exact():
    # endpoints carry tested verdicts and the reported width halves
    # exactly per refinement
    for refinements, seed in ((0, 21), (2, 22), (5, 23)):
        params = SimParams(dim=2, gamma=0.0, system_size=20.0)
        est = estimate_critical(
            params, GILBERT, runs=60, master_seed=seed, refinements=refinements
        )
        assert_bracket_invariants(est)
        ramps = [v.gamma for v in est.history if v.step_kind == "ramp"]
        if len(ramps) >= 2:
            assert est.width == (ramps[-1] - ramps[-2]) / 2.0**refinements
    model = PenetrableSphere(radius=2.0, prob=0.5)
    params = SimParams(dim=3, gamma=0.0, system_size=12.0)
    est = estimate_critical(params, model, runs=50, master_seed=24)
    assert_bracket_invariants(est)


def test_c6_worker_count_leaves_output_bytes_unchanged(tmp_path):
    # same command, --threads 1 vs 8: byte-identical documents
    base = ["critical", "--dim", "2", "--system-size", "50", "--runs", "100",
            "--seed", "31"]
    docs = []
    for threads in ("1", "8"):
        path = tmp_path / f"critical-{threads}.json"
        code = run_cli(base + ["--threads", threads, "--output-file", str(path)])
        assert code == 0
        docs.append(path.read_bytes())
    assert docs[0] == docs[1]

    taus = []
    for threads in ("1", "8"):
        path = tmp_path / f"tau-{threads}.json"
        code = run_cli([
            "tau", "--gamma", "0.05", "--r", "3.0", "--trials", "2000",
            "--dim", "2", "--system-size", "30", "--seed", "32",
            "--threads", threads, "--output-file", str(path),
        ])
        assert code == 0
        taus.append(path.read_bytes())
    assert taus[0] == taus[1]


def test_c7_sampler_distributions_pass_statistical_suite():
    # Poisson counts, ball placement, and covered-region thinning all
    # behave like the distributions they claim; each sub-check is a 1%
    # significance test, judged by 3-seed majority rule
    def poisson_ok(seed: int) -> bool:
        rng = stream(seed)
        return poisson_gof_pvalue(rng.poisson(7.5, 40_000).tolist(), 7.5) > 0.01

    def radial_ok(seed: int) -> bool:
        rng = stream(seed)
        center = (0.0, 0.0, 0.0)
        n = 60_000
        inside = sum(math.hypot(*p) <= 1.0 for p in ball_points(rng, center, 2.0, 3, n))
        # P(|X| <= 1) = (1/2)^3
        sigma = math.sqrt(0.125 * 0.875 / n)
        return abs(inside / n - 0.125) <= 3.0 * sigma

    def thinning_ok(seed: int) -> bool:
        rng = stream(seed)
        origin = (0.0, 0.0)
        blocker = (2.0, 0.0)
        lens = 8.0 * math.pi / 3.0 - 2.0 * math.sqrt(3.0)
        want = 0.5 * (4.0 * math.pi - lens)
        n = 20_000
        total = sum(
            len(ball_intake(rng, origin, 2.0, (blocker,), 0.5, 2))
            for _ in range(n)
        )
        return abs(total / n - want) <= 3.0 * math.sqrt(want / n)

    for primary, check in ((1201, poisson_ok), (1202, radial_ok),
                           (1203, thinning_ok)):
        majority_rule(check, primary_seed=primary, retry_seeds=(1301, 1302, 1303))


def test_c8_two_point_function_sanity_at_zero_intensity():
    # with no generated points the probe connects directly or not at
    # all: tau must equal phi(r) within 3 sigma over 10^5 trials inside
    # the range, and exactly zero beyond it
    n = 100_000
    params = SimParams(dim=2, gamma=0.0, system_size=50.0)

    est = estimate_pair_connectedness(params, GILBERT, r=1.5, trials=n, master_seed=61)
    assert est.tau_hat == 1.0

    model = PenetrableSphere(radius=2.0, prob=0.75)
    est = estimate_pair_connectedness(params, model, r=1.5, trials=n, master_seed=62)
    sigma = math.sqrt(0.75 * 0.25 / n)
    assert abs(est.tau_hat - 0.75) <= 3.0 * sigma

    soft = SoftSphere(radius=2.0, hardness=6)
    phi = soft.phi_at(1.2)
    est = estimate_pair_connectedness(params, soft, r=1.2, trials=n, master_seed=63)
    sigma = math.sqrt(phi * (1.0 - phi) / n)
    assert abs(est.tau_hat - phi) <= 3.0 * sigma

    for model in (GILBERT, model, soft):
        est = estimate_pair_connectedness(
            params, model, r=2.5, trials=n, master_seed=64
        )
        assert est.tau_hat == 0.0
        assert est.positives == 0
