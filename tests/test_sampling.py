from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from rcmperc import (
    ball_volume,
    derive_seed,
    stream,
    trial_stream,
)

from support import ball_intake, ball_points, poisson_gof_pvalue

ORIGIN2 = (0.0, 0.0)


class TestStream:
    def test_same_key_same_draws(self):
        a = stream(99, 3, 7)
        b = stream(99, 3, 7)
        assert a.random(16).tolist() == b.random(16).tolist()

    def test_different_keys_differ(self):
        draws = {
            key: tuple(stream(99, *key).random(4).tolist())
            for key in [(), (0,), (1,), (0, 0), (0, 1), (1, 0)]
        }
        assert len(set(draws.values())) == len(draws)

    def test_trial_stream_key_layout(self):
        a = trial_stream(1729, 4, 17)
        b = stream(1729, 4, 17)
        assert a.random(8).tolist() == b.random(8).tolist()

    def test_validation(self):
        with pytest.raises(ValueError):
            stream(-1)
        with pytest.raises(ValueError):
            stream(3, 0, -2)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1729, 1, 2) == derive_seed(1729, 1, 2)

    def test_distinct_keys_distinct_seeds(self):
        seeds = {derive_seed(1729, t, d) for t in range(1, 6) for d in range(2, 6)}
        assert len(seeds) == 20

    def test_64_bit_range(self):
        for k in range(50):
            s = derive_seed(7, k)
            assert 0 <= s < 2**64


class TestPoissonCount:
    # the intake's count is numpy's Poisson draw, which the kernel makes with random_poisson
    def test_zero_mean_is_zero(self):
        rng = stream(1)
        assert not rng.poisson(0.0, 100).any()

    def test_moments(self):
        rng = stream(2024)
        n = 300_000
        draws = rng.poisson(4.0, n).astype(float)
        # mean: 3 sigma window with sigma = sqrt(4/n)
        assert abs(draws.mean() - 4.0) <= 3.0 * math.sqrt(4.0 / n)
        # variance: SE of the sample variance is sqrt((mu + 2 mu^2) / n)
        assert abs(draws.var() - 4.0) <= 3.0 * math.sqrt((4.0 + 32.0) / n)

    def test_distribution_gof(self):
        rng = stream(77)
        samples = rng.poisson(50.0, 100_000).tolist()
        assert poisson_gof_pvalue(samples, 50.0) > 0.01


class TestUniformInBall:
    def test_stays_inside(self):
        for dim in (1, 2, 3, 5):
            rng = stream(11, dim)
            center = (4.0,) + (0.0,) * (dim - 1)
            for p in ball_points(rng, center, 2.0, dim, 300):
                assert math.dist(p, center) <= 2.0
                assert len(p) == dim

    def test_norm_is_global_not_relative(self):
        rng = stream(12)
        center = (10.0, -3.0)
        [p] = ball_points(rng, center, 1.0, 2, 1)
        assert math.dist(p, center) <= 1.0
        assert math.hypot(*p) > 8.0  # coordinates are global, not relative

    def test_radial_fraction_d2(self):
        # P(|X| <= 1) in a radius 2 disc is (1/2)^2 = 1/4
        rng = stream(13)
        n = 400_000
        hits = sum(math.hypot(*p) <= 1.0 for p in ball_points(rng, ORIGIN2, 2.0, 2, n))
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(hits / n - 0.25) <= 3.0 * sigma

    def test_radial_law_kolmogorov(self):
        # |X|^d / R^d is uniform on [0, 1]
        for dim in (2, 3):
            rng = stream(14, dim)
            center = (0.0,) * dim
            u = [
                (math.hypot(*p) / 2.0) ** dim
                for p in ball_points(rng, center, 2.0, dim, 50_000)
            ]
            assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_coordinate_means_d3(self):
        rng = stream(15)
        n = 200_000
        mean = np.mean(ball_points(rng, (0.0, 0.0, 0.0), 2.0, 3, n), axis=0)
        # per-coordinate variance is R^2/(d+2) = 4/5
        sigma = math.sqrt(0.8 / n)
        assert np.all(np.abs(mean) <= 3.0 * sigma)

    def test_centered_on_offset(self):
        rng = stream(16)
        n = 100_000
        mean = np.mean(ball_points(rng, (10.0, -3.0), 2.0, 2, n), axis=0)
        sigma = math.sqrt(1.0 / n)  # R^2/(d+2) = 1
        assert abs(mean[0] - 10.0) <= 3.0 * sigma
        assert abs(mean[1] + 3.0) <= 3.0 * sigma


class TestSampleUncovered:
    def test_zero_intensity_empty(self):
        rng = stream(21)
        assert ball_intake(rng, ORIGIN2, 2.0, (), 0.0, 2) == []

    def test_fully_covered_empty(self):
        rng = stream(22)
        for _ in range(200):
            assert ball_intake(rng, ORIGIN2, 2.0, (ORIGIN2,), 0.8, 2) == []

    def test_count_is_poisson(self):
        rng = stream(24)
        mean = 0.3 * ball_volume(2, 2.0)
        counts = [
            len(ball_intake(rng, ORIGIN2, 2.0, (), 0.3, 2)) for _ in range(10_000)
        ]
        assert poisson_gof_pvalue(counts, mean) > 0.01

    def test_kept_points_avoid_covered(self):
        rng = stream(25)
        blockers = [(1.0, 0.5), (-2.0, 1.0), (3.5, -0.5)]
        for _ in range(500):
            for p in ball_intake(rng, ORIGIN2, 2.0, blockers, 0.6, 2):
                assert all(math.dist(p, b) > 2.0 for b in blockers)
                assert math.dist(p, ORIGIN2) <= 2.0

    def test_partial_coverage_mean(self):
        # one covered ball at distance 2: lens area 8 pi/3 - 2 sqrt(3)
        rng = stream(26)
        blocker = (2.0, 0.0)
        lens = 8.0 * math.pi / 3.0 - 2.0 * math.sqrt(3.0)
        want = 0.5 * (ball_volume(2, 2.0) - lens)
        n = 20_000
        total = sum(
            len(ball_intake(rng, ORIGIN2, 2.0, (blocker,), 0.5, 2))
            for _ in range(n)
        )
        assert abs(total / n - want) <= 3.0 * math.sqrt(want / n)

    def test_disjoint_halves_uncorrelated(self):
        rng = stream(27)
        n = 10_000
        left = np.empty(n)
        right = np.empty(n)
        for i in range(n):
            pts = ball_intake(rng, ORIGIN2, 2.0, (), 0.5, 2)
            left[i] = sum(p[0] < 0.0 for p in pts)
            right[i] = len(pts) - left[i]
        rho = np.corrcoef(left, right)[0, 1]
        assert abs(rho) <= 3.0 / math.sqrt(n)

    def test_rejection_consumes_no_randomness(self):
        # thinning must only filter: same stream, with and without a
        # blocker, yields the same survivors
        blocker = (1.2, 0.3)
        for trial in range(200):
            free = ball_intake(stream(30, trial), ORIGIN2, 2.0, (), 0.8, 2)
            thinned = ball_intake(
                stream(30, trial), ORIGIN2, 2.0, (blocker,), 0.8, 2
            )
            survivors = [
                p for p in free if math.dist(p, blocker) > 2.0
            ]
            assert [p for p in thinned] == survivors
