from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmperc import (
    ball_volume,
    place_candidates,
    sphere_surface,
    stream,
)
from rcmperc.kernel import ffi, lib

UNATTACHED, CLUSTER, COVERED = lib.RCM_UNATTACHED, lib.RCM_CLUSTER, lib.RCM_COVERED


class TestBallVolume:
    def test_closed_forms(self):
        # V_1 = 2r, V_2 = pi r^2, V_3 = 4/3 pi r^3, V_4 = pi^2 r^4 / 2,
        # V_5 = 8 pi^2 r^5 / 15, V_6 = pi^3 r^6 / 6
        for radius in (0.5, 1.0, 2.0, 3.7):
            closed = [
                2.0 * radius,
                math.pi * radius**2,
                4.0 / 3.0 * math.pi * radius**3,
                math.pi**2 * radius**4 / 2.0,
                8.0 * math.pi**2 * radius**5 / 15.0,
                math.pi**3 * radius**6 / 6.0,
            ]
            for dim, want in enumerate(closed, start=1):
                assert ball_volume(dim, radius) == pytest.approx(want, rel=1e-14)

    def test_known_values_radius_two(self):
        assert ball_volume(2, 2.0) == pytest.approx(4.0 * math.pi, rel=1e-15)
        assert ball_volume(3, 2.0) == pytest.approx(32.0 * math.pi / 3.0, rel=1e-15)

    def test_recursion(self):
        # V_d(r) = V_{d-2}(r) * 2 pi r^2 / d
        for radius in (1.0, 2.0, 5.5):
            for dim in range(3, 11):
                want = ball_volume(dim - 2, radius) * 2.0 * math.pi * radius**2 / dim
                assert ball_volume(dim, radius) == pytest.approx(want, rel=1e-12)

    @given(
        dim=st.integers(min_value=1, max_value=8),
        radius=st.floats(min_value=0.1, max_value=10.0),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=200)
    def test_scaling(self, dim, radius, scale):
        assert ball_volume(dim, scale * radius) == pytest.approx(
            scale**dim * ball_volume(dim, radius), rel=1e-12
        )

    def test_rejects_bad_arguments(self):
        for dim in (0, -1, 2.0, None):
            with pytest.raises(ValueError):
                ball_volume(dim, 1.0)  # type: ignore[arg-type]
        for radius in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                ball_volume(2, radius)


class TestSphereSurface:
    def test_low_dimensions(self):
        assert sphere_surface(1) == pytest.approx(2.0, rel=1e-15)  # two endpoints
        assert sphere_surface(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert sphere_surface(3) == pytest.approx(4.0 * math.pi, rel=1e-15)

    def test_consistent_with_volume(self):
        # surface of the unit sphere = d * volume of the unit ball
        for dim in range(1, 10):
            assert sphere_surface(dim) == pytest.approx(dim * ball_volume(dim, 1.0), rel=1e-13)


STATES = (UNATTACHED, CLUSTER, COVERED)


def _splitmix64(x: int) -> int:
    """splitmix64 as the kernel's grid computes its hash multipliers."""
    mask = 2**64 - 1
    x = (x + 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


def _linear_scan(points, states, coords, radius, state) -> list[int]:
    return [
        i for i, (p, s) in enumerate(zip(points, states))
        if s == state and math.dist(coords, p) <= radius
    ]


class _Grid:
    """Points in states, asked through the kernel's grid-query entry.

    Each question puts the points in a fresh kernel grid, so a state
    changed here holds from the next question on. It is asked twice: as
    given, and with RCM_LINEAR_POINTS + 1 filler points appended, in all
    three states and at least 10^6 from the query, so that the grid files
    its points in cells; both answers must agree. A grid of few points
    otherwise only ever scans them linearly.
    """

    def __init__(self, radius, dim, points, states):
        assert all(len(p) == dim for p in points)
        self.radius, self.dim = radius, dim
        self.coords = [c for p in points for c in p]
        self.state = bytearray(states)

    def _run(self, coords, states, q, state) -> tuple[list[int], bool]:
        n = len(states)
        ids = ffi.new("int64_t[]", n)
        found = ffi.new("int *")
        count = lib.rcm_grid_query(self.radius, self.dim, coords, states, n, q, state, ids, found)
        assert count >= 0
        return list(ids[0:count]), bool(found[0])

    def _ask(self, coords, state) -> tuple[list[int], bool]:
        fillers = range(lib.RCM_LINEAR_POINTS + 1)
        padded = self._run(
            self.coords + [c + (-1) ** k * (1e6 + 8.0 * k) for k in fillers for c in coords],
            list(self.state) + [STATES[k % 3] for k in fillers], coords, state,
        )
        plain = self._run(self.coords, list(self.state), coords, state)
        assert padded == plain
        return plain

    def query(self, coords, state) -> list[int]:
        return self._ask(coords, state)[0]

    def any_within(self, coords, state) -> bool:
        return self._ask(coords, state)[1]


class TestSpatialIndex:
    def test_insert_query_remove(self):
        # a point leaves a state's query results by changing state
        grid = _Grid(2.0, 2, [(0.5, 0.5), (1.5, 0.0), (5.0, 5.0), (-1.0, 0.0)],
                       [UNATTACHED, COVERED, UNATTACHED, UNATTACHED])
        assert grid.query((0.0, 0.0), UNATTACHED) == [0, 3]
        assert grid.query((0.0, 0.0), COVERED) == [1]
        assert grid.query((0.0, 0.0), CLUSTER) == []
        grid.state[0] = CLUSTER
        assert grid.query((0.0, 0.0), UNATTACHED) == [3]
        assert grid.query((0.0, 0.0), CLUSTER) == [0]
        assert grid.query((0.0, 0.0), COVERED) == [1]

    def test_remove_identity_not_equality(self):
        # points 0 and 1 share coordinates but stay distinct points
        grid = _Grid(1.0, 1, [(0.25,), (0.25,)], [UNATTACHED, UNATTACHED])
        assert grid.query((0.0,), UNATTACHED) == [0, 1]
        grid.state[1] = COVERED
        assert grid.query((0.0,), UNATTACHED) == [0]
        assert grid.query((0.0,), COVERED) == [1]

    def test_boundary_distance_counts_as_within(self):
        grid = _Grid(2.0, 2, [(2.0, 0.0), (0.0, -2.0), (2.0, 0.0001)], [COVERED] * 3)
        assert grid.query((0.0, 0.0), COVERED) == [0, 1]
        assert grid.any_within((0.0, 2.0 + 1e-12), COVERED) is False
        assert grid.any_within((-2.0, 0.0), UNATTACHED) is False
        assert grid.any_within((0.0, 0.0), COVERED) is True
        grid = _Grid(2.0, 2, [(2.0, 0.0)], [COVERED])
        assert grid.any_within((0.0, 0.0), COVERED) is True      # exactly at the radius
        # 2 - (-1e-17) rounds to 2, so the point is within the radius, but
        # its cell (-1 per axis, edge 4) lies below a box reaching exactly r
        for dim in (1, 2):
            point, q = (-1e-17, 0.0)[:dim], (2.0, 0.0)[:dim]
            for state in (COVERED, UNATTACHED):
                grid = _Grid(2.0, dim, [point], [state])
                assert grid.query(q, state) == [0]
                assert grid.any_within(q, state) is True

    def test_negative_coordinates(self):
        # queries and points in cells on both sides of zero
        points = [(-0.1, -0.1), (-1.8, -0.2), (0.1, -1.0), (-3.5, -3.5), (-2.05, 0.0)]
        grid = _Grid(1.0, 2, points, [UNATTACHED] * len(points))
        assert grid.query((-1.0, -0.5), UNATTACHED) == [0, 1]
        assert grid.query((-3.0, -3.0), UNATTACHED) == [3]
        assert grid.query((-1.1, 0.0), UNATTACHED) == [1, 4]

    def test_results_sorted_by_id(self):
        # inserted so that the own cell holds the larger ids
        points = [(2.9, 0.0), (-2.9, 0.0), (0.1, 0.0), (0.2, 0.1), (1.0, -2.0)]
        grid = _Grid(3.0, 2, points, [UNATTACHED] * len(points))
        assert grid.query((0.0, 0.0), UNATTACHED) == [0, 1, 2, 3, 4]

    def test_far_cells_sharing_a_key_stay_apart(self):
        # the kernel hashes a cell as the sum of its indices times the odd
        # multipliers splitmix64(k) | 1, modulo 2^64; solve for a cell
        # (d0, d1) whose hash equals that of cell (0, 0), i.e. 0, with d1
        # small and |d0| <= 2^51 so that its centre is an exact double
        m0, m1 = (_splitmix64(k) | 1 for k in range(2))
        inverse = pow(m0, -1, 2**64)
        for d1 in range(1, 100_000):
            d0 = -d1 * m1 * inverse % 2**64
            d0 -= 2**64 if d0 >= 2**63 else 0
            if abs(d0) <= 2**51:
                break
        assert (d0 * m0 + d1 * m1) % 2**64 == 0 and (d0, d1) != (0, 0)
        # cells have edge 2r = 2, so (2k + 1, 2l + 1) is the centre of cell (k, l)
        near, far = (1.0, 1.0), (2.0 * d0 + 1.0, 2.0 * d1 + 1.0)
        for points in ((near, far), (far, near)):
            grid = _Grid(1.0, 2, list(points), [COVERED, COVERED])
            i_near, i_far = points.index(near), points.index(far)
            assert grid.query(near, COVERED) == [i_near]
            assert grid.query(far, COVERED) == [i_far]
            assert grid.query((far[0] + 0.5, far[1] - 0.5), COVERED) == [i_far]
            assert grid.query((0.5, 0.5), COVERED) == [i_near]
            grid.state[i_far] = UNATTACHED
            assert grid.any_within(far, COVERED) is False
            assert grid.any_within(near, COVERED) is True
            assert grid.query(far, UNATTACHED) == [i_far]
            assert grid.query(near, UNATTACHED) == []

    def test_states_without_points_find_nothing(self):
        # at d = 1..5, every point in one state, some exactly at the query
        # point: the other two states find nothing, and the one state finds
        # what a linear scan does
        gen = np.random.default_rng(4)
        for dim in range(1, 6):
            for state in STATES:
                q = tuple(gen.uniform(-2, 2, size=dim))
                points = [q, q] + [tuple(gen.uniform(-3, 3, size=dim)) for _ in range(40)]
                states = [state] * len(points)
                grid = _Grid(1.0, dim, points, states)
                for other in STATES:
                    want = _linear_scan(points, states, q, 1.0, other)
                    assert grid.query(q, other) == want
                    assert grid.any_within(q, other) is bool(want)
                    assert bool(want) is (other == state)

    def test_agrees_with_linear_scan_thousand_points(self):
        gen = np.random.default_rng(20240801)
        radius = 1.5
        points = [tuple(gen.uniform(-10, 10, size=3)) for _ in range(1000)]
        states = [STATES[k] for k in gen.integers(0, 3, size=1000)]
        grid = _Grid(radius, 3, points, states)
        for _ in range(200):
            q = tuple(gen.uniform(-10, 10, size=3))
            for state in STATES:
                assert grid.query(q, state) == _linear_scan(points, states, q, radius, state)

    def test_agrees_with_linear_scan_many_configurations(self):
        # 10^4 queries at d = 1..5 over random points in random states
        gen = np.random.default_rng(77)
        checked = 0
        for dim in range(1, 6):
            for _ in range(20):
                radius = float(gen.uniform(0.3, 3.0))
                n = int(gen.integers(0, 120))
                points = [tuple(gen.uniform(-6, 6, size=dim)) for _ in range(n)]
                states = [STATES[k] for k in gen.integers(0, 3, size=n)]
                grid = _Grid(radius, dim, points, states)
                for _ in range(100):
                    q = tuple(gen.uniform(-6, 6, size=dim))
                    state = STATES[int(gen.integers(0, 3))]
                    want = _linear_scan(points, states, q, radius, state)
                    assert grid.query(q, state) == want
                    assert grid.any_within(q, state) is bool(want)
                    checked += 1
        assert checked == 10_000

    def test_face_ties_agree_with_linear_scan(self):
        # cells have edge 2r: at d = 1..5, points and queries on cell faces
        # (multiples of 2r, negative ones included), points at distance
        # exactly r from a query along one axis, and points at odd multiples
        # of r, in every state; a covered question walks the covered chains
        gen = np.random.default_rng(2023)
        checked = 0
        for dim in range(1, 6):
            for radius in (1.0, 0.75, 0.3, 2.5):
                faces = [tuple(2.0 * radius * float(k) for k in gen.integers(-3, 4, size=dim))
                         for _ in range(30)]
                ties = []
                for face in faces:
                    axis, sign = int(gen.integers(0, dim)), float(gen.choice([-1.0, 1.0]))
                    ties.append(tuple(c + sign * radius if k == axis else c
                                      for k, c in enumerate(face)))
                odd = [tuple(radius * float(k) for k in gen.integers(-5, 6, size=dim))
                       for _ in range(30)]
                points = faces + ties + odd
                states = [STATES[k] for k in gen.integers(0, 3, size=len(points))]
                grid = _Grid(radius, dim, points, states)
                for q in faces[:10] + ties[:10]:
                    for state in STATES:
                        want = _linear_scan(points, states, q, radius, state)
                        assert grid.query(q, state) == want
                        assert grid.any_within(q, state) is bool(want)
                        checked += bool(want)
        # most questions find a point, many of them at exactly the radius
        assert checked > 400

    def test_threshold_sizes_agree_with_linear_scan(self):
        # grids of RCM_LINEAR_POINTS - 1 to + 2 points, around the insert
        # that files every point in cells: at d = 1..5, in mixed states,
        # a third of them on cell faces (multiples of 2r) and a third r
        # from a face along one axis; covered points filed at that insert
        # must be on their covered chains
        gen = np.random.default_rng(28)
        limit = lib.RCM_LINEAR_POINTS
        radius = 0.75
        checked = 0
        for dim in range(1, 6):
            for n in range(limit - 1, limit + 3):
                faces = [tuple(2.0 * radius * float(k) for k in gen.integers(-2, 3, size=dim))
                         for _ in range(n // 3)]
                ties = [tuple(c + radius if k == 0 else c for k, c in enumerate(face))
                        for face in faces]
                inner = [tuple(gen.uniform(-3, 3, size=dim)) for _ in range(n - 2 * len(faces))]
                points = [p for trio in zip(faces, ties, inner) for p in trio]
                points += inner[len(faces):]
                states = [STATES[k] for k in gen.integers(0, 3, size=n)]
                grid = _Grid(radius, dim, points, states)
                queries = faces[:4] + ties[:4] + [tuple(gen.uniform(-3, 3, size=dim))
                                                  for _ in range(8)]
                for q in queries:
                    for state in STATES:
                        want = _linear_scan(points, states, q, radius, state)
                        assert grid.query(q, state) == want
                        assert grid.any_within(q, state) is bool(want)
                        checked += bool(want)
        assert checked > 400

    def test_bad_placement_arguments_consume_no_draw(self):
        # place_candidates refuses a bad radius, count or point before any
        # draw and whatever the count
        bad = [
            dict(radius=0.0), dict(radius=math.nan), dict(count=-1),
            dict(center=(0.0, 0.0, 0.0)), dict(covered=[(1.0, 2.0, 3.0)]),
        ]
        for kwargs in bad:
            for count in (0, 3):
                args = dict(center=(0.0, 0.0), radius=2.0, covered=[(1.0, 1.0)], dim=2,
                            count=count) | kwargs
                rng = stream(31)
                with pytest.raises(ValueError):
                    place_candidates(rng, **args)
                assert rng.random() == stream(31).random()

    def test_rejects_bad_construction(self):
        # the kernel grid refuses a radius that is not finite and positive,
        # a dimension below 1 and a state that is not a point state
        found = ffi.new("int *")
        for radius, dim in ((0.0, 2), (-1.0, 2), (math.nan, 2), (math.inf, 2), (1.0, 0)):
            assert lib.rcm_grid_query(radius, dim, [], [], 0, [0.0, 0.0], UNATTACHED,
                                      ffi.NULL, found) == -2
        ids = ffi.new("int64_t[]", 1)
        for states, state in (([COVERED], -1), ([COVERED], 3), ([3], COVERED)):
            assert lib.rcm_grid_query(1.0, 2, [0.0, 0.0], states, 1, [0.0, 0.0], state,
                                      ids, found) == -2
        with pytest.raises(ValueError):
            place_candidates(stream(1), (0.0, 0.0), 1.0, [(1.0, 2.0, 3.0)], 2, 1)
