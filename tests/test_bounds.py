from __future__ import annotations

import math

import pytest

from rcmperc import (
    Gilbert,
    PenetrableSphere,
    SoftSphere,
    TabulatedRadial,
    ball_volume,
    branching_bound,
    constant_g_certificate,
)
from rcmperc.reference import DESK_RUNS, DESK_SYSTEM_SIZE, REFERENCE_TABLES, SCALES

from support import assert_matches_reference

# frozen five-significant-digit anchors, one row per dimension 2..5
BRANCHING_ANCHORS = {
    "gilbert": (0.079577, 0.029842, 0.012665, 0.0059368),
    "penetrable-0.5": (0.15915, 0.059683, 0.02533, 0.011874),
    "penetrable-0.75": (0.1061, 0.039789, 0.016887, 0.0079157),
    "soft-6": (0.084969, 0.03276, 0.014254, 0.0068329),
    "soft-12": (0.082379, 0.031387, 0.013523, 0.00643),
}

MODELS = {
    "gilbert": Gilbert(radius=2.0),
    "penetrable-0.5": PenetrableSphere(radius=2.0, prob=0.5),
    "penetrable-0.75": PenetrableSphere(radius=2.0, prob=0.75),
    "soft-6": SoftSphere(radius=2.0, hardness=6),
    "soft-12": SoftSphere(radius=2.0, hardness=12),
}


class TestBranchingBound:
    @pytest.mark.parametrize("name", sorted(BRANCHING_ANCHORS))
    def test_reference_regression(self, name):
        model = MODELS[name]
        for dim, anchor in zip((2, 3, 4, 5), BRANCHING_ANCHORS[name]):
            assert_matches_reference(branching_bound(model, dim), anchor)

    def test_gilbert_is_reciprocal_ball_volume(self):
        for dim in range(1, 7):
            assert branching_bound(Gilbert(radius=2.0), dim) == pytest.approx(
                1.0 / ball_volume(dim, 2.0), rel=1e-15
            )

    def test_penetrable_scales_reciprocal(self):
        for p in (0.25, 0.5, 1.0):
            model = PenetrableSphere(radius=2.0, prob=p)
            assert branching_bound(model, 3) == pytest.approx(
                1.0 / (p * ball_volume(3, 2.0)), rel=1e-14
            )

    def test_decreases_with_dimension(self):
        for model in MODELS.values():
            bounds = [branching_bound(model, d) for d in range(2, 7)]
            assert all(a > b for a, b in zip(bounds, bounds[1:]))

    def test_softer_sphere_higher_bound(self):
        # less connectivity mass means a larger lower bound
        for dim in (2, 3, 4, 5):
            assert branching_bound(MODELS["soft-6"], dim) > branching_bound(
                MODELS["soft-12"], dim
            ) > branching_bound(MODELS["gilbert"], dim)

    def test_zero_mass_raises(self):
        model = TabulatedRadial((0.0, 2.0), (0.0, 0.0))
        with pytest.raises(ValueError, match="zero mass"):
            branching_bound(model, 2)

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_non_finite_mass_raises(self, monkeypatch, mass):
        # a NaN mass passes a `mass <= 0` test; neither value may reach a bound
        monkeypatch.setattr(Gilbert, "connectivity_mass", lambda self, dim: mass)
        with pytest.raises(ValueError, match=f"mass must be finite, got {mass!r}"):
            branching_bound(Gilbert(2.0), 2)
        with pytest.raises(ValueError, match=f"mass must be finite, got {mass!r}"):
            constant_g_certificate(Gilbert(2.0), 2, 0.0)


class TestCertificate:
    def test_zero_gamma(self):
        cert = constant_g_certificate(Gilbert(radius=2.0), 2, 0.0)
        assert cert.certificate_valid is True
        assert cert.expected_degree == 0.0
        assert cert.cluster_excess_bound == 0.0
        assert cert.mean_cluster_size_bound == 1.0
        assert cert.certificate_slack == 0.0

    def test_half_critical_degree(self):
        model = Gilbert(radius=2.0)
        gamma = 0.5 * branching_bound(model, 2)
        cert = constant_g_certificate(model, 2, gamma)
        assert cert.expected_degree == pytest.approx(0.5, rel=1e-14)
        assert cert.cluster_excess_bound == pytest.approx(1.0, rel=1e-12)
        assert cert.mean_cluster_size_bound == pytest.approx(2.0, rel=1e-12)
        # g solves g = q (1 + g) exactly at the fixed point
        assert abs(cert.certificate_slack) <= 1e-12

    def test_slack_vanishes_along_grid(self):
        model = SoftSphere(radius=2.0, hardness=6)
        for frac in (0.1, 0.4, 0.9, 0.99):
            gamma = frac * branching_bound(model, 3)
            cert = constant_g_certificate(model, 3, gamma)
            assert cert.certificate_valid
            assert abs(cert.certificate_slack) <= 1e-9 * cert.cluster_excess_bound

    def test_supercritical_degree_invalid(self):
        model = Gilbert(radius=2.0)
        gamma = 1.01 * branching_bound(model, 2)
        cert = constant_g_certificate(model, 2, gamma)
        assert cert.certificate_valid is False
        assert cert.cluster_excess_bound is None
        assert cert.mean_cluster_size_bound is None
        assert cert.certificate_slack is None
        assert cert.expected_degree > 1.0

    def test_degree_exactly_one_invalid(self):
        model = Gilbert(radius=2.0)
        mass = 1.0 / branching_bound(model, 2)
        cert = constant_g_certificate(model, 2, 1.0 / mass)
        assert cert.certificate_valid is False

    def test_bound_monotone_in_gamma(self):
        model = PenetrableSphere(radius=2.0, prob=0.5)
        gmax = branching_bound(model, 2)
        bounds = [
            constant_g_certificate(model, 2, f * gmax).mean_cluster_size_bound
            for f in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_validation(self):
        model = Gilbert(radius=2.0)
        with pytest.raises(ValueError):
            constant_g_certificate(model, 2, -0.1)
        with pytest.raises(ValueError):
            constant_g_certificate(model, 2, math.inf)

    def test_to_dict(self):
        model = Gilbert(radius=2.0)
        cert = constant_g_certificate(model, 2, 0.02)
        d = cert.to_dict()
        assert d["certificate_valid"] is True
        assert d["gamma"] == 0.02
        assert d["dim"] == 2
        assert d["branching_bound"] == cert.branching_bound


class TestReferenceTables:
    def test_catalog_shape(self):
        assert sorted(REFERENCE_TABLES) == [1, 2, 3, 4, 5]
        for table in REFERENCE_TABLES.values():
            assert [r.dim for r in table.rows] == [2, 3, 4, 5]
            assert [r.system_size for r in table.rows] == [1000.0, 500.0, 300.0, 200.0]
            assert all(r.runs == 5000 for r in table.rows)

    def test_literature_only_for_gilbert(self):
        for number, table in REFERENCE_TABLES.items():
            for row in table.rows:
                if number == 1:
                    assert row.literature_value is not None
                    # simulated estimates sit a little below the
                    # high-precision literature thresholds
                    assert 0.9 < row.critical_estimate / row.literature_value < 1.0
                else:
                    assert row.literature_value is None

    def test_branching_column_matches_bounds_module(self):
        for table in REFERENCE_TABLES.values():
            for row in table.rows:
                assert_matches_reference(
                    branching_bound(table.model, row.dim), row.branching_bound
                )

    def test_estimates_above_branching(self):
        for table in REFERENCE_TABLES.values():
            for row in table.rows:
                assert row.critical_estimate > row.branching_bound

    def test_build_model_kinds(self):
        assert REFERENCE_TABLES[1].model.describe() == "gilbert(radius=2)"
        assert "0.5" in REFERENCE_TABLES[2].model.describe()
        assert "hardness=12" in REFERENCE_TABLES[5].model.describe()

    def test_row_lookup(self):
        assert REFERENCE_TABLES[1].row(3).critical_estimate == 0.079338
        with pytest.raises(KeyError):
            REFERENCE_TABLES[1].row(7)

    def test_desk_scale_constants(self):
        assert SCALES == ("desk", "paper")
        assert sorted(DESK_SYSTEM_SIZE) == [2, 3, 4, 5]
        assert DESK_RUNS == 500
        for dim, size in DESK_SYSTEM_SIZE.items():
            full = REFERENCE_TABLES[1].row(dim).system_size
            assert size < full
