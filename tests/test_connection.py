from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcmperc import (
    MODEL_KINDS,
    Gilbert,
    PenetrableSphere,
    QuadratureError,
    SoftSphere,
    TabulatedRadial,
    ball_volume,
    decide_connection,
)

from support import assert_matches_reference

MODELS = [
    Gilbert(radius=2.0),
    PenetrableSphere(radius=2.0, prob=0.5),
    PenetrableSphere(radius=2.0, prob=0.75),
    SoftSphere(radius=2.0, hardness=6),
    SoftSphere(radius=2.0, hardness=12),
    TabulatedRadial((0.0, 1.0, 2.0), (1.0, 0.8, 0.1)),
]


class TestPhi:
    def test_gilbert_profile(self):
        m = Gilbert(radius=2.0)
        assert m.phi_at(0.0) == 1.0
        assert m.phi_at(2.0) == 1.0          # boundary is in range
        assert m.phi_at(2.0000000001) == 0.0
        assert m.phi_at(50.0) == 0.0

    def test_penetrable_profile(self):
        m = PenetrableSphere(radius=2.0, prob=0.75)
        assert m.phi_at(1.3) == 0.75
        assert m.phi_at(2.0) == 0.75
        assert m.phi_at(2.1) == 0.0

    def test_soft_sphere_boundary_value(self):
        # at r = radius the exponent equals the energy
        m = SoftSphere(radius=2.0, hardness=6)
        assert m.phi_at(2.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)
        m2 = SoftSphere(radius=2.0, hardness=6, energy=2.5)
        assert m2.phi_at(2.0) == pytest.approx(1.0 - math.exp(-2.5), rel=1e-15)

    def test_soft_sphere_small_r_limit(self):
        m = SoftSphere(radius=2.0, hardness=12)
        assert m.phi_at(0.0) == 1.0
        assert m.phi_at(1e-300) == 1.0       # power overflow is caught
        assert m.phi_at(1e-10) == 1.0

    def test_soft_sphere_monotone_decreasing(self):
        m = SoftSphere(radius=2.0, hardness=6)
        grid = np.linspace(1e-6, 2.0, 500)
        vals = [m.phi_at(float(r)) for r in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_harder_spheres_connect_more(self):
        soft6 = SoftSphere(radius=2.0, hardness=6)
        soft12 = SoftSphere(radius=2.0, hardness=12)
        for r in np.linspace(0.01, 2.0, 200):
            assert soft12.phi_at(float(r)) >= soft6.phi_at(float(r))

    def test_gilbert_dominates_everything(self):
        g = Gilbert(radius=2.0)
        for m in MODELS:
            for r in np.linspace(0.0, 2.5, 100):
                assert g.phi_at(float(r)) >= m.phi_at(float(r))

    @given(
        model=st.sampled_from(MODELS),
        r=st.floats(min_value=2.0, max_value=1e6, exclude_min=True),
    )
    @settings(max_examples=500)
    def test_finite_range_exact_zero(self, model, r):
        assert model.phi_at(r) == 0.0

    @given(model=st.sampled_from(MODELS), r=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=500)
    def test_phi_in_unit_interval(self, model, r):
        assert 0.0 <= model.phi_at(r) <= 1.0


class TestConfig:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.describe())
    def test_model_kinds_rebuild_from_config(self, model):
        config = model.to_config()
        assert MODEL_KINDS[config.pop("kind")](**config) == model


class TestValidation:
    def test_penetrable_prob_range(self):
        PenetrableSphere(radius=2.0, prob=1.0)   # boundary allowed
        for bad in (0.0, -0.1, 1.0000001, math.nan):
            with pytest.raises(ValueError):
                PenetrableSphere(radius=2.0, prob=bad)

    def test_radius_positive(self):
        for bad in (0.0, -2.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                Gilbert(radius=bad)

    def test_soft_sphere_parameters(self):
        with pytest.raises(ValueError):
            SoftSphere(radius=2.0, hardness=0)
        with pytest.raises(ValueError):
            SoftSphere(radius=2.0, hardness=-6)
        with pytest.raises(ValueError):
            SoftSphere(radius=2.0, hardness=6, energy=0.0)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            TabulatedRadial((0.5, 2.0), (1.0, 0.0))  # must start at 0
        with pytest.raises(ValueError):
            TabulatedRadial((0.0, 1.0, 1.0), (1.0, 0.5, 0.0))  # strictly increasing
        with pytest.raises(ValueError):
            TabulatedRadial((0.0, 2.0), (1.2, 0.0))  # value above 1
        with pytest.raises(ValueError):
            TabulatedRadial((0.0, 2.0), (1.0,))  # length mismatch
        with pytest.raises(ValueError):
            TabulatedRadial((0.0,), (1.0,))  # too short


class TestDecideConnection:
    def test_out_of_range_never_connects(self):
        m = Gilbert(radius=2.0)
        a = (0.0, 0.0)
        b = (2.5, 0.0)
        assert decide_connection(m, a, b, 0.0) is False

    def test_in_range_threshold(self):
        # u connects exactly when u <= phi(r), so a uniform u connects with
        # probability phi(r): checked at 10 random radii for two models
        a = (0.0, 0.0)
        models = [PenetrableSphere(radius=2.0, prob=0.75), SoftSphere(radius=2.0, hardness=6)]
        for model in models:
            beyond = (math.nextafter(model.radius, math.inf), 0.0)
            assert decide_connection(model, a, beyond, 0.0) is False
            for r in np.random.default_rng(424242).uniform(0.05, 2.0, size=10).tolist():
                b = (r, 0.0)
                phi = model.phi_at(r)
                assert decide_connection(model, a, b, 0.0) is True, (model, r)
                assert decide_connection(model, a, b, phi) is True, (model, r)
                if phi < 1.0:
                    above = math.nextafter(phi, 1.0)
                    assert decide_connection(model, a, b, above) is False, (model, r)


class TestConnectivityMass:
    def test_gilbert_closed_form(self):
        m = Gilbert(radius=2.0)
        for dim in range(1, 7):
            assert m.connectivity_mass(dim) == ball_volume(dim, 2.0)

    def test_penetrable_scales_gilbert(self):
        m = PenetrableSphere(radius=2.0, prob=0.75)
        for dim in (2, 3, 4, 5):
            assert m.connectivity_mass(dim) == pytest.approx(
                0.75 * ball_volume(dim, 2.0), rel=1e-15
            )

    def test_soft_sphere_reciprocals_match_reference(self):
        # quadrature masses must reproduce the reference branching columns
        for hardness, refs in (
            (6, (0.084969, 0.03276, 0.014254, 0.0068329)),
            (12, (0.082379, 0.031387, 0.013523, 0.00643)),
        ):
            m = SoftSphere(radius=2.0, hardness=hardness)
            for dim, ref in zip((2, 3, 4, 5), refs):
                assert_matches_reference(1.0 / m.connectivity_mass(dim), ref)

    def test_soft_mass_below_gilbert(self):
        for dim in (2, 3, 4, 5):
            soft = SoftSphere(radius=2.0, hardness=6).connectivity_mass(dim)
            hard = Gilbert(radius=2.0).connectivity_mass(dim)
            assert soft < hard

    def test_tabulated_constant_one_equals_ball(self):
        m = TabulatedRadial((0.0, 2.0), (1.0, 1.0))
        for dim in (2, 3, 4):
            assert m.connectivity_mass(dim) == pytest.approx(
                ball_volume(dim, 2.0), abs=1e-8, rel=1e-10
            )

    def test_tabulated_cone_profile_analytic(self):
        # phi = 1 on [0,1], linear down to 0 at 2: mass = 7 pi / 3 in d = 2
        m = TabulatedRadial((0.0, 1.0, 2.0), (1.0, 1.0, 0.0))
        assert m.connectivity_mass(2) == pytest.approx(
            7.0 * math.pi / 3.0, abs=1e-9
        )

    def test_unreachable_tolerance_raises(self):
        m = SoftSphere(radius=2.0, hardness=6)
        with pytest.raises(QuadratureError) as exc:
            m.connectivity_mass(2, quad_tol=1e-30)
        assert exc.value.error > 1e-30
        assert exc.value.estimate > 0.0


class TestTabulatedCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("r,phi\n0.0,1.0\n0.5,0.9\n2.0,0.0\n")
        m = TabulatedRadial.from_csv(str(path))
        assert m.radius == 2.0
        assert m.phi_at(0.25) == pytest.approx(0.95)
        assert m.phi_at(2.0) == 0.0
        assert m.phi_at(2.5) == 0.0

    def test_header_required(self, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("0.0,1.0\n2.0,0.0\n")
        with pytest.raises(ValueError, match="header"):
            TabulatedRadial.from_csv(str(path))

    def test_malformed_rows_rejected(self, tmp_path):
        path = tmp_path / "phi.csv"
        path.write_text("r,phi\n0.0\n")
        with pytest.raises(ValueError):
            TabulatedRadial.from_csv(str(path))
        path.write_text("r,phi\n0.0,abc\n")
        with pytest.raises(ValueError):
            TabulatedRadial.from_csv(str(path))
        path.write_text("")
        with pytest.raises(ValueError):
            TabulatedRadial.from_csv(str(path))

    def test_interpolation_clamped(self):
        m = TabulatedRadial((0.0, 1.0, 2.0), (1.0, 1.0, 0.0))
        for r in np.linspace(0.0, 2.0, 100):
            assert 0.0 <= m.phi_at(float(r)) <= 1.0
