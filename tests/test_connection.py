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
    SoftSphere,
    TabulatedRadial,
    ball_volume,
    sphere_surface,
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
        # closed-form masses must reproduce the reference branching columns
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
            assert m.connectivity_mass(dim) == pytest.approx(ball_volume(dim, 2.0), rel=1e-15)

    def test_tabulated_cone_profile_analytic(self):
        # phi = 1 on [0,1], linear down to 0 at 2: mass = 7 pi / 3 in d = 2
        m = TabulatedRadial((0.0, 1.0, 2.0), (1.0, 1.0, 0.0))
        assert m.connectivity_mass(2) == pytest.approx(7.0 * math.pi / 3.0, rel=1e-15)

    def test_tabulated_kinked_table(self):
        # the mass is exact: an adaptive quadrature gave 2.1440117687649214 here
        m = TabulatedRadial((0.0, 0.0164, 10.3291), (0.8641, 0.0316, 0.1762))
        assert m.connectivity_mass(1) == pytest.approx(2.15766854, rel=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_tabulated_matches_quadrature_per_interval(self, seed):
        from scipy import integrate

        rng = np.random.default_rng(seed)
        # widths from 1e-7 to 3: a narrow interval far out cancels digits in
        # the expanded form a (r1^d - r0^d) / d + b (r1^(d+1) - r0^(d+1)) / (d+1)
        widths = 10.0 ** rng.uniform(-7.0, 0.5, size=rng.integers(1, 8))
        radii = (0.0, *np.cumsum(widths).tolist())
        m = TabulatedRadial(radii, rng.uniform(0.0, 1.0, size=len(radii)).tolist())
        for dim in range(1, 6):
            # phi is linear between knots, where a quadrature is near exact
            radial = sum(
                integrate.quad(lambda r: m.phi_at(r) * r ** (dim - 1), r0, r1,
                               epsabs=0.0, epsrel=1e-13)[0]
                for r0, r1 in zip(radii, radii[1:])
            )
            assert m.connectivity_mass(dim) == pytest.approx(
                sphere_surface(dim) * radial, rel=1e-10
            )

    @pytest.mark.parametrize(
        "hardness, dim, radius",
        [
            (6, 2, 2.0),    # s = 1/3
            (2, 1, 50.0),   # s = 1/2
            (2, 2, 2.0),    # s = 1, the exponential integral E_1
            (1, 3, 0.5),    # s = 3
            (6, 5, 8.0),    # s = 5/6, once a failing quadrature
            (6, 3, 20.0),   # s = 1/2, once a failing quadrature
            (2, 3, 2.0),    # s = 3/2: one step down
            (2, 5, 2.0),    # s = 5/2: two steps down
            (3, 5, 8.0),    # s = 5/3
        ],
    )
    @pytest.mark.parametrize("energy", [0.3, 1.0, 2.5])
    def test_soft_sphere_matches_quadrature(self, hardness, dim, radius, energy):
        from scipy import integrate

        m = SoftSphere(radius=radius, hardness=hardness, energy=energy)
        # in u = r / radius the integrand no longer scales with the radius
        radial, _ = integrate.quad(lambda u: m.phi_at(u * radius) * u ** (dim - 1), 0.0, 1.0,
                                   epsabs=0.0, epsrel=1e-13, limit=500)
        expected = sphere_surface(dim) * radius**dim * radial
        assert m.connectivity_mass(dim) == pytest.approx(expected, rel=1e-10)

    def test_soft_sphere_energy_limits(self):
        # a large energy gives the Gilbert ball; a small one the linearized
        # phi, whose mass is energy * V * s / (s - 1) for s = d / hardness > 1
        for hardness, dim in ((6, 2), (1, 5), (2, 5), (3, 5), (12, 1)):
            ball = ball_volume(dim, 2.0)
            assert SoftSphere(2.0, hardness, 1e300).connectivity_mass(dim) == pytest.approx(
                ball, rel=1e-15)
            s = dim / hardness
            if s > 1:
                assert SoftSphere(2.0, hardness, 1e-12).connectivity_mass(dim) == pytest.approx(
                    1e-12 * ball * s / (s - 1), rel=1e-9)

    def test_masses_are_python_floats(self):
        for m in MODELS:
            assert type(m.connectivity_mass(3)) is float, m


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
