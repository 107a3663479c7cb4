import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricensim import JointActions
from ricensim.calibration import calibrate_damage_to_anchor
from ricensim.config import DEFAULT_DAMAGE_PI2, SimParams, VariantConfig
from ricensim.economy import (
    abatement_fraction,
    calibrate_damage_coefficient,
    damage_fraction,
    gross_output,
)
from ricensim.engine import reset, step
from ricensim.errors import DomainError

from conftest import symmetric_world


class TestGrossOutput:
    def test_zero_capital_means_zero_output(self):
        assert gross_output(5.0, 0.0, 7.0, 0.3) == 0.0

    def test_cobb_douglas_value(self):
        # 5 * 100^0.3 * 7^0.7 = 77.72
        assert math.isclose(gross_output(5.0, 100.0, 7.0, 0.3), 77.72, abs_tol=0.01)

    def test_linear_in_productivity(self):
        y1 = gross_output(2.5, 80.0, 12.0, 0.3)
        y2 = gross_output(5.0, 80.0, 12.0, 0.3)
        assert math.isclose(y2, 2 * y1, rel_tol=1e-12)


class TestDamage:
    def test_no_warming_no_damage(self):
        assert damage_fraction(0.0, "dice_quadratic", 0.01, 0.002) == 0.0
        assert damage_fraction(0.0, "weitzman", 0.0, 0.0) == 0.0

    def test_weitzman_at_high_power_knee(self):
        # At T = 6.081 the high-power term is exactly 1:
        # D = 1 - 1/(2 + (6.081/20.46)^2) = 0.52115
        assert math.isclose(
            damage_fraction(6.081, "weitzman", 0.0, 0.0), 0.5211, abs_tol=1e-3
        )

    def test_calibrated_round_trip(self):
        pi2 = calibrate_damage_coefficient(4.0, 0.085)
        assert math.isclose(damage_fraction(4.0, "dice_quadratic", 0.0, pi2), 0.085, abs_tol=1e-9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            damage_fraction(1.0, "nope", 0.0, 0.0)

    @given(st.floats(min_value=0.0, max_value=60.0))
    @settings(max_examples=200)
    def test_bounded_and_capped(self, t):
        for kind in ("dice_quadratic", "weitzman"):
            d = damage_fraction(t, kind, 0.001, 0.003)
            assert 0.0 <= d <= 0.99

    def test_monotone_in_temperature(self):
        ts = np.linspace(0.0, 40.0, 300)
        for kind in ("dice_quadratic", "weitzman"):
            ds = damage_fraction(ts, kind, 0.0, 0.002)
            assert (np.diff(ds) >= -1e-15).all()

    def test_weitzman_dominates_calibrated_quadratic_at_high_warming(self):
        # With the quadratic calibrated to the default no-mitigation
        # 100-year trajectory, the steep damage curve is strictly worse
        # everywhere at and past 6 degC.
        for t in np.linspace(6.0, 50.0, 100):
            quad = damage_fraction(t, "dice_quadratic", 0.0, DEFAULT_DAMAGE_PI2)
            steep = damage_fraction(t, "weitzman", 0.0, 0.0)
            assert steep > quad


class TestCalibrateCoefficient:
    def test_closed_form_value(self):
        # 0.085 / (0.915 * 16) = 0.0058060
        assert math.isclose(calibrate_damage_coefficient(4.0, 0.085), 0.005806, abs_tol=1e-6)

    def test_vanishing_anchor_gives_vanishing_coefficient(self):
        assert calibrate_damage_coefficient(4.0, 1e-12) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            calibrate_damage_coefficient(0.0, 0.1)
        with pytest.raises(DomainError):
            calibrate_damage_coefficient(4.0, 1.0)

    def test_default_coefficient_is_the_calibrated_fixed_point(self):
        # A trajectory change must recompute DEFAULT_DAMAGE_PI2 (and the
        # README's horizon damages) rather than leave it stale.
        assert calibrate_damage_to_anchor(SimParams(), VariantConfig(), 0).pi2 == DEFAULT_DAMAGE_PI2


class TestAbatement:
    def test_no_mitigation_no_cost(self):
        assert abatement_fraction(0.0, 0.0, "persistent", 0.1, 2.6) == 0.0

    def test_persistent_value(self):
        # 0.1 * 0.9^2.6 = 0.07604
        got = abatement_fraction(0.9, 0.0, "persistent", 0.1, 2.6)
        assert math.isclose(got, 0.0760, abs_tol=5e-4)

    def test_transitional_completed_mitigation_keeps_residual_only(self):
        # No increment: only the 0.2-weighted persistent residual remains.
        got = abatement_fraction(0.9, 0.9, "transitional", 0.1, 2.6, 1.0)
        assert math.isclose(got, 0.0152, abs_tol=5e-4)

    def test_transitional_charges_squared_increment(self):
        flat = abatement_fraction(0.5, 0.5, "transitional", 0.1, 2.6, 1.0)
        jump = abatement_fraction(0.5, 0.0, "transitional", 0.1, 2.6, 1.0)
        assert math.isclose(jump - flat, 0.25, rel_tol=1e-9)

    @given(st.integers(min_value=0, max_value=9))
    @settings(max_examples=30)
    def test_monotone_in_level(self, k):
        if k < 9:
            a = abatement_fraction(k / 10, 0.0, "persistent", 0.1, 2.6)
            b = abatement_fraction((k + 1) / 10, 0.0, "persistent", 0.1, 2.6)
            assert b > a

    @given(
        st.lists(st.integers(min_value=0, max_value=9), min_size=2, max_size=8),
    )
    @settings(max_examples=100)
    def test_even_spreading_never_costs_more(self, path_levels):
        """Squared-increment convexity: spreading a mitigation climb evenly
        over the same number of steps costs at most as much as any other
        monotone path between the same endpoints."""
        levels = sorted(path_levels)
        start, end, steps = levels[0], levels[-1], len(levels)
        even = np.linspace(start, end, steps) / 10.0
        other = np.array(levels) / 10.0

        def transition_cost(path):
            prev = path[0]
            total = 0.0
            for mu in path[1:]:
                total += (
                    abatement_fraction(mu, prev, "transitional", 0.0, 2.6, 1.0)
                )
                prev = mu
            return total

        assert transition_cost(even) <= transition_cost(other) + 1e-12


class TestStepEconomy:
    """The production phase of ``engine.step``, on two identical regions."""

    PARAMS = SimParams(n_regions=2)
    VARIANT = VariantConfig()
    PRODUCTIVITY = 20.0 / 100.0**0.3

    def step(self, savings, mitigation, temperature):
        world = symmetric_world(
            reset(self.PARAMS, self.VARIANT, 0),
            capital=100.0, labor=1.0, productivity=self.PRODUCTIVITY, intensity=0.2,
        )
        world.t_atmosphere = temperature
        result = step(world, JointActions.uniform(2, savings, mitigation, 0, 0, 0))
        return world, result.detail, result.world

    def test_all_zero_actions(self):
        _, out, new = self.step(0, 0, 0.0)
        assert np.all(out.investment == 0.0)
        assert np.allclose(new.capital, 100.0 * 0.9**5, rtol=1e-12, atol=0)
        assert np.allclose(out.emissions, 0.2 * out.gross_output, rtol=1e-12, atol=0)

    def test_capital_update_with_investment(self):
        # Y = 5.0238473 * 100^0.3 * 1 = 20.0 (to float), s=0.5 -> I = 10
        # K' = 100 * 0.9^5 + 5 * 10 = 109.049
        _, out, new = self.step(5, 0, 0.0)
        assert np.allclose(out.investment, 10.0, rtol=0, atol=1e-4)
        assert np.allclose(new.capital, 109.049, rtol=0, atol=1e-3)

    def test_mitigation_strictly_cuts_emissions(self):
        _, low, _ = self.step(3, 0, 1.0)
        _, high, _ = self.step(3, 9, 1.0)
        assert np.all(high.emissions < low.emissions)

    def test_output_identities(self):
        region, out, new = self.step(4, 6, 2.0)
        assert np.allclose(
            out.net_output,
            (1 - out.damage_fraction) * (1 - out.abatement_fraction) * out.gross_output,
            rtol=1e-12, atol=0,
        )
        assert np.all(out.investment <= out.net_output)
        assert np.allclose(
            out.emissions, region.intensity * 0.4 * out.gross_output, rtol=1e-12, atol=0
        )
        assert np.all(new.mitigation_prev == 0.6)
        # exogenous trajectories advanced
        assert np.all(new.productivity > region.productivity)
        assert np.all(new.labor > region.labor)
        assert np.all(new.intensity < region.intensity)
