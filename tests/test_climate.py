import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricensim import climate
from ricensim.climate import (
    CARBON_TRANSFER,
    CARBON_TRANSFER_5Y,
    exogenous_forcing,
    radiative_forcing,
    step_carbon,
    step_temperature,
)
from ricensim.config import STEP_YEARS
from ricensim.errors import DomainError


class TestCarbon:
    def test_zero_emission_conserves_total(self):
        m = np.array([600.0, 400.0, 1300.0])
        out = step_carbon(m, 0.0)
        assert math.isclose(out.sum(), m.sum(), rel_tol=1e-9)

    def test_emission_adds_exactly_dt_times_e(self):
        m = np.array([600.0, 400.0, 1300.0])
        out = step_carbon(m, 10.0)
        assert STEP_YEARS == 5
        assert math.isclose(out.sum(), m.sum() + 50.0, rel_tol=1e-12)

    def test_step_is_the_transfer_plus_emissions_into_the_atmosphere(self):
        m = np.array([600.0, 400.0, 1300.0])
        expected = CARBON_TRANSFER @ m
        expected[0] += STEP_YEARS * 10.0
        assert step_carbon(m, 10.0).tobytes() == expected.tobytes()

    def test_emissions_below_floor_rejected(self):
        with pytest.raises(DomainError):
            step_carbon(np.array([1.0, 1.0, 1.0]), -0.5)

    def test_nonpositive_stock_rejected(self):
        with pytest.raises(DomainError):
            step_carbon(np.array([0.0, 1.0, 1.0]), 0.0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=60, max_size=60),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_conservation_over_rollout(self, emissions, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(100.0, 2000.0, size=3)
        total0 = m.sum()
        cumulative = 0.0
        for e in emissions:
            m = step_carbon(m, e)
            cumulative += STEP_YEARS * e
        assert math.isclose(m.sum(), total0 + cumulative, rel_tol=1e-9)


class TestCarbonTransfer:
    def test_is_the_5_year_fractions_bit_for_bit(self):
        assert CARBON_TRANSFER.shape == (3, 3) and CARBON_TRANSFER.dtype == np.float64
        assert CARBON_TRANSFER.tobytes() == np.array(CARBON_TRANSFER_5Y).tobytes()

    def test_read_only(self):
        assert not CARBON_TRANSFER.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            CARBON_TRANSFER[0, 0] = 1.0

    def test_columns_sum_to_one_and_entries_are_non_negative(self):
        assert np.allclose(CARBON_TRANSFER.sum(axis=0), 1.0, rtol=0, atol=1e-12)
        assert (CARBON_TRANSFER >= 0).all()


class TestForcing:
    def test_reference_stock_gives_zero(self):
        assert radiative_forcing(588.0, 0.0) == 0.0

    def test_one_doubling(self):
        assert math.isclose(radiative_forcing(1176.0, 0.0), 3.6813, rel_tol=1e-12)

    def test_two_doublings_with_offset(self):
        # 2 * 3.6813 + 0.5
        got = radiative_forcing(4 * 588.0, 0.5)
        assert math.isclose(got, 7.8626, rel_tol=1e-9)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(DomainError):
            radiative_forcing(0.0, 0.0)

    def test_strictly_increasing_in_atmospheric_stock(self):
        stocks = np.linspace(100.0, 5000.0, 200)
        values = [radiative_forcing(m, 0.3) for m in stocks]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_exogenous_ramp_holds_after_ramp_years(self):
        assert exogenous_forcing(0.0) == 0.5
        assert math.isclose(exogenous_forcing(50.0), 0.75, rel_tol=1e-12)
        assert exogenous_forcing(100.0) == 1.0
        assert exogenous_forcing(250.0) == 1.0

    def test_initial_co2_forcing_is_moderate(self):
        co2_forcing = climate.FORCING_PER_DOUBLING * math.log2(
            climate.INITIAL_CARBON_GTC[0] / climate.REFERENCE_ATMOSPHERE_GTC
        )
        assert math.isclose(co2_forcing, 1.96, abs_tol=0.005)
        assert -10 <= co2_forcing <= 10


class TestTemperature:
    def test_non_finite_step_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            step_temperature(1.0, 0.3, math.inf)
        with pytest.raises(DomainError, match="finite"):
            step_temperature(1e308, -1e308, 0.0)

    def test_two_box_step_contracts(self):
        # One step maps (T_at, T_lo) through this matrix plus the forcing;
        # with every eigenvalue inside the unit circle temperatures settle
        # rather than oscillate or grow without bound.
        c1, c3, c4 = climate.HEAT_CAPACITY_C1, climate.ATM_OCEAN_EXCHANGE_C3, climate.OCEAN_UPTAKE_C4
        step = np.array([[1 - c1 * (climate.TEMPERATURE_FEEDBACK + c3), c1 * c3], [c4, 1 - c4]])
        radius = max(abs(np.linalg.eigvals(step)))
        assert math.isclose(radius, 0.977, abs_tol=5e-4)
        assert radius < 1

    def test_cold_dark_fixed_point(self):
        assert step_temperature(0.0, 0.0, 0.0) == (0.0, 0.0)

    def test_equilibrium_is_stationary(self):
        f = 3.6813
        t_eq = f / climate.TEMPERATURE_FEEDBACK
        t_at, t_lo = step_temperature(t_eq, t_eq, f)
        assert math.isclose(t_at, t_eq, rel_tol=1e-12)
        assert math.isclose(t_lo, t_eq, rel_tol=1e-12)

    def test_hand_computed_step(self):
        # 1 + 0.1005 * (3.6813 - 1.1875 - 0.088) = 1.2417829
        t_at, t_lo = step_temperature(1.0, 0.0, 3.6813)
        assert math.isclose(t_at, 1.2417829, abs_tol=1e-7)
        assert math.isclose(t_lo, 0.025, abs_tol=1e-12)

    def test_zero_emission_rollout_converges(self):
        # With the reservoirs at their equilibrium proportions, zero
        # emissions keep the stocks (and hence the CO2 forcing) constant,
        # so once the exogenous ramp ends the per-step temperature change
        # shrinks monotonically.
        equilibrium = np.array([588.0, 360.0, 1720.0])
        m = equilibrium * (sum(climate.INITIAL_CARBON_GTC) / equilibrium.sum())
        t_at, t_lo = climate.INITIAL_T_ATMOSPHERE, climate.INITIAL_T_OCEAN
        deltas = []
        for k in range(100):
            m = step_carbon(m, 0.0)
            f = radiative_forcing(m[0], exogenous_forcing(STEP_YEARS * (k + 1)))
            new_at, new_lo = step_temperature(t_at, t_lo, f)
            deltas.append(abs(new_at - t_at))
            t_at, t_lo = new_at, new_lo
        settled = deltas[21:]  # forcing ramp ends at year 100 = step 20
        assert all(b <= a * (1 + 1e-12) for a, b in zip(settled, settled[1:]))

    def test_zero_emission_rollout_damps_from_default_stocks(self):
        # From the (off-equilibrium) default stocks the atmosphere slowly
        # drains into the ocean; temperature still settles: late-step
        # changes are far smaller than the early-transient ones.
        m = np.array(climate.INITIAL_CARBON_GTC)
        t_at, t_lo = climate.INITIAL_T_ATMOSPHERE, climate.INITIAL_T_OCEAN
        deltas = []
        for k in range(100):
            m = step_carbon(m, 0.0)
            f = radiative_forcing(m[0], exogenous_forcing(STEP_YEARS * (k + 1)))
            new_at, new_lo = step_temperature(t_at, t_lo, f)
            deltas.append(abs(new_at - t_at))
            t_at, t_lo = new_at, new_lo
        assert max(deltas[90:]) < 0.1 * max(deltas[:30])
