import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricensim.config import VariantConfig
from ricensim.trade import (
    TradeFlows,
    apply_tariffs,
    build_demand,
    consumption,
    import_budget_multiplier,
    ration_exports,
    step_balance,
)

BASE = VariantConfig()
OVERPRODUCTION = VariantConfig(overproduction_penalty=True)
REVENUE = VariantConfig(use_tariff_revenue=True)


def off_diag(n, rate):
    return rate * (1 - np.eye(n))


def flows_of(scaled, tariffed):
    """Trade flows with the given rationed and tariffed matrices."""
    return TradeFlows(scaled, tariffed)


class TestBuildDemand:
    def test_zero_levels_zero_matrix(self):
        d = build_demand(np.zeros((3, 3)), np.array([10.0, 20.0, 30.0]), 0.1)
        assert np.all(d == 0)

    def test_two_region_pair_budget(self):
        # With a single partner the partner weight is 1:
        # demand = 0.9 * 0.1 * 100 = 9.0 exactly.
        d = build_demand(off_diag(2, 0.9), np.array([100.0, 100.0]), 0.1)
        assert d[0, 1] == 9.0
        assert d[1, 0] == 9.0

    def test_zero_output_zero_row(self):
        d = build_demand(off_diag(3, 0.9), np.array([0.0, 50.0, 70.0]), 0.1)
        assert np.all(d[0] == 0)

    def test_partner_share_composition(self):
        y = np.array([100.0, 40.0, 60.0, 80.0])
        d = build_demand(off_diag(4, 0.9), y, 0.1)
        # composition of row 0 follows partner output shares
        assert math.isclose(d[0, 1] / d[0, 2], 40.0 / 60.0, rel_tol=1e-12)
        # row total never exceeds the rate-weighted import budget
        assert d[0].sum() <= 0.9 * 0.1 * 100.0 + 1e-12

    def test_diagonal_zero(self):
        d = build_demand(off_diag(3, 0.9), np.array([10.0, 20.0, 30.0]), 0.1)
        assert np.all(np.diag(d) == 0)


class TestRationExports:
    def test_unconstrained_column_passes_through(self):
        dm = np.array([[0.0, 5.0], [3.0, 0.0]])
        ms = ration_exports(dm, np.array([10.0, 10.0]))
        assert np.array_equal(ms, dm)

    def test_proportional_scaling(self):
        # Demands of 40 and 80 against a capacity of 60 scale by one half.
        dm = np.zeros((3, 3))
        dm[0, 2] = 40.0
        dm[1, 2] = 80.0
        ms = ration_exports(dm, np.array([0.0, 0.0, 60.0]))
        assert ms[0, 2] == 20.0 and ms[1, 2] == 40.0

    def test_zero_capacity_zero_column(self):
        dm = np.ones((2, 2)) - np.eye(2)
        ms = ration_exports(dm, np.array([0.0, 1.0]))
        assert np.all(ms[:, 0] == 0)

    def test_zero_demand_zero_flow(self):
        ms = ration_exports(np.zeros((2, 2)), np.array([0.0, 0.0]))
        assert np.all(ms == 0)


class TestApplyTariffs:
    def test_no_tariffs_identity(self):
        ms = np.array([[0.0, 2.0], [3.0, 0.0]])
        mt, r = apply_tariffs(ms, np.zeros((2, 2)))
        assert np.array_equal(mt, ms)
        assert np.all(r == 0)

    def test_half_tariff_splits_flow(self):
        ms = np.zeros((2, 2))
        ms[0, 1] = 8.0
        rates = np.zeros((2, 2))
        rates[0, 1] = 0.5
        mt, r = apply_tariffs(ms, rates)
        assert mt[0, 1] == 4.0
        assert r[0] == 4.0

    def test_max_tariff_leaves_a_tenth(self):
        ms = np.zeros((2, 2))
        ms[0, 1] = 10.0
        rates = np.zeros((2, 2))
        rates[0, 1] = 0.9
        mt, _ = apply_tariffs(ms, rates)
        assert math.isclose(mt[0, 1], 1.0, rel_tol=1e-12)


class TestConsumption:
    def test_worked_example(self):
        # Region 0: net output 100, investment 30, scaled exports 10,
        # its own tariffed imports total 4 -> C_dom 60, C_for 4, C_agg 62.8.
        ms = np.zeros((2, 2))
        ms[1, 0] = 10.0  # region 1 imports 10 from region 0
        ms[0, 1] = 5.0
        mt = np.zeros((2, 2))
        mt[1, 0] = 10.0
        mt[0, 1] = 4.0
        c = consumption(np.array([100.0, 50.0]), np.array([30.0, 0.0]), flows_of(ms, mt), 0.7, BASE)
        assert c.domestic[0] == 60.0
        assert c.foreign[0] == 4.0
        assert math.isclose(c.aggregate[0], 62.8, rel_tol=1e-12)

    def test_no_trade_reduces_to_net_minus_investment(self):
        c = consumption(np.array([10.0, 8.0]), np.array([3.0, 2.0]),
                        flows_of(np.zeros((2, 2)), np.zeros((2, 2))), 0.7, BASE)
        assert np.array_equal(c.aggregate, np.array([7.0, 6.0]))

    def test_negative_domestic_floored_and_flagged(self):
        ms = np.zeros((2, 2))
        ms[1, 0] = 50.0
        c = consumption(np.array([40.0, 40.0]), np.array([0.0, 0.0]), flows_of(ms, ms), 0.7, BASE)
        assert c.domestic[0] == 0.0
        assert c.domestic_floored[0]
        assert not c.domestic_floored[1]

    def test_tariffs_on_exports_hit_only_overproduction_variant(self):
        y_n = np.array([100.0, 100.0])
        inv = np.zeros(2)
        ms = np.zeros((2, 2))
        ms[1, 0] = 10.0
        for tariffed_away in (0.0, 5.0):
            mt = ms.copy()
            mt[1, 0] -= tariffed_away
            base = consumption(y_n, inv, flows_of(ms, mt), 0.7, BASE)
            over = consumption(y_n, inv, flows_of(ms, mt), 0.7, OVERPRODUCTION)
            assert base.aggregate[0] == 90.0  # untouched by the tariff on it
            assert math.isclose(over.aggregate[0], 90.0 - tariffed_away, rel_tol=1e-12)

    def test_own_tariffs_only_shrink_own_foreign_consumption(self):
        y_n = np.array([100.0, 100.0])
        inv = np.zeros(2)
        ms = np.zeros((2, 2))
        ms[0, 1] = 10.0
        aggregates = []
        for level in range(10):
            rates = np.zeros((2, 2))
            rates[0, 1] = level / 10.0
            mt, _ = apply_tariffs(ms, rates)
            aggregates.append(consumption(y_n, inv, flows_of(ms, mt), 0.7, BASE).aggregate[0])
        assert all(b < a for a, b in zip(aggregates, aggregates[1:]))


class TestBalance:
    def test_balanced_trade_keeps_balance(self):
        b = step_balance(np.array([5.0]), np.array([3.0]), np.array([3.0]),
                         np.array([4.0]), BASE, 5)
        assert b[0] == 5.0

    def test_revenue_accrues_under_variant(self):
        b = step_balance(np.array([5.0]), np.array([3.0]), np.array([3.0]),
                         np.array([4.0]), REVENUE, 5)
        assert b[0] == 25.0

    def test_variant_difference_is_exactly_dt_times_revenue(self):
        args = (np.array([2.0]), np.array([7.0]), np.array([4.0]), np.array([1.5]))
        off = step_balance(*args, BASE, 5)
        on = step_balance(*args, REVENUE, 5)
        assert on[0] - off[0] == 5 * 1.5

    def test_budget_multiplier_clamped(self):
        y = np.array([10.0, 10.0, 10.0, 0.0])
        b = np.array([1000.0, -1000.0, 5.0, 3.0])
        m = import_budget_multiplier(b, y)
        assert m[0] == 1.5 and m[1] == 0.5
        assert math.isclose(m[2], 1.05, rel_tol=1e-12)
        assert m[3] == 1.0  # zero-output guard


@st.composite
def trade_scenario(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    y = rng.uniform(0.0, 200.0, size=n)
    import_levels = rng.integers(0, 10, size=(n, n))
    tariff_levels = rng.integers(0, 10, size=(n, n))
    export_levels = rng.integers(0, 10, size=n)
    np.fill_diagonal(import_levels, 0)
    np.fill_diagonal(tariff_levels, 0)
    return y, import_levels, export_levels, tariff_levels


class TestFlowInvariants:
    @given(trade_scenario())
    @settings(max_examples=200, deadline=None)
    def test_matrix_ordering_and_bounds(self, scenario):
        y, import_levels, export_levels, tariff_levels = scenario
        dm = build_demand(import_levels / 10.0, y, 0.1)
        capacity = export_levels / 10.0 * y
        ms = ration_exports(dm, capacity)
        mt, revenue = apply_tariffs(ms, tariff_levels / 10.0)
        flows = TradeFlows(ms, mt)

        assert (mt >= -1e-15).all()
        assert (mt <= ms + 1e-12).all()
        assert (ms <= dm + 1e-12).all()
        assert (ms.sum(axis=0) <= capacity + 1e-9).all()
        assert np.all(np.diag(dm) == 0)
        assert (revenue >= 0).all()
        # revenue identity: r[i] = sum_j (Ms - Mt)[i, j]
        assert np.allclose(revenue, (ms - mt).sum(axis=1), rtol=1e-12, atol=1e-12)
        # material bound: total foreign consumption never exceeds total exports
        assert mt.sum() <= ms.sum() + 1e-9
        assert flows.exports_scaled.sum() == pytest.approx(flows.imports_scaled.sum())
        # Each reduction is taken once, by the constructor, with numpy's own sum.
        assert flows.exports_scaled.tobytes() == ms.sum(axis=0).tobytes()
        assert flows.imports_scaled.tobytes() == ms.sum(axis=1).tobytes()
