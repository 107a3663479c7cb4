"""The trade and damage kernels against the plain formulas in their
docstrings, written out element by element as the oracle.

Each kernel takes a fast path when no guard is needed; these properties pin
both paths to the same bits as the formula, over inputs that include
regions with zero output, exporters with zero demand and negative balances.
Reductions (``sum``) and ``**`` are taken from numpy in the oracle too: the
kernels compute them the same way on every path, and only the operations
around them are under test. The private read-only 0-d ``float64`` operands
that the kernels use in place of Python floats are checked against the
floats they mirror.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricensim import economy, engine, trade
from ricensim.config import STEP_YEARS, VariantConfig
from ricensim.economy import (
    FRACTION_CAP,
    TRANSITIONAL_RESIDUAL,
    TRANSITIONAL_THETA3,
    WEITZMAN_A,
    WEITZMAN_B,
    WEITZMAN_C,
    abatement_fraction,
    damage_fraction,
)
from ricensim.trade import (
    BUDGET_MULTIPLIER_BOUNDS,
    TINY,
    apply_tariffs,
    build_demand,
    consumption,
    import_budget_multiplier,
    ration_exports,
)

#: Zero, a positive value below the division floor, or an ordinary output.
outputs = st.one_of(st.just(0.0), st.just(1e-305), st.floats(min_value=1e-3, max_value=1e4))
nonnegative = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e4))


def same_bits(got, expected) -> bool:
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


@st.composite
def demand_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    y = np.array(draw(st.lists(outputs, min_size=n, max_size=n)))
    # Diagonal rates included: the kernel zeroes the diagonal whatever they are.
    levels = np.array(draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n)))
    rates = levels.reshape(n, n) / 10.0
    if draw(st.booleans()):
        budget = draw(st.floats(min_value=0.01, max_value=0.5))
    else:
        budget = np.array(draw(st.lists(
            st.floats(min_value=0.01, max_value=0.5), min_size=n, max_size=n
        )))
    return rates, y, budget


@given(demand_inputs())
@settings(max_examples=300, deadline=None)
def test_build_demand_is_its_formula(inputs):
    rates, y, budget = inputs
    n = y.shape[0]
    b = np.broadcast_to(budget, (n,))
    total = float(y.sum())
    expected = np.zeros((n, n))
    for i in range(n):
        partner = total - float(y[i])
        for j in range(n):
            if i != j:
                share = float(y[j]) / max(partner, TINY) if partner > 0.0 else 0.0
                expected[i, j] = float(rates[i, j]) * (float(b[i]) * float(y[i])) * share
    assert same_bits(build_demand(rates, y, budget), expected)


@st.composite
def rationing_inputs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    demanded = np.array(draw(st.lists(nonnegative, min_size=n * n, max_size=n * n))).reshape(n, n)
    # Exporters nobody buys from: whole zero columns.
    idle = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    demanded[:, idle] = 0.0
    capacity = np.array(draw(st.lists(nonnegative, min_size=n, max_size=n)))
    return demanded, capacity


@given(rationing_inputs())
@settings(max_examples=300, deadline=None)
def test_ration_exports_is_its_formula(inputs):
    demanded, capacity = inputs
    n = demanded.shape[0]
    totals = demanded.sum(axis=0)
    expected = np.zeros((n, n))
    for j in range(n):
        total = float(totals[j])
        scale = min(1.0, float(capacity[j]) / total) if total > 0.0 else 0.0
        for i in range(n):
            expected[i, j] = float(demanded[i, j]) * scale
    assert same_bits(ration_exports(demanded, capacity), expected)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(min_value=-1e5, max_value=1e5), min_size=n, max_size=n),
            st.lists(outputs, min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_import_budget_multiplier_is_its_formula(inputs):
    balance, y = (np.array(v) for v in inputs)
    lo, hi = BUDGET_MULTIPLIER_BOUNDS
    expected = []
    for b, g in zip(balance.tolist(), y.tolist()):
        raw = 1.0 + b / (10.0 * max(g, TINY)) if g > 0.0 else 1.0
        expected.append(min(max(raw, lo), hi))
    assert same_bits(import_budget_multiplier(balance, y), expected)


temperatures = st.floats(min_value=-5.0, max_value=100.0)


def quadratic_formula(t, pi1, pi2) -> float:
    return min(1.0 - 1.0 / (1.0 + pi1 * t + pi2 * t * t), FRACTION_CAP)


def weitzman_formula(t) -> list[float]:
    """Evaluated on an array of ``t``'s own shape: numpy may round ``**`` on
    a 0-d array and on a 1-d array differently (numpy 2.4.6 on AVX-512 did,
    by one ulp, at T = 9.804122149736143)."""
    t = np.asarray(t, dtype=np.float64)
    q = t / WEITZMAN_A
    raw = 1.0 - 1.0 / (1.0 + q * q + (t / WEITZMAN_B) ** WEITZMAN_C)
    return [min(float(d), FRACTION_CAP) for d in raw.reshape(-1)]


@given(
    st.lists(temperatures, min_size=1, max_size=8),
    st.floats(min_value=0.0, max_value=0.1),
    st.floats(min_value=0.0, max_value=0.05),
)
@settings(max_examples=300, deadline=None)
def test_damage_fraction_is_its_formula(ts, pi1, pi2):
    arr = np.array(ts)
    warm = np.abs(arr)  # the weitzman power of a negative anomaly is NaN
    assert same_bits(
        damage_fraction(arr, "dice_quadratic", pi1, pi2),
        [quadratic_formula(t, pi1, pi2) for t in ts],
    )
    assert same_bits(damage_fraction(warm, "weitzman", pi1, pi2), weitzman_formula(warm))
    # The scalar temperature ``step`` passes: a Python float, or a numpy one.
    for t in ts:
        for scalar in (t, np.float64(t)):
            got = damage_fraction(scalar, "dice_quadratic", pi1, pi2)
            assert type(got) is float and same_bits(got, quadratic_formula(t, pi1, pi2)), t
            got = damage_fraction(abs(scalar), "weitzman", pi1, pi2)
            assert type(got) is float and same_bits(got, weitzman_formula(abs(t))[0]), t


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(*(
            st.lists(st.sampled_from([k / 10 for k in range(10)]), min_size=n, max_size=n)
            for _ in range(2)
        ), st.lists(st.floats(min_value=1e-3, max_value=5.0), min_size=n, max_size=n))
    ),
    st.floats(min_value=1.1, max_value=3.0),
)
@settings(max_examples=300, deadline=None)
def test_abatement_fraction_is_its_formula(inputs, theta2):
    mu, prev, theta1 = (np.array(v) for v in inputs)
    power = (mu ** theta2).tolist()
    persistent = [th * p for th, p in zip(theta1.tolist(), power)]
    transitional = []
    for m, mp, th, p in zip(mu.tolist(), prev.tolist(), theta1.tolist(), power):
        rise = max(0.0, m - mp)
        transitional.append(TRANSITIONAL_RESIDUAL * th * p + TRANSITIONAL_THETA3 * rise * rise)
    for kind, lam in (("persistent", persistent), ("transitional", transitional)):
        expected = [min(max(v, 0.0), FRACTION_CAP) for v in lam]
        got = abatement_fraction(mu, prev, kind, theta1, theta2)
        assert same_bits(got, expected), kind


#: Each private 0-d operand of the kernels, and the Python float it mirrors.
TWINS = {
    "economy._FRACTION_CAP": (economy._FRACTION_CAP, FRACTION_CAP),
    "economy._TRANSITIONAL_RESIDUAL": (economy._TRANSITIONAL_RESIDUAL, TRANSITIONAL_RESIDUAL),
    "economy._ZERO": (economy._ZERO, 0.0),
    "economy._ONE": (economy._ONE, 1.0),
    "trade._BUDGET_LO": (trade._BUDGET_LO, BUDGET_MULTIPLIER_BOUNDS[0]),
    "trade._BUDGET_HI": (trade._BUDGET_HI, BUDGET_MULTIPLIER_BOUNDS[1]),
    "trade._IMPORT_BUDGET": (trade._IMPORT_BUDGET, trade.IMPORT_BUDGET),
    "trade._TEN": (trade._TEN, 10.0),
    "trade._STEP_YEARS": (trade._STEP_YEARS, float(STEP_YEARS)),
    "engine._CAPITAL_FACTOR": (
        engine._CAPITAL_FACTOR, (1.0 - economy.DEPRECIATION) ** STEP_YEARS
    ),
}


@pytest.mark.parametrize("name", TWINS)
def test_twin_is_a_read_only_0d_float64_of_its_float(name):
    twin, public = TWINS[name]
    assert type(public) is float
    assert isinstance(twin, np.ndarray) and twin.shape == () and twin.dtype == np.float64
    assert same_bits(twin, public)
    with pytest.raises(ValueError):
        twin[...] = 0.0
    with pytest.raises(ValueError):
        twin += 1.0


def test_public_constants_stay_python_floats():
    for value in (FRACTION_CAP, *BUDGET_MULTIPLIER_BOUNDS, trade.IMPORT_BUDGET, TINY):
        assert type(value) is float


@st.composite
def tariff_inputs(draw):
    """A rationed matrix (zero diagonal, some zero entries) and tariff rates."""
    n = draw(st.integers(min_value=2, max_value=6))
    scaled = np.array(draw(st.lists(nonnegative, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(scaled, 0.0)
    levels = np.array(draw(st.lists(st.integers(0, 9), min_size=n * n, max_size=n * n)))
    rates = levels.reshape(n, n) / 10.0
    np.fill_diagonal(rates, 0.0)
    return scaled, rates


def tariff_formula(scaled, rates):
    """``tariffed[i, j] = scaled[i, j] * (1 - rate[i, j])`` and the row sums
    of the wedge ``scaled[i, j] * rate[i, j]``."""
    n = scaled.shape[0]
    tariffed, wedge = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            tariffed[i, j] = float(scaled[i, j]) * (1.0 - float(rates[i, j]))
            wedge[i, j] = float(scaled[i, j]) * float(rates[i, j])
    return tariffed, np.add.reduce(wedge, 1)


@given(tariff_inputs())
@settings(max_examples=300, deadline=None)
def test_apply_tariffs_is_its_formula(inputs):
    scaled, rates = inputs
    tariffed, revenue = apply_tariffs(scaled, rates, 1.0 - rates)
    expected_tariffed, expected_revenue = tariff_formula(scaled, rates)
    assert same_bits(tariffed, expected_tariffed)
    assert same_bits(revenue, expected_revenue)


@given(
    tariff_inputs().flatmap(lambda inputs: st.tuples(
        st.just(inputs),
        *(st.lists(nonnegative, min_size=len(inputs[0]), max_size=len(inputs[0]))
          for _ in range(2)),
    )),
    st.one_of(st.just(1), st.floats(min_value=1e-3, max_value=1.0)),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_consumption_is_its_formula(inputs, foreign_weight, overproduction_penalty):
    """``domestic = max(net - investment - exports [- tariffed away], 0)``,
    ``aggregate = domestic + foreign_weight * foreign``, whether the weight
    is a number (an ``int`` among them) or its 0-d ``float64`` twin."""
    (scaled, rates), net, investment = inputs
    tariffed, _ = tariff_formula(scaled, rates)
    n = scaled.shape[0]
    exports = np.add.reduce(scaled, 0)
    tariffed_away = np.add.reduce(
        np.array([[float(scaled[i, j]) - float(tariffed[i, j]) for j in range(n)]
                  for i in range(n)]),
        0,
    )
    foreign = np.add.reduce(tariffed, 1)
    raw = []
    for i in range(n):
        d = net[i] - investment[i] - float(exports[i])
        if overproduction_penalty:
            d = d - float(tariffed_away[i])
        raw.append(d)
    domestic = [max(d, 0.0) for d in raw]
    aggregate = [d + foreign_weight * float(f) for d, f in zip(domestic, foreign.tolist())]
    variant = VariantConfig(overproduction_penalty=overproduction_penalty)
    for weight in (foreign_weight, np.array(float(foreign_weight))):
        got = consumption(
            np.array(net), np.array(investment), exports, scaled, tariffed, weight, variant
        )
        assert same_bits(got.domestic, domestic)
        assert same_bits(got.foreign, foreign)
        assert same_bits(got.aggregate, aggregate)
        assert got.domestic_floored.tolist() == [d < 0.0 for d in raw]
