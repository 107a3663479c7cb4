import numpy as np
import pytest

from ricensim.config import NegotiationConfig, SimParams, VariantConfig
from ricensim.engine import reset
from ricensim.errors import ConfigError
from ricensim.regions import (
    ABATEMENT_THETA1_RANGE,
    CAPITAL_RANGE,
    INTENSITY_DECLINE_RANGE,
    INTENSITY_RANGE,
    LABOR_GROWTH_RANGE,
    LABOR_RANGE,
    PRODUCTIVITY_GROWTH_RANGE,
    PRODUCTIVITY_RANGE,
    generate_regions,
)

RANGES = {
    "productivity": PRODUCTIVITY_RANGE,
    "capital": CAPITAL_RANGE,
    "labor": LABOR_RANGE,
    "intensity": INTENSITY_RANGE,
    "productivity_growth": PRODUCTIVITY_GROWTH_RANGE,
    "labor_growth": LABOR_GROWTH_RANGE,
    "intensity_decline": INTENSITY_DECLINE_RANGE,
    "theta1": ABATEMENT_THETA1_RANGE,
}


def test_deterministic_for_same_seed():
    """A repeat call returns a new dict of equal, read-only arrays."""
    a = generate_regions(27, 123)
    b = generate_regions(27, 123)
    assert a is not b
    assert a.keys() == b.keys()
    for key in a:
        assert a[key].tobytes() == b[key].tobytes()
        for values in (a[key], b[key]):
            assert not values.flags.writeable, key
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0


def test_two_region_world_satisfies_invariants():
    w = reset(SimParams(n_regions=2), VariantConfig(), 5)
    c = w.constants
    for arr in (w.capital, w.mitigation_prev, w.balance, c.theta1):
        assert arr.shape == (2,)
    for path in (c.labor_path, c.productivity_path, c.intensity_path, c.labor_term):
        assert path.shape == (21, 2)
    assert np.all(w.capital >= 0) and np.all(c.labor_path > 0) and np.all(c.productivity_path > 0)
    assert np.all(c.intensity_path >= 0)
    assert np.all(w.mitigation_prev == 0.0) and np.all(w.balance == 0.0)


def test_different_seeds_differ_fieldwise():
    a = generate_regions(27, 7)
    b = generate_regions(27, 8)
    assert any(
        not np.array_equal(a[k], b[k]) for k in ("capital", "labor", "productivity")
    )


def test_rejects_single_region():
    with pytest.raises(ConfigError, match=r"sim\.n_regions: expected an integer in 2\.\."):
        generate_regions(1, 0)


def test_invariants_and_ranges_hold_over_many_seeds():
    for seed in range(1000):
        regions = generate_regions(5, seed)
        assert regions.keys() == RANGES.keys()
        for key, (lo, hi) in RANGES.items():
            assert regions[key].shape == (5,)
            assert np.all((lo <= regions[key]) & (regions[key] <= hi)), key


def test_changing_a_returned_dict_leaves_later_calls_unchanged():
    expected = {key: values.copy() for key, values in generate_regions(27, 321).items()}
    first = generate_regions(27, 321)
    first.pop("capital")
    first["labor"] = np.zeros(27)
    first["extra"] = np.ones(27)
    again = generate_regions(27, 321)
    assert again.keys() == expected.keys()
    assert all(again[key].tobytes() == expected[key].tobytes() for key in expected)


def test_reset_world_state_is_read_only():
    params = SimParams(negotiation=NegotiationConfig(enabled=True))
    world = reset(params, VariantConfig(), 4)
    c = world.constants
    state = (
        world.capital, world.mitigation_prev, world.balance, world.carbon, world.commitments,
        c.theta1, c.foreign_weight, c.labor_path, c.productivity_path, c.intensity_path,
        c.labor_term, c.commitments,
    )
    for values in state:
        assert isinstance(values, np.ndarray)
        assert not values.flags.writeable
