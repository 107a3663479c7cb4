import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ricensim.actions import NUM_LEVELS, _partner_matrix
from ricensim.engine import reset
from ricensim.config import SimParams, VariantConfig
from ricensim.errors import InvalidActionError
from ricensim.negotiation import build_mask, masked_sample
from ricensim.policies import (
    IDEAL_TRADE_POLICY,
    FixedLevelsPolicy,
    PariahOverridePolicy,
    UniformRandomPolicy,
)


def obs(region=0, n=4):
    world = reset(SimParams(n_regions=n), VariantConfig(), 3)
    return world.observation(region)


def same_set(a, b) -> bool:
    """Field-by-field equality of two action sets; ``==`` on sets is
    identity, as their partner vectors are arrays."""
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in a._fields)


class TestFixedLevels:
    def test_ideal_trade_levels_unmasked(self):
        a = IDEAL_TRADE_POLICY.act(obs(), None, None)
        assert a.mitigation_level == 9
        assert a.savings_level == 3
        assert a.max_export_level == 9
        assert set(a.import_levels) == {0, 9} and a.import_levels[0] == 0
        assert all(t == 0 for t in a.tariff_levels)

    def test_masked_level_snaps_to_commitment_floor(self):
        policy = FixedLevelsPolicy(savings=3, mitigation=2, export=0, imports=0, tariffs=0)
        a = policy.act(obs(), build_mask(7), None)
        assert a.mitigation_level == 7
        assert a.savings_level == 3  # a mask floors mitigation only
        assert a.max_export_level == 0

    def test_desired_level_above_floor_kept(self):
        policy = FixedLevelsPolicy(savings=3, mitigation=8, export=0, imports=0, tariffs=0)
        a = policy.act(obs(), build_mask(7), None)
        assert a.mitigation_level == 8

    def test_zero_floor_acts_as_no_mask(self):
        policy = FixedLevelsPolicy(savings=1, mitigation=2, export=4, imports=0, tariffs=0)
        assert same_set(policy.act(obs(), build_mask(0), None), policy.act(obs(), None, None))

    @pytest.mark.parametrize("bad", [-1, 10, 2.5, True])
    def test_levels_outside_the_action_space_rejected(self, bad):
        with pytest.raises(InvalidActionError):
            FixedLevelsPolicy(savings=3, mitigation=bad, export=0, imports=0, tariffs=0)
        with pytest.raises(InvalidActionError):
            PariahOverridePolicy(IDEAL_TRADE_POLICY, target=0, tariff_level=bad)


class TestUniformRandom:
    def test_reproducible_given_seed(self):
        policy = UniformRandomPolicy()
        a = policy.act(obs(), None, np.random.default_rng(5))
        b = policy.act(obs(), None, np.random.default_rng(5))
        assert same_set(a, b)

    @given(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=60, deadline=None)
    def test_never_violates_mask(self, commitment, seed):
        policy = UniformRandomPolicy()
        a = policy.act(obs(), build_mask(commitment), np.random.default_rng(seed))
        assert a.mitigation_level >= commitment
        # Savings is drawn first, from 0, whatever the floor.
        unmasked = policy.act(obs(), None, np.random.default_rng(seed))
        assert a.savings_level == unmasked.savings_level


    def test_zero_floor_draws_as_no_mask(self):
        policy = UniformRandomPolicy()
        masked = policy.act(obs(), build_mask(0), np.random.default_rng(5))
        assert same_set(masked, policy.act(obs(), None, np.random.default_rng(5)))

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "half-word buffered"])
    @pytest.mark.parametrize("floor", [None, *range(NUM_LEVELS)])
    def test_same_draws_and_state_as_five_masked_samples(self, floor, buffered):
        """``act`` draws the unmasked levels with ``rng.integers`` directly:
        the levels and the generator state it leaves are those of the five
        ``masked_sample`` calls, the unmasked ones at floor 0."""
        for seed in range(20):
            ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            if buffered:
                ours.integers(NUM_LEVELS), reference.integers(NUM_LEVELS)
                assert ours.bit_generator.state["has_uint32"] == 1
            got = UniformRandomPolicy().act(obs(region=1), floor, ours)
            savings, mitigation, export, imports, tariffs = (
                masked_sample(lo, reference) for lo in (0, floor or 0, 0, 0, 0)
            )
            assert (got.savings_level, got.mitigation_level, got.max_export_level) == (
                savings, mitigation, export
            )
            assert np.array_equal(got.import_levels, _partner_matrix(4, imports)[1])
            assert np.array_equal(got.tariff_levels, _partner_matrix(4, tariffs)[1])
            assert ours.bit_generator.state == reference.bit_generator.state


class TestPariahOverride:
    def test_free_trade_condition_forces_zero(self):
        base = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=6)
        policy = PariahOverridePolicy(base, target=2, tariff_level=0)
        a = policy.act(obs(region=0), None, None)
        assert a.tariff_levels[2] == 0
        assert a.tariff_levels[1] == 6

    def test_modifies_only_target_entry(self):
        base = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=0)
        policy = PariahOverridePolicy(base, target=2, tariff_level=9)
        for region in range(4):
            plain = base.act(obs(region=region), None, None)
            overridden = policy.act(obs(region=region), None, None)
            if region == 2:
                assert same_set(overridden, plain)
                continue
            assert overridden.tariff_levels[2] == 9
            assert np.array_equal(overridden.import_levels, plain.import_levels)
            assert overridden.savings_level == plain.savings_level
            assert overridden.mitigation_level == plain.mitigation_level
            assert overridden.max_export_level == plain.max_export_level
            assert all(
                overridden.tariff_levels[j] == plain.tariff_levels[j]
                for j in range(4)
                if j != 2
            )

    def test_control_condition_is_base_policy(self):
        base = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=0)
        policy = PariahOverridePolicy(base, target=2, tariff_level=None)
        assert same_set(policy.act(obs(region=1), None, None), base.act(obs(region=1), None, None))

    def test_override_leaves_the_shared_rows_alone(self):
        base = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=6)
        policy = PariahOverridePolicy(base, target=2, tariff_level=0)
        before = base.act(obs(region=0), None, None)
        overridden = policy.act(obs(region=0), None, None)
        after = base.act(obs(region=0), None, None)
        # The base rows are one cached array per region count and level.
        assert after.tariff_levels.base is before.tariff_levels.base
        assert np.array_equal(after.tariff_levels, [0, 6, 6, 6])
        assert np.array_equal(overridden.tariff_levels, [0, 6, 0, 6])
        for row in (before.import_levels, before.tariff_levels, overridden.tariff_levels):
            assert row.dtype == np.int64 and not row.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                row[1] = 5
