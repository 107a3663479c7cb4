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
    """Entry-by-entry equality of two 5-entry action sets; ``==`` on the
    tuples would compare their partner rows element by element."""
    return len(a) == len(b) == 5 and all(map(np.array_equal, a, b))


class TestFixedLevels:
    def test_ideal_trade_levels_unmasked(self):
        savings, mitigation, export, imports, tariffs = IDEAL_TRADE_POLICY.act(obs(), None, None)
        assert mitigation == 9
        assert savings == 3
        assert export == 9
        assert set(imports) == {0, 9} and imports[0] == 0
        assert all(t == 0 for t in tariffs)

    def test_masked_level_snaps_to_commitment_floor(self):
        policy = FixedLevelsPolicy(savings=3, mitigation=2, export=0, imports=0, tariffs=0)
        savings, mitigation, export, _, _ = policy.act(obs(), build_mask(7), None)
        assert mitigation == 7
        assert savings == 3  # a mask floors mitigation only
        assert export == 0

    def test_desired_level_above_floor_kept(self):
        policy = FixedLevelsPolicy(savings=3, mitigation=8, export=0, imports=0, tariffs=0)
        assert policy.act(obs(), build_mask(7), None)[1] == 8

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
        savings, mitigation, *_ = policy.act(
            obs(), build_mask(commitment), np.random.default_rng(seed)
        )
        assert mitigation >= commitment
        # Savings is drawn first, from 0, whatever the floor.
        assert savings == policy.act(obs(), None, np.random.default_rng(seed))[0]


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
            assert got[:3] == (savings, mitigation, export)
            assert np.array_equal(got[3], _partner_matrix(4, imports)[1])
            assert np.array_equal(got[4], _partner_matrix(4, tariffs)[1])
            assert ours.bit_generator.state == reference.bit_generator.state


class TestPariahOverride:
    def test_free_trade_condition_forces_zero(self):
        base = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=6)
        policy = PariahOverridePolicy(base, target=2, tariff_level=0)
        tariffs = policy.act(obs(region=0), None, None)[4]
        assert tariffs[2] == 0
        assert tariffs[1] == 6

    def test_modifies_only_target_entry(self):
        base = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=0)
        policy = PariahOverridePolicy(base, target=2, tariff_level=9)
        for region in range(4):
            plain = base.act(obs(region=region), None, None)
            overridden = policy.act(obs(region=region), None, None)
            if region == 2:
                assert same_set(overridden, plain)
                continue
            assert overridden[4][2] == 9
            assert np.array_equal(overridden[3], plain[3])
            assert overridden[:3] == plain[:3]
            assert all(overridden[4][j] == plain[4][j] for j in range(4) if j != 2)

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
        assert after[4].base is before[4].base
        assert np.array_equal(after[4], [0, 6, 6, 6])
        assert np.array_equal(overridden[4], [0, 6, 0, 6])
        for row in (before[3], before[4], overridden[4]):
            assert row.dtype == np.int64 and not row.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                row[1] = 5

    @pytest.mark.parametrize("target", [True, False, 1.5, "1", None, np.int64(1), -1])
    def test_a_target_that_is_no_region_index_is_rejected_when_built(self, target):
        with pytest.raises(InvalidActionError, match="pariah target must be a region index"):
            PariahOverridePolicy(IDEAL_TRADE_POLICY, target=target, tariff_level=9)

    @pytest.mark.parametrize("tariff_level", [9, 0, None])
    @pytest.mark.parametrize("target", [4, 5])
    def test_a_target_outside_the_world_is_rejected_when_acting(self, target, tariff_level):
        policy = PariahOverridePolicy(IDEAL_TRADE_POLICY, target=target, tariff_level=tariff_level)
        for region in range(4):
            with pytest.raises(
                InvalidActionError, match=f"pariah target {target} outside a world of 4 regions"
            ):
                policy.act(obs(region=region), None, None)
        policy.act(obs(region=0, n=target + 1), None, None)


#: Each policy of the set contract, as it acts at ``n`` regions.
CONTRACT_POLICIES = {
    "fixed": lambda n: FixedLevelsPolicy(savings=3, mitigation=2, export=9, imports=7, tariffs=4),
    "random": lambda n: UniformRandomPolicy(),
    "pariah": lambda n: PariahOverridePolicy(IDEAL_TRADE_POLICY, target=n - 1, tariff_level=9),
}


@pytest.mark.parametrize("mask", [None, 6], ids=["no mask", "mask 6"])
@pytest.mark.parametrize("n", [2, 27])
@pytest.mark.parametrize("name", list(CONTRACT_POLICIES))
def test_every_policy_returns_the_set_from_action_sets_takes(name, n, mask):
    """Each ``act`` returns a plain 5-tuple: three integer levels in 0..9,
    mitigation at or above the mask's floor, then two read-only ``[n]``
    ``int64`` partner rows with 0 toward the region itself."""
    policy = CONTRACT_POLICIES[name](n)
    world = reset(SimParams(n_regions=n), VariantConfig(), 3)
    rng = np.random.default_rng(n)
    for region in range(n):
        entries = policy.act(world.observation(region), mask, rng)
        assert type(entries) is tuple and len(entries) == 5
        for level in entries[:3]:
            assert isinstance(level, (int, np.int64)) and 0 <= level < NUM_LEVELS
        assert entries[1] >= (mask or 0)
        for row in entries[3:]:
            assert row.dtype == np.int64 and row.shape == (n,) and not row.flags.writeable
            assert row[region] == 0
