import dataclasses
import hashlib
import math

import numpy as np
import pytest

from ricensim import (
    ClimateParams,
    DisasterPenalty,
    FixedLevelsPolicy,
    JointActions,
    NegotiationConfig,
    SimParams,
    UniformRandomPolicy,
    VariantConfig,
)
from ricensim import economy
from ricensim.engine import (
    reset,
    run_episode,
    run_fixed_actions_summary,
    step,
)
from ricensim.errors import ConfigError, MaskViolationError
from ricensim.policies import IDEAL_TRADE_POLICY, PariahOverridePolicy


def world_fingerprint(w):
    return (
        w.capital.tobytes(), w.labor.tobytes(), w.productivity.tobytes(),
        w.intensity.tobytes(), w.balance.tobytes(), w.carbon.tobytes(),
        w.t_atmosphere, w.t_ocean,
    )


class TestReset:
    def test_deterministic(self, small_params, baseline):
        a = reset(small_params, baseline, 9)
        b = reset(small_params, baseline, 9)
        assert world_fingerprint(a) == world_fingerprint(b)

    def test_two_region_world(self, baseline):
        w = reset(SimParams(n_regions=2), baseline, 0)
        assert w.n_regions == 2

    def test_default_schedule_has_twenty_steps(self, default_params):
        assert default_params.n_steps == 20

    def test_initial_climate_defaults(self, small_params, baseline):
        w = reset(small_params, baseline, 0)
        assert tuple(w.carbon) == (850.0, 460.0, 1740.0)
        assert w.t_atmosphere == 1.1 and w.t_ocean == 0.3


class TestStep:
    def test_pure_given_identical_inputs(self, small_params, baseline):
        w = reset(small_params, baseline, 1)
        actions = JointActions.uniform(4, 3, 5, 2, 4, 1)
        r1 = step(w, actions)
        r2 = step(w, actions)
        assert np.array_equal(r1.detail.rewards, r2.detail.rewards)
        assert world_fingerprint(r1.world) == world_fingerprint(r2.world)

    def test_all_zero_actions_reward_is_net_output(self, small_params, baseline):
        w = reset(small_params, baseline, 1)
        result = step(w, JointActions.uniform(4, 0, 0, 0, 0, 0))
        assert np.array_equal(result.detail.rewards, result.detail.net_output)
        assert np.all(result.detail.investment == 0)
        assert np.allclose(
            result.world.capital, w.capital * 0.9**5, rtol=1e-12, atol=0
        )

    def test_reward_is_aggregate_consumption_without_disaster(self, small_params, baseline):
        w = reset(small_params, baseline, 1)
        result = step(w, JointActions.uniform(4, 3, 2, 5, 6, 2))
        assert np.array_equal(result.detail.rewards, result.detail.consumption.aggregate)

    def test_disaster_penalty_applied_beyond_threshold(self, small_params):
        hot = dataclasses.replace(
            small_params,
            climate=ClimateParams(initial_t_atmosphere=3.5),
        )
        variant = VariantConfig(disaster=DisasterPenalty(threshold_degc=3.0, penalty=1e6))
        base = VariantConfig()
        actions = JointActions.uniform(4, 3, 2, 5, 6, 2)
        with_penalty = step(reset(hot, variant, 1), actions)
        without = step(reset(hot, base, 1), actions)
        assert np.array_equal(without.detail.rewards - with_penalty.detail.rewards, np.full(4, 1e6))

    def test_replaced_rates_step_like_the_in_step_formula(self, small_params, baseline):
        """The growth factors come from the constants' constructor, so rates
        swapped in after ``reset`` are the ones the step grows by."""
        w = reset(small_params, baseline, 1)
        n, dt, p = w.n_regions, small_params.dt_years, small_params
        rates = {
            "theta1": np.full(n, 0.05),
            "productivity_growth": np.linspace(0.0, 0.03, n),
            "labor_growth": np.full(n, 0.02),
            "intensity_decline": np.linspace(0.01, 0.04, n),
        }
        w.constants = dataclasses.replace(w.constants, **rates)
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.constants.labor_growth = np.zeros(n)
        assert not w.constants.labor_growth.flags.writeable
        actions = JointActions.uniform(n, 3, 5, 2, 4, 1)
        result = step(w, actions)
        new, d = result.world, result.detail
        expected = {
            "labor": w.labor * (1.0 + rates["labor_growth"]) ** dt,
            "productivity": w.productivity * (1.0 + rates["productivity_growth"]) ** dt,
            "intensity": w.intensity * (1.0 - rates["intensity_decline"]) ** dt,
            "capital": w.capital * (1.0 - p.depreciation) ** dt + dt * d.investment,
        }
        for name, value in expected.items():
            assert getattr(new, name).tobytes() == value.tobytes(), name
        abatement = economy.abatement_fraction(
            actions.mitigation / 10.0, w.mitigation_prev, baseline.abatement_kind,
            rates["theta1"], p.theta2, p.theta3,
        )
        assert d.abatement_fraction.tobytes() == abatement.tobytes()

    def test_emissions_identity_every_step(self, small_params, baseline):
        rec = run_episode(small_params, baseline, FixedLevelsPolicy(4, 6, 3, 5, 2), 3)
        for t in range(rec.n_steps):
            mu = rec.mitigation_levels[t] / 10.0
            # sigma at step t is not recorded, so verify via the identity chain:
            # emissions / ((1 - mu) * gross_output) must be constant across a
            # region's trajectory up to the exogenous intensity decline.
            ratio = rec.emissions[t] / ((1 - mu) * rec.gross_output[t])
            assert np.all(ratio > 0)
            if t > 0:
                prev = rec.emissions[t - 1] / (
                    (1 - rec.mitigation_levels[t - 1] / 10.0) * rec.gross_output[t - 1]
                )
                assert np.all(ratio < prev)


class TestEpisodes:
    def test_bitwise_reproducible(self, small_params, baseline):
        a = run_episode(small_params, baseline, FixedLevelsPolicy(3, 9, 9, 9, 0), 5)
        b = run_episode(small_params, baseline, FixedLevelsPolicy(3, 9, 9, 9, 0), 5)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.carbon, b.carbon)
        assert a.delta_t_end == b.delta_t_end

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_record_and_fixed_action_summary_agree_bitwise(self, default_params, baseline, seed):
        """The full record and the endpoints-only rollout share one loop, so
        their endpoints are the same floats."""
        for levels in [(3, 0, 0, 0, 0), (5, 5, 9, 9, 0), (9, 9, 2, 7, 4), (0, 9, 9, 9, 9)]:
            rec = run_episode(default_params, baseline, FixedLevelsPolicy(*levels), seed)
            summary = run_fixed_actions_summary(
                default_params, baseline, JointActions.uniform(27, *levels), seed
            )
            for name in ("delta_t_end", "y_cum", "d_end", "cumulative_emissions",
                         "final_carbon_total"):
                assert getattr(rec, name) == getattr(summary, name), (levels, name)
            assert rec.total_reward.tobytes() == summary.total_reward.tobytes(), levels

    def test_action_irrelevance_for_climate_and_output(self, default_params, baseline):
        """Trade actions never touch production or emissions: with (savings,
        mitigation) fixed, any import/export/tariff combination gives
        bitwise-identical warming and cumulative output."""
        outcomes = set()
        for export, imports, tariffs in [(0, 0, 0), (9, 9, 0), (9, 9, 9), (2, 7, 4)]:
            s = run_fixed_actions_summary(
                default_params, baseline,
                JointActions.uniform(27, 3, 5, export, imports, tariffs), 4,
            )
            outcomes.add((s.delta_t_end, s.y_cum))
        assert len(outcomes) == 1

    def test_trade_actions_do_change_rewards(self, default_params, baseline):
        rewards = set()
        for export, imports, tariffs in [(0, 0, 0), (9, 9, 0), (9, 9, 9)]:
            s = run_fixed_actions_summary(
                default_params, baseline,
                JointActions.uniform(27, 3, 5, export, imports, tariffs), 4,
            )
            rewards.add(round(s.mean_total_reward, 9))
        assert len(rewards) == 3

    def test_carbon_conservation_over_episode(self, default_params, baseline):
        s = run_fixed_actions_summary(
            default_params, baseline, JointActions.uniform(27, 3, 0, 9, 9, 0), 2
        )
        drift = abs(
            s.final_carbon_total - s.initial_carbon_total - s.cumulative_emissions
        )
        assert drift <= 1e-9 * s.final_carbon_total


class TestNegotiation:
    def negotiating(self, params):
        return dataclasses.replace(
            params, negotiation=NegotiationConfig(enabled=True, dimensions=("mitigation",))
        )

    def test_mask_violation_identifies_region_and_dimension(self, small_params, baseline):
        params = self.negotiating(small_params)
        w = reset(params, baseline, 6)
        assert w.commitments is not None and w.commitments.max() > 0
        bad = JointActions.uniform(4, 3, 0, 0, 0, 0)
        with pytest.raises(MaskViolationError) as err:
            step(w, bad)
        assert err.value.dimension == "mitigation"
        assert 0 <= err.value.region < 4

    def test_mask_soundness_over_episodes(self, small_params, baseline):
        params = self.negotiating(small_params)
        for seed in range(5):
            rec = run_episode(params, baseline, UniformRandomPolicy(), seed)
            assert rec.commitments is not None
            assert np.all(rec.mitigation_levels >= rec.commitments)

    def test_enforcement_switch_disables_masks(self, small_params, baseline):
        params = dataclasses.replace(
            small_params,
            negotiation=NegotiationConfig(enabled=True, enforce_masks=False),
        )
        w = reset(params, baseline, 6)
        assert w.masks() is None  # commitments recorded but not binding
        low = JointActions.uniform(4, 3, 0, 0, 0, 0)
        result = step(w, low)  # no violation raised
        assert result.detail.commitments is not None

    def test_fixed_actions_reject_enforced_masks(self, small_params, baseline):
        actions = JointActions.uniform(4, 3, 0, 0, 0, 0)
        with pytest.raises(ConfigError, match="sim.negotiation.enforce_masks"):
            run_fixed_actions_summary(self.negotiating(small_params), baseline, actions, 6)
        # Unenforced commitments leave the rollout's arithmetic alone.
        unenforced = dataclasses.replace(
            small_params, negotiation=NegotiationConfig(enabled=True, enforce_masks=False)
        )
        a = run_fixed_actions_summary(unenforced, baseline, actions, 6)
        b = run_fixed_actions_summary(small_params, baseline, actions, 6)
        assert (a.delta_t_end, a.y_cum) == (b.delta_t_end, b.y_cum)
        assert a.total_reward.tobytes() == b.total_reward.tobytes()

    @pytest.mark.parametrize(
        "negotiation, acts_every_step",
        [
            (NegotiationConfig(), False),
            (NegotiationConfig(enabled=True, enforce_masks=False), False),
            (NegotiationConfig(enabled=True), True),
        ],
        ids=["off", "unenforced", "enforced"],
    )
    def test_static_policy_acts_every_step_only_under_binding_masks(
        self, small_params, baseline, monkeypatch, negotiation, acts_every_step
    ):
        calls = []
        act = FixedLevelsPolicy.act

        def counting_act(policy, observation, mask, rng):
            calls.append(observation.region)
            return act(policy, observation, mask, rng)

        monkeypatch.setattr(FixedLevelsPolicy, "act", counting_act)
        params = dataclasses.replace(small_params, negotiation=negotiation)
        run_episode(params, baseline, FixedLevelsPolicy(1, 2, 9, 9, 0), 6)
        steps = params.n_steps if acts_every_step else 1
        assert calls == list(range(4)) * steps

    def test_equal_commitments_share_one_mask(self, small_params, baseline, monkeypatch):
        from ricensim import engine

        built = []
        build = engine.build_mask
        monkeypatch.setattr(
            engine, "build_mask", lambda level, dims: built.append(level) or build(level, dims)
        )
        w = reset(self.negotiating(small_params), baseline, 6)
        masks = w.masks()
        assert built == [int(w.commitments[0])]  # all-accept: one commitment for all
        assert masks == [build(built[0], ("mitigation",))] * 4

    def test_commitments_recorded_per_step(self, small_params, baseline):
        params = self.negotiating(small_params)
        rec = run_episode(params, baseline, UniformRandomPolicy(), 1)
        assert rec.commitments.shape == (params.n_steps, 4)
        assert rec.commitments.max() <= 9


#: ``float.hex`` of (delta_t_end, y_cum, mean_total_reward, final_carbon_total)
#: of ``run_fixed_actions_summary`` on the default 27-region world, recorded
#: before the trade and damage kernels were rewritten for speed. Any change
#: that moves a bit of the engine's arithmetic fails here.
GOLDEN_SUMMARIES = {
    ((3, 0, 0, 0, 0), 0): ("0x1.535db50ae48b6p+4", "0x1.5e12fbfd8da9ep+20",
                           "0x1.b92f38c97b0cep+12", "0x1.11b2bb9efc2dcp+18"),
    ((3, 0, 0, 0, 0), 7): ("0x1.5dd2f4c1f9b8fp+4", "0x1.7058fb7195f3ap+20",
                           "0x1.ce4246e617882p+12", "0x1.4e860b4811c5ep+18"),
    ((3, 9, 9, 9, 0), 0): ("0x1.8f7f0af941fc4p+3", "0x1.5e2d0d038e5d4p+20",
                           "0x1.ab1de2050345bp+12", "0x1.e0ad1055302b5p+14"),
    ((3, 9, 9, 9, 0), 7): ("0x1.a3409d229b619p+3", "0x1.712332538f621p+20",
                           "0x1.c278f39016de9p+12", "0x1.215ebf0b78958p+15"),
    ((9, 4, 2, 7, 5), 0): ("0x1.4e89e9d9ee36fp+4", "0x1.151224d0f551dp+21",
                           "0x1.9e61cdf450074p+9", "0x1.02f00b3f962abp+18"),
    ((9, 4, 2, 7, 5), 7): ("0x1.591114c723230p+4", "0x1.23e170ec6f86cp+21",
                           "0x1.b14eba2e10988p+9", "0x1.3cf5e61a14fbfp+18"),
}

#: SHA-256 over every array of the ``run_episode`` record of a pariah-style
#: policy (everyone at the high-trade levels, all tariffing region 0 at level
#: 9) at seed 3, recorded together with ``GOLDEN_SUMMARIES``.
GOLDEN_PARIAH_RECORD_SHA256 = "c583a4df513e570c98c9a7db0be0076fb629087bc5e57836c65ffc41ad0a3cee"


#: SHA-256 of the ``run_episode`` record of each negotiated episode on the
#: default world at seed 3, keyed by (policy, negotiated dimensions,
#: ``enforce_masks``). The fixed policy's mitigation (2) and savings (1) sit
#: below most commitments, so the floor moves its levels whenever masks bind.
#: Recorded before masks became integer floors.
GOLDEN_NEGOTIATED_RECORD_SHA256 = {
    ("random", ("mitigation",), True):
        "95e279a26065216be1209c301f2aaa9af16a489093b36d9341c5a9df156f4dda",
    ("random", ("mitigation",), False):
        "fd72be9a5efc3ead8711fc68b84fbbe3faee0344683d6e0eba6eaaab764b75bd",
    ("random", ("savings", "mitigation"), True):
        "59d834d741076d2ccc194966665cbb7750683d339f0b68273b903bc9d322ecc4",
    ("random", ("savings", "mitigation"), False):
        "fd72be9a5efc3ead8711fc68b84fbbe3faee0344683d6e0eba6eaaab764b75bd",
    ("fixed", ("mitigation",), True):
        "4ac49911cc24d89df80a0e06d4f8fe1a63dda199a3a87563ba45394c7b560382",
    ("fixed", ("mitigation",), False):
        "a69de70dc7d94c761de18fb220d08f67efc17758c49a9b5bc806af9a69bccf8e",
    ("fixed", ("savings", "mitigation"), True):
        "1fa5a7927cd08506aef643f084f24ea52bc438a10582ac4b209ab3f29a2ed1f5",
    ("fixed", ("savings", "mitigation"), False):
        "a69de70dc7d94c761de18fb220d08f67efc17758c49a9b5bc806af9a69bccf8e",
    # Recorded when a static policy acted every step under any negotiation.
    ("pariah", ("mitigation",), False):
        "a52871246b6ff65f710cfdccd9efb1bc6aa35e22cd730591649c7b0ed26a280e",
}

NEGOTIATED_POLICIES = {
    "random": UniformRandomPolicy(),
    "fixed": FixedLevelsPolicy(savings=1, mitigation=2, export=9, imports=9, tariffs=0),
    "pariah": PariahOverridePolicy(IDEAL_TRADE_POLICY, target=0, tariff_level=9),
}


def record_digest(rec) -> str:
    """SHA-256 over the name, dtype, shape and bytes of every array field."""
    digest = hashlib.sha256()
    for field in dataclasses.fields(rec):
        value = getattr(rec, field.name)
        if isinstance(value, np.ndarray):
            digest.update(field.name.encode())
            digest.update(value.dtype.str.encode())
            digest.update(repr(value.shape).encode())
            digest.update(value.tobytes())
    return digest.hexdigest()


class TestGoldenBits:
    @pytest.mark.parametrize("levels, seed", list(GOLDEN_SUMMARIES))
    def test_fixed_action_summary_bits(self, default_params, baseline, levels, seed):
        s = run_fixed_actions_summary(
            default_params, baseline, JointActions.uniform(27, *levels), seed
        )
        got = tuple(
            float.hex(getattr(s, name))
            for name in ("delta_t_end", "y_cum", "mean_total_reward", "final_carbon_total")
        )
        assert got == GOLDEN_SUMMARIES[levels, seed]

    def test_pariah_record_bits(self, default_params, baseline):
        policy = PariahOverridePolicy(IDEAL_TRADE_POLICY, target=0, tariff_level=9)
        rec = run_episode(default_params, baseline, policy, 3)
        assert record_digest(rec) == GOLDEN_PARIAH_RECORD_SHA256

    @pytest.mark.parametrize("case", list(GOLDEN_NEGOTIATED_RECORD_SHA256))
    def test_negotiated_record_bits(self, default_params, baseline, case):
        policy, dimensions, enforce = case
        params = dataclasses.replace(
            default_params,
            negotiation=NegotiationConfig(
                enabled=True, dimensions=dimensions, enforce_masks=enforce
            ),
        )
        rec = run_episode(params, baseline, NEGOTIATED_POLICIES[policy], 3)
        assert record_digest(rec) == GOLDEN_NEGOTIATED_RECORD_SHA256[case]
