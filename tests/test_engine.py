import dataclasses
import hashlib

import numpy as np
import pytest

from ricensim import (
    ACTION_DIMENSIONS,
    DisasterPenalty,
    FixedLevelsPolicy,
    JointActions,
    NegotiationConfig,
    SimParams,
    UniformRandomPolicy,
    VariantConfig,
)
from ricensim import economy, engine
from ricensim.config import STEP_YEARS
from ricensim.engine import (
    HISTORY_FIELDS,
    EpisodeRecord,
    StepDetail,
    episode_constants,
    reset,
    run_episode,
    step,
)
from ricensim.errors import ConfigError, DomainError, MaskViolationError
from ricensim.policies import IDEAL_TRADE_POLICY, PariahOverridePolicy
from ricensim.regions import generate_regions

from conftest import DISPATCH


def world_state(world) -> dict:
    """Every field of ``world`` and of its constants, arrays as bytes."""
    def value(v):
        return v.tobytes() if isinstance(v, np.ndarray) else v

    state = {f.name: value(getattr(world, f.name)) for f in dataclasses.fields(world)}
    constants = state.pop("constants")
    state.update(
        {f"constants.{f.name}": value(getattr(constants, f.name))
         for f in dataclasses.fields(constants)}
    )
    return state


def actions_state(actions) -> dict:
    """Every array of ``actions`` (levels, rates, complements) as bytes."""
    return {name: getattr(actions, name).tobytes() for name in actions.__slots__}


class TestReset:
    def test_deterministic(self, small_params, baseline):
        a = reset(small_params, baseline, 9)
        b = reset(small_params, baseline, 9)
        assert world_state(a) == world_state(b)

    def test_two_region_world(self, baseline):
        w = reset(SimParams(n_regions=2), baseline, 0)
        assert w.n_regions == 2

    def test_default_schedule_has_twenty_steps(self, default_params):
        assert default_params.n_steps == 20

    def test_initial_climate_defaults(self, small_params, baseline):
        w = reset(small_params, baseline, 0)
        assert tuple(w.carbon) == (850.0, 460.0, 1740.0)
        assert w.t_atmosphere == 1.1 and w.t_ocean == 0.3


def iterated_paths(regions, n_steps):
    """The exogenous rows of ``regions`` as a step-by-step rollout grows
    them, each a fresh ``[n]`` array: ``row * factor``, and
    ``labor ** (1 - OUTPUT_ELASTICITY)`` taken on each labor row."""
    factors = {
        "labor": (1.0 + regions["labor_growth"]) ** STEP_YEARS,
        "productivity": (1.0 + regions["productivity_growth"]) ** STEP_YEARS,
        "intensity": (1.0 - regions["intensity_decline"]) ** STEP_YEARS,
    }
    rows = {name: [np.array(regions[name])] for name in factors}
    for _ in range(n_steps):
        for name, factor in factors.items():
            rows[name].append(rows[name][-1] * factor)
    rows["labor_term"] = [row ** (1.0 - economy.OUTPUT_ELASTICITY) for row in rows["labor"]]
    return rows


def summary_bytes(rec) -> dict:
    """Every recorded field of ``rec``, arrays as bytes and floats as hex."""
    return {k: v.tobytes() if isinstance(v, np.ndarray) else float.hex(v)
            for k, v in vars(rec).items() if v is not None}


class TestExogenousPaths:
    PATHS = {"labor": "labor_path", "productivity": "productivity_path",
             "intensity": "intensity_path", "labor_term": "labor_term"}

    @pytest.mark.parametrize("n_regions, seed", [
        (2, 0), (3, 5), (4, 1), (5, 2), (27, 0), (27, 7), (39, 3), (64, 4), (100, 6),
    ])
    def test_rows_are_the_iterated_products_bit_for_bit(self, baseline, n_regions, seed):
        """The paths are built whole, the labor term as one power over the
        ``[n_steps + 1, n]`` labor path, yet each row has the bits of the
        step-by-step ``[n]`` products and power."""
        params = SimParams(n_regions=n_regions)
        constants = reset(params, baseline, seed).constants
        for name, rows in iterated_paths(generate_regions(n_regions, seed), params.n_steps).items():
            path = getattr(constants, self.PATHS[name])
            assert path.shape == (params.n_steps + 1, n_regions), name
            assert path.flags.c_contiguous, name
            for t, row in enumerate(rows):
                assert path[t].tobytes() == row.tobytes(), (name, t)

    def test_paths_are_read_only_and_step_t_reads_row_t(self, small_params, baseline):
        world = reset(small_params, baseline, 2)
        c = world.constants
        for name in self.PATHS.values():
            assert not getattr(c, name).flags.writeable, name
        actions = JointActions.uniform(4, 3, 5, 2, 4, 1)
        for t in range(small_params.n_steps):
            w, d = step(world, actions)
            gross = economy.gross_output(c.productivity_path[t], world.capital, c.labor_term[t])
            assert d.gross_output.tobytes() == gross.tobytes(), t
            emissions = c.intensity_path[t] * actions.unmitigated_rate * gross
            assert d.emissions.tobytes() == emissions.tobytes(), t
            world = w

    def test_the_builder_derives_the_paths_from_its_regions(self, small_params, baseline):
        regions = generate_regions(4, 2)
        c = episode_constants(small_params, baseline, 2, regions)
        changed = {**regions, "labor": np.full(4, 2.0), "intensity_decline": np.zeros(4),
                   "theta1": np.array(regions["theta1"])}
        built = episode_constants(small_params, baseline, 2, changed)
        assert built.labor_path[0].tolist() == [2.0] * 4
        assert built.labor_term[0].tobytes() == (np.full(4, 2.0) ** 0.7).tobytes()
        assert np.all(built.intensity_path == regions["intensity"])
        assert built.productivity_path.tobytes() == c.productivity_path.tobytes()
        for name, rows in iterated_paths(changed, small_params.n_steps).items():
            assert getattr(built, self.PATHS[name]).tobytes() == np.stack(rows).tobytes()
        # What it keeps are copies: a later write to its input reaches nothing.
        changed["labor"][:] = 3.0
        changed["theta1"][:] = 0.0
        assert built.labor_path[0].tolist() == [2.0] * 4
        assert built.theta1.tobytes() == regions["theta1"].tobytes()

    def test_a_world_at_the_end_of_its_episode_has_no_step(self, small_params, baseline):
        world = reset(small_params, baseline, 2)
        actions = JointActions.uniform(4, 3, 5, 2, 4, 1)
        for _ in range(small_params.n_steps):
            world, _ = step(world, actions)
        assert world.t == small_params.n_steps
        with pytest.raises(DomainError, match="20-step episode"):
            step(world, actions)


class TestResetSharesConstants:
    ACTIONS = JointActions.uniform(27, 9, 4, 2, 7, 5)

    def test_consecutive_resets_of_one_world_share_its_constants(self, default_params, baseline):
        a = reset(default_params, baseline, 5)
        b = reset(default_params, baseline, 5)
        assert b.constants is a.constants
        assert world_state(b) == world_state(a)

    @pytest.mark.parametrize("change", ["seed", "variant"])
    def test_any_other_reset_builds_fresh_constants(self, baseline, change):
        params = SimParams(foreign_weight=1)
        seed, variant = 5, baseline
        if change == "seed":
            seed = 6
        else:
            variant = VariantConfig(use_tariff_revenue=True)
        first = reset(params, baseline, 5).constants
        after = reset(params, variant, seed).constants
        assert after is not first
        warm = run_episode(params, variant, self.ACTIONS, seed, record=())
        engine._cached_constants.cache_clear()
        cold = run_episode(params, variant, self.ACTIONS, seed, record=())
        assert summary_bytes(warm) == summary_bytes(cold)

    @pytest.mark.parametrize("field, before, value", [
        ("foreign_weight", 1, 1.0), ("foreign_weight", 1.0, 1),
        ("damage_pi2", 0, 0.0), ("damage_pi2", 0.0, 0),
    ])
    def test_equal_configurations_share_constants_and_bits(self, baseline, field, before, value):
        """A reset after one with an equal but distinct configuration gets
        that reset's constants, built from ``1`` where its own value is
        ``1.0`` (or the reverse), and rolls the bits of a reset that builds
        its own."""
        first, params = SimParams(**{field: before}), SimParams(**{field: value})
        assert params == first and params is not first
        policy = FixedLevelsPolicy(3, 9, 4, 2, 7)
        engine._cached_constants.cache_clear()
        built = reset(first, baseline, 5).constants
        assert reset(params, baseline, 5).constants is built
        assert built.params is first
        shared = run_episode(params, baseline, policy, 5)
        engine._cached_constants.cache_clear()
        own = reset(params, baseline, 5).constants
        assert own is not built and own.params is params
        assert summary_bytes(run_episode(params, baseline, policy, 5)) == summary_bytes(shared)

    def test_generates_the_regions_once_per_reset(self, default_params, baseline, monkeypatch):
        calls = []
        generate = engine.generate_regions
        monkeypatch.setattr(
            engine, "generate_regions", lambda n, seed: calls.append(seed) or generate(n, seed)
        )
        for seed in (5, 5, 5, 6, 5):
            reset(default_params, baseline, seed)
        assert calls == [5, 5, 5, 6, 5]


class TestStep:
    def test_pure_given_identical_inputs(self, small_params, baseline):
        w = reset(small_params, baseline, 1)
        actions = JointActions.uniform(4, 3, 5, 2, 4, 1)
        w1, d1 = step(w, actions)
        w2, d2 = step(w, actions)
        assert np.array_equal(d1.rewards, d2.rewards)
        assert world_state(w1) == world_state(w2)

    def test_all_zero_actions_reward_is_net_output(self, small_params, baseline):
        w = reset(small_params, baseline, 1)
        new, d = step(w, JointActions.uniform(4, 0, 0, 0, 0, 0))
        assert np.array_equal(d.rewards, d.net_output)
        assert np.all(d.investment == 0)
        assert np.allclose(new.capital, w.capital * 0.9**5, rtol=1e-12, atol=0)

    def test_reward_is_aggregate_consumption_without_disaster(self, small_params, baseline):
        w = reset(small_params, baseline, 1)
        _, d = step(w, JointActions.uniform(4, 3, 2, 5, 6, 2))
        assert np.array_equal(d.rewards, d.aggregate)

    def test_disaster_penalty_applied_beyond_threshold(self, small_params):
        # The episode starts at 1.1 degC, past the 1.0 degC threshold.
        variant = VariantConfig(disaster=DisasterPenalty(threshold_degc=1.0, penalty=1e6))
        base = VariantConfig()
        actions = JointActions.uniform(4, 3, 2, 5, 6, 2)
        _, with_penalty = step(reset(small_params, variant, 1), actions)
        _, without = step(reset(small_params, base, 1), actions)
        assert np.array_equal(without.rewards - with_penalty.rewards, np.full(4, 1e6))

    def test_replaced_rates_step_like_the_in_step_formula(self, small_params, baseline):
        """The growth factors come from the rates the constants were built
        from, so rates built in after ``reset`` are the ones the step grows by."""
        w = reset(small_params, baseline, 1)
        n, dt = w.n_regions, STEP_YEARS
        rates = {
            "theta1": np.full(n, 0.05),
            "productivity_growth": np.linspace(0.0, 0.03, n),
            "labor_growth": np.full(n, 0.02),
            "intensity_decline": np.linspace(0.01, 0.04, n),
        }
        regions = {**generate_regions(n, 1), **rates}
        w.constants = c = episode_constants(small_params, baseline, 1, regions)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.theta1 = np.zeros(n)
        assert not c.theta1.flags.writeable
        actions = JointActions.uniform(n, 3, 5, 2, 4, 1)
        new, d = step(w, actions)
        expected = {
            "labor_path": regions["labor"] * (1.0 + rates["labor_growth"]) ** dt,
            "productivity_path": regions["productivity"] * (1.0 + rates["productivity_growth"]) ** dt,
            "intensity_path": regions["intensity"] * (1.0 - rates["intensity_decline"]) ** dt,
        }
        for name, value in expected.items():
            assert getattr(c, name)[1].tobytes() == value.tobytes(), name
        capital = w.capital * (1.0 - economy.DEPRECIATION) ** dt + dt * d.investment
        assert new.capital.tobytes() == capital.tobytes()
        gross = economy.gross_output(c.productivity_path[1], new.capital, c.labor_term[1])
        assert step(new, actions)[1].gross_output.tobytes() == gross.tobytes()
        abatement = economy.abatement_fraction(
            actions.mitigation / 10.0, w.mitigation_prev, baseline.abatement_kind,
            rates["theta1"], economy.ABATEMENT_THETA2,
        )
        assert d.abatement_fraction.tobytes() == abatement.tobytes()

    def test_emissions_identity_every_step(self, small_params, baseline):
        rec = run_episode(small_params, baseline, FixedLevelsPolicy(4, 6, 3, 5, 2), 3)
        for t in range(small_params.n_steps):
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

    def test_record_stacks_each_step_detail_by_name(self, small_params, baseline):
        actions = JointActions.uniform(4, 3, 9, 9, 9, 2)
        rec = run_episode(small_params, baseline, FixedLevelsPolicy(3, 9, 9, 9, 2), 5)
        w = reset(small_params, baseline, 5)
        for t in range(small_params.n_steps):
            w, detail = step(w, actions)
            for name, value in detail._asdict().items():
                if value is None:
                    assert getattr(rec, name) is None, name
                else:
                    assert np.asarray(value).tobytes() == getattr(rec, name)[t].tobytes(), name
            assert rec.t_atmosphere[t] == w.t_atmosphere  # post-step state
            assert rec.carbon[t].tobytes() == w.carbon.tobytes()
        assert np.all(rec.tariff_levels == actions.tariffs)

    def test_action_irrelevance_for_climate_and_output(self, default_params, baseline):
        """Trade actions never touch production or emissions: with (savings,
        mitigation) fixed, any import/export/tariff combination gives
        bitwise-identical warming and cumulative output."""
        outcomes = set()
        for export, imports, tariffs in [(0, 0, 0), (9, 9, 0), (9, 9, 9), (2, 7, 4)]:
            s = run_episode(
                default_params, baseline,
                JointActions.uniform(27, 3, 5, export, imports, tariffs), 4, record=(),
            )
            outcomes.add((s.delta_t_end, s.y_cum))
        assert len(outcomes) == 1

    def test_trade_actions_do_change_rewards(self, default_params, baseline):
        rewards = set()
        for export, imports, tariffs in [(0, 0, 0), (9, 9, 0), (9, 9, 9)]:
            s = run_episode(
                default_params, baseline,
                JointActions.uniform(27, 3, 5, export, imports, tariffs), 4, record=(),
            )
            rewards.add(round(s.mean_total_reward, 9))
        assert len(rewards) == 3

    def test_carbon_conservation_over_episode(self, default_params, baseline):
        s = run_episode(
            default_params, baseline, JointActions.uniform(27, 3, 0, 9, 9, 0), 2, record=()
        )
        drift = abs(
            s.final_carbon_total - s.initial_carbon_total - s.cumulative_emissions
        )
        assert drift <= 1e-9 * s.final_carbon_total


class TestNegotiation:
    def negotiating(self, params):
        return dataclasses.replace(params, negotiation=NegotiationConfig(enabled=True))

    def test_mask_violation_identifies_region_and_floor(self, small_params, baseline):
        params = self.negotiating(small_params)
        w = reset(params, baseline, 6)
        assert w.commitments is not None and w.commitments.max() > 0
        bad = JointActions.uniform(4, 3, 0, 0, 0, 0)
        with pytest.raises(MaskViolationError, match="mitigation level 0 violates mask floor") as err:
            step(w, bad)
        assert 0 <= err.value.region < 4
        assert err.value.floor == w.commitments[err.value.region]
        assert err.value.level < err.value.floor

    def test_savings_below_the_commitment_is_no_violation(self, small_params, baseline):
        w = reset(self.negotiating(small_params), baseline, 6)
        top = int(w.commitments.max())
        assert top > 0
        _, d = step(w, JointActions.uniform(4, 0, top, 0, 0, 0))  # a mask floors mitigation only
        assert d.commitments is not None

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
        _, d = step(w, low)  # no violation raised
        assert d.commitments is not None

    def test_fixed_actions_reject_enforced_masks(self, small_params, baseline):
        actions = JointActions.uniform(4, 3, 0, 0, 0, 0)
        with pytest.raises(ConfigError, match="sim.negotiation.enforce_masks"):
            run_episode(self.negotiating(small_params), baseline, actions, 6, record=())
        # Unenforced commitments leave the rollout's arithmetic alone.
        unenforced = dataclasses.replace(
            small_params, negotiation=NegotiationConfig(enabled=True, enforce_masks=False)
        )
        a = run_episode(unenforced, baseline, actions, 6, record=())
        b = run_episode(small_params, baseline, actions, 6, record=())
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
        monkeypatch.setattr(engine, "build_mask", lambda level: built.append(level) or build(level))
        w = reset(self.negotiating(small_params), baseline, 6)
        masks = w.masks()
        assert built == [int(w.commitments[0])]  # all-accept: one commitment for all
        assert masks == built * 4 and all(type(m) is int for m in masks)

    def test_commitments_recorded_per_step(self, small_params, baseline):
        params = self.negotiating(small_params)
        rec = run_episode(params, baseline, UniformRandomPolicy(), 1)
        assert rec.commitments.shape == (params.n_steps, 4)
        assert rec.commitments.max() <= 9


def step_commitments(n_regions, seed, t):
    """Step ``t``'s commitments drawn on their own, the reference for the
    rows ``reset`` draws: the maximum of ``n_regions`` uniform proposals
    from the counter-based stream keyed on (seed, t)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0x4E47, t])))
    return np.full(n_regions, rng.integers(0, 10, size=n_regions).max())


class TestCommitmentsDrawnAtReset:
    @pytest.mark.parametrize("n_regions", [2, 27, 39])
    @pytest.mark.parametrize("seed", [0, 3, 2**31 + 5])
    def test_row_t_is_the_step_draw(self, baseline, n_regions, seed):
        params = SimParams(n_regions=n_regions, negotiation=NegotiationConfig(enabled=True))
        rows = reset(params, baseline, seed).constants.commitments
        assert rows.shape == (params.n_steps + 1, n_regions) and rows.dtype == np.int64
        assert not rows.flags.writeable
        for t in range(params.n_steps + 1):
            assert rows[t].tobytes() == step_commitments(n_regions, seed, t).tobytes(), t

    @pytest.mark.parametrize("enforce", [True, False], ids=["enforced", "unenforced"])
    def test_each_world_reads_its_row(self, small_params, baseline, enforce):
        params = dataclasses.replace(
            small_params, negotiation=NegotiationConfig(enabled=True, enforce_masks=enforce)
        )
        world = reset(params, baseline, 4)
        rows = world.constants.commitments
        policy = UniformRandomPolicy()
        rng = np.random.default_rng(0)
        for t in range(params.n_steps + 1):
            assert world.t == t
            assert world.commitments.tobytes() == rows[t].tobytes()
            with pytest.raises(ValueError, match="read-only"):
                world.commitments[0] = 0
            if t < params.n_steps:
                masks = world.masks()
                actions = JointActions.from_action_sets([
                    policy.act(world.observation(i), masks[i] if masks else None, rng)
                    for i in range(4)
                ])
                world, d = step(world, actions)
                assert d.commitments.tobytes() == rows[t].tobytes()

    def test_none_with_negotiation_off(self, small_params, baseline):
        world = reset(small_params, baseline, 4)
        assert world.constants.commitments is None and world.commitments is None
        world, _ = step(world, JointActions.uniform(4, 3, 5, 2, 4, 1))
        assert world.commitments is None

    def test_the_builder_draws_the_rows_of_its_seed(self, small_params, baseline):
        params = dataclasses.replace(small_params, negotiation=NegotiationConfig(enabled=True))
        c = reset(params, baseline, 4).constants
        regions = generate_regions(4, 4)
        built = episode_constants(params, baseline, 4, regions)
        assert built.commitments is not c.commitments
        assert built.commitments.tobytes() == c.commitments.tobytes()
        other_seed = episode_constants(params, baseline, 5, regions).commitments
        assert other_seed.tobytes() == reset(params, baseline, 5).constants.commitments.tobytes()


# Each golden below holds one value per dispatch class, the rounding that
# numpy's float64 ``**``, ``log`` and ``exp`` follow on the host
# (``conftest.DISPATCH``): ``avx512`` as first recorded, and ``libm`` recorded
# from the code that gave the ``avx512`` values, on an AVX-512 host under
# ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``.

#: ``float.hex`` of (delta_t_end, y_cum, mean_total_reward, final_carbon_total)
#: of a uniform fixed-action ``run_episode`` on the default 27-region world,
#: recorded before the trade and damage kernels were rewritten for speed. Any
#: change that moves a bit of the engine's arithmetic fails here.
GOLDEN_SUMMARIES = {
    "avx512": {
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
    },
    "libm": {
        ((3, 0, 0, 0, 0), 0): ("0x1.535db50ae48b6p+4", "0x1.5e12fbfd8daa0p+20",
                               "0x1.b92f38c97b0cfp+12", "0x1.11b2bb9efc2ddp+18"),
        ((3, 0, 0, 0, 0), 7): ("0x1.5dd2f4c1f9b90p+4", "0x1.7058fb7195f3dp+20",
                               "0x1.ce4246e617885p+12", "0x1.4e860b4811c61p+18"),
        ((3, 9, 9, 9, 0), 0): ("0x1.8f7f0af941fc4p+3", "0x1.5e2d0d038e5d4p+20",
                               "0x1.ab1de2050345bp+12", "0x1.e0ad1055302b7p+14"),
        ((3, 9, 9, 9, 0), 7): ("0x1.a3409d229b619p+3", "0x1.712332538f623p+20",
                               "0x1.c278f39016decp+12", "0x1.215ebf0b7895bp+15"),
        ((9, 4, 2, 7, 5), 0): ("0x1.4e89e9d9ee36fp+4", "0x1.151224d0f551ep+21",
                               "0x1.9e61cdf450077p+9", "0x1.02f00b3f962adp+18"),
        ((9, 4, 2, 7, 5), 7): ("0x1.591114c723230p+4", "0x1.23e170ec6f86fp+21",
                               "0x1.b14eba2e1098bp+9", "0x1.3cf5e61a14fc3p+18"),
    },
}[DISPATCH]

#: SHA-256 over every array of the ``run_episode`` record of a pariah-style
#: policy (everyone at the high-trade levels, all tariffing region 0 at level
#: 9) at seed 3, recorded together with ``GOLDEN_SUMMARIES``.
GOLDEN_PARIAH_RECORD_SHA256 = {
    "avx512": "c583a4df513e570c98c9a7db0be0076fb629087bc5e57836c65ffc41ad0a3cee",
    "libm": "f16ab2478e870010fcc644ee5e129c238c9108c09e973f3ced7d3166430c054c",
}[DISPATCH]


#: SHA-256 of the ``run_episode`` record of each negotiated episode on the
#: default world at seed 3, keyed by (policy, ``enforce_masks``). The fixed
#: policy's mitigation (2) sits below most commitments, so the floor moves
#: its level whenever masks bind. Recorded before masks became integer floors.
GOLDEN_NEGOTIATED_RECORD_SHA256 = {
    "avx512": {
        ("random", True):
            "95e279a26065216be1209c301f2aaa9af16a489093b36d9341c5a9df156f4dda",
        ("random", False):
            "fd72be9a5efc3ead8711fc68b84fbbe3faee0344683d6e0eba6eaaab764b75bd",
        ("fixed", True):
            "4ac49911cc24d89df80a0e06d4f8fe1a63dda199a3a87563ba45394c7b560382",
        ("fixed", False):
            "a69de70dc7d94c761de18fb220d08f67efc17758c49a9b5bc806af9a69bccf8e",
        # Recorded when a static policy acted every step under any negotiation.
        ("pariah", False):
            "a52871246b6ff65f710cfdccd9efb1bc6aa35e22cd730591649c7b0ed26a280e",
    },
    "libm": {
        ("random", True):
            "effd14f2d42a10ac855e7446cc6283c33fe217935765cbef42ce64b1e10e201c",
        ("random", False):
            "5483df9bd91211498a52aee0ae18e35e01a847b3b6e66254764d75dec7e73293",
        ("fixed", True):
            "a5fe5c87bf4c5c8a8379a7b4603b5f86eff2b16ebba7f44dec534906fa6d964a",
        ("fixed", False):
            "b25107ef63459f8dd368c3521ab81cdd04cad72ae6cd551f6ee687b33620be78",
        ("pariah", False):
            "a535bc860afd05c9b2d14bfae4b038d28cee6c17067871a910e6e4a8cdf330b0",
    },
}[DISPATCH]

#: The same ``float.hex`` summary as ``GOLDEN_SUMMARIES``, at levels
#: (9, 4, 2, 7, 5) and seed 0, under each model variant that switches a
#: branch of the step. The disaster threshold binds from the step that
#: first starts above 1.5 degC. Recorded before the step kernels were
#: rewritten to make fewer numpy calls.
GOLDEN_VARIANT_SUMMARIES = {
    "avx512": {
        "use_tariff_revenue": ("0x1.4e89e9d9ee36fp+4", "0x1.151224d0f551dp+21",
                               "0x1.7206ef500c3a2p+9", "0x1.02f00b3f962abp+18"),
        "overproduction_penalty": ("0x1.4e89e9d9ee36fp+4", "0x1.151224d0f551dp+21",
                                   "0x1.9beb9504b775cp+8", "0x1.02f00b3f962abp+18"),
        "transitional": ("0x1.4e4acac397a96p+4", "0x1.14e4ef3f0dbf2p+21",
                         "0x1.9f7618ebd1dcbp+9", "0x1.02999a72f72a6p+18"),
        "weitzman": ("0x1.274b527f1543ep+4", "0x1.8e45a7ac6f0e4p+19",
                     "0x1.52a95020fec95p+7", "0x1.a94c6eba07a36p+16"),
        "disaster": ("0x1.4e89e9d9ee36fp+4", "0x1.151224d0f551dp+21",
                     "-0x1.0bcf1905d7fc6p+10", "0x1.02f00b3f962abp+18"),
    },
    "libm": {
        "use_tariff_revenue": ("0x1.4e89e9d9ee36fp+4", "0x1.151224d0f551ep+21",
                               "0x1.7206ef500c3a4p+9", "0x1.02f00b3f962adp+18"),
        "overproduction_penalty": ("0x1.4e89e9d9ee36fp+4", "0x1.151224d0f551ep+21",
                                   "0x1.9beb9504b775fp+8", "0x1.02f00b3f962adp+18"),
        "transitional": ("0x1.4e4acac397a96p+4", "0x1.14e4ef3f0dbf4p+21",
                         "0x1.9f7618ebd1dcdp+9", "0x1.02999a72f72a8p+18"),
        "weitzman": ("0x1.274b527f1543ep+4", "0x1.8e45a7ac6f0e6p+19",
                     "0x1.52a95020fec95p+7", "0x1.a94c6eba07a3ap+16"),
        "disaster": ("0x1.4e89e9d9ee36fp+4", "0x1.151224d0f551ep+21",
                     "-0x1.0bcf1905d7fc5p+10", "0x1.02f00b3f962adp+18"),
    },
}[DISPATCH]

GOLDEN_VARIANTS = {
    "use_tariff_revenue": VariantConfig(use_tariff_revenue=True),
    "overproduction_penalty": VariantConfig(overproduction_penalty=True),
    "transitional": VariantConfig(abatement_kind="transitional"),
    "weitzman": VariantConfig(damage_kind="weitzman"),
    "disaster": VariantConfig(disaster=DisasterPenalty(threshold_degc=1.5, penalty=100.0)),
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


def summary_bits(params, variant, levels, seed) -> tuple[str, ...]:
    s = run_episode(params, variant, JointActions.uniform(27, *levels), seed, record=())
    return tuple(
        float.hex(getattr(s, name))
        for name in ("delta_t_end", "y_cum", "mean_total_reward", "final_carbon_total")
    )


class TestGoldenBits:
    @pytest.mark.parametrize("levels, seed", list(GOLDEN_SUMMARIES))
    def test_fixed_action_summary_bits(self, default_params, baseline, levels, seed):
        got = summary_bits(default_params, baseline, levels, seed)
        assert got == GOLDEN_SUMMARIES[levels, seed]

    @pytest.mark.parametrize("variant", list(GOLDEN_VARIANT_SUMMARIES))
    def test_variant_summary_bits(self, default_params, variant):
        got = summary_bits(default_params, GOLDEN_VARIANTS[variant], (9, 4, 2, 7, 5), 0)
        assert got == GOLDEN_VARIANT_SUMMARIES[variant]

    def test_pariah_record_bits(self, default_params, baseline):
        policy = PariahOverridePolicy(IDEAL_TRADE_POLICY, target=0, tariff_level=9)
        rec = run_episode(default_params, baseline, policy, 3)
        assert record_digest(rec) == GOLDEN_PARIAH_RECORD_SHA256

    @pytest.mark.parametrize("case", list(GOLDEN_NEGOTIATED_RECORD_SHA256))
    def test_negotiated_record_bits(self, default_params, baseline, case):
        policy, enforce = case
        params = dataclasses.replace(
            default_params, negotiation=NegotiationConfig(enabled=True, enforce_masks=enforce)
        )
        rec = run_episode(params, baseline, NEGOTIATED_POLICIES[policy], 3)
        assert record_digest(rec) == GOLDEN_NEGOTIATED_RECORD_SHA256[case]


#: Each action source of the equivalence test: its negotiation setting and
#: the source for given action levels.
EQUIVALENCE_SOURCES = {
    "uniform": (NegotiationConfig(), lambda levels: JointActions.uniform(27, *levels)),
    "fixed": (NegotiationConfig(), lambda levels: FixedLevelsPolicy(*levels)),
    "pariah": (NegotiationConfig(), lambda levels: PariahOverridePolicy(
        FixedLevelsPolicy(*levels), target=1, tariff_level=9
    )),
    "random_off": (NegotiationConfig(), lambda levels: UniformRandomPolicy()),
    "random_enforced": (NegotiationConfig(enabled=True), lambda levels: UniformRandomPolicy()),
    "random_unenforced": (
        NegotiationConfig(enabled=True, enforce_masks=False), lambda levels: UniformRandomPolicy()
    ),
}
RECORD_SETS = [(), ("tariff_levels",), ("domestic", "foreign"), HISTORY_FIELDS]


@pytest.mark.parametrize("variant", ["baseline", *GOLDEN_VARIANTS])
@pytest.mark.parametrize("source", list(EQUIVALENCE_SOURCES))
def test_every_source_and_record_set_agree_bitwise(default_params, source, variant):
    """Every episode runs the one loop, whatever its caller records: each
    endpoint and recorded field has the full record's bits, and every field
    not recorded is None. Uniform ``JointActions`` roll the same episode as
    the ``FixedLevelsPolicy`` of their levels."""
    negotiation, make_source = EQUIVALENCE_SOURCES[source]
    params = dataclasses.replace(default_params, negotiation=negotiation)
    v = GOLDEN_VARIANTS.get(variant, VariantConfig())
    full = run_episode(params, v, make_source((9, 4, 2, 7, 5)), 3)
    assert [name for name in HISTORY_FIELDS if getattr(full, name) is None] == (
        [] if negotiation.enabled else ["commitments"]
    )
    for record in RECORD_SETS:
        rec = run_episode(params, v, make_source((9, 4, 2, 7, 5)), 3, record=record)
        expected = {name: value for name, value in summary_bytes(full).items()
                    if name not in HISTORY_FIELDS or name in record}
        assert summary_bytes(rec) == expected, record
        assert all(getattr(rec, name) is None for name in HISTORY_FIELDS if name not in record)
    if source == "uniform":
        for seed in range(5):
            for levels in [(3, 0, 0, 0, 0), (5, 5, 9, 9, 0), (9, 9, 2, 7, 4), (0, 9, 9, 9, 9)]:
                rec = run_episode(params, v, JointActions.uniform(27, *levels), seed)
                policy_rec = run_episode(params, v, FixedLevelsPolicy(*levels), seed)
                assert summary_bytes(rec) == summary_bytes(policy_rec), (levels, seed)


def test_the_history_fields_are_the_step_details(small_params, baseline):
    """One source per recorded field: the history fields are ``StepDetail``'s
    fields, and ``EpisodeRecord`` holds them, in order, after its endpoints.
    Each recorded level row is the level array the step acted on."""
    assert HISTORY_FIELDS == StepDetail._fields
    record_fields = [f.name for f in dataclasses.fields(EpisodeRecord)]
    assert tuple(record_fields[-len(HISTORY_FIELDS):]) == HISTORY_FIELDS
    actions = JointActions.uniform(4, 3, 5, 2, 4, 1)
    _, d = step(reset(small_params, baseline, 1), actions)
    for field, name in zip(HISTORY_FIELDS, ACTION_DIMENSIONS):
        assert getattr(d, field) is getattr(actions, name), field


def test_an_unknown_record_name_is_named(small_params, baseline):
    with pytest.raises(ConfigError, match="record: 'tarif_levels'"):
        run_episode(small_params, baseline, FixedLevelsPolicy(3, 0, 0, 0, 0), 0,
                    record=("domestic", "tarif_levels"))


@pytest.mark.parametrize("variant", ["baseline", *GOLDEN_VARIANTS])
def test_step_never_writes_to_its_input_world(small_params, variant):
    params = dataclasses.replace(
        small_params, negotiation=NegotiationConfig(enabled=True, enforce_masks=False)
    )
    world = reset(params, GOLDEN_VARIANTS.get(variant, VariantConfig()), 2)
    actions = JointActions.uniform(4, 9, 4, 2, 7, 5)
    actions_before = actions_state(actions)
    for _ in range(4):
        before = world_state(world)
        new, _ = step(world, actions)
        assert world_state(world) == before
        assert actions_state(actions) == actions_before
        world = new


@pytest.mark.parametrize("foreign_weight", [0.7, 1e-3, 1])
def test_episode_scalars_are_read_only_0d_float64(small_params, baseline, foreign_weight):
    """The scalar operand the step reads from its constants is a read-only
    0-d ``float64`` array equal to the value it comes from, from ``reset``
    and from the builder; an ``int`` weight (the config admits ``1``)
    becomes its float."""
    params = dataclasses.replace(small_params, foreign_weight=foreign_weight)
    constants = reset(params, baseline, 1).constants
    for c in (constants, episode_constants(params, baseline, 2, generate_regions(4, 2))):
        field = c.foreign_weight
        assert isinstance(field, np.ndarray)
        assert field.shape == () and field.dtype == np.float64
        assert field.tobytes() == np.float64(float(foreign_weight)).tobytes()
        with pytest.raises(ValueError):
            field[...] = 0.0
