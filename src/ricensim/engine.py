"""Episode orchestration: stepping order, rewards, variants, determinism.

A step runs through fixed phases: production and damages (at the step's
starting temperature), investment, trade matching and consumption, reward,
balance settlement, emissions into the carbon cycle, forcing and
temperature, then exogenous growth. Commitment masks for the *next* step
are drawn at the end of each step (and once at reset for the first step),
so policies always see the masks that will bind their actions.

Everything is deterministic given (params, variant, seed): negotiation
draws come from counter-based streams keyed on (seed, step), never from
shared mutable generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import climate as climate_mod
from . import economy as economy_mod
from . import trade as trade_mod
from .actions import ACTION_DIMENSIONS, JointActions
from .config import SimParams, VariantConfig
from .errors import ConfigError, MaskViolationError
from .negotiation import ActionMask, build_mask, commitments_from_arrays
from .regions import generate_regions

_NEGOTIATION_STREAM = 0x4E47
_POLICY_STREAM = 0x504C


@dataclass(frozen=True)
class Observation:
    """Minimal per-region view handed to policies."""

    region: int
    n_regions: int


#: The generated per-region quantities that stay fixed for an episode.
_REGION_RATES = ("theta1", "productivity_growth", "labor_growth", "intensity_decline")


@dataclass(frozen=True)
class EpisodeConstants:
    """What stays fixed for a whole episode: its configuration, seed and
    per-region structural rates, and the per-step factors derived from them.

    The derived fields are computed by the constructor alone (so
    ``dataclasses.replace`` recomputes them), from read-only copies of the
    rates, so a factor never disagrees with the rate it came from.
    """

    params: SimParams
    variant: VariantConfig
    seed: int
    theta1: np.ndarray
    productivity_growth: np.ndarray
    labor_growth: np.ndarray
    intensity_decline: np.ndarray
    #: One step's growth over ``dt_years``, e.g. ``(1 + labor_growth) ** dt``.
    capital_factor: float = field(init=False)
    labor_factor: np.ndarray = field(init=False)
    productivity_factor: np.ndarray = field(init=False)
    intensity_factor: np.ndarray = field(init=False)
    transfer: np.ndarray = field(init=False)
    initial_carbon_total: float = field(init=False)

    def __post_init__(self) -> None:
        def put(name, value):
            object.__setattr__(self, name, value)

        for name in _REGION_RATES:
            rates = np.array(getattr(self, name), dtype=np.float64)
            rates.setflags(write=False)
            put(name, rates)
        p = self.params
        dt = p.dt_years
        put("seed", int(self.seed))
        put("capital_factor", (1.0 - p.depreciation) ** dt)
        put("labor_factor", (1.0 + self.labor_growth) ** dt)
        put("productivity_factor", (1.0 + self.productivity_growth) ** dt)
        put("intensity_factor", (1.0 - self.intensity_decline) ** dt)
        put("transfer", climate_mod.carbon_transfer_matrix(p.climate, dt))
        carbon = np.array(p.climate.initial_carbon_gtc, dtype=np.float64)
        put("initial_carbon_total", float(carbon.sum()))


@dataclass(slots=True)
class World:
    """Simulation state between steps, beside its episode's constants.
    Treated as a value: ``step`` returns a new instance and never mutates
    its input."""

    constants: EpisodeConstants
    t: int
    capital: np.ndarray
    labor: np.ndarray
    productivity: np.ndarray
    intensity: np.ndarray
    mitigation_prev: np.ndarray
    balance: np.ndarray
    carbon: np.ndarray
    t_atmosphere: float
    t_ocean: float
    commitments: np.ndarray | None
    cumulative_emissions: float

    @property
    def n_regions(self) -> int:
        return self.constants.params.n_regions

    def observation(self, region: int) -> Observation:
        return Observation(region=region, n_regions=self.n_regions)

    def masks(self) -> list[ActionMask] | None:
        """Binding masks for the upcoming step, or None when unconstrained.

        With mask enforcement switched off, commitments are still recorded
        but nothing constrains the actions, so policies see no mask. Regions
        with equal commitments share one mask.
        """
        if not _masks_bind(self):
            return None
        dims = self.constants.params.negotiation.dimensions
        levels = self.commitments.tolist()
        by_level = {c: build_mask(c, dims) for c in dict.fromkeys(levels)}
        return [by_level[c] for c in levels]


def _masks_bind(world: World) -> bool:
    """Whether the world's commitments constrain the upcoming step."""
    neg = world.constants.params.negotiation
    return neg.enabled and neg.enforce_masks and world.commitments is not None


def _draw_commitments(params: SimParams, episode_seed: int, t: int) -> np.ndarray:
    """Uniform proposals, all-accept evaluations, maximum-accepted commitment."""
    rng = np.random.default_rng(
        np.random.SeedSequence([int(episode_seed), _NEGOTIATION_STREAM, int(t)])
    )
    proposals = rng.integers(0, 10, size=params.n_regions)
    return commitments_from_arrays(proposals)


def reset(params: SimParams, variant: VariantConfig, seed: int = 0) -> World:
    """Fresh world: the episode's constants (generated regions' rates and the
    factors derived from them), the regions' initial state, the initial
    climate and the first step's commitments.

    ``seed`` has a default only because ``perfbench/run.py`` times
    ``reset(SimParams(), VariantConfig())``; every caller in the package
    passes it."""
    regions = generate_regions(params.n_regions, seed)
    constants = EpisodeConstants(
        params,
        variant,
        seed,
        **{name: regions.pop(name) for name in _REGION_RATES},
    )
    cp = params.climate
    return World(
        constants=constants,
        t=0,
        **regions,
        mitigation_prev=np.zeros(params.n_regions),
        balance=np.zeros(params.n_regions),
        carbon=np.array(cp.initial_carbon_gtc, dtype=np.float64),
        t_atmosphere=cp.initial_t_atmosphere,
        t_ocean=cp.initial_t_ocean,
        commitments=(
            _draw_commitments(params, seed, 0) if params.negotiation.enabled else None
        ),
        cumulative_emissions=0.0,
    )


class StepDetail(NamedTuple):
    """Everything computed during one step, under the names ``EpisodeRecord``
    stacks it by. ``balance``, ``carbon``, ``t_atmosphere`` and ``t_ocean``
    are the state the step leaves; ``commitments`` are those that bound it."""

    gross_output: np.ndarray
    damage_fraction: float
    abatement_fraction: np.ndarray
    net_output: np.ndarray
    investment: np.ndarray
    emissions: np.ndarray
    emissions_global: float
    domestic: np.ndarray
    foreign: np.ndarray
    aggregate: np.ndarray
    domestic_floored: np.ndarray
    exports_scaled: np.ndarray
    imports_scaled: np.ndarray
    revenue: np.ndarray
    rewards: np.ndarray
    balance: np.ndarray
    carbon: np.ndarray
    t_atmosphere: float
    t_ocean: float
    commitments: np.ndarray | None


class StepResult(NamedTuple):
    world: World
    detail: StepDetail


def _enforce_masks(world: World, actions: JointActions) -> None:
    if not _masks_bind(world):
        return
    for dim in world.constants.params.negotiation.dimensions:
        levels = getattr(actions, dim)  # a negotiable dimension, checked by the config
        below = np.flatnonzero(levels < world.commitments)
        if below.size:
            r = int(below[0])
            raise MaskViolationError(r, dim, int(levels[r]), int(world.commitments[r]))


def step(world: World, actions: JointActions) -> StepResult:
    """Advance one step. Pure: identical inputs give identical outputs.

    Uses the rates ``actions`` converted from its levels when it was built,
    and grows the state by the factors ``world.constants`` derived at reset.
    """
    actions.validate(world.n_regions)
    _enforce_masks(world, actions)

    c = world.constants
    p = c.params
    v = c.variant
    dt = p.dt_years

    # Production, damages at the step's starting temperature, abatement.
    mitigation_rate = actions.mitigation_rate
    y_gross = economy_mod.gross_output(
        world.productivity, world.capital, world.labor, p.output_elasticity
    )
    dmg = economy_mod.damage_fraction(
        max(world.t_atmosphere, 0.0), v.damage_kind, p.damage_pi1, p.damage_pi2
    )
    abat = economy_mod.abatement_fraction(
        mitigation_rate, world.mitigation_prev, v.abatement_kind, c.theta1, p.theta2, p.theta3
    )
    y_net = (1.0 - dmg) * (1.0 - abat) * y_gross
    investment = actions.savings_rate * y_net
    emissions = world.intensity * (1.0 - mitigation_rate) * y_gross
    emissions_global = float(emissions.sum())

    # Trade matching and the consumption split.
    budget = p.import_budget * trade_mod.import_budget_multiplier(world.balance, y_gross)
    demanded = trade_mod.build_demand(actions.imports_rate, y_gross, budget)
    capacity = actions.export_rate * y_gross
    scaled = trade_mod.ration_exports(demanded, capacity)
    tariffed, revenue = trade_mod.apply_tariffs(scaled, actions.tariffs_rate)
    flows = trade_mod.TradeFlows(scaled, tariffed)
    cons = trade_mod.consumption(y_net, investment, flows, p.foreign_weight, v)

    # Reward, with the optional disaster penalty at the same temperature the
    # damages saw.
    rewards = cons.aggregate.copy()
    if v.disaster is not None and world.t_atmosphere > v.disaster.threshold_degc:
        rewards -= v.disaster.penalty

    balance_after = trade_mod.step_balance(
        world.balance, flows.exports_scaled, flows.imports_scaled, revenue, v, dt
    )

    # Carbon, forcing, temperature.
    cp = p.climate
    carbon_after = climate_mod.step_carbon(world.carbon, emissions_global, dt, c.transfer)
    forcing = climate_mod.radiative_forcing(
        float(carbon_after[0]),
        cp.forcing_per_doubling,
        cp.reference_atmosphere_gtc,
        climate_mod.exogenous_forcing(cp, (world.t + 1) * dt),
    )
    t_at, t_lo = climate_mod.step_temperature(
        world.t_atmosphere,
        world.t_ocean,
        forcing,
        cp.heat_capacity_c1,
        cp.atm_ocean_exchange_c3,
        cp.ocean_uptake_c4,
        cp.temperature_feedback,
    )

    # Exogenous growth and capital accumulation.
    new_world = World(
        constants=c,
        t=world.t + 1,
        capital=world.capital * c.capital_factor + dt * investment,
        labor=world.labor * c.labor_factor,
        productivity=world.productivity * c.productivity_factor,
        intensity=world.intensity * c.intensity_factor,
        mitigation_prev=mitigation_rate,
        balance=balance_after,
        carbon=carbon_after,
        t_atmosphere=t_at,
        t_ocean=t_lo,
        commitments=(
            _draw_commitments(p, c.seed, world.t + 1) if p.negotiation.enabled else None
        ),
        cumulative_emissions=world.cumulative_emissions + dt * emissions_global,
    )
    detail = StepDetail(
        gross_output=y_gross,
        damage_fraction=float(dmg),
        abatement_fraction=abat,
        net_output=y_net,
        investment=investment,
        emissions=emissions,
        emissions_global=emissions_global,
        **cons._asdict(),
        exports_scaled=flows.exports_scaled,
        imports_scaled=flows.imports_scaled,
        revenue=revenue,
        rewards=rewards,
        balance=balance_after,
        carbon=carbon_after,
        t_atmosphere=t_at,
        t_ocean=t_lo,
        commitments=world.commitments,
    )
    return StepResult(world=new_world, detail=detail)


@dataclass(frozen=True)
class EpisodeSummary:
    """Episode endpoints only; what parameter sweeps keep per rollout."""

    seed: int
    delta_t_end: float
    y_cum: float  # dt times the running sum of each step's world gross output
    total_reward: np.ndarray  # [region]
    mean_total_reward: float
    d_end: float
    initial_carbon_total: float
    cumulative_emissions: float
    final_carbon_total: float


@dataclass(frozen=True)
class EpisodeRecord(EpisodeSummary):
    """Per-step, per-region history of one episode plus its endpoints. The
    history is each step's action levels and ``StepDetail``, stacked by name."""

    n_regions: int
    n_steps: int
    dt_years: int
    savings_levels: np.ndarray  # [t, region]
    mitigation_levels: np.ndarray
    export_levels: np.ndarray
    import_levels: np.ndarray  # [t, importer, exporter]
    tariff_levels: np.ndarray
    gross_output: np.ndarray  # [t, region]
    damage_fraction: np.ndarray  # [t]
    abatement_fraction: np.ndarray
    net_output: np.ndarray
    investment: np.ndarray
    emissions: np.ndarray
    emissions_global: np.ndarray  # [t]
    domestic: np.ndarray
    foreign: np.ndarray
    aggregate: np.ndarray
    domestic_floored: np.ndarray
    exports_scaled: np.ndarray
    imports_scaled: np.ndarray
    revenue: np.ndarray
    rewards: np.ndarray
    balance: np.ndarray  # [t, region], post-settlement
    carbon: np.ndarray  # [t, 3], post-update
    t_atmosphere: np.ndarray  # [t], post-update
    t_ocean: np.ndarray
    commitments: np.ndarray | None  # [t, region] when negotiation is on


#: The record names of the five ``ACTION_DIMENSIONS``' levels.
_LEVEL_FIELDS = (
    "savings_levels", "mitigation_levels", "export_levels", "import_levels", "tariff_levels"
)


def _rollout(world: World, next_actions, history: list | None = None) -> EpisodeSummary:
    """The one loop over ``step``. It accumulates the episode endpoints and,
    when given a ``history`` list, appends every step's (actions, detail)."""
    constants = world.constants
    params, variant = constants.params, constants.variant
    y_cum = 0.0
    total_reward = np.zeros(params.n_regions)
    for _ in range(params.n_steps):
        actions = next_actions(world)
        result = step(world, actions)
        d = result.detail
        y_cum += float(d.gross_output.sum())
        total_reward += d.rewards
        if history is not None:
            history.append((actions, d))
        world = result.world

    d_end = economy_mod.damage_fraction(
        max(world.t_atmosphere, 0.0), variant.damage_kind, params.damage_pi1, params.damage_pi2
    )
    return EpisodeSummary(
        seed=constants.seed,
        delta_t_end=float(world.t_atmosphere),
        y_cum=float(params.dt_years * y_cum),
        total_reward=total_reward,
        mean_total_reward=float(total_reward.mean()),
        d_end=float(d_end),
        initial_carbon_total=constants.initial_carbon_total,
        cumulative_emissions=world.cumulative_emissions,
        final_carbon_total=float(world.carbon.sum()),
    )


def _episode_actions(world: World, policy, policy_rng: np.random.Generator) -> JointActions:
    masks = world.masks()
    sets = [
        policy.act(world.observation(i), masks[i] if masks else None, policy_rng)
        for i in range(world.n_regions)
    ]
    return JointActions.from_action_sets(sets)


def _policy_actions(world: World, policy):
    """Per-step action source for ``policy``: a static policy acts once at
    reset when no mask binds its actions (masks bind for the whole episode
    or never), any other policy acts every step."""
    policy_rng = np.random.default_rng(
        np.random.SeedSequence([world.constants.seed, _POLICY_STREAM])
    )
    if getattr(policy, "is_static", False) and not _masks_bind(world):
        actions = _episode_actions(world, policy, policy_rng)
        return lambda w: actions
    return lambda w: _episode_actions(w, policy, policy_rng)


def run_episode(params: SimParams, variant: VariantConfig, policy, seed: int) -> EpisodeRecord:
    """Roll one full episode under ``policy`` and record everything: every
    ``StepDetail`` field and the action levels, each stacked over the steps
    (``commitments`` is None when no step had any)."""
    world = reset(params, variant, seed)
    history: list[tuple[JointActions, StepDetail]] = []
    summary = _rollout(world, _policy_actions(world, policy), history)
    actions, details = zip(*history)
    return EpisodeRecord(
        **vars(summary),
        n_regions=params.n_regions,
        n_steps=params.n_steps,
        dt_years=params.dt_years,
        **{
            name: np.array([getattr(a, dim) for a in actions])
            for name, dim in zip(_LEVEL_FIELDS, ACTION_DIMENSIONS)
        },
        **{
            name: None if values[0] is None else np.array(values)
            for name, values in zip(StepDetail._fields, zip(*details))
        },
    )


def run_fixed_actions_summary(
    params: SimParams, variant: VariantConfig, actions: JointActions, seed: int
) -> EpisodeSummary:
    """Roll one episode applying the same joint actions every step, which
    cannot follow commitment masks, so enforced masks are a config error."""
    if params.negotiation.enabled and params.negotiation.enforce_masks:
        raise ConfigError("sim.negotiation.enforce_masks: fixed actions cannot follow masks")
    return _rollout(reset(params, variant, seed), lambda w: actions)
