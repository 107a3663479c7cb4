"""Episode orchestration: stepping order, rewards, variants, determinism.

A step runs through fixed phases: production and damages (at the step's
starting temperature), investment, trade matching and consumption, reward,
balance settlement, emissions into the carbon cycle, forcing and
temperature, then capital accumulation. The exogenous quantities (labor,
productivity, emission intensity) follow paths that no action moves, fixed
when the world is reset. No action moves the commitments either: every
step's are drawn at reset, and a world's masks are those of its step, so
policies always see the masks that will bind their actions.

``run_episode`` is the one rollout: it takes fixed ``JointActions`` or a
policy, and returns an ``EpisodeRecord`` of the episode's endpoints plus
the per-step history fields its caller names.

Everything is deterministic given (params, variant, seed): negotiation
draws come from counter-based streams keyed on (seed, step), never from
shared mutable generators.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import climate as climate_mod
from . import economy as economy_mod
from . import trade as trade_mod
from .actions import JointActions
from .config import STEP_YEARS, SimParams, VariantConfig
from .economy import _ONE, _float64
from .errors import ConfigError, DomainError, MaskViolationError
from .negotiation import build_mask, commitments_from_arrays
from .regions import _generated, generate_regions

_NEGOTIATION_STREAM = 0x4E47
_POLICY_STREAM = 0x504C

#: One step's capital decay, ``(1 - DEPRECIATION) ** STEP_YEARS``.
_CAPITAL_FACTOR = _float64((1.0 - economy_mod.DEPRECIATION) ** STEP_YEARS)


@dataclass(frozen=True)
class Observation:
    """Minimal per-region view handed to policies."""

    region: int
    n_regions: int


@dataclass(frozen=True)
class EpisodeConstants:
    """What the step reads that stays fixed for a whole episode: its
    configuration and seed, each region's abatement coefficient, the
    exogenous paths and the commitments. ``episode_constants`` builds it.

    ``foreign_weight`` is a read-only 0-d ``float64`` array, which numpy
    takes as a ufunc operand faster than a Python number, with the same
    bits. The exogenous paths are read-only ``[n_steps + 1, n]`` arrays: no
    action moves labor, productivity or intensity, so row ``t`` is their
    value at step ``t``. So are the commitments when negotiation is on: row
    ``t`` binds step ``t``.
    """

    params: SimParams
    variant: VariantConfig
    seed: int
    theta1: np.ndarray
    #: ``params.foreign_weight`` as a 0-d operand.
    foreign_weight: np.ndarray
    #: Row ``t + 1`` is row ``t`` times one step's growth,
    #: e.g. ``(1 + labor_growth) ** STEP_YEARS``; row 0 is the initial value.
    labor_path: np.ndarray
    productivity_path: np.ndarray
    intensity_path: np.ndarray
    #: ``L ** (1 - OUTPUT_ELASTICITY)`` of each labor row.
    labor_term: np.ndarray
    #: Each step's commitments (``_draw_commitments``), or None when
    #: negotiation is off.
    commitments: np.ndarray | None


def episode_constants(
    params: SimParams, variant: VariantConfig, seed: int, regions: dict[str, np.ndarray]
) -> EpisodeConstants:
    """The constants of an episode over ``regions``, ``[n]`` arrays keyed as
    ``generate_regions`` keys them (``capital`` is not read). Pure; what it
    keeps are read-only copies.

    Each path is one contiguous slab of a ``[3, n_steps + 1, n]`` block: the
    initial row, then each row times one step's growth factor. One
    ``multiply.accumulate`` makes the same one multiplication per element
    and row as iterating ``row * factor``, so the bits agree."""
    paths = np.empty((3, params.n_steps + 1, params.n_regions))
    paths[:, 0] = regions["labor"], regions["productivity"], regions["intensity"]
    paths[0, 1:] = (1.0 + regions["labor_growth"]) ** STEP_YEARS
    paths[1, 1:] = (1.0 + regions["productivity_growth"]) ** STEP_YEARS
    paths[2, 1:] = (1.0 - regions["intensity_decline"]) ** STEP_YEARS
    labor, productivity, intensity = _read_only(np.multiply.accumulate(paths, axis=1, out=paths))
    commitments = (
        _draw_commitments(params.n_regions, params.n_steps, int(seed))
        if params.negotiation.enabled
        else None
    )
    return EpisodeConstants(
        params, variant, int(seed),
        theta1=_read_only(np.array(regions["theta1"], dtype=np.float64)),
        foreign_weight=_float64(params.foreign_weight),
        labor_path=labor, productivity_path=productivity, intensity_path=intensity,
        labor_term=_read_only(labor ** (1.0 - economy_mod.OUTPUT_ELASTICITY)),
        commitments=commitments,
    )


@dataclass(slots=True)
class World:
    """Simulation state between steps, beside its episode's constants: what
    actions move. Treated as a value: ``step`` returns a new instance and
    never mutates its input. The state arrays of a world from ``reset`` are
    read-only, and the generated capital is shared by every world reset
    from the same ``(n_regions, seed)``. ``commitments`` is the read-only
    row ``t`` of the constants' commitments."""

    constants: EpisodeConstants
    t: int
    capital: np.ndarray
    mitigation_prev: np.ndarray
    balance: np.ndarray
    carbon: np.ndarray
    t_atmosphere: float
    t_ocean: float
    cumulative_emissions: float

    @property
    def commitments(self) -> np.ndarray | None:
        rows = self.constants.commitments
        return None if rows is None else rows[self.t]

    @property
    def n_regions(self) -> int:
        return self.constants.params.n_regions

    def observation(self, region: int) -> Observation:
        return Observation(region=region, n_regions=self.n_regions)

    def masks(self) -> list[int] | None:
        """Each region's mitigation floor for the upcoming step, or None when
        unconstrained.

        With mask enforcement switched off, commitments are still recorded
        but nothing constrains the actions, so policies see no mask. Each
        distinct commitment is checked once.
        """
        if not _masks_bind(self):
            return None
        levels = self.commitments.tolist()
        by_level = {c: build_mask(c) for c in dict.fromkeys(levels)}
        return [by_level[c] for c in levels]


def _masks_bind(world: World) -> bool:
    """Whether the world's commitments constrain the upcoming step."""
    neg = world.constants.params.negotiation
    return neg.enabled and neg.enforce_masks


def _draw_commitments(n_regions: int, n_steps: int, episode_seed: int) -> np.ndarray:
    """Read-only ``[n_steps + 1, n_regions]`` commitments, row ``t`` from its
    own counter-based stream keyed on ``(episode_seed, t)``: uniform
    proposals, all-accept evaluations, maximum-accepted commitment."""
    proposals = np.empty((n_steps + 1, n_regions), dtype=np.int64)
    for t, row in enumerate(proposals):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([episode_seed, _NEGOTIATION_STREAM, t]))
        )
        row[:] = rng.integers(0, 10, size=n_regions)
    committed = commitments_from_arrays(proposals)
    return _read_only(np.repeat(committed[:, None], n_regions, axis=1))


# A sweep resets one world for every rollout, and a pariah run one world for
# each of its conditions, so one entry serves them.
@functools.lru_cache(maxsize=1)
def _cached_constants(params: SimParams, variant: VariantConfig, seed: int) -> EpisodeConstants:
    """``episode_constants`` of the regions ``reset`` has just generated,
    read from the cache behind ``generate_regions`` without calling it again.
    Equal configurations share an entry: they differ at most as ``1`` and
    ``1.0`` (or ``np.float64`` and ``float``) in a ranged field, and each
    such value enters the step as the same IEEE double."""
    return episode_constants(params, variant, seed, dict(_generated(params.n_regions, seed)))


def reset(params: SimParams, variant: VariantConfig, seed: int = 0) -> World:
    """Fresh world: the episode's constants (those of the reset before when
    ``(params, variant, seed)`` compare equal), the generated regions'
    initial capital and the initial climate. Every state array is read-only.

    ``seed`` has a default only because ``perfbench/run.py`` times
    ``reset(SimParams(), VariantConfig())``; every caller in the package
    passes it."""
    regions = generate_regions(params.n_regions, seed)
    return World(
        constants=_cached_constants(params, variant, int(seed)),
        t=0,
        capital=regions["capital"],
        mitigation_prev=_read_only(np.zeros(params.n_regions)),
        balance=_read_only(np.zeros(params.n_regions)),
        carbon=_read_only(np.array(climate_mod.INITIAL_CARBON_GTC, dtype=np.float64)),
        t_atmosphere=climate_mod.INITIAL_T_ATMOSPHERE,
        t_ocean=climate_mod.INITIAL_T_OCEAN,
        cumulative_emissions=0.0,
    )


def _read_only(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


class StepDetail(NamedTuple):
    """The levels one step acted on and everything it computed, under the
    names ``EpisodeRecord`` stacks them by: its fields are the
    ``HISTORY_FIELDS``. The levels are the actions' own read-only arrays.
    ``balance``, ``carbon``, ``t_atmosphere`` and ``t_ocean`` are the state
    the step leaves; ``commitments`` are those that bound it."""

    savings_levels: np.ndarray
    mitigation_levels: np.ndarray
    export_levels: np.ndarray
    import_levels: np.ndarray  # [importer, exporter]
    tariff_levels: np.ndarray
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


def _enforce_masks(world: World, actions: JointActions) -> None:
    if not _masks_bind(world):
        return
    levels = actions.mitigation
    floors = world.commitments
    below = np.flatnonzero(levels < floors)
    if below.size:
        r = int(below[0])
        raise MaskViolationError(r, int(levels[r]), int(floors[r]))


def step(world: World, actions: JointActions) -> tuple[World, StepDetail]:
    """Advance one step: the new world and the step's detail. Pure:
    identical inputs give identical outputs.

    Uses the rates ``actions`` converted from its levels when it was built,
    and reads labor, productivity and intensity from row ``t`` of the paths
    ``world.constants`` derived at reset. A world at ``t == n_steps`` has
    no step left: stepping it raises ``DomainError``.
    """
    actions.validate(world.n_regions)
    _enforce_masks(world, actions)

    c = world.constants
    p = c.params
    v = c.variant
    t = world.t
    if t >= p.n_steps:
        raise DomainError(f"the world is at step {t}, the end of its {p.n_steps}-step episode")

    # Production, damages at the step's starting temperature, abatement.
    mitigation_rate = actions.mitigation_rate
    y_gross = economy_mod.gross_output(c.productivity_path[t], world.capital, c.labor_term[t])
    dmg = economy_mod.damage_fraction(
        max(world.t_atmosphere, 0.0), v.damage_kind, 0.0, p.damage_pi2
    )
    abat = economy_mod.abatement_fraction(
        mitigation_rate, world.mitigation_prev, v.abatement_kind, c.theta1,
        economy_mod.ABATEMENT_THETA2,
    )
    y_net = (1.0 - dmg) * (_ONE - abat) * y_gross
    investment = actions.savings_rate * y_net
    emissions = c.intensity_path[t] * actions.unmitigated_rate * y_gross
    emissions_global = float(np.add.reduce(emissions))

    # Trade matching and the consumption split.
    budget = trade_mod._IMPORT_BUDGET * trade_mod.import_budget_multiplier(world.balance, y_gross)
    demanded = trade_mod.build_demand(actions.imports_rate, y_gross, budget)
    capacity = actions.export_rate * y_gross
    scaled = trade_mod.ration_exports(demanded, capacity)
    tariffed, revenue = trade_mod.apply_tariffs(
        scaled, actions.tariffs_rate, actions.untariffed_rate
    )
    flows = trade_mod.TradeFlows(scaled, tariffed)
    cons = trade_mod.consumption(y_net, investment, flows, c.foreign_weight, v)

    # Reward, with the optional disaster penalty at the same temperature the
    # damages saw.
    rewards = cons.aggregate.copy()
    if v.disaster is not None and world.t_atmosphere > v.disaster.threshold_degc:
        rewards -= v.disaster.penalty

    balance_after = trade_mod.step_balance(
        world.balance, flows.exports_scaled, flows.imports_scaled, revenue, v
    )

    # Carbon, forcing, temperature.
    carbon_after = climate_mod.step_carbon(world.carbon, emissions_global)
    forcing = climate_mod.radiative_forcing(
        float(carbon_after[0]), climate_mod.exogenous_forcing((t + 1) * STEP_YEARS)
    )
    t_at, t_lo = climate_mod.step_temperature(world.t_atmosphere, world.t_ocean, forcing)

    # Capital accumulation; the exogenous quantities' next row is in the paths.
    new_world = World(
        constants=c,
        t=t + 1,
        capital=world.capital * _CAPITAL_FACTOR + trade_mod._STEP_YEARS * investment,
        mitigation_prev=mitigation_rate,
        balance=balance_after,
        carbon=carbon_after,
        t_atmosphere=t_at,
        t_ocean=t_lo,
        cumulative_emissions=world.cumulative_emissions + STEP_YEARS * emissions_global,
    )
    # Positional, in ``StepDetail._fields`` order; ``cons`` fills the four
    # ``ConsumptionBreakdown`` fields from ``domestic`` to ``domestic_floored``.
    detail = StepDetail(
        actions.savings, actions.mitigation, actions.export, actions.imports, actions.tariffs,
        y_gross, float(dmg), abat, y_net, investment, emissions, emissions_global,
        *cons,
        flows.exports_scaled, flows.imports_scaled, revenue, rewards,
        balance_after, carbon_after, t_at, t_lo, world.commitments,
    )
    return new_world, detail


#: Every history field ``run_episode`` can stack, in ``EpisodeRecord`` order.
HISTORY_FIELDS = StepDetail._fields


@dataclass(frozen=True)
class EpisodeRecord:
    """One episode's endpoints and the history fields its caller named.

    A history field is one ``StepDetail`` field stacked over the steps. A
    field that was not recorded is None, and so is ``commitments`` when no
    step had any."""

    delta_t_end: float
    y_cum: float  # STEP_YEARS times the running sum of each step's world gross output
    total_reward: np.ndarray  # [region]
    mean_total_reward: float
    d_end: float
    initial_carbon_total: float
    cumulative_emissions: float
    final_carbon_total: float
    savings_levels: np.ndarray | None = None  # [t, region]
    mitigation_levels: np.ndarray | None = None
    export_levels: np.ndarray | None = None
    import_levels: np.ndarray | None = None  # [t, importer, exporter]
    tariff_levels: np.ndarray | None = None
    gross_output: np.ndarray | None = None  # [t, region]
    damage_fraction: np.ndarray | None = None  # [t]
    abatement_fraction: np.ndarray | None = None
    net_output: np.ndarray | None = None
    investment: np.ndarray | None = None
    emissions: np.ndarray | None = None
    emissions_global: np.ndarray | None = None  # [t]
    domestic: np.ndarray | None = None
    foreign: np.ndarray | None = None
    aggregate: np.ndarray | None = None
    domestic_floored: np.ndarray | None = None
    exports_scaled: np.ndarray | None = None
    imports_scaled: np.ndarray | None = None
    revenue: np.ndarray | None = None
    rewards: np.ndarray | None = None
    balance: np.ndarray | None = None  # [t, region], post-settlement
    carbon: np.ndarray | None = None  # [t, 3], post-update
    t_atmosphere: np.ndarray | None = None  # [t], post-update
    t_ocean: np.ndarray | None = None
    commitments: np.ndarray | None = None  # [t, region] when negotiation is on


def _episode_actions(
    world: World, policy, observations: list[Observation], policy_rng: np.random.Generator
) -> JointActions:
    masks = world.masks()
    sets = [
        policy.act(obs, masks[i] if masks else None, policy_rng)
        for i, obs in enumerate(observations)
    ]
    return JointActions.from_action_sets(sets)


def _next_actions(world: World, source):
    """Per-step action source. Fixed ``JointActions`` are applied every step
    and cannot follow commitment masks, so binding masks are a config error.
    A static policy acts once at reset when no mask binds its actions (masks
    bind for the whole episode or never), any other policy acts every step;
    each region's observation is built once per episode."""
    if isinstance(source, JointActions):
        if _masks_bind(world):
            raise ConfigError("sim.negotiation.enforce_masks: fixed actions cannot follow masks")
        return lambda w: source
    policy_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([world.constants.seed, _POLICY_STREAM]))
    )
    observations = [world.observation(i) for i in range(world.n_regions)]
    if getattr(source, "is_static", False) and not _masks_bind(world):
        actions = _episode_actions(world, source, observations, policy_rng)
        return lambda w: actions
    return lambda w: _episode_actions(w, source, observations, policy_rng)


def run_episode(
    params: SimParams,
    variant: VariantConfig,
    source,
    seed: int,
    record: tuple[str, ...] = HISTORY_FIELDS,
) -> EpisodeRecord:
    """Roll one full episode: the one loop over ``step``.

    ``source`` is either a ``JointActions``, applied every step (no
    observation is built and no policy called), or a policy, asked for each
    region's actions: once per episode if it is static and no mask binds,
    else every step. ``record`` names the ``HISTORY_FIELDS`` to record over
    the steps; the endpoints are always computed, and every history field
    not named is None. An unknown name is a ``ConfigError`` that names it.

    Each recorded field's ``[n_steps, ...]`` array is allocated at step 0,
    with the dtype and shape ``np.array`` gives the list of its per-step
    values, and row ``t`` is written as step ``t`` ends: no step's
    ``JointActions`` or ``StepDetail`` outlives its step."""
    for name in record:
        if name not in HISTORY_FIELDS:
            raise ConfigError(f"record: {name!r} is not one of {HISTORY_FIELDS}")
    world = reset(params, variant, seed)
    next_actions = _next_actions(world, source)
    rows: dict[str, np.ndarray | None] = dict.fromkeys(record)
    # (array, field name) of each field not None at step 0.
    writes = []
    y_cum = 0.0
    total_reward = np.zeros(params.n_regions)
    for t in range(params.n_steps):
        world, d = step(world, next_actions(world))
        y_cum += float(np.add.reduce(d.gross_output))
        total_reward += d.rewards
        if t == 0:
            for name in record:
                value = getattr(d, name)
                if value is not None:
                    value = np.asarray(value)
                    rows[name] = np.empty((params.n_steps, *value.shape), value.dtype)
                    writes.append((rows[name], name))
        for out, name in writes:
            out[t] = getattr(d, name)

    d_end = economy_mod.damage_fraction(
        max(world.t_atmosphere, 0.0), variant.damage_kind, 0.0, params.damage_pi2
    )
    return EpisodeRecord(
        delta_t_end=float(world.t_atmosphere),
        y_cum=float(STEP_YEARS * y_cum),
        total_reward=total_reward,
        mean_total_reward=float(total_reward.mean()),
        d_end=float(d_end),
        initial_carbon_total=sum(climate_mod.INITIAL_CARBON_GTC),
        cumulative_emissions=world.cumulative_emissions,
        final_carbon_total=float(world.carbon.sum()),
        **rows,
    )
