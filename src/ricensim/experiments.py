"""Batch experiment harness.

Each experiment is deterministic given its seed. A result holds only what
the run computed; its seed and sizes are held by the ``RunConfig`` and the
run manifest written by the CLI.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .actions import ACTION_DIMENSIONS, NUM_LEVELS, JointActions, levels_to_rates
from .calibration import NO_MITIGATION_LEVELS, calibrate_damage_to_anchor
from .config import HORIZON_YEARS, Range, SimParams, VariantConfig, check_whole_steps
from .engine import run_episode
from .errors import ConfigError
from .negotiation import commitments_from_arrays
from .policies import IDEAL_TRADE_POLICY, FixedLevelsPolicy, PariahOverridePolicy
from .stats import pearson, zscore_by_group

_PARIAH_STREAM = 0x5052
_MASKING_STREAM = 0x4D44

SWEEP_METRICS = ("climate_index", "economic_index", "reward")

#: The ranges of the run sizes and action levels the experiment functions
#: take; the options of ``runio.EXPERIMENTS`` declare the same objects.
GRID = Range(1, NUM_LEVELS, "..")
LEVELS = Range(0, NUM_LEVELS - 1, "..")
RUNS = Range(1, 10_000, "..")
EPISODES = Range(1, 1_000_000, "..")
#: The most (episode, step, region) draws ``commitment_statistics`` takes.
#: It holds one integer per (episode, step) and draws the rest in chunks of
#: whole episodes, about ``_MASKING_CHUNK_DRAWS`` draws each.
MASKING_DRAWS = 20_000_000
_MASKING_CHUNK_DRAWS = 1 << 18


def check_workers(workers: int) -> None:
    """Reject a worker-process count outside ``1..os.cpu_count()``. Call it
    before any pool starts: a pool forks every worker at its first submit."""
    Range(1, os.cpu_count() or 1, "..").check("workers", workers)


def sweep_grid_levels(grid: int) -> tuple[int, ...]:
    """Evenly spaced levels for a grid of the given size (4 -> 0,3,6,9)."""
    GRID.check("options.grid", grid)
    return tuple(int(round(x)) for x in np.linspace(0, NUM_LEVELS - 1, grid))


def _sig9(x: float) -> str:
    """Text key with 1e-9 relative granularity, for outcome deduplication."""
    return f"{x:.9e}"


@dataclass(frozen=True)
class SweepResult:
    """One row per rollout plus the action/metric correlation matrix."""

    levels: np.ndarray  # [rollout, 5] in ACTION_DIMENSIONS order
    delta_t_end: np.ndarray
    y_cum: np.ndarray
    mean_reward: np.ndarray
    climate_index: np.ndarray
    economic_index: np.ndarray
    correlations: dict[str, dict[str, float | None]]
    distinct_outcome_count: int
    grid_levels: tuple[int, ...]

    @property
    def n_rollouts(self) -> int:
        return self.levels.shape[0]


def _sweep_rollout(
    params: SimParams, variant: VariantConfig, seed: int, levels: tuple[int, ...]
) -> tuple[float, float, float]:
    actions = JointActions.uniform(params.n_regions, *levels)
    rec = run_episode(params, variant, actions, seed, record=())
    return rec.delta_t_end, rec.y_cum, rec.mean_total_reward


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        return np.zeros_like(values)
    return (values - lo) / (hi - lo)


def _climate_index(delta_t: np.ndarray, y_cum: np.ndarray) -> np.ndarray:
    """Scale-adjusted warming, min-max normalized within the sweep.

    Raw end-of-horizon warming tracks the economic scale of the episode as
    well as its mitigation effort (bigger economies emit more), so the
    index first removes the least-squares fit of warming on log cumulative
    output and then normalizes the negated residual: 1 is the episode that
    ends coolest relative to what its scale would predict. Degenerate
    sweeps (a single point, or no output spread) get index 0.
    """
    if delta_t.size < 2 or np.ptp(y_cum) == 0.0 or np.ptp(delta_t) == 0.0:
        return np.zeros_like(delta_t)
    x = np.log(y_cum)
    basis = np.stack([np.ones_like(x), x], axis=1)
    coef, *_ = np.linalg.lstsq(basis, delta_t, rcond=None)
    return _minmax(-(delta_t - basis @ coef))


def action_sweep(
    params: SimParams, variant: VariantConfig, grid: int, seed: int, workers: int = 1
) -> SweepResult:
    """Fixed identical actions for all regions, one rollout per grid point.

    The climate index rises as scale-adjusted end-of-horizon warming falls
    (see ``_climate_index``); the economic index rises with cumulative
    gross output; both are min-max normalized within the sweep. Also
    counts distinct (warming, output) outcome pairs at 1e-9 relative
    rounding. ``workers`` must be in ``1..os.cpu_count()``.
    """
    check_workers(workers)
    grid_levels = sweep_grid_levels(grid)
    combos = list(itertools.product(*(grid_levels for _ in ACTION_DIMENSIONS)))
    n_rollouts = len(combos)

    rollout = functools.partial(_sweep_rollout, params, variant, seed)
    if workers > 1:
        # Imported here: the pool's modules (multiprocessing, sockets) add
        # ~1.8 MiB to a process that never starts one. ``map`` yields the
        # results in submission order.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = math.ceil(n_rollouts / (workers * 8))
            rows = list(pool.map(rollout, combos, chunksize=chunksize))
    else:
        rows = list(map(rollout, combos))

    levels = np.array(combos, dtype=np.int64)
    delta_t, y_cum, mean_reward = (np.array(column) for column in zip(*rows))

    climate_index = _climate_index(delta_t, y_cum)
    economic_index = _minmax(y_cum)
    metric_values = {
        "climate_index": climate_index,
        "economic_index": economic_index,
        "reward": mean_reward,
    }
    correlations = {
        dim: {
            metric: (
                pearson(levels[:, k], metric_values[metric]) if n_rollouts >= 2 else None
            )
            for metric in SWEEP_METRICS
        }
        for k, dim in enumerate(ACTION_DIMENSIONS)
    }
    distinct = len({(_sig9(t), _sig9(y)) for t, y in zip(delta_t, y_cum)})
    return SweepResult(
        levels=levels,
        delta_t_end=delta_t,
        y_cum=y_cum,
        mean_reward=mean_reward,
        climate_index=climate_index,
        economic_index=economic_index,
        correlations=correlations,
        distinct_outcome_count=distinct,
        grid_levels=grid_levels,
    )


@dataclass(frozen=True)
class PariahResult:
    """Z-normalized subject rewards per condition, with the realized tariff."""

    conditions: tuple[str, ...]
    subjects: np.ndarray  # [run] subject region ids, shared by every condition
    rewards: dict[str, np.ndarray]  # [run] raw subject total rewards
    z_rewards: dict[str, np.ndarray]  # [run] z-normalized by subject id
    realized_tariff: dict[str, np.ndarray]  # [run] mean tariff rate toward subject
    mean_z: dict[str, float]
    std_z: dict[str, float]
    mean_realized_tariff: dict[str, float]


def pariah_experiment(
    params: SimParams,
    variant: VariantConfig,
    runs: int,
    tariff_levels: tuple[int, ...],
    seed: int,
) -> PariahResult:
    """Fixed tariffs from everyone toward a random subject region.

    Every run generates its world from a run-specific seed and picks a
    fresh subject; all conditions share the run's world and subject, so
    condition contrasts are paired. The base policy is the fixed
    ideal-trade policy, and rewards are z-normalized by subject region id
    across the pooled conditions.
    """
    RUNS.check("options.runs", runs)
    LEVELS.check_list("options.tariff_levels", tariff_levels)
    # Each condition's name and the tariff level it forces toward the subject.
    overrides = [(f"pariah@{k}", k) for k in tariff_levels]
    overrides += [("control", None), ("free_trade", 0)]
    conditions = tuple(c for c, _ in overrides)

    run_subjects = np.zeros(runs, dtype=np.int64)
    run_seeds = np.zeros(runs, dtype=np.int64)
    for r in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, _PARIAH_STREAM, r]))
        run_subjects[r] = int(rng.integers(params.n_regions))
        run_seeds[r] = int(rng.integers(2**62))

    rewards = {c: np.zeros(runs) for c in conditions}
    realized_levels = {c: np.zeros(runs) for c in conditions}
    # Runs outermost: a run's conditions follow one another, so its world is
    # generated once and the rest reuse it from ``generate_regions``' cache.
    for r in range(runs):
        subject = int(run_subjects[r])
        others = [k for k in range(params.n_regions) if k != subject]
        for c, override in overrides:
            policy = PariahOverridePolicy(IDEAL_TRADE_POLICY, subject, override)
            rec = run_episode(
                params, variant, policy, int(run_seeds[r]), record=("tariff_levels",)
            )
            rewards[c][r] = rec.total_reward[subject]
            # Averaging integer levels (and converting to a rate only at the
            # end) keeps a constant tariff exactly at its rate.
            realized_levels[c][r] = rec.tariff_levels[:, others, subject].mean()

    pooled_values = np.concatenate([rewards[c] for c in conditions])
    pooled_groups = np.concatenate([run_subjects for _ in conditions])
    pooled_z = zscore_by_group(pooled_values, pooled_groups)
    z_rewards = {
        c: pooled_z[i * runs : (i + 1) * runs] for i, c in enumerate(conditions)
    }
    return PariahResult(
        conditions=conditions,
        subjects=run_subjects,
        rewards=rewards,
        z_rewards=z_rewards,
        realized_tariff={c: levels_to_rates(realized_levels[c]) for c in conditions},
        mean_z={c: float(z_rewards[c].mean()) for c in conditions},
        std_z={c: float(z_rewards[c].std()) for c in conditions},
        mean_realized_tariff={
            c: float(levels_to_rates(realized_levels[c].mean())) for c in conditions
        },
    )


@dataclass(frozen=True)
class TradeEffectResult:
    """Per-region total rewards under zero trade vs maximal trade."""

    reward_no_trade: np.ndarray
    reward_max_trade: np.ndarray
    ratio: np.ndarray  # no-trade / max-trade


def trade_effect_experiment(
    params: SimParams, variant: VariantConfig, seed: int
) -> TradeEffectResult:
    """Compare zero trade against maximal trade at mitigation 0.9,
    savings 0.3, and no tariffs."""
    no_trade = FixedLevelsPolicy(savings=3, mitigation=9, export=0, imports=0, tariffs=0)
    max_trade = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=0)
    r_none = run_episode(params, variant, no_trade, seed, record=()).total_reward
    r_full = run_episode(params, variant, max_trade, seed, record=()).total_reward
    return TradeEffectResult(
        reward_no_trade=r_none,
        reward_max_trade=r_full,
        ratio=r_none / r_full,
    )


@dataclass(frozen=True)
class TariffEffectResult:
    """Reward change from maximal tariffs under the ideal-trade actions,
    split into the channel hit by others' tariffs (domestic consumption of
    the tariff target) and the channel hit by own tariffs (foreign
    consumption of the tariff imposer)."""

    delta_total: np.ndarray
    delta_domestic: np.ndarray  # received-tariff channel
    delta_foreign: np.ndarray  # own-tariff channel, weighted into the reward


def tariff_effect_experiment(
    params: SimParams, variant: VariantConfig, seed: int
) -> TariffEffectResult:
    with_tariffs = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=9)
    channels = ("domestic", "foreign")
    rec0 = run_episode(params, variant, IDEAL_TRADE_POLICY, seed, record=channels)
    rec9 = run_episode(params, variant, with_tariffs, seed, record=channels)
    return TariffEffectResult(
        delta_total=rec9.total_reward - rec0.total_reward,
        delta_domestic=(rec9.domestic - rec0.domestic).sum(axis=0),
        delta_foreign=params.foreign_weight * (rec9.foreign - rec0.foreign).sum(axis=0),
    )


@dataclass(frozen=True)
class HorizonResult:
    """Horizon-end damage under zero mitigation after anchor calibration."""

    t_end: dict[int, float]
    damage_end: dict[int, float]


def horizon_experiment(
    params: SimParams, variant: VariantConfig, horizons: tuple[int, ...], seed: int
) -> HorizonResult:
    """Calibrate damages on the 100-year no-mitigation run, then extend."""
    HORIZON_YEARS.check_list("options.horizons", horizons)
    for k, h in enumerate(horizons):
        check_whole_steps(f"options.horizons[{k}]", h, params.dt_years)
    cal = calibrate_damage_to_anchor(params, variant, seed)
    t_end: dict[int, float] = {}
    d_end: dict[int, float] = {}
    for h in horizons:
        p = replace(params, horizon_years=h, damage_pi2=cal.pi2)
        rec = run_episode(
            p, variant, JointActions.uniform(p.n_regions, *NO_MITIGATION_LEVELS), seed, record=()
        )
        t_end[h] = rec.delta_t_end
        d_end[h] = rec.d_end
    return HorizonResult(t_end=t_end, damage_end=d_end)


@dataclass(frozen=True)
class MaskingDemoResult:
    """Monte-Carlo commitment statistics under uniform proposals and
    all-accept evaluations."""

    level_counts: np.ndarray  # [level] over per-step commitments
    mean_commitment: float
    p_max_level: float
    mean_realized_mitigation: float


def commitment_statistics(
    n_regions: int, steps: int, episodes: int, seed: int
) -> MaskingDemoResult:
    """Monte-Carlo commitment statistics for any region count.

    Uniform proposals, all-accept evaluations; realized mitigation is the
    uniform draw over each step's permitted levels. Commitments depend only
    on proposals and evaluations, so the rollout economy is not simulated.
    """
    EPISODES.check("options.episodes", episodes)
    if episodes * steps * n_regions > MASKING_DRAWS:
        raise ConfigError(f"options.episodes: {episodes} episodes x {steps} steps x "
                          f"{n_regions} regions are more than {MASKING_DRAWS} draws")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _MASKING_STREAM]))
    chunk = max(1, _MASKING_CHUNK_DRAWS // (steps * n_regions))  # whole episodes
    starts = range(0, episodes, chunk)
    # Every proposal is drawn before any uniform, as two one-shot draws of
    # the whole [episode, step, region] arrays would.
    commitments = np.empty((episodes, steps), dtype=np.int64)
    for lo in starts:
        block = commitments[lo : lo + chunk]
        proposals = rng.integers(0, NUM_LEVELS, size=(len(block), steps, n_regions))
        block[:] = commitments_from_arrays(proposals)
    realized_sum = 0  # of integer levels, so exact in any chunking
    for lo in starts:
        c = commitments[lo : lo + chunk, :, None]
        u = rng.random(size=(len(c), steps, n_regions))
        realized_sum += int((c + np.floor(u * (NUM_LEVELS - c))).sum())
    counts = np.bincount(commitments.ravel(), minlength=NUM_LEVELS)
    return MaskingDemoResult(
        level_counts=counts,
        mean_commitment=float(commitments.mean()),
        p_max_level=float((commitments == NUM_LEVELS - 1).mean()),
        mean_realized_mitigation=float(
            levels_to_rates(realized_sum / (commitments.size * n_regions))
        ),
    )
