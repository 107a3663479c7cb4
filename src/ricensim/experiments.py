"""Batch experiment harness.

Each experiment is deterministic given its seed, which is carried in its
result object and in the run manifest written by the CLI.
"""
from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .actions import ACTION_DIMENSIONS, NUM_LEVELS, JointActions
from .calibration import NO_MITIGATION_LEVELS, calibrate_damage_to_anchor
from .config import SimParams, VariantConfig, check_workers
from .engine import run_episode, run_fixed_actions_summary
from .errors import ConfigError
from .negotiation import commitments_from_arrays
from .policies import IDEAL_TRADE_POLICY, FixedLevelsPolicy, PariahOverridePolicy
from .stats import pearson, zscore_by_group

_PARIAH_STREAM = 0x5052
_MASKING_STREAM = 0x4D44

SWEEP_METRICS = ("climate_index", "economic_index", "reward")


def sweep_grid_levels(grid: int) -> tuple[int, ...]:
    """Evenly spaced levels for a grid of the given size (4 -> 0,3,6,9)."""
    if not 1 <= grid <= NUM_LEVELS:
        raise ConfigError(f"grid: must be in 1..{NUM_LEVELS}, got {grid}")
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
    seed: int

    @property
    def n_rollouts(self) -> int:
        return self.levels.shape[0]


def _sweep_chunk(args) -> list[tuple[float, float, float]]:
    params, variant, seed, combos = args
    out = []
    for levels in combos:
        actions = JointActions.uniform(params.n_regions, *levels)
        summary = run_fixed_actions_summary(params, variant, actions, seed)
        out.append((summary.delta_t_end, summary.y_cum, summary.mean_total_reward))
    return out


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

    if workers > 1:
        chunk_size = max(1, (n_rollouts + workers * 8 - 1) // (workers * 8))
        chunks = [
            (params, variant, seed, combos[i : i + chunk_size])
            for i in range(0, n_rollouts, chunk_size)
        ]
        # ``map`` yields the chunks in submission order.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = [row for chunk in pool.map(_sweep_chunk, chunks) for row in chunk]
    else:
        rows = _sweep_chunk((params, variant, seed, combos))

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
        seed=int(seed),
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
    runs: int
    seed: int


def pariah_experiment(
    params: SimParams,
    variant: VariantConfig,
    runs: int,
    tariff_levels: tuple[int, ...],
    seed: int,
) -> PariahResult:
    """Fixed tariffs from everyone toward a random subject region.

    Every run regenerates the world from a run-specific seed and picks a
    fresh subject; all conditions share the run's world and subject, so
    condition contrasts are paired. The base policy is the fixed
    ideal-trade policy, and rewards are z-normalized by subject region id
    across the pooled conditions.
    """
    if runs < 1:
        raise ConfigError(f"runs: must be >= 1, got {runs}")
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
    for c, override in overrides:
        for r in range(runs):
            subject = int(run_subjects[r])
            policy = PariahOverridePolicy(IDEAL_TRADE_POLICY, subject, override)
            rec = run_episode(params, variant, policy, int(run_seeds[r]))
            rewards[c][r] = rec.total_reward[subject]
            others = [k for k in range(params.n_regions) if k != subject]
            # Averaging integer levels (and dividing by 10 only at the end)
            # keeps a constant tariff exactly at its rate.
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
        realized_tariff={c: realized_levels[c] / 10.0 for c in conditions},
        mean_z={c: float(z_rewards[c].mean()) for c in conditions},
        std_z={c: float(z_rewards[c].std()) for c in conditions},
        mean_realized_tariff={
            c: float(realized_levels[c].mean() / 10.0) for c in conditions
        },
        runs=runs,
        seed=seed,
    )


@dataclass(frozen=True)
class TradeEffectResult:
    """Per-region total rewards under zero trade vs maximal trade."""

    reward_no_trade: np.ndarray
    reward_max_trade: np.ndarray
    ratio: np.ndarray  # no-trade / max-trade
    seed: int


def trade_effect_experiment(
    params: SimParams, variant: VariantConfig, seed: int
) -> TradeEffectResult:
    """Compare zero trade against maximal trade at mitigation 0.9,
    savings 0.3, and no tariffs."""
    no_trade = FixedLevelsPolicy(savings=3, mitigation=9, export=0, imports=0, tariffs=0)
    max_trade = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=0)
    r_none = run_episode(params, variant, no_trade, seed).total_reward
    r_full = run_episode(params, variant, max_trade, seed).total_reward
    return TradeEffectResult(
        reward_no_trade=r_none,
        reward_max_trade=r_full,
        ratio=r_none / r_full,
        seed=int(seed),
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
    seed: int


def tariff_effect_experiment(
    params: SimParams, variant: VariantConfig, seed: int
) -> TariffEffectResult:
    with_tariffs = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=9)
    rec0 = run_episode(params, variant, IDEAL_TRADE_POLICY, seed)
    rec9 = run_episode(params, variant, with_tariffs, seed)
    return TariffEffectResult(
        delta_total=rec9.total_reward - rec0.total_reward,
        delta_domestic=(rec9.domestic - rec0.domestic).sum(axis=0),
        delta_foreign=params.foreign_weight * (rec9.foreign - rec0.foreign).sum(axis=0),
        seed=int(seed),
    )


@dataclass(frozen=True)
class HorizonResult:
    """Horizon-end damage under zero mitigation after anchor calibration."""

    horizons: tuple[int, ...]
    t_end: dict[int, float]
    damage_end: dict[int, float]
    seed: int


def horizon_experiment(
    params: SimParams, variant: VariantConfig, horizons: tuple[int, ...], seed: int
) -> HorizonResult:
    """Calibrate damages on the 100-year no-mitigation run, then extend."""
    for h in horizons:
        if h % params.dt_years != 0:
            raise ConfigError(f"horizons: {h} is not a multiple of dt_years")
    cal = calibrate_damage_to_anchor(params, variant, seed)
    t_end: dict[int, float] = {}
    d_end: dict[int, float] = {}
    for h in horizons:
        p = replace(params, horizon_years=h, damage_pi1=0.0, damage_pi2=cal.pi2)
        summary = run_fixed_actions_summary(
            p, variant, JointActions.uniform(p.n_regions, *NO_MITIGATION_LEVELS), seed
        )
        t_end[h] = summary.delta_t_end
        d_end[h] = summary.d_end
    return HorizonResult(horizons=tuple(horizons), t_end=t_end, damage_end=d_end, seed=int(seed))


@dataclass(frozen=True)
class MaskingDemoResult:
    """Monte-Carlo commitment statistics under uniform proposals and
    all-accept evaluations."""

    episodes: int
    steps_per_episode: int
    n_regions: int
    level_counts: np.ndarray  # [level] over per-step commitments
    mean_commitment: float
    p_max_level: float
    mean_realized_mitigation: float
    seed: int


def commitment_statistics(
    n_regions: int, steps: int, episodes: int, seed: int
) -> MaskingDemoResult:
    """Monte-Carlo commitment statistics for any region count.

    Uniform proposals, all-accept evaluations; realized mitigation is the
    uniform draw over each step's permitted levels. Commitments depend only
    on proposals and evaluations, so the rollout economy is not simulated.
    """
    if episodes < 1:
        raise ConfigError(f"episodes: must be >= 1, got {episodes}")
    rng = np.random.default_rng(np.random.SeedSequence([seed, _MASKING_STREAM]))
    proposals = rng.integers(0, NUM_LEVELS, size=(episodes, steps, n_regions))
    commitments = commitments_from_arrays(proposals)[..., 0]  # same for every region
    realized = commitments[..., None] + np.floor(
        rng.random(size=(episodes, steps, n_regions))
        * (NUM_LEVELS - commitments)[..., None]
    )
    counts = np.bincount(commitments.ravel(), minlength=NUM_LEVELS)
    return MaskingDemoResult(
        episodes=episodes,
        steps_per_episode=steps,
        n_regions=n_regions,
        level_counts=counts,
        mean_commitment=float(commitments.mean()),
        p_max_level=float((commitments == NUM_LEVELS - 1).mean()),
        mean_realized_mitigation=float(realized.mean() / 10.0),
        seed=seed,
    )
