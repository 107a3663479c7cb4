"""Run configuration documents, the experiment registry, CSV output, and
run manifests.

Configs are JSON with nested sections mirroring the dataclasses. Parsing is
strict: unknown keys are rejected by name, ``options`` keys included,
defaults fill anything omitted, and dump -> parse round-trips losslessly.
Floats are written with shortest-round-trip precision so repeated runs
produce byte-identical files.

``EXPERIMENTS`` is the one place an experiment is named. Each entry holds
its options schema, the function that runs it and the writer of its result
files; the CLI builds its subcommands, flags and dispatch from it.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from collections.abc import Callable
from pathlib import Path
from typing import Any, get_args, get_type_hints

import numpy as np

from .actions import ACTION_DIMENSIONS
from .calibration import ANCHOR_DAMAGE, calibrate_damage_to_anchor
from .config import HORIZON_YEARS, STEP_YEARS, Range, SimParams, VariantConfig, check_whole_steps
from .engine import run_episode
from .errors import ConfigError
from .experiments import (
    EPISODES,
    GRID,
    LEVELS,
    RUNS,
    SWEEP_METRICS,
    action_sweep,
    commitment_statistics,
    horizon_experiment,
    pariah_experiment,
    tariff_effect_experiment,
    trade_effect_experiment,
)
from .policies import FixedLevelsPolicy


@dataclasses.dataclass(frozen=True)
class Option:
    """One key of an experiment's ``options``: an integer in ``bounds``, or
    a non-empty list of distinct ones when the default is a tuple."""

    default: int | tuple[int, ...]  # CI scale
    bounds: Range
    full_scale: int | None = None  # default under --full-scale, when it differs
    flag_help: str | None = None  # the option is also the CLI flag --<key>
    #: A list option's further check of each entry, ``entry_check(path, entry)``.
    entry_check: Callable[[str, int], None] | None = None

    @property
    def is_list(self) -> bool:
        return isinstance(self.default, tuple)

    def check(self, path: str, value) -> None:
        if self.is_list:
            self.bounds.check_list(path, value)
            if self.entry_check is not None:
                for k, entry in enumerate(value):
                    self.entry_check(f"{path}[{k}]", entry)
        else:
            self.bounds.check(path, value)


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One registry entry. ``run(config, workers)`` returns the result that
    ``write(out_dir, config, result)`` turns into files, returning the
    one-line report the CLI prints; ``help`` describes its subcommand."""

    name: str
    help: str
    run: Callable[[RunConfig, int], Any]
    write: Callable[[Path, RunConfig, Any], str]
    options: dict[str, Option] = dataclasses.field(default_factory=dict)

    def check_options(self, options: dict) -> None:
        for key, value in options.items():
            if key not in self.options:
                raise ConfigError(
                    f"unknown key: options.{key}; experiment {self.name!r} takes "
                    f"{sorted(self.options) or 'no options'}"
                )
            self.options[key].check(f"options.{key}", value)

    def resolve_options(self, given: dict, flags: dict, full_scale: bool) -> dict:
        """``given`` overridden by set CLI flags, then every missing key at
        the default of the chosen scale."""
        options = dict(given)
        for key, opt in self.options.items():
            if flags.get(key) is not None:
                options[key] = flags[key]
            elif key not in options:
                use_full = full_scale and opt.full_scale is not None
                options[key] = opt.full_scale if use_full else opt.default
        return options


def _write_episode(out: Path, config: RunConfig, rec) -> str:
    sim = config.sim
    n_steps, n = sim.n_steps, sim.n_regions
    step = np.repeat(np.arange(n_steps), n)  # rows run step by step, region by region
    write_csv(out / "episode.csv", {
        "step": step,
        "year": (step + 1) * STEP_YEARS,
        "region": np.tile(np.arange(n), n_steps),
        "savings_level": rec.savings_levels.ravel(),
        "mitigation_level": rec.mitigation_levels.ravel(),
        "export_level": rec.export_levels.ravel(),
        "gross_output": rec.gross_output.ravel(),
        "net_output": rec.net_output.ravel(),
        "investment": rec.investment.ravel(),
        "damage_fraction": np.repeat(rec.damage_fraction, n),
        "abatement_fraction": rec.abatement_fraction.ravel(),
        "domestic_consumption": rec.domestic.ravel(),
        "foreign_consumption": rec.foreign.ravel(),
        "aggregate_consumption": rec.aggregate.ravel(),
        "reward": rec.rewards.ravel(),
        "balance": rec.balance.ravel(),
        "emissions_gtc_per_year": rec.emissions.ravel(),
        "t_atmosphere_degc": np.repeat(rec.t_atmosphere, n),
    })
    write_csv(out / "episode_summary.csv", {
        "region": range(n),
        "total_reward": rec.total_reward,
        "delta_t_end_degc": [rec.delta_t_end] * n,
        "y_cum": [rec.y_cum] * n,
        "d_end": [rec.d_end] * n,
        "seed": [config.seed] * n,
    })
    return f"episode: {n_steps} steps, delta_t_end={rec.delta_t_end:.3f} degC"


def _write_sweep(out: Path, config: RunConfig, result) -> str:
    write_csv(out / "sweep.csv", {
        **{f"{d}_level": result.levels[:, k] for k, d in enumerate(ACTION_DIMENSIONS)},
        "delta_t_end_degc": result.delta_t_end,
        "cumulative_gross_output": result.y_cum,
        "mean_total_reward": result.mean_reward,
        "climate_index": result.climate_index,
        "economic_index": result.economic_index,
    })
    write_csv(out / "correlations.csv", {
        "action": ACTION_DIMENSIONS,
        **{m: [result.correlations[d][m] for d in ACTION_DIMENSIONS] for m in SWEEP_METRICS},
    })
    write_csv(out / "sweep_summary.csv", {
        "rollouts": [result.n_rollouts],
        "distinct_outcome_pairs": [result.distinct_outcome_count],
        "seed": [config.seed],
    })
    return (
        f"sweep: {result.n_rollouts} rollouts, "
        f"{result.distinct_outcome_count} distinct outcome pairs"
    )


def _write_pariah(out: Path, config: RunConfig, result) -> str:
    runs, conditions = config.options["runs"], result.conditions
    write_csv(out / "pariah.csv", {
        "condition": conditions,
        "runs": [runs] * len(conditions),
        "mean_z_reward": [result.mean_z[c] for c in conditions],
        "std_z_reward": [result.std_z[c] for c in conditions],
        "mean_tariff_toward_subject": [result.mean_realized_tariff[c] for c in conditions],
    })
    write_csv(out / "pariah_runs.csv", {  # rows run condition by condition, run by run
        "condition": np.repeat(conditions, runs),
        "run": np.tile(np.arange(runs), len(conditions)),
        "subject": np.tile(result.subjects, len(conditions)),
        "total_reward": np.concatenate([result.rewards[c] for c in conditions]),
        "z_reward": np.concatenate([result.z_rewards[c] for c in conditions]),
        "realized_tariff": np.concatenate([result.realized_tariff[c] for c in conditions]),
    })
    return f"pariah: {runs} runs/condition, mean z by condition: " + ", ".join(
        f"{c}={result.mean_z[c]:+.4f}" for c in conditions
    )


def _write_trade_effect(out: Path, config: RunConfig, result) -> str:
    write_csv(out / "trade_effect.csv", {
        "region": range(len(result.ratio)),
        "reward_no_trade": result.reward_no_trade,
        "reward_max_trade": result.reward_max_trade,
        "ratio_no_over_max": result.ratio,
    })
    return f"trade-effect: ratio range [{result.ratio.min():.4f}, {result.ratio.max():.4f}]"


def _write_tariff_effect(out: Path, config: RunConfig, result) -> str:
    write_csv(out / "tariff_effect.csv", {
        "region": range(len(result.delta_total)),
        "delta_total_reward": result.delta_total,
        "delta_domestic_channel": result.delta_domestic,
        "delta_foreign_channel": result.delta_foreign,
    })
    return (
        "tariff-effect: max |domestic channel| = "
        f"{abs(result.delta_domestic).max():.6g}, "
        f"max foreign channel = {result.delta_foreign.max():.6g}"
    )


def _write_horizon(out: Path, config: RunConfig, result) -> str:
    horizons = config.options["horizons"]
    write_csv(out / "horizon.csv", {
        "horizon_years": horizons,
        "t_end_degc": [result.t_end[h] for h in horizons],
        "damage_fraction_end": [result.damage_end[h] for h in horizons],
    })
    return "horizon: " + ", ".join(
        f"{h}y -> D={result.damage_end[h]:.4f}" for h in horizons
    )


def _write_masking(out: Path, config: RunConfig, result) -> str:
    counts = result.level_counts
    write_csv(out / "masking.csv", {
        "commitment_level": range(len(counts)),
        "count": counts,
        "frequency": counts / counts.sum(),
    })
    write_csv(out / "masking_summary.csv", {
        "episodes": [config.options["episodes"]],
        "steps_per_episode": [config.sim.n_steps],
        "n_regions": [config.sim.n_regions],
        "mean_commitment": [result.mean_commitment],
        "p_max_level": [result.p_max_level],
        "mean_realized_mitigation": [result.mean_realized_mitigation],
        "seed": [config.seed],
    })
    return (
        f"masking-demo: mean commitment {result.mean_commitment:.4f}, "
        f"P(level 9) {result.p_max_level:.4f}"
    )


def _write_calibration(out: Path, config: RunConfig, result) -> str:
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "pi2": result.pi2,
        "t_ref_degc": result.t_ref,
        "anchor_damage": ANCHOR_DAMAGE,
        "iterations": result.iterations,
        "seed": config.seed,
    }
    (out / "calibration.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return f"calibrate: pi2={result.pi2:.6e} at t_ref={result.t_ref:.4f} degC"


#: Every experiment, by name. Run functions look the experiment functions up
#: when called, never when the registry is built.
EXPERIMENTS = {
    e.name: e
    for e in (
        Experiment(
            "episode",
            "one episode at fixed action levels, step by step",
            run=lambda c, workers: run_episode(
                c.sim, c.variant, FixedLevelsPolicy(**c.options), c.seed
            ),
            write=_write_episode,
            options={
                dim: Option(level, LEVELS)
                for dim, level in zip(ACTION_DIMENSIONS, (3, 0, 0, 0, 0))
            },
        ),
        Experiment(
            "sweep",
            "fixed-action factorial sweep with correlation matrix",
            run=lambda c, workers: action_sweep(
                c.sim, c.variant, grid=c.options["grid"], seed=c.seed, workers=workers
            ),
            write=_write_sweep,
            options={
                "grid": Option(4, GRID, full_scale=10, flag_help="levels per action dimension"),
            },
        ),
        Experiment(
            "pariah",
            "fixed tariffs from all regions toward a random subject",
            run=lambda c, workers: pariah_experiment(
                c.sim,
                c.variant,
                runs=c.options["runs"],
                tariff_levels=tuple(c.options["tariff_levels"]),
                seed=c.seed,
            ),
            write=_write_pariah,
            options={
                "runs": Option(100, RUNS, full_scale=1000, flag_help="runs per condition"),
                "tariff_levels": Option((5, 7, 9), LEVELS),
            },
        ),
        Experiment(
            "trade-effect",
            "zero-trade vs max-trade reward comparison",
            run=lambda c, workers: trade_effect_experiment(c.sim, c.variant, c.seed),
            write=_write_trade_effect,
        ),
        Experiment(
            "tariff-effect",
            "max-tariff vs no-tariff reward comparison",
            run=lambda c, workers: tariff_effect_experiment(c.sim, c.variant, c.seed),
            write=_write_tariff_effect,
        ),
        Experiment(
            "horizon",
            "damage anchor calibration and horizon extension",
            run=lambda c, workers: horizon_experiment(
                c.sim, c.variant, tuple(c.options["horizons"]), c.seed
            ),
            write=_write_horizon,
            options={
                "horizons": Option(
                    (100, 200, 300), HORIZON_YEARS, flag_help="comma-separated horizons in years",
                    entry_check=check_whole_steps,
                ),
            },
        ),
        Experiment(
            "masking-demo",
            "commitment statistics under random proposals",
            run=lambda c, workers: commitment_statistics(
                c.sim.n_regions, c.sim.n_steps, c.options["episodes"], c.seed
            ),
            write=_write_masking,
            options={"episodes": Option(10_000, EPISODES, flag_help="episode count")},
        ),
        Experiment(
            "calibrate",
            "solve the damage coefficient for the current config",
            run=lambda c, workers: calibrate_damage_to_anchor(c.sim, c.variant, c.seed),
            write=_write_calibration,
        ),
    )
}

#: A config document without ``experiment`` runs the first entry: one episode.
DEFAULT_EXPERIMENT = next(iter(EXPERIMENTS))


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run."""

    sim: SimParams
    variant: VariantConfig
    experiment: str = DEFAULT_EXPERIMENT
    options: dict[str, Any] = dataclasses.field(default_factory=dict)
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.experiment, str) or self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment: unknown experiment {self.experiment!r}; "
                f"expected one of {tuple(EXPERIMENTS)}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed: expected a non-negative integer, got {self.seed!r}")
        EXPERIMENTS[self.experiment].check_options(self.options)


def _dataclass_from_dict(cls, data: dict, key_prefix: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{key_prefix}: expected an object, got {type(data).__name__}")
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        path = f"{key_prefix}.{key}" if key_prefix else key
        if key not in names:
            raise ConfigError(f"unknown key: {path}")
        kwargs[key] = _typed(value, hints[key], path)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(f"{key_prefix or cls.__name__}: {exc}") from exc


def _typed(value, hint, path: str):
    """``value`` checked against the field annotation ``hint``: nested
    objects become dataclasses; anything else of the wrong type is a
    ``ConfigError`` naming ``path``. A number passes as given: its field's
    declared ``Range`` checks its type and bounds."""
    if dataclasses.is_dataclass(hint):
        return _dataclass_from_dict(hint, value, path)
    args = get_args(hint)
    if type(None) in args:  # ``X | None``
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _typed(value, hint, path)
    if hint not in (int, float) and not isinstance(value, hint):
        raise ConfigError(f"{path}: expected a {hint.__name__}, got {value!r}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document, applying defaults."""
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be an object")

    known = {f.name for f in dataclasses.fields(RunConfig)} | {"versions"}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown key: {key}")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ConfigError("options: expected an object")
    return RunConfig(
        sim=_dataclass_from_dict(SimParams, data.get("sim", {}), "sim"),
        variant=_dataclass_from_dict(VariantConfig, data.get("variant", {}), "variant"),
        experiment=data.get("experiment", DEFAULT_EXPERIMENT),
        options=options,
        seed=data.get("seed", 0),
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse the config file at ``path``; a file that cannot be read as
    UTF-8 text is a configuration error naming ``--config``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"--config {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    return parse_config(text)


def format_value(value) -> str:
    """Full-precision, locale-independent cell formatting."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    return str(value)


def write_csv(path: str | Path, columns: dict[str, Any]) -> Path:
    """One column per key, in order: a header line of the names, then one
    line per row. UTF-8, LF line endings, header always present; columns
    of unequal length raise ``ValueError``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(columns)]
    lines.extend(
        ",".join(map(format_value, row)) for row in zip(*columns.values(), strict=True)
    )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_manifest(out_dir: str | Path, config: RunConfig) -> Path:
    """Write the resolved config plus tool versions; feeding the manifest
    back through --config reproduces the run."""
    import ricensim

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = dataclasses.asdict(config)  # ``json`` writes tuples as lists
    doc["versions"] = {
        "ricensim": ricensim.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
