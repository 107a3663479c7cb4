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
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

from .actions import ACTION_DIMENSIONS, NUM_LEVELS
from .calibration import ANCHOR_DAMAGE, calibrate_damage_to_anchor
from .config import SimParams, VariantConfig
from .engine import run_episode
from .errors import ConfigError
from .experiments import (
    SWEEP_METRICS,
    action_sweep,
    commitment_statistics,
    horizon_experiment,
    pariah_experiment,
    tariff_effect_experiment,
    trade_effect_experiment,
)
from .policies import FixedLevelsPolicy


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclasses.dataclass(frozen=True)
class Option:
    """One key of an experiment's ``options``: an integer in ``lo..hi``, or
    a non-empty list of distinct ones when the default is a tuple."""

    default: int | tuple[int, ...]  # CI scale
    lo: int
    hi: int | None = None
    full_scale: int | None = None  # default under --full-scale, when it differs
    flag_help: str | None = None  # the option is also the CLI flag --<key>

    @property
    def is_list(self) -> bool:
        return isinstance(self.default, tuple)

    def _fits(self, value) -> bool:
        return _is_int(value) and self.lo <= value and (self.hi is None or value <= self.hi)

    def check(self, path: str, value) -> None:
        span = f"{self.lo}..{self.hi}" if self.hi is not None else f">= {self.lo}"
        if self.is_list:
            ok = isinstance(value, (list, tuple)) and len(value) > 0
            ok = ok and all(self._fits(v) for v in value) and len(set(value)) == len(value)
            want = f"a non-empty list of distinct integers {span}"
        else:
            ok, want = self._fits(value), f"an integer {span}"
        if not ok:
            raise ConfigError(f"{path}: expected {want}, got {value!r}")


@dataclasses.dataclass(frozen=True)
class Experiment:
    """One registry entry. ``run(config, workers)`` returns the result that
    ``write(out_dir, config, result)`` turns into files, returning the
    one-line report the CLI prints. Without ``help`` the experiment has no
    subcommand and runs only through ``run --config``."""

    name: str
    help: str | None
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
    rows = [
        [
            t, (t + 1) * rec.dt_years, i,
            rec.savings_levels[t, i], rec.mitigation_levels[t, i], rec.export_levels[t, i],
            rec.gross_output[t, i], rec.net_output[t, i], rec.investment[t, i],
            rec.damage_fraction[t], rec.abatement_fraction[t, i],
            rec.domestic[t, i], rec.foreign[t, i], rec.aggregate[t, i],
            rec.rewards[t, i], rec.balance[t, i], rec.emissions[t, i], rec.t_atmosphere[t],
        ]
        for t in range(rec.n_steps)
        for i in range(rec.n_regions)
    ]
    write_csv(
        out / "episode.csv",
        [
            "step", "year", "region", "savings_level", "mitigation_level",
            "export_level", "gross_output", "net_output", "investment",
            "damage_fraction", "abatement_fraction", "domestic_consumption",
            "foreign_consumption", "aggregate_consumption", "reward",
            "balance", "emissions_gtc_per_year", "t_atmosphere_degc",
        ],
        rows,
    )
    write_csv(
        out / "episode_summary.csv",
        ["region", "total_reward", "delta_t_end_degc", "y_cum", "d_end", "seed"],
        [
            [i, rec.total_reward[i], rec.delta_t_end, rec.y_cum, rec.d_end, rec.seed]
            for i in range(rec.n_regions)
        ],
    )
    return f"episode: {rec.n_steps} steps, delta_t_end={rec.delta_t_end:.3f} degC"


def _write_sweep(out: Path, config: RunConfig, result) -> str:
    rows = [
        list(result.levels[i])
        + [
            result.delta_t_end[i],
            result.y_cum[i],
            result.mean_reward[i],
            result.climate_index[i],
            result.economic_index[i],
        ]
        for i in range(result.n_rollouts)
    ]
    write_csv(
        out / "sweep.csv",
        [f"{d}_level" for d in ACTION_DIMENSIONS]
        + ["delta_t_end_degc", "cumulative_gross_output", "mean_total_reward", "climate_index", "economic_index"],
        rows,
    )
    write_csv(
        out / "correlations.csv",
        ["action"] + list(SWEEP_METRICS),
        [
            [dim] + [result.correlations[dim][m] for m in SWEEP_METRICS]
            for dim in ACTION_DIMENSIONS
        ],
    )
    write_csv(
        out / "sweep_summary.csv",
        ["rollouts", "distinct_outcome_pairs", "seed"],
        [[result.n_rollouts, result.distinct_outcome_count, result.seed]],
    )
    return (
        f"sweep: {result.n_rollouts} rollouts, "
        f"{result.distinct_outcome_count} distinct outcome pairs"
    )


def _write_pariah(out: Path, config: RunConfig, result) -> str:
    write_csv(
        out / "pariah.csv",
        ["condition", "runs", "mean_z_reward", "std_z_reward", "mean_tariff_toward_subject"],
        [
            [c, result.runs, result.mean_z[c], result.std_z[c], result.mean_realized_tariff[c]]
            for c in result.conditions
        ],
    )
    write_csv(
        out / "pariah_runs.csv",
        ["condition", "run", "subject", "total_reward", "z_reward", "realized_tariff"],
        [
            [c, r, result.subjects[r], result.rewards[c][r], result.z_rewards[c][r], result.realized_tariff[c][r]]
            for c in result.conditions
            for r in range(result.runs)
        ],
    )
    return f"pariah: {result.runs} runs/condition, mean z by condition: " + ", ".join(
        f"{c}={result.mean_z[c]:+.4f}" for c in result.conditions
    )


def _write_trade_effect(out: Path, config: RunConfig, result) -> str:
    write_csv(
        out / "trade_effect.csv",
        ["region", "reward_no_trade", "reward_max_trade", "ratio_no_over_max"],
        [
            [i, result.reward_no_trade[i], result.reward_max_trade[i], result.ratio[i]]
            for i in range(len(result.ratio))
        ],
    )
    return f"trade-effect: ratio range [{result.ratio.min():.4f}, {result.ratio.max():.4f}]"


def _write_tariff_effect(out: Path, config: RunConfig, result) -> str:
    write_csv(
        out / "tariff_effect.csv",
        ["region", "delta_total_reward", "delta_domestic_channel", "delta_foreign_channel"],
        [
            [i, result.delta_total[i], result.delta_domestic[i], result.delta_foreign[i]]
            for i in range(len(result.delta_total))
        ],
    )
    return (
        "tariff-effect: max |domestic channel| = "
        f"{abs(result.delta_domestic).max():.6g}, "
        f"max foreign channel = {result.delta_foreign.max():.6g}"
    )


def _write_horizon(out: Path, config: RunConfig, result) -> str:
    write_csv(
        out / "horizon.csv",
        ["horizon_years", "t_end_degc", "damage_fraction_end"],
        [[h, result.t_end[h], result.damage_end[h]] for h in result.horizons],
    )
    return "horizon: " + ", ".join(
        f"{h}y -> D={result.damage_end[h]:.4f}" for h in result.horizons
    )


def _write_masking(out: Path, config: RunConfig, result) -> str:
    write_csv(
        out / "masking.csv",
        ["commitment_level", "count", "frequency"],
        [
            [lvl, result.level_counts[lvl], result.level_counts[lvl] / result.level_counts.sum()]
            for lvl in range(len(result.level_counts))
        ],
    )
    write_csv(
        out / "masking_summary.csv",
        ["episodes", "steps_per_episode", "n_regions", "mean_commitment", "p_max_level", "mean_realized_mitigation", "seed"],
        [[result.episodes, result.steps_per_episode, result.n_regions,
          result.mean_commitment, result.p_max_level, result.mean_realized_mitigation, result.seed]],
    )
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


_ACTION_LEVEL = NUM_LEVELS - 1

#: Every experiment, by name. Run functions look the experiment functions up
#: when called, never when the registry is built.
EXPERIMENTS = {
    e.name: e
    for e in (
        Experiment(
            "episode",
            None,
            run=lambda c, workers: run_episode(
                c.sim, c.variant, FixedLevelsPolicy(**c.options), c.seed
            ),
            write=_write_episode,
            options={
                dim: Option(level, 0, _ACTION_LEVEL)
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
                "grid": Option(4, 1, NUM_LEVELS, full_scale=10, flag_help="levels per action dimension"),
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
                "runs": Option(100, 1, full_scale=1000, flag_help="runs per condition"),
                "tariff_levels": Option((5, 7, 9), 0, _ACTION_LEVEL),
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
                    (100, 200, 300), 1, flag_help="comma-separated horizons in years"
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
            options={"episodes": Option(10_000, 1, flag_help="episode count")},
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
        if not (_is_int(self.seed) and self.seed >= 0):
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
    objects become dataclasses and lists become tuples; anything else of
    the wrong type is a ``ConfigError`` naming ``path``."""
    if dataclasses.is_dataclass(hint):
        return _dataclass_from_dict(hint, value, path)
    args = get_args(hint)
    if type(None) in args:  # ``X | None``
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return _typed(value, hint, path)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{path}: expected {len(args)} entries, got {len(value)}")
        return tuple(_typed(v, a, f"{path}[{k}]") for k, (v, a) in enumerate(zip(value, args)))
    if hint is float:
        ok = _is_number(value) and abs(value) <= sys.float_info.max
        expected = "a finite number"
    elif hint is int:
        ok = _is_int(value)
        expected = "an integer"
    else:
        ok = isinstance(value, hint)
        expected = f"a {hint.__name__}"
    if not ok:
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    return value


def config_to_dict(config: RunConfig) -> dict:
    """The config as JSON-ready values (``json`` writes tuples as lists)."""
    return {
        "sim": dataclasses.asdict(config.sim),
        "variant": dataclasses.asdict(config.variant),
        "experiment": config.experiment,
        "options": config.options,
        "seed": config.seed,
    }


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config document, applying defaults."""
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be an object")

    known = {"sim", "variant", "experiment", "options", "seed", "versions"}
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
    return parse_config(Path(path).read_text(encoding="utf-8"))


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


def write_csv(path: str | Path, header: list[str], rows) -> Path:
    """UTF-8, LF line endings, header always present."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def write_manifest(out_dir: str | Path, config: RunConfig) -> Path:
    """Write the resolved config plus tool versions; feeding the manifest
    back through --config reproduces the run."""
    import ricensim

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = config_to_dict(config)
    doc["versions"] = {
        "ricensim": ricensim.__version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
