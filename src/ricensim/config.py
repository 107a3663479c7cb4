"""Configuration dataclasses for the simulator.

All configuration is held in frozen dataclasses validated at construction
time; anything invalid raises :class:`ConfigError` naming the offending key
by its config document path. A numeric field declares its :class:`Range`
as field metadata; ``__post_init__`` adds only the cross-field checks.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

from .errors import ConfigError


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{key}: {message}")


@dataclass(frozen=True)
class Range:
    """The values one numeric key admits, from ``lo`` to ``hi``: with
    ``ends=".."`` the integers ``lo..hi``, else the numbers of the interval
    whose ends are closed ``[ ]`` or open ``( )`` as ``ends`` brackets them."""

    lo: float
    hi: float
    ends: str = "[]"

    def __str__(self) -> str:
        if self.ends == "..":
            return f"{self.lo}..{self.hi}"
        return f"{self.ends[0]}{self.lo:g}, {self.hi:g}{self.ends[1]}"

    def admits(self, value) -> bool:
        kind = int if self.ends == ".." else (int, float)
        if isinstance(value, bool) or not isinstance(value, kind):
            return False
        above = value > self.lo if self.ends[0] == "(" else value >= self.lo
        below = value < self.hi if self.ends[1] == ")" else value <= self.hi
        return bool(above and below)  # NaN fails both

    def check(self, path: str, value) -> None:
        """Raise a ``ConfigError`` naming ``path`` unless ``value`` is in range."""
        if not self.admits(value):
            kind = "an integer" if self.ends == ".." else "a number"
            raise ConfigError(f"{path}: expected {kind} in {self}, got {value!r}")

    def check_list(self, path: str, value) -> None:
        """Raise a ``ConfigError`` naming ``path`` unless ``value`` is a
        non-empty list or tuple of distinct entries, each in range."""
        if not isinstance(value, (list, tuple)) or not value:
            raise ConfigError(f"{path}: expected a non-empty list, got {value!r}")
        for k, entry in enumerate(value):
            self.check(f"{path}[{k}]", entry)
        if len(set(value)) < len(value):
            raise ConfigError(f"{path}: expected distinct entries, got {value!r}")


def ranged(bounds: Range, default=MISSING):
    """A dataclass field that declares the ``Range`` of its values."""
    return field(default=default, metadata={"range": bounds})


def _check_ranges(obj, prefix: str) -> None:
    """Check each ranged field of ``obj``, naming it by its path under ``prefix``."""
    for f in fields(obj):
        if "range" in f.metadata:
            f.metadata["range"].check(f"{prefix}.{f.name}", getattr(obj, f.name))


#: Ranges that a library entry point taking a raw value checks as well.
N_REGIONS = Range(2, 100, "..")
HORIZON_YEARS = Range(1, 1000, "..")
#: Years per step. The carbon transfer fractions and the two-box temperature
#: coefficients are the DICE calibration's per-5-year values, so the climate
#: is right at this step length only.
STEP_YEARS = 5


def check_whole_steps(path: str, years: int) -> None:
    """Reject a horizon that is not a whole number of ``STEP_YEARS`` steps."""
    _require(years % STEP_YEARS == 0, path, f"{years} is not a multiple of {STEP_YEARS}")


@dataclass(frozen=True)
class NegotiationConfig:
    """Proposal/evaluation protocol switchboard.

    Commitment masks floor the mitigation level. ``enforce_masks`` is the
    global switch: when False, commitments are still computed and recorded
    but actions are never constrained, which is exactly what makes
    commitments unenforceable.
    """

    enabled: bool = False
    enforce_masks: bool = True


@dataclass(frozen=True)
class DisasterPenalty:
    """Flat per-step reward penalty once warming passes a threshold."""

    threshold_degc: float = ranged(Range(0, 20, "(]"))
    # Rewards are O(1e3) per region and step; a larger penalty only risks
    # an overflow to -inf in the episode totals.
    penalty: float = ranged(Range(0, 1e9))

    def __post_init__(self) -> None:
        _check_ranges(self, "variant.disaster")


@dataclass(frozen=True)
class VariantConfig:
    """Switches for the proposed model fixes and functional-form choices."""

    use_tariff_revenue: bool = False
    overproduction_penalty: bool = False
    abatement_kind: str = "persistent"
    damage_kind: str = "dice_quadratic"
    disaster: DisasterPenalty | None = None

    def __post_init__(self) -> None:
        _require(
            self.abatement_kind in ("persistent", "transitional"),
            "variant.abatement_kind",
            "must be 'persistent' or 'transitional'",
        )
        _require(
            self.damage_kind in ("dice_quadratic", "weitzman"),
            "variant.damage_kind",
            "must be 'dice_quadratic' or 'weitzman'",
        )


#: Damage coefficient on T^2 calibrated so that the default no-mitigation
#: 100-year rollout loses 8.5% of gross output at its final temperature.
#: Recompute for custom configurations with `ricensim calibrate`.
DEFAULT_DAMAGE_PI2 = 0.00020649095167452923


@dataclass(frozen=True)
class SimParams:
    """Top-level simulation parameters. The economic calibration (output
    elasticity, depreciation, abatement-cost exponents, import budget) is
    the constants of ``economy`` and ``trade``."""

    n_regions: int = ranged(N_REGIONS, 27)
    horizon_years: int = ranged(HORIZON_YEARS, 100)
    foreign_weight: float = ranged(Range(0, 1, "(]"), 0.7)  # weight of foreign consumption in the reward
    damage_pi2: float = ranged(Range(0, 1), DEFAULT_DAMAGE_PI2)
    negotiation: NegotiationConfig = field(default_factory=NegotiationConfig)

    def __post_init__(self) -> None:
        _check_ranges(self, "sim")
        check_whole_steps("sim.horizon_years", self.horizon_years)

    @property
    def n_steps(self) -> int:
        return self.horizon_years // STEP_YEARS
