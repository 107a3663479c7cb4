"""Configuration dataclasses for the simulator.

All configuration is held in frozen dataclasses validated at construction
time; anything invalid raises :class:`ConfigError` naming the offending key.
"""
from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError, DomainError
from .negotiation import NEGOTIABLE_DIMENSIONS

#: Per-5-year carbon transfer fractions between (atmosphere, upper ocean,
#: lower ocean). Column-stochastic: column j holds the destination split of
#: reservoir j's stock, so applying the matrix conserves total carbon.
CARBON_TRANSFER_5Y = (
    (0.88, 0.196, 0.0),
    (0.12, 0.797, 0.001465),
    (0.0, 0.007, 0.998535),
)


def _require(condition: bool, key: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{key}: {message}")


def check_workers(workers: int) -> None:
    """Reject a worker-process count outside ``1..os.cpu_count()``. Call it
    before any pool starts: a pool forks every worker at its first submit."""
    cpus = os.cpu_count() or 1
    _require(1 <= workers <= cpus, "workers", f"must be in 1..{cpus}, got {workers}")


@dataclass(frozen=True)
class ClimateParams:
    """Carbon-cycle and two-box temperature parameters.

    Defaults follow the standard published 5-year calibration for a
    3-reservoir carbon cycle and two-box temperature model; the exogenous
    forcing ramps linearly from ``forcing_exogenous_start`` to
    ``forcing_exogenous_end`` over ``forcing_ramp_years`` and is constant
    afterwards.
    """

    carbon_transfer_5y: tuple[tuple[float, float, float], ...] = CARBON_TRANSFER_5Y
    forcing_per_doubling: float = 3.6813  # W/m^2
    reference_atmosphere_gtc: float = 588.0
    temperature_feedback: float = 1.1875  # W/m^2 per degC
    heat_capacity_c1: float = 0.1005
    atm_ocean_exchange_c3: float = 0.088
    ocean_uptake_c4: float = 0.025
    forcing_exogenous_start: float = 0.5
    forcing_exogenous_end: float = 1.0
    forcing_ramp_years: float = 100.0
    initial_carbon_gtc: tuple[float, float, float] = (850.0, 460.0, 1740.0)
    initial_t_atmosphere: float = 1.1
    initial_t_ocean: float = 0.3

    def __post_init__(self) -> None:
        _require(
            len(self.carbon_transfer_5y) == 3
            and all(len(row) == 3 for row in self.carbon_transfer_5y),
            "climate.carbon_transfer_5y",
            "must be a 3x3 matrix",
        )
        for j in range(3):
            col = sum(self.carbon_transfer_5y[i][j] for i in range(3))
            _require(
                abs(col - 1.0) <= 1e-9,
                "climate.carbon_transfer_5y",
                f"column {j} sums to {col}, breaking carbon conservation",
            )
            _require(
                all(self.carbon_transfer_5y[i][j] >= 0.0 for i in range(3)),
                "climate.carbon_transfer_5y",
                "entries must be nonnegative",
            )
        _require(
            0 < self.forcing_per_doubling <= 10,
            "climate.forcing_per_doubling",
            "must be in (0, 10] W/m^2",
        )
        for key in ("forcing_exogenous_start", "forcing_exogenous_end"):
            _require(abs(getattr(self, key)) <= 10, f"climate.{key}", "must be in [-10, 10] W/m^2")
        _require(
            self.reference_atmosphere_gtc > 0,
            "climate.reference_atmosphere_gtc",
            "must be > 0",
        )
        _require(self.temperature_feedback > 0, "climate.temperature_feedback", "must be > 0")
        _require(
            all(0 < m <= 1e5 for m in self.initial_carbon_gtc),
            "climate.initial_carbon_gtc",
            "all reservoirs must be in (0, 1e5] GtC",
        )
        for key in ("initial_t_atmosphere", "initial_t_ocean"):
            _require(abs(getattr(self, key)) <= 10, f"climate.{key}", "must be in [-10, 10] degC")
        # The difference of logs stays finite for any two positive floats.
        co2_forcing = self.forcing_per_doubling * (
            math.log2(self.initial_carbon_gtc[0]) - math.log2(self.reference_atmosphere_gtc)
        )
        _require(
            abs(co2_forcing) <= 10,
            "climate.reference_atmosphere_gtc",
            "the initial CO2 forcing forcing_per_doubling * log2(initial_carbon_gtc[0] / "
            f"reference_atmosphere_gtc) is {co2_forcing:.3g} W/m^2, must be in [-10, 10]",
        )
        _require(self.forcing_ramp_years > 0, "climate.forcing_ramp_years", "must be > 0")
        # One step of the two-box model maps the temperatures (T_at, T_lo)
        # through the matrix [[a, b], [c, d]] (plus forcing); unless the
        # larger modulus of its eigenvalues is below 1 they oscillate or grow
        # without bound.
        c1, c3, c4 = self.heat_capacity_c1, self.atm_ocean_exchange_c3, self.ocean_uptake_c4
        (a, b), (c, d) = [[1 - c1 * (self.temperature_feedback + c3), c1 * c3], [c4, 1 - c4]]
        half_trace = (a + d) / 2
        root = cmath.sqrt(half_trace * half_trace - (a * d - b * c))
        radius = max(abs(half_trace + root), abs(half_trace - root))
        _require(
            radius < 1,
            "climate.heat_capacity_c1",
            f"the two-box temperature step has spectral radius {radius:.3g}, not below 1, "
            "with atm_ocean_exchange_c3, ocean_uptake_c4 and temperature_feedback; "
            "temperatures would diverge",
        )


@dataclass(frozen=True)
class NegotiationConfig:
    """Proposal/evaluation protocol switchboard.

    ``dimensions`` selects which action dimensions the commitment masks
    constrain. ``enforce_masks`` is the global switch: when False,
    commitments are still computed and recorded but actions are never
    constrained, which is exactly what makes commitments unenforceable.
    """

    enabled: bool = False
    dimensions: tuple[str, ...] = ("mitigation",)
    enforce_masks: bool = True

    def __post_init__(self) -> None:
        _require(
            all(d in NEGOTIABLE_DIMENSIONS for d in self.dimensions),
            "negotiation.dimensions",
            f"entries must be in {sorted(NEGOTIABLE_DIMENSIONS)}",
        )
        _require(len(self.dimensions) >= 1, "negotiation.dimensions", "must not be empty")


@dataclass(frozen=True)
class DisasterPenalty:
    """Flat per-step reward penalty once warming passes a threshold."""

    threshold_degc: float
    penalty: float

    def __post_init__(self) -> None:
        _require(self.threshold_degc > 0, "variant.disaster.threshold_degc", "must be > 0")
        # Rewards are O(1e3) per region and step; a larger penalty only
        # risks an overflow to -inf in the episode totals.
        _require(0 <= self.penalty <= 1e9, "variant.disaster.penalty", "must be in [0, 1e9]")


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
    """Top-level simulation parameters.

    ``theta2``/``theta3`` are the abatement-cost exponent and the weight of
    the squared mitigation increment in the transitional cost; the linear
    abatement coefficient is heterogeneous and drawn per region.
    """

    n_regions: int = 27
    dt_years: int = 5
    horizon_years: int = 100
    output_elasticity: float = 0.3  # capital share in production
    depreciation: float = 0.1  # per-year capital depreciation
    foreign_weight: float = 0.7  # weight of foreign consumption in the reward
    import_budget: float = 0.1  # fraction of gross output available for imports
    theta2: float = 2.6
    theta3: float = 1.0
    damage_pi1: float = 0.0
    damage_pi2: float = DEFAULT_DAMAGE_PI2
    climate: ClimateParams = field(default_factory=ClimateParams)
    negotiation: NegotiationConfig = field(default_factory=NegotiationConfig)

    def __post_init__(self) -> None:
        _require(self.n_regions >= 2, "n_regions", "must be >= 2")
        _require(self.dt_years >= 1, "dt_years", "must be >= 1")
        from .climate import carbon_transfer_matrix  # climate imports this module

        try:
            carbon_transfer_matrix(self.climate, self.dt_years)
        except DomainError as exc:
            raise ConfigError(f"dt_years: {exc}") from None
        _require(
            self.horizon_years >= self.dt_years
            and self.horizon_years % self.dt_years == 0,
            "horizon_years",
            "must be a positive multiple of dt_years",
        )
        _require(0 < self.output_elasticity < 1, "output_elasticity", "must be in (0,1)")
        _require(0 < self.depreciation < 1, "depreciation", "must be in (0,1)")
        _require(0 < self.foreign_weight <= 1, "foreign_weight", "must be in (0,1]")
        _require(0 < self.import_budget < 1, "import_budget", "must be in (0,1)")
        _require(self.theta2 > 1, "theta2", "must be > 1")
        _require(self.theta3 >= 0, "theta3", "must be >= 0")
        _require(self.damage_pi1 >= 0, "damage_pi1", "must be >= 0")
        _require(self.damage_pi2 >= 0, "damage_pi2", "must be >= 0")

    @property
    def n_steps(self) -> int:
        return self.horizon_years // self.dt_years
