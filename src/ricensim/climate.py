"""Carbon cycle, radiative forcing, and two-box temperature stepping.

The constants follow the standard published 5-year DICE calibration of a
3-reservoir carbon cycle and two-box temperature model (Nordhaus 2017,
PNAS 114:1518). They are fixed: the model variants switch the damage and
abatement-cost functions, never the climate.
"""
from __future__ import annotations

import math

import numpy as np

from .config import STEP_YEARS
from .errors import DomainError

#: Per-5-year carbon transfer fractions between (atmosphere, upper ocean,
#: lower ocean). Column-stochastic: column j holds the destination split of
#: reservoir j's stock, so applying the matrix conserves total carbon.
CARBON_TRANSFER_5Y = (
    (0.88, 0.196, 0.0),
    (0.12, 0.797, 0.001465),
    (0.0, 0.007, 0.998535),
)
#: ``CARBON_TRANSFER_5Y`` as a read-only matrix: one step's transfer.
CARBON_TRANSFER = np.array(CARBON_TRANSFER_5Y, dtype=np.float64)
CARBON_TRANSFER.setflags(write=False)
FORCING_PER_DOUBLING = 3.6813  # W/m^2
REFERENCE_ATMOSPHERE_GTC = 588.0
TEMPERATURE_FEEDBACK = 1.1875  # W/m^2 per degC
HEAT_CAPACITY_C1 = 0.1005
ATM_OCEAN_EXCHANGE_C3 = 0.088
OCEAN_UPTAKE_C4 = 0.025
#: Non-CO2 forcing ramps linearly from its start to its end value (W/m^2)
#: over ``FORCING_RAMP_YEARS`` and is constant afterwards.
FORCING_EXOGENOUS_START = 0.5
FORCING_EXOGENOUS_END = 1.0
FORCING_RAMP_YEARS = 100.0
#: Initial (atmosphere, upper ocean, lower ocean) carbon stocks.
INITIAL_CARBON_GTC = (850.0, 460.0, 1740.0)
INITIAL_T_ATMOSPHERE = 1.1  # degC
INITIAL_T_OCEAN = 0.3


def step_carbon(carbon: np.ndarray, emissions_gtc_per_year: float) -> np.ndarray:
    """Advance the 3-reservoir carbon stocks by one ``STEP_YEARS`` step.

    Total carbon changes by exactly ``STEP_YEARS * emissions`` because the
    transfer matrix is column-stochastic.
    """
    m = np.asarray(carbon, dtype=np.float64)
    # Three Python comparisons cost less than two numpy calls; as with
    # ``(m <= 0).any()``, a NaN stock does not trip the check.
    if m.shape != (3,) or any(stock <= 0.0 for stock in m.tolist()):
        raise DomainError(f"carbon stocks must be a positive 3-vector, got {carbon}")
    if emissions_gtc_per_year < 0.0:
        raise DomainError(f"emissions {emissions_gtc_per_year} are negative")
    out = CARBON_TRANSFER @ m
    out[0] += STEP_YEARS * emissions_gtc_per_year
    return out


def radiative_forcing(atmosphere_gtc: float, exogenous: float) -> float:
    """Logarithmic forcing of the atmospheric stock over its reference,
    ``FORCING_PER_DOUBLING * log2(M_at / REFERENCE_ATMOSPHERE_GTC)``, plus
    the exogenous non-CO2 forcing."""
    if atmosphere_gtc <= 0:
        raise DomainError("atmospheric stock must be positive")
    return FORCING_PER_DOUBLING * math.log2(atmosphere_gtc / REFERENCE_ATMOSPHERE_GTC) + exogenous


def exogenous_forcing(years_elapsed: float) -> float:
    """Linear ramp of non-CO2 forcing, held constant after the ramp."""
    frac = min(1.0, max(0.0, years_elapsed / FORCING_RAMP_YEARS))
    return FORCING_EXOGENOUS_START + frac * (FORCING_EXOGENOUS_END - FORCING_EXOGENOUS_START)


def step_temperature(t_atmosphere: float, t_ocean: float, forcing: float) -> tuple[float, float]:
    """One step of the two-box temperature model with the DICE coefficients
    ``HEAT_CAPACITY_C1``, ``ATM_OCEAN_EXCHANGE_C3``, ``OCEAN_UPTAKE_C4`` and
    ``TEMPERATURE_FEEDBACK``."""
    t_at = t_atmosphere + HEAT_CAPACITY_C1 * (
        forcing
        - TEMPERATURE_FEEDBACK * t_atmosphere
        - ATM_OCEAN_EXCHANGE_C3 * (t_atmosphere - t_ocean)
    )
    t_lo = t_ocean + OCEAN_UPTAKE_C4 * (t_atmosphere - t_ocean)
    if not (math.isfinite(t_at) and math.isfinite(t_lo)):
        raise DomainError(f"temperature step left the finite range: ({t_at}, {t_lo})")
    return t_at, t_lo
