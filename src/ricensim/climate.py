"""Carbon cycle, radiative forcing, and two-box temperature stepping."""
from __future__ import annotations

import math

import numpy as np

from .config import ClimateParams
from .errors import DomainError


def carbon_transfer_matrix(params: ClimateParams, dt_years: float) -> np.ndarray:
    """Column-stochastic transfer matrix scaled from the native 5-year step.

    Off-diagonal fractions scale linearly with dt/5; diagonals absorb the
    remainder so every column still sums to 1 (exact conservation).
    """
    base = np.array(params.carbon_transfer_5y, dtype=np.float64)
    scale = dt_years / 5.0
    phi = base * scale
    for j in range(3):
        off = phi[:, j].sum() - phi[j, j]
        diag = 1.0 - off
        if diag < 0.0:
            raise DomainError(
                f"carbon transfer matrix column {j} leaves a negative diagonal "
                f"at dt={dt_years}; use a smaller step"
            )
        phi[j, j] = diag
    return phi


def step_carbon(
    carbon: np.ndarray,
    emissions_gtc_per_year: float,
    dt_years: float,
    transfer: np.ndarray,
) -> np.ndarray:
    """Advance the 3-reservoir carbon stocks by one step.

    Total carbon changes by exactly dt * emissions because the transfer
    matrix is column-stochastic.
    """
    m = np.asarray(carbon, dtype=np.float64)
    if m.shape != (3,) or np.any(m <= 0):
        raise DomainError(f"carbon stocks must be a positive 3-vector, got {carbon}")
    if emissions_gtc_per_year < 0.0:
        raise DomainError(f"emissions {emissions_gtc_per_year} are negative")
    out = transfer @ m
    out[0] += dt_years * emissions_gtc_per_year
    return out


def radiative_forcing(
    atmosphere_gtc: float,
    forcing_per_doubling: float,
    reference_gtc: float,
    exogenous: float = 0.0,
) -> float:
    """Logarithmic forcing of the atmospheric stock over its reference."""
    if atmosphere_gtc <= 0 or reference_gtc <= 0:
        raise DomainError("atmospheric stock and reference must be positive")
    return forcing_per_doubling * math.log2(atmosphere_gtc / reference_gtc) + exogenous


def exogenous_forcing(params: ClimateParams, years_elapsed: float) -> float:
    """Linear ramp of non-CO2 forcing, held constant after the ramp."""
    frac = min(1.0, max(0.0, years_elapsed / params.forcing_ramp_years))
    return params.forcing_exogenous_start + frac * (
        params.forcing_exogenous_end - params.forcing_exogenous_start
    )


def step_temperature(
    t_atmosphere: float,
    t_ocean: float,
    forcing: float,
    c1: float,
    c3: float,
    c4: float,
    feedback: float,
) -> tuple[float, float]:
    """One step of the two-box temperature model."""
    t_at = t_atmosphere + c1 * (
        forcing - feedback * t_atmosphere - c3 * (t_atmosphere - t_ocean)
    )
    t_lo = t_ocean + c4 * (t_atmosphere - t_ocean)
    if not (math.isfinite(t_at) and math.isfinite(t_lo)):
        raise DomainError(f"temperature step left the finite range: ({t_at}, {t_lo})")
    return t_at, t_lo
