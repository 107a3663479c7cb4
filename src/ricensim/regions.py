"""Procedural generation of heterogeneous region sets.

The generator draws each region around a common size factor so that no
single region dominates world output (the largest output share stays below
~10%), while emission intensities and growth rates vary independently.
That keeps per-region trade flows roughly proportional to own output, which
the sign properties of the trade experiments rely on, and still spans more
than an order of magnitude in emissions across regions.
"""
from __future__ import annotations

import functools

import numpy as np

from .config import N_REGIONS

# Documented generation ranges. Draws always stay inside these bounds.
PRODUCTIVITY_RANGE = (1.0, 6.0)
CAPITAL_RANGE = (5.0, 200.0)
LABOR_RANGE = (1.0, 50.0)
INTENSITY_RANGE = (0.1, 0.6)  # GtC per unit of gross output
PRODUCTIVITY_GROWTH_RANGE = (0.006, 0.014)  # per year
LABOR_GROWTH_RANGE = (0.002, 0.010)  # per year
INTENSITY_DECLINE_RANGE = (0.004, 0.010)  # per year
ABATEMENT_THETA1_RANGE = (0.02, 0.05)


def _within(lo: float, hi: float, values: np.ndarray) -> np.ndarray:
    return lo + (hi - lo) * values


def generate_regions(n: int, seed: int) -> dict[str, np.ndarray]:
    """Generate ``n`` heterogeneous regions deterministically from ``seed``.

    Returns one ``[n]`` array per generated quantity: ``capital``, which
    ``engine.reset`` gives the world, and what ``engine.episode_constants`` reads.
    Productivity and labor growth compound upward, intensity decline
    compounds downward, and ``theta1`` is the region's linear
    abatement-cost coefficient.

    Each ``(n, seed)`` is generated once and cached (the 16 most recently
    used): every call returns a new dict, whose arrays are read-only and
    shared with every other call for the same ``(n, seed)``.
    """
    N_REGIONS.check("sim.n_regions", n)
    return dict(_generated(n, int(seed)))


# A sweep rolls out one seed, and a pariah run its five conditions on one
# seed, so a few entries serve every experiment.
@functools.lru_cache(maxsize=16)
def _generated(n: int, seed: int) -> tuple[tuple[str, np.ndarray], ...]:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5247]))
    size = rng.uniform(0.0, 1.0, size=n)

    productivity = 1.5 + 3.5 * size + rng.uniform(-0.4, 0.4, size=n)
    capital = 15.0 + 80.0 * size + rng.uniform(-8.0, 8.0, size=n)
    labor = 4.0 + 28.0 * size + rng.uniform(-2.0, 2.0, size=n)
    intensity = _within(*INTENSITY_RANGE, rng.uniform(size=n))

    productivity = np.clip(productivity, *PRODUCTIVITY_RANGE)
    capital = np.clip(capital, *CAPITAL_RANGE)
    labor = np.clip(labor, *LABOR_RANGE)

    prod_growth = _within(*PRODUCTIVITY_GROWTH_RANGE, rng.uniform(size=n))
    labor_growth = _within(*LABOR_GROWTH_RANGE, rng.uniform(size=n))
    intensity_decline = _within(*INTENSITY_DECLINE_RANGE, rng.uniform(size=n))
    theta1 = _within(*ABATEMENT_THETA1_RANGE, rng.uniform(size=n))

    generated = {
        "capital": capital,
        "labor": labor,
        "productivity": productivity,
        "intensity": intensity,
        "productivity_growth": prod_growth,
        "labor_growth": labor_growth,
        "intensity_decline": intensity_decline,
        "theta1": theta1,
    }
    for values in generated.values():
        values.setflags(write=False)
    return tuple(generated.items())
