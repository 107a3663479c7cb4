"""Damage-coefficient calibration against the simulator's own trajectory.

The quadratic damage coefficient is chosen so the no-mitigation rollout of
a given horizon ends with exactly the anchor damage fraction at its own
final temperature. Because the coefficient feeds back into output and
emissions, the anchor is solved as a fixed point: starting from zero
damages, re-run and re-invert until the coefficient stabilizes. The map is
a strong contraction (damages shift the end temperature only a few
percent), so a handful of rollouts suffice.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from .actions import JointActions
from .config import SimParams, VariantConfig
from .economy import calibrate_damage_coefficient, damage_fraction
from .engine import run_fixed_actions_summary
from .errors import DomainError

#: Anchor: fraction of gross output lost at the end of the no-mitigation
#: calibration rollout.
ANCHOR_DAMAGE = 0.085
ANCHOR_HORIZON_YEARS = 100
#: The fixed point is reached when an iteration moves pi2 by at most this
#: fraction of itself, within this many rollouts.
REL_TOL = 1e-12
MAX_ITERATIONS = 50

#: The no-mitigation rollout's levels in ``ACTION_DIMENSIONS`` order: savings
#: 0.3, no mitigation, no trade (trade cannot move temperature or output).
NO_MITIGATION_LEVELS = (3, 0, 0, 0, 0)


@dataclass(frozen=True)
class CalibrationResult:
    pi2: float
    t_ref: float
    iterations: int


def calibrate_damage_to_anchor(
    params: SimParams, variant: VariantConfig, seed: int
) -> CalibrationResult:
    """Solve for pi2 so the damage at the end of the ``ANCHOR_HORIZON_YEARS``
    rollout equals ``ANCHOR_DAMAGE`` exactly."""
    if variant.damage_kind != "dice_quadratic":
        raise DomainError("calibration targets the quadratic damage function")
    base = replace(params, horizon_years=ANCHOR_HORIZON_YEARS, damage_pi1=0.0)

    actions = JointActions.uniform(params.n_regions, *NO_MITIGATION_LEVELS)
    pi2 = 0.0
    t_ref = 0.0
    for iteration in range(1, MAX_ITERATIONS + 1):
        summary = run_fixed_actions_summary(replace(base, damage_pi2=pi2), variant, actions, seed)
        t_ref = summary.delta_t_end
        new_pi2 = calibrate_damage_coefficient(t_ref, ANCHOR_DAMAGE)
        if pi2 > 0.0 and abs(new_pi2 - pi2) <= REL_TOL * pi2:
            pi2 = new_pi2
            break
        pi2 = new_pi2
    else:
        iteration = MAX_ITERATIONS

    achieved = damage_fraction(t_ref, "dice_quadratic", 0.0, pi2)
    if abs(achieved - ANCHOR_DAMAGE) > 1e-9:
        raise DomainError(
            f"calibration failed to converge: damage {achieved} vs anchor {ANCHOR_DAMAGE}"
        )
    return CalibrationResult(pi2=float(pi2), t_ref=float(t_ref), iterations=iteration)
