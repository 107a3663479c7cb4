"""Production, damages, and abatement cost.

All scalar functions also accept numpy arrays; the engine uses them
vectorized across regions and applies investment and capital dynamics
itself. The economic calibration below is fixed, as the climate's is: the
model variants switch the damage and abatement-cost functional forms, and
``damage_pi2`` is the one damage coefficient a run sets.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError


def _float64(value) -> np.ndarray:
    """A read-only 0-d ``float64`` twin of a scalar operand. numpy dispatches
    a ufunc on it faster than on a Python float, and an elementwise operation
    on ``float64`` arrays rounds to the same bits with either. (``**`` is the
    exception: a 0-d and a 1-d power can round differently, so no ``**``
    operand gets a twin.)"""
    out = np.array(value, dtype=np.float64)
    out.setflags(write=False)
    return out


# Published calibration of the steep high-temperature damage curve:
# D = 1 - 1/(1 + (T/a)^2 + (T/b)^c).
WEITZMAN_A = 20.46
WEITZMAN_B = 6.081
WEITZMAN_C = 6.754

#: Damage and abatement fractions are capped here so output never vanishes
#: entirely and downstream shares remain well defined.
FRACTION_CAP = 0.99
_FRACTION_CAP = _float64(FRACTION_CAP)
_ZERO = _float64(0.0)
_ONE = _float64(1.0)

OUTPUT_ELASTICITY = 0.3  # capital share in production
DEPRECIATION = 0.1  # per-year capital depreciation
#: Exponent of the abatement cost ``theta1 * mu ** theta2``; the linear
#: coefficient ``theta1`` is heterogeneous and drawn per region.
ABATEMENT_THETA2 = 2.6
#: Residual weight of the level-dependent cost in the transitional
#: abatement variant; completed mitigation stays cheap but never free.
TRANSITIONAL_RESIDUAL = 0.2
_TRANSITIONAL_RESIDUAL = _float64(TRANSITIONAL_RESIDUAL)
#: Weight of the squared mitigation increment in the transitional cost.
TRANSITIONAL_THETA3 = 1.0


def gross_output(productivity, capital, labor_term):
    """Cobb-Douglas production A * K^gamma * L^(1-gamma) with gamma the
    ``OUTPUT_ELASTICITY``, evaluated as ``productivity * capital**gamma *
    labor_term``. The caller passes the labor term ``L ** (1 - gamma)``,
    which no action moves (``engine.EpisodeConstants.labor_term``)."""
    return productivity * capital**OUTPUT_ELASTICITY * labor_term


def damage_fraction(temperature, kind: str, pi1: float, pi2: float):
    """Fraction of gross output lost at the given temperature anomaly.

    ``dice_quadratic``: ``min(1 - 1 / (1 + pi1 * T + pi2 * T * T), FRACTION_CAP)``;
    ``weitzman``: ``min(1 - 1 / (1 + (T / a) ** 2 + (T / b) ** c), FRACTION_CAP)``.
    """
    if kind == "dice_quadratic" and isinstance(temperature, float):
        # The scalar temperature ``step`` passes: the same IEEE operations in
        # the same order as the array path, without numpy's per-call cost.
        # numpy's ``**`` can round differently from Python's, so the
        # weitzman form always takes the array path.
        denominator = 1.0 + pi1 * temperature + pi2 * temperature * temperature
        if denominator != 0.0:
            d = 1.0 - 1.0 / denominator
            return float(FRACTION_CAP if d > FRACTION_CAP else d)
    t = np.asarray(temperature, dtype=np.float64)
    if kind == "dice_quadratic":
        d = 1.0 - 1.0 / (1.0 + pi1 * t + pi2 * t * t)
    elif kind == "weitzman":
        d = 1.0 - 1.0 / (1.0 + (t / WEITZMAN_A) ** 2 + (t / WEITZMAN_B) ** WEITZMAN_C)
    else:
        raise DomainError(f"unknown damage kind {kind!r}")
    d = np.minimum(d, FRACTION_CAP)
    return float(d) if d.ndim == 0 else d


def calibrate_damage_coefficient(t_ref: float, d_ref: float) -> float:
    """Quadratic coefficient pi2 (with pi1 = 0) hitting d_ref exactly at t_ref."""
    if t_ref <= 0:
        raise DomainError(f"reference temperature must be > 0, got {t_ref}")
    if not 0.0 < d_ref < 1.0:
        raise DomainError(f"reference damage must be in (0,1), got {d_ref}")
    return d_ref / ((1.0 - d_ref) * t_ref * t_ref)


def abatement_fraction(mitigation, mitigation_prev, kind: str, theta1, theta2):
    """Fraction of gross output spent on mitigation.

    'persistent' charges the current level only; 'transitional' charges a
    small residual of that plus the squared increase over the previous level:

    ``persistent``: ``theta1 * mu ** theta2``;
    ``transitional``: ``TRANSITIONAL_RESIDUAL * theta1 * mu ** theta2 +
    TRANSITIONAL_THETA3 * rise * rise`` with ``rise = max(0, mu - mu_prev)``;
    either is clamped to ``[0, FRACTION_CAP]``.

    ``mitigation`` is converted to a ``float64`` array even when it is a
    scalar: ``**`` then rounds as numpy's does, which on a host with
    AVX-512 can differ from Python's. ``mitigation_prev`` is a ``float64``
    ndarray or a float, either of which ``mu - mitigation_prev`` takes
    unconverted.
    """
    mu = np.asarray(mitigation, dtype=np.float64)
    if kind == "persistent":
        lam = theta1 * mu**theta2
    elif kind == "transitional":
        rise = np.maximum(_ZERO, mu - mitigation_prev)
        lam = _TRANSITIONAL_RESIDUAL * theta1 * mu**theta2 + TRANSITIONAL_THETA3 * rise * rise
    else:
        raise DomainError(f"unknown abatement kind {kind!r}")
    lam = np.minimum(np.maximum(lam, _ZERO), _FRACTION_CAP)
    return float(lam) if lam.ndim == 0 else lam

