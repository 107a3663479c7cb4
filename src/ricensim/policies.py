"""Scripted policies used by the experiments.

Policies are immutable values. ``act`` always honors the supplied mask:
fixed policies snap a forbidden level up to the nearest permitted one
(masking overrides intent), random policies sample uniformly over what is
permitted.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import NUM_LEVELS, ActionSet
from .errors import InvalidActionError
from .negotiation import ActionMask, masked_sample


def snap_to_mask(level: int, mask_vector: np.ndarray) -> int:
    """Desired level if permitted, else the nearest permitted level above
    (falling back to the highest permitted one)."""
    if mask_vector[level]:
        return level
    permitted = np.flatnonzero(mask_vector)
    above = permitted[permitted > level]
    return int(above[0]) if above.size else int(permitted[-1])


@dataclass(frozen=True)
class FixedLevelsPolicy:
    """Same levels every step; import/tariff levels apply to every partner."""

    savings: int
    mitigation: int
    export: int
    imports: int
    tariffs: int

    #: Static policies let episode runners reuse one action set when no
    #: masking is active.
    is_static = True

    def __post_init__(self) -> None:
        for name in ("savings", "mitigation", "export", "imports", "tariffs"):
            lvl = getattr(self, name)
            if not 0 <= lvl < NUM_LEVELS:
                raise InvalidActionError(f"{name} level {lvl} outside 0..9")

    def act(self, observation, mask: ActionMask | None, rng) -> ActionSet:
        region = observation.region
        n = observation.n_regions
        levels = {
            "savings": self.savings,
            "mitigation": self.mitigation,
            "export": self.export,
            "imports": self.imports,
            "tariffs": self.tariffs,
        }
        if mask is not None:
            levels = {
                name: snap_to_mask(lvl, mask.dimension(name)) for name, lvl in levels.items()
            }

        def vector(lvl: int) -> tuple[int, ...]:
            return tuple(0 if j == region else lvl for j in range(n))

        return ActionSet(
            savings_level=levels["savings"],
            mitigation_level=levels["mitigation"],
            max_export_level=levels["export"],
            import_levels=vector(levels["imports"]),
            tariff_levels=vector(levels["tariffs"]),
        )


#: Fixed actions of the high-trade scenario used by the tariff experiments:
#: mitigation 0.9, savings 0.3, imports and exports at their maximum, no
#: tariffs.
IDEAL_TRADE_POLICY = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=0)


@dataclass(frozen=True)
class UniformRandomPolicy:
    """Uniform draw over the permitted levels of every dimension."""

    is_static = False

    def act(self, observation, mask: ActionMask | None, rng: np.random.Generator) -> ActionSet:
        region = observation.region
        n = observation.n_regions

        def draw(name: str) -> int:
            if mask is None:
                return int(rng.integers(NUM_LEVELS))
            return masked_sample(mask.dimension(name), rng)

        def vector(lvl: int) -> tuple[int, ...]:
            return tuple(0 if j == region else lvl for j in range(n))

        savings = draw("savings")
        mitigation = draw("mitigation")
        export = draw("export")
        return ActionSet(
            savings_level=savings,
            mitigation_level=mitigation,
            max_export_level=export,
            import_levels=vector(draw("imports")),
            tariff_levels=vector(draw("tariffs")),
        )


@dataclass(frozen=True)
class PariahOverridePolicy:
    """Wraps a base policy, forcing every other region's tariff toward
    ``target`` to ``tariff_level``. ``None`` leaves the base policy alone
    (the control condition); 0 is the free-trade condition."""

    base: FixedLevelsPolicy
    target: int
    tariff_level: int | None

    def __post_init__(self) -> None:
        if self.tariff_level is not None and not 0 <= self.tariff_level < NUM_LEVELS:
            raise InvalidActionError(f"override tariff level {self.tariff_level} outside 0..9")

    @property
    def is_static(self) -> bool:
        return self.base.is_static

    def act(self, observation, mask: ActionMask | None, rng) -> ActionSet:
        base_action = self.base.act(observation, mask, rng)
        region = observation.region
        if self.tariff_level is None or region == self.target:
            return base_action
        tariffs = list(base_action.tariff_levels)
        tariffs[self.target] = self.tariff_level
        return ActionSet(
            savings_level=base_action.savings_level,
            mitigation_level=base_action.mitigation_level,
            max_export_level=base_action.max_export_level,
            import_levels=base_action.import_levels,
            tariff_levels=tuple(tariffs),
        )
