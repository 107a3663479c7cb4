"""Scripted policies used by the experiments.

Policies are immutable values. ``act`` always honors the supplied mask,
the mitigation floor: fixed policies raise a mitigation level below it to
the floor (masking overrides intent), random policies draw uniformly from
the floor up.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import ACTION_DIMENSIONS, ActionSet, _partner_matrix, check_level
from .negotiation import masked_sample


def _partner_vector(observation, level: int) -> np.ndarray:
    """``level`` toward every other region, 0 toward the region itself: a
    read-only row of the cached ``_partner_matrix``."""
    return _partner_matrix(observation.n_regions, level)[observation.region]


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
        for name in ACTION_DIMENSIONS:
            check_level(name, getattr(self, name))

    def act(self, observation, mask: int | None, rng) -> ActionSet:
        return ActionSet(
            savings_level=self.savings,
            mitigation_level=max(self.mitigation, mask or 0),
            max_export_level=self.export,
            import_levels=_partner_vector(observation, self.imports),
            tariff_levels=_partner_vector(observation, self.tariffs),
        )


#: Fixed actions of the high-trade scenario used by the tariff experiments:
#: mitigation 0.9, savings 0.3, imports and exports at their maximum, no
#: tariffs.
IDEAL_TRADE_POLICY = FixedLevelsPolicy(savings=3, mitigation=9, export=9, imports=9, tariffs=0)


@dataclass(frozen=True)
class UniformRandomPolicy:
    """Uniform draw of every level; mitigation from its floor up, the rest
    from 0."""

    is_static = False

    def act(self, observation, mask: int | None, rng) -> ActionSet:
        return ActionSet(
            masked_sample(0, rng),
            masked_sample(mask or 0, rng),
            masked_sample(0, rng),
            _partner_vector(observation, masked_sample(0, rng)),
            _partner_vector(observation, masked_sample(0, rng)),
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
        if self.tariff_level is not None:
            check_level("override tariff", self.tariff_level)

    @property
    def is_static(self) -> bool:
        return self.base.is_static

    def act(self, observation, mask: int | None, rng) -> ActionSet:
        base_action = self.base.act(observation, mask, rng)
        if self.tariff_level is None or observation.region == self.target:
            return base_action
        tariffs = base_action.tariff_levels.copy()
        tariffs[self.target] = self.tariff_level
        tariffs.setflags(write=False)
        savings, mitigation, export, imports, _ = base_action
        return ActionSet(savings, mitigation, export, imports, tariffs)
