"""Discrete action encoding: 5 action types, 10 levels each."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigError, InvalidActionError

NUM_LEVELS = 10

#: Canonical ordering of the five action dimensions, used by sweep grids,
#: CSV columns, and correlation tables.
ACTION_DIMENSIONS = ("savings", "mitigation", "export", "imports", "tariffs")

#: The ``JointActions`` attribute holding each dimension's rates.
RATE_NAMES = tuple(f"{name}_rate" for name in ACTION_DIMENSIONS)


def check_level(name: str, level: int) -> None:
    """Reject anything but an integer level in 0..9."""
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise InvalidActionError(f"{name} level must be an integer, got {level!r}")
    if not 0 <= level < NUM_LEVELS:
        raise InvalidActionError(f"{name} level {level} outside 0..{NUM_LEVELS - 1}")


def levels_to_rates(levels: np.ndarray) -> np.ndarray:
    """Vectorized level -> rate conversion (no validation)."""
    return np.asarray(levels, dtype=np.float64) / 10.0


@dataclass(frozen=True)
class ActionSet:
    """One region's action for one step, as a policy returns it. The partner
    vectors have one entry per region (self entry 0); checked when stacked."""

    savings_level: int
    mitigation_level: int
    max_export_level: int
    import_levels: tuple[int, ...]
    tariff_levels: tuple[int, ...]


def _elements(value, ndim: int):
    """The scalars of ``value``, nested ``ndim`` deep, in row-major order."""
    elements = [value]
    for _ in range(ndim):
        elements = chain.from_iterable(elements)
    return elements


def _check_levels(name: str, levels, per_region: int) -> None:
    """``check_level`` on each of the row-major ``levels``; the error names
    the region of the first bad one."""
    for i, level in enumerate(levels):
        check_level(f"region {i // per_region}: {name}", level)


def _integer_copy(name: str, value) -> np.ndarray:
    """Read-only ``int64`` copy of ``value``, whose elements must be integers;
    numpy stacks ``True`` among integers as 1, so a sequence's are looked at."""
    try:
        arr = np.array(value)
    except ValueError:
        raise InvalidActionError(f"{name} rows differ in length") from None
    integral = arr.dtype.kind in "iu" and (
        isinstance(value, np.ndarray)
        or {bool, np.bool_}.isdisjoint(map(type, _elements(value, arr.ndim)))
    )
    if arr.size and not integral:
        _check_levels(name, _elements(value, arr.ndim), arr.size // len(arr) if arr.ndim else 1)
        raise InvalidActionError(f"{name} levels must be integers, got {arr.dtype}")
    arr = arr.astype(np.int64, copy=False)
    arr.setflags(write=False)
    return arr


class JointActions:
    """All regions' actions for one step, stored as integer arrays.

    ``imports[i, j]`` / ``tariffs[i, j]`` refer to region i importing from /
    tariffing region j. Diagonals are zero.

    Immutable and checked when built: ``__init__`` stores read-only
    ``int64`` copies of the five arrays (non-integer elements raise) and,
    under the ``RATE_NAMES`` (``savings_rate``, ...), their read-only rates
    ``levels_to_rates(levels)``, then runs ``_check``; rebinding an
    attribute raises. So an invalid ``JointActions`` cannot exist.
    """

    __slots__ = (*ACTION_DIMENSIONS, *RATE_NAMES)

    def __init__(
        self,
        savings: np.ndarray,
        mitigation: np.ndarray,
        export: np.ndarray,
        imports: np.ndarray,
        tariffs: np.ndarray,
    ):
        for name, rate_name, value in zip(
            ACTION_DIMENSIONS, RATE_NAMES, (savings, mitigation, export, imports, tariffs)
        ):
            levels = _integer_copy(name, value)
            rates = levels_to_rates(levels)
            rates.setflags(write=False)
            object.__setattr__(self, name, levels)
            object.__setattr__(self, rate_name, rates)
        self._check()

    def __setattr__(self, name, value):
        raise AttributeError(f"JointActions is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"JointActions is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (type(self), tuple(getattr(self, name) for name in ACTION_DIMENSIONS))

    @property
    def n_regions(self) -> int:
        return self.savings.shape[0]

    @classmethod
    def from_action_sets(cls, sets: list[ActionSet]) -> "JointActions":
        """Stack per-region sets into one checked ``JointActions``."""
        return cls(
            savings=[a.savings_level for a in sets],
            mitigation=[a.mitigation_level for a in sets],
            export=[a.max_export_level for a in sets],
            imports=[a.import_levels for a in sets],
            tariffs=[a.tariff_levels for a in sets],
        )

    @classmethod
    def uniform(
        cls,
        n_regions: int,
        savings: int,
        mitigation: int,
        export: int,
        imports: int,
        tariffs: int,
    ) -> "JointActions":
        """Identical levels for every region (diagonals forced to zero)."""
        for name, lvl in zip(ACTION_DIMENSIONS, (savings, mitigation, export, imports, tariffs)):
            check_level(name, lvl)
        off_diag = 1 - np.eye(n_regions, dtype=np.int64)
        return cls(
            savings=np.full(n_regions, savings),
            mitigation=np.full(n_regions, mitigation),
            export=np.full(n_regions, export),
            imports=imports * off_diag,
            tariffs=tariffs * off_diag,
        )

    def validate(self, n_regions: int) -> None:
        """Reject actions that do not cover a world of ``n_regions``."""
        if self.n_regions != n_regions:
            raise ConfigError(f"actions cover {self.n_regions} regions, world has {n_regions}")

    def _check(self) -> None:
        """Shapes, levels in 0..9, zero diagonals; errors name the region."""
        if self.savings.ndim != 1 or not self.savings.size:
            raise InvalidActionError(f"savings array has shape {self.savings.shape}")
        n = self.n_regions
        for name in ACTION_DIMENSIONS:
            arr = getattr(self, name)
            shape = (n, n) if name in ("imports", "tariffs") else (n,)
            if arr.shape != shape:
                raise InvalidActionError(f"{name} array has shape {arr.shape}, expected {shape}")
            if arr.min() < 0 or arr.max() >= NUM_LEVELS:
                _check_levels(name, arr.flat, arr.size // n)
            if arr.ndim == 2 and arr.trace():
                region = int(np.flatnonzero(np.diagonal(arr))[0])
                raise InvalidActionError(f"region {region}: self entry of {name} must be 0")
