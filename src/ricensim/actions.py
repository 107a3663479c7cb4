"""Discrete action encoding: 5 action types, 10 levels each."""
from __future__ import annotations

import functools
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InvalidActionError

NUM_LEVELS = 10

#: Canonical ordering of the five action dimensions, used by sweep grids,
#: CSV columns, and correlation tables.
ACTION_DIMENSIONS = ("savings", "mitigation", "export", "imports", "tariffs")

#: The ``JointActions`` attribute holding each dimension's rates.
RATE_NAMES = tuple(f"{name}_rate" for name in ACTION_DIMENSIONS)


def check_level(name: str, level: int) -> None:
    """Reject anything but an integer level in 0..9. A numpy scalar is shown
    as the Python value it holds, as in a tuple."""
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        shown = level.item() if isinstance(level, np.generic) else level
        raise InvalidActionError(f"{name} level must be an integer, got {shown!r}")
    if not 0 <= level < NUM_LEVELS:
        raise InvalidActionError(f"{name} level {level} outside 0..{NUM_LEVELS - 1}")


def levels_to_rates(levels: np.ndarray) -> np.ndarray:
    """Vectorized level -> rate conversion (no validation): one division,
    with the bits of a ``float64`` copy divided by 10."""
    return np.true_divide(levels, 10.0)


class ActionSet(NamedTuple):
    """One region's action for one step, as a policy returns it: an
    immutable tuple. The partner vectors have one entry per region (self
    entry 0); checked when stacked. The policies hand them as read-only
    ``int64`` rows, which ``==`` would compare element by element, so sets
    compare and hash by identity, as objects do, not as tuples."""

    savings_level: int
    mitigation_level: int
    max_export_level: int
    import_levels: np.ndarray
    tariff_levels: np.ndarray

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__


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


def _integer_arrays(value) -> bool:
    """Whether ``value`` is an integer array or a list or tuple of them:
    neither can hold a bool."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iu"
    return isinstance(value, (list, tuple)) and all(
        isinstance(row, np.ndarray) and row.dtype.kind in "iu" for row in value
    )


@functools.lru_cache(maxsize=4 * NUM_LEVELS)
def _partner_matrix(n_regions: int, level: int) -> np.ndarray:
    """Read-only ``int64`` matrix: ``level`` off the diagonal, 0 on it. One
    per region count and level, with room for every level at a few counts.
    ``int(level)``: numpy would promote a ``uint64`` level times an
    ``int64`` matrix to ``float64``, and the cache shares the result with
    every equal level."""
    matrix = int(level) * (1 - np.eye(n_regions, dtype=np.int64))
    matrix.setflags(write=False)
    return matrix


def _integer_copy(name: str, value) -> np.ndarray:
    """Read-only ``int64`` copy of ``value``, whose elements must be integers;
    numpy stacks ``True`` among integers as 1, so the elements of a sequence
    of anything but integer arrays are looked at. An ``int64`` array that is
    read-only and owns its data is kept as it is: nothing can write to it."""
    if (
        isinstance(value, np.ndarray)
        and value.dtype == np.int64
        and not value.flags.writeable
        and value.base is None
    ):
        return value
    try:
        arr = np.array(value)
    except ValueError:
        raise InvalidActionError(f"{name} rows differ in length") from None
    integral = arr.dtype.kind in "iu" and (
        _integer_arrays(value)
        or {bool, np.bool_}.isdisjoint(
            map(type, value if arr.ndim == 1 else _elements(value, arr.ndim))
        )
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
    ``int64`` copies of the five arrays (non-integer elements raise; a
    read-only ``int64`` array that owns its data is stored as is) and,
    under the ``RATE_NAMES`` (``savings_rate``, ...), their read-only rates
    ``levels_to_rates(levels)``, then runs ``_check``; rebinding an
    attribute raises. So an invalid ``JointActions`` cannot exist. It also
    stores the read-only complements the step multiplies by,
    ``unmitigated_rate = 1.0 - mitigation_rate`` and
    ``untariffed_rate = 1.0 - tariffs_rate``, so a rollout that reuses one
    object derives them once.
    """

    __slots__ = (*ACTION_DIMENSIONS, *RATE_NAMES, "unmitigated_rate", "untariffed_rate")

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
        for name, rates in (
            ("unmitigated_rate", self.mitigation_rate), ("untariffed_rate", self.tariffs_rate)
        ):
            complement = 1.0 - rates
            complement.setflags(write=False)
            object.__setattr__(self, name, complement)
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
        """Identical levels for every region (diagonals forced to zero). The
        vectors are built read-only and the matrices come from the cached
        ``_partner_matrix``, so the constructor copies none of them."""
        for name, lvl in zip(ACTION_DIMENSIONS, (savings, mitigation, export, imports, tariffs)):
            check_level(name, lvl)
        vectors = [np.full(n_regions, lvl) for lvl in (savings, mitigation, export)]
        for vector in vectors:
            vector.setflags(write=False)
        return cls(
            *vectors, _partner_matrix(n_regions, imports), _partner_matrix(n_regions, tariffs)
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
            # One reduction for both ends: a negative level reads as a huge
            # unsigned value.
            if np.maximum.reduce(arr.view(np.uint64), axis=None) >= NUM_LEVELS:
                _check_levels(name, arr.flat, arr.size // n)
            # Every (n + 1)-th element of the row-major ravel is on the diagonal.
            if arr.ndim == 2 and np.count_nonzero(arr.ravel()[:: n + 1]):
                region = int(np.flatnonzero(np.diagonal(arr))[0])
                raise InvalidActionError(f"region {region}: self entry of {name} must be 0")
