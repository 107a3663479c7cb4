"""Discrete action encoding: 5 action types, 10 levels each."""
from __future__ import annotations

import functools
import operator
from itertools import chain, repeat

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


_DTYPE_KIND = operator.attrgetter("dtype.kind")


def _integer_arrays(value) -> bool:
    """Whether ``value`` is an integer array or a list or tuple of them:
    neither can hold a bool."""
    if isinstance(value, np.ndarray):
        return value.dtype.kind in "iu"
    return (
        isinstance(value, (list, tuple))
        and all(map(isinstance, value, repeat(np.ndarray)))
        and {"i", "u"}.issuperset(map(_DTYPE_KIND, value))
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
    """``int64`` copy of ``value``, whose elements must be integers; numpy
    stacks ``True`` among integers as 1, so the elements of a sequence of
    anything but integer arrays are looked at."""
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
    return arr.astype(np.int64, copy=False)


#: The level and row types that ``from_action_sets`` stacks straight into the
#: blocks: what the policies return.
_PLAIN_LEVELS = frozenset((int, np.int64))
_INT64 = np.dtype(np.int64)
_DTYPE = operator.attrgetter("dtype")


class JointActions:
    """All regions' actions for one step, stored as integer arrays.

    ``imports[i, j]`` / ``tariffs[i, j]`` refer to region i importing from /
    tariffing region j. Diagonals are zero.

    Immutable and checked when built. The levels are held in two read-only
    ``int64`` blocks, savings, mitigation and export in a ``[3, n]`` vector
    block and imports and tariffs in a ``[2, n, n]`` matrix block; the five
    level attributes are their rows. Under the ``RATE_NAMES``
    (``savings_rate``, ...) are the rows of the read-only rate blocks
    ``levels_to_rates(block)``, and ``unmitigated_rate = 1.0 -
    mitigation_rate`` and ``untariffed_rate = 1.0 - tariffs_rate`` are the
    read-only complements the step multiplies by, so a rollout that reuses
    one object derives them once. ``__init__`` copies its five inputs
    (non-integer elements raise) into the blocks; rebinding an attribute
    raises. So an invalid ``JointActions`` cannot exist.
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
        levels = [
            _integer_copy(name, value)
            for name, value in zip(ACTION_DIMENSIONS, (savings, mitigation, export, imports, tariffs))
        ]
        if levels[0].ndim != 1 or not levels[0].size:
            raise InvalidActionError(f"savings array has shape {levels[0].shape}")
        n = len(levels[0])
        for name, arr in zip(ACTION_DIMENSIONS, levels):
            shape = (n, n) if name in ("imports", "tariffs") else (n,)
            if arr.shape != shape:
                raise InvalidActionError(f"{name} array has shape {arr.shape}, expected {shape}")
        self._build(np.array(levels[:3]), np.array(levels[3:]))

    def _build(self, vectors: np.ndarray, matrices: np.ndarray) -> None:
        """Check the fresh ``[3, n]`` and ``[2, n, n]`` ``int64`` level blocks
        (n >= 1, levels in 0..9, zero diagonals; errors name the region) and
        store them read-only, with their rates and complements, as rows."""
        n = vectors.shape[1]
        if not n:  # only ``uniform`` can get here with no regions
            raise InvalidActionError(f"savings array has shape {vectors[0].shape}")
        # One reduction per block for both ends: a negative level reads as a
        # huge unsigned value. Every (n + 1)-th element of a row-major matrix
        # is on its diagonal.
        if (
            np.maximum.reduce(vectors.view(np.uint64), axis=None) >= NUM_LEVELS
            or np.maximum.reduce(matrices.view(np.uint64), axis=None) >= NUM_LEVELS
            or np.count_nonzero(matrices.reshape(2, n * n)[:, :: n + 1])
        ):
            for name, arr in zip(ACTION_DIMENSIONS, (*vectors, *matrices)):
                _check_levels(name, arr.flat, arr.size // n)
                if arr.ndim == 2 and np.count_nonzero(np.diagonal(arr)):
                    region = int(np.flatnonzero(np.diagonal(arr))[0])
                    raise InvalidActionError(f"region {region}: self entry of {name} must be 0")
        vector_rates, matrix_rates = levels_to_rates(vectors), levels_to_rates(matrices)
        complements = 1.0 - vector_rates[1], 1.0 - matrix_rates[1]
        for arr in (vectors, matrices, vector_rates, matrix_rates, *complements):
            arr.setflags(write=False)
        for name, value in zip(
            self.__slots__, (*vectors, *matrices, *vector_rates, *matrix_rates, *complements)
        ):
            object.__setattr__(self, name, value)

    @classmethod
    def _from_blocks(cls, vectors: np.ndarray, matrices: np.ndarray) -> "JointActions":
        actions = object.__new__(cls)
        actions._build(vectors, matrices)
        return actions

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
    def from_action_sets(cls, sets: list[tuple]) -> "JointActions":
        """Stack per-region sets into one checked ``JointActions``. Set ``i``
        is region ``i``'s action for one step, as a policy's ``act`` returns
        it: a plain 5-tuple ``(savings, mitigation, export, import_row,
        tariff_row)`` in ``ACTION_DIMENSIONS`` order, whose rows have one
        entry per region, 0 toward the region itself. The policies' levels
        are ``int`` or ``np.int64`` and their rows read-only ``int64``
        arrays; such sets are transposed straight into the two blocks. Any
        other sets go through the constructor, whose checks name what is
        wrong, and a set of any other length than 5 is an error naming its
        region. No sets give five empty columns, which fail the check as any
        empty action does."""
        try:
            columns = tuple(zip(*sets, strict=True))
        except ValueError:  # sets of different lengths
            columns = ()
        if sets and len(columns) != len(ACTION_DIMENSIONS):
            region = next(i for i, s in enumerate(sets) if len(s) != len(ACTION_DIMENSIONS))
            raise InvalidActionError(
                f"region {region}: action set has {len(sets[region])} entries, expected 5"
            )
        columns = columns or ((),) * len(ACTION_DIMENSIONS)
        rows = columns[3] + columns[4]
        if (
            _PLAIN_LEVELS.issuperset(map(type, chain(*columns[:3])))
            and {np.ndarray}.issuperset(map(type, rows))
            and {_INT64}.issuperset(map(_DTYPE, rows))
        ):
            try:
                vectors, matrices = np.array(columns[:3]), np.array(columns[3:])
            except ValueError:  # rows of different lengths
                pass
            else:
                if vectors.dtype == _INT64 and matrices.shape == (2, len(sets), len(sets)):
                    return cls._from_blocks(vectors, matrices)
        return cls(*columns)

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
        blocks are built directly: the vectors repeat the checked levels and
        the matrices stack the cached ``_partner_matrix``."""
        levels = (savings, mitigation, export, imports, tariffs)
        for name, lvl in zip(ACTION_DIMENSIONS, levels):
            check_level(name, lvl)
        vectors = np.repeat(np.array(levels[:3], dtype=np.int64)[:, None], n_regions, axis=1)
        matrices = np.array(
            (_partner_matrix(n_regions, imports), _partner_matrix(n_regions, tariffs))
        )
        return cls._from_blocks(vectors, matrices)

    def validate(self, n_regions: int) -> None:
        """Reject actions that do not cover a world of ``n_regions``."""
        if self.n_regions != n_regions:
            raise ConfigError(f"actions cover {self.n_regions} regions, world has {n_regions}")
