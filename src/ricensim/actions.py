"""Discrete action encoding: 5 action types, 10 levels each."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidActionError

NUM_LEVELS = 10

#: Canonical ordering of the five action dimensions, used by sweep grids,
#: CSV columns, and correlation tables.
ACTION_DIMENSIONS = ("savings", "mitigation", "export", "imports", "tariffs")


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
    """One region's action for one step.

    ``import_levels`` and ``tariff_levels`` have one entry per region;
    the self entry must be zero and is ignored by the trade step.
    """

    savings_level: int
    mitigation_level: int
    max_export_level: int
    import_levels: tuple[int, ...]
    tariff_levels: tuple[int, ...]

    def validate(self, region: int, n_regions: int) -> None:
        try:
            check_level("savings", self.savings_level)
            check_level("mitigation", self.mitigation_level)
            check_level("export", self.max_export_level)
            for name, vec in (("imports", self.import_levels), ("tariffs", self.tariff_levels)):
                if len(vec) != n_regions:
                    raise InvalidActionError(
                        f"{name} vector has length {len(vec)}, expected {n_regions}"
                    )
                check_level(name, min(vec))
                check_level(name, max(vec))
                if vec[region] != 0:
                    raise InvalidActionError(f"self entry of {name} vector must be 0")
        except InvalidActionError as exc:
            raise InvalidActionError(f"region {region}: {exc}") from None


class JointActions:
    """All regions' actions for one step, stored as integer arrays.

    ``imports[i, j]`` / ``tariffs[i, j]`` refer to region i importing from /
    tariffing region j. Diagonals are zero.

    Immutable and validated once: ``__init__`` stores read-only ``int64``
    copies of the five arrays, rebinding an attribute raises, and
    ``validate`` runs its checks on the first call only, so a rollout that
    reuses one object for every step pays for the checks once.
    """

    __slots__ = (*ACTION_DIMENSIONS, "_validated")

    def __init__(
        self,
        savings: np.ndarray,
        mitigation: np.ndarray,
        export: np.ndarray,
        imports: np.ndarray,
        tariffs: np.ndarray,
    ):
        for name, value in zip(ACTION_DIMENSIONS, (savings, mitigation, export, imports, tariffs)):
            arr = np.array(value, dtype=np.int64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_validated", False)

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
        """Stack per-region sets; each set's checks imply the joint ones, so
        the result is marked validated."""
        n = len(sets)
        for i, a in enumerate(sets):
            a.validate(i, n)
        joint = cls(
            savings=[a.savings_level for a in sets],
            mitigation=[a.mitigation_level for a in sets],
            export=[a.max_export_level for a in sets],
            imports=[a.import_levels for a in sets],
            tariffs=[a.tariff_levels for a in sets],
        )
        object.__setattr__(joint, "_validated", True)
        return joint

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

    def validate(self) -> None:
        if self._validated:
            return
        n = self.n_regions
        for name, arr in (
            ("savings", self.savings),
            ("mitigation", self.mitigation),
            ("export", self.export),
        ):
            if arr.shape != (n,):
                raise InvalidActionError(f"{name} array has shape {arr.shape}")
            if arr.min() < 0 or arr.max() >= NUM_LEVELS:
                raise InvalidActionError(f"{name} level out of range")
        for name, mat in (("imports", self.imports), ("tariffs", self.tariffs)):
            if mat.shape != (n, n):
                raise InvalidActionError(f"{name} matrix has shape {mat.shape}")
            if mat.min() < 0 or mat.max() >= NUM_LEVELS:
                raise InvalidActionError(f"{name} level out of range")
            if np.any(np.diag(mat) != 0):
                raise InvalidActionError(f"{name} matrix has nonzero diagonal")
        object.__setattr__(self, "_validated", True)
