"""Commitments and action masking.

Each step every region proposes a mitigation level and accepts every
proposal, so every region commits to the maximum proposal. A commitment
forbids the mitigation levels below it and nothing else, so a mask is one
integer: the mitigation floor. Committing to the maximum of many
near-random draws is what drives commitments toward the top of the level
range as the region count grows.
"""
from __future__ import annotations

import numpy as np

from .actions import NUM_LEVELS, check_level
from .errors import ProtocolError


def commitments_from_arrays(proposal_levels: np.ndarray) -> np.ndarray:
    """The level every region commits to under all-accept evaluations: the
    maximum proposal. Proposals of shape (..., n) give commitments of
    shape (...)."""
    return np.asarray(proposal_levels).max(axis=-1)


def build_mask(committed_level: int) -> int:
    """The mitigation floor a commitment sets: the commitment itself."""
    check_level("commitment", committed_level)
    return committed_level


def masked_sample(floor: int, rng: np.random.Generator) -> int:
    """Uniform draw over the levels from ``floor`` up to the top one. At the
    top floor there is one level, and numpy's draw over a one-level range
    consumes no generator state, so the floor is returned undrawn."""
    if not 0 <= floor < NUM_LEVELS:
        raise ProtocolError(f"floor {floor} permits no level to sample from")
    if floor == NUM_LEVELS - 1:
        return floor
    return floor + int(rng.integers(NUM_LEVELS - floor))
