"""Commitments and action masking.

Each step every region proposes a mitigation level and accepts every
proposal, so every region commits to the maximum proposal. A commitment
forbids the levels below it in the negotiated dimensions and nothing else,
so a mask is one integer floor per negotiable dimension. Committing to the
maximum of many near-random draws is what drives commitments toward the top
of the level range as the region count grows.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .actions import NUM_LEVELS, check_level
from .errors import ProtocolError


@dataclass(frozen=True)
class ActionMask:
    """Lowest permitted level per negotiable dimension; 0 permits every level."""

    savings: int = 0
    mitigation: int = 0


#: The action dimensions a commitment can constrain (``JointActions`` names).
NEGOTIABLE_DIMENSIONS = tuple(f.name for f in fields(ActionMask))


def commitments_from_arrays(proposal_levels: np.ndarray) -> np.ndarray:
    """Per-region committed levels under all-accept evaluations: every region
    commits to the overall maximum. Supports batched proposals of shape
    (..., n)."""
    p = np.asarray(proposal_levels)
    return np.broadcast_to(p.max(axis=-1, keepdims=True), p.shape).copy()


def build_mask(committed_level: int, dimensions: tuple[str, ...] = ("mitigation",)) -> ActionMask:
    """Mask whose floor is the commitment in the negotiated dimensions."""
    check_level("commitment", committed_level)
    return ActionMask(**dict.fromkeys(dimensions, committed_level))


def masked_sample(floor: int, rng: np.random.Generator) -> int:
    """Uniform draw over the levels from ``floor`` up to the top one."""
    if not 0 <= floor < NUM_LEVELS:
        raise ProtocolError(f"floor {floor} permits no level to sample from")
    return floor + int(rng.integers(NUM_LEVELS - floor))
