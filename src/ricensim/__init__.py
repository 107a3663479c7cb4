"""Deterministic multi-region climate-economy simulator with bilateral
trade, tariffs, and a negotiation/masking protocol, plus the experiment
harness that probes their reward structure."""

from .actions import ACTION_DIMENSIONS, NUM_LEVELS, JointActions
from .config import (
    DisasterPenalty,
    NegotiationConfig,
    SimParams,
    VariantConfig,
)
from .engine import (
    EpisodeRecord,
    Observation,
    World,
    reset,
    run_episode,
    step,
)
from .errors import (
    ConfigError,
    DomainError,
    InvalidActionError,
    MaskViolationError,
    ProtocolError,
    RicensimError,
)
from .policies import (
    IDEAL_TRADE_POLICY,
    FixedLevelsPolicy,
    PariahOverridePolicy,
    UniformRandomPolicy,
)
from .regions import generate_regions

__version__ = "0.1.0"

__all__ = [
    "ACTION_DIMENSIONS",
    "NUM_LEVELS",
    "ConfigError",
    "DisasterPenalty",
    "DomainError",
    "EpisodeRecord",
    "FixedLevelsPolicy",
    "IDEAL_TRADE_POLICY",
    "InvalidActionError",
    "JointActions",
    "MaskViolationError",
    "NegotiationConfig",
    "Observation",
    "PariahOverridePolicy",
    "ProtocolError",
    "RicensimError",
    "SimParams",
    "UniformRandomPolicy",
    "VariantConfig",
    "World",
    "generate_regions",
    "reset",
    "run_episode",
    "step",
    "__version__",
]
