"""Exception hierarchy shared across the simulator."""


class RicensimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(RicensimError, ValueError):
    """A configuration value violates an invariant. Message names the key."""


class InvalidActionError(RicensimError, ValueError):
    """An action level is outside the discrete action space."""


class DomainError(RicensimError, ValueError):
    """A numeric input is outside the domain of a model function."""


class ProtocolError(RicensimError, RuntimeError):
    """The negotiation/masking protocol was violated."""


class MaskViolationError(ProtocolError):
    """A mitigation level fell below its masked floor."""

    def __init__(self, region: int, level: int, floor: int):
        self.region = region
        self.level = level
        self.floor = floor
        super().__init__(f"region {region}: mitigation level {level} violates mask floor {floor}")
