"""Exception types shared across the package."""


class TrajoptError(Exception):
    """Base class for all package-specific failures."""


class DimensionError(TrajoptError):
    """An input's shape does not match the model contract."""


class DivergenceError(TrajoptError):
    """A rollout produced a non-finite or absurdly large state."""

    def __init__(self, timestep, message=None):
        self.timestep = timestep
        super().__init__(message or f"state diverged at timestep {timestep}")


class BackwardPassError(TrajoptError):
    """A backward recursion failed (singular or non-finite quantities)."""

    def __init__(self, timestep, message):
        self.timestep = timestep
        super().__init__(f"{message} (timestep {timestep})")


class NonDescentError(TrajoptError):
    """An iLQR direction predicts no cost decrease, which its sweep rules out."""


class KktError(TrajoptError):
    """The stacked KKT system could not be assembled or solved reliably."""


class ConfigError(TrajoptError):
    """Experiment configuration is malformed."""
