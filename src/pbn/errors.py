"""Exception types shared across the package."""


class PbnError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatchError(PbnError):
    """A vector or matrix argument violates a documented shape contract."""


class DomainError(PbnError):
    """A value lies outside the mathematical domain of an operation."""


class SingularityError(PbnError):
    """A Gram system is numerically singular (rank-deficient projection)."""


class ReconstructionError(PbnError):
    """A saddle point solve failed: non-convergence or an infeasible target."""

    def __init__(self, message, *, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class LikelihoodUndefinedError(PbnError):
    """The log-likelihood is undefined for a sample; carries the layer index."""

    def __init__(self, layer, message):
        super().__init__(f"layer {layer}: {message}")
        self.layer = layer


class IngestionError(PbnError):
    """Input data could not be ingested (bad WAV, malformed archive, ...)."""


class JoinError(PbnError):
    """Two score tables could not be joined by sample id."""


class ConfigError(PbnError):
    """A configuration file is malformed or contains unknown keys."""


class TrainingError(PbnError):
    """A training step could not be completed (e.g. whole batch undefined)."""
