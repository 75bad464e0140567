"""Exception hierarchy shared across the package."""


class GsReconError(Exception):
    """Base class for all package-specific errors."""


class MeshValidationError(GsReconError):
    """A mesh invariant is violated (orientation, indices, geometry)."""


class MeshParseError(GsReconError):
    """A mesh, measurement or equilibrium file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MeasurementCountError(GsReconError):
    """A measurement vector's length does not match the setup."""


class StateError(GsReconError):
    """An operation was called in the wrong object state."""


class FactorizationError(GsReconError):
    """The linear system could not be factorized."""


class NoPlasmaError(GsReconError):
    """No interior magnetic axis exists for the given flux map."""


class DegeneratePlasmaError(GsReconError):
    """Axis flux and boundary flux coincide."""


class DivergentLambdaError(GsReconError):
    """The plasma-current integral is too small to scale against Ip."""


class EmptySourceError(GsReconError):
    """The plasma domain carries no quadrature support."""


class ConvergenceError(GsReconError):
    """A fixed-point loop failed to converge."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class RegularizationError(GsReconError):
    """A normal system is singular for the requested regularization."""


class OpenContourError(GsReconError):
    """A flux-surface contour does not close inside the domain."""


class NonPhysicalProfileError(GsReconError):
    """A derived physical quantity left its admissible range."""
