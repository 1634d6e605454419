"""Exception types raised by the doublewell package."""


class DoubleWellError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameters(DoubleWellError, ValueError):
    """A well, state, or grid parameter violates its contract."""


class DegenerateSplitting(DoubleWellError):
    """Energy splitting is zero or negative; no beat period exists."""


class NoDecay(DoubleWellError):
    """Wavefunction tails never fall below the requested threshold.

    Raised by the domain-halfwidth search once the trial halfwidth
    exceeds 1e4; signals non-normalizable parameters (e.g. |alpha| >= 1
    in the asymmetric family).
    """


class NonFinite(DoubleWellError):
    """A closed-form evaluation produced a non-finite value."""


class GridTooSmall(DoubleWellError):
    """Phase-space grid does not contain the state's support (mass deficit)."""


class GridMismatch(DoubleWellError):
    """Two Wigner fields live on different phase-space grids."""


class NoFringes(DoubleWellError):
    """Momentum profile has fewer than three sign changes in the band."""


class InvalidGrid(DoubleWellError, ValueError):
    """Discretization grid violates its contract."""


class ConvergenceFailure(DoubleWellError):
    """An iterative solver failed to converge.

    Raised by the tridiagonal eigensolver and by the Romberg quadrature
    that normalizes the closed-form states.
    """


class ScenarioParseError(DoubleWellError):
    """Scenario file is syntactically invalid or has unknown/missing keys."""


class ScenarioValidationError(DoubleWellError):
    """Scenario parsed but a physical-parameter invariant is violated."""
