"""Exception types shared across the toolkit."""


class LrdistillError(Exception):
    """Base class for every error raised by this package."""


class InputError(LrdistillError):
    """Invalid user-supplied data or parameters. The CLI maps this to exit code 2."""


class StateFormatError(InputError):
    """A state or channel document violates the schema or a state invariant."""


class SubsystemError(InputError):
    """A subsystem specification does not match the declared dimension list."""


class NotNormalizedError(InputError):
    """A vector that must have unit Euclidean norm does not."""


class DimensionMismatchError(InputError):
    """Operator dimensions are incompatible with the channel or state."""


class NotTracePreservingError(InputError):
    """A candidate Choi matrix does not have the maximally mixed input marginal."""


class BadParameterError(InputError):
    """A numeric parameter is outside its admissible range."""


class EnsembleSpecError(InputError):
    """An ensemble specification is invalid for the requested experiment."""


class NumericsError(LrdistillError):
    """Numerical failure inside the dense linear-algebra kernels. CLI exit code 3."""


class NotHermitianError(NumericsError):
    """A matrix expected to be Hermitian deviates beyond the symmetry tolerance."""


class NonConvergenceError(NumericsError):
    """The eigensolver failed to converge."""


class NoPositiveEigenvalueError(NumericsError, ValueError):
    """A spectrum has no eigenvalue above the rank cutoff (the zero matrix)."""


class RankNotLowError(LrdistillError):
    """The low-rank precondition rank(state) < rank(marginal) does not hold."""
