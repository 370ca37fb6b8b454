"""Exception types shared across the package.

``InvariantViolation`` is the base for every numeric-contract failure; the
CLI maps it to exit code 3, while ``InputFormatError`` (malformed files or
option payloads) maps to exit code 2.
"""


class InvariantViolation(ValueError):
    """A numeric invariant or operation precondition was violated."""


class NonHermitianError(InvariantViolation):
    """Input matrix is not Hermitian within tolerance."""


class ConstraintError(InvariantViolation):
    """A coefficient-set constraint required by a closed form does not hold."""


class DensityMatrixError(InvariantViolation):
    """Input is not a valid density matrix within tolerance."""


class DegenerateBranchError(InvariantViolation):
    """A closed-form denominator is numerically degenerate."""


class ConcurrenceDomainError(InvariantViolation):
    """A concurrence radicand is negative beyond round-off tolerance."""


class InputFormatError(ValueError):
    """Malformed input file or payload."""
