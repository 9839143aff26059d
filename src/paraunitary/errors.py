"""Exception hierarchy shared by every module in the package."""


class ExactAlgebraError(Exception):
    """Base class for all errors raised by this package.  ``exit_code`` is the
    command line's status for the class: 2 for an input refused, 1 for an
    identity check that failed, 3 for an internal fault (a bug)."""
    exit_code = 2


class IncompatibleRings(ExactAlgebraError):
    """Operands live in different coefficient rings; use embed() first."""


class NoSquareRoot(ExactAlgebraError):
    """The requested square root does not exist in the ring."""


class NoSuchRoot(ExactAlgebraError):
    """The requested root of unity does not exist in the ring."""


class ZeroAssigned(ExactAlgebraError):
    """Zero was assigned to a variable during substitution."""


class DimensionMismatch(ExactAlgebraError):
    """Matrix dimensions do not conform."""


class NotSquare(ExactAlgebraError):
    """A square matrix was required."""


class NotScalar(ExactAlgebraError):
    """A scalar (variable-free) matrix was required."""


class ZeroCoefficient(ExactAlgebraError):
    """A zero coefficient makes the combination a zero-divisor, not a unit."""


class NotOrthonormal(ExactAlgebraError):
    """Vectors fail the orthonormality requirement v_i v_j* = delta_ij."""


class NotOrthogonal(ExactAlgebraError):
    """Vectors fail pairwise orthogonality."""


class IsotropicVector(ExactAlgebraError):
    """A basis vector has self inner product zero over the finite field."""


class NotParaunitary(ExactAlgebraError):
    """The input matrix is not paraunitary."""
    exit_code = 1


class NotPseudoParaunitary(ExactAlgebraError):
    """The input matrix is not pseudo-paraunitary."""
    exit_code = 1


class NotCompleteSet(ExactAlgebraError):
    """The idempotent family fails a completeness/orthogonality/symmetry clause."""
    exit_code = 1


class BadCharacteristic(ExactAlgebraError):
    """The field characteristic divides the group order."""


class NotUnitModulus(ExactAlgebraError):
    """A coefficient fails a a* = 1."""


class NotUnitVector(ExactAlgebraError):
    """A vector fails v* v = 1."""


class NegativeExponent(ExactAlgebraError):
    """Monomial exponents must be non-negative here."""


class NotLatinSquare(ExactAlgebraError):
    """The block arrangement grid is not a Latin square over the member indices."""


class SizeMismatch(ExactAlgebraError):
    """Inputs must have the same size."""


class VariableCollision(ExactAlgebraError):
    """Fresh variables collide with variables already in use."""


class NotFullyAssigned(ExactAlgebraError):
    """Every variable must receive a value for specialization."""


class UnknownVariable(ExactAlgebraError):
    """A substitution assigns a name that is not a variable of its matrix."""


class ExponentOverflow(ExactAlgebraError):
    """An exponent left the range that a packed polynomial key can hold."""


class ParseError(ExactAlgebraError):
    """Malformed textual or JSON input."""


class SizeLimit(ParseError):
    """A derived size passes its input limit; refused before it is built."""


class PipelineError(ParseError):
    """A step failed; the message carries the step name and residuals.  Its
    exit code is its cause's, so a step whose check failed exits 1."""

    @property
    def exit_code(self) -> int:
        return self.__cause__.exit_code if isinstance(self.__cause__, ExactAlgebraError) else 2


class NotAPartition(ParseError):
    """Index groups do not partition the ``count`` members 0..count-1."""

    def __init__(self, count: int):
        super().__init__(f"groups must partition 0..{count - 1}")
        self.count = count


class InternalCheckError(ExactAlgebraError):
    """A constructor produced output violating its own postcondition (a bug)."""
    exit_code = 3
