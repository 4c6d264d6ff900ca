"""Exception hierarchy.

Three families matter to callers (and to the CLI exit-code mapping):

* ``InputError`` - a value is structurally broken (bad dimensions,
  malformed data).  CLI exit code 1 when raised during parsing.
* ``ValidationError`` - the value is well-formed but outside the
  admissible class (band pattern, spectral-function membership,
  triangularity, ...).  CLI exit code 2.
* ``NumericalDecisionError`` - a tolerance-based decision could not be
  made safely, or the answer would not be accurate (ambiguous
  zero-norm test, iteration cap, an ill-conditioned reconstruction,
  vanishing denominator, a weight, spring-chain entry or stiffness
  identity lost to underflow or overflow, a round trip off its
  tolerance).  CLI exit code 3.
"""


class BandSpecError(Exception):
    """Base class for all errors raised by this package."""


class InputError(BandSpecError):
    """Structurally invalid input (dimensions, shapes, malformed data)."""


class MixedDimension(InputError):
    """Vector polynomials with different component counts were combined."""


class DimensionMismatch(InputError):
    """Operands disagree on the component count n or the dimension N."""


class IndexOutOfRange(InputError):
    """An index argument lies outside its documented range."""


class ValidationError(BandSpecError):
    """Well-formed value outside the admissible class."""


class LeadingZero(ValidationError):
    """First entry of the outermost diagonal is not positive (the first
    degeneration index would be 1, which the class forbids)."""


class NonContiguousPositiveRun(ValidationError):
    """A positive entry appears after a zero inside a constrained
    diagonal range (the pattern must be positive-run then zero-run)."""


class NegativeConstrainedEntry(ValidationError):
    """A diagonal entry that the class constrains to be >= 0 is negative."""


class InnermostDegeneration(ValidationError):
    """The innermost off-diagonal has an exact zero in its constrained
    range, which would push the degeneration count past n-1."""


class NotSymmetric(ValidationError):
    """A dense matrix handed to the eigensolver is not symmetric."""


class MembershipViolation(ValidationError):
    """A constructed spectral function violates its own invariants,
    signaling a matrix outside the class or numerical breakdown."""


class ZeroJump(ValidationError):
    """A spectral-function jump vector is identically zero."""


class DeadComponent(ValidationError):
    """Some component j has alpha_j(x_k) = 0 at every node."""


class RankSumMismatch(ValidationError):
    """Sum of merged per-node jump ranks differs from N."""


class NotTriangular(ValidationError):
    """The first n orthonormal basis members do not form an upper
    triangular constant system with nonzero diagonal."""


class BandViolation(ValidationError):
    """An inner product outside the declared band is above tolerance."""


class ProfileMismatch(ValidationError):
    """Height-derived degeneration indices disagree with the indices
    inferred from the zero pattern of the assembled matrix."""


class NonPositiveMass(ValidationError):
    """A chain body's mass is not a positive finite number."""


class NegativeSpring(ValidationError):
    """A spring constant is negative or not finite."""


class NumericalDecisionError(BandSpecError):
    """A tolerance-based decision could not be made safely."""


class NoConvergence(NumericalDecisionError):
    """The eigensolver failed to converge."""


class IterationCapExceeded(NumericalDecisionError):
    """Gram-Schmidt passed its height-derived cap, kept a candidate after
    a full basis, or lost every residue class before N basis members."""


class AmbiguousNorm(NumericalDecisionError):
    """A Gram-Schmidt residual norm falls within a factor 10 of the
    zero-norm threshold, or a candidate's squared norm overflows float64
    and makes that threshold inf; the zero/nonzero decision is unsafe."""


class IllConditioned(NumericalDecisionError):
    """The perturbed replays of a reconstruction moved the matrix or the
    initial values too far: the condition estimate times eps exceeds
    the accuracy bound, so the answer cannot be trusted.  The estimate
    over the matrix rows final so far is checked during the run too;
    the message names how many rows it read and the margin."""


class WeightUnderflow(NumericalDecisionError):
    """An eigenvector of an admissible matrix has its first n entries
    all exactly 0.0, so its jump cannot be represented; the class
    forbids a zero jump, floating point produced it."""


class WeightOverflow(NumericalDecisionError):
    """A transformed coefficient vector (T^t)^-1 alpha is not finite."""


class DivisionByZero(NumericalDecisionError):
    """A denominator in the continued-fraction check vanishes."""


class NonFiniteEntry(NumericalDecisionError):
    """An entry of a spring chain's mass-weighted matrix is no finite
    float, or the stiffness-ratio identity on finite entries overflows,
    so its residual is no finite float; or the generators of a
    recurrence overflow at the point where rank_defect evaluates them."""


class RoundTripDeviation(NumericalDecisionError):
    """The matrix or the initial values that the inverse recovered from
    a matrix's spectral function deviate from it by more than the fixed
    bound of ``bandspec roundtrip``, 1e-8."""
