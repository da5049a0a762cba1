"""Exception hierarchy.

Every failure mode of the library raises a subclass of PadicgzError, so
callers (and the CLI exit-code mapping) can distinguish configuration
errors, precision exhaustion, and genuine identity-check failures.
"""


class PadicgzError(Exception):
    """Base class for all library errors."""


class ConfigError(PadicgzError):
    """Invalid input or configuration (CLI exit code 3)."""


class NonUnitInverse(PadicgzError):
    """Inversion (or Teichmueller lift) of an element of positive valuation."""


class ConvergenceDomain(PadicgzError):
    """log/exp/ppow argument outside its convergence domain."""


class NonResidue(PadicgzError):
    """Square root requested of a quadratic non-residue."""


class PrecisionExhausted(PadicgzError):
    """Accumulated losses have consumed the whole working precision (exit 4)."""


class UnsupportedField(ConfigError):
    """D outside the built-in narrow-class-number-one table."""


class RamifiedPrime(ConfigError):
    """p divides the field discriminant."""


class FactorizationOverflow(PadicgzError):
    """Ideal norm beyond the 64-bit factorization budget."""


class IndexMismatch(PadicgzError):
    """q-expansion operands live on different index sets."""


class NonUnitIndex(ConfigError):
    """d-power with non-unit embedded index: the input is not depleted."""


class WeightMismatch(PadicgzError):
    """omega/eta exponents inconsistent with the declared weight."""


class ZeroDenominator(ConfigError):
    """A projection denominator factor is exactly zero at the given weight."""


class InsufficientValuation(PadicgzError):
    """A V-degree-j coefficient is not divisible by p^j."""


class CentralCharMismatch(ConfigError):
    """Weight pair with m != 2n."""


class NotUStable(PadicgzError):
    """The supplied basis is not stable under the U operator."""


class UnderDetermined(PadicgzError):
    """Not enough coefficient depth to certify a linear-algebra claim."""


class EqualSlopes(PadicgzError):
    """Hecke polynomial with equal Newton slopes; roots cannot be separated."""


class NotInSpan(PadicgzError):
    """Residual of a form against the classical basis is nonzero."""


class NotSeparated(PadicgzError):
    """Eigen data cannot isolate the requested form within the basis."""


class NotEigenform(PadicgzError):
    """t_op residual nonzero for the claimed eigenform."""


class DecompositionFailed(PadicgzError):
    """Polynomial decomposition verification failed (construction bug)."""


class BadPrime(ConfigError):
    """p divides a normalization denominator of a built-in form."""


class SingularCurve(ConfigError):
    """Weierstrass data defines a singular curve."""


class SchemaError(ConfigError):
    """Malformed form/basis/report file."""
