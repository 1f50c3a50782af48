"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class so
that tests can assert on the exact condition rather than on message text.
"""

from __future__ import annotations


class TitshomError(Exception):
    """Base class for all package-specific errors."""


class FieldTooLarge(TitshomError):
    """Requested finite field order exceeds the supported bound."""


class BudgetExceeded(TitshomError):
    """An enumeration or search exceeded its configured budget."""


class DDNotZero(TitshomError):
    """A claimed chain complex failed the boundary-squared-is-zero check."""

    def __init__(self, degree: int, generator: object) -> None:
        super().__init__(f"d o d != 0 at degree {degree} on generator {generator!r}")
        self.degree = degree
        self.generator = generator


class DegreeOutOfRange(TitshomError):
    """Homology requested at a degree the complex does not carry."""


class NonComplementary(TitshomError):
    """Subspaces expected to form a direct-sum decomposition do not."""


class ZeroVector(TitshomError):
    """A primitive/nonzero vector was required."""


class DegreeZero(TitshomError):
    """Operation undefined on degree-zero symbols."""


class NotSpanning(TitshomError):
    """Vectors fail to span the required space."""


class IdentityViolation(TitshomError):
    """A structural identity failed; carries a concrete witness."""

    def __init__(self, witness: object) -> None:
        super().__init__(f"identity violated on {witness!r}")
        self.witness = witness


class ShapeUnavailable(TitshomError):
    """No supported generator shape for the requested parameters."""

    def __init__(self, n: int) -> None:
        super().__init__(f"no supported shape for n={n}")
        self.n = n


class CertificateFailure(TitshomError):
    """A multi-step certificate broke; carries the failing step name."""

    def __init__(self, step: str) -> None:
        super().__init__(f"certificate failed at step {step}")
        self.step = step


class InvalidDescriptor(TitshomError):
    """Malformed root-system descriptor."""


class IntegralModeNonTypeA(TitshomError):
    """Integral bounds are only defined for products of type-A factors."""


class UnknownSuite(TitshomError):
    """Requested check suite is not registered."""


class UnknownParameter(TitshomError):
    """A check suite was given a parameter it does not read."""
