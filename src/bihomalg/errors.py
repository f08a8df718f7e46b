"""Exception types shared across the package."""


class BiHomAlgError(Exception):
    """Base class for all package errors."""


class FieldMismatch(BiHomAlgError):
    """Operands belong to different fields."""


class EvalSingular(BiHomAlgError):
    """A denominator vanished at the evaluation point."""


class IncompleteAssignment(BiHomAlgError):
    """A parameter occurring in the expression has no assigned value."""


class ExponentOverflow(BiHomAlgError, OverflowError):
    """A Q(params) product reached the exponent limit of a packed monomial."""


class DimensionMismatch(BiHomAlgError):
    """Vector/matrix/table dimensions do not conform."""


class TwistHypothesisViolated(BiHomAlgError):
    """The endomorphisms handed to a Yau twist fail multiplicativity or commutation."""


class InputAxiomsFail(BiHomAlgError):
    """A constructor's input failed its axiom precondition."""

    def __init__(self, which: str, report=None):
        super().__init__(f"input axioms fail: {which}")
        self.which = which
        self.report = report


class NonzeroWeight(BiHomAlgError):
    """The operation is only defined at weight 0."""


class HypothesisViolated(BiHomAlgError):
    """A named hypothesis of a composition result fails."""

    def __init__(self, which: str):
        super().__init__(f"hypothesis violated: {which}")
        self.which = which


class WrongAugmentation(BiHomAlgError):
    """Tree operation applied to the wrong augmentation kind."""


class Indecomposable(BiHomAlgError):
    """A single-leaf tree cannot be split at the root."""


class InvalidArity(BiHomAlgError):
    """Tree arity must be a positive integer."""


class BoundsExceeded(BiHomAlgError):
    """An element does not fit inside the stated truncation bounds."""


class BudgetExceeded(BiHomAlgError):
    """The brute-force search space exceeds the configured budget."""


class SpecFileError(BiHomAlgError):
    """Malformed algebra spec document."""
