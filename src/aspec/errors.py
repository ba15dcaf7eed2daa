"""Exception hierarchy for the engine."""


class AspecError(Exception):
    """Base class for all engine errors."""


class FieldMismatchError(AspecError):
    """Operands live over different fields."""


class DimensionError(AspecError):
    """Matrix/vector shapes are inconsistent."""


class ValidationError(AspecError):
    """Input data violates a structural axiom (with a witness when possible)."""


class UnsupportedAlgebraError(AspecError):
    """The algebra falls outside the supported (split basic / commutative) scope."""


class NotAUnitError(AspecError):
    """Inversion requested for an element that is not a unit."""


class InfiniteDimensionalError(AspecError):
    """A quotient is proved infinite-dimensional, or is not shown finite
    within the degree cap or the rewriting budget."""


class InternalInvariantError(AspecError):
    """A condition that should be unreachable failed; indicates an engine bug."""


class InputError(AspecError):
    """Malformed input document."""
