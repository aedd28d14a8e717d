"""Exception hierarchy.

Every error carries a short machine-readable ``code``, which names it in the
CLI's error object, and the CLI's ``exit_code`` for it: 1 a violated input
invariant, 2 malformed input, 3 precision, 4 (the default) a bug.
"""


class FCrystalsError(Exception):
    """Base class for all library errors."""

    code = "error"
    exit_code = 4

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class MalformedInputError(FCrystalsError):
    """Input document or ring description does not parse / validate."""

    code = "malformed-input"
    exit_code = 2

    @classmethod
    def sequence(cls, values, code: str, what: str) -> tuple:
        """values as a tuple, unless they are not a sequence (a scalar, None):
        then the boundary's error, with the given code."""
        try:
            return tuple(values)
        except TypeError:
            raise cls(f"{what} must be a sequence, got {values!r}", code=code) from None


class IncompatibleRingsError(FCrystalsError):
    """Operands live over different ring parameters."""

    code = "incompatible-rings"
    exit_code = 2


class UnsupportedCharacteristicError(FCrystalsError):
    """Operation not defined at this characteristic (p = 2 exp/log)."""

    code = "unsupported-characteristic"
    exit_code = 2


class DomainError(FCrystalsError):
    """Argument outside the mathematical domain of the operation."""

    code = "domain-error"
    exit_code = 1


class PrecisionError(FCrystalsError):
    """Working precision too small to determine the result exactly."""

    code = "precision-error"
    exit_code = 3

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class ShapeError(FCrystalsError):
    """Matrix or block dimensions do not match."""

    code = "shape-error"
    exit_code = 2


class SingularFrobeniusError(FCrystalsError):
    """Frobenius matrix not invertible where invertibility is required."""

    code = "singular-frobenius"
    exit_code = 1


class InvalidActionError(FCrystalsError):
    """Galois action matrix is not unimodular of finite order."""

    code = "invalid-action"
    exit_code = 1


class InvalidTraceError(FCrystalsError):
    """Frobenius trace violates the Weil bound."""

    code = "invalid-trace"
    exit_code = 1


class UnsupportedInputError(FCrystalsError):
    """Input is valid-looking but outside the supported constructions."""

    code = "unsupported-input"
    exit_code = 2


class InvalidExtensionDataError(FCrystalsError):
    """Extension blocks do not yield an integral Verschiebung."""

    code = "invalid-extension-data"
    exit_code = 1


class InvalidSimplicialError(FCrystalsError):
    """Component face maps violate the simplicial identities."""

    code = "invalid-simplicial"
    exit_code = 1


class SizeLimitError(FCrystalsError):
    """A stated size beyond the documented bound: g, a rank, a component
    count or m above BOUND, or a ring with p >= 2^31 or a p^n of more than
    4300 decimal digits.  Each is checked before the work it sizes starts."""

    code = "too-large"
    exit_code = 2
    BOUND = 256

    @classmethod
    def check(cls, what: str, value: int) -> int:
        """value, unless it exceeds BOUND."""
        if value > cls.BOUND:
            raise cls(f"{what} = {value} exceeds the size bound {cls.BOUND}")
        return value


class InternalError(FCrystalsError):
    """An invariant that holds by construction failed: a bug, not bad input."""

    code = "internal-error"
