"""Exception hierarchy.

Every error carries a short machine-readable ``code`` used by the CLI when
emitting error objects and picking exit codes.
"""


class FCrystalsError(Exception):
    """Base class for all library errors."""

    code = "error"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class MalformedInputError(FCrystalsError):
    """Input document or ring description does not parse / validate."""

    code = "malformed-input"


class IncompatibleRingsError(FCrystalsError):
    """Operands live over different ring parameters."""

    code = "incompatible-rings"


class UnsupportedCharacteristicError(FCrystalsError):
    """Operation not defined at this characteristic (p = 2 exp/log)."""

    code = "unsupported-characteristic"


class DomainError(FCrystalsError):
    """Argument outside the mathematical domain of the operation."""

    code = "domain-error"


class PrecisionError(FCrystalsError):
    """Working precision too small to determine the result exactly."""

    code = "precision-error"

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class ShapeError(FCrystalsError):
    """Matrix or block dimensions do not match."""

    code = "shape-error"


class SingularFrobeniusError(FCrystalsError):
    """Frobenius matrix not invertible where invertibility is required."""

    code = "singular-frobenius"


class InvalidActionError(FCrystalsError):
    """Galois action matrix is not unimodular of finite order."""

    code = "invalid-action"


class InvalidTraceError(FCrystalsError):
    """Frobenius trace violates the Weil bound."""

    code = "invalid-trace"


class UnsupportedInputError(FCrystalsError):
    """Input is valid-looking but outside the supported constructions."""

    code = "unsupported-input"


class InvalidExtensionDataError(FCrystalsError):
    """Extension blocks do not yield an integral Verschiebung."""

    code = "invalid-extension-data"


class InvalidSimplicialError(FCrystalsError):
    """Component face maps violate the simplicial identities."""

    code = "invalid-simplicial"


class InternalError(FCrystalsError):
    """An invariant that holds by construction failed: a bug, not bad input."""

    code = "internal-error"
