"""Error taxonomy shared by every module.

Each exception carries a stable machine-readable ``code`` so the CLI can
surface failures as JSON without string matching.  Where a domain error is
morally a builtin (bad division, wrong type), the class also subclasses the
builtin so generic callers keep working.
"""


class CycloffError(Exception):
    """Base class; ``code`` is the stable identifier used in CLI output."""

    code = "Error"

    def __init__(self, message=""):
        super().__init__(message or self.code)


class NotPrime(CycloffError, ValueError):
    code = "NotPrime"


class TooLarge(CycloffError, ValueError):
    code = "TooLarge"


class DivisionByZero(CycloffError, ZeroDivisionError):
    code = "DivisionByZero"


class CtxMismatch(CycloffError, TypeError):
    code = "CtxMismatch"


class NoEmbedding(CycloffError, ValueError):
    code = "NoEmbedding"


class BothZero(CycloffError, ValueError):
    code = "BothZero"


class ConstantPolynomial(CycloffError, ValueError):
    code = "ConstantPolynomial"


class ZeroPolynomial(CycloffError, ValueError):
    code = "ZeroPolynomial"


class ZeroValuation(CycloffError, ValueError):
    code = "ZeroValuation"


class ZeroElement(CycloffError, ValueError):
    code = "ZeroElement"


class ReducibleModulus(CycloffError, ValueError):
    code = "ReducibleModulus"


class ReducibleResult(CycloffError, ValueError):
    code = "ReducibleResult"


class NotAUnit(CycloffError, ValueError):
    code = "NotAUnit"


class NotCoprime(CycloffError, ValueError):
    code = "NotCoprime"


class UnknownPlace(CycloffError, ValueError):
    code = "UnknownPlace"


class GenericPlaceUnsupported(CycloffError, ValueError):
    code = "GenericPlaceUnsupported"


class FunctionalEquationViolated(CycloffError, ArithmeticError):
    code = "FunctionalEquationViolated"


class WrongCharacteristic(CycloffError, ValueError):
    code = "WrongCharacteristic"


class WrongQ(CycloffError, ValueError):
    code = "WrongQ"


class WrongOrder(CycloffError, ArithmeticError):
    code = "WrongOrder"


class WrongRamification(CycloffError, ArithmeticError):
    code = "WrongRamification"


class CertificateFailed(CycloffError, ArithmeticError):
    code = "CertificateFailed"


class ParseError(CycloffError, ValueError):
    code = "ParseError"


class OutputFailed(CycloffError, OSError):
    code = "OutputFailed"
