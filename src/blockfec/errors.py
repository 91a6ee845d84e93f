"""Exception types shared across the package."""


class FecError(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(FecError):
    """The requested field characteristic is not a prime number."""


class NotIrreducible(FecError):
    """A defining polynomial factors over its base field."""


class NotPrimitive(FecError):
    """An irreducible polynomial whose root does not generate the
    multiplicative group; table-backed fields require primitivity."""


class DivisionByZero(FecError, ZeroDivisionError):
    """Division or inversion of the zero element."""


class InvalidSubfield(FecError):
    """The requested order does not describe a subfield."""


class OrderMismatch(FecError):
    """Two fields of different order cannot be isomorphic."""


class LengthMismatch(FecError):
    """A vector does not match the length required by a code."""


class RankDeficient(FecError):
    """A matrix does not have the full rank an operation requires."""


class NotSystematic(FecError):
    """A matrix lacks the identity block an operation requires."""


class NotADivisor(FecError):
    """A would-be generator polynomial does not divide x^n - 1."""


class InvalidSymbol(FecError):
    """A word or message holds a symbol outside the code's alphabet: its
    field, or the subfield of a BCH code."""


class DegreeTooHigh(FecError):
    """An information polynomial exceeds the code dimension."""


class InvalidParams(FecError):
    """Code parameters violate a construction precondition."""


class InvalidColumns(FecError):
    """A column selection is out of range or duplicated."""


class InvalidSpan(FecError):
    """A burst span is empty, too long, or has zero endpoints."""


class TooLarge(FecError):
    """An exhaustive operation exceeds its hard size cap."""


# a symbol outside a BCH code's subfield is outside its alphabet
SubfieldViolation = InvalidSymbol
