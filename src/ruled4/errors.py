"""Exception taxonomy for the ruled4 package.

Every error raised deliberately by this package derives from Ruled4Error, so
callers can catch the whole family with one clause.  Names that would shadow
builtins (SyntaxError and friends) carry an Expr/Scene prefix instead.
"""

from __future__ import annotations


class Ruled4Error(Exception):
    """Base class for all errors raised by ruled4."""


class InconsistentSeed(Ruled4Error):
    """Closure of a multiplication-table seed produced a conflict or gap."""


class NonUnitI(Ruled4Error):
    """The distinguished vector of a ternary product is not unit length."""


class DomainError(Ruled4Error):
    """Evaluation left the real domain (sqrt of a negative, 0 to a negative power)."""


class NonFiniteValue(DomainError, ValueError):
    """A vector component or metric determinant is infinite or NaN."""


class ExprSyntaxError(Ruled4Error):
    """Malformed curve expression.  `offset` is the character offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.bare_message = message
        self.offset = offset


class UnknownIdentifier(ExprSyntaxError):
    """Identifier outside the expression vocabulary."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r}", offset)
        self.name = name


class DirectorConstraintViolated(Ruled4Error):
    """A director curve failed its membership constraint in strict mode."""


class DegenerateNormal(Ruled4Error):
    """The ruling normal has (near-)zero magnitude; no unit normal exists."""


class SingularMetric(Ruled4Error):
    """The first fundamental form is (near-)singular at the evaluation point."""


class SceneSchemaError(Ruled4Error):
    """A scene file failed schema validation.  `pointer` locates the fault."""

    def __init__(self, message: str, pointer: str):
        super().__init__(f"{message} at {pointer}")
        self.pointer = pointer
