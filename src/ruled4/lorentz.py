"""Vector algebra of flat Lorentzian 4-space with signature (-, +, +, +).

Slot 0 of a :class:`Vec4` is the timelike coordinate.  The scalar product is

    lorentz_dot(x, y) = -x0*y0 + x1*y1 + x2*y2 + x3*y3

and the magnitude of a vector is sqrt(|lorentz_dot(x, x)|), so lightlike
vectors have magnitude zero without leaving the reals.

The ternary product :func:`cross4` is the Lorentzian analogue of the vector
cross product: cross4(x, y, z) is the unique vector c with

    lorentz_dot(c, w) == det[w; x; y; z]   for every w,

where the right side is the ordinary 4x4 determinant with rows w, x, y, z.
It is orthogonal to all three arguments and satisfies the Lagrange identity
lorentz_dot(c, c) == -det(Gram), with Gram the 3x3 matrix of pairwise
Lorentzian products of x, y, z.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from ._frozen import Frozen, _set
from .errors import NonFiniteValue, NonUnitI

__all__ = [
    "CausalCharacter",
    "ModelSpace",
    "Vec4",
    "Characterization",
    "MEMBERSHIP_TOL",
    "lorentz_dot",
    "euclid_dot",
    "lorentz_norm",
    "cross4",
    "characterize",
    "DEFAULT_I",
    "UNIT_I_TOL",
]

MEMBERSHIP_TOL = 1e-9


class CausalCharacter(Enum):
    """Sign class of the quadratic form at a vector."""

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


class ModelSpace(Enum):
    """The three unit pseudo-spheres of the signature (-,+,+,+) space."""

    HYPERBOLIC = "hyperbolic"  # <x,x> = -1 and x0 > 0 (upper sheet)
    DE_SITTER = "de_sitter"    # <x,x> = +1
    LIGHT_CONE = "light_cone"  # <x,x> =  0 and x0 != 0


class Vec4(Frozen):
    """Immutable 4-vector; slot 0 is the timelike coordinate."""

    __slots__ = _fields = ("c0", "c1", "c2", "c3")

    def __init__(self, c0: float, c1: float, c2: float, c3: float):
        c0, c1, c2, c3 = float(c0), float(c1), float(c2), float(c3)
        # x * 0.0 is a signed zero for finite x and nan otherwise, so one
        # comparison screens all four slots
        if c0 * 0.0 + c1 * 0.0 + c2 * 0.0 + c3 * 0.0 != 0.0:
            for name, value in zip(self._fields, (c0, c1, c2, c3)):
                if not math.isfinite(value):
                    raise NonFiniteValue(
                        f"Vec4 component {name} must be finite, got {value!r}")
        _set(self, "c0", c0)
        _set(self, "c1", c1)
        _set(self, "c2", c2)
        _set(self, "c3", c3)

    @staticmethod
    def zero() -> "Vec4":
        return Vec4(0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def basis(slot: int) -> "Vec4":
        comps = [0.0, 0.0, 0.0, 0.0]
        comps[slot] = 1.0
        return Vec4(*comps)

    def components(self) -> tuple[float, float, float, float]:
        return (self.c0, self.c1, self.c2, self.c3)

    def __add__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.c0 + other.c0, self.c1 + other.c1,
                    self.c2 + other.c2, self.c3 + other.c3)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.c0 - other.c0, self.c1 - other.c1,
                    self.c2 - other.c2, self.c3 - other.c3)

    def __neg__(self) -> "Vec4":
        return Vec4(-self.c0, -self.c1, -self.c2, -self.c3)

    def __mul__(self, scalar: float) -> "Vec4":
        s = float(scalar)
        return Vec4(self.c0 * s, self.c1 * s, self.c2 * s, self.c3 * s)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.c0 == 0.0 and self.c1 == 0.0 and self.c2 == 0.0 and self.c3 == 0.0


class Characterization(NamedTuple):
    norm: float
    character: CausalCharacter
    memberships: frozenset[ModelSpace]


def lorentz_dot(x: Vec4, y: Vec4) -> float:
    """Scalar product of signature (-,+,+,+)."""
    return -x.c0 * y.c0 + x.c1 * y.c1 + x.c2 * y.c2 + x.c3 * y.c3


def euclid_dot(x: Vec4, y: Vec4) -> float:
    """Auxiliary positive-definite product (used by the `euclid` norm mode)."""
    return x.c0 * y.c0 + x.c1 * y.c1 + x.c2 * y.c2 + x.c3 * y.c3


def lorentz_norm(x: Vec4) -> float:
    """sqrt(|lorentz_dot(x, x)|); zero exactly on the light cone."""
    return math.sqrt(abs(lorentz_dot(x, x)))


def _det3(a, b, c, d, e, f, g, h, i) -> float:
    # Rows (a b c / d e f / g h i), cofactor expansion along the first row.
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def cross4(x: Vec4, y: Vec4, z: Vec4) -> Vec4:
    """Ternary Lorentzian cross product.

    Computed by cofactor expansion: with M_j the minor of the 3x4 row stack
    [x; y; z] obtained by deleting column j, the result is
    (-M0, -M1, +M2, -M3).  This is the unique vector pairing to the 4x4
    determinant, trilinear and alternating in its arguments, and Lorentz
    orthogonal to each of them.
    """
    m0 = _det3(x.c1, x.c2, x.c3, y.c1, y.c2, y.c3, z.c1, z.c2, z.c3)
    m1 = _det3(x.c0, x.c2, x.c3, y.c0, y.c2, y.c3, z.c0, z.c2, z.c3)
    m2 = _det3(x.c0, x.c1, x.c3, y.c0, y.c1, y.c3, z.c0, z.c1, z.c3)
    m3 = _det3(x.c0, x.c1, x.c2, y.c0, y.c1, y.c2, z.c0, z.c1, z.c2)
    return Vec4(-m0, -m1, m2, -m3)


# The default reference vector i of the ternary products cross4(x, y, i)
# that ruled4.octo and ruled4.octonion build on, and how far |<i, i>| may
# stray from 1.
DEFAULT_I = Vec4(0.0, 0.0, 0.0, 1.0)
UNIT_I_TOL = 1e-9


def _require_axis(i_vec: Vec4) -> None:
    """Raise NonUnitI unless |<i,i>| == 1 within UNIT_I_TOL."""
    if abs(abs(lorentz_dot(i_vec, i_vec)) - 1.0) > UNIT_I_TOL:
        raise NonUnitI(f"reference vector {i_vec} is not unit")


def characterize(x: Vec4) -> Characterization:
    """Norm, causal character, and model-space memberships of a vector.

    Membership tests use an absolute tolerance of 1e-9 on the quadratic
    form; the sign conditions (x0 > 0 for the hyperbolic sheet, x0 != 0 on
    the light cone) are exact.  The ZERO character is reserved for the
    exactly-zero vector; any other vector with vanishing quadratic form is
    LIGHTLIKE.
    """
    q = lorentz_dot(x, x)
    n = math.sqrt(abs(q))
    if x.is_zero():
        character = CausalCharacter.ZERO
    elif q > 0.0:
        character = CausalCharacter.SPACELIKE
    elif q < 0.0:
        character = CausalCharacter.TIMELIKE
    else:
        character = CausalCharacter.LIGHTLIKE
    members = set()
    if abs(q + 1.0) <= MEMBERSHIP_TOL and x.c0 > 0.0:
        members.add(ModelSpace.HYPERBOLIC)
    if abs(q - 1.0) <= MEMBERSHIP_TOL:
        members.add(ModelSpace.DE_SITTER)
    if abs(q) <= MEMBERSHIP_TOL and x.c0 != 0.0:
        members.add(ModelSpace.LIGHT_CONE)
    return Characterization(n, character, frozenset(members))
