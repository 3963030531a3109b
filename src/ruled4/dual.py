"""Order-2 jets: exact first and second derivatives.

A :class:`Jet2` carries value, first and second derivative through the
elementary operations, so a curve evaluated on jets yields exact
derivatives with no finite differencing.  Each smooth function is stated
once, as its value and two derivatives at a float; the chain rule lifts
that triple to jets, and the float evaluator reads its slot 0.
"""

from __future__ import annotations

import math
from typing import Callable

from ._frozen import Frozen, _set
from .errors import DomainError

__all__ = ["Jet2"]


class Jet2(Frozen):
    """Truncated Taylor data (f, f', f'') of a scalar function at a point."""

    __slots__ = _fields = ("f", "d1", "d2")

    def __init__(self, f: float, d1: float, d2: float):
        _set(self, "f", float(f))
        _set(self, "d1", float(d1))
        _set(self, "d2", float(d2))

    @staticmethod
    def constant(c: float) -> "Jet2":
        return Jet2(c, 0.0, 0.0)

    @staticmethod
    def variable(t: float) -> "Jet2":
        return Jet2(t, 1.0, 0.0)

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.f + other.f, self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.f - other.f, self.d1 - other.d1, self.d2 - other.d2)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.f, -self.d1, -self.d2)

    def __mul__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.f * other.f,
                    self.d1 * other.f + self.f * other.d1,
                    self.d2 * other.f + 2.0 * self.d1 * other.d1 + self.f * other.d2)

    def __truediv__(self, other: "Jet2") -> "Jet2":
        if other.f == 0.0:
            raise DomainError("division by a jet with zero value")
        q = self.f / other.f
        d1 = (self.d1 - q * other.d1) / other.f
        d2 = (self.d2 - 2.0 * d1 * other.d1 - q * other.d2) / other.f
        return Jet2(q, d1, d2)


def _no_overflow(fn: Callable[..., float], *args: float) -> float:
    try:
        return fn(*args)
    except OverflowError as exc:
        raise DomainError(f"{fn.__name__}{args!r} overflows") from exc


def _safe_pow(base: float, expo: float, integral: bool) -> float:
    # Restricted real power: rejects the combinations whose real value or
    # derivative does not exist.
    if expo == 0.0:
        return 1.0
    if base == 0.0 and expo < 0.0:
        raise DomainError("zero raised to a negative power")
    if base < 0.0 and not integral:
        raise DomainError("negative base with a non-integer exponent")
    return _no_overflow(pow, base, expo)


def jet_pow(x: Jet2, p) -> Jet2:
    """x**p for a literal rational exponent p, with exact derivative slots.

    p is read through its lowest-terms .numerator and .denominator, as an
    int, an expr.Ratio or a fractions.Fraction provides them.
    """
    num, den = p.numerator, p.denominator
    if num == 0:
        return Jet2(1.0, 0.0, 0.0)
    if num == den:
        return x
    pf = num / den
    integral = den == 1
    value = _safe_pow(x.f, pf, integral)
    u1 = _safe_pow(x.f, pf - 1.0, integral)
    d1 = pf * u1 * x.d1
    coeff2 = pf * (pf - 1.0)
    if coeff2 == 0.0:
        d2 = pf * u1 * x.d2
    else:
        u2 = _safe_pow(x.f, pf - 2.0, integral)
        d2 = coeff2 * u2 * (x.d1 * x.d1) + pf * u1 * x.d2
    return Jet2(value, d1, d2)


def _sqrt(v: float) -> float:
    if v < 0.0:
        raise DomainError("sqrt of a negative value")
    return math.sqrt(v)


def _jet_sqrt(x: Jet2) -> Jet2:
    u = _sqrt(x.f)
    if u == 0.0:
        if x.d1 == 0.0 and x.d2 == 0.0:
            return Jet2(0.0, 0.0, 0.0)
        raise DomainError("sqrt derivative is singular at zero")
    d1 = x.d1 / (2.0 * u)
    # x''/(2u) - x'^2/(4u^3) rewritten via d1 so u^3 never underflows alone
    d2 = (0.5 * x.d2 - d1 * d1) / u
    return Jet2(u, d1, d2)


def _exp(v: float) -> tuple[float, float, float]:
    u = _no_overflow(math.exp, v)
    return u, u, u


def _sin(v: float) -> tuple[float, float, float]:
    s, c = math.sin(v), math.cos(v)
    return s, c, -s


def _cos(v: float) -> tuple[float, float, float]:
    s, c = math.sin(v), math.cos(v)
    return c, -s, -c


def _sinh(v: float) -> tuple[float, float, float]:
    s, c = _no_overflow(math.sinh, v), _no_overflow(math.cosh, v)
    return s, c, s


def _cosh(v: float) -> tuple[float, float, float]:
    s, c = _no_overflow(math.sinh, v), _no_overflow(math.cosh, v)
    return c, s, c


# Each smooth function as (value, first, second derivative) at a float.  The
# chain rule below lifts it to jets; expr's float kit reads slot 0.
_DERIVATIVES = {"exp": _exp, "sin": _sin, "cos": _cos, "sinh": _sinh, "cosh": _cosh}


def _on_jet(fn: Callable[[float], tuple[float, float, float]]):
    def apply(x: Jet2) -> Jet2:
        u0, u1, u2 = fn(x.f)
        return Jet2(u0, u1 * x.d1, u1 * x.d2 + u2 * (x.d1 * x.d1))
    return apply


JET_FUNCTIONS: dict[str, Callable[[Jet2], Jet2]] = {
    "sqrt": _jet_sqrt, **{name: _on_jet(fn) for name, fn in _DERIVATIVES.items()}}
