"""Hypersurfaces of Lorentzian 4-space ruled by a moving 2-plane.

A surface here is phi(x, y, z) = alpha(x) + y*beta(x) + z*gamma(x): a base
curve alpha swept by the plane spanned by two director curves.  It holds
no parameter box of its own: a grid samples its scene's box.  Kinds:

    TYPE1          directors constrained to the unit de Sitter sphere
    TYPE2          directors constrained to the upper hyperbolic sheet
    UNCONSTRAINED  directors free (constructions from ternary products)

For the constrained kinds the metric's ruling diagonal is pinned to the
constraint value (+1 or -1); in lax mode that choice is kept even when the
directors violate their constraint, so the closed-form machinery always
computes the same quantities, and violations are surfaced as warnings
instead of being silently absorbed.

All curvature data comes from one slice kernel (ruled4.kernel), which the
grid walk (kernel._walk_slices) runs over a grid and the scalar API (frame
through curvature_report, ruled4.pointwise) at one point; building a
surface compiles neither.  The second form's lower 2x2 block vanishes
identically, because phi is affine in (y, z); that forces det(second
form) = 0, hence zero Gauss-Kronecker curvature everywhere: every such
surface is flat.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Protocol

from .errors import DirectorConstraintViolated
from .expr import CurveSpec, DirectorReport, validate_director
from .lorentz import ModelSpace, Vec4

__all__ = [
    "SurfaceKind", "Curve", "RuledHypersurface", "make_ruled",
    "DEGENERATE_NORMAL_TOL", "SINGULAR_METRIC_TOL", "ORTHOGONAL_TOL",
]

DEGENERATE_NORMAL_TOL = 1e-12
SINGULAR_METRIC_TOL = 1e-12
ORTHOGONAL_TOL = 1e-9

# A 3x3 matrix as a tuple of three row tuples.
Mat3 = tuple[tuple[float, float, float], ...]


class SurfaceKind(Enum):
    TYPE1 = "type1"
    TYPE2 = "type2"
    UNCONSTRAINED = "unconstrained"


_DIRECTOR_SPACE = {
    SurfaceKind.TYPE1: ModelSpace.DE_SITTER,
    SurfaceKind.TYPE2: ModelSpace.HYPERBOLIC,
}

_RULING_DIAGONAL = {
    SurfaceKind.TYPE1: 1.0,
    SurfaceKind.TYPE2: -1.0,
}


class Curve(Protocol):
    """Anything that yields (position, velocity, acceleration) at t."""

    def evaluate(self, t: float) -> tuple[Vec4, Vec4, Vec4]: ...


class RuledHypersurface(NamedTuple):
    alpha: Curve
    beta: Curve
    gamma: Curve
    kind: SurfaceKind
    warnings: tuple[str, ...] = ()
    director_reports: tuple[DirectorReport, ...] = ()


def _axis(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """n evenly spaced samples of [lo, hi]; the last is hi itself."""
    if n < 2:
        raise ValueError(f"resolution must be >= 2 per axis, got {n}")
    step = (hi - lo) / (n - 1)
    values = [lo + k * step for k in range(n - 1)]
    values.append(float(hi))
    return tuple(values)


def make_ruled(alpha: Curve, beta: Curve, gamma: Curve, kind: SurfaceKind,
               *,
               strict: bool = False,
               x_interval: tuple[float, float] = (-1.0, 1.0)) -> RuledHypersurface:
    """Assemble a ruled hypersurface, checking director constraints.

    For the constrained kinds, both directors are sampled at _axis's 33
    points of x_interval and tested for membership in their model space
    (tolerance 1e-9 on the quadratic form, exact sign conditions).
    Violations raise DirectorConstraintViolated in strict mode and are
    recorded as warnings otherwise.  UNCONSTRAINED surfaces skip the check.
    """
    warnings: list[str] = []
    reports: list[DirectorReport] = []
    space = _DIRECTOR_SPACE.get(kind)
    if space is not None:
        grid = _axis(*x_interval, 33)
        for name, director in (("beta", beta), ("gamma", gamma)):
            if not isinstance(director, CurveSpec):
                warnings.append(f"director {name} is not expression-backed; "
                                "membership not checked")
                continue
            report = validate_director(director, space, grid)
            reports.append(report)
            if not report.passed:
                detail = (f"director {name} fails {space.value} membership: "
                          f"max quadratic-form violation {report.max_violation:.6g} "
                          f"at t={report.worst_t:.6g}, sign_ok={report.sign_ok}")
                if strict:
                    raise DirectorConstraintViolated(detail)
                warnings.append(detail)
    return RuledHypersurface(alpha, beta, gamma, kind, tuple(warnings),
                             tuple(reports))
