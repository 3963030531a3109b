"""Hypersurfaces of Lorentzian 4-space ruled by a moving 2-plane.

A surface here is phi(x, y, z) = alpha(x) + y*beta(x) + z*gamma(x): a base
curve alpha swept by the plane spanned by two director curves.  It holds
no parameter box of its own: a grid samples its scene's box.  Kinds:

    TYPE1          directors constrained to the unit de Sitter sphere
    TYPE2          directors constrained to the upper hyperbolic sheet
    UNCONSTRAINED  directors free (constructions from ternary products)

For the constrained kinds the metric's ruling diagonal is pinned to the
directors' <p, p> in their model space (ruled4.kernel reads it from
lorentz._MODEL_SPACES); in lax mode that choice is kept even when the
directors violate their constraint, so the closed-form machinery always
computes the same quantities, and violations are surfaced as warnings
instead of being silently absorbed.  Membership is tested at
ADVISORY_SAMPLES points of the x interval by _sample, the one sampler that
the octonion constructions' advisory checks (ruled4.octo) read too.

All curvature data comes from one slice kernel (ruled4.kernel), which the
grid walk (kernel._walk_slices) runs over a grid and the scalar API (frame
through curvature_report, ruled4.pointwise) at one point; building a
surface compiles neither.  The second form's lower 2x2 block vanishes
identically, because phi is affine in (y, z); that forces det(second
form) = 0, hence zero Gauss-Kronecker curvature everywhere: every such
surface is flat.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Protocol

from .errors import DirectorConstraintViolated, DomainError
from .expr import CurveSpec
from .lorentz import (_MODEL_SPACES, MEMBERSHIP_TOL, ModelSpace, Vec4,
                      lorentz_dot)

__all__ = [
    "SurfaceKind", "Curve", "RuledHypersurface", "DirectorReport",
    "make_ruled", "DEGENERATE_NORMAL_TOL", "SINGULAR_METRIC_TOL",
    "ORTHOGONAL_TOL", "ADVISORY_SAMPLES", "SKIPPED_NOTE",
]

DEGENERATE_NORMAL_TOL = 1e-12
SINGULAR_METRIC_TOL = 1e-12
ORTHOGONAL_TOL = 1e-9
# Director membership and the octonion advisories sample the x interval at
# _axis's ADVISORY_SAMPLES points.  Where a curve is undefined at some, or
# its <p, p> is not finite, the surface's warnings carry SKIPPED_NOTE with
# their number: a note, not a violation.
ADVISORY_SAMPLES = 33
SKIPPED_NOTE = ("advisory checks skipped {} of %d samples, where a curve is "
                "undefined or its <p, p> overflows" % ADVISORY_SAMPLES)

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


class Curve(Protocol):
    """Anything that yields (position, velocity, acceleration) at t."""

    def evaluate(self, t: float) -> tuple[Vec4, Vec4, Vec4]: ...


class DirectorReport(NamedTuple):
    """A director's membership in its model space over the kept samples."""

    target: float
    max_violation: float
    worst_t: float
    sign_ok: bool
    passed: bool


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
    return (*[lo + k * step for k in range(n - 1)], float(hi))


def _position(curve: Curve, t: float) -> Vec4:
    """curve's position at t; a CurveSpec builds no derivatives for it."""
    return (curve.position(t) if isinstance(curve, CurveSpec)
            else curve.evaluate(t)[0])


def _sample(curves, x_interval, warnings: list) -> list:
    """(t, the curves' positions at t) at each of x_interval's
    ADVISORY_SAMPLES samples t that is kept: where every curve has a
    position, each with a finite <p, p>.  SKIPPED_NOTE with the number of
    the others goes into `warnings`."""
    rows = []
    for t in _axis(*x_interval, ADVISORY_SAMPLES):
        try:
            row = [_position(curve, t) for curve in curves]
        except DomainError:
            continue
        if all(math.isfinite(lorentz_dot(p, p)) for p in row):
            rows.append((t, row))
    if len(rows) < ADVISORY_SAMPLES:
        warnings.append(SKIPPED_NOTE.format(ADVISORY_SAMPLES - len(rows)))
    return rows


def make_ruled(alpha: Curve, beta: Curve, gamma: Curve, kind: SurfaceKind,
               *,
               strict: bool = False,
               x_interval: tuple[float, float] = (-1.0, 1.0)) -> RuledHypersurface:
    """Assemble a ruled hypersurface, checking director constraints.

    For the constrained kinds, both directors are sampled at _sample's
    ADVISORY_SAMPLES points of x_interval and tested for membership in
    their model space (tolerance MEMBERSHIP_TOL on the quadratic form,
    exact time-slot conditions).  Violations raise
    DirectorConstraintViolated in strict mode and are recorded as warnings
    otherwise; over no kept sample there is no report.  UNCONSTRAINED
    surfaces skip the check.
    """
    warnings = []
    reports = []
    space = _DIRECTOR_SPACE.get(kind)
    if space is not None:
        rows = _sample((beta, gamma), x_interval, warnings)
        target, time_ok = _MODEL_SPACES[space]
        # over no kept sample, zip gives no column and so no report
        for name, column in zip(("beta", "gamma"),
                                zip(*(row for _, row in rows))):
            violations = [abs(lorentz_dot(p, p) - target) for p in column]
            worst = max(violations)
            sign_ok = all(time_ok(p.c0) for p in column)
            report = DirectorReport(target, worst,
                                    rows[violations.index(worst)][0], sign_ok,
                                    worst <= MEMBERSHIP_TOL and sign_ok)
            reports.append(report)
            if not report.passed:
                detail = (f"director {name} fails {space.value} membership: "
                          f"max quadratic-form violation {worst:.6g} "
                          f"at t={report.worst_t:.6g}, sign_ok={sign_ok}")
                if strict:
                    raise DirectorConstraintViolated(detail)
                warnings.append(detail)
    return RuledHypersurface(alpha, beta, gamma, kind, tuple(warnings),
                             tuple(reports))
