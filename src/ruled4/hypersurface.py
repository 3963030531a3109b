"""Hypersurfaces of Lorentzian 4-space ruled by a moving 2-plane.

A surface here is phi(x, y, z) = alpha(x) + y*beta(x) + z*gamma(x): a base
curve alpha swept by the plane spanned by two director curves.  Kinds:

    TYPE1          directors constrained to the unit de Sitter sphere
    TYPE2          directors constrained to the upper hyperbolic sheet
    UNCONSTRAINED  directors free (constructions from ternary products)

For the constrained kinds the metric's ruling diagonal is pinned to the
constraint value (+1 or -1); in lax mode that choice is kept even when the
directors violate their constraint, so the closed-form machinery always
computes the same quantities, and violations are surfaced as warnings
instead of being silently absorbed.

All curvature data flows from the frame (first and second parameter
derivatives of phi, exact via jets), the ruling normal cross4(phi_x, phi_y,
phi_z), the 3x3 first fundamental form, and the second fundamental form
whose lower 2x2 block vanishes identically because phi is affine in (y, z).
That structural zero block forces det(second form) = 0, hence zero
Gauss-Kronecker curvature everywhere: every such surface is flat.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple, Optional, Protocol

from .errors import (DegenerateNormal, DirectorConstraintViolated,
                     NonFiniteValue, SingularMetric)
from .expr import CurveSpec, DirectorReport, validate_director
from .lorentz import (CausalCharacter, ModelSpace, Vec4, _det3, cross4,
                      lorentz_dot)

__all__ = [
    "SurfaceKind", "Curve", "RuledHypersurface", "make_ruled",
    "Frame", "frame", "eval_point",
    "GaussMapData", "gauss_map",
    "MetricData", "first_form", "inverse_metric",
    "second_form", "second_form_raw",
    "minimality_residual", "laplace_beltrami", "lb_closed_orthogonal",
    "CurvatureReport", "curvature_report",
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
    x_interval: tuple[float, float]
    y_interval: tuple[float, float]
    z_interval: tuple[float, float]
    warnings: tuple[str, ...] = ()
    director_reports: tuple[DirectorReport, ...] = ()


def _director_grid(interval: tuple[float, float]) -> list[float]:
    """33 evenly spaced samples of the interval; one if it is a point."""
    lo, hi = float(interval[0]), float(interval[1])
    if hi == lo:
        return [lo]
    step = (hi - lo) / 32
    return [lo + k * step for k in range(33)]


def make_ruled(alpha: Curve, beta: Curve, gamma: Curve, kind: SurfaceKind,
               *,
               strict: bool = False,
               x_interval: tuple[float, float] = (-1.0, 1.0),
               y_interval: tuple[float, float] = (-1.0, 1.0),
               z_interval: tuple[float, float] = (-1.0, 1.0)) -> RuledHypersurface:
    """Assemble a ruled hypersurface, checking director constraints.

    For the constrained kinds, both directors are sampled at 33 points of
    the x interval and tested for membership in their model space
    (tolerance 1e-9 on the quadratic form, exact sign conditions).
    Violations raise DirectorConstraintViolated in strict mode and are
    recorded as warnings otherwise.  UNCONSTRAINED surfaces skip the check.
    """
    warnings: list[str] = []
    reports: list[DirectorReport] = []
    space = _DIRECTOR_SPACE.get(kind)
    if space is not None:
        grid = _director_grid(x_interval)
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
    return RuledHypersurface(alpha, beta, gamma, kind,
                             (float(x_interval[0]), float(x_interval[1])),
                             (float(y_interval[0]), float(y_interval[1])),
                             (float(z_interval[0]), float(z_interval[1])),
                             tuple(warnings), tuple(reports))


# ---------------------------------------------------------------------------
# Frame

class Frame(NamedTuple):
    """phi and its parameter derivatives at one point.

    phi is affine in y and z, so phi_yy = phi_yz = phi_zz = 0 identically;
    they are omitted.  phi_xy and phi_xz are the director velocities.
    """

    position: Vec4
    phi_x: Vec4
    phi_y: Vec4
    phi_z: Vec4
    phi_xx: Vec4
    phi_xy: Vec4
    phi_xz: Vec4


def frame(h: RuledHypersurface, x: float, y: float, z: float) -> Frame:
    return _frame_at((h.alpha.evaluate(x), h.beta.evaluate(x),
                      h.gamma.evaluate(x)), y, z)


def _frame_at(curves, y: float, z: float) -> Frame:
    """The frame at (y, z) from alpha, beta, gamma evaluated at one x."""
    (a0, a1, a2), (b0, b1, b2), (g0, g1, g2) = curves
    k = (1.0, float(y), float(z))
    return Frame(position=_lincomb(k, (a0, b0, g0)),
                 phi_x=_lincomb(k, (a1, b1, g1)), phi_y=b0, phi_z=g0,
                 phi_xx=_lincomb(k, (a2, b2, g2)), phi_xy=b1, phi_xz=g1)


def _lincomb(coeffs, vectors, zero: float = -0.0) -> Vec4:
    """zero + sum_k coeffs[k] * vectors[k], summed one component at a time.

    -0.0 is the exact additive identity, so by default signed zeros survive
    and (1, y, z) on (a, b, g) is bit-identical to a + y*b + z*g.  The
    Laplacians pass 0.0: 0.0 + x == x for x != 0, so a component that would
    read -0.0 reads 0.0 and no other bit changes.
    """
    (k, v), *rest = zip(coeffs, vectors)
    s0, s1, s2, s3 = (zero + k * v.c0, zero + k * v.c1, zero + k * v.c2,
                      zero + k * v.c3)
    for k, v in rest:
        s0 += k * v.c0
        s1 += k * v.c1
        s2 += k * v.c2
        s3 += k * v.c3
    return Vec4(s0, s1, s2, s3)


def _derivs(fr: Frame) -> tuple[Vec4, ...]:
    """(phi_x, phi_y, phi_z, phi_xx, phi_xy, phi_xz), the Laplacians' basis."""
    return (fr.phi_x, fr.phi_y, fr.phi_z, fr.phi_xx, fr.phi_xy, fr.phi_xz)


def eval_point(h: RuledHypersurface, x: float, y: float, z: float) -> Vec4:
    return frame(h, x, y, z).position


# ---------------------------------------------------------------------------
# Gauss map

class GaussMapData(NamedTuple):
    n_raw: Vec4
    unit: Vec4
    magnitude: float
    character: CausalCharacter


def gauss_map(h: RuledHypersurface, x: float, y: float, z: float,
              fr: Optional[Frame] = None) -> GaussMapData:
    """Unit normal from the ternary cross of the tangent frame.

    The magnitude is sqrt(|<n, n>|), so a lightlike (or vanishing) raw
    normal has no unit direction and raises DegenerateNormal.
    """
    if fr is None:
        fr = frame(h, x, y, z)
    n = cross4(fr.phi_x, fr.phi_y, fr.phi_z)
    q = lorentz_dot(n, n)
    d = math.sqrt(abs(q))
    if d <= DEGENERATE_NORMAL_TOL:
        raise DegenerateNormal(
            f"ruling normal magnitude {d!r} at (x,y,z)=({x},{y},{z})")
    unit = n * (1.0 / d)
    # d > DEGENERATE_NORMAL_TOL rules out the ZERO and LIGHTLIKE characters
    character = (CausalCharacter.SPACELIKE if q > 0.0
                 else CausalCharacter.TIMELIKE)
    return GaussMapData(n, unit, d, character)


# ---------------------------------------------------------------------------
# First fundamental form

class MetricData(NamedTuple):
    """First fundamental form and its scalar ingredients.

    a = <phi_x, phi_x>, b = <phi_y, phi_x>, c = <phi_z, phi_x>,
    e = <phi_y, phi_z>.  For constrained kinds the ruling diagonal (m22,
    m33) is the constraint value; otherwise the actual director norms.
    adj holds the adjugate entries (a11, a12, a13, a22, a23, a33); detg is
    its cofactor expansion along the first row; detg_closed is the
    polynomial closed form available for the constrained kinds.
    """

    kind: SurfaceKind
    a: float
    b: float
    c: float
    e: float
    m22: float
    m33: float
    detg: float
    detg_closed: Optional[float]
    adj: tuple[float, float, float, float, float, float]

    @property
    def g(self) -> Mat3:
        return ((self.a, self.b, self.c),
                (self.b, self.m22, self.e),
                (self.c, self.e, self.m33))


def first_form(h: RuledHypersurface, x: float, y: float, z: float,
               fr: Optional[Frame] = None) -> MetricData:
    if fr is None:
        fr = frame(h, x, y, z)
    a = lorentz_dot(fr.phi_x, fr.phi_x)
    b = lorentz_dot(fr.phi_y, fr.phi_x)
    c = lorentz_dot(fr.phi_z, fr.phi_x)
    e = lorentz_dot(fr.phi_y, fr.phi_z)
    sigma = _RULING_DIAGONAL.get(h.kind)
    if sigma is None:
        m22 = lorentz_dot(fr.phi_y, fr.phi_y)
        m33 = lorentz_dot(fr.phi_z, fr.phi_z)
        closed = None
    else:
        m22 = m33 = sigma
        if h.kind is SurfaceKind.TYPE1:
            closed = -b * b + 2.0 * c * b * e - c * c - a * e * e + a
        else:
            closed = b * b + 2.0 * c * b * e + c * c - a * e * e + a
    adj = _adjugate(a, b, c, e, m22, m33)
    detg = a * adj[0] + b * adj[1] + c * adj[2]
    return MetricData(h.kind, a, b, c, e, m22, m33, detg, closed, adj)


def _adjugate(a: float, b: float, c: float, e: float, m22: float,
              m33: float) -> tuple[float, float, float, float, float, float]:
    """(a11, a12, a13, a22, a23, a33) of the symmetric metric's adjugate."""
    return (m22 * m33 - e * e, c * e - b * m33, b * e - c * m22,
            a * m33 - c * c, b * c - a * e, a * m22 - b * b)


def _regular(md: MetricData) -> MetricData:
    """md itself, if its determinant is finite and away from zero."""
    if not math.isfinite(md.detg):
        raise NonFiniteValue(f"metric determinant {md.detg!r}")
    if abs(md.detg) <= SINGULAR_METRIC_TOL:
        raise SingularMetric(f"metric determinant {md.detg!r}")
    return md


def inverse_metric(md: MetricData) -> Mat3:
    """Closed-form inverse: adjugate over determinant.

    For TYPE1 the adjugate is
        [[1-e^2, ce-b, be-c], [ce-b, a-c^2, bc-ae], [be-c, bc-ae, a-b^2]]
    and for TYPE2
        [[1-e^2, ce+b, be+c], [ce+b, -a-c^2, bc-ae], [be+c, bc-ae, -a-b^2]];
    the unconstrained case uses the general symmetric adjugate.
    An overflowed determinant raises NonFiniteValue, a vanishing one
    SingularMetric.
    """
    a11, a12, a13, a22, a23, a33 = _regular(md).adj
    d = md.detg
    return ((a11 / d, a12 / d, a13 / d),
            (a12 / d, a22 / d, a23 / d),
            (a13 / d, a23 / d, a33 / d))


def _matmul(p: Mat3, q: Mat3) -> Mat3:
    """Row-by-column product of two 3x3 matrices."""
    (a, b, c), (d, e, f), (g, h, i) = q
    (p0, p1, p2), (p3, p4, p5), (p6, p7, p8) = p
    return ((p0 * a + p1 * d + p2 * g, p0 * b + p1 * e + p2 * h,
             p0 * c + p1 * f + p2 * i),
            (p3 * a + p4 * d + p5 * g, p3 * b + p4 * e + p5 * h,
             p3 * c + p4 * f + p5 * i),
            (p6 * a + p7 * d + p8 * g, p6 * b + p7 * e + p8 * h,
             p6 * c + p7 * f + p8 * i))


# ---------------------------------------------------------------------------
# Second fundamental form

def second_form_raw(fr: Frame, n_raw: Vec4) -> tuple[float, float, float]:
    """Unnormalized second-form row: products with the raw normal."""
    return (lorentz_dot(fr.phi_xx, n_raw),
            lorentz_dot(fr.phi_xy, n_raw),
            lorentz_dot(fr.phi_xz, n_raw))


def second_form(h: RuledHypersurface, x: float, y: float, z: float,
                fr: Optional[Frame] = None,
                gm: Optional[GaussMapData] = None) -> Mat3:
    """Second fundamental form; only the first row/column can be nonzero."""
    if fr is None:
        fr = frame(h, x, y, z)
    if gm is None:
        gm = gauss_map(h, x, y, z, fr)
    h11, h12, h13 = second_form_raw(fr, gm.unit)
    return ((h11, h12, h13), (h12, 0.0, 0.0), (h13, 0.0, 0.0))


def _minimality(md: MetricData, fr: Frame, n_raw: Vec4) -> tuple[float, Optional[float]]:
    a11, a12, a13 = md.adj[:3]
    rn11, rn12, rn13 = second_form_raw(fr, n_raw)
    residual = a11 * rn11 + 2.0 * a12 * rn12 + 2.0 * a13 * rn13
    corollary = None
    if abs(md.e) <= ORTHOGONAL_TOL and md.kind in _RULING_DIAGONAL:
        tau = -_RULING_DIAGONAL[md.kind]
        corollary = rn11 + 2.0 * tau * md.b * rn12 + 2.0 * tau * md.c * rn13
    return residual, corollary


def minimality_residual(h: RuledHypersurface, x: float, y: float, z: float) -> float:
    """Zero-set of this residual is exactly the zero-set of mean curvature.

    The value is trace(adjugate(g) . second_form) scaled by the raw-normal
    magnitude: residual = 3 * H * detg * |n|.  It avoids both the metric
    inverse and the normalization, so it is finite even close to degeneracy.
    """
    fr = frame(h, x, y, z)
    n = cross4(fr.phi_x, fr.phi_y, fr.phi_z)
    return _minimality(first_form(h, x, y, z, fr), fr, n)[0]


# ---------------------------------------------------------------------------
# Laplace-Beltrami

def _metric_gradients(kind: SurfaceKind, fr: Frame):
    """Exact (x, y, z) gradients of a, b, c, e, m22 and m33 at a frame."""
    d = lorentz_dot
    da = (2.0 * d(fr.phi_x, fr.phi_xx), 2.0 * d(fr.phi_x, fr.phi_xy),
          2.0 * d(fr.phi_x, fr.phi_xz))
    db = (d(fr.phi_xy, fr.phi_x) + d(fr.phi_y, fr.phi_xx),
          d(fr.phi_y, fr.phi_xy), d(fr.phi_y, fr.phi_xz))
    dc = (d(fr.phi_xz, fr.phi_x) + d(fr.phi_z, fr.phi_xx),
          d(fr.phi_z, fr.phi_xy), d(fr.phi_z, fr.phi_xz))
    de = (d(fr.phi_xy, fr.phi_z) + d(fr.phi_y, fr.phi_xz), 0.0, 0.0)
    if kind in _RULING_DIAGONAL:
        dm22 = dm33 = (0.0, 0.0, 0.0)
    else:
        dm22 = (2.0 * d(fr.phi_y, fr.phi_xy), 0.0, 0.0)
        dm33 = (2.0 * d(fr.phi_z, fr.phi_xz), 0.0, 0.0)
    return da, db, dc, de, dm22, dm33


def laplace_beltrami(h: RuledHypersurface, x: float, y: float, z: float) -> Vec4:
    """Divergence-form Laplacian of the position map, component-wise.

    Raises SingularMetric (or NonFiniteValue) where the metric has no
    inverse; see _laplace_beltrami for the formula.
    """
    fr = frame(h, x, y, z)
    md = _regular(first_form(h, x, y, z, fr))
    return _laplace_beltrami(md, _metric_gradients(h.kind, fr), fr)


def _laplace_beltrami(md: MetricData, grads, fr: Frame) -> Vec4:
    """The Laplacian from a regular metric, its gradients and the frame.

    Evaluates (1/w) * sum_i d_i ( w * ginv_ij * T_j ) with w the square
    root of |detg| and T the tangent triple (phi_x, phi_y, phi_z).  Since
    ginv = adj/detg and detg = sign * w^2, the flux is sign * adj_ij T_j / w;
    the sign rides along as a constant because detg cannot cross zero once
    the caller has checked md (inverse_metric or _regular).  The result is
    sign/w times six coefficients on _derivs(fr): T_j gets sum_i (d_i adj_ij
    / w - adj_ij d_i w / w^2); phi is affine in (y, z), so phi_xx, phi_xy,
    phi_xz get adj_11/w, 2 adj_12/w, 2 adj_13/w.  Only d_i of adjugate row i
    enters, and d_i detg is Jacobi's sum_jk adj_jk d_i g_jk.
    """
    b, c, e, m22, m33 = md.b, md.c, md.e, md.m22, md.m33
    da, db, dc, de, dm22, dm33 = grads
    a11, a12, a13, a22, a23, a33 = md.adj
    adj = ((a11, a12, a13), (a12, a22, a23), (a13, a23, a33))
    d_rows = ((dm22[0] * m33 + m22 * dm33[0] - 2.0 * e * de[0],
               dc[0] * e + c * de[0] - db[0] * m33 - b * dm33[0],
               db[0] * e + b * de[0] - dc[0] * m22 - c * dm22[0]),
              # e, m22 and m33 depend on x alone
              (dc[1] * e - db[1] * m33, da[1] * m33 - 2.0 * c * dc[1],
               db[1] * c + b * dc[1] - da[1] * e),
              (db[2] * e - dc[2] * m22, db[2] * c + b * dc[2] - da[2] * e,
               da[2] * m22 - 2.0 * b * db[2]))
    sign = 1.0 if md.detg > 0.0 else -1.0
    w = math.sqrt(sign * md.detg)
    s = sign / w
    dw = [sign * (a11 * da[i] + a22 * dm22[i] + a33 * dm33[i]
                  + 2.0 * (a12 * db[i] + a13 * dc[i] + a23 * de[i])) / (2.0 * w)
          for i in range(3)]
    t = []
    for j in range(3):
        # a left fold from 0.0: sum() rounds differently from Python 3.12 on
        acc = 0.0
        for i in range(3):
            acc += d_rows[i][j] / w - adj[i][j] * dw[i] / (w * w)
        t.append(s * acc)
    return _lincomb((*t, s * a11 / w, s * 2.0 * a12 / w, s * 2.0 * a13 / w),
                    _derivs(fr), 0.0)


def lb_closed_orthogonal(h: RuledHypersurface, x: float, y: float, z: float) -> Vec4:
    """Orthogonal-director closed form of the Laplacian (constrained kinds).

    Valid when <beta, gamma> vanishes identically.  With Q = a -+ (b^2+c^2)
    (minus for TYPE1, plus for TYPE2) and P_k the partials of Q, the result
    is (1/Q^2) * sum_k [ (d_k N_k) Q - (1/2) P_k N_k ]; the signature signs
    cancel out of the prefactor.  The one-half weight on the P terms is
    forced by the quotient rule; a variant with full weight disagrees with
    the general divergence path (see crosscheck.lb_closed_full_p).
    """
    return _lb_closed_at(h, x, y, z, 0.5)


def _lb_closed_at(h: RuledHypersurface, x: float, y: float, z: float,
                  p_weight: float) -> Vec4:
    """The closed form at one point, computed from scratch."""
    fr = frame(h, x, y, z)
    md = first_form(h, x, y, z, fr)
    return _lb_closed(md, _metric_gradients(h.kind, fr), fr, p_weight)


def _lb_closed(md: MetricData, grads, fr: Frame, p_weight: float) -> Vec4:
    """lb_closed_orthogonal's form with weight `p_weight` on the P_k terms.

    (Q sum_k d_k N_k - p_weight sum_k P_k N_k) / Q^2 as coefficients on
    _derivs(fr), with N_1 = phi_x + tau (b beta + c gamma), N_2 = tau b phi_x
    + (sigma a - c^2) beta + b c gamma, N_3 = tau c phi_x + b c beta + (sigma
    a - b^2) gamma.  The quotient rule forces p_weight = 1/2.
    """
    if md.kind not in _RULING_DIAGONAL:
        raise ValueError("closed form requires a constrained kind")
    a, b, c = md.a, md.b, md.c
    da, db, dc = grads[:3]
    sigma = _RULING_DIAGONAL[md.kind]
    tau = -sigma
    q_val = a - sigma * (b * b + c * c)
    if abs(q_val) <= SINGULAR_METRIC_TOL:
        raise SingularMetric(f"orthogonal-form determinant {q_val!r}")
    p = [da[k] - sigma * (2.0 * b * db[k] + 2.0 * c * dc[k]) for k in range(3)]
    div_n = (tau * (db[1] + dc[2]),
             tau * db[0] + sigma * da[1] - 2.0 * c * dc[1] + db[2] * c + b * dc[2],
             tau * dc[0] + db[1] * c + b * dc[1] + sigma * da[2] - 2.0 * b * db[2],
             1.0, 2.0 * tau * b, 2.0 * tau * c)
    pn = (p[0] + tau * (b * p[1] + c * p[2]),
          tau * b * p[0] + (sigma * a - c * c) * p[1] + b * c * p[2],
          tau * c * p[0] + b * c * p[1] + (sigma * a - b * b) * p[2], 0.0, 0.0, 0.0)
    scale = 1.0 / (q_val * q_val)
    return _lincomb([(q_val * d - p_weight * m) * scale
                     for d, m in zip(div_n, pn)], _derivs(fr), 0.0)


# ---------------------------------------------------------------------------
# Curvature report

class CurvatureReport(NamedTuple):
    point: tuple[float, float, float]
    position: Vec4
    metric: MetricData
    normal: GaussMapData
    shape_operator: Mat3
    second: Mat3
    gauss_curvature: float
    mean_curvature: float
    minimality: float
    minimality_orthogonal: Optional[float]
    laplacian: Vec4
    laplacian_closed: Optional[Vec4]
    flags: tuple[str, ...]


def curvature_report(h: RuledHypersurface, x: float, y: float, z: float) -> CurvatureReport:
    """Full pointwise pipeline: frame, normal, forms, curvatures, Laplacian.

    Raises DegenerateNormal or SingularMetric where no report exists; grid
    samplers catch those and mark the vertex instead.
    """
    return _report_at(h, x, y, z, frame(h, x, y, z))


def _report_at(h: RuledHypersurface, x: float, y: float, z: float,
               fr: Frame) -> CurvatureReport:
    return _vertex_at(h, x, y, z, fr)[0]


def _vertex_at(h: RuledHypersurface, x: float, y: float, z: float,
               fr: Frame) -> tuple[CurvatureReport, tuple]:
    """(the CurvatureReport at fr, the metric gradients it was built from)."""
    gm = gauss_map(h, x, y, z, fr)
    md = first_form(h, x, y, z, fr)
    hmat = second_form(h, x, y, z, fr, gm)
    shape = _matmul(inverse_metric(md), hmat)
    # The ruling block of hmat is literal zeros, so det h is exactly +-0.0,
    # not rounding noise.  0.0 is added after the division, since a negative
    # det g turns +0.0 into -0.0; K then reads 0.0, never -0.0.
    gauss = _det3(*hmat[0], *hmat[1], *hmat[2]) / md.detg + 0.0
    mean = (shape[0][0] + shape[1][1] + shape[2][2]) / 3.0
    residual, corollary = _minimality(md, fr, gm.n_raw)
    grads = _metric_gradients(h.kind, fr)
    lb = _laplace_beltrami(md, grads, fr)
    lb_closed = None
    if h.kind in _RULING_DIAGONAL and abs(md.e) <= ORTHOGONAL_TOL:
        lb_closed = _lb_closed(md, grads, fr, 0.5)
    return CurvatureReport(
        point=(float(x), float(y), float(z)),
        position=fr.position,
        metric=md,
        normal=gm,
        shape_operator=shape,
        second=hmat,
        gauss_curvature=gauss,
        mean_curvature=mean,
        minimality=residual,
        minimality_orthogonal=corollary,
        laplacian=lb,
        laplacian_closed=lb_closed,
        flags=h.warnings,
    ), grads
