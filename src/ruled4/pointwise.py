"""The scalar API: one-point calls into the slice kernel, and its records.

Each function evaluates alpha, beta and gamma at x, builds that slice's
kernel (ruled4.kernel) and evaluates it at (y, z), so it returns, bit for
bit, what the grid walk's record holds for the same vertex.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .crosscheck import _detg_closed
from .hypersurface import Mat3, RuledHypersurface, SurfaceKind
from .kernel import _jets, _regular, _residual, _second, _Slice
from .lorentz import CausalCharacter, Vec4

__all__ = [
    "Frame", "frame", "eval_point", "GaussMapData", "gauss_map",
    "MetricData", "first_form", "inverse_metric", "second_form",
    "minimality_residual", "laplace_beltrami", "lb_closed_orthogonal",
    "CurvatureReport", "curvature_report",
]


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


class GaussMapData(NamedTuple):
    n_raw: Vec4
    unit: Vec4
    magnitude: float
    character: CausalCharacter


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


class CurvatureReport(NamedTuple):
    position: Vec4
    metric: MetricData
    normal: GaussMapData
    second: Mat3
    gauss_curvature: float
    mean_curvature: float
    minimality: float
    minimality_orthogonal: Optional[float]
    laplacian: Vec4
    laplacian_closed: Optional[Vec4]
    flags: tuple[str, ...]


def _at(h: RuledHypersurface, x: float, y: float, z: float,
        fr: Optional[Frame] = None) -> tuple:
    """(the kernel's slice, y, z) for one point.  A frame there stands for
    jets shifted to the point, evaluated at (0, 0), where the directors'
    accelerations, which a frame lacks, drop out."""
    if fr is None:
        return _Slice(h.kind, x, _jets(h, x)), float(y), float(z)
    zero = Vec4.zero()
    return _Slice(h.kind, x, ((fr.position, fr.phi_x, fr.phi_xx),
                              (fr.phi_y, fr.phi_xy, zero),
                              (fr.phi_z, fr.phi_xz, zero))), 0.0, 0.0


def frame(h: RuledHypersurface, x: float, y: float, z: float) -> Frame:
    (a0, a1, a2), (b0, b1, b2), (g0, g1, g2) = _jets(h, x)
    y, z = float(y), float(z)
    return Frame(a0 + b0 * y + g0 * z, a1 + b1 * y + g1 * z, b0, g0,
                 a2 + b2 * y + g2 * z, b1, g1)


def eval_point(h: RuledHypersurface, x: float, y: float, z: float) -> Vec4:
    return frame(h, x, y, z).position


def gauss_map(h: RuledHypersurface, x: float, y: float, z: float,
              fr: Optional[Frame] = None) -> GaussMapData:
    """Unit normal from the ternary cross of the tangent frame.

    The magnitude is sqrt(|<n, n>|), so a lightlike (or vanishing) raw
    normal has no unit direction and raises DegenerateNormal.
    """
    s, y, z = _at(h, x, y, z, fr)
    return GaussMapData(*s.normal(y, z))


def first_form(h: RuledHypersurface, x: float, y: float, z: float,
               fr: Optional[Frame] = None) -> MetricData:
    s, y, z = _at(h, x, y, z, fr)
    return _metric(h.kind, s, s.forms(y, z)[0])


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
    a11, a12, a13, a22, a23, a33 = md.adj
    d = _regular(md.detg)
    return ((a11 / d, a12 / d, a13 / d),
            (a12 / d, a22 / d, a23 / d),
            (a13 / d, a23 / d, a33 / d))


def second_form(h: RuledHypersurface, x: float, y: float, z: float,
                fr: Optional[Frame] = None,
                gm: Optional[GaussMapData] = None) -> Mat3:
    """Second fundamental form; only the first row/column can be nonzero."""
    s, y, z = _at(h, x, y, z, fr)
    if gm is None:
        gm = GaussMapData(*s.normal(y, z))
    return _second(s.second_raw(y, z), gm.magnitude)


def minimality_residual(h: RuledHypersurface, x: float, y: float, z: float) -> float:
    """Zero-set of this residual is exactly the zero-set of mean curvature.

    The value is trace(adjugate(g) . second_form) scaled by the raw-normal
    magnitude: residual = 3 * H * detg * |n|.  It avoids both the metric
    inverse and the normalization, so it is finite even close to degeneracy.
    """
    s, y, z = _at(h, x, y, z)
    return _residual(s.forms(y, z)[0][-1], s.second_raw(y, z))


def laplace_beltrami(h: RuledHypersurface, x: float, y: float, z: float) -> Vec4:
    """Divergence-form Laplacian of the position map, component-wise.

    Raises SingularMetric (or NonFiniteValue) where the metric has no
    inverse; see _Slice.laplacian for the formula.
    """
    s, y, z = _at(h, x, y, z)
    m, grads = s.forms(y, z)
    _regular(m[6])
    return s.laplacian(y, z, m, grads)


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
    """typedclaims.closed at one point, weight `p_weight`, as a Vec4."""
    from .typedclaims import closed  # here, so that only its callers load it
    s, y, z = _at(h, x, y, z)
    if s.sigma is None:
        raise ValueError("closed form requires a constrained kind")
    m, grads = s.forms(y, z)
    return Vec4(*closed(s, y, z, *m[:3], grads, (p_weight,))[0])


def curvature_report(h: RuledHypersurface, x: float, y: float, z: float) -> CurvatureReport:
    """Full pointwise pipeline: normal, forms, curvatures, Laplacian.

    Raises DegenerateNormal or SingularMetric where no report exists; grid
    samplers catch those and mark the vertex instead.  The corollary and
    the closed form, which the grid record leaves out, are
    typedclaims.orthogonal's on a constrained kind, or None.
    """
    s, y, z = _at(h, x, y, z)
    pt = s.vertex(y, z)
    corollary = closed = None
    if s.sigma is not None:
        from .typedclaims import orthogonal  # here, as in _lb_closed_at
        corollary, forms = orthogonal(s, pt, (0.5,))
        closed = forms and Vec4(*forms[0])
    return CurvatureReport(
        pt.position, _metric(h.kind, s, pt[7:15]),
        GaussMapData(pt.n_raw, pt.unit, pt.magnitude, pt.character),
        _second(pt.rn, pt.magnitude), pt.gauss_k, pt.mean_h,
        pt.minimality, corollary, pt.laplacian, closed, h.warnings)


def _metric(kind: SurfaceKind, s: _Slice, m: tuple) -> MetricData:
    """The MetricData of m = (a, b, c, e, m22, m33, detg, adj), as the
    kernel slice s's forms give it and an unflagged GridPoint holds it."""
    a, b, c, e, m22, m33, detg, adj = m
    closed = None if s.sigma is None else _detg_closed(s.sigma, a, b, c, e)
    return MetricData(kind, a, b, c, e, m22, m33, detg, closed, adj)
