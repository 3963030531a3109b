"""The slice kernel: every vertex quantity from per-x coefficients in (y, z).

`_walk_slices`, the one serial grid walker behind check, mesh and report,
runs it over a scene's grid; the scalar API (ruled4.pointwise) makes
one-point calls into it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import (DegenerateNormal, DomainError, NonFiniteValue,
                     SingularMetric)
from .hypersurface import (_DIRECTOR_SPACE, DEGENERATE_NORMAL_TOL,
                           SINGULAR_METRIC_TOL, Mat3, RuledHypersurface,
                           SurfaceKind, _axis)
from .lorentz import (_MODEL_SPACES, CausalCharacter, Vec4, _det3, cross4,
                      lorentz_dot)

# (m22, m33) of a constrained kind: its directors' <p, p>, not their own norms
_RULING_DIAGONAL = {kind: _MODEL_SPACES[space][0]
                    for kind, space in _DIRECTOR_SPACE.items()}


class GridPoint(namedtuple(
        "GridPoint", "params position flags n_raw unit magnitude character"
        " a b c e m22 m33 detg adj gauss_k mean_h rn minimality grads"
        " laplacian",
        defaults=(None,) * 19)):
    """One vertex as the slice kernel leaves it, in one flat record: n_raw
    to character are GaussMapData's fields, a to adj MetricData's but for
    detg_closed (crosscheck._detg_closed gives it), rn and grads are _Slice's.
    flags is () on a graded vertex; a flagged one has (the failure's name,),
    its position where that exists, and None elsewhere."""

    __slots__ = ()


def _regular(detg: float) -> float:
    """detg, if it is finite and away from zero."""
    if not math.isfinite(detg):
        raise NonFiniteValue(f"metric determinant {detg!r}")
    if abs(detg) <= SINGULAR_METRIC_TOL:
        raise SingularMetric(f"metric determinant {detg!r}")
    return detg


def _second(rn: tuple, magnitude: float) -> Mat3:
    """The second form from its raw first row; the ruling block is zero."""
    s = 1.0 / magnitude
    h11, h12, h13 = rn[0] * s, rn[1] * s, rn[2] * s
    return ((h11, h12, h13), (h12, 0.0, 0.0), (h13, 0.0, 0.0))


def _residual(adj: tuple, rn: tuple) -> float:
    """trace(adj(g) . raw second form) = 3 H detg |n|."""
    return adj[0] * rn[0] + 2.0 * adj[1] * rn[1] + 2.0 * adj[2] * rn[2]


def _jets(h: RuledHypersurface, x: float):
    """alpha, beta and gamma's jets at x; a director that is also a factor
    of alpha (octo.PairCrossCurve.evaluate_sharing) is evaluated once."""
    share = getattr(h.alpha, "evaluate_sharing", None)
    if share is None:
        return h.alpha.evaluate(x), h.beta.evaluate(x), h.gamma.evaluate(x)
    known: dict = {}
    alpha = share(x, known)
    return (alpha, *[known.get(id(c)) or c.evaluate(x)
                     for c in (h.beta, h.gamma)])


class _Slice:
    """The slice kernel: one x slice's coefficient tables in (y, z).

    With jets (A0, A1, A2), (B0, B1, B2), (G0, G1, G2) of alpha, beta and
    gamma at x, phi_x = A1 + y B1 + z G1, phi_xx = A2 + y B2 + z G2, and
    phi_y = B0, phi_z = G0, phi_xy = B1, phi_xz = G1 depend on x alone.  So
    the normal cross4(phi_x, B0, G0) = N0 + y N1 + z N2, the raw second-form
    row rn = <(phi_xx, phi_xy, phi_xz), n_raw>, the metric entries and
    their gradients are polynomials of degree at most 2 in (y, z).  The
    constructor computes their coefficients once (a quadratic's on 1, y, z,
    y^2, y z, z^2), with three cross4 products; a vertex then costs a few
    polynomial evaluations, the 3x3 adjugate, the Laplacian's six
    coefficients and four Vec4s.  The orthogonal closed form, which only
    typed claims and the scalar API read, is ruled4.typedclaims.closed.
    """

    __slots__ = ("x", "jets", "sigma", "_pos", "_nrm", "_forms", "_rn",
                 "_basis")

    def __init__(self, kind: SurfaceKind, x: float, jets):
        (a0, a1, a2), (b0, b1, b2), (g0, g1, g2) = self.jets = jets
        d = lorentz_dot
        self.x = x
        self.sigma = sigma = _RULING_DIAGONAL.get(kind)
        phi_x, phi_xx = (a1, b1, g1), (a2, b2, g2)
        by, bz, cy, cz = d(b0, b1), d(b0, g1), d(g0, b1), d(g0, g1)
        diagonal = ((d(b0, b0), d(g0, g0), 2.0 * by, 2.0 * cz)
                    if sigma is None else (sigma, sigma, 0.0, 0.0))
        # a, a_x; b, c, b_x, c_x; e, m22, m33, e_x, m22_x, m33_x
        self._forms = (
            *_products(phi_x, phi_x),
            *[2.0 * k for k in _products(phi_x, phi_xx)],
            d(b0, a1), by, bz, d(g0, a1), cy, cz,
            d(b1, a1) + d(b0, a2), d(b1, b1) + d(b0, b2), d(b1, g1) + d(b0, g2),
            d(g1, a1) + d(g0, a2), d(g1, b1) + d(g0, b2), d(g1, g1) + d(g0, g2),
            d(b0, g0), diagonal[0], diagonal[1], cy + bz, *diagonal[2:])
        self._pos = (*a0.components(), *b0.components(), *g0.components())
        self._basis = list(zip(*(v.components() for v in (
            a1, b1, g1, b0, g0, a2, b2, g2))))
        try:
            n = [cross4(v, b0, g0) for v in phi_x]
        except NonFiniteValue:
            # normal() and second_raw() raise; the rest of the slice stands
            self._nrm = self._rn = None
            return
        self._nrm = (*n[0].components(), *n[1].components(),
                     *n[2].components())
        self._rn = (*_products(phi_xx, n),
                    *[d(v, w) for v in (b1, g1) for w in n])

    def position(self, y: float, z: float) -> Vec4:
        p0, p1, p2, p3, q0, q1, q2, q3, r0, r1, r2, r3 = self._pos
        return Vec4(p0 + y * q0 + z * r0, p1 + y * q1 + z * r1,
                    p2 + y * q2 + z * r2, p3 + y * q3 + z * r3)

    def normal(self, y: float, z: float):
        """GaussMapData's fields; |n| is sqrt(|<n, n>|) of the assembled
        normal, and a lightlike (or vanishing) one raises DegenerateNormal."""
        if self._nrm is None:
            raise NonFiniteValue(f"ruling normal overflows at x={self.x}")
        p0, p1, p2, p3, q0, q1, q2, q3, r0, r1, r2, r3 = self._nrm
        n0, n1 = p0 + y * q0 + z * r0, p1 + y * q1 + z * r1
        n2, n3 = p2 + y * q2 + z * r2, p3 + y * q3 + z * r3
        n_raw = Vec4(n0, n1, n2, n3)
        q = -n0 * n0 + n1 * n1 + n2 * n2 + n3 * n3
        mag = math.sqrt(abs(q))
        if mag <= DEGENERATE_NORMAL_TOL:
            raise DegenerateNormal(f"ruling normal magnitude {mag!r} at "
                                   f"(x,y,z)=({self.x},{y},{z})")
        s = 1.0 / mag
        # mag > DEGENERATE_NORMAL_TOL rules out ZERO and LIGHTLIKE
        return (n_raw, Vec4(n0 * s, n1 * s, n2 * s, n3 * s), mag,
                CausalCharacter.SPACELIKE if q > 0.0
                else CausalCharacter.TIMELIKE)

    def forms(self, y: float, z: float) -> tuple[tuple, tuple]:
        """((a, b, c, e, m22, m33, detg, adj), the metric gradients (da, db,
        dc, e_x, m22_x, m33_x)): e, m22 and m33 depend on x alone."""
        (k0, k1, k2, k3, k4, k5, x0, x1, x2, x3, x4, x5, b0, by, bz, c0, cy,
         cz, bx, bxy, bxz, cx, cxy, cxz, e, m22, m33, ex, m22x, m33x
         ) = self._forms
        a = k0 + y * (k1 + y * k3 + z * k4) + z * (k2 + z * k5)
        b = b0 + y * by + z * bz
        c = c0 + y * cy + z * cz
        adj = (m22 * m33 - e * e, c * e - b * m33, b * e - c * m22,
               a * m33 - c * c, b * c - a * e, a * m22 - b * b)
        return ((a, b, c, e, m22, m33, a * adj[0] + b * adj[1] + c * adj[2],
                 adj),
                ((x0 + y * (x1 + y * x3 + z * x4) + z * (x2 + z * x5),
                  k1 + 2.0 * k3 * y + k4 * z, k2 + k4 * y + 2.0 * k5 * z),
                 (bx + y * bxy + z * bxz, by, bz),
                 (cx + y * cxy + z * cxz, cy, cz), ex, m22x, m33x))

    def second_raw(self, y: float, z: float) -> tuple[float, float, float]:
        """<phi_xx, n_raw>, <phi_xy, n_raw>, <phi_xz, n_raw>."""
        if self._rn is None:
            raise NonFiniteValue(f"ruling normal overflows at x={self.x}")
        k0, k1, k2, k3, k4, k5, p0, py, pz, q0, qy, qz = self._rn
        return (k0 + y * (k1 + y * k3 + z * k4) + z * (k2 + z * k5),
                p0 + y * py + z * pz, q0 + y * qy + z * qz)

    def laplacian(self, y: float, z: float, m: tuple, grads: tuple) -> Vec4:
        """The Laplacian of phi from a regular metric m and its gradients.

        The divergence form (1/w) sum_i d_i (w g^ij T_j), with w = sqrt|det g|,
        T = (phi_x, phi_y, phi_z) and g^ij = adj_ij / det g.  Since d_i w / w
        = d_i det g / (2 det g), T_j gets sum_i (d_i adj_ij / det g - adj_ij
        d_i det g / (2 det g^2)), where d_i det g is Jacobi's sum_jk adj_jk
        d_i g_jk; phi is affine in (y, z), so phi_xx, phi_xy and phi_xz get
        adj_11, 2 adj_12 and 2 adj_13 over det g.
        """
        _, b, c, e, m22, m33, detg, (a11, a12, a13, a22, a23, a33) = m
        (da0, da1, da2), (db0, db1, db2), (dc0, dc1, dc2), de, dp, dq = grads
        inv = 1.0 / detg
        # d_i det g / (2 det g^2); e, m22 and m33 depend on x alone
        k = 0.5 * inv * inv
        j0 = k * (a11 * da0 + a22 * dp + a33 * dq
                  + 2.0 * (a12 * db0 + a13 * dc0 + a23 * de))
        j1 = k * (a11 * da1 + 2.0 * (a12 * db1 + a13 * dc1))
        j2 = k * (a11 * da2 + 2.0 * (a12 * db2 + a13 * dc2))
        return Vec4(*self._span(
            y, z,
            inv * (dp * m33 + m22 * dq - 2.0 * e * de + dc1 * e - db1 * m33
                   + db2 * e - dc2 * m22) - (a11 * j0 + a12 * j1 + a13 * j2),
            inv * (dc0 * e + c * de - db0 * m33 - b * dq + da1 * m33
                   - 2.0 * c * dc1 + db2 * c + b * dc2 - da2 * e)
            - (a12 * j0 + a22 * j1 + a23 * j2),
            inv * (db0 * e + b * de - dc0 * m22 - c * dp + db1 * c + b * dc1
                   - da1 * e + da2 * m22 - 2.0 * b * db2)
            - (a13 * j0 + a23 * j1 + a33 * j2),
            inv * a11, inv * 2.0 * a12, inv * 2.0 * a13))

    def _span(self, y: float, z: float, t0: float, t1: float, t2: float,
              k0: float, k1: float, k2: float) -> list[float]:
        """The components of t0 phi_x + t1 phi_y + t2 phi_z + k0 phi_xx + k1
        phi_xy + k2 phi_xz, each summed from 0.0, so that a component that
        would read -0.0 reads 0.0 (0.0 + v == v for v != 0)."""
        u1, u2, u6, u7 = t0 * y + k1, t0 * z + k2, k0 * y, k0 * z
        return [0.0 + t0 * p + u1 * q + u2 * r + t1 * f + t2 * g
                + k0 * h + u6 * i + u7 * j
                for p, q, r, f, g, h, i, j in self._basis]

    def vertex(self, y: float, z: float) -> GridPoint:
        """The record at (y, z); NonFiniteValue, DegenerateNormal or
        SingularMetric where there is none."""
        position = self.position(y, z)
        n_raw, unit, mag, character = self.normal(y, z)
        m, grads = self.forms(y, z)
        *_, detg, adj = m
        _regular(detg)
        rn = self.second_raw(y, z)
        (h11, h12, h13), _, _ = _second(rn, mag)
        i00, i01, i02 = adj[0] / detg, adj[1] / detg, adj[2] / detg
        # det h is exactly +-0.0 (a block of literal zeros); 0.0 is added
        # after the division by det g, so that K reads 0.0, never -0.0.
        gauss = _det3(h11, h12, h13, h12, 0.0, 0.0, h13, 0.0, 0.0) / detg + 0.0
        # the trace of ginv . h, whose rows 2 and 3 hold h12 and h13 alone
        mean = (i00 * h11 + i01 * h12 + i02 * h13 + i01 * h12 + i02 * h13) / 3.0
        return GridPoint((self.x, y, z), position, (), n_raw, unit, mag,
                         character, *m, gauss, mean, rn, _residual(adj, rn),
                         grads, self.laplacian(y, z, m, grads))


def _products(u, v) -> tuple[float, ...]:
    """<u0 + y u1 + z u2, v0 + y v1 + z v2> as coefficients on (1, y, z,
    y^2, y z, z^2)."""
    (u0, u1, u2), (v0, v1, v2) = u, v
    d = lorentz_dot
    return (d(u0, v0), d(u0, v1) + d(u1, v0), d(u0, v2) + d(u2, v0),
            d(u1, v1), d(u1, v2) + d(u2, v1), d(u2, v2))


def _axes(cfg):
    nx, ny, nz = cfg.resolution
    return (_axis(cfg.x_interval[0], cfg.x_interval[1], nx),
            _axis(cfg.y_interval[0], cfg.y_interval[1], ny),
            _axis(cfg.z_interval[0], cfg.z_interval[1], nz))


def _grid_point(s: _Slice, y: float, z: float) -> GridPoint:
    """The kernel's record at (y, z), or one flagged with its failure that
    keeps the vertex's position where that exists."""
    try:
        return s.vertex(y, z)
    except (DegenerateNormal, SingularMetric, DomainError) as exc:
        flags = (type(exc).__name__,)
    try:
        position = s.position(y, z)
    except DomainError:
        position = None
    return GridPoint((s.x, y, z), position, flags)


def _walk_slices(h: RuledHypersurface, cfg):
    """(x, its _Slice or None, its GridPoints) per x sample of cfg's grid.

    alpha, beta and gamma are evaluated once per x sample; a failure there
    flags the whole slice and leaves its _Slice None.
    """
    xs, ys, zs = _axes(cfg)
    for x in xs:
        try:
            s = _Slice(h.kind, x, _jets(h, x))
        except DomainError as exc:
            flags = (type(exc).__name__,)
            yield x, None, [GridPoint((x, y, z), None, flags)
                            for y in ys for z in zs]
            continue
        yield x, s, [_grid_point(s, y, z) for y in ys for z in zs]
