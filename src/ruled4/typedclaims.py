"""The typed scenes' closed form and the claims only they are graded on.

A typed scene (type1, type2) has directors constrained to a model space;
for orthogonal ones the Laplacian has a closed form, and this module alone
decides where it applies and exists.  check loads it for typed scenes, the
scalar API (ruled4.pointwise) for lb_closed_orthogonal and curvature_report.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import NonFiniteValue, SingularMetric
from .hypersurface import ORTHOGONAL_TOL, SINGULAR_METRIC_TOL, SurfaceKind

__all__ = ["closed", "orthogonal"]


def closed(s, y: float, z: float, a: float, b: float, c: float,
           grads: tuple, p_weights: tuple[float, ...]) -> list[list[float]]:
    """The orthogonal closed form on the kernel slice s (a kernel._Slice of
    a constrained kind) at (y, z), as four finite floats per weight w in
    `p_weights` on the P_k terms, from one Q, P, div N and P . N; a
    vanishing Q raises SingularMetric, a non-finite float NonFiniteValue.

    (Q sum_k d_k N_k - w sum_k P_k N_k) / Q^2 with Q = a - sigma
    (b^2 + c^2), P_k = d_k Q, tau = -sigma, N_1 = phi_x + tau (b beta +
    c gamma), N_2 = tau b phi_x + (sigma a - c^2) beta + b c gamma and
    N_3 = tau c phi_x + b c beta + (sigma a - b^2) gamma.  The quotient
    rule forces p_weight = 1/2.
    """
    sigma = s.sigma
    tau = -sigma
    (da0, da1, da2), (db0, db1, db2), (dc0, dc1, dc2) = grads[:3]
    q = a - sigma * (b * b + c * c)
    if abs(q) <= SINGULAR_METRIC_TOL:
        raise SingularMetric(f"orthogonal-form determinant {q!r}")
    p0 = da0 - sigma * (2.0 * b * db0 + 2.0 * c * dc0)
    p1 = da1 - sigma * (2.0 * b * db1 + 2.0 * c * dc1)
    p2 = da2 - sigma * (2.0 * b * db2 + 2.0 * c * dc2)
    # Q sum_k d_k N_k (n) and sum_k P_k N_k (m) on phi_x, phi_y and phi_z
    n0 = q * (tau * (db1 + dc2))
    n1 = q * (tau * db0 + sigma * da1 - 2.0 * c * dc1 + db2 * c + b * dc2)
    n2 = q * (tau * dc0 + db1 * c + b * dc1 + sigma * da2 - 2.0 * b * db2)
    m0 = p0 + tau * (b * p1 + c * p2)
    m1 = tau * b * p0 + (sigma * a - c * c) * p1 + b * c * p2
    m2 = tau * c * p0 + b * c * p1 + (sigma * a - b * b) * p2
    scale = 1.0 / (q * q)
    k0, k1, k2 = (q * scale, q * (2.0 * tau * b) * scale,
                  q * (2.0 * tau * c) * scale)
    out = [s._span(y, z, (n0 - w * m0) * scale, (n1 - w * m1) * scale,
                   (n2 - w * m2) * scale, k0, k1, k2)
           for w in p_weights]
    if not all(math.isfinite(v) for row in out for v in row):
        raise NonFiniteValue("closed-form Laplacian is not finite")
    return out


def orthogonal(s, pt, p_weights: tuple[float, ...]) -> tuple:
    """(minimality_orthogonal, closed's floats per weight in p_weights) at
    the kernel's unflagged record pt on the slice s of a constrained kind;
    both None where the directors are not orthogonal, the closed form None
    too where it does not exist."""
    if abs(pt.e) > ORTHOGONAL_TOL:
        return None, None
    _, y, z = pt.params
    r11, r12, r13 = pt.rn
    try:
        forms = closed(s, y, z, pt.a, pt.b, pt.c, pt.grads, p_weights)
    except (SingularMetric, NonFiniteValue):
        forms = None
    return r11 - 2.0 * s.sigma * pt.b * r12 - 2.0 * s.sigma * pt.c * r13, forms


def _lb_closed_gaps(s) -> Optional[tuple[float, float, int]]:
    """(half-, full-weight gap to the walk's Laplacian, graded vertices with
    no closed form), or None unless some are graded and all orthogonal."""
    gap = [0.0, 0.0]
    missing = 0
    for _, sl, points in s.slices:
        for pt in [pt for pt in points if not pt.flags]:
            corollary, forms = orthogonal(sl, pt, (0.5, 1.0))
            if corollary is None:
                return None
            if forms is None:
                missing += 1
                continue
            lap = pt.laplacian.components()
            for k, form in enumerate(forms):
                gap[k] = max(gap[k], *[abs(u - v) for u, v in zip(form, lap)])
    return (*gap, missing) if s.graded else None


def claims(s) -> list:
    """lb_closed_form and lb_closed_form_weights where the directors are
    orthogonal, then director_membership, for a typed check session."""
    # here, so that the scalar API loads the closed form without the claims
    from .check import LB_CLOSED_TOL, ClaimResult, _fmt, _over
    out = []
    gaps = _lb_closed_gaps(s)
    if gaps is not None:
        worst_half, worst_full, missing = gaps
        points = len(s.graded) - missing
        out.append(ClaimResult(
            "lb_closed_form",
            "for orthogonal directors the Laplacian reduces to the "
            "half-weighted closed form",
            f"max gap: half-weighted {_fmt(worst_half)}, full-weighted "
            f"{_fmt(worst_full)}",
            _over(points, "fail" if worst_half > LB_CLOSED_TOL else "pass"),
            {"half_weight_gap": worst_half, "full_weight_gap": worst_full,
             "points_without_closed_form": missing}))
        printed_matches = worst_full <= LB_CLOSED_TOL
        out.append(ClaimResult(
            "lb_closed_form_weights",
            "the closed form carries full (unhalved) first-derivative weights",
            f"full-weight gap {_fmt(worst_full)} vs half-weight gap "
            f"{_fmt(worst_half)}: the half-weighted form "
            + ("is indistinguishable here" if printed_matches
               else "matches the divergence path, the full-weighted form "
                    "does not"),
            _over(points, "pass" if printed_matches else "discrepancy"),
            {"full_weight_gap": worst_full, "half_weight_gap": worst_half,
             "points_without_closed_form": missing}))
    space = "de Sitter sphere" if s.surface.kind is SurfaceKind.TYPE1 \
        else "upper hyperbolic sheet"
    reports = s.surface.director_reports
    out.append(ClaimResult(
        "director_membership",
        f"both director curves lie on the {space}",
        ("max quadratic-form violation "
         f"{_fmt(max(r.max_violation for r in reports))}; sign conditions "
         + ("hold" if all(r.sign_ok for r in reports) else "violated"))
        if reports else "no director sample could be evaluated",
        _over(len(reports), "pass" if all(r.passed for r in reports)
              else "discrepancy"),
        {"directors": [r._asdict() for r in reports]}))
    return out
