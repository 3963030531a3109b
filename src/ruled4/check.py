"""Claim checking: grade a scene's stated properties against computation.

Every check produces a ClaimResult with a verdict:

    pass          computation agrees with the claim (or records a plain fact)
    discrepancy   the published claim contradicts the computation; both
                  internal computation paths agree, so this is a finding
                  about the claim, not an implementation fault
    fail          two internal computation paths disagree with each other;
                  the implementation, not the claim, is suspect
    inconclusive  the claim is graded over grid points and none could be
                  evaluated (every vertex flagged), so there is no evidence
                  either way

The process exit code is 1 if any claim is `fail` or `inconclusive`, else
0: discrepancies are reported, never fatal.  The JSON wire format is
{"claims": [{name, paper_claim, computed, verdict, details}]}.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple, Optional

from .crosscheck import _det, _normal_expanded, lorentz_gram
from .hypersurface import _RULING_DIAGONAL, ORTHOGONAL_TOL, SurfaceKind
from .lorentz import Vec4, _require_axis, cross4, lorentz_dot
from .mesh import _dumps, _walk_slices, grid_mesh, mesh_document
from .scene import (_CURVE_KEYS, _REFERENCE_ROLES, SceneConfig,
                    build_hypersurface)

__all__ = ["ClaimResult", "CheckReport", "check_scene", "report_document",
           "FLAT_TOL", "ZERO_TOL", "INTERNAL_REL_TOL", "LINKAGE_REL_TOL",
           "LB_CLOSED_TOL", "EXPANDED_NORMAL_TOL", "REFERENCE_TOL"]

FLAT_TOL = 1e-9
ZERO_TOL = 1e-9
EXPANDED_NORMAL_TOL = 1e-12
INTERNAL_REL_TOL = 1e-10
LINKAGE_REL_TOL = 1e-8
LB_CLOSED_TOL = 1e-8
REFERENCE_TOL = 1e-9


class _ClaimFields(NamedTuple):
    name: str
    paper_claim: str
    computed: str
    verdict: str
    details: dict


class ClaimResult(_ClaimFields):
    __slots__ = ()

    def __new__(cls, name: str, paper_claim: str, computed: str,
                verdict: str, details: Optional[dict] = None):
        # a fresh dict per result: a NamedTuple default would be shared
        return super().__new__(cls, name, paper_claim, computed, verdict,
                               {} if details is None else details)

    def to_dict(self) -> dict:
        return self._asdict()


class CheckReport(NamedTuple):
    scene: str
    mode: str
    claims: tuple[ClaimResult, ...]
    warnings: tuple[str, ...]

    @property
    def exit_code(self) -> int:
        return 1 if any(c.verdict in ("fail", "inconclusive")
                        for c in self.claims) else 0

    def to_dict(self) -> dict:
        return {
            "scene": self.scene,
            "mode": self.mode,
            "warnings": list(self.warnings),
            "claims": [c.to_dict() for c in self.claims],
            "exit_code": self.exit_code,
        }

    def to_json(self) -> str:
        return _dumps(self.to_dict())


def _fmt(value: float) -> str:
    return f"{value:.6e}"


def _gap(u: Vec4, v: Vec4) -> float:
    """Largest component-wise absolute difference of two 4-vectors."""
    return max(abs(a - b) for a, b in zip(u.components(), v.components()))


def _over(points: int, verdict: str) -> str:
    """`verdict`, or inconclusive for a claim graded over zero points."""
    return verdict if points else "inconclusive"


def _claimed(claimed: Optional[bool], holds: bool,
             texts: tuple[str, str, str]) -> tuple[str, str]:
    """(verdict, paper_claim); texts phrase a True, False, absent claim."""
    if claimed is None:
        return "pass", texts[2]
    verdict = "pass" if claimed == holds else "discrepancy"
    return verdict, texts[0] if claimed else texts[1]


_TYPED = (SurfaceKind.TYPE1, SurfaceKind.TYPE2)


class _Session:
    """One scene's worth of shared evaluation state: one walk of its grid."""

    def __init__(self, cfg: SceneConfig):
        self.cfg = cfg
        self.surface = build_hypersurface(cfg)
        self.points = []
        self.slices = {}  # x -> the walk's _Slice at x
        for x, s, points in _walk_slices(self.surface, cfg):
            self.points += points
            if s is not None:
                self.slices[x] = s
        self.flagged_slices = cfg.resolution[0] - len(self.slices)
        self.graded = [pt for pt in self.points if pt.flag is None]
        self.degenerate = len(self.points) - len(self.graded)
        self._positions = {}

    def construction_positions(self, x: float) -> tuple:
        """The construction curves' positions at x, evaluated once apiece.

        These are the scene's own u, v, w (or a, a*, b, b*), not the walk's
        base curve, so the claims built on them stay independent of it.
        """
        got = self._positions.get(x)
        if got is None:
            got = self._positions[x] = tuple(
                self.cfg.curves[name].position(x)
                for name in _CURVE_KEYS[self.cfg.mode])
        return got


def _claim_flatness(s: _Session) -> ClaimResult:
    worst = 0.0
    for pt in s.graded:
        worst = max(worst, abs(pt.gauss_k))
    detail = {
        "max_abs_K": worst,
        "points_checked": len(s.graded),
        "points_degenerate": s.degenerate,
        "structural": "second form rows 2 and 3 vanish, so det h = 0 identically",
    }
    verdict = _over(len(s.graded), "pass" if worst <= FLAT_TOL else "fail")
    return ClaimResult(
        "flatness",
        "every 2-ruled hypersurface has Gauss curvature K = 0",
        f"max |K| = {_fmt(worst)} over {len(s.graded)} points",
        verdict, detail)


def _claim_minimality(s: _Session) -> ClaimResult:
    claimed = s.cfg.claims.get("minimal")
    worst_h = 0.0
    samples = []
    for pt in s.graded:
        worst_h = max(worst_h, abs(pt.mean_h))
        samples.append({
            "point": list(pt.params),
            "H": pt.mean_h,
            "h11_raw": pt.rn[0],
            "minimality_residual": pt.minimality,
        })
    detail = {"max_abs_H": worst_h, "samples": samples}
    is_minimal = worst_h <= ZERO_TOL
    verdict, claim_text = _claimed(
        claimed, is_minimal,
        ("the surface is minimal (H = 0 everywhere)",
         "the surface is not minimal",
         "none (no minimality claim made)"))
    computed = (f"max |H| = {_fmt(worst_h)} over {len(s.graded)} points; "
                + ("minimal" if is_minimal else "not minimal"))
    return ClaimResult("minimality", claim_text, computed,
                       _over(len(s.graded), verdict), detail)


def _claim_lb_zero(s: _Session) -> ClaimResult:
    claimed = s.cfg.claims.get("laplace_beltrami_zero")
    worst = 0.0
    for pt in s.graded:
        worst = max(worst, max(abs(v) for v in pt.laplacian.components()))
    is_zero = worst <= ZERO_TOL
    verdict, claim_text = _claimed(
        claimed, is_zero,
        ("the position map is harmonic (Laplacian = 0)",
         "the position map is not harmonic",
         "none (no harmonicity claim made)"))
    computed = (f"max |Laplacian component| = {_fmt(worst)}; "
                + ("zero" if is_zero else "nonzero"))
    return ClaimResult("laplace_beltrami_zero", claim_text, computed,
                       _over(len(s.graded), verdict),
                       {"max_abs_component": worst})


def _gram(jets):
    """The Gram of (phi_x, beta, gamma) at one x as a function of (y, z),
    from lorentz_gram on the slice basis (A1, B1, G1, B0, G0) once: <phi_x,
    phi_x> is quadratic in (y, z), <phi_x, beta> and <phi_x, gamma> are
    affine, and the rest is constant."""
    (_, a1, _), (b0, b1, _), (g0, g1, _) = jets
    ((aa, ab, ag, ap, aq), (_, bb, bg, bp, bq), (_, _, gg, gp, gq),
     (*_, pp, pq), (*_, qq)) = lorentz_gram((a1, b1, g1, b0, g0))
    ab, ag, bg = 2.0 * ab, 2.0 * ag, 2.0 * bg

    def at(y: float, z: float) -> tuple:
        a = aa + y * (ab + y * bb + z * bg) + z * (ag + z * gg)
        b = ap + y * bp + z * gp
        c = aq + y * bq + z * gq
        return (a, b, c), (b, pp, pq), (c, pq, qq)
    return at


def _claim_gauss_consistency(s: _Session) -> ClaimResult:
    worst_exp = worst_orth = worst_lag = 0.0
    for x, pts in groupby(s.graded, key=lambda pt: pt.params[0]):
        # from the walk's jets; the normal is linear in phi_x = A1+y*B1+z*G1
        jets = (_, a1, _), (b0, b1, _), (g0, g1, _) = s.slices[x].jets
        beta, gamma = b0.components(), g0.components()
        (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3) = [
            _normal_expanded(v.components(), beta, gamma)
            for v in (a1, b1, g1)]
        gram_at = _gram(jets)
        for pt in pts:
            _, y, z = pt.params
            n_raw, u = pt.n_raw, pt.unit
            n0, n1, n2, n3 = n_raw.components()
            gap = max(abs(p0 + y * q0 + z * r0 - n0),
                      abs(p1 + y * q1 + z * r1 - n1),
                      abs(p2 + y * q2 + z * r2 - n2),
                      abs(p3 + y * q3 + z * r3 - n3))
            worst_exp = max(worst_exp, gap / max(1.0, abs(n0), abs(n1),
                                                 abs(n2), abs(n3)))
            gram = (a, _, _), (_, bb, _), (_, _, gg) = gram_at(y, z)
            worst_orth = max(
                worst_orth,
                abs(lorentz_dot(u, a1) + y * lorentz_dot(u, b1)
                    + z * lorentz_dot(u, g1)) / max(1.0, abs(a)),
                abs(lorentz_dot(u, b0)) / max(1.0, abs(bb)),
                abs(lorentz_dot(u, g0)) / max(1.0, abs(gg)))
            nn = lorentz_dot(n_raw, n_raw)
            worst_lag = max(worst_lag, abs(nn + _det(gram))
                            / max(1.0, abs(nn)))
    bad = (worst_exp > EXPANDED_NORMAL_TOL or worst_orth > INTERNAL_REL_TOL
           or worst_lag > INTERNAL_REL_TOL)
    return ClaimResult(
        "gauss_map_consistency",
        "expanded cofactor components equal the ternary-product normal, "
        "which is orthogonal to all tangents with squared magnitude "
        "-det(Gram)",
        f"max deviations: expanded {_fmt(worst_exp)}, orthogonality "
        f"{_fmt(worst_orth)}, Gram linkage {_fmt(worst_lag)}",
        _over(len(s.graded), "fail" if bad else "pass"),
        {"expanded_vs_direct": worst_exp, "orthogonality": worst_orth,
         "gram_linkage": worst_lag})


def _claim_metric_consistency(s: _Session) -> ClaimResult:
    # the record's adj / det g times the g that _gram assembles from the jets
    sigma = _RULING_DIAGONAL.get(s.surface.kind)
    worst_det = worst_inv = 0.0
    for x, pts in groupby(s.graded, key=lambda pt: pt.params[0]):
        gram_at = _gram(s.slices[x].jets)
        for pt in pts:
            d = pt.detg
            if pt.detg_closed is not None:
                worst_det = max(worst_det,
                                abs(d - pt.detg_closed) / max(1.0, abs(d)))
            (a, b, c), (_, m22, e), (_, _, m33) = gram_at(*pt.params[1:])
            if sigma is not None:
                m22 = m33 = sigma
            i0, i1, i2, i4, i5, i8 = [v / d for v in pt.adj]
            # ginv . g - I, row by row
            worst_inv = max(
                worst_inv, abs(i0 * a + i1 * b + i2 * c - 1.0),
                abs(i0 * b + i1 * m22 + i2 * e),
                abs(i0 * c + i1 * e + i2 * m33), abs(i1 * a + i4 * b + i5 * c),
                abs(i1 * b + i4 * m22 + i5 * e - 1.0),
                abs(i1 * c + i4 * e + i5 * m33), abs(i2 * a + i5 * b + i8 * c),
                abs(i2 * b + i5 * m22 + i8 * e),
                abs(i2 * c + i5 * e + i8 * m33 - 1.0))
    bad = worst_det > INTERNAL_REL_TOL or worst_inv > INTERNAL_REL_TOL
    return ClaimResult(
        "metric_consistency",
        "closed-form determinant and adjugate inverse match the direct "
        "3x3 computations",
        f"max deviations: determinant {_fmt(worst_det)}, "
        f"inverse product {_fmt(worst_inv)}",
        _over(len(s.graded), "fail" if bad else "pass"),
        {"det_closed_vs_direct": worst_det, "inverse_identity": worst_inv})


def _claim_minimality_linkage(s: _Session) -> ClaimResult:
    # Tests rounding only: H and the residual share the kernel's raw row and
    # adjugate, so a wrong row or adjugate cannot fail it (ROADMAP item 1).
    worst = 0.0
    for pt in s.graded:
        h_from_residual = pt.minimality / (3.0 * pt.detg * pt.magnitude)
        scale = max(1.0, abs(pt.mean_h))
        worst = max(worst, abs(h_from_residual - pt.mean_h) / scale)
    return ClaimResult(
        "minimality_linkage",
        "the adjugate-weighted residual equals 3 H detg |n| (two "
        "independent mean-curvature paths)",
        f"max relative gap = {_fmt(worst)}",
        _over(len(s.graded), "fail" if worst > LINKAGE_REL_TOL else "pass"),
        {"max_relative_gap": worst})


def _lb_closed_gaps(s: _Session) -> Optional[tuple[float, float]]:
    """(half-weight gap, full-weight gap) vs the general path, or None."""
    if s.surface.kind not in _TYPED or not s.graded:
        return None
    if not all(abs(pt.e) <= ORTHOGONAL_TOL for pt in s.graded):
        return None
    worst_half = worst_full = 0.0
    for pt in s.graded:
        x, y, z = pt.params
        closed = s.slices[x].closed
        half = closed(y, z, pt.a, pt.b, pt.c, pt.grads, 0.5)
        full = closed(y, z, pt.a, pt.b, pt.c, pt.grads, 1.0)
        worst_half = max(worst_half, _gap(half, pt.laplacian))
        worst_full = max(worst_full, _gap(full, pt.laplacian))
    return worst_half, worst_full


def _claim_lb_closed(worst_half: float, worst_full: float) -> ClaimResult:
    return ClaimResult(
        "lb_closed_form",
        "for orthogonal directors the Laplacian reduces to the "
        "half-weighted closed form",
        f"max gap: half-weighted {_fmt(worst_half)}, full-weighted "
        f"{_fmt(worst_full)}",
        "fail" if worst_half > LB_CLOSED_TOL else "pass",
        {"half_weight_gap": worst_half, "full_weight_gap": worst_full})


def _claim_lb_weights(worst_half: float, worst_full: float) -> ClaimResult:
    printed_matches = worst_full <= LB_CLOSED_TOL
    verdict = "pass" if printed_matches else "discrepancy"
    return ClaimResult(
        "lb_closed_form_weights",
        "the closed form carries full (unhalved) first-derivative weights",
        f"full-weight gap {_fmt(worst_full)} vs half-weight gap "
        f"{_fmt(worst_half)}: the half-weighted form "
        + ("is indistinguishable here" if printed_matches
           else "matches the divergence path, the full-weighted form does not"),
        verdict,
        {"full_weight_gap": worst_full, "half_weight_gap": worst_half})


def _claim_director_membership(s: _Session) -> Optional[ClaimResult]:
    if s.surface.kind not in _TYPED:
        return None
    space = "de Sitter sphere" if s.surface.kind is SurfaceKind.TYPE1 \
        else "upper hyperbolic sheet"
    reports = s.surface.director_reports
    detail = {
        "directors": [
            {
                "target": r.target,
                "max_violation": r.max_violation,
                "worst_t": r.worst_t,
                "sign_ok": r.sign_ok,
                "passed": r.passed,
            } for r in reports
        ]
    }
    all_ok = bool(reports) and all(r.passed for r in reports)
    worst = max((r.max_violation for r in reports), default=float("nan"))
    signs = all(r.sign_ok for r in reports) if reports else False
    return ClaimResult(
        "director_membership",
        f"both director curves lie on the {space}",
        f"max quadratic-form violation {_fmt(worst)}; sign conditions "
        + ("hold" if signs else "violated"),
        "pass" if all_ok else "discrepancy",
        detail)


def _claim_construction_hypotheses(s: _Session) -> Optional[ClaimResult]:
    if s.cfg.mode not in ("octonion", "dual-octonion"):
        return None
    advisories = [w for w in s.surface.warnings]
    return ClaimResult(
        "construction_hypotheses",
        "the generating curves are unit and mutually orthogonal "
        f"(checked under the {s.cfg.dual_norm} product)",
        "hypotheses hold" if not advisories
        else f"{len(advisories)} hypothesis violations",
        "pass" if not advisories else "discrepancy",
        {"advisories": advisories})


def _claim_construction_equivalence(s: _Session) -> Optional[ClaimResult]:
    if s.cfg.mode not in ("octonion", "dual-octonion"):
        return None
    from .octo import _star, _star_dual
    # the star sum at (y, z) is its value at (0, 0) plus y w + z v (y a + z b)
    star, rulings = ((_star, (2, 1)) if s.cfg.mode == "octonion"
                     else (_star_dual, (0, 2)))
    _require_axis(s.cfg.i_vec)
    axis = s.cfg.i_vec.components()
    worst_vec = 0.0
    worst_scalar = 0.0
    graded = 0
    for x, pts in groupby(s.points, key=lambda pt: pt.params[0]):
        placed = [pt for pt in pts if pt.position is not None]
        if not placed:
            continue
        positions = [p.components() for p in s.construction_positions(x)]
        scalar, (c0, c1, c2, c3) = star(*positions, 0.0, 0.0, axis)
        worst_scalar = max(worst_scalar, abs(scalar))
        (w0, w1, w2, w3), (v0, v1, v2, v3) = [positions[k] for k in rulings]
        for pt in placed:
            _, y, z = pt.params
            p0, p1, p2, p3 = pt.position.components()
            worst_vec = max(worst_vec, abs(c0 + y * w0 + z * v0 - p0),
                            abs(c1 + y * w1 + z * v1 - p1),
                            abs(c2 + y * w2 + z * v2 - p2),
                            abs(c3 + y * w3 + z * v3 - p3))
        graded += len(placed)
    return ClaimResult(
        "construction_equivalence",
        "the star-product path and the direct base-plus-ruling path give "
        "the same points",
        f"max vector gap {_fmt(worst_vec)}; max scalar defect "
        f"{_fmt(worst_scalar)} (zero only under orthogonality)",
        _over(graded, "fail" if worst_vec > INTERNAL_REL_TOL else "pass"),
        {"vector_gap": worst_vec, "scalar_defect": worst_scalar})


def _claim_reference_curves(s: _Session) -> Optional[ClaimResult]:
    if not s.cfg.reference:
        return None
    per_curve = {}
    worst = 0.0
    for key, ref in s.cfg.reference.items():
        role = _REFERENCE_ROLES[key]
        dev = [0.0, 0.0, 0.0, 0.0]
        # the walk's jets; a slice the walk flagged is skipped and counted
        for t, walked in s.slices.items():
            got = walked.jets[role][0]
            want = ref.position(t)
            for i, (a, b) in enumerate(zip(got.components(),
                                           want.components())):
                dev[i] = max(dev[i], abs(a - b))
        per_curve[key] = dev
        worst = max(worst, max(dev))
    matches = worst <= REFERENCE_TOL
    return ClaimResult(
        "reference_curves",
        "the published closed-form components equal the constructed curves",
        f"max component deviation {_fmt(worst)} "
        + ("(all components match)" if matches
           else "(at least one published component deviates)"),
        _over(len(s.slices), "pass" if matches else "discrepancy"),
        {"per_curve_component_deviation": per_curve,
         "samples": len(s.slices), "samples_skipped": s.flagged_slices})


def _claim_alpha_probe(s: _Session) -> Optional[ClaimResult]:
    if s.cfg.mode != "octonion" or "alpha" not in s.cfg.reference:
        return None
    ref = s.cfg.reference["alpha"]
    axes = {f"{label}e{slot + 1}": Vec4.basis(slot) * sign
            for slot in range(4)
            for sign, label in ((1.0, "+"), (-1.0, "-"))}
    candidates = dict.fromkeys(axes, 0.0)
    for t in s.slices:
        pu, pv, pw = s.construction_positions(t)
        want = ref.position(t)
        for label, axis in axes.items():
            got = cross4(pu, pv, axis) + cross4(pu, pw, axis)
            candidates[label] = max(candidates[label], _gap(got, want))
    matched = [label for label, worst in candidates.items()
               if worst <= REFERENCE_TOL]
    return ClaimResult(
        "alpha_probe",
        "the published base curve arises from the ternary-product "
        "construction for some reference axis",
        f"matched candidates: {matched if matched else 'none'}",
        _over(len(s.slices), "pass" if matched else "discrepancy"),
        {"max_deviation_per_candidate": candidates, "matched": matched,
         "samples": len(s.slices), "samples_skipped": s.flagged_slices})


def check_scene(cfg: SceneConfig) -> CheckReport:
    """Run every applicable claim check for a scene."""
    return _grade(_Session(cfg))


def _grade(session: _Session) -> CheckReport:
    claims: list[ClaimResult] = [
        _claim_flatness(session),
        _claim_minimality(session),
        _claim_lb_zero(session),
        _claim_gauss_consistency(session),
        _claim_metric_consistency(session),
        _claim_minimality_linkage(session),
    ]
    gaps = _lb_closed_gaps(session)
    if gaps is not None:
        claims += [_claim_lb_closed(*gaps), _claim_lb_weights(*gaps)]
    for maybe in (_claim_director_membership(session),
                  _claim_construction_hypotheses(session),
                  _claim_construction_equivalence(session),
                  _claim_reference_curves(session),
                  _claim_alpha_probe(session)):
        if maybe is not None:
            claims.append(maybe)
    return CheckReport(session.cfg.name, session.cfg.mode, tuple(claims),
                       session.surface.warnings)


def report_document(cfg: SceneConfig) -> dict:
    """Full JSON report: claims plus the table of the grid they graded."""
    session = _Session(cfg)
    doc = _grade(session).to_dict()
    doc["mesh"] = mesh_document(
        grid_mesh(session.surface, cfg, session.points))
    return doc
