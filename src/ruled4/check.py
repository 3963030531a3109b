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

from . import crosscheck
from .hypersurface import ORTHOGONAL_TOL, SurfaceKind
from .lorentz import Vec4, _require_axis, cross4, lorentz_dot
from .mesh import _dumps, _walk_slices, grid_mesh, mesh_document
from .pointwise import _matmul, _metric, inverse_metric
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
        self.xs = sorted({pt.params[0] for pt in self.points})
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


def _claim_gauss_consistency(s: _Session) -> ClaimResult:
    worst_exp = worst_orth = worst_lag = 0.0
    for pt in s.graded:
        # the tangents from the walk's curve jets, not the kernel's tables
        x, y, z = pt.params
        (_, a1, _), (b0, b1, _), (g0, g1, _) = s.slices[x].jets
        phi_x = Vec4(*[p + y * q + z * r for p, q, r in zip(
            a1.components(), b1.components(), g1.components())])
        tangents = (phi_x, b0, g0)
        expanded = crosscheck._normal_expanded(
            *(t.components() for t in tangents))
        n0, n1, n2, n3 = pt.n_raw.components()
        e0, e1, e2, e3 = expanded
        gap = max(abs(e0 - n0), abs(e1 - n1), abs(e2 - n2), abs(e3 - n3))
        scale = max(1.0, abs(n0), abs(n1), abs(n2), abs(n3))
        worst_exp = max(worst_exp, gap / scale)
        gram = crosscheck.lorentz_gram(tangents)
        for k, tangent in enumerate(tangents):
            worst_orth = max(worst_orth,
                             abs(lorentz_dot(pt.unit, tangent))
                             / max(1.0, abs(gram[k][k])))
        det_gram = crosscheck._det(gram)
        nn = lorentz_dot(pt.n_raw, pt.n_raw)
        worst_lag = max(worst_lag, abs(nn + det_gram) / max(1.0, abs(nn)))
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
    worst_det = worst_inv = 0.0
    for pt in s.graded:
        if pt.detg_closed is not None:
            worst_det = max(worst_det, abs(pt.detg - pt.detg_closed)
                            / max(1.0, abs(pt.detg)))
        md = _metric(s.surface.kind, pt)
        ident = _matmul(inverse_metric(md), md.g)
        for i in range(3):
            for j in range(3):
                unit = 1.0 if i == j else 0.0
                worst_inv = max(worst_inv, abs(ident[i][j] - unit))
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
        full = s.slices[x].closed(y, z, pt.a, pt.b, pt.c, pt.grads, 1.0)
        worst_half = max(worst_half, _gap(pt.laplacian_closed, pt.laplacian))
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
    star = _star if s.cfg.mode == "octonion" else _star_dual
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
        for pt in placed:
            scalar, vector = star(*positions, pt.params[1], pt.params[2], axis)
            worst_vec = max(worst_vec, max(
                abs(a - b) for a, b in zip(vector, pt.position.components())))
            worst_scalar = max(worst_scalar, abs(scalar))
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
    curves = (s.surface.alpha, s.surface.beta, s.surface.gamma)
    per_curve = {}
    worst = 0.0
    for key, ref in s.cfg.reference.items():
        role = _REFERENCE_ROLES[key]
        dev = [0.0, 0.0, 0.0, 0.0]
        for t in s.xs:
            # the walk's jets, or this one curve where the walk flagged the
            # slice: it is graded if it evaluates and raises if it fails
            walked = s.slices.get(t)
            got = (walked.jets[role] if walked
                   else curves[role].evaluate(t))[0]
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
        "pass" if matches else "discrepancy",
        {"per_curve_component_deviation": per_curve,
         "samples": len(s.xs)})


def _claim_alpha_probe(s: _Session) -> Optional[ClaimResult]:
    if s.cfg.mode != "octonion" or "alpha" not in s.cfg.reference:
        return None
    ref = s.cfg.reference["alpha"]
    axes = {f"{label}e{slot + 1}": Vec4.basis(slot) * sign
            for slot in range(4)
            for sign, label in ((1.0, "+"), (-1.0, "-"))}
    candidates = dict.fromkeys(axes, 0.0)
    for t in s.xs:
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
        "pass" if matched else "discrepancy",
        {"max_deviation_per_candidate": candidates, "matched": matched})


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
