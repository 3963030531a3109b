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
{"scene", "mode", "warnings", "claims": [{name, paper_claim, computed,
verdict, details}], "exit_code"}.
"""

from __future__ import annotations

from itertools import groupby
from typing import NamedTuple, Optional

from .crosscheck import _det, _normal_expanded, lorentz_gram
from .hypersurface import _RULING_DIAGONAL
from .kernel import _detg_closed, _walk_slices
from .lorentz import lorentz_dot
from .scene import SceneConfig, _dumps, build_hypersurface

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
        self.graded = [pt for pt in self.points if not pt.flags]
        self.degenerate = len(self.points) - len(self.graded)
        # x -> _gram of the walk's slice at x
        self.grams = {x: _gram(sl.jets) for x, sl in self.slices.items()}


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
        (_, a1, _), (b0, b1, _), (g0, g1, _) = s.slices[x].jets
        beta, gamma = b0.components(), g0.components()
        (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3) = [
            _normal_expanded(v.components(), beta, gamma)
            for v in (a1, b1, g1)]
        gram_at = s.grams[x]
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
        gram_at = s.grams[x]
        for pt in pts:
            d = pt.detg
            (a, b, c), (_, m22, e), (_, _, m33) = gram_at(*pt.params[1:])
            if sigma is not None:
                m22 = m33 = sigma
                closed = _detg_closed(sigma, pt.a, pt.b, pt.c, pt.e)
                worst_det = max(worst_det, abs(d - closed) / max(1.0, abs(d)))
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
    # the claims of one kind of scene live in a module loaded for it alone
    cfg = session.cfg
    if cfg.mode in ("type1", "type2"):
        from .typedclaims import claims as typed
        claims += typed(session)
    if cfg.mode in ("octonion", "dual-octonion") or cfg.reference:
        from .octoclaims import claims as construction
        claims += construction(session)
    return CheckReport(cfg.name, cfg.mode, tuple(claims),
                       session.surface.warnings)


def report_document(cfg: SceneConfig) -> dict:
    """Full JSON report: claims plus the table of the grid they graded."""
    from .mesh import grid_mesh, mesh_document
    session = _Session(cfg)
    doc = _grade(session).to_dict()
    doc["mesh"] = mesh_document(
        grid_mesh(session.surface, cfg, session.points))
    return doc
