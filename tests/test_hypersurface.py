"""Construction, curvature pipeline, and Laplacian paths of ruled surfaces.

The two fixtures here are frozen against hand-derived closed forms: an
affine 3-plane with constant directors (every curvature quantity vanishes)
and a quartic-base instance whose directors deliberately violate their
membership constraints (K = 0 structurally, H nonzero, Laplacian nonzero).
"""

import math
import random
from dataclasses import dataclass, field
from importlib import resources

import numpy as np
import pytest

from ruled4.crosscheck import (
    contraction_defect,
    lagrange_defect,
    lb_closed_full_p,
    normal_components_expanded,
)
from ruled4.errors import (
    DegenerateNormal,
    DirectorConstraintViolated,
    DomainError,
    SingularMetric,
)
from ruled4.expr import CurveSpec
from ruled4.hypersurface import SurfaceKind, _axis, make_ruled
from ruled4.lorentz import CausalCharacter, Vec4, cross4, lorentz_dot
from ruled4.mesh import sample_grid
from ruled4.octo import construct_from_octonions
from ruled4.pointwise import (
    _at,
    curvature_report,
    eval_point,
    first_form,
    frame,
    gauss_map,
    inverse_metric,
    laplace_beltrami,
    lb_closed_orthogonal,
    minimality_residual,
    second_form,
)
from ruled4.scene import build_hypersurface, load_scene

from support import lb_fd, max_comp_diff, rand_strict_surface


# ---------------------------------------------------------------------------
# Fixture 1: affine 3-plane, type 1, strict.

def plane_fixture():
    alpha = CurveSpec.from_strings(["3*t+7", "-5*t+1", "t", "-4*t-1"])
    beta = CurveSpec.from_strings(
        ["1/sqrt(7)", "0", "2*sqrt(2)/sqrt(7)", "0"])
    gamma = CurveSpec.from_strings(["0", "1/sqrt(5)", "0", "2/sqrt(5)"])
    return make_ruled(alpha, beta, gamma, SurfaceKind.TYPE1, strict=True)


# Fixture 2: quartic base, type 2, directors violate membership; lax build.

def quartic_fixture():
    alpha = CurveSpec.from_strings(
        ["t^4/4 + sqrt(2)", "2*t+1", "-3*t", "t^3/3"])
    beta = CurveSpec.from_strings(["-2/sqrt(3)", "0", "1/sqrt(3)", "0"])
    gamma = CurveSpec.from_strings(["0", "1/sqrt(7)", "0", "sqrt(6)/sqrt(7)"])
    return make_ruled(alpha, beta, gamma, SurfaceKind.TYPE2, strict=False,
                      x_interval=(0.5, 1.5))


def test_plane_builds_strict_without_warnings():
    h = plane_fixture()
    assert h.warnings == ()
    assert len(h.director_reports) == 2
    assert all(r.passed for r in h.director_reports)


def test_plane_eval_point_pinned():
    h = plane_fixture()
    p = eval_point(h, 0.0, math.sqrt(7.0), 0.0)
    expected = (8.0, 1.0, 2.0 * math.sqrt(2.0), -1.0)
    assert max(abs(a - b) for a, b in zip(p.components(), expected)) < 1e-14


def test_plane_metric_pinned():
    h = plane_fixture()
    md = first_form(h, 0.3, -0.2, 0.7)
    assert abs(md.a - 33.0) < 1e-12
    assert abs(md.b - (2.0 * math.sqrt(2.0) - 3.0) / math.sqrt(7.0)) < 1e-14
    assert abs(md.c - (-13.0 / math.sqrt(5.0))) < 1e-13
    assert md.e == 0.0
    assert md.m22 == 1.0 and md.m33 == 1.0  # pinned ruling diagonal, type 1
    assert md.detg_closed is not None
    assert abs(md.detg - md.detg_closed) < 1e-12
    # det g = a - b^2 - c^2 here (e = 0, diagonal +1)
    expected_det = 33.0 - (17.0 - 12.0 * math.sqrt(2.0)) / 7.0 - 169.0 / 5.0
    assert abs(md.detg - expected_det) < 1e-12
    assert abs(md.detg - (-0.8042053216461227)) < 1e-12


def test_plane_everything_vanishes_at_27_points():
    h = plane_fixture()
    for x in (-1.0, 0.0, 1.0):
        for y in (-1.0, 0.0, 1.0):
            for z in (-1.0, 0.0, 1.0):
                rep = curvature_report(h, x, y, z)
                assert abs(rep.gauss_curvature) < 1e-15
                assert abs(rep.mean_curvature) < 1e-15
                assert abs(rep.minimality) < 1e-15
                assert max(abs(v) for v in rep.laplacian.components()) < 1e-15
                assert rep.laplacian_closed is not None
                assert max(abs(v)
                           for v in rep.laplacian_closed.components()) < 1e-15


def test_plane_inverse_metric_identity():
    h = plane_fixture()
    md = first_form(h, 0.3, -0.2, 0.7)
    ginv = np.array(inverse_metric(md))
    assert float(np.abs(ginv @ np.array(md.g) - np.eye(3)).max()) < 1e-12


def test_quartic_strict_raises_naming_directors():
    alpha = CurveSpec.from_strings(
        ["t^4/4 + sqrt(2)", "2*t+1", "-3*t", "t^3/3"])
    beta = CurveSpec.from_strings(["-2/sqrt(3)", "0", "1/sqrt(3)", "0"])
    gamma = CurveSpec.from_strings(["0", "1/sqrt(7)", "0", "sqrt(6)/sqrt(7)"])
    with pytest.raises(DirectorConstraintViolated):
        make_ruled(alpha, beta, gamma, SurfaceKind.TYPE2, strict=True)


def test_quartic_lax_records_two_warnings():
    h = quartic_fixture()
    assert len(h.warnings) == 2
    reports = h.director_reports
    assert len(reports) == 2
    # beta satisfies the quadratic form exactly but sits on the lower sheet
    assert reports[0].max_violation < 1e-12
    assert not reports[0].sign_ok
    # gamma is spacelike: quadratic-form violation of exactly 2
    assert reports[1].max_violation == pytest.approx(2.0, abs=1e-12)


def test_quartic_h11_raw_pinned():
    # the kernel's raw second-form row, <phi_xx, n_raw> first
    h = quartic_fixture()
    s, y, z = _at(h, 1.0, 0.4, -0.2)
    h11, h12, h13 = s.second_raw(y, z)
    expected = (6.0 * math.sqrt(6.0) - 13.0) / math.sqrt(21.0)
    assert abs(h11 - expected) < 1e-12
    assert abs(h11 - 0.3703023298811914) < 1e-12
    # constant directors: the x-derivatives of beta, gamma vanish
    assert h12 == 0.0 and h13 == 0.0


def test_quartic_detg_pinned_at_x1():
    h = quartic_fixture()
    md = first_form(h, 1.0, 0.4, -0.2)
    expected = 13.0 + 1.0 / 3.0 + (10.0 + 4.0 * math.sqrt(6.0)) / 7.0
    assert abs(md.detg - expected) < 1e-12


def test_quartic_curvatures():
    h = quartic_fixture()
    rep = curvature_report(h, 1.0, 0.4, -0.2)
    assert abs(rep.gauss_curvature) < 1e-18  # structural zero
    assert abs(rep.mean_curvature - 0.0023564126629284925) < 1e-15
    # two-path mean curvature: residual / (3 detg |n|) equals the trace path
    recomputed = rep.minimality / (3.0 * rep.metric.detg
                                   * rep.normal.magnitude)
    assert abs(recomputed - rep.mean_curvature) \
        <= 1e-10 * max(1.0, abs(rep.mean_curvature))


def test_second_form_ruling_block_is_structurally_zero():
    # position is affine in y and z, so the pure ruling second derivatives
    # vanish identically and det(second form) = 0 without any tolerance
    rng = random.Random(1)
    for kind in (SurfaceKind.TYPE1, SurfaceKind.TYPE2):
        h = rand_strict_surface(rng, kind)
        mat = np.array(second_form(h, 0.25, -0.5, 0.5))
        assert mat.shape == (3, 3)
        assert np.all(mat[1:, 1:] == 0.0)
        assert mat[0, 1] == mat[1, 0] and mat[0, 2] == mat[2, 0]
        # cofactor expansion along the zero block gives an exact zero
        det = (mat[0, 0] * (mat[1, 1] * mat[2, 2] - mat[1, 2] * mat[2, 1])
               - mat[0, 1] * (mat[1, 0] * mat[2, 2] - mat[1, 2] * mat[2, 0])
               + mat[0, 2] * (mat[1, 0] * mat[2, 1] - mat[1, 1] * mat[2, 0]))
        assert det == 0.0


def test_frame_matches_curve_jets():
    h = plane_fixture()
    fr = frame(h, 0.5, 2.0, -1.0)
    a_p, a_v, a_acc = h.alpha.evaluate(0.5)
    b_p, b_v, b_acc = h.beta.evaluate(0.5)
    g_p, g_v, g_acc = h.gamma.evaluate(0.5)
    assert max_comp_diff(fr.position, a_p + 2.0 * b_p + (-1.0) * g_p) == 0.0
    assert max_comp_diff(fr.phi_x, a_v + 2.0 * b_v + (-1.0) * g_v) == 0.0
    assert max_comp_diff(fr.phi_y, b_p) == 0.0
    assert max_comp_diff(fr.phi_z, g_p) == 0.0
    assert max_comp_diff(fr.phi_xx, a_acc + 2.0 * b_acc + (-1.0) * g_acc) == 0.0
    assert max_comp_diff(fr.phi_xy, b_v) == 0.0
    assert max_comp_diff(fr.phi_xz, g_v) == 0.0


def test_gauss_map_unit_and_orthogonal():
    rng = random.Random(2)
    h = rand_strict_surface(rng, SurfaceKind.TYPE1)
    gm = gauss_map(h, 0.3, 0.4, -0.6)
    fr = frame(h, 0.3, 0.4, -0.6)
    assert abs(abs(lorentz_dot(gm.unit, gm.unit)) - 1.0) < 1e-10
    for tangent in (fr.phi_x, fr.phi_y, fr.phi_z):
        scale = max(1.0, abs(lorentz_dot(tangent, tangent)))
        assert abs(lorentz_dot(gm.unit, tangent)) < 1e-10 * scale
    assert gm.magnitude > 0.0
    assert gm.character in (CausalCharacter.SPACELIKE,
                            CausalCharacter.TIMELIKE)


def test_degenerate_normal_raises():
    shared = CurveSpec.from_strings(["0", "0", "cos(t)", "sin(t)"])
    alpha = CurveSpec.from_strings(["t", "t^2", "0", "0"])
    h = make_ruled(alpha, shared, shared, SurfaceKind.TYPE1, strict=True)
    with pytest.raises(DegenerateNormal):
        gauss_map(h, 0.2, 0.3, 0.4)
    with pytest.raises(DegenerateNormal):
        curvature_report(h, 0.2, 0.3, 0.4)


def test_singular_metric_raises():
    # lightlike base velocity with orthogonal spatial directors: at
    # y = z = 0 the first form is diag(0, 1, 1)
    alpha = CurveSpec.from_strings(["t", "t", "0", "0"])
    beta = CurveSpec.from_strings(["0", "0", "1", "0"])
    gamma = CurveSpec.from_strings(["0", "0", "0", "1"])
    h = make_ruled(alpha, beta, gamma, SurfaceKind.TYPE1, strict=True)
    md = first_form(h, 0.5, 0.0, 0.0)
    assert abs(md.detg) < 1e-15
    with pytest.raises(SingularMetric):
        inverse_metric(md)


def test_domain_error_propagates_from_curves():
    alpha = CurveSpec.from_strings(["1/t", "t", "0", "0"])
    beta = CurveSpec.from_strings(["0", "0", "1", "0"])
    gamma = CurveSpec.from_strings(["0", "0", "0", "1"])
    h = make_ruled(alpha, beta, gamma, SurfaceKind.UNCONSTRAINED)
    with pytest.raises(DomainError):
        eval_point(h, 0.0, 0.1, 0.1)


def test_non_curvespec_director_warns_membership_unchecked():
    class RawCurve:
        def evaluate(self, t):
            c, s = math.cos(t), math.sin(t)
            return (Vec4(0.0, c, s, 0.0), Vec4(0.0, -s, c, 0.0),
                    Vec4(0.0, -c, -s, 0.0))

    alpha = CurveSpec.from_strings(["t", "0", "0", "0"])
    gamma = CurveSpec.from_strings(["0", "0", "0", "1"])
    h = make_ruled(alpha, RawCurve(), gamma, SurfaceKind.TYPE1)
    assert any("membership not checked" in w for w in h.warnings)


@dataclass(frozen=True)
class RecordingCurve(CurveSpec):
    """A CurveSpec that records each t its position is taken at."""

    seen: list = field(default_factory=list, compare=False, repr=False)

    def position(self, t):
        self.seen.append(t)
        return super().position(t)


def recording(texts):
    return RecordingCurve(CurveSpec.from_strings(texts).comps)


def test_directors_and_advisories_sample_the_grid_axis():
    # lo + 32 * step rounds to 0.8999999999999999; _axis ends at hi itself
    axis = list(_axis(-0.3, 0.9, 33))
    assert axis[-1] == 0.9
    alpha = CurveSpec.from_strings(["t", "0", "0", "0"])
    beta = recording(["sinh(t/3)", "cosh(t/3)", "0", "0"])
    gamma = recording(["0", "0", "cos(t)", "sin(t)"])
    make_ruled(alpha, beta, gamma, SurfaceKind.TYPE1, x_interval=(-0.3, 0.9))
    assert beta.seen == gamma.seen == axis
    u = recording(["t", "1", "0", "0"])
    construct_from_octonions(u, gamma, beta, x_interval=(-0.3, 0.9))
    assert u.seen == axis


def test_unconstrained_metric_uses_actual_products():
    beta = CurveSpec.from_strings(["0", "2", "0", "0"])    # <b,b> = 4
    gamma = CurveSpec.from_strings(["0", "0", "3", "0"])   # <g,g> = 9
    alpha = CurveSpec.from_strings(["t", "0", "t^2", "0"])
    h = make_ruled(alpha, beta, gamma, SurfaceKind.UNCONSTRAINED)
    md = first_form(h, 0.5, 0.1, 0.1)
    assert md.m22 == 4.0 and md.m33 == 9.0
    assert md.detg_closed is None
    # typed kinds pin the diagonal instead, even when the curve disagrees
    h2 = make_ruled(alpha, beta, gamma, SurfaceKind.TYPE1, strict=False)
    md2 = first_form(h2, 0.5, 0.1, 0.1)
    assert md2.m22 == 1.0 and md2.m33 == 1.0


# ---------------------------------------------------------------------------
# Laplacian: general path vs closed form vs finite differences.

def orthogonal_type1():
    alpha = CurveSpec.from_strings(["t^2/2", "t", "sin(t)", "cos(t)"])
    beta = CurveSpec.from_strings(["sinh(t/3)", "cosh(t/3)", "0", "0"])
    gamma = CurveSpec.from_strings(["0", "0", "cos(t)", "sin(t)"])
    return make_ruled(alpha, beta, gamma, SurfaceKind.TYPE1, strict=True,
                      x_interval=(0.1, 0.9))


def orthogonal_type2_lax():
    alpha = CurveSpec.from_strings(["t^3/6", "cosh(t/2)", "t^2/2", "sinh(t/2)"])
    beta = CurveSpec.from_strings(["cosh(t/4)", "sinh(t/4)", "0", "0"])
    gamma = CurveSpec.from_strings(["0", "0", "cos(t)", "sin(t)"])
    return make_ruled(alpha, beta, gamma, SurfaceKind.TYPE2, strict=False,
                      x_interval=(0.1, 0.9))


def test_lb_general_vs_closed_vs_fd_type1():
    h = orthogonal_type1()
    pt = (0.4, 0.2, -0.3)
    general = laplace_beltrami(h, *pt)
    closed = lb_closed_orthogonal(h, *pt)
    fd = lb_fd(h, *pt)
    assert max_comp_diff(general, closed) < 1e-10
    assert max_comp_diff(general, fd) < 1e-4
    # the full-weight variant of the closed form is measurably different
    full = lb_closed_full_p(h, *pt)
    assert max_comp_diff(general, full) > 1e-3


def test_lb_general_vs_closed_vs_fd_type2():
    h = orthogonal_type2_lax()
    pt = (0.4, 0.2, -0.3)
    general = laplace_beltrami(h, *pt)
    closed = lb_closed_orthogonal(h, *pt)
    fd = lb_fd(h, *pt)
    assert max_comp_diff(general, closed) < 1e-10
    assert max_comp_diff(general, fd) < 1e-4


def test_lb_negative_detg_instance():
    # fast timelike base: detg < 0 exercises the |det| and sign handling
    alpha = CurveSpec.from_strings(["3*t + t^2/7", "t", "sin(t)/2", "t^2/5"])
    beta = CurveSpec.from_strings(["sinh(t/3)", "cosh(t/3)", "0", "0"])
    gamma = CurveSpec.from_strings(["0", "0", "cos(t)", "sin(t)"])
    h = make_ruled(alpha, beta, gamma, SurfaceKind.TYPE1, strict=True,
                   x_interval=(0.1, 0.9))
    pt = (0.4, 0.2, -0.3)
    md = first_form(h, *pt)
    assert md.detg < 0.0
    general = laplace_beltrami(h, *pt)
    assert max_comp_diff(general, lb_closed_orthogonal(h, *pt)) < 1e-10
    assert max_comp_diff(general, lb_fd(h, *pt)) < 1e-4


def test_lb_unconstrained_vs_fd():
    alpha = CurveSpec.from_strings(["t^2/2 + t", "2*t", "sin(t)", "t^3/9"])
    beta = CurveSpec.from_strings(["t/5", "1 + t^2/9", "t/3", "0"])
    gamma = CurveSpec.from_strings(["sin(t)/4", "0", "1 + t/7", "cos(t)/2"])
    h = make_ruled(alpha, beta, gamma, SurfaceKind.UNCONSTRAINED)
    pt = (0.3, 0.25, -0.15)
    assert max_comp_diff(laplace_beltrami(h, *pt), lb_fd(h, *pt)) < 1e-4


def test_lb_closed_rejects_unconstrained_kind():
    alpha = CurveSpec.from_strings(["t", "0", "0", "0"])
    beta = CurveSpec.from_strings(["0", "1", "0", "0"])
    gamma = CurveSpec.from_strings(["0", "0", "1", "0"])
    h = make_ruled(alpha, beta, gamma, SurfaceKind.UNCONSTRAINED)
    with pytest.raises(ValueError):
        lb_closed_orthogonal(h, 0.1, 0.1, 0.1)


def test_report_closed_laplacian_only_when_orthogonal():
    rng = random.Random(4)
    h = rand_strict_surface(rng, SurfaceKind.TYPE1)
    rep = curvature_report(h, 0.2, 0.3, -0.4)
    if abs(rep.metric.e) > 1e-9:
        assert rep.laplacian_closed is None
    ho = orthogonal_type1()
    rep_o = curvature_report(ho, 0.4, 0.2, -0.3)
    assert rep_o.metric.e == 0.0
    assert rep_o.laplacian_closed is not None
    assert rep_o.minimality_orthogonal is not None
    # the orthogonal reduction of the residual agrees with the full form
    assert abs(rep_o.minimality - rep_o.minimality_orthogonal) \
        <= 1e-12 * max(1.0, abs(rep_o.minimality))


def test_minimality_residual_function_matches_report():
    h = quartic_fixture()
    rep = curvature_report(h, 1.0, 0.4, -0.2)
    assert minimality_residual(h, 1.0, 0.4, -0.2) == rep.minimality


def test_scalar_api_equals_report_on_shipped_scenes():
    # the (h, x, y, z) functions and the report share one metric pass, so
    # they agree bit for bit on every graded vertex
    closed = 0
    for name in ("example1", "exampleE1", "exampleEx3", "dualsphere"):
        cfg = load_scene(str(resources.files("ruled4.scenes")
                             / f"{name}.json"))
        h = build_hypersurface(cfg)
        graded = [pt.params for pt in sample_grid(h, cfg).vertices
                  if not pt.flags]
        assert graded, name
        for x, y, z in graded:
            rep = curvature_report(h, x, y, z)
            assert first_form(h, x, y, z) == rep.metric
            assert laplace_beltrami(h, x, y, z) == rep.laplacian
            assert minimality_residual(h, x, y, z) == rep.minimality
            if rep.laplacian_closed is not None:
                assert lb_closed_orthogonal(h, x, y, z) == rep.laplacian_closed
                closed += 1
    assert closed > 0


# ---------------------------------------------------------------------------
# Cross-check formulas on random data.

def test_expanded_normal_matches_cross4():
    rng = random.Random(12)
    worst = 0.0
    for _ in range(300):
        x, b, g = (Vec4(*(rng.uniform(-2, 2) for _ in range(4)))
                   for _ in range(3))
        direct = cross4(x, b, g)
        expanded = normal_components_expanded(x, b, g)
        scale = max(1.0, max(abs(v) for v in direct.components()))
        worst = max(worst, max_comp_diff(direct, expanded) / scale)
    assert worst < 1e-12


def test_lagrange_and_contraction_defects():
    rng = random.Random(13)
    for _ in range(200):
        x, y, z, w = (Vec4(*(rng.uniform(-2, 2) for _ in range(4)))
                      for _ in range(4))
        c = cross4(x, y, z)
        assert abs(lagrange_defect(x, y, z)) \
            <= 1e-10 * max(1.0, abs(lorentz_dot(c, c)))
        assert abs(contraction_defect(x, y, z, w)) \
            <= 1e-10 * max(1.0, abs(lorentz_dot(c, w)))


def test_compare_normal_formulas_on_surface():
    h = plane_fixture()
    for x, y, z in [(0.0, 0.0, 0.0), (0.5, -0.5, 0.5), (1.0, 1.0, -1.0)]:
        fr = frame(h, x, y, z)
        direct = cross4(fr.phi_x, fr.phi_y, fr.phi_z).components()
        expanded = normal_components_expanded(
            fr.phi_x, fr.phi_y, fr.phi_z).components()
        scale = max(1.0, max(abs(v) for v in direct))
        assert max(abs(p - q) for p, q in zip(expanded, direct)) \
            < 1e-12 * scale
