"""Construction of ruled surfaces from ternary products of vector curves."""

import math

import pytest
import sympy

from ruled4.errors import NonUnitI
from ruled4.expr import CurveSpec
from ruled4.hypersurface import SurfaceKind
from ruled4.lorentz import DEFAULT_I, Vec4, cross4, lorentz_dot
from ruled4.octo import (
    PairCrossCurve,
    construct_from_dual_curves,
    construct_from_octonions,
    star_point,
    star_point_dual,
)
from ruled4.pointwise import curvature_report, eval_point

from support import max_comp_diff


U_TEXTS = ["t^2/3", "cos(t)", "sin(t)", "t/2"]
V_TEXTS = ["sin(2*t)/2", "t", "cosh(t/3)", "1"]
W_TEXTS = ["exp(t/5)", "t^3/10", "0", "sin(t)"]

# unit, pairwise Lorentz-orthogonal, and never parallel: the advisory
# checks stay quiet for this family
CLEAN_U = ["0", "cos(t)", "sin(t)", "0"]
CLEAN_V = ["0", "-sin(t)", "cos(t)", "0"]
CLEAN_W = ["0", "0", "0", "1"]

EX3_U = ["-cos(t)*cos(2*t)", "cos(t)*sin(2*t)", "0", "0"]
EX3_V = ["cos(t)*sin(2*t)", "sin(t)*sin(2*t)", "sin(t)", "-cos(t)"]
EX3_W = ["sin(t)*sin(2*t)", "sin(t)*cos(2*t)", "cos(t)", "sin(t)"]


def curve(texts):
    return CurveSpec.from_strings(texts)


def sym_vec(texts, t):
    subs = {"t": t, "e": sympy.E, "pi": sympy.pi}
    return sympy.Matrix([sympy.sympify(s.replace("^", "**"), locals=subs)
                         for s in texts])


def sym_cross4(x, y, z):
    rows = sympy.Matrix([list(x), list(y), list(z)])
    minors = [rows[:, [c for c in range(4) if c != k]].det()
              for k in range(4)]
    return sympy.Matrix([-minors[0], -minors[1], minors[2], -minors[3]])


def test_pair_cross_position_is_sum_of_crosses():
    u, v, w = curve(U_TEXTS), curve(V_TEXTS), curve(W_TEXTS)
    alpha = PairCrossCurve(((u, v), (u, w)))
    for t in (-1.0, 0.25, 1.3):
        pos, _, _ = alpha.evaluate(t)
        pu, pv, pw = (c.evaluate(t)[0] for c in (u, v, w))
        expect = cross4(pu, pv, DEFAULT_I) + cross4(pu, pw, DEFAULT_I)
        assert max_comp_diff(pos, expect) == 0.0


def test_pair_cross_jets_match_symbolic_derivatives():
    t = sympy.Symbol("t")
    su, sv, sw = (sym_vec(txt, t) for txt in (U_TEXTS, V_TEXTS, W_TEXTS))
    s_i = sympy.Matrix([0, 0, 0, 1])
    s_alpha = sym_cross4(su, sv, s_i) + sym_cross4(su, sw, s_i)
    funcs = [sympy.lambdify(t, list(expr), "math")
             for expr in (s_alpha, s_alpha.diff(t), s_alpha.diff(t, 2))]

    alpha = PairCrossCurve(((curve(U_TEXTS), curve(V_TEXTS)),
                            (curve(U_TEXTS), curve(W_TEXTS))))
    for tv in (-1.0, -0.3, 0.2, 0.8, 1.5):
        jets = alpha.evaluate(tv)
        for got, fn in zip(jets, funcs):
            want = [float(c) for c in fn(tv)]
            scale = max(1.0, max(abs(c) for c in want))
            diff = max(abs(a - b) for a, b in zip(got.components(), want))
            assert diff < 1e-9 * scale


def test_clean_family_builds_without_warnings():
    h = construct_from_octonions(curve(CLEAN_U), curve(CLEAN_V),
                                 curve(CLEAN_W))
    assert h.warnings == ()
    assert h.kind is SurfaceKind.UNCONSTRAINED
    # ruling roles: first ruling coordinate scales w, second scales v
    t = 0.7
    pw = curve(CLEAN_W).evaluate(t)[0]
    pv = curve(CLEAN_V).evaluate(t)[0]
    assert max_comp_diff(h.beta.evaluate(t)[0], pw) == 0.0
    assert max_comp_diff(h.gamma.evaluate(t)[0], pv) == 0.0


def test_trig_family_base_curve_pinned_at_zero():
    h = construct_from_octonions(curve(EX3_U), curve(EX3_V), curve(EX3_W),
                                 x_interval=(0.0, 2.0 * math.pi))
    pos, _, _ = h.alpha.evaluate(0.0)
    assert max_comp_diff(pos, Vec4(0.0, 1.0, 0.0, 0.0)) < 1e-15


def test_constructed_surface_is_flat():
    h = construct_from_octonions(curve(U_TEXTS), curve(V_TEXTS),
                                 curve(W_TEXTS))
    for pt in ((0.3, 0.5, 0.5), (-0.6, -0.4, 0.8), (1.0, 0.2, -0.7)):
        rep = curvature_report(h, *pt)
        assert abs(rep.gauss_curvature) < 1e-12


def test_advisory_nonunit_and_nonorthogonal():
    two_u = curve(["0", "2*cos(t)", "2*sin(t)", "0"])
    h = construct_from_octonions(two_u, curve(CLEAN_V), curve(CLEAN_W))
    assert any("curve u is not unit" in w for w in h.warnings)
    # same circle for u and v: unit, but <u,v> = 1 everywhere
    h2 = construct_from_octonions(curve(CLEAN_U), curve(CLEAN_U),
                                  curve(CLEAN_W))
    assert any("curves u and v are not orthogonal" in w for w in h2.warnings)


def test_dual_norm_selects_the_advisory_product():
    # unit timelike under the Lorentz product, not unit under the
    # Euclidean one
    boosted = curve(["sinh(1/2)", "cosh(1/2)", "0", "0"])
    lorentz = construct_from_octonions(boosted, curve(CLEAN_V),
                                       curve(CLEAN_W), dual_norm="lorentz")
    assert not any("curve u is not unit" in w for w in lorentz.warnings)
    euclid = construct_from_octonions(boosted, curve(CLEAN_V),
                                      curve(CLEAN_W), dual_norm="euclid")
    assert any("curve u is not unit under the euclid" in w
               for w in euclid.warnings)


@pytest.mark.parametrize("flip", [1.0, -1.0])
def test_degenerate_ruling_warning(flip):
    v = curve(CLEAN_V)
    w = curve(["0", f"{flip}*(-sin(t))", f"{flip}*cos(t)", "0"])
    h = construct_from_octonions(curve(CLEAN_U), v, w)
    assert any("degenerates to a line" in w for w in h.warnings)


def test_non_unit_reference_vector_rejected():
    bad = Vec4(0.0, 0.0, 0.0, 2.0)
    with pytest.raises(NonUnitI):
        construct_from_octonions(curve(CLEAN_U), curve(CLEAN_V),
                                 curve(CLEAN_W), i_vec=bad)
    with pytest.raises(NonUnitI):
        construct_from_dual_curves(curve(CLEAN_U), curve(CLEAN_V),
                                   curve(CLEAN_U), curve(CLEAN_V), i_vec=bad)
    # timelike unit reference is allowed
    h = construct_from_octonions(curve(CLEAN_U), curve(CLEAN_V),
                                 curve(CLEAN_W), i_vec=Vec4(1.0, 0.0, 0.0, 0.0))
    assert h.kind is SurfaceKind.UNCONSTRAINED


def test_star_point_matches_surface_and_scalar_defect():
    u, v, w = curve(U_TEXTS), curve(V_TEXTS), curve(W_TEXTS)
    h = construct_from_octonions(u, v, w)
    for t in (-0.8, 0.1, 0.9):
        pu = u.evaluate(t)[0]
        pv = v.evaluate(t)[0]
        pw = w.evaluate(t)[0]
        for (y, z) in ((0.0, 0.0), (0.5, -1.0), (-0.25, 0.75)):
            star = star_point(u, v, w, t, y, z)
            direct = eval_point(h, t, y, z)
            scale = max(1.0, max(abs(c) for c in direct.components()))
            assert max_comp_diff(star.vector, direct) < 1e-12 * scale
            expected_scalar = -(lorentz_dot(pu, pw) + lorentz_dot(pu, pv))
            assert star.scalar == expected_scalar


def test_star_point_scalar_vanishes_for_orthogonal_family():
    u, v, w = curve(CLEAN_U), curve(CLEAN_V), curve(CLEAN_W)
    for t in (0.0, 0.5, 2.0):
        star = star_point(u, v, w, t, 0.3, -0.4)
        assert star.scalar == 0.0


def test_dual_construction_roles_and_star_equivalence():
    a = curve(["0", "cos(t)", "sin(t)", "0"])
    a_star = curve(["0", "-sin(t)", "cos(t)", "0"])
    b = curve(["0", "0", "cos(t)", "sin(t)"])
    b_star = curve(["0", "0", "-sin(t)", "cos(t)"])
    h = construct_from_dual_curves(a, a_star, b, b_star)
    assert h.kind is SurfaceKind.UNCONSTRAINED
    t = 0.35
    assert max_comp_diff(h.beta.evaluate(t)[0], a.evaluate(t)[0]) == 0.0
    assert max_comp_diff(h.gamma.evaluate(t)[0], b.evaluate(t)[0]) == 0.0
    for (y, z) in ((0.4, 0.9), (-0.5, 0.25)):
        star = star_point_dual(a, a_star, b, b_star, t, y, z)
        direct = eval_point(h, t, y, z)
        scale = max(1.0, max(abs(c) for c in direct.components()))
        assert max_comp_diff(star.vector, direct) < 1e-12 * scale
        pa, pas = a.evaluate(t)[0], a_star.evaluate(t)[0]
        pb, pbs = b.evaluate(t)[0], b_star.evaluate(t)[0]
        expected = -(lorentz_dot(pa, pas) + lorentz_dot(pb, pbs))
        assert star.scalar == expected


def test_dual_unit_sphere_advisory():
    a = curve(["0", "cos(t)", "sin(t)", "0"])
    a_star = curve(["0", "-sin(t)", "cos(t)", "0"])
    b = curve(["0", "0", "cos(t)", "sin(t)"])
    tilted = curve(["0", "0", "cos(t)", "2*sin(t)"])  # <b, b*> != 0
    h = construct_from_dual_curves(a, a_star, b, tilted)
    assert any("dual curve b leaves the dual unit sphere" in w
               for w in h.warnings)
    clean = construct_from_dual_curves(
        a, a_star, b, curve(["0", "0", "-sin(t)", "cos(t)"]))
    assert not any("dual unit sphere" in w for w in clean.warnings)
