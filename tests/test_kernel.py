"""Shape and symmetries of the slice kernel (ruled4.kernel._Slice).

The kernel builds only the vectors that leave it, each as one linear
combination over the slice's coefficients, so the number of Vec4s it
builds per vertex is pinned here.  The Lorentz-covariance test boosts the
curve texts of whole surfaces and checks that the invariants stay put and
the vectors move with the boost.
"""

import json
import math
import random
from dataclasses import replace
from importlib import resources

import pytest

from ruled4.cli import main
from ruled4.expr import CurveSpec
from ruled4.hypersurface import ORTHOGONAL_TOL, SurfaceKind, make_ruled
from ruled4.lorentz import Vec4
from ruled4.kernel import _jets, _Slice
from ruled4.pointwise import (
    GaussMapData,
    _metric,
    curvature_report,
    eval_point,
    first_form,
    frame,
    gauss_map,
    laplace_beltrami,
    lb_closed_orthogonal,
    minimality_residual,
    second_form,
)
from ruled4.mesh import sample_grid
from ruled4.scene import build_hypersurface, load_scene
from ruled4.typedclaims import closed

from support import (
    grid27,
    rand_orthogonal_type1,
    rand_orthogonal_type2_lax,
    rand_strict_surface,
    rand_unconstrained,
)

SHIPPED = ("example1", "exampleE1", "exampleEx3", "dualsphere")


def shipped(name):
    return load_scene(str(resources.files("ruled4.scenes") / f"{name}.json"))


def graded(cfg):
    h = build_hypersurface(cfg)
    return h, [pt for pt in sample_grid(h, cfg).vertices if not pt.flags]


# ---------------------------------------------------------------------------
# Vec4 constructions per vertex

@pytest.mark.parametrize("name,per_report", [
    ("example1", 3), ("exampleE1", 3), ("exampleEx3", 3), ("dualsphere", 3)])
def test_kernel_vec4_constructions(monkeypatch, name, per_report):
    # A vertex builds its position, and the record's vectors: ruling
    # normal, unit normal and Laplacian.  The closed form, which only the
    # claims and the scalar API read, is built by them.
    h, points = graded(shipped(name))
    assert points
    built = [0]
    init = Vec4.__init__

    def counting(self, *components):
        built[0] += 1
        init(self, *components)

    for pt in points:
        x, y, z = pt.params
        s = _Slice(h.kind, x, _jets(h, x))
        monkeypatch.setattr(Vec4, "__init__", counting)
        built[0] = 0
        vertex = s.vertex(y, z)
        assert built[0] == 1 + per_report, pt.params
        monkeypatch.undo()
        assert vertex == pt


# ---------------------------------------------------------------------------
# One kernel: the scalar API is a one-point call into the grid's kernel

@pytest.mark.parametrize("name", SHIPPED)
def test_scalar_api_equals_the_grid_record(name):
    # the same jets give the same slice, so every field agrees bit for bit
    h, points = graded(shipped(name))
    assert points
    for pt in points[::5]:
        x, y, z = pt.params
        rep = curvature_report(h, x, y, z)
        assert (rep.position, rep.metric, rep.gauss_curvature,
                rep.mean_curvature, rep.minimality, rep.laplacian,
                rep.flags) == (
            pt.position, _metric(h.kind, pt[7:15]), pt.gauss_k, pt.mean_h,
            pt.minimality, pt.laplacian, h.warnings)
        assert gauss_map(h, x, y, z) == rep.normal == GaussMapData(
            pt.n_raw, pt.unit, pt.magnitude, pt.character)
        assert first_form(h, x, y, z) == _metric(h.kind, pt[7:15])
        assert second_form(h, x, y, z) == rep.second
        assert minimality_residual(h, x, y, z) == pt.minimality
        assert laplace_beltrami(h, x, y, z) == pt.laplacian
        assert eval_point(h, x, y, z) == frame(h, x, y, z).position \
            == pt.position
        # the closed form and the corollary: from the record's slice, as
        # the lb_closed_form claim evaluates it, and from the record's row
        if h.kind in (SurfaceKind.TYPE1, SurfaceKind.TYPE2) \
                and abs(pt.e) <= ORTHOGONAL_TOL:
            s = _Slice(h.kind, x, _jets(h, x))
            half, = closed(s, y, z, pt.a, pt.b, pt.c, pt.grads, (0.5,))
            assert rep.laplacian_closed == Vec4(*half) \
                == lb_closed_orthogonal(h, x, y, z)
            tau = -s.sigma
            r11, r12, r13 = pt.rn
            assert rep.minimality_orthogonal == (
                r11 + 2.0 * tau * pt.b * r12 + 2.0 * tau * pt.c * r13)
        else:
            assert rep.laplacian_closed is rep.minimality_orthogonal is None


def test_flagged_vertex_keeps_its_position(tmp_path):
    # phi_x = (1 + z, 1, 0, 0) and the normal is (1, 1 + z, 0, x): it is
    # lightlike at x = z = 0, so the kernel fails there after the vertex's
    # position exists, and the vertex table keeps that position
    path = tmp_path / "lightlike.json"
    path.write_text(json.dumps({
        "name": "lightlike", "mode": "type1",
        "curves": {"alpha": ["t", "t", "0", "0"], "beta": ["0", "0", "1", "0"],
                   "gamma": ["t", "0", "0", "1"]},
        "intervals": {"x": [0, 0.5]}, "resolution": [3, 3, 3]}))
    cfg = load_scene(str(path))
    h = build_hypersurface(cfg)
    vertices = sample_grid(h, cfg).vertices
    flagged = [pt for pt in vertices if pt.flags]
    assert [(pt.params, pt.flags) for pt in flagged] == [
        ((0.0, y, 0.0), ("DegenerateNormal",)) for y in (-1.0, 0.0, 1.0)]
    assert len(vertices) - len(flagged) == 24
    for pt in flagged:
        assert pt.position == eval_point(h, *pt.params) \
            == Vec4(0.0, 0.0, pt.params[1], 0.0)
        assert pt.gauss_k is None and pt.magnitude is None


# ---------------------------------------------------------------------------
# K prints as 0.0

@pytest.mark.parametrize("name", SHIPPED)
def test_gauss_curvature_is_positive_zero(name):
    _, points = graded(shipped(name))
    assert points
    assert all(math.copysign(1.0, pt.gauss_k) == 1.0 for pt in points)


def test_mesh_csv_has_no_negative_zero_curvature(tmp_path):
    out = tmp_path / "ex3.csv"
    scene = str(resources.files("ruled4.scenes") / "exampleEx3.json")
    assert main(["mesh", scene, "--format", "csv", "--out", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    k = header.split(",").index("K")
    assert rows
    assert all(row.split(",")[k] != "-0.0" for row in rows)


def test_mesh_json_has_no_negative_zero_laplacian(tmp_path):
    out = tmp_path / "example1.json"
    scene = str(resources.files("ruled4.scenes") / "example1.json")
    assert main(["mesh", scene, "--format", "json", "--out", str(out)]) == 0
    lb = [c for v in json.loads(out.read_text())["vertices"] for c in v["lb"]]
    zeros = [c for c in lb if c == 0.0]
    assert zeros
    assert all(math.copysign(1.0, c) == 1.0 for c in zeros)


# ---------------------------------------------------------------------------
# Lorentz covariance

RAPIDITY = 0.37
CH, SH = math.cosh(RAPIDITY), math.sinh(RAPIDITY)


def boost_curve(curve: CurveSpec) -> CurveSpec:
    c0, c1, c2, c3 = curve.to_texts()
    return CurveSpec.from_strings([f"{CH!r}*({c0}) + {SH!r}*({c1})",
                                   f"{SH!r}*({c0}) + {CH!r}*({c1})", c2, c3])


def boost_vec(v: Vec4) -> Vec4:
    return Vec4(CH * v.c0 + SH * v.c1, SH * v.c0 + CH * v.c1, v.c2, v.c3)


def boost_surface(h):
    return make_ruled(boost_curve(h.alpha), boost_curve(h.beta),
                      boost_curve(h.gamma), h.kind, strict=False)


def near(p: float, q: float) -> bool:
    return abs(p - q) <= 1e-9 * max(1.0, abs(p), abs(q))


def near_vec(u: Vec4, v: Vec4) -> bool:
    scale = max(1.0, *map(abs, u.components()), *map(abs, v.components()))
    return all(abs(p - q) <= 1e-9 * scale
               for p, q in zip(u.components(), v.components()))


def assert_covariant(rep, rep_b):
    # geometry only: the directors' warnings may change under the boost
    assert near(rep.gauss_curvature, rep_b.gauss_curvature)
    assert near(rep.mean_curvature, rep_b.mean_curvature)
    assert near(rep.metric.detg, rep_b.metric.detg)
    assert near(rep.minimality, rep_b.minimality)
    assert near_vec(boost_vec(rep.normal.unit), rep_b.normal.unit)
    assert near_vec(boost_vec(rep.laplacian), rep_b.laplacian)
    assert (rep.laplacian_closed is None) == (rep_b.laplacian_closed is None)
    if rep.laplacian_closed is not None:
        assert near_vec(boost_vec(rep.laplacian_closed), rep_b.laplacian_closed)


@pytest.mark.parametrize("name", ["example1", "exampleE1"])
def test_boost_covariance_on_typed_scenes(name):
    cfg = shipped(name)
    boosted = replace(cfg, curves={k: boost_curve(v)
                                   for k, v in cfg.curves.items()})
    h, points = graded(cfg)
    h_b, points_b = graded(boosted)
    assert points and [pt.params for pt in points] == \
        [pt.params for pt in points_b]
    for pt, pt_b in zip(points, points_b):
        assert_covariant(curvature_report(h, *pt.params),
                         curvature_report(h_b, *pt_b.params))


@pytest.mark.parametrize("seed", [3, 4])
def test_boost_covariance_on_random_surfaces(seed):
    rng = random.Random(seed)
    surfaces = [rand_strict_surface(rng, SurfaceKind.TYPE1),
                rand_strict_surface(rng, SurfaceKind.TYPE2),
                rand_orthogonal_type1(rng),
                rand_orthogonal_type2_lax(rng),
                rand_unconstrained(rng)]
    for h in surfaces:
        hb = boost_surface(h)
        for p in grid27():
            assert_covariant(curvature_report(h, *p), curvature_report(hb, *p))
