"""Shape and symmetries of the per-vertex kernel (_frame_at, _report_at).

The kernel forms each vector it needs as one linear combination over the
frame, so the number of Vec4s it builds per vertex is pinned here.  The
Lorentz-covariance test boosts the curve texts of whole surfaces and checks
that the invariants stay put and the vectors move with the boost.
"""

import json
import math
import random
from dataclasses import replace
from importlib import resources

import pytest

from ruled4.cli import main
from ruled4.expr import CurveSpec
from ruled4.hypersurface import (
    SurfaceKind,
    _frame_at,
    _report_at,
    curvature_report,
    make_ruled,
)
from ruled4.lorentz import Vec4
from ruled4.mesh import walk_grid
from ruled4.scene import build_hypersurface, load_scene

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
    return h, [pt for pt in walk_grid(h, cfg) if pt.report]


# ---------------------------------------------------------------------------
# Vec4 constructions per vertex

@pytest.mark.parametrize("name,per_report", [
    ("example1", 4), ("exampleE1", 4), ("exampleEx3", 3), ("dualsphere", 3)])
def test_kernel_vec4_constructions(monkeypatch, name, per_report):
    # _frame_at: position, phi_x, phi_xx.  _report_at: ruling normal, unit
    # normal, Laplacian, and the closed form where the scene has one.
    h, points = graded(shipped(name))
    assert points
    built = [0]
    init = Vec4.__init__

    def counting(self, *components):
        built[0] += 1
        init(self, *components)

    for pt in points:
        x, y, z = pt.params
        curves = (h.alpha.evaluate(x), h.beta.evaluate(x), h.gamma.evaluate(x))
        monkeypatch.setattr(Vec4, "__init__", counting)
        built[0] = 0
        fr = _frame_at(curves, y, z)
        assert built[0] == 3, pt.params
        built[0] = 0
        rep = _report_at(h, x, y, z, fr)
        assert built[0] == per_report, pt.params
        monkeypatch.undo()
        assert fr == pt.frame and rep == pt.report


# ---------------------------------------------------------------------------
# K prints as 0.0

@pytest.mark.parametrize("name", SHIPPED)
def test_gauss_curvature_is_positive_zero(name):
    _, points = graded(shipped(name))
    assert points
    assert all(math.copysign(1.0, pt.report.gauss_curvature) == 1.0
               for pt in points)


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
                      boost_curve(h.gamma), h.kind, strict=False,
                      x_interval=h.x_interval, y_interval=h.y_interval,
                      z_interval=h.z_interval)


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
    _, points = graded(cfg)
    _, points_b = graded(boosted)
    assert points and [pt.params for pt in points] == \
        [pt.params for pt in points_b]
    for pt, pt_b in zip(points, points_b):
        assert_covariant(pt.report, pt_b.report)


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
        for p in grid27(h):
            assert_covariant(curvature_report(h, *p), curvature_report(hb, *p))
