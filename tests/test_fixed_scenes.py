"""The fixed scenes under tests/scenes, each a fault once found by hand.

Every command runs them without an error: check, report and mesh agree on
whether a scene can be processed, on which vertices are flagged and why,
and so does the scalar API.  The tests after the first pin what each scene
once got wrong.
"""

import json
import math

import pytest

from ruled4 import check
from ruled4.errors import NonFiniteValue, Ruled4Error
from ruled4.expr import CurveSpec
from ruled4.octo import star_point, star_point_dual
from ruled4.pointwise import curvature_report, lb_closed_orthogonal
from ruled4.scene import load_scene
from support import FIXED_SCENES, run_cli

SCENES = sorted(FIXED_SCENES.glob("*.json"))


def commands(path, folder):
    """{command: its output text} for check, report and mesh --format csv,
    each run as a child that must exit 0 or 1 and write nothing to stderr."""
    out = {}
    for command, extra in (("check", []), ("report", []),
                           ("mesh", ["--format", "csv"])):
        target = folder / command
        proc = run_cli([command, str(path), *extra, "--out", str(target)])
        assert (proc.returncode, proc.stderr) in ((0, ""), (1, "")), \
            (command, proc.returncode, proc.stderr)
        out[command] = target.read_text()
    return out


@pytest.mark.parametrize("path", SCENES, ids=[p.stem for p in SCENES])
def test_commands_agree_on_a_fixed_scene(tmp_path, path):
    out = commands(path, tmp_path)
    checked, reported = json.loads(out["check"]), json.loads(out["report"])
    assert reported["claims"] == checked["claims"]
    assert reported["exit_code"] == checked["exit_code"]
    # each vertex's flags, as mesh writes them and as the check session
    # graded them
    _, *rows = out["mesh"].splitlines()
    meshed = {}
    for row in rows:
        cells = row.split(",")
        meshed[tuple(float(c) for c in cells[:3])] = \
            tuple(cells[-1].split(";")) if cells[-1] else ()
    cfg = load_scene(str(path))
    session = check._Session(cfg)
    graded = {pt.params: pt.flags
              for _, _, points in session.slices for pt in points}
    assert graded == meshed
    assert [tuple(v["flags"]) for v in reported["mesh"]["vertices"]] == \
        list(graded.values())
    # the scalar API raises exactly where mesh flags, with the flag's name
    for params, flags in meshed.items():
        try:
            curvature_report(session.surface, *params)
        except Ruled4Error as exc:
            assert (type(exc).__name__,) == flags, params
        else:
            assert flags == (), params


def test_a_closed_form_overflow_is_counted_for_its_claims_alone(tmp_path):
    # example1 with alpha = (0, 1e145 sin(1e8 t), 0, 0): at x = 0 the
    # vertices are regular, but the orthogonal closed form overflows there
    path = FIXED_SCENES / "closed_form_overflow.json"
    claims = {c["name"]: c
              for c in json.loads(commands(path, tmp_path)["check"])["claims"]}
    for name in ("lb_closed_form", "lb_closed_form_weights"):
        assert claims[name]["verdict"] == "inconclusive"
        assert claims[name]["details"]["points_without_closed_form"] == 9
    # Defect A (ROADMAP item 1): the metric's inverse loses every digit
    assert claims["metric_consistency"]["verdict"] == "fail"
    session = check._Session(load_scene(str(path)))
    assert [pt.params[0] for pt in session.graded] == [0.0] * 9
    for pt in session.graded:
        rep = curvature_report(session.surface, *pt.params)
        assert rep.laplacian_closed is None
        assert math.isfinite(rep.minimality_orthogonal)
        with pytest.raises(NonFiniteValue):
            lb_closed_orthogonal(session.surface, *pt.params)


def test_an_overflowing_star_product_skips_its_slice(tmp_path):
    # <u, w> = -1e400 overflows the star product's scalar part on every
    # slice, while mesh places every vertex that the walk can
    path = FIXED_SCENES / "star_scalar_overflow.json"
    u, v, w = (CurveSpec.from_strings(c) for c in (
        ["1e200", "t", "0", "0"], ["0", "1", "0", "0"],
        ["1e200", "0", "0", "0"]))
    with pytest.raises(NonFiniteValue):
        star_point(u, v, w, 0.5, 0.0, 0.0)
    claims = {c["name"]: c
              for c in json.loads(commands(path, tmp_path)["check"])["claims"]}
    equivalence = claims["construction_equivalence"]
    assert equivalence["verdict"] == "inconclusive"
    assert equivalence["details"]["slices_without_star_product"] == 3


@pytest.mark.parametrize("name, star", [
    ("star_sum_overflow", star_point),
    ("star_sum_overflow_dual", star_point_dual),
])
def test_an_overflowing_star_sum_skips_its_slice(tmp_path, name, star):
    # each star product's scalar part is finite, near 1.5e308, but their
    # sum overflows on every slice
    path = FIXED_SCENES / f"{name}.json"
    cfg = load_scene(str(path))
    for t in (0.0, 0.5, 1.0):
        with pytest.raises(NonFiniteValue):
            star(*cfg.curves.values(), t, 0.0, 0.0)
    claims = {c["name"]: c
              for c in json.loads(commands(path, tmp_path)["check"])["claims"]}
    equivalence = claims["construction_equivalence"]
    assert equivalence["verdict"] == "inconclusive"
    assert equivalence["details"]["slices_without_star_product"] == 3


def test_an_undefined_reference_sample_is_skipped(tmp_path):
    # the published alpha divides by t - pi, and t = pi is the middle
    # sample of exampleEx3's interval at three x samples
    path = FIXED_SCENES / "undefined_reference.json"
    doc = json.loads(commands(path, tmp_path)["check"])
    assert doc["exit_code"] == 0
    claims = {c["name"]: c for c in doc["claims"]}
    for name in ("reference_curves", "alpha_probe"):
        details = claims[name]["details"]
        assert claims[name]["verdict"] == "discrepancy", name
        assert (details["samples"], details["samples_skipped"]) == (2, 1)
