"""Claim grading: pass / discrepancy / fail verdicts on the shipped scenes."""

import builtins
import importlib
import json
import math
from dataclasses import replace
from importlib import resources

import pytest

from ruled4 import check, kernel, typedclaims
from ruled4.check import (
    CheckReport,
    ClaimResult,
    check_scene,
    report_document,
)
from ruled4.cli import main
from ruled4.crosscheck import lb_closed_full_p
from ruled4.errors import (DirectorConstraintViolated, NonFiniteValue,
                           SingularMetric)
from ruled4.lorentz import Vec4
from ruled4.mesh import mesh_document, sample_grid
from ruled4.pointwise import curvature_report, lb_closed_orthogonal
from ruled4.scene import build_hypersurface, load_scene, scene_from_dict
from ruled4.typedclaims import closed
from support import counting_scene

SHIPPED = ["example1.json", "exampleE1.json", "exampleEx3.json",
           "dualsphere.json"]


def shipped(name):
    return load_scene(str(resources.files("ruled4.scenes") / name))


@pytest.fixture(scope="module")
def example1_report():
    return check_scene(shipped("example1.json"))


@pytest.fixture(scope="module")
def e1_report():
    return check_scene(shipped("exampleE1.json"))


@pytest.fixture(scope="module")
def ex3_report():
    return check_scene(shipped("exampleEx3.json"))


def by_name(report):
    return {c.name: c for c in report.claims}


def test_example1_all_claims_pass(example1_report):
    assert example1_report.exit_code == 0
    assert all(c.verdict == "pass" for c in example1_report.claims)
    names = [c.name for c in example1_report.claims]
    assert names[:6] == ["flatness", "minimality", "laplace_beltrami_zero",
                         "gauss_map_consistency", "metric_consistency",
                         "minimality_linkage"]
    # constant orthogonal directors: the closed-form claims apply
    assert "lb_closed_form" in names
    assert "director_membership" in names
    assert example1_report.warnings == ()


def test_e1_grades_claims_as_discrepancies(e1_report):
    claims = by_name(e1_report)
    assert claims["flatness"].verdict == "pass"
    assert claims["minimality"].verdict == "discrepancy"
    assert claims["laplace_beltrami_zero"].verdict == "discrepancy"
    assert claims["director_membership"].verdict == "discrepancy"
    # internal cross-checks still agree, so nothing is a fail
    assert claims["gauss_map_consistency"].verdict == "pass"
    assert claims["metric_consistency"].verdict == "pass"
    assert claims["minimality_linkage"].verdict == "pass"
    assert e1_report.exit_code == 0
    assert len(e1_report.warnings) == 2


EVERY_SURFACE_FLAT = "every 2-ruled hypersurface has Gauss curvature K = 0"


@pytest.mark.parametrize("flat, verdict, paper_claim", [
    (True, "pass", EVERY_SURFACE_FLAT),
    (None, "pass", EVERY_SURFACE_FLAT),
    (False, "discrepancy", "the surface is not flat"),
], ids=["true", "absent", "false"])
def test_flatness_grades_the_flat_claim(flat, verdict, paper_claim):
    doc = json.loads(
        (resources.files("ruled4.scenes") / "example1.json").read_text())
    if flat is None:
        del doc["claims"]["flat"]
    else:
        doc["claims"]["flat"] = flat
    cfg = scene_from_dict(doc)
    report = check_scene(cfg)
    claim = by_name(report)["flatness"]
    assert (claim.verdict, claim.paper_claim) == (verdict, paper_claim)
    assert report.exit_code == 0
    # a nonzero K contradicts the structural zero: a fault under any claim
    session = check._Session(cfg)
    session.graded[0] = session.graded[0]._replace(gauss_k=1e-3)
    assert check._claim_flatness(session).verdict == "fail"


def test_e1_minimality_samples_pin_h11(e1_report):
    claims = by_name(e1_report)
    samples = claims["minimality"].details["samples"]
    at_one = [s for s in samples if s["point"][0] == 1.0]
    assert at_one
    for s in at_one:
        assert abs(s["h11_raw"] - 0.3703023298811914) < 1e-10
        assert abs(s["H"]) > 1e-9  # measurably nonminimal


def test_e1_closed_form_weights_discrepancy(e1_report):
    claims = by_name(e1_report)
    assert claims["lb_closed_form"].verdict == "pass"
    weights = claims["lb_closed_form_weights"]
    assert weights.verdict == "discrepancy"
    assert weights.details["full_weight_gap"] > 1e-3
    assert weights.details["half_weight_gap"] <= 1e-8


def test_e1_strict_override_raises():
    # exampleE1's directors leave their model spaces, which a strict scene
    # refuses
    path = resources.files("ruled4.scenes") / "exampleE1.json"
    raw = json.loads(path.read_text(encoding="utf-8"))
    with pytest.raises(DirectorConstraintViolated):
        check_scene(scene_from_dict({**raw, "strict": True}))


def test_ex3_reference_and_probe(ex3_report):
    claims = by_name(ex3_report)
    assert claims["flatness"].verdict == "pass"
    assert claims["construction_equivalence"].verdict == "pass"
    # the generating curves are not unit/orthogonal under the Lorentz product
    assert claims["construction_hypotheses"].verdict == "discrepancy"
    assert claims["construction_hypotheses"].details["advisories"]

    ref = claims["reference_curves"]
    assert ref.verdict == "discrepancy"
    per = ref.details["per_curve_component_deviation"]
    assert max(per["s_director"]) < 1e-9       # matches exactly
    assert per["r_director"][3] == pytest.approx(2.0, abs=1e-9)
    assert max(per["alpha"]) > 0.5             # printed base curve deviates

    probe = claims["alpha_probe"]
    assert probe.verdict == "discrepancy"
    assert probe.details["matched"] == []
    assert len(probe.details["max_deviation_per_candidate"]) == 8
    assert all(v > 1e-9
               for v in probe.details["max_deviation_per_candidate"].values())


def test_dualsphere_all_pass():
    report = check_scene(shipped("dualsphere.json"))
    assert report.exit_code == 0
    assert all(c.verdict == "pass" for c in report.claims)
    names = [c.name for c in report.claims]
    assert "construction_hypotheses" in names
    assert "construction_equivalence" in names
    assert "alpha_probe" not in names  # no reference block


def _dualsphere_with_a0(text):
    """dualsphere on [0, 1] by 4 x 3 x 3 with a's first component text."""
    doc = json.loads(
        (resources.files("ruled4.scenes") / "dualsphere.json").read_text())
    doc["curves"]["a"][0] = text
    doc["intervals"]["t"] = [0, 1]
    doc["resolution"] = [4, 3, 3]
    return scene_from_dict(doc)


@pytest.mark.parametrize("a0", ["0", "(0) + 0*(t - 0.5)^-1"])
def test_skipped_advisory_sample_is_no_hypothesis_violation(a0):
    # t = 0.5 is one of the 33 advisory samples of [0, 1], but no grid
    # sample: the skip stays a warning and the hypotheses still hold
    report = check_scene(_dualsphere_with_a0(a0))
    skipped = ("advisory checks skipped 1 of 33 samples, where a curve is "
               "undefined or its <p, p> overflows")
    assert (skipped in report.warnings) == (a0 != "0")
    claim = by_name(report)["construction_hypotheses"]
    assert (claim.verdict, claim.computed) == ("pass", "hypotheses hold")
    assert claim.details["advisories"] == []
    assert report.exit_code == 0


def test_hypotheses_over_no_advisory_sample_are_inconclusive():
    report = check_scene(_dualsphere_with_a0("0*(t - t)^-1"))
    assert report.warnings == ("advisory checks skipped 33 of 33 samples, "
                               "where a curve is undefined or its <p, p> "
                               "overflows",)
    claim = by_name(report)["construction_hypotheses"]
    assert claim.verdict == "inconclusive"
    assert claim.computed == "no advisory sample could be evaluated"
    assert claim.details["advisories"] == []
    assert report.exit_code == 1


def _example1_with_beta(beta):
    """example1, strict as shipped, with director beta's components."""
    doc = json.loads(
        (resources.files("ruled4.scenes") / "example1.json").read_text())
    doc["curves"]["beta"] = beta
    return scene_from_dict(doc)


@pytest.mark.parametrize("beta", [
    ["0*(t - t)^-1", "0", "0", "0"],    # undefined at every x
    ["1e200", "1e200", "0", "0"],       # <beta, beta> overflows
], ids=["undefined", "overflow"])
def test_director_membership_over_no_sample_is_inconclusive(beta):
    report = check_scene(_example1_with_beta(beta))
    assert report.warnings == ("advisory checks skipped 33 of 33 samples, "
                               "where a curve is undefined or its <p, p> "
                               "overflows",)
    claim = by_name(report)["director_membership"]
    assert claim.verdict == "inconclusive"
    assert claim.computed == "no director sample could be evaluated"
    assert claim.details == {"directors": []}
    assert report.exit_code == 1
    # the JSON writer refuses NaN, so no non-finite number reached it
    json.loads(report.to_json())


def test_exit_code_reflects_only_fail():
    ok = ClaimResult("a", "claim", "computed", "pass")
    disc = ClaimResult("b", "claim", "computed", "discrepancy")
    bad = ClaimResult("c", "claim", "computed", "fail")
    assert CheckReport("s", "type1", (ok, disc), ()).exit_code == 0
    assert CheckReport("s", "type1", (ok, disc, bad), ()).exit_code == 1
    vague = ClaimResult("d", "claim", "computed", "inconclusive")
    assert CheckReport("s", "type1", (ok, disc, vague), ()).exit_code == 1


GRID_CLAIMS = ["flatness", "minimality", "laplace_beltrami_zero",
               "gauss_map_consistency", "metric_consistency",
               "minimality_linkage"]


def test_claims_over_zero_points_are_inconclusive(tmp_path):
    # example1 with alpha scaled by 1e-7 is still a regular flat plane, but
    # det g ~ 1e-14 falls under the absolute SingularMetric tolerance, so
    # every vertex is flagged and the grid claims have nothing to grade.
    raw = json.loads((resources.files("ruled4.scenes")
                      / "example1.json").read_text())
    raw["curves"]["alpha"] = [f"({c})*1e-7" for c in raw["curves"]["alpha"]]
    cfg = scene_from_dict(raw)
    mesh = sample_grid(build_hypersurface(cfg), cfg)
    assert {v.flags for v in mesh.vertices} == {("SingularMetric",)}

    report = check_scene(cfg)
    claims = by_name(report)
    for name in GRID_CLAIMS:
        assert claims[name].verdict == "inconclusive", name
    assert "over 0 points" in claims["flatness"].computed
    assert claims["director_membership"].verdict == "pass"
    assert report.exit_code == 1

    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(raw))
    assert main(["check", str(path), "--out", str(tmp_path / "c.json")]) == 1


def test_report_wire_format(example1_report):
    doc = example1_report.to_dict()
    assert set(doc) == {"scene", "mode", "warnings", "claims", "exit_code"}
    claim = doc["claims"][0]
    assert set(claim) == {"name", "paper_claim", "computed", "verdict",
                          "details"}
    parsed = json.loads(example1_report.to_json())
    assert parsed["scene"] == "affine-plane-type1"


def test_report_document_includes_mesh():
    for name in SHIPPED:
        cfg = shipped(name)
        doc = report_document(cfg)
        assert set(doc) == {"scene", "mode", "warnings", "claims",
                            "exit_code", "mesh"}
        nx, ny, nz = cfg.resolution
        assert len(doc["mesh"]["vertices"]) == nx * ny * nz
        text = json.dumps(doc, allow_nan=False)
        assert json.loads(text)["mesh"]["resolution"] == list(cfg.resolution)
        assert doc["mesh"] == mesh_document(
            sample_grid(build_hypersurface(cfg), cfg)), name
        assert doc["claims"] == check_scene(cfg).to_dict()["claims"], name


@pytest.mark.parametrize("name", SHIPPED)
def test_flatness_is_structural(name):
    # the ruling block of the second form is literal zeros, so det h and K
    # are exactly zero, not rounding noise under FLAT_TOL
    cfg = shipped(name)
    graded = [pt for pt in sample_grid(build_hypersurface(cfg), cfg).vertices
              if not pt.flags]
    assert graded
    assert all(pt.gauss_k == 0.0 for pt in graded)
    assert by_name(check_scene(cfg))["flatness"].details["max_abs_K"] == 0.0


@pytest.mark.parametrize("name", ["exampleEx3.json", "dualsphere.json"])
def test_check_evaluations_do_not_grow_with_the_ruling_grid(name):
    # every claim evaluates the curves per x sample, never per vertex
    cfg = shipped(name)
    nx, ny, nz = cfg.resolution
    counts = []
    for resolution in ((nx, ny, nz), (nx, ny + 2, nz + 2)):
        counted, counter = counting_scene(replace(cfg, resolution=resolution))
        check_scene(counted)
        counts.append(counter[0])
    assert counts[0] == counts[1]


def test_reference_claim_reads_the_walked_curves():
    # 99 evaluations build the surface, the walk makes 3 per x sample (u,
    # v, w for alpha; beta = w and gamma = v reuse theirs), and the
    # construction and alpha-probe claims share 3 per x; reference_curves
    # makes none
    counted, counter = counting_scene(shipped("exampleEx3.json"))
    check_scene(counted)
    assert counted.resolution[0] == 25
    assert counter[0] == 99 + (3 + 3) * 25


def test_check_computes_metric_gradients_once_per_vertex(monkeypatch):
    # the full-weight lb_closed_form probe reuses the walk's gradients
    calls = [0]
    forms = kernel._Slice.forms

    def counting(*args):
        calls[0] += 1
        return forms(*args)

    monkeypatch.setattr(kernel._Slice, "forms", counting)
    cfg = shipped("exampleE1.json")
    assert "lb_closed_form" in by_name(check_scene(cfg))
    nx, ny, nz = cfg.resolution
    assert calls[0] == nx * ny * nz == 27


def test_report_document_evaluates_curves_as_often_as_check():
    for name in SHIPPED:
        counted, counter = counting_scene(shipped(name))
        check_scene(counted)
        check_evals, counter[0] = counter[0], 0
        report_document(counted)
        assert counter[0] == check_evals, name


# ---------------------------------------------------------------------------
# The cross-check claims grade a corrupted vertex as a fault

def _nudge_vertex(cfg, part):
    """A session over cfg whose middle graded vertex has `part` moved 1e-6."""
    session = check._Session(cfg)
    pt = session.graded[len(session.graded) // 2]
    shift = Vec4(1e-6, 0.0, 0.0, 0.0)
    if part == "position":
        pt2 = pt._replace(position=pt.position + shift)
    elif part == "n_raw":
        pt2 = pt._replace(n_raw=pt.n_raw + shift)
    elif part == "laplacian":
        pt2 = pt._replace(laplacian=pt.laplacian + shift)
    else:
        pt2 = pt._replace(detg=pt.detg + 1e-6)
    x = pt.params[0]
    row = next(points for at, _, points in session.slices if at == x)
    for points in (row, session.graded):
        points[points.index(pt)] = pt2
    return session


def _verdict(claim, session):
    """The verdict on session of `claim`, module.name: check's cross-check
    claims, or the claims of a per-kind module."""
    module, name = claim.split(".")
    grade = (check._claim_consistency if module == "check"
             else importlib.import_module(f"ruled4.{module}").claims)
    return {c.name: c for c in grade(session)}[name].verdict


@pytest.mark.parametrize("scene, part, claim", [
    ("exampleEx3.json", "position", "octoclaims.construction_equivalence"),
    ("dualsphere.json", "position", "octoclaims.construction_equivalence"),
    ("exampleEx3.json", "n_raw", "check.gauss_map_consistency"),
    ("example1.json", "n_raw", "check.gauss_map_consistency"),
    ("exampleEx3.json", "detg", "check.metric_consistency"),
    ("exampleE1.json", "detg", "check.metric_consistency"),
    ("example1.json", "laplacian", "typedclaims.lb_closed_form"),
    ("exampleE1.json", "laplacian", "typedclaims.lb_closed_form"),
])
def test_cross_checks_fail_on_a_perturbed_vertex(scene, part, claim):
    cfg = shipped(scene)
    assert _verdict(claim, check._Session(cfg)) == "pass"
    assert _verdict(claim, _nudge_vertex(cfg, part)) == "fail"


@pytest.mark.parametrize("scene", ["example1.json", "exampleE1.json"])
def test_lb_closed_orthogonal_equals_the_check_path_bit_for_bit(scene):
    # lb_closed_form grades typedclaims.closed's floats against the walk's
    # Laplacian; the scalar API wraps the same floats in a Vec4
    session = check._Session(shipped(scene))
    assert session.graded
    slices = {x: s for x, s, _ in session.slices}
    for pt in session.graded:
        x, y, z = pt.params
        half, full = closed(slices[x], y, z, pt.a, pt.b, pt.c, pt.grads,
                            (0.5, 1.0))
        h = session.surface
        assert lb_closed_orthogonal(h, x, y, z).components() == tuple(half)
        assert lb_closed_full_p(h, x, y, z).components() == tuple(full)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_lb_closed_form_counts_a_non_finite_closed_form(monkeypatch, bad):
    # closed screens its floats once: a graded vertex whose closed form is
    # not finite is counted by the closed-form claims alone, never graded
    # by them, and never aborts the session
    session = check._Session(shipped("exampleE1.json"))
    assert len(session.graded) == 27
    exact = {c.name: c for c in typedclaims.claims(session)}
    span = kernel._Slice._span

    def spoiled(*args):
        return [*span(*args)[:3], bad]

    monkeypatch.setattr(kernel._Slice, "_span", spoiled)
    pt = session.graded[0]
    s = next(sl for x, sl, _ in session.slices if x == pt.params[0])
    with pytest.raises(NonFiniteValue):
        typedclaims.closed(s, *pt.params[1:], pt.a, pt.b, pt.c, pt.grads,
                           (0.5,))
    assert typedclaims.orthogonal(s, pt, (0.5,))[1] is None
    claims = {c.name: c for c in typedclaims.claims(session)}
    for name in ("lb_closed_form", "lb_closed_form_weights"):
        assert exact[name].details["points_without_closed_form"] == 0
        assert exact[name].verdict != "inconclusive"
        assert claims[name].verdict == "inconclusive"
        assert claims[name].details["points_without_closed_form"] == 27
    assert claims["director_membership"] == exact["director_membership"]


def test_lb_closed_form_counts_a_vanishing_q(monkeypatch):
    # where Q = a - sigma (b^2 + c^2) is under the singular-metric tolerance
    # the closed form does not exist: the claims count the vertex, and the
    # scalar API reports no closed form there but keeps the corollary
    monkeypatch.setattr(typedclaims, "SINGULAR_METRIC_TOL", math.inf)
    session = check._Session(shipped("exampleE1.json"))
    claims = {c.name: c for c in typedclaims.claims(session)}
    for name in ("lb_closed_form", "lb_closed_form_weights"):
        assert claims[name].verdict == "inconclusive"
        assert claims[name].details["points_without_closed_form"] == 27
    h, (x, y, z) = session.surface, session.graded[0].params
    rep = curvature_report(h, x, y, z)
    assert rep.laplacian_closed is None
    assert rep.minimality_orthogonal is not None
    with pytest.raises(SingularMetric):
        lb_closed_orthogonal(h, x, y, z)


# ---------------------------------------------------------------------------
# The cross-check claims do not read the kernel's tables: corrupting one
# table after the kernel builds it must fail the claim that checks it.  The
# raw second-form row `_rn` has no independent check yet: H and the
# minimality residual both come from it, so minimality_linkage cannot see a
# wrong row until it gets a route of its own (ROADMAP item 1).

def _corrupt(monkeypatch, table):
    """Every _Slice built from here on has `table`'s first entry moved 1e-6."""
    build = kernel._Slice.__init__

    def corrupted(self, *args):
        build(self, *args)
        first, *rest = getattr(self, table)
        setattr(self, table, (first + 1e-6, *rest))

    monkeypatch.setattr(kernel._Slice, "__init__", corrupted)


@pytest.mark.parametrize("scene", ["example1.json", "exampleE1.json",
                                   "exampleEx3.json"])
@pytest.mark.parametrize("table, claim", [
    ("_nrm", "gauss_map_consistency"),      # the normal's constant term
    ("_forms", "metric_consistency"),       # the a-quadratic's constant term
])
def test_cross_checks_fail_on_a_corrupted_kernel_table(monkeypatch, scene,
                                                        table, claim):
    cfg = shipped(scene)
    assert by_name(check_scene(cfg))[claim].verdict == "pass"
    _corrupt(monkeypatch, table)
    assert by_name(check_scene(cfg))[claim].verdict == "fail"


# ---------------------------------------------------------------------------
# Output bytes do not depend on how sum() rounds

_BUILTIN_SUM = builtins.sum


def _plain_sum(values, start=0):
    """Left-to-right float sum, as built-in sum() is up to Python 3.11."""
    values = list(values)
    if not all(isinstance(v, float) for v in values):
        return _BUILTIN_SUM(values, start)
    total = start
    for v in values:
        total += v
    return total


def _compensated_sum(values, start=0):
    """Neumaier-compensated float sum, as built-in sum() is from 3.12 on."""
    values = list(values)
    if not all(isinstance(v, float) for v in values):
        return _BUILTIN_SUM(values, start)
    total, compensation = float(start), 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            compensation += (total - t) + v
        else:
            compensation += (v - t) + total
        total = t
    return total + compensation


@pytest.mark.parametrize("name", ["exampleEx3.json", "dualsphere.json"])
def test_report_does_not_depend_on_sum_rounding(monkeypatch, name):
    cfg = shipped(name)
    lines = []
    for summed in (_plain_sum, _compensated_sum):
        monkeypatch.setattr(builtins, "sum", summed)
        lines.append(json.dumps(report_document(cfg), indent=2).splitlines())
        monkeypatch.undo()
    plain, compensated = lines
    changed = [a for a, b in zip(plain, compensated) if a != b]
    assert len(plain) == len(compensated) and not changed, changed[:3]
