"""End-to-end runs of the ruled4 command-line interface."""

import json
import math
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from ruled4.check import check_scene, report_document
from ruled4.cli import main
from ruled4.mesh import mesh_document, sample_grid
from ruled4.scene import build_hypersurface, load_scene

SRC = str(Path(__file__).resolve().parents[1] / "src")


def scene(name):
    return str(resources.files("ruled4.scenes") / name)


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "ruled4.cli", *args],
                          capture_output=True, text=True, **kwargs)


def test_check_example1_exits_zero():
    proc = run_cli(["check", scene("example1.json")])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["scene"] == "affine-plane-type1"
    assert all(c["verdict"] == "pass" for c in doc["claims"])


def test_check_e1_reports_discrepancies_but_exits_zero():
    proc = run_cli(["check", scene("exampleE1.json")])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    verdicts = {c["name"]: c["verdict"] for c in doc["claims"]}
    assert verdicts["minimality"] == "discrepancy"
    assert verdicts["laplace_beltrami_zero"] == "discrepancy"


def test_check_strict_override_turns_into_error():
    proc = run_cli(["check", scene("exampleE1.json"), "--strict"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("ruled4: error:")
    assert proc.stdout == ""


def test_check_out_file(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli(["check", scene("example1.json"), "--out", str(out)])
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["exit_code"] == 0
    assert out.read_text().endswith("\n")


def test_missing_scene_is_io_error():
    proc = run_cli(["check", "/nonexistent/scene.json"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("ruled4: i/o error:")


def test_bad_scene_schema_is_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "mode": "type1"}))
    proc = run_cli(["check", str(bad)])
    assert proc.returncode == 2
    assert "required property" in proc.stderr


@pytest.mark.parametrize("command", ["check", "mesh", "report"])
@pytest.mark.parametrize("bounds", [[0, math.inf], [-1e308, 1e308]],
                         ids=["infinite", "overflowing-width"])
def test_non_finite_interval_is_one_error_line(tmp_path, command, bounds):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "name": "wide", "mode": "type1",
        "curves": {"alpha": ["t", "t", "0", "0"],
                   "beta": ["0", "0", "1", "0"],
                   "gamma": ["0", "0", "0", "1"]},
        "intervals": {"x": bounds}, "resolution": [3, 2, 2]}))
    out = tmp_path / "out"
    proc = run_cli([command, str(path), "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("ruled4: error:")
    assert "/intervals/x" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()


CURVES = {"alpha": ["t", "t", "0", "0"], "beta": ["0", "0", "1", "0"],
          "gamma": ["0", "0", "0", "1"]}


@pytest.mark.parametrize("changes, tail", [
    ({"curves": {**CURVES, "alpha": ["1" * 5000, "t", "0", "0"]}},
     "(offset 0)"),
    ({"curves": {**CURVES, "alpha": ["a" * 5000, "t", "0", "0"]}},
     "(offset 0)"),
    ({"mode": "m" * 5000}, "at /mode"),
    ({"intervals": {"k" * 4000: [0, 1]}}, "at /intervals"),
], ids=["long-literal", "long-identifier", "long-mode", "long-interval-key"])
def test_long_input_is_one_bounded_error_line(tmp_path, capsys, changes,
                                               tail):
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"name": "long", "mode": "type1",
                                "curves": CURVES, "resolution": [3, 2, 2],
                                **changes}))
    out = tmp_path / "out"
    assert main(["check", str(path), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("ruled4: error:")
    assert len(lines[0]) <= len("ruled4: error: ") + 200
    assert lines[0].endswith(tail)
    assert not out.exists()


def test_mesh_obj_csv_json(tmp_path):
    for fmt, probe in (("obj", "v "), ("csv", "x,y,z,"), ("json", "{")):
        out = tmp_path / f"m.{fmt}"
        proc = run_cli(["mesh", scene("example1.json"), "--format", fmt,
                        "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert out.read_text().startswith(probe)


def test_mesh_project_flag_changes_projection(tmp_path):
    a = tmp_path / "a.obj"
    b = tmp_path / "b.obj"
    run_cli(["mesh", scene("example1.json"), "--out", str(a)])
    run_cli(["mesh", scene("example1.json"), "--project", "3",
             "--out", str(b)])
    assert a.read_text() != b.read_text()


def test_report_includes_mesh_and_claims():
    proc = run_cli(["report", scene("example1.json")])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert "claims" in doc and "mesh" in doc
    assert len(doc["mesh"]["vertices"]) > 0


def test_octtable_default_and_seed(tmp_path):
    out = tmp_path / "t.csv"
    proc = run_cli(["octtable", "--out", str(out)])
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",e1,e2,e3,e4,e5,e6,e7"
    assert lines[1] == "e1,-0,+4,+7,-2,+6,-5,-3"

    alt = tmp_path / "alt.csv"
    proc = run_cli(["octtable", "--seed", "2,3,5", "--out", str(alt)])
    assert proc.returncode == 0
    assert alt.read_text().splitlines()[0] == ",e1,e2,e3,e4,e5,e6,e7"


def test_octtable_rejects_nonquaternionic_seed(tmp_path):
    proc = run_cli(["octtable", "--seed", "1,2,3",
                    "--out", str(tmp_path / "x.csv")])
    assert proc.returncode == 2
    assert "not a quaternionic triple" in proc.stderr


def test_octtable_malformed_seed(tmp_path):
    proc = run_cli(["octtable", "--seed", "1,2",
                    "--out", str(tmp_path / "x.csv")])
    assert proc.returncode == 2
    assert "expected 3 comma-separated indices" in proc.stderr


def test_main_callable_in_process(capsys, tmp_path):
    code = main(["check", scene("example1.json"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 0
    assert main(["octtable", "--seed", "0,1,2",
                 "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ruled4: error:")


def test_determinism_across_threads(tmp_path):
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"m{threads}.json"
        proc = run_cli(["mesh", scene("exampleEx3.json"), "--format", "json",
                        "--out", str(out)],
                       env={"RULED4_THREADS": threads, "PATH": "/usr/bin:/bin",
                            "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# Every submodule, named one by one: `import ruled4` itself loads none.
IMPORT_ALL = ("import sys, ruled4._frozen, ruled4.check, ruled4.cli, "
              "ruled4.crosscheck, ruled4.dual, ruled4.errors, ruled4.expr, "
              "ruled4.hypersurface, ruled4.kernel, ruled4.lorentz, "
              "ruled4.mesh, ruled4.octo, ruled4.octonion, ruled4.pointwise, "
              "ruled4.scene; ")


def test_import_loads_neither_numpy_nor_jsonschema():
    probe = (IMPORT_ALL + "print(sorted("
             "m for m in ('numpy', 'jsonschema') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={"PATH": "/usr/bin:/bin",
                                          "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_builds_only_two_dataclasses():
    """Every command start pays for each dataclass's generated methods.

    Two classes stay dataclasses:
    - CurveSpec: callers subclass it with @dataclass to add fields, such as
      a counter of evaluate calls built as CountingCurve(comps, counter).
    - SceneConfig: callers derive variants with dataclasses.replace.
    Records are NamedTuples; vectors, numbers and expression nodes are
    slotted values.
    """
    probe = (IMPORT_ALL + "print(sorted("
             "name for mod, module in list(sys.modules.items()) "
             "if mod.split('.')[0] == 'ruled4' "
             "for name, cls in vars(module).items() "
             "if isinstance(cls, type) and cls.__module__ == mod "
             "and '__dataclass_fields__' in vars(cls)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={"PATH": "/usr/bin:/bin",
                                          "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['CurveSpec', 'SceneConfig']"


def test_overflowing_curve_flags_vertices(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "name": "exp-overflow", "mode": "type1",
        "curves": {"alpha": ["exp(t)", "t", "0", "0"],
                   "beta": ["0", "0", "1", "0"],
                   "gamma": ["0", "0", "0", "1"]},
        "intervals": {"x": [0, 800]}, "resolution": [5, 2, 2]}))
    out = tmp_path / "m.json"
    proc = run_cli(["mesh", str(path), "--format", "json", "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    flags_by_x = {}
    for v in json.loads(out.read_text())["vertices"]:
        flags_by_x.setdefault(v["params"][0], set()).add(tuple(v["flags"]))
    assert flags_by_x[200.0] == {()}
    assert flags_by_x[400.0] == flags_by_x[600.0] == {("NonFiniteValue",)}
    assert flags_by_x[800.0] == {("DomainError",)}

    proc = run_cli(["check", str(path)])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    flatness = json.loads(proc.stdout)["claims"][0]
    # x = 0 is lightlike (DegenerateNormal); x >= 400 overflows
    assert flatness["details"]["points_degenerate"] == 16


def test_curve_claims_skip_a_flagged_slice(tmp_path):
    # u cannot be evaluated at t = 1/3, so the walk flags that slice; the
    # claims that compare curves per x sample skip it and count it
    doc = json.loads(Path(scene("exampleEx3.json")).read_text())
    doc["curves"]["u"][2] = "0*(t - 0.3333333333333333)^-1"
    doc["intervals"]["t"] = [0, 1]
    doc["resolution"] = [4, 3, 3]
    path = tmp_path / "flagged.json"
    path.write_text(json.dumps(doc))
    out = {}
    for command, extra in (("mesh", ["--format", "json"]), ("check", []),
                           ("report", [])):
        out[command] = tmp_path / f"{command}.json"
        assert main([command, str(path), *extra,
                     "--out", str(out[command])]) == 0, command
    flags = {tuple(v["flags"])
             for v in json.loads(out["mesh"].read_text())["vertices"]
             if v["params"][0] == 1 / 3}
    assert flags == {("DomainError",)}
    claims = {c["name"]: c
              for c in json.loads(out["check"].read_text())["claims"]}
    for name in ("reference_curves", "alpha_probe"):
        details = claims[name]["details"]
        assert claims[name]["verdict"] == "discrepancy", name
        assert (details["samples"], details["samples_skipped"]) == (3, 1)
    assert json.loads(out["report"].read_text())["claims"] == \
        json.loads(out["check"].read_text())["claims"]


def test_advisory_samples_skip_where_a_curve_is_undefined(tmp_path, capsys):
    # u cannot be evaluated at t = 0.5, one of the 33 advisory samples of
    # [0, 1] but no grid sample; the advisories skip it and say so
    doc = json.loads(Path(scene("exampleEx3.json")).read_text())
    doc["curves"]["u"][2] = "0*(t - 0.5)^-1"
    doc["intervals"]["t"] = [0, 1]
    doc["resolution"] = [4, 3, 3]
    path = tmp_path / "advisory.json"
    path.write_text(json.dumps(doc))
    for command in ("mesh", "check"):
        out = tmp_path / f"{command}.out"
        assert main([command, str(path), "--out", str(out)]) == 0, command
        assert "ruled4: error:" not in capsys.readouterr().err
    warnings = json.loads((tmp_path / "check.out").read_text())["warnings"]
    assert warnings[0] == ("advisory checks skipped 1 of 33 samples, where "
                           "a curve is undefined")
    assert any(w.startswith("curve u is not unit") for w in warnings)


def test_curve_claim_over_no_sample_is_inconclusive(tmp_path):
    # alpha fails at every x, so every slice is flagged and reference_curves
    # compares nothing
    doc = json.loads(Path(scene("example1.json")).read_text())
    doc["curves"]["alpha"][0] = "0*(t - t)^-1"
    doc["reference"] = {"beta": doc["curves"]["beta"]}
    path = tmp_path / "unevaluable.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "check.json"
    assert main(["check", str(path), "--out", str(out)]) == 1
    claims = {c["name"]: c for c in json.loads(out.read_text())["claims"]}
    reference = claims["reference_curves"]
    assert reference["verdict"] == "inconclusive"
    assert reference["details"]["samples"] == 0
    assert reference["details"]["samples_skipped"] == 3


@pytest.mark.parametrize("command", ["check", "mesh", "report"])
@pytest.mark.parametrize("text", [
    '"i_vector": [0, 0, 0, 1' + "0" * 400 + ']',    # past the float range
    '"resolution": [5, 2, 1' + "0" * 5000 + ']',    # past int parsing
], ids=["i_vector-overflow", "overlong-integer"])
def test_unrepresentable_number_is_one_error_line(tmp_path, command, text):
    path = tmp_path / "big.json"
    path.write_text('{"name": "big", "mode": "octonion", "curves": {'
                    '"u": ["1", "0", "0", "0"], "v": ["0", "1", "0", "0"], '
                    '"w": ["0", "0", "1", "0"]}, ' + text + '}')
    out = tmp_path / "out"
    proc = run_cli([command, str(path), "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("ruled4: error:")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not out.exists()
    if "i_vector" in text:
        assert proc.stderr.rstrip().endswith("at /i_vector/3")


@pytest.mark.parametrize("deep", ["(" * 3000 + "t" + ")" * 3000,
                                  "+".join(["t"] * 5000)],
                         ids=["groups", "chain"])
def test_too_deep_curve_is_one_error_line(capsys, tmp_path, deep):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({
        "name": "deep", "mode": "type1",
        "curves": {"alpha": [deep, "t", "0", "0"],
                   "beta": ["0", "0", "1", "0"],
                   "gamma": ["0", "0", "0", "1"]}}))
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ruled4: error:") and "nested deeper" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("where", ["curves", "reference"])
@pytest.mark.parametrize("literal", ["1²", "t^1e400", "1e999*t"],
                         ids=["superscript", "huge-exponent", "huge-constant"])
def test_unrepresentable_literal_is_one_error_line(capsys, tmp_path, literal,
                                                    where):
    doc = json.loads(Path(scene("exampleEx3.json")).read_text())
    doc[where]["u" if where == "curves" else "alpha"][1] = literal
    path = tmp_path / "literal.json"
    path.write_text(json.dumps(doc))
    for command, extra in (("check", []), ("report", []),
                           ("mesh", ["--format", "json"])):
        out = tmp_path / f"{command}.out"
        assert main([command, str(path), *extra, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ruled4: error:")
        assert "is not a finite float" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()


def test_unknown_reference_key_is_one_error_line(capsys, tmp_path):
    # a misspelled key would otherwise grade reference_curves over nothing
    doc = json.loads(Path(scene("exampleEx3.json")).read_text())
    doc["resolution"] = [4, 2, 2]
    doc["reference"]["alpah"] = doc["reference"].pop("alpha")
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "check.json"
    assert main(["check", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ruled4: error:") and "/reference" in err
    assert "'alpah'" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def _row_lines(text, key):
    """The lines between '"key": [' and its closing bracket."""
    lines = text.split("\n")
    start = next(i for i, line in enumerate(lines)
                 if line.strip() == f'"{key}": [')
    indent = lines[start][:len(lines[start]) - len(lines[start].lstrip())]
    end = next(i for i in range(start + 1, len(lines))
               if lines[i].rstrip(",") == indent + "]")
    return lines[start + 1:end]


def _assert_one_line_rows(text, key, rows):
    lines = _row_lines(text, key)
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        assert json.loads(line.strip().rstrip(",")) == row


@pytest.mark.parametrize("name", ["example1.json", "exampleE1.json",
                                  "exampleEx3.json", "dualsphere.json"])
def test_json_outputs_are_the_documents_one_row_per_line(tmp_path, name):
    cfg = load_scene(scene(name))
    texts = {}
    for command, extra in (("check", []), ("report", []),
                           ("mesh", ["--format", "json"])):
        out = tmp_path / f"{command}.json"
        main([command, scene(name), *extra, "--out", str(out)])
        texts[command] = out.read_text(encoding="utf-8")
    mesh = sample_grid(build_hypersurface(cfg), cfg)
    for command, doc in (("check", check_scene(cfg).to_dict()),
                         ("report", report_document(cfg)),
                         ("mesh", mesh_document(mesh))):
        loaded = json.loads(texts[command])
        assert loaded == json.loads(json.dumps(doc, allow_nan=False))
        vertices = (loaded["vertices"] if command == "mesh"
                    else loaded.get("mesh", {}).get("vertices"))
        if vertices is not None:
            _assert_one_line_rows(texts[command], "vertices", vertices)
        if command != "mesh":
            minimality = next(c for c in loaded["claims"]
                              if c["name"] == "minimality")
            _assert_one_line_rows(texts[command], "samples",
                                  minimality["details"]["samples"])
