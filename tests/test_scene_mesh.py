"""Scene loading, grid sampling, and export formats."""

import json
import math
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruled4.errors import ExprSyntaxError, SceneSchemaError
from ruled4.hypersurface import SurfaceKind
from ruled4.lorentz import Vec4
from ruled4.mesh import (
    Mesh,
    export_csv,
    export_json,
    export_obj,
    mesh_document,
    sample_grid,
)
from ruled4.scene import (
    _ROW_KEYS,
    MAX_VERTICES,
    SceneConfig,
    _dumps,
    build_hypersurface,
    load_scene,
    scene_from_dict,
)
from support import counting_scene


SHIPPED = ["example1.json", "exampleE1.json", "exampleEx3.json",
           "dualsphere.json"]


def shipped_path(name):
    return str(resources.files("ruled4.scenes") / name)


def test_build_evaluates_each_curve_once_per_director_sample():
    # the advisories sample 33 x values: 3 curves (u, v, w) for octonion
    # scenes, 4 (a, a*, b, b*) for dual-octonion ones
    for name, want in (("exampleEx3.json", 3 * 33), ("dualsphere.json", 4 * 33)):
        counted, counter = counting_scene(load_scene(shipped_path(name)))
        build_hypersurface(counted)
        assert counter[0] == want, name


def minimal_raw(**overrides):
    raw = {
        "name": "tiny-plane",
        "mode": "type1",
        "curves": {
            "alpha": ["t", "0", "0", "0"],
            "beta": ["0", "1", "0", "0"],
            "gamma": ["0", "0", "1", "0"],
        },
    }
    raw.update(overrides)
    return raw


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_scenes_load_and_build(name):
    build_hypersurface(load_scene(shipped_path(name)))


def test_scene_defaults():
    cfg = scene_from_dict(minimal_raw())
    assert cfg.x_interval == (-1.0, 1.0)
    assert cfg.resolution == (9, 5, 5)
    assert cfg.strict is False
    assert cfg.i_vec == Vec4(0.0, 0.0, 0.0, 1.0)
    assert cfg.projection_axis == 0
    assert cfg.claims == {}
    assert cfg.reference == {}


def test_interval_aliases():
    cfg = scene_from_dict(minimal_raw(
        intervals={"t": [0.0, 2.0], "y": [-3.0, -1.0], "r": [0.5, 1.5]}))
    assert cfg.x_interval == (0.0, 2.0)
    assert cfg.y_interval == (-3.0, -1.0)
    assert cfg.z_interval == (0.5, 1.5)


@pytest.mark.parametrize("raw,pointer", [
    ({"name": "x", "mode": "type1"}, "/"),                      # no curves
    (minimal_raw(mode="type9"), "/mode"),                        # bad enum
    (minimal_raw(resolution=[1, 5, 5]), "/resolution/0"),        # below min
    (minimal_raw(resolution=[9, 5]), "/resolution"),             # arity
    (minimal_raw(banana=True), "/"),                             # extra key
    (minimal_raw(intervals={"x": [0, 1], "t": [0, 1]}), "/intervals"),
    (minimal_raw(intervals={"x": [1, 1]}), "/intervals/x"),      # empty box
    (minimal_raw(intervals={"s": [2, -2]}), "/intervals/s"),     # reversed
    (minimal_raw(curves={"alpha": ["t", "0", "0"],
                         "beta": ["0", "1", "0", "0"],
                         "gamma": ["0", "0", "1", "0"]}), "/curves/alpha"),
    (minimal_raw(curves={"u": ["t", "0", "0", "0"],
                         "v": ["0", "1", "0", "0"],
                         "w": ["0", "0", "1", "0"]}), "/curves"),
    (minimal_raw(mode="octonion"), "/curves"),                   # wrong keys
    (minimal_raw(name=""), "/name"),                             # empty name
    (minimal_raw(name=3), "/name"),
    (minimal_raw(curves={"alpha": ["t", 1, "0", "0"],
                         "beta": ["0", "1", "0", "0"],
                         "gamma": ["0", "0", "1", "0"]}), "/curves/alpha/1"),
    (minimal_raw(curves=[1]), "/curves"),
    (minimal_raw(intervals={"x": [0, 1, 2]}), "/intervals/x"),
    (minimal_raw(intervals={"x": [False, 1]}), "/intervals/x/0"),  # bool
    (minimal_raw(intervals={"w": [0, 1]}), "/intervals"),        # no axis w
    (minimal_raw(resolution=[True, 5, 5]), "/resolution/0"),
    (minimal_raw(resolution=[5.5, 5, 5]), "/resolution/0"),
    (minimal_raw(strict="yes"), "/strict"),
    (minimal_raw(dual_norm="lorentz"), "/"),                     # no field
    (minimal_raw(i_vector=[0, 0, 0, True]), "/i_vector/3"),
    (minimal_raw(i_vector=[0, 0, 1]), "/i_vector"),
    (minimal_raw(projection_axis=4), "/projection_axis"),
    (minimal_raw(claims={"round": True}), "/claims"),
    (minimal_raw(claims={"flat": 1}), "/claims/flat"),
    (minimal_raw(reference={"alpha": ["t"]}), "/reference/alpha"),
    ([minimal_raw()], "/"),                                      # not an object
    (minimal_raw(intervals={"x": [0, math.inf]}), "/intervals/x"),
    (minimal_raw(intervals={"y": [-1e308, 1e308]}), "/intervals/y"),  # width
    (minimal_raw(intervals={"z": [0, 10 ** 400]}), "/intervals/z"),
    (minimal_raw(i_vector=[0, 0, 0, 10 ** 400]), "/i_vector/3"),  # overflow
    (minimal_raw(i_vector=[math.nan, 0, 0, 1]), "/i_vector/0"),
    (minimal_raw(resolution=[3, 2, 1e300]), "/resolution"),      # over cap
    (minimal_raw(reference={"delta": ["t", "0", "0", "0"]}), "/reference"),
])
def test_schema_errors_carry_pointers(raw, pointer):
    with pytest.raises(SceneSchemaError) as exc:
        scene_from_dict(raw)
    assert exc.value.pointer == pointer
    assert f"at {pointer}" in str(exc.value)


def test_vertex_cap_names_the_count_and_the_cap():
    # validated only: a grid this large is never walked
    assert MAX_VERTICES == 100_000
    cfg = scene_from_dict(minimal_raw(resolution=[2, 2, MAX_VERTICES // 4]))
    assert math.prod(cfg.resolution) == MAX_VERTICES
    for resolution in ([2, 2, MAX_VERTICES // 4 + 1], [3, 2, 1e300]):
        with pytest.raises(SceneSchemaError) as exc:
            scene_from_dict(minimal_raw(resolution=resolution))
        count = math.prod(int(n) for n in resolution)
        assert f"{count} grid vertices" in str(exc.value)
        assert f"cap of {MAX_VERTICES}" in str(exc.value)
        assert exc.value.pointer == "/resolution"


def test_integral_floats_count_as_integers():
    cfg = scene_from_dict(minimal_raw(resolution=[5.0, 5, 5],
                                      projection_axis=2.0))
    assert cfg.resolution == (5, 5, 5)
    assert cfg.projection_axis == 2


def test_curve_syntax_error_names_the_curve():
    raw = minimal_raw()
    raw["curves"]["beta"] = ["q + 1", "0", "0", "0"]
    with pytest.raises(ExprSyntaxError) as exc:
        scene_from_dict(raw)
    assert str(exc.value).startswith("curve beta:")
    assert exc.value.offset == 0


def test_load_scene_rejects_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    with pytest.raises(SceneSchemaError) as exc:
        load_scene(str(bad))
    assert exc.value.pointer == "/"

    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2, 3]", encoding="utf-8")
    with pytest.raises(SceneSchemaError) as exc:
        load_scene(str(arr))
    assert "JSON object" in str(exc.value)


def test_load_scene_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_scene(str(tmp_path / "nope.json"))


def test_build_hypersurface_modes():
    cfg1 = scene_from_dict(minimal_raw())
    assert build_hypersurface(cfg1).kind is SurfaceKind.TYPE1

    raw2 = minimal_raw(mode="type2")
    raw2["curves"] = {"alpha": ["t", "0", "0", "0"],
                      "beta": ["cosh(t)", "sinh(t)", "0", "0"],
                      "gamma": ["0", "0", "cos(t)", "sin(t)"]}
    cfg2 = scene_from_dict(raw2)
    h2 = build_hypersurface(cfg2)
    assert h2.kind is SurfaceKind.TYPE2

    raw3 = minimal_raw(mode="octonion")
    raw3["curves"] = {"u": ["0", "cos(t)", "sin(t)", "0"],
                      "v": ["0", "-sin(t)", "cos(t)", "0"],
                      "w": ["0", "0", "0", "1"]}
    h3 = build_hypersurface(scene_from_dict(raw3))
    assert h3.kind is SurfaceKind.UNCONSTRAINED
    assert h3.warnings == ()

    raw4 = minimal_raw(mode="dual-octonion")
    raw4["curves"] = {"a": ["0", "cos(t)", "sin(t)", "0"],
                      "a_star": ["0", "-sin(t)", "cos(t)", "0"],
                      "b": ["0", "0", "cos(t)", "sin(t)"],
                      "b_star": ["0", "0", "-sin(t)", "cos(t)"]}
    h4 = build_hypersurface(scene_from_dict(raw4))
    assert h4.kind is SurfaceKind.UNCONSTRAINED


# ---------------------------------------------------------------------------
# Grid sampling.

def small_cfg(**overrides):
    raw = minimal_raw(resolution=[3, 2, 2],
                      intervals={"x": [0.0, 1.0], "y": [0.0, 1.0],
                                 "z": [0.0, 1.0]})
    raw.update(overrides)
    return scene_from_dict(raw)


def test_sample_grid_order_and_axes():
    cfg = small_cfg()
    mesh = sample_grid(build_hypersurface(cfg), cfg)
    assert isinstance(mesh, Mesh)
    assert mesh.scene_name == "tiny-plane"
    assert mesh.resolution == (3, 2, 2)
    assert [sorted({v.params[k] for v in mesh.vertices}) for k in range(3)] \
        == [[0.0, 0.5, 1.0], [0.0, 1.0], [0.0, 1.0]]
    assert len(mesh.vertices) == 12
    # row-major: x slowest, z fastest
    assert mesh.vertices[0].params == (0.0, 0.0, 0.0)
    assert mesh.vertices[1].params == (0.0, 0.0, 1.0)
    assert mesh.vertices[2].params == (0.0, 1.0, 0.0)
    assert mesh.vertices[4].params == (0.5, 0.0, 0.0)
    # endpoint-exact axes
    assert mesh.vertices[-1].params == (1.0, 1.0, 1.0)
    v = mesh.vertices[5]  # (0.5, 0.0, 1.0)
    assert v.position == Vec4(0.5, 0.0, 1.0, 0.0)
    assert v.flags == ()
    assert v.gauss_k == 0.0


def test_sample_grid_records_failures_as_flags():
    raw = minimal_raw(resolution=[3, 2, 2],
                      intervals={"x": [-1.0, 1.0]})
    raw["curves"]["alpha"] = ["1/t", "0", "0", "0"]
    cfg = scene_from_dict(raw)
    mesh = sample_grid(build_hypersurface(cfg), cfg)
    mid = [v for v in mesh.vertices if v.params[0] == 0.0]
    assert len(mid) == 4
    for v in mid:
        assert v.flags == ("DomainError",)
        assert v.position is None and v.gauss_k is None
    good = [v for v in mesh.vertices if v.params[0] != 0.0]
    assert all(v.flags == () for v in good)


def test_singular_director_derivative_flags_only_its_slice():
    # the director check reads positions only, so a derivative that fails
    # at x = 0 flags that slice instead of failing the build
    raw = minimal_raw(resolution=[3, 2, 2], intervals={"x": [0.0, 1.0]})
    raw["curves"]["beta"] = ["0", "1", "0", "0*sqrt(t)"]
    cfg = scene_from_dict(raw)
    h = build_hypersurface(cfg)
    assert h.warnings == ()
    mesh = sample_grid(h, cfg)
    assert [v.flags for v in mesh.vertices] == [("DomainError",)] * 4 + [()] * 8


def test_sample_grid_evaluates_each_curve_once_per_x():
    for cfg in (small_cfg(), load_scene(shipped_path("exampleE1.json"))):
        counted, counter = counting_scene(cfg)
        h = build_hypersurface(counted)
        counter[0] = 0
        sample_grid(h, counted)
        assert counter[0] == 3 * cfg.resolution[0]


def test_walk_grid_evaluates_shared_factor_curves_once_per_x():
    # alpha = u x v + u x w evaluates u, v and w once each; beta = w and
    # gamma = v reuse those jets: 3 curve evaluations per x sample
    cfg = load_scene(shipped_path("exampleEx3.json"))
    counted, counter = counting_scene(cfg)
    h = build_hypersurface(counted)
    counter[0] = 0
    sample_grid(h, counted)
    assert counter[0] == 3 * cfg.resolution[0]


def test_sample_grid_threaded_is_identical(monkeypatch):
    cfg = small_cfg()
    h = build_hypersurface(cfg)
    monkeypatch.setenv("RULED4_THREADS", "1")
    serial = sample_grid(h, cfg)
    monkeypatch.setenv("RULED4_THREADS", "4")
    threaded = sample_grid(h, cfg)
    assert serial == threaded


# ---------------------------------------------------------------------------
# Exports.

def curved_mesh():
    raw = minimal_raw(name="curved", resolution=[3, 2, 2],
                      intervals={"y": [0.0, 1.0], "z": [0.0, 1.0]})
    raw["curves"]["alpha"] = ["t", "t^2", "0", "0"]
    cfg = scene_from_dict(raw)
    return sample_grid(build_hypersurface(cfg), cfg), cfg


def test_export_obj_projection_and_faces(tmp_path):
    mesh, _ = curved_mesh()
    path = tmp_path / "m.obj"
    export_obj(mesh, 0, str(path))
    lines = path.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == 12
    # (nx-1)*(ny-1) quads per fixed-z slice, nz slices
    assert len(f_lines) == (3 - 1) * (2 - 1) * 2
    # vertex 0 is phi(-1,0,0) = (-1,1,0,0); dropping axis 0 leaves (1,0,0)
    assert v_lines[0] == "v 1 0 0"
    # dropping axis 1 instead leaves (-1,0,0)
    export_obj(mesh, 1, str(path))
    first = path.read_text().splitlines()
    assert [l for l in first if l.startswith("v ")][0] == "v -1 0 0"
    with pytest.raises(ValueError):
        export_obj(mesh, 4, str(path))
    with pytest.raises(ValueError):
        export_obj(mesh, -1, str(path))


def test_export_csv_shape(tmp_path):
    mesh, _ = curved_mesh()
    path = tmp_path / "m.csv"
    export_csv(mesh, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,z,c0,c1,c2,c3,K,H,lb_norm,flags"
    assert len(lines) == 1 + 12
    first = lines[1].split(",")
    assert first[0] == "-1.0" and first[3] == "-1.0" and first[4] == "1.0"
    assert first[-1] == ""  # no flags on a clean vertex


def test_export_json_document(tmp_path):
    mesh, cfg = curved_mesh()
    doc = mesh_document(mesh)
    assert doc["scene"] == "curved"
    assert doc["mode"] == "type1"
    assert doc["resolution"] == [3, 2, 2]
    assert len(doc["vertices"]) == 12
    v0 = doc["vertices"][0]
    assert v0["params"] == [-1.0, 0.0, 0.0]
    assert isinstance(v0["metric"], dict)

    path = tmp_path / "m.json"
    export_json(mesh, str(path))
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(doc))


def test_export_json_nan_becomes_null(tmp_path):
    raw = minimal_raw(resolution=[3, 2, 2], intervals={"x": [-1.0, 1.0]})
    raw["curves"]["alpha"] = ["1/t", "0", "0", "0"]
    cfg = scene_from_dict(raw)
    mesh = sample_grid(build_hypersurface(cfg), cfg)
    path = tmp_path / "m.json"
    export_json(mesh, str(path))
    text = path.read_text()
    assert "NaN" not in text
    loaded = json.loads(text)
    flagged = [v for v in loaded["vertices"] if v["flags"]]
    assert flagged and flagged[0]["position"][0] is None


def test_flagged_vertices_export_their_missing_fields_as_nan(tmp_path):
    # the normal is lightlike at x = z = 0 (DegenerateNormal, position
    # kept), and alpha is undefined at x = 0.5 (a DomainError slice)
    cfg = scene_from_dict({
        "name": "flagged", "mode": "type1",
        "curves": {"alpha": ["t + 0*(t - 0.5)^-1", "t", "0", "0"],
                   "beta": ["0", "0", "1", "0"],
                   "gamma": ["t", "0", "0", "1"]},
        "intervals": {"x": [0, 0.5]}, "resolution": [3, 3, 3]})
    mesh = sample_grid(build_hypersurface(cfg), cfg)
    export_obj(mesh, 1, str(tmp_path / "m.obj"))
    export_csv(mesh, str(tmp_path / "m.csv"))
    export_json(mesh, str(tmp_path / "m.json"))
    obj = (tmp_path / "m.obj").read_text().splitlines()
    csv = (tmp_path / "m.csv").read_text().splitlines()[1:]
    rows = json.loads((tmp_path / "m.json").read_text())["vertices"]
    # vertex 1 is (0, -1, 0), vertex 26 (0.5, 1, 1)
    assert (obj[1], obj[26]) == ("v 0 -1 0", "v nan nan nan")
    assert csv[1] == ("0.0,-1.0,0.0,0.0,0.0,-1.0,0.0,nan,nan,nan,"
                      "DegenerateNormal")
    assert csv[26] == "0.5,1.0,1.0,nan,nan,nan,nan,nan,nan,nan,DomainError"
    null4 = [None] * 4
    missing = {"normal": {"raw": null4, "unit": null4, "magnitude": None,
                          "character": None},
               "metric": dict.fromkeys(("a", "b", "c", "e", "detg")),
               "K": None, "H": None, "minimality": None, "lb": null4,
               "lb_norm": None}
    assert rows[1] == {"params": [0.0, -1.0, 0.0],
                       "position": [0.0, 0.0, -1.0, 0.0], **missing,
                       "flags": ["DegenerateNormal"]}
    assert rows[26] == {"params": [0.5, 1.0, 1.0], "position": null4,
                        **missing, "flags": ["DomainError"]}


def test_export_json_encodes_before_opening(tmp_path):
    mesh, _ = curved_mesh()
    bad = mesh.vertices[5]._replace(mean_h=math.inf)
    mesh = mesh._replace(vertices=mesh.vertices[:5] + (bad,)
                         + mesh.vertices[6:])
    path = tmp_path / "m.json"
    path.write_text("previous export\n")
    with pytest.raises(ValueError):
        export_json(mesh, str(path))
    assert path.read_text() == "previous export\n"


# Scalars json round-trips to an equal value, plus NaN and infinities,
# which both writers must refuse.
_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=6)
            | st.sampled_from([-0.0, 1e308, -1e308, 5e-324,
                               '"\\/\b\f\n\r\t\x00\x1f\x7f',
                               "\u00e9\u2028\U0001f600"]))
_keys = st.sampled_from(sorted(_ROW_KEYS)) | st.text(max_size=4)
_trees = st.recursive(
    _scalars,
    lambda kids: (st.lists(kids, max_size=4) | st.tuples(kids, kids)
                  | st.dictionaries(_keys, kids, max_size=4)),
    max_leaves=24)


def _has_row_list(tree) -> bool:
    if isinstance(tree, dict):
        return any((key in _ROW_KEYS and isinstance(item, (list, tuple))
                    and item) or _has_row_list(item)
                   for key, item in tree.items())
    if isinstance(tree, (list, tuple)):
        return any(_has_row_list(item) for item in tree)
    return False


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_dumps_matches_indented_json(doc):
    try:
        want = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        with pytest.raises(ValueError):
            _dumps(doc)
        return
    got = _dumps(doc)
    assert json.loads(got) == json.loads(want)
    if not _has_row_list(doc):
        assert got == want


def test_dumps_writes_each_row_on_one_line():
    rows = [{"point": [0.0, -0.0], "H": 1e308, "flags": []},
            {"point": [1.5, 2.0], "H": None, "flags": ["DomainError"]}]
    doc = {"vertices": rows, "details": {"samples": rows, "empty": []},
           "reference": {"samples": 3}, "samples": []}
    assert _dumps(doc) == "\n".join([
        '{',
        '  "vertices": [',
        '    {"point": [0.0, -0.0], "H": 1e+308, "flags": []},',
        '    {"point": [1.5, 2.0], "H": null, "flags": ["DomainError"]}',
        '  ],',
        '  "details": {',
        '    "samples": [',
        '      {"point": [0.0, -0.0], "H": 1e+308, "flags": []},',
        '      {"point": [1.5, 2.0], "H": null, "flags": ["DomainError"]}',
        '    ],',
        '    "empty": []',
        '  },',
        '  "reference": {',
        '    "samples": 3',
        '  },',
        '  "samples": []',
        '}'])


def test_empty_mesh_rejected():
    with pytest.raises(ValueError):
        export_csv(Mesh("x", "type1", (0, 0, 0), (), ()), "/dev/null")
