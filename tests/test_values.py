"""Value semantics of the package's records, numbers and expression nodes.

Records (surfaces, frames, reports, meshes, claim results) are immutable.
Numbers and expression nodes are immutable too, and they compare by exact
type and fields without being tuples: Add(a, b) never equals Sub(a, b), and
a number has no len, ordering, concatenation or integer repetition.
"""

import pickle
from dataclasses import FrozenInstanceError
from importlib import resources

import pytest

from ruled4.check import ClaimResult, check_scene
from ruled4.dual import Jet2
from ruled4.errors import NonFiniteValue
from ruled4.expr import Add, Const, Sub, Var, parse_expr, validate_director
from ruled4.lorentz import ModelSpace, Vec4
from ruled4.mesh import sample_grid
from ruled4.octonion import Octonion, ParticularOctonion, default_table
from ruled4.pointwise import curvature_report, frame, gauss_map
from ruled4.scene import build_hypersurface, load_scene

NUMBERS = (Jet2(1.0, 2.0, 3.0), Octonion.one())


def shipped(name):
    return load_scene(str(resources.files("ruled4.scenes") / f"{name}.json"))


@pytest.fixture(scope="module")
def records():
    """(object, one of its field names) for each record and value type."""
    cfg = shipped("exampleEx3")
    h = build_hypersurface(cfg)
    mesh = sample_grid(h, cfg)
    pt = next(pt for pt in mesh.vertices if not pt.flags)
    report = check_scene(cfg)
    x, y, z = pt.params
    rep = curvature_report(h, x, y, z)
    beta = shipped("exampleE1").curves["beta"]
    return [
        (h, "warnings"), (h.alpha, "i_vec"), (pt, "laplacian"),
        (frame(h, x, y, z), "position"), (rep, "gauss_curvature"),
        (rep.metric, "detg"), (gauss_map(h, x, y, z), "unit"),
        (mesh, "vertices"), (mesh.vertices[0], "gauss_k"),
        (report, "claims"), (report.claims[0], "verdict"),
        (validate_director(beta, ModelSpace.DE_SITTER, [0.0]), "passed"),
        (default_table(), "seed"),
        (Jet2(1.0, 2.0, 3.0), "f"),
        (Octonion.one(), "coeffs"),
        (ParticularOctonion(1.0, Vec4.zero()), "scalar"),
        (parse_expr("t + 1"), "left"), (Const(1.0), "value"),
    ]


def test_expression_nodes_compare_by_type():
    assert parse_expr("t+1") != parse_expr("t-1")
    assert Add(Var(), Const(1.0)) != Sub(Var(), Const(1.0))
    assert parse_expr("t+1") == Add(Var(), Const(1.0))
    assert hash(parse_expr("t+1")) == hash(Add(Var(), Const(1.0)))


def test_records_and_values_refuse_assignment(records):
    for obj, name in records:
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        assert getattr(obj, name) is before, type(obj).__name__


@pytest.mark.parametrize("value", NUMBERS, ids=lambda v: type(v).__name__)
def test_numbers_are_not_tuples(value):
    assert not isinstance(value, tuple)
    with pytest.raises(TypeError):
        len(value)
    with pytest.raises(TypeError):
        value < value
    with pytest.raises(TypeError):
        2 * value


@pytest.mark.parametrize("value", NUMBERS + (parse_expr("sin(t)^2 - t/2"),),
                         ids=lambda v: type(v).__name__)
def test_numbers_and_trees_survive_pickling(value):
    assert pickle.loads(pickle.dumps(value)) == value


def test_claim_results_do_not_share_a_details_dict():
    a = ClaimResult("a", "claim", "computed", "pass")
    b = ClaimResult("b", "claim", "computed", "pass")
    assert a.details == {} and b.details == {}
    assert a.details is not b.details


def test_vec4_is_a_frozen_value_not_a_tuple():
    v = Vec4(1, 2, 3, 4)
    assert v.components() == (1.0, 2.0, 3.0, 4.0)
    assert all(type(c) is float for c in v.components())
    assert repr(v) == "Vec4(c0=1.0, c1=2.0, c2=3.0, c3=4.0)"
    assert not isinstance(v, tuple)
    assert v != (1.0, 2.0, 3.0, 4.0)
    assert v == Vec4(1.0, 2.0, 3.0, 4.0)
    assert hash(v) == hash(Vec4(1.0, 2.0, 3.0, 4.0))
    with pytest.raises(TypeError):
        len(v)
    with pytest.raises(TypeError):
        v < v
    with pytest.raises(FrozenInstanceError):
        v.c0 = 0.0
    assert v.c0 == 1.0
    assert pickle.loads(pickle.dumps(v)) == v


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_vec4_refuses_a_nonfinite_component(slot, bad):
    comps = [0.5, -1.0, 2.0, 0.0]
    comps[slot] = bad
    with pytest.raises(NonFiniteValue) as info:
        Vec4(*comps)
    assert str(info.value) == f"Vec4 component c{slot} must be finite, got {bad!r}"
