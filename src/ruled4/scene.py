"""Scene files: JSON descriptions of a surface to build, sample, and check.

A scene names its construction mode, the defining curve expressions, the
parameter box, and options.  Modes:

    type1 / type2    direct curves alpha, beta, gamma
    octonion         curves u, v, w fed to the ternary-product construction
    dual-octonion    dual curve pairs a, a_star, b, b_star

Intervals accept either x/y/z or the curve-flavored aliases t/s/r.  An
optional "claims" block states which global properties the scene is
expected to satisfy (flat / minimal / laplace_beltrami_zero); check.py
grades those claims.  An optional "reference" block carries published
closed-form component expressions to compare the construction against.
`_dumps` writes the JSON documents of check, report and mesh, which all
load this module, with a two-space indented envelope and each vertex or
minimality sample as one compact line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Mapping, NoReturn

from .errors import ExprSyntaxError, SceneSchemaError
from .expr import CurveSpec
from .hypersurface import RuledHypersurface, SurfaceKind, make_ruled
from .lorentz import Vec4

__all__ = ["SceneConfig", "load_scene", "scene_from_dict",
           "build_hypersurface"]

_CURVE_KEYS = {
    "type1": ("alpha", "beta", "gamma"),
    "type2": ("alpha", "beta", "gamma"),
    "octonion": ("u", "v", "w"),
    "dual-octonion": ("a", "a_star", "b", "b_star"),
}

# The surface curve each "reference" key describes, by its index in
# (alpha, beta, gamma); no other key is accepted.
_REFERENCE_ROLES = {
    "alpha": 0, "beta": 1, "gamma": 2, "s_director": 1, "r_director": 2,
}
_AXIS_ALIASES = (("x", "t"), ("y", "s"), ("z", "r"))
_CLAIM_KEYS = ("flat", "minimal", "laplace_beltrami_zero")
_OPTIONAL = {"intervals": {}, "resolution": [9, 5, 5], "strict": False,
             "dual_norm": "lorentz", "i_vector": [0.0, 0.0, 0.0, 1.0],
             "projection_axis": 0, "claims": {}, "reference": {}}

# The most grid vertices (the product of `resolution`) a scene may ask for.
# `report` on exampleEx3 (2-vCPU VM, Python 3.11.7, from source) peaks at
# 155 MB in 1.6-2.1 s at [50, 20, 20], 20,000 vertices, and at 656 MB in
# 10.6 s at the cap, [250, 20, 20]: about 6.5 KB and 105 us a vertex.
MAX_VERTICES = 100_000

@dataclass(frozen=True)
class SceneConfig:
    name: str
    mode: str
    curves: Mapping[str, CurveSpec]
    x_interval: tuple[float, float]
    y_interval: tuple[float, float]
    z_interval: tuple[float, float]
    resolution: tuple[int, int, int]
    strict: bool
    dual_norm: str
    i_vec: Vec4
    projection_axis: int
    claims: Mapping[str, bool]
    reference: Mapping[str, CurveSpec]


def _fail(message: str, *path) -> NoReturn:
    raise SceneSchemaError(message, "/" + "/".join(str(p) for p in path))


# JSON Schema's type rules: a bool is neither a number nor an integer, and
# a number with no fractional part, such as 5.0, is an integer.
_TYPES = {
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: _TYPES["number"](v) and (isinstance(v, int)
                                                  or v.is_integer()),
    "array": lambda v: isinstance(v, list),
    "object": lambda v: isinstance(v, dict),
}


def _check_type(value, name: str, *path) -> None:
    if not _TYPES[name](value):
        _fail(f"{value!r} is not of type {name!r}", *path)


def _check_array(value, length: int, item_type: str, *path) -> None:
    _check_type(value, "array", *path)
    if len(value) != length:
        _fail(f"{value!r} is too {'short' if len(value) < length else 'long'}",
              *path)
    for k, item in enumerate(value):
        _check_type(item, item_type, *path, k)


def _check_object(value, allowed, *path) -> None:
    """value is an object; unless `allowed` is None, it has no other keys."""
    _check_type(value, "object", *path)
    extra = [key for key in value if allowed is not None and key not in allowed]
    if extra:
        _fail(f"additional properties {extra!r} are not allowed", *path)


def _check_quads(value, allowed, *path) -> None:
    """value is an object, with no keys beyond `allowed` unless that is
    None, whose values are four expression strings each."""
    _check_object(value, allowed, *path)
    for key, exprs in value.items():
        _check_array(exprs, 4, "string", *path, key)


def _check_enum(value, allowed, *path) -> None:
    if value not in allowed:
        _fail(f"{value!r} is not one of {list(allowed)!r}", *path)


def _finite(hi, lo=0.0) -> bool:
    """hi - lo is finite in floats, so hi and lo are finite too."""
    try:
        return math.isfinite(float(hi) - float(lo))
    except OverflowError:  # an integer beyond the float range
        return False


def _validate(raw) -> dict:
    """Check a scene document's shape; return it with its defaults filled in.

    Raises SceneSchemaError at the first fault, reporting a fault nearer
    the root before one inside it.  Beyond shape, the curves must be
    exactly those of the mode, an axis may not be given under both of its
    names, and every interval has lo < hi with a finite width hi - lo.
    """
    if not isinstance(raw, dict):
        _fail("scene document must be a JSON object")
    _check_object(raw, ("name", "mode", "curves", *_OPTIONAL))
    for key in ("name", "mode", "curves"):
        if key not in raw:
            _fail(f"{key!r} is a required property")
    raw = {**_OPTIONAL, **raw}
    _check_type(raw["name"], "string", "name")
    if not raw["name"]:
        _fail("'' should be non-empty", "name")
    _check_enum(raw["mode"], sorted(_CURVE_KEYS), "mode")
    _check_quads(raw["curves"], None, "curves")
    needed = _CURVE_KEYS[raw["mode"]]
    if set(raw["curves"]) != set(needed):
        missing = [k for k in needed if k not in raw["curves"]]
        extra = sorted(set(raw["curves"]) - set(needed))
        _fail(f"mode {raw['mode']} requires curves {list(needed)}: "
              f"missing {missing}, unexpected {extra}", "curves")
    intervals = raw["intervals"]
    _check_object(intervals, [a for pair in _AXIS_ALIASES for a in pair],
                  "intervals")
    for canonical, alias in _AXIS_ALIASES:
        if canonical in intervals and alias in intervals:
            _fail(f"intervals give both {canonical} and its alias {alias}",
                  "intervals")
    for axis, bounds in intervals.items():
        _check_array(bounds, 2, "number", "intervals", axis)
        if not bounds[1] > bounds[0]:
            _fail(f"interval {axis} must have lo < hi", "intervals", axis)
        if not _finite(bounds[1], bounds[0]):
            _fail(f"interval {axis} must have finite bounds and a finite "
                  f"width hi - lo", "intervals", axis)
    _check_array(raw["resolution"], 3, "integer", "resolution")
    for k, n in enumerate(raw["resolution"]):
        if n < 2:
            _fail(f"{n!r} is less than the minimum of 2", "resolution", k)
    count = math.prod(int(n) for n in raw["resolution"])
    if count > MAX_VERTICES:
        _fail(f"resolution {raw['resolution']!r} makes {count} grid vertices,"
              f" more than the cap of {MAX_VERTICES}", "resolution")
    _check_type(raw["strict"], "boolean", "strict")
    _check_enum(raw["dual_norm"], ("lorentz", "euclid"), "dual_norm")
    _check_array(raw["i_vector"], 4, "number", "i_vector")
    for k, v in enumerate(raw["i_vector"]):
        if not _finite(v):
            _fail("i_vector entries must be finite numbers", "i_vector", k)
    _check_type(raw["projection_axis"], "integer", "projection_axis")
    _check_enum(raw["projection_axis"], range(4), "projection_axis")
    _check_object(raw["claims"], _CLAIM_KEYS, "claims")
    for key, value in raw["claims"].items():
        _check_type(value, "boolean", "claims", key)
    _check_quads(raw["reference"], _REFERENCE_ROLES, "reference")
    return raw


def _parse_curve(key: str, exprs: list[str]) -> CurveSpec:
    try:
        return CurveSpec.from_strings(exprs)
    except ExprSyntaxError as exc:
        raise ExprSyntaxError(f"curve {key}: {exc.bare_message}",
                              exc.offset) from exc


def scene_from_dict(raw: dict) -> SceneConfig:
    raw = _validate(raw)
    box = {}
    for canonical, alias in _AXIS_ALIASES:
        lo, hi = raw["intervals"].get(canonical,
                                      raw["intervals"].get(alias, (-1.0, 1.0)))
        box[f"{canonical}_interval"] = (float(lo), float(hi))
    return SceneConfig(
        name=raw["name"],
        mode=raw["mode"],
        curves={key: _parse_curve(key, raw["curves"][key])
                for key in _CURVE_KEYS[raw["mode"]]},
        **box,
        resolution=tuple(int(n) for n in raw["resolution"]),  # type: ignore[arg-type]
        strict=raw["strict"],
        dual_norm=raw["dual_norm"],
        i_vec=Vec4(*raw["i_vector"]),
        projection_axis=int(raw["projection_axis"]),
        claims=dict(raw["claims"]),
        reference={key: _parse_curve(f"reference.{key}", exprs)
                   for key, exprs in sorted(raw["reference"].items())},
    )


def load_scene(path: str) -> SceneConfig:
    """Read, validate, and parse a scene file.

    Raises OSError if the file cannot be read, SceneSchemaError (with a
    JSON pointer) on shape violations, and ExprSyntaxError (with character
    offset) if a curve expression does not parse.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        # JSONDecodeError, an overlong integer, or nesting past the stack
        except (ValueError, RecursionError) as exc:
            raise SceneSchemaError(f"not valid JSON: {exc}", "/") from exc
    return scene_from_dict(raw)


def build_hypersurface(cfg: SceneConfig) -> RuledHypersurface:
    """Construct the surface a scene describes."""
    if cfg.mode in ("type1", "type2"):
        return make_ruled(cfg.curves["alpha"], cfg.curves["beta"],
                          cfg.curves["gamma"], SurfaceKind(cfg.mode),
                          strict=cfg.strict, x_interval=cfg.x_interval)
    from .octo import construct_from_dual_curves, construct_from_octonions
    if cfg.mode == "octonion":
        return construct_from_octonions(
            cfg.curves["u"], cfg.curves["v"], cfg.curves["w"],
            i_vec=cfg.i_vec, dual_norm=cfg.dual_norm,
            x_interval=cfg.x_interval)
    return construct_from_dual_curves(
        cfg.curves["a"], cfg.curves["a_star"],
        cfg.curves["b"], cfg.curves["b_star"],
        i_vec=cfg.i_vec, dual_norm=cfg.dual_norm, x_interval=cfg.x_interval)


_encode = json.JSONEncoder(allow_nan=False).encode

# Lists under these keys hold one record per grid point: the vertex table
# and the minimality claim's samples.
_ROW_KEYS = frozenset({"vertices", "samples"})


def _dumps(doc) -> str:
    """doc in json's two-space indented layout, except that each element of
    a non-empty list under a _ROW_KEYS key is one compact line.

    Every scalar and row goes through the C encoder, so the values, key
    order and escapes are json.dumps's and NaN or infinity raises
    ValueError; only whitespace differs.  Keys must be str.
    """
    parts: list[str] = []
    _write(doc, "\n", False, parts)
    return "".join(parts)


def _write(value, newline: str, rows: bool, parts: list[str]) -> None:
    if isinstance(value, dict) and value:
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(sep + _encode(key) + ": ")
            _write(item, inner, key in _ROW_KEYS, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        if rows:
            parts.append("[" + inner + ("," + inner).join(map(_encode, value))
                         + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write(item, inner, False, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        parts.append(_encode(value))
