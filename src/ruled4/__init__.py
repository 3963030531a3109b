"""ruled4: 2-ruled hypersurfaces of Lorentzian 4-space.

Vector algebra with signature (-,+,+,+), ternary cross products, octonion
arithmetic, order-2 jets, construction and curvature analysis of
hypersurfaces ruled by a moving 2-plane, claim checking against
independent re-derivations, and mesh export.

`import ruled4` loads no submodule.  Each public name, and each submodule
named as an attribute (`ruled4.crosscheck`), is imported on first use
(PEP 562), so a command compiles only the modules it runs.
"""

import sys

__version__ = "0.1.0"

# Each public name, grouped under the submodule that defines it.
_EXPORTS = {
    "errors": (
        "Ruled4Error", "InconsistentSeed", "NonUnitI", "DomainError",
        "NonFiniteValue", "ExprSyntaxError", "UnknownIdentifier",
        "DirectorConstraintViolated", "DegenerateNormal", "SingularMetric",
        "SceneSchemaError"),
    "lorentz": (
        "Vec4", "CausalCharacter", "ModelSpace", "Characterization",
        "lorentz_dot", "euclid_dot", "lorentz_norm", "cross4",
        "characterize", "DEFAULT_I"),
    "dual": ("Jet2",),
    "expr": (
        "parse_expr", "evaluate_jet", "evaluate_float",
        "CurveSpec"),
    "printer": ("to_text",),
    "octonion": (
        "Octonion", "ParticularOctonion", "MulTable", "build_mul_table",
        "default_table", "oct_mul", "particular_product", "table_to_csv"),
    "hypersurface": ("SurfaceKind", "RuledHypersurface", "DirectorReport",
                     "make_ruled"),
    "pointwise": (
        "Frame", "frame", "eval_point", "GaussMapData", "gauss_map",
        "MetricData", "first_form", "inverse_metric", "second_form",
        "minimality_residual", "laplace_beltrami", "lb_closed_orthogonal",
        "CurvatureReport", "curvature_report"),
    "octo": (
        "PairCrossCurve", "construct_from_octonions",
        "construct_from_dual_curves", "star_point", "star_point_dual"),
    "scene": ("SceneConfig", "load_scene", "scene_from_dict",
              "build_hypersurface"),
    "mesh": ("Mesh", "sample_grid", "export_obj", "export_csv", "export_json",
             "mesh_document"),
    "check": ("ClaimResult", "CheckReport", "check_scene", "report_document"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}
__all__ = [*_ORIGIN, "__version__"]
_SUBMODULES = {*_EXPORTS, "_frozen", "cli", "crosscheck", "kernel",
               "octoclaims", "typedclaims"}


def _load(module: str):
    # __import__, unlike importlib.import_module, is timed by -X importtime
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _load(name)
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
