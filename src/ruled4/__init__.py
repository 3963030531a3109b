"""ruled4: 2-ruled hypersurfaces of Lorentzian 4-space.

Vector algebra with signature (-,+,+,+), ternary cross products, octonion
and dual-number arithmetic, construction and curvature analysis of
hypersurfaces ruled by a moving 2-plane, claim checking against
independent re-derivations, and mesh export.
"""

from .errors import (DegenerateNormal, DirectorConstraintViolated, DomainError,
                     ExprSyntaxError, InconsistentSeed, NonFiniteValue,
                     NonUnitI, Ruled4Error, SceneSchemaError, SingularMetric,
                     UnknownIdentifier)
from .lorentz import (CausalCharacter, Characterization, ModelSpace, Vec4,
                      characterize, cross4, euclid_dot, lorentz_dot,
                      lorentz_norm)
from .dual import Dual, DualVec4, DualVectorAlgebra, Jet2, dual_vector_algebra
from .expr import (CurveSpec, DirectorReport, evaluate_dual, evaluate_float,
                   evaluate_jet, parse_expr, to_text, validate_director)
from .octonion import (DEFAULT_I, MulTable, Octonion, ParticularOctonion,
                       build_mul_table, default_table, oct_mul,
                       particular_product, table_to_csv)
from .hypersurface import (CurvatureReport, Frame, GaussMapData, MetricData,
                           RuledHypersurface, SurfaceKind, curvature_report,
                           eval_point, first_form, frame, gauss_map,
                           inverse_metric, laplace_beltrami,
                           lb_closed_orthogonal, make_ruled,
                           minimality_residual, second_form, second_form_raw)
from .octo import (PairCrossCurve, construct_from_dual_curves,
                   construct_from_octonions, star_point, star_point_dual)
from .scene import SceneConfig, build_hypersurface, load_scene, scene_from_dict
from .mesh import (Mesh, VertexData, export_csv, export_json, export_obj,
                   mesh_document, sample_grid)
from .check import CheckReport, ClaimResult, check_scene, report_document

__version__ = "0.1.0"

__all__ = [
    "Ruled4Error", "InconsistentSeed", "NonUnitI", "DomainError",
    "NonFiniteValue",
    "ExprSyntaxError", "UnknownIdentifier", "DirectorConstraintViolated",
    "DegenerateNormal", "SingularMetric", "SceneSchemaError",
    "Vec4", "CausalCharacter", "ModelSpace", "Characterization",
    "lorentz_dot", "euclid_dot", "lorentz_norm", "cross4", "characterize",
    "Dual", "Jet2", "DualVec4", "DualVectorAlgebra", "dual_vector_algebra",
    "parse_expr", "to_text", "evaluate_jet", "evaluate_dual",
    "evaluate_float", "CurveSpec", "DirectorReport", "validate_director",
    "Octonion", "ParticularOctonion", "MulTable", "build_mul_table",
    "default_table", "oct_mul", "particular_product", "table_to_csv",
    "DEFAULT_I",
    "SurfaceKind", "RuledHypersurface", "make_ruled", "Frame", "frame",
    "eval_point", "GaussMapData", "gauss_map", "MetricData", "first_form",
    "inverse_metric", "second_form", "second_form_raw",
    "minimality_residual", "laplace_beltrami", "lb_closed_orthogonal",
    "CurvatureReport", "curvature_report",
    "PairCrossCurve", "construct_from_octonions",
    "construct_from_dual_curves", "star_point", "star_point_dual",
    "SceneConfig", "load_scene", "scene_from_dict", "build_hypersurface",
    "Mesh", "VertexData", "sample_grid", "export_obj", "export_csv",
    "export_json", "mesh_document",
    "ClaimResult", "CheckReport", "check_scene", "report_document",
    "__version__",
]
