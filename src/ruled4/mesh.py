"""Grid sampling of a surface and file export (OBJ, CSV, JSON).

The grid is the closed parameter box sampled uniformly, stored row-major
with x slowest.  A Mesh holds the records (kernel.GridPoint) of the one
serial grid walker (kernel._walk_slices), which evaluates alpha, beta and
gamma once per x sample and runs that slice's kernel at every (y, z) of
the slice.  A vertex where the kernel degenerates keeps its slot, its
position where that exists, and a flag naming the failure
(DegenerateNormal, SingularMetric, DomainError, or NonFiniteValue on
overflow), so one bad point never aborts a grid; the exporters write its
missing fields as NaN.

Exports are deterministic byte for byte: fixed field order, fixed float
formatting (repr for CSV and JSON, %.17g for OBJ), newline "\\n", no
timestamps.  NaN serializes as the literal "nan" in CSV and null in JSON.
scene._dumps writes the JSON document, as it writes check's and report's.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional

from .hypersurface import RuledHypersurface
from .kernel import GridPoint, _walk_slices
from .lorentz import Vec4
from .scene import SceneConfig, _dumps

__all__ = ["GridPoint", "grid_mesh", "Mesh", "sample_grid", "export_obj",
           "export_csv", "export_json", "mesh_document"]

_NAN = float("nan")
_NAN4 = (_NAN, _NAN, _NAN, _NAN)


class Mesh(NamedTuple):
    scene_name: str
    mode: str
    resolution: tuple[int, int, int]
    vertices: tuple[GridPoint, ...]
    warnings: tuple[str, ...]


def grid_mesh(h: RuledHypersurface, cfg: SceneConfig,
              slices: Iterable[tuple]) -> Mesh:
    """The Mesh of the slices that kernel._walk_slices(h, cfg) yields."""
    return Mesh(cfg.name, cfg.mode, tuple(cfg.resolution),
                tuple([pt for _, _, points in slices for pt in points]),
                h.warnings)


def sample_grid(h: RuledHypersurface, cfg: SceneConfig) -> Mesh:
    """Evaluate the pipeline over the scene's grid, row-major, x slowest.

    One serial walk; RULED4_THREADS is accepted and ignored.
    """
    return grid_mesh(h, cfg, _walk_slices(h, cfg))


# ---------------------------------------------------------------------------
# Export

def _require_nonempty(mesh: Mesh) -> None:
    if not mesh.vertices:
        raise ValueError("mesh has no vertices; nothing to export")


def _components(vec: Optional[Vec4]) -> tuple[float, float, float, float]:
    """vec's components, NaN for a vector a flagged vertex lacks."""
    return _NAN4 if vec is None else vec.components()


def _nan(value: Optional[float]) -> float:
    """value, NaN for a scalar a flagged vertex lacks."""
    return _NAN if value is None else value


def _lb_norm(v: GridPoint) -> float:
    if v.flags:
        return _NAN
    l0, l1, l2, l3 = v.laplacian.components()
    # a left fold from 0.0: sum() rounds differently from Python 3.12 on
    return math.sqrt(0.0 + l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3)


def export_obj(mesh: Mesh, projection: int, path: str) -> None:
    """Wavefront OBJ of the grid projected by dropping one coordinate.

    Vertex lines keep the three retained position coordinates at 17
    significant digits.  Faces are the grid quads of each fixed-z slice
    (third parameter constant), 1-based indices, row-major order.
    """
    _require_nonempty(mesh)
    if projection not in (0, 1, 2, 3):
        raise ValueError(f"projection must be 0..3, got {projection}")
    keep = [i for i in range(4) if i != projection]
    nx, ny, nz = mesh.resolution
    lines: list[str] = []
    for v in mesh.vertices:
        position = _components(v.position)
        a, b, c = (position[i] for i in keep)
        lines.append(f"v {a:.17g} {b:.17g} {c:.17g}")
    for iz in range(nz):
        for ix in range(nx - 1):
            for iy in range(ny - 1):
                i00 = (ix * ny + iy) * nz + iz + 1
                i10 = ((ix + 1) * ny + iy) * nz + iz + 1
                i11 = ((ix + 1) * ny + iy + 1) * nz + iz + 1
                i01 = (ix * ny + iy + 1) * nz + iz + 1
                lines.append(f"f {i00} {i10} {i11} {i01}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def export_csv(mesh: Mesh, path: str) -> None:
    """One row per vertex in grid order; NaN fields print as nan."""
    _require_nonempty(mesh)
    lines = ["x,y,z,c0,c1,c2,c3,K,H,lb_norm,flags"]
    for v in mesh.vertices:
        fields = [repr(f) for f in (*v.params, *_components(v.position),
                                    _nan(v.gauss_k), _nan(v.mean_h),
                                    _lb_norm(v))]
        fields.append(";".join(v.flags))
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _json_float(value: Optional[float]) -> Optional[float]:
    return None if value is None or math.isnan(value) else value


def _json_vec(vec: Optional[Vec4]) -> list[Optional[float]]:
    # a Vec4's components are finite: its constructor refuses NaN
    return [None] * 4 if vec is None else list(vec.components())


def _vertex_dict(v: GridPoint) -> dict:
    return {
        "params": list(v.params),
        "position": _json_vec(v.position),
        "normal": {
            "raw": _json_vec(v.n_raw),
            "unit": _json_vec(v.unit),
            "magnitude": _json_float(v.magnitude),
            "character": None if v.character is None else v.character.value,
        },
        "metric": {
            "a": _json_float(v.a),
            "b": _json_float(v.b),
            "c": _json_float(v.c),
            "e": _json_float(v.e),
            "detg": _json_float(v.detg),
        },
        "K": _json_float(v.gauss_k),
        "H": _json_float(v.mean_h),
        "minimality": _json_float(v.minimality),
        "lb": _json_vec(v.laplacian),
        "lb_norm": _json_float(_lb_norm(v)),
        "flags": list(v.flags),
    }


def mesh_document(mesh: Mesh) -> dict:
    return {
        "scene": mesh.scene_name,
        "mode": mesh.mode,
        "resolution": list(mesh.resolution),
        "warnings": list(mesh.warnings),
        "vertices": [_vertex_dict(v) for v in mesh.vertices],
    }


def export_json(mesh: Mesh, path: str) -> None:
    """The mesh document, encoded in full before path is opened."""
    _require_nonempty(mesh)
    text = _dumps(mesh_document(mesh)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
