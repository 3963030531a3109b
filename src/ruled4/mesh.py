"""Grid sampling of a surface and file export (OBJ, CSV, JSON).

The grid is the closed parameter box sampled uniformly, stored row-major
with x slowest.  `_walk_slices`, the one serial grid walker behind check,
mesh and report (`walk_grid` lists its vertices), evaluates alpha, beta and
gamma once per x sample and runs that slice's kernel (ruled4.kernel) at
every (y, z) of the slice.  Each vertex yields one flat record
(GridPoint); one where the kernel degenerates keeps its slot with NaN
fields, its position where that exists, and a flag naming the failure
(DegenerateNormal, SingularMetric, DomainError, or NonFiniteValue on
overflow), so one bad point never aborts a grid.

Exports are deterministic byte for byte: fixed field order, fixed float
formatting (repr for CSV and JSON, %.17g for OBJ), newline "\\n", no
timestamps.  NaN serializes as the literal "nan" in CSV and null in JSON.
`_dumps` writes every JSON document (check, report, mesh) with a two-space
indented envelope and each vertex or minimality sample as one compact line.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional

from .errors import DegenerateNormal, DomainError, SingularMetric
from .hypersurface import RuledHypersurface, _axis
from .kernel import GridPoint, _jets, _Slice
from .scene import SceneConfig

__all__ = ["GridPoint", "walk_grid", "grid_mesh", "VertexData", "Mesh",
           "sample_grid", "export_obj", "export_csv", "export_json",
           "mesh_document"]

_NAN = float("nan")
_NAN4 = (_NAN, _NAN, _NAN, _NAN)


class VertexData(NamedTuple):
    params: tuple[float, float, float]
    position: tuple[float, float, float, float]
    n_raw: tuple[float, float, float, float]
    n_unit: tuple[float, float, float, float]
    n_magnitude: float
    n_character: Optional[str]
    metric_a: float
    metric_b: float
    metric_c: float
    metric_e: float
    detg: float
    gauss_k: float
    mean_h: float
    minimality: float
    lb: tuple[float, float, float, float]
    lb_norm: float
    flags: tuple[str, ...]


class Mesh(NamedTuple):
    scene_name: str
    mode: str
    resolution: tuple[int, int, int]
    axes: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]
    vertices: tuple[VertexData, ...]
    warnings: tuple[str, ...]


def _axes(cfg: SceneConfig):
    nx, ny, nz = cfg.resolution
    return (_axis(cfg.x_interval[0], cfg.x_interval[1], nx),
            _axis(cfg.y_interval[0], cfg.y_interval[1], ny),
            _axis(cfg.z_interval[0], cfg.z_interval[1], nz))


def _grid_point(s: _Slice, y: float, z: float) -> GridPoint:
    """The kernel's record at (y, z), or one flagged with its failure that
    keeps the vertex's position where that exists."""
    try:
        return s.vertex(y, z)
    except (DegenerateNormal, SingularMetric, DomainError) as exc:
        flag = type(exc).__name__
    try:
        position = s.position(y, z)
    except DomainError:
        position = None
    return GridPoint((s.x, y, z), position, flag)


def _walk_slices(h: RuledHypersurface, cfg: SceneConfig):
    """(x, its _Slice or None, its GridPoints) per x sample.

    alpha, beta and gamma are evaluated once per x sample; a failure there
    flags the whole slice and leaves its _Slice None.
    """
    xs, ys, zs = _axes(cfg)
    for x in xs:
        try:
            s = _Slice(h.kind, x, _jets(h, x))
        except DomainError as exc:
            flag = type(exc).__name__
            yield x, None, [GridPoint((x, y, z), None, flag)
                            for y in ys for z in zs]
            continue
        yield x, s, [_grid_point(s, y, z) for y in ys for z in zs]


def walk_grid(h: RuledHypersurface, cfg: SceneConfig) -> list[GridPoint]:
    """Every vertex of the scene's grid, row-major, x slowest."""
    return [pt for _, _, points in _walk_slices(h, cfg) for pt in points]


def _vertex(pt: GridPoint) -> VertexData:
    if pt.flag is not None:
        pos = _NAN4 if pt.position is None else pt.position.components()
        return VertexData(pt.params, pos, _NAN4, _NAN4, _NAN, None,
                          _NAN, _NAN, _NAN, _NAN, _NAN, _NAN, _NAN, _NAN,
                          _NAN4, _NAN, (pt.flag,))
    lb = l0, l1, l2, l3 = pt.laplacian.components()
    # lb_norm is a left fold from 0.0: sum() rounds differently from Python
    # 3.12 on
    return VertexData(pt.params, pt.position.components(),
                      pt.n_raw.components(), pt.unit.components(),
                      pt.magnitude, pt.character.value, pt.a, pt.b, pt.c, pt.e,
                      pt.detg, pt.gauss_k, pt.mean_h, pt.minimality, lb,
                      math.sqrt(0.0 + l0 * l0 + l1 * l1 + l2 * l2 + l3 * l3),
                      ())


def grid_mesh(h: RuledHypersurface, cfg: SceneConfig,
              points: list[GridPoint]) -> Mesh:
    """The Mesh of a grid that walk_grid(h, cfg) sampled."""
    return Mesh(cfg.name, cfg.mode, tuple(cfg.resolution), _axes(cfg),
                tuple(_vertex(pt) for pt in points), h.warnings)


def sample_grid(h: RuledHypersurface, cfg: SceneConfig) -> Mesh:
    """Evaluate the pipeline over the scene's grid, row-major, x slowest.

    One serial walk_grid pass; RULED4_THREADS is accepted and ignored.
    """
    return grid_mesh(h, cfg, walk_grid(h, cfg))


# ---------------------------------------------------------------------------
# Export

def _require_nonempty(mesh: Mesh) -> None:
    if not mesh.vertices:
        raise ValueError("mesh has no vertices; nothing to export")


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
        a, b, c = (v.position[i] for i in keep)
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
        fields = [repr(f) for f in (*v.params, *v.position, v.gauss_k,
                                    v.mean_h, v.lb_norm)]
        fields.append(";".join(v.flags))
        lines.append(",".join(fields))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def _json_float(value: float) -> Optional[float]:
    return None if math.isnan(value) else value


def _json_vec(values: tuple[float, ...]) -> list[Optional[float]]:
    return [_json_float(v) for v in values]


def _vertex_dict(v: VertexData) -> dict:
    return {
        "params": list(v.params),
        "position": _json_vec(v.position),
        "normal": {
            "raw": _json_vec(v.n_raw),
            "unit": _json_vec(v.n_unit),
            "magnitude": _json_float(v.n_magnitude),
            "character": v.n_character,
        },
        "metric": {
            "a": _json_float(v.metric_a),
            "b": _json_float(v.metric_b),
            "c": _json_float(v.metric_c),
            "e": _json_float(v.metric_e),
            "detg": _json_float(v.detg),
        },
        "K": _json_float(v.gauss_k),
        "H": _json_float(v.mean_h),
        "minimality": _json_float(v.minimality),
        "lb": _json_vec(v.lb),
        "lb_norm": _json_float(v.lb_norm),
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


def export_json(mesh: Mesh, path: str) -> None:
    """The mesh document, encoded in full before path is opened."""
    _require_nonempty(mesh)
    text = _dumps(mesh_document(mesh)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
