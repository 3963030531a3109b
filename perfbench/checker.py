"""Output checker for the ruled4 CLI commands the benchmark runs.

An output passes when
  * the process exit code is the one expected for the command,
  * every claim verdict equals the verdict expected for the scene's family,
  * a fixed sample of each scene's vertices matches the values pinned in
    reference.json, and an in-process `curvature_report` of the same
    vertices, within VALUE_TOL (values are compared, not bytes, so a
    kernel that reorders floating-point work within that tolerance still
    passes, and one that drifts further fails),
  * the output is byte-identical to the same command's earlier output in
    the same run.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

# |got - want| <= VALUE_TOL * max(1, |want|) for every compared field.
VALUE_TOL = 1e-9
SAMPLE_SIZE = 6  # seeded vertices per scene, besides the first and the last
EXPECTED_EXIT = 0  # every family: discrepancies are findings, not failures
# The vertex fields reference.json pins; the live reference covers them all.
PINNED_FIELDS = ("c0", "c1", "c2", "c3", "K", "H", "lb_norm", "detg")
REFERENCE = Path(__file__).resolve().parent / "reference.json"

_CSV_HEADER = "x,y,z,c0,c1,c2,c3,K,H,lb_norm,flags"


def _axis(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n - 1)] + [hi]


def grid_points(cfg) -> list[tuple[float, float, float]]:
    """The scene's grid as the CLI documents it: closed box, x slowest."""
    xs = _axis(*cfg.x_interval, cfg.resolution[0])
    ys = _axis(*cfg.y_interval, cfg.resolution[1])
    zs = _axis(*cfg.z_interval, cfg.resolution[2])
    return [(x, y, z) for x in xs for y in ys for z in zs]


def sample_indices(label: str, n_vertices: int) -> list[int]:
    """The first and last vertex and SAMPLE_SIZE more, fixed per scene."""
    picks = {0, n_vertices - 1}
    picks.update(random.Random(label).sample(range(n_vertices),
                                             min(SAMPLE_SIZE, n_vertices)))
    return sorted(picks)


@dataclass(frozen=True)
class ExpectedVertex:
    index: int
    params: tuple[float, float, float]
    fields: dict  # field name -> float (NaN where the vertex is flagged)
    character: Optional[str]
    flags: tuple[str, ...]
    source: str = "live"  # "live" covers every field; "pinned" PINNED_FIELDS

    def to_pinned(self) -> list:
        """[index, character, flags, values in PINNED_FIELDS order]."""
        return [self.index, self.character, list(self.flags),
                [self.fields.get(k) for k in PINNED_FIELDS]]

    @staticmethod
    def from_pinned(entry: list, params: tuple) -> "ExpectedVertex":
        index, character, flags, values = entry
        fields = {k: v for k, v in zip(PINNED_FIELDS, values)
                  if v is not None}
        return ExpectedVertex(index, params, fields, character,
                              tuple(flags), "pinned")


def scene_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_pinned(scene) -> dict:
    """The pinned entry of a scene; exits if it is missing or stale."""
    pinned = json.loads(REFERENCE.read_text("utf-8")).get(scene.label)
    if pinned is None or pinned["sha256"] != scene_digest(scene.path):
        raise SystemExit(f"perfbench: {REFERENCE.name} has no values for "
                         f"scene {scene.label} as it now reads; see "
                         "pin_reference.py")
    return pinned


class SceneReference:
    """What one scene's outputs must contain."""

    def __init__(self, ruled4, cfg, expected_verdicts: dict, pinned: dict):
        self.cfg = cfg
        self.verdicts = expected_verdicts
        self.resolution = tuple(cfg.resolution)
        points = grid_points(cfg)
        self.n_vertices = len(points)
        self.pinned = tuple(ExpectedVertex.from_pinned(v, points[v[0]])
                            for v in pinned["vertices"])
        surface = ruled4.build_hypersurface(cfg)
        self.sample = tuple(expected_vertex(ruled4, surface, v.index,
                                             points[v.index])
                            for v in self.pinned)

    def expected(self) -> tuple[ExpectedVertex, ...]:
        return self.pinned + self.sample


def expected_vertex(ruled4, surface, index: int,
                     p: tuple[float, float, float]) -> ExpectedVertex:
    fields = {}
    try:
        pos = ruled4.eval_point(surface, *p).components()
    except ruled4.DomainError:
        return ExpectedVertex(index, p, {}, None, ("DomainError",))
    fields.update({f"c{i}": v for i, v in enumerate(pos)})
    try:
        rep = ruled4.curvature_report(surface, *p)
    except (ruled4.DegenerateNormal, ruled4.SingularMetric,
            ruled4.DomainError) as exc:
        return ExpectedVertex(index, p, fields, None, (type(exc).__name__,))
    lb = rep.laplacian.components()
    fields.update({
        "K": rep.gauss_curvature, "H": rep.mean_curvature,
        "lb_norm": math.sqrt(sum(v * v for v in lb)),
        "minimality": rep.minimality,
        "n_magnitude": rep.normal.magnitude,
        "a": rep.metric.a, "b": rep.metric.b, "c": rep.metric.c,
        "e": rep.metric.e, "detg": rep.metric.detg,
    })
    fields.update({f"lb{i}": v for i, v in enumerate(lb)})
    fields.update({f"n_raw{i}": v for i, v in
                   enumerate(rep.normal.n_raw.components())})
    fields.update({f"n_unit{i}": v for i, v in
                   enumerate(rep.normal.unit.components())})
    return ExpectedVertex(index, p, fields,
                          rep.normal.character.name.lower(), ())


def _close(got: Optional[float], want: float) -> bool:
    if got is None:
        return math.isnan(want)
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    return abs(got - want) <= VALUE_TOL * max(1.0, abs(want))


def _compare(problems: list[str], where: str, got: dict,
             want: ExpectedVertex) -> None:
    where = f"{where} ({want.source})"
    for key, value in got.items():
        if key == "flags":
            if tuple(value) != want.flags:
                problems.append(f"{where}: flags {value} != {want.flags}")
        elif key == "character":
            if value != want.character:
                problems.append(f"{where}: character {value!r} != "
                                f"{want.character!r}")
        elif key in ("x", "y", "z"):
            if not _close(value, want.params["xyz".index(key)]):
                problems.append(f"{where}: param {key}={value!r}")
        elif want.source == "pinned" and key not in PINNED_FIELDS:
            continue
        else:
            expected = want.fields.get(key, float("nan"))
            if not _close(value, expected):
                problems.append(f"{where}: {key}={value!r}, "
                                f"expected {expected!r}")


def _check_verdicts(problems: list[str], doc: dict,
                    ref: SceneReference) -> None:
    got = {c["name"]: c["verdict"] for c in doc.get("claims", [])}
    if got != ref.verdicts:
        problems.append(f"verdicts {got} != expected {ref.verdicts}")
    if doc.get("scene") != ref.cfg.name:
        problems.append(f"scene name {doc.get('scene')!r}")
    if doc.get("exit_code") != EXPECTED_EXIT:
        problems.append(f"document exit_code {doc.get('exit_code')!r}")


def _json_vertex(v: dict) -> dict:
    out = {"x": v["params"][0], "y": v["params"][1], "z": v["params"][2],
           "flags": v["flags"], "character": v["normal"]["character"],
           "K": v["K"], "H": v["H"], "lb_norm": v["lb_norm"],
           "minimality": v["minimality"],
           "n_magnitude": v["normal"]["magnitude"]}
    for key in ("a", "b", "c", "e", "detg"):
        out[key] = v["metric"][key]
    for prefix, values in (("c", v["position"]), ("lb", v["lb"]),
                           ("n_raw", v["normal"]["raw"]),
                           ("n_unit", v["normal"]["unit"])):
        out.update({f"{prefix}{i}": x for i, x in enumerate(values)})
    return out


def _check_mesh_doc(problems: list[str], doc: dict,
                    ref: SceneReference) -> None:
    verts = doc.get("vertices", [])
    if doc.get("resolution") != list(ref.resolution) \
            or len(verts) != ref.n_vertices:
        problems.append(f"mesh shape {doc.get('resolution')} with "
                        f"{len(verts)} vertices")
        return
    for want in ref.expected():
        _compare(problems, f"vertex {want.index}",
                 _json_vertex(verts[want.index]), want)


def _check_csv(problems: list[str], text: str,
               ref: SceneReference) -> None:
    lines = text.split("\n")
    if lines[0] != _CSV_HEADER or lines[-1] != "" \
            or len(lines) != ref.n_vertices + 2:
        problems.append("csv header or row count")
        return
    for want in ref.expected():
        cells = lines[1 + want.index].split(",")
        if len(cells) != 11:
            problems.append(f"csv row {want.index} has {len(cells)} cells")
            continue
        row = dict(zip(("x", "y", "z", "c0", "c1", "c2", "c3", "K", "H",
                        "lb_norm"), map(float, cells[:10])))
        row["flags"] = tuple(cells[10].split(";")) if cells[10] else ()
        _compare(problems, f"csv row {want.index}", row, want)


@dataclass
class Tally:
    """Operations attempted and failed, with what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)


class OutputChecker:
    """Checks outputs and remembers digests for the byte-identity check."""

    def __init__(self):
        self.digests: dict[str, str] = {}  # command -> first output's

    def check(self, command: str, fmt: str, rc: int, data: bytes,
              ref: SceneReference) -> list[str]:
        problems: list[str] = []
        if rc != EXPECTED_EXIT:
            problems.append(f"exit code {rc}, expected {EXPECTED_EXIT}")
        try:
            text = data.decode("utf-8")
            if command == "check":
                _check_verdicts(problems, json.loads(text), ref)
            elif command == "report":
                doc = json.loads(text)
                _check_verdicts(problems, doc, ref)
                _check_mesh_doc(problems, doc.get("mesh", {}), ref)
            elif fmt == "json":
                _check_mesh_doc(problems, json.loads(text), ref)
            else:
                _check_csv(problems, text, ref)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(command, digest)
        if first != digest:
            problems.append("output differs from an earlier identical run")
        return problems


# ---------------------------------------------------------------------------
# Self-test: corrupted outputs must be counted as failed operations.

def flip_verdict(data: bytes) -> bytes:
    doc = json.loads(data)
    claim = doc["claims"][0]
    claim["verdict"] = "discrepancy" if claim["verdict"] == "pass" else "pass"
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _bump(value: float) -> float:
    """Move a value by 1e-6 of max(1, |value|), far outside VALUE_TOL."""
    return value + 1e-6 * max(1.0, abs(value))


def perturb_vertex(data: bytes, fmt: str, index: int) -> bytes:
    """Move one coordinate of vertex `index` by about a millionth."""
    text = data.decode("utf-8")
    if fmt == "json":
        doc = json.loads(text)
        verts = doc["mesh"]["vertices"] if "mesh" in doc else doc["vertices"]
        verts[index]["position"][1] = _bump(verts[index]["position"][1])
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    lines = text.split("\n")
    cells = lines[1 + index].split(",")
    cells[4] = repr(_bump(float(cells[4])))
    lines[1 + index] = ",".join(cells)
    return "\n".join(lines).encode("utf-8")
