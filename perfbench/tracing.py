"""Traced run: spans around the public calls of each ruled4 layer.

The spans live in this file, not in the program: every layer is timed from
outside, around calls into its public functions.  Curve evaluations are
counted by passing a counting CurveSpec subclass in through
SceneConfig.curves, so nothing in the package is patched.
"""

from __future__ import annotations

import json
import os
import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Optional

import checker
import children

COMMANDS = ("check", "mesh", "report")
FORMATS = ("obj", "csv", "json")


class Tracer:
    """In-memory spans: (id, parent id, name, start ns, end ns)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([span_id, parent, name, time.perf_counter_ns(), 0])
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[span_id][4] = time.perf_counter_ns()

    def total_s(self, name: str, since: int = 0) -> float:
        return sum(end - start for _, _, n, start, end in self.spans[since:]
                   if n == name) / 1e9

    def calls_us(self, name: str, since: int = 0) -> list[float]:
        return [(end - start) / 1e3
                for _, _, n, start, end in self.spans[since:] if n == name]

    def dump(self, path: Path) -> None:
        rows = [dict(zip(("id", "parent", "name", "start_ns", "end_ns"), s))
                for s in self.spans]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def counting_curve_type(ruled4):
    """A CurveSpec subclass that adds each evaluate call to a counter."""

    @dataclass(frozen=True)
    class CountingCurve(ruled4.CurveSpec):
        counter: list = field(default=None, compare=False, repr=False)

        def evaluate(self, t):
            self.counter[0] += 1
            return super().evaluate(t)

    return CountingCurve


def export_bytes(ruled4, mesh, cfg, fmt: str, path: Path) -> bytes:
    if fmt == "obj":
        ruled4.export_obj(mesh, cfg.projection_axis, str(path))
    elif fmt == "csv":
        ruled4.export_csv(mesh, str(path))
    else:
        ruled4.export_json(mesh, str(path))
    return path.read_bytes()


def run_command(ruled4, command: str, cfg, fmt: str, work: Path, span):
    """One CLI command's work, in-process; (output bytes, mesh or None)."""
    if command == "check":
        with span("check.check_scene"):
            report = ruled4.check_scene(cfg)
        return (report.to_json() + "\n").encode("utf-8"), None
    if command == "mesh":
        surface = ruled4.build_hypersurface(cfg)
        with span("mesh.sample_grid"):
            mesh = ruled4.sample_grid(surface, cfg)
        return export_bytes(ruled4, mesh, cfg, fmt, work / f"out.{fmt}"), mesh
    with span("check.report_document"):
        doc = ruled4.report_document(cfg)
    return (json.dumps(doc, indent=2, allow_nan=False)
            + "\n").encode("utf-8"), None


def _no_span(_name):
    return nullcontext()


# ---------------------------------------------------------------------------
# Per-call layer timings

LAYER_CALLS = (
    "expr.curve_eval_us", "octo.pair_cross_eval_us", "lorentz.cross4_us",
    "hypersurface.frame_us", "hypersurface.gauss_map_us",
    "hypersurface.first_form_us", "hypersurface.second_form_us",
    "hypersurface.laplace_beltrami_us",
    "hypersurface.lb_closed_orthogonal_us",
    "hypersurface.curvature_report_us",
    "crosscheck.lb_closed_full_p_us", "octo.star_point_us",
)
# Layers only some scene kinds run, and the shipped scene that stands in
# for a workload without such a scene.
STAND_INS = {
    "octo.pair_cross_eval_us": "exampleEx3",
    "octo.star_point_us": "exampleEx3",
    "hypersurface.lb_closed_orthogonal_us": "exampleE1",
    "crosscheck.lb_closed_full_p_us": "exampleE1",
}
POINTS_PER_SCENE = 48


def layer_calls(ruled4, tracer: Tracer, cfg, sample_key: str) -> None:
    """Time one call of each public layer function at sampled grid points."""
    surface = ruled4.build_hypersurface(cfg)
    typed = surface.kind in (ruled4.SurfaceKind.TYPE1,
                             ruled4.SurfaceKind.TYPE2)
    octonion = cfg.mode == "octonion"
    points = checker.grid_points(cfg)
    points = random.Random(sample_key).sample(
        points, min(POINTS_PER_SCENE, len(points)))

    def timed(name, fn, *args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    for x, y, z in points:
        for curve in cfg.curves.values():
            timed("expr.curve_eval_us", curve.evaluate, x)
        if octonion:
            timed("octo.pair_cross_eval_us", surface.alpha.evaluate, x)
            timed("octo.star_point_us", ruled4.star_point, cfg.curves["u"],
                  cfg.curves["v"], cfg.curves["w"], x, y, z, i_vec=cfg.i_vec)
        try:
            fr = timed("hypersurface.frame_us", ruled4.frame, surface, x, y, z)
            timed("lorentz.cross4_us", ruled4.cross4,
                  fr.phi_x, fr.phi_y, fr.phi_z)
            gm = timed("hypersurface.gauss_map_us", ruled4.gauss_map,
                       surface, x, y, z, fr)
            timed("hypersurface.first_form_us", ruled4.first_form,
                  surface, x, y, z, fr)
            timed("hypersurface.second_form_us", ruled4.second_form,
                  surface, x, y, z, fr, gm)
            timed("hypersurface.laplace_beltrami_us",
                  ruled4.laplace_beltrami, surface, x, y, z)
            if typed:
                timed("hypersurface.lb_closed_orthogonal_us",
                      ruled4.lb_closed_orthogonal, surface, x, y, z)
                timed("crosscheck.lb_closed_full_p_us",
                      ruled4.crosscheck.lb_closed_full_p, surface, x, y, z)
            timed("hypersurface.curvature_report_us",
                  ruled4.curvature_report, surface, x, y, z)
        except (ruled4.DegenerateNormal, ruled4.SingularMetric,
                ruled4.DomainError):
            continue


# ---------------------------------------------------------------------------

def _threads_probe(ruled4, cfg, work: Path, tally: checker.Tally,
                   flip: bool) -> tuple[float, float]:
    """sample_grid with RULED4_THREADS unset and =2; outputs must match."""
    surface = ruled4.build_hypersurface(cfg)
    times, outputs = {}, {}
    for threads in (("2", None) if flip else (None, "2")):
        if threads is None:
            os.environ.pop("RULED4_THREADS", None)
        else:
            os.environ["RULED4_THREADS"] = threads
        try:
            t0 = time.perf_counter()
            mesh = ruled4.sample_grid(surface, cfg)
            times[threads] = time.perf_counter() - t0
        finally:
            os.environ.pop("RULED4_THREADS", None)
        outputs[threads] = export_bytes(ruled4, mesh, cfg, "json",
                                        work / "threads.json")
    tally.record("RULED4_THREADS=2",
                 [] if outputs[None] == outputs["2"]
                 else ["sample_grid output differs from the 1-thread run"])
    return times[None], times["2"]


def _stand_ins(cfg) -> dict[str, list[str]]:
    """Shipped scene -> the kind-specific layers the scene does not run."""
    kinds = {"exampleEx3": ("octonion",), "exampleE1": ("type1", "type2")}
    missing: dict[str, list[str]] = {}
    for name, scene in STAND_INS.items():
        if cfg.mode not in kinds[scene]:
            missing.setdefault(scene, []).append(name)
    return missing


def _untraced_pass(ruled4, cfg, fmt: str, work: Path) -> float:
    t0 = time.perf_counter()
    for command in COMMANDS:
        run_command(ruled4, command, cfg, fmt, work, _no_span)
    return time.perf_counter() - t0


def _traced_pass(ruled4, cfg, fmt: str, work: Path, tracer: Tracer,
                 counting):
    """The untraced pass's work with spans and counting curves.

    Returns (seconds, counts, {command: output}, mesh).
    """
    counter = [0]
    counted = replace(cfg, curves={k: counting(v.comps, counter)
                                   for k, v in cfg.curves.items()})
    evals, outputs = {}, {}
    t0 = time.perf_counter()
    for command in COMMANDS:
        before = counter[0]
        with tracer.span(f"command.{command}"):
            outputs[command], made = run_command(ruled4, command, counted,
                                                 fmt, work, tracer.span)
        evals[command] = counter[0] - before
        if command == "mesh":
            mesh = made
    seconds = time.perf_counter() - t0
    vertices = len(mesh.vertices)
    useful = len(cfg.curves) * cfg.resolution[0]
    counts = {
        **{f"expr.evals_per_vertex.{c}": evals[c] / vertices
           for c in COMMANDS},
        **{f"expr.eval_useful_ratio.{c}": useful / evals[c]
           for c in COMMANDS},
        "hypersurface.report_yield":
            sum(1 for v in mesh.vertices if not v.flags) / vertices,
    }
    return seconds, counts, outputs, mesh


def _grid_reports_s(ruled4, cfg) -> float:
    """curvature_report over every grid point, as check_scene runs it."""
    t0 = time.perf_counter()
    surface = ruled4.build_hypersurface(cfg)
    for p in checker.grid_points(cfg):
        try:
            ruled4.curvature_report(surface, *p)
        except (ruled4.DegenerateNormal, ruled4.SingularMetric,
                ruled4.DomainError):
            pass
    return time.perf_counter() - t0


def _export_all(ruled4, mesh, cfg, fmt: str, work: Path,
                tracer: Tracer) -> dict:
    """The mesh in every format; seconds per format, bytes of `fmt`."""
    r = {}
    for each in FORMATS:
        t0 = time.perf_counter()
        with tracer.span(f"mesh.export_{each}"):
            data = export_bytes(ruled4, mesh, cfg, each,
                                work / f"export.{each}")
        r[f"export_{each}_s"] = time.perf_counter() - t0
        if each == fmt:
            r["bytes_written"] = len(data)
    return r


def run_traced(ruled4, scene, ref, seconds: float, src: Path, work: Path,
               shipped: Path, tracer: Tracer):
    """Traced rounds for `seconds`; per-layer metrics are medians of rounds.

    Returns (metrics, tally, stand-in notes, rounds, first outputs).
    """
    env = children.child_env(src)
    counting = counting_curve_type(ruled4)
    out_checker = checker.OutputChecker()
    tally = checker.Tally()
    rounds: list[dict] = []
    counts: Optional[dict] = None
    first_outputs: dict = {}
    cfg, fmt = ref.cfg, scene.mesh_format
    stand_ins = _stand_ins(cfg)
    stand_in_cfgs = {s: ruled4.load_scene(str(shipped / f"{s}.json"))
                     for s in stand_ins}

    start = time.perf_counter()
    # At least two rounds, so outputs and counts are compared with a repeat.
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        r: dict = {}
        setup = children.setup_probe(scene.path, env, work, src)
        for key in ("import_s", "load_s", "build_s"):
            r[key] = setup[key]

        # Alternate which pass runs first, so neither always runs warm.
        flip = len(rounds) % 2 == 1
        mark = len(tracer.spans)
        if flip:
            traced = _traced_pass(ruled4, cfg, fmt, work, tracer, counting)
            r["untraced_s"] = _untraced_pass(ruled4, cfg, fmt, work)
        else:
            r["untraced_s"] = _untraced_pass(ruled4, cfg, fmt, work)
            traced = _traced_pass(ruled4, cfg, fmt, work, tracer, counting)
        r["traced_s"], round_counts, outputs, mesh = traced
        for name in ("check.check_scene", "check.report_document",
                     "mesh.sample_grid"):
            r[name] = tracer.total_s(name, mark)
        for command, data in outputs.items():
            first_outputs.setdefault(command, data)
            tally.record(command,
                         out_checker.check(command, fmt, 0, data, ref))
        if counts is None:
            counts = round_counts
        elif round_counts != counts:
            tally.record("curve-evaluation counts",
                         [f"counts changed between rounds: {round_counts}"])

        r["grid_reports_s"] = _grid_reports_s(ruled4, cfg)
        r.update(_export_all(ruled4, mesh, cfg, fmt, work, tracer))
        single, double = _threads_probe(ruled4, cfg, work, tally, flip)
        r["threads2_speedup"] = single / double

        mark = len(tracer.spans)
        layer_calls(ruled4, tracer, cfg, f"{scene.label}:{len(rounds)}")
        for stand_in, names in stand_ins.items():
            sub = Tracer()
            layer_calls(ruled4, sub, stand_in_cfgs[stand_in],
                        f"{stand_in}:{len(rounds)}")
            tracer.spans.extend(s for s in sub.spans if s[2] in names)
        for name in LAYER_CALLS:
            r[name] = median(tracer.calls_us(name, mark))
        rounds.append(r)

    def med(key):
        return median(r[key] for r in rounds)

    metrics = {
        "ruled4.import_s": med("import_s"),
        "scene.load_s": med("load_s"),
        "scene.build_s": med("build_s"),
        **{name: med(name) for name in LAYER_CALLS},
        **counts,
        "check.check_scene_s": med("check.check_scene"),
        "check.claims_self_s": median(r["check.check_scene"]
                                      - r["grid_reports_s"] for r in rounds),
        "check.report_document_s": med("check.report_document"),
        "mesh.sample_grid_s": med("mesh.sample_grid"),
        **{f"mesh.export_{each}_s": med(f"export_{each}_s")
           for each in FORMATS},
        "mesh.bytes_written": med("bytes_written"),
        "mesh.threads2_speedup": med("threads2_speedup"),
        "trace.overhead_s": median(r["traced_s"] - r["untraced_s"]
                                   for r in rounds),
    }
    notes = {name: f"shipped {stand_in}"
             for stand_in, names in stand_ins.items() for name in names}
    return metrics, tally, notes, len(rounds), first_outputs
