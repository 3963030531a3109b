"""ruled4 benchmark: CLI wall time per workload, or a traced per-layer run.

    python3 perfbench/run.py --workload octo-wide --seed 1 --seconds 55

Run from the root of a source tree; the package is imported from ./src.
--trace 0 runs `ruled4 check`, `mesh` and `report` as child processes on
the workload's scene in rounds until --seconds have passed, checks every
output, and reports medians over rounds.  --trace 1 runs the same work
in-process with spans around the public call of each layer.  The last
line of standard output is one JSON object; the lines before it are a
readable summary.  Workloads: octo-wide, typed-long.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

import checker
import children
import scenes
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SHIPPED = SRC / "ruled4" / "scenes"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"


def _units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def _import_package():
    """Import ruled4 from this tree's src/, and only from there."""
    if not (SRC / "ruled4" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}/ruled4; "
                         "run from the root of a ruled4 source tree")
    sys.path.insert(0, str(SRC))
    import ruled4
    import ruled4.crosscheck  # noqa: F401  (layer timed by the traced run)
    if not Path(ruled4.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: ruled4 imported from {ruled4.__file__}")
    return ruled4


def self_test(ref, fmt: str, outputs: dict) -> list[str]:
    """Corrupted copies of real outputs must each count as a failed run."""
    missed = []
    for command, data in outputs.items():
        corrupt = []
        if command in ("check", "report"):
            corrupt.append(("flipped verdict", checker.flip_verdict(data)))
        if command in ("mesh", "report"):
            index = ref.sample[len(ref.sample) // 2].index
            layout = "json" if command == "report" else fmt
            corrupt.append(("perturbed vertex",
                            checker.perturb_vertex(data, layout, index)))
        for label, bad in corrupt:
            if not checker.OutputChecker().check(command, fmt, 0, bad, ref):
                missed.append(f"{command}: {label} accepted")
    return missed


def run_end_to_end(scene, ref, seconds: float, work: Path):
    """CLI rounds for `seconds`; each time metric is a median of rounds."""
    env = children.child_env(SRC)
    out_checker = checker.OutputChecker()
    tally = checker.Tally()
    samples: dict[str, list[float]] = {}
    first_outputs: dict = {}
    peak_kb = 0
    rounds = 0
    start = time.perf_counter()
    # At least two rounds, so every output is compared with a repeat.
    while rounds < 2 or time.perf_counter() - start < seconds:
        t = children.setup_probe(scene.path, env, work, SRC)
        samples.setdefault("setup", []).append(
            t["import_s"] + t["load_s"] + t["build_s"])
        for command in tracing.COMMANDS:
            out = work / f"{command}.out"
            run = children.run_child(
                children.cli_argv(command, scene.path, out,
                                  scene.mesh_format), env, work)
            data = out.read_bytes() if out.exists() else b""
            out.unlink(missing_ok=True)
            problems = out_checker.check(command, scene.mesh_format,
                                         run.returncode, data, ref)
            if problems and run.stderr.strip():
                problems.append("stderr: " + run.stderr.decode(
                    "utf-8", "replace").strip().splitlines()[-1])
            tally.record(command, problems)
            samples.setdefault(command, []).append(run.wall_s)
            peak_kb = max(peak_kb, run.maxrss_kb)
            first_outputs.setdefault(command, data)
        rounds += 1
    metrics = {f"{what}_s": statistics.median(samples[what])
               for what in (*tracing.COMMANDS, "setup")}
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    return metrics, tally, first_outputs, rounds


def _summary(workload: str, seed: int, trace_on: bool, n_rounds: int,
             metrics: dict, units: dict, tally, sources: dict) -> list[str]:
    lines = [f"perfbench workload={workload} seed={seed} "
             f"trace={int(trace_on)} rounds={n_rounds} "
             f"attempted={tally.attempted} failed={tally.failed}"]
    for name, value in metrics.items():
        note = f"  ({sources[name]})" if name in sources else ""
        lines.append(f"  {name:40s} {value:14.6g} {units[name]}{note}")
    lines.extend(f"  FAILED {p}" for p in tally.problems[:20])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=scenes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ruled4 = _import_package()
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        scene = scenes.draw_scene(args.workload, args.seed, work)
        ref = checker.SceneReference(
            ruled4, ruled4.load_scene(str(scene.path)),
            scenes.EXPECTED_VERDICTS[scene.family],
            checker.load_pinned(scene))
        # Compile bytecode and warm the file cache before timing anything.
        children.setup_probe(scene.path, children.child_env(SRC), work, SRC)
        sources: dict = {}
        if args.trace:
            tracer = tracing.Tracer()
            metrics, tally, sources, n_rounds, outputs = tracing.run_traced(
                ruled4, scene, ref, args.seconds, SRC, work, SHIPPED, tracer)
            units = _units("per_layer")
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.json")
        else:
            metrics, tally, outputs, n_rounds = run_end_to_end(
                scene, ref, args.seconds, work)
            units = _units("end_to_end")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    if set(metrics) != set(units):
        print("perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 1
    missed = self_test(ref, scene.mesh_format, outputs)
    if missed:
        print("perfbench: output checker self-test failed: "
              + "; ".join(missed), file=sys.stderr)
        return 1
    for line in _summary(args.workload, args.seed, bool(args.trace),
                         n_rounds, metrics, units, tally, sources):
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
