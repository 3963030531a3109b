"""Child processes: the ruled4 CLI and the set-up probe, timed from outside."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

PROBE = Path(__file__).resolve().parent / "setup_probe.py"


def child_env(src: Path) -> dict:
    """The caller's environment with only the package source on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    env.pop("RULED4_THREADS", None)
    return env


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    returncode: int
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], env: dict, scratch: Path,
              timeout_s: float = 150.0) -> ChildRun:
    """Run argv to completion; wall time and this child's own peak RSS.

    os.wait4 reports the rusage of exactly this child, so one large child
    is not hidden behind the run's other processes.
    """
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, proc.returncode, usage.ru_maxrss,
                    out_path.read_bytes(), err_path.read_bytes())


def cli_argv(command: str, scene: Path, out: Path, fmt: str) -> list[str]:
    argv = [sys.executable, "-m", "ruled4.cli", command, str(scene),
            "--out", str(out)]
    if command == "mesh":
        argv += ["--format", fmt]
    return argv


def setup_probe(scene: Path, env: dict, scratch: Path, src: Path) -> dict:
    """import + load_scene + build_hypersurface in a fresh interpreter."""
    run = run_child([sys.executable, str(PROBE), str(scene)], env, scratch)
    if run.returncode != 0:
        raise RuntimeError("set-up probe failed: "
                           + run.stderr.decode("utf-8", "replace"))
    timings = json.loads(run.stdout)
    if not Path(timings.pop("module")).resolve().is_relative_to(src):
        raise RuntimeError("set-up probe imported ruled4 from outside "
                           f"{src}")
    return timings
