"""Every demo, and each Python block of the README, runs to completion
against the repository's own sources."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.DOTALL)


def test_all_demos_found():
    assert len(DEMOS) == 6
    assert len(README_BLOCKS) == 2


@pytest.mark.parametrize(
    "args", [[str(demo)] for demo in DEMOS]
    + [["-c", block] for block in README_BLOCKS],
    ids=[demo.name for demo in DEMOS]
    + [f"README-{k}" for k in range(1, len(README_BLOCKS) + 1)])
def test_demo_exits_zero(args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
