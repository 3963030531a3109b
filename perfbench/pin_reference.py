"""Grade every scene the workloads can draw, and pin sampled vertex values.

    python3 perfbench/pin_reference.py

Run from the root of a source tree.  For every scene of every workload it
checks that the in-process `check_scene` grades each claim as the scene's
family expects, and prints each scene that grades otherwise.  If none
does, it writes perfbench/reference.json: for each scene, the digest of
its file and the values of a fixed sample of its vertices.  The output
checker compares the CLI's outputs with these values, so a later change to
the numerical kernel is measured against the package as it was when they
were pinned.  Exits 1, writing nothing, if any scene grades otherwise.
"""

import json
import shutil
import sys
from pathlib import Path

import checker
import scenes

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
import ruled4  # noqa: E402

WORK = ROOT / ".perfbench_work" / "pin"


def pin(scene) -> tuple[dict, dict]:
    """(verdicts that differ from the family's, the scene's pinned entry)."""
    cfg = ruled4.load_scene(str(scene.path))
    got = {c.name: c.verdict for c in ruled4.check_scene(cfg).claims}
    want = scenes.EXPECTED_VERDICTS[scene.family]
    differ = {name: (got.get(name), want.get(name))
              for name in set(got) | set(want)
              if got.get(name) != want.get(name)}
    surface = ruled4.build_hypersurface(cfg)
    points = checker.grid_points(cfg)
    vertices = [checker.expected_vertex(ruled4, surface, i,
                                        points[i]).to_pinned()
                for i in checker.sample_indices(scene.label, len(points))]
    return differ, {"sha256": checker.scene_digest(scene.path),
                    "vertices": vertices}


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    entries, bad = {}, 0
    try:
        for workload in scenes.WORKLOADS:
            for label in scenes.labels(workload):
                scene = scenes.scene_for(label, WORK)
                differ, entries[label] = pin(scene)
                if differ:
                    bad += 1
                    print(f"{label}: {differ}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"{len(entries)} scenes graded, {bad} differ from their family")
    if bad:
        return 1
    lines = [f"{json.dumps(label)}: {json.dumps(entry)}"
             for label, entry in entries.items()]
    checker.REFERENCE.write_text("{\n" + ",\n".join(lines) + "\n}\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
