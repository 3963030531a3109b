"""Every scene the benchmark can draw grades and samples as it pins.

perfbench draws one scene per seed from two fixed families (90 octo-wide
boxes, 32 typed-long variants) and refuses a run whose outputs leave the
values pinned in perfbench/reference.json.  This runs each of those scenes
through `report` and compares its claim verdicts and every pinned vertex
with the tolerance and fields the benchmark's checker uses, so no seed can
draw a scene the package gets wrong.  perfbench's files are only read.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from ruled4.check import report_document
from ruled4.scene import load_scene

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


scenes = _load("scenes")
checker = _load("checker")

LABELS = [label for workload in scenes.WORKLOADS
          for label in scenes.labels(workload)]


def test_every_drawable_scene_is_listed():
    assert len(LABELS) == 90 + 32


# The vertex fields of a report document, by the names reference.json pins.
def _fields(v):
    return {"c0": v["position"][0], "c1": v["position"][1],
            "c2": v["position"][2], "c3": v["position"][3], "K": v["K"],
            "H": v["H"], "lb_norm": v["lb_norm"], "detg": v["metric"]["detg"]}


@pytest.mark.parametrize("label", LABELS)
def test_scene_matches_its_pinned_values(tmp_path, label):
    scene = scenes.scene_for(label, tmp_path)
    pinned = checker.load_pinned(scene)
    doc = report_document(load_scene(str(scene.path)))
    assert {c["name"]: c["verdict"] for c in doc["claims"]} \
        == scenes.EXPECTED_VERDICTS[scene.family]
    assert doc["exit_code"] == checker.EXPECTED_EXIT
    vertices = doc["mesh"]["vertices"]
    assert len(vertices) == math.prod(doc["mesh"]["resolution"])
    assert pinned["vertices"]
    for index, character, flags, values in pinned["vertices"]:
        v = vertices[index]
        assert (v["normal"]["character"], v["flags"]) == (character, flags), \
            index
        got = _fields(v)
        for key, want in zip(checker.PINNED_FIELDS, values):
            if want is None:
                assert got[key] is None, (index, key)
            else:
                assert abs(got[key] - want) \
                    <= checker.VALUE_TOL * max(1.0, abs(want)), (index, key)
