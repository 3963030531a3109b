"""Every scene input ends in output or in one error line.

Mutations of the shipped scenes (a leaf replaced by a wrong type, a
non-finite or huge number or a bad expression; a key dropped or added; an
interval made empty, reversed or huge) run through `check` and `mesh
--format json` in process.  Each run either exits 0 or 1 with a parseable
`--out`, or exits 2 with one `ruled4: error:` line and no `--out`; no
exception escapes `main`.  `resolution` is clamped to at most 2 a side.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruled4.cli import main

SCENES = {name: json.loads((resources.files("ruled4.scenes")
                            / f"{name}.json").read_text())
          for name in ("example1", "exampleE1", "exampleEx3", "dualsphere")}

BAD_LEAVES = (
    None, True, "x", [], {}, [1, 2], 3, 0.5, -1,
    1e308, -1e308, 10**400, math.inf, -math.inf, math.nan,
    "", "sin(", "q*t", "t^t", "1/0", "sqrt(t)", "t^-1", "exp(exp(exp(t)))",
    "1²", "t^1e400", "1e999*t", "t^(1/3)", "(" * 200 + "t" + ")" * 200,
)
BAD_INTERVALS = ([0.5, 0.5], [1.0, -1.0], [-1e308, 1e308], [0.0, 1e300],
                 [0.0, 1e-300], [math.nan, 1.0])
NEW_KEYS = ("extra", "x", "t", "claims", "reference", "strict", "dual_norm",
            "i_vector", "resolution", "alpha", "u", "flat", "minimal")


def _paths(node, path=()):
    """(path, is_dict_key) for every node below the root."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,), isinstance(node, dict)
        yield from _paths(child, path + (key,))


def _dicts(node, path=()):
    if isinstance(node, dict):
        yield path
        for key, child in node.items():
            yield from _dicts(child, path + (key,))


@st.composite
def mutations(draw):
    """(scene name, [(op, path, value)]), op "set" or "drop"."""
    name = draw(st.sampled_from(sorted(SCENES)))
    doc = SCENES[name]
    paths = [p for p, _ in _paths(doc)]
    keys = [p for p, is_key in _paths(doc) if is_key]
    ops = []
    for _ in range(draw(st.integers(1, 2))):
        kind = draw(st.sampled_from(("leaf", "drop", "add", "interval")))
        if kind == "leaf":
            ops.append(("set", draw(st.sampled_from(paths)),
                        draw(st.sampled_from(BAD_LEAVES))))
        elif kind == "drop":
            ops.append(("drop", draw(st.sampled_from(keys)), None))
        elif kind == "add":
            where = draw(st.sampled_from(list(_dicts(doc))))
            ops.append(("set", where + (draw(st.sampled_from(NEW_KEYS)),),
                        draw(st.sampled_from(BAD_LEAVES + ([0, 1], True)))))
        else:
            axis = draw(st.sampled_from(("x", "y", "z", "t", "s", "r")))
            ops.append(("set", ("intervals", axis),
                        list(draw(st.sampled_from(BAD_INTERVALS)))))
    return name, ops


def _apply(doc, ops):
    """A copy of doc with ops applied; an op whose path an earlier op
    removed is skipped."""
    doc = json.loads(json.dumps(doc))
    for op, path, value in ops:
        try:
            node = doc
            for key in path[:-1]:
                node = node[key]
            if op == "drop":
                del node[path[-1]]
            elif isinstance(node, dict) or path[-1] < len(node):
                node[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            continue
    resolution = doc.get("resolution") if isinstance(doc, dict) else None
    if isinstance(resolution, list):
        doc["resolution"] = [_clamped(n) for n in resolution]
    return doc


def _clamped(n):
    """min(n, 2) for a number other than nan; anything else as it is."""
    number = isinstance(n, (int, float)) and not isinstance(n, bool)
    return min(n, 2) if number and n == n else n


def _run(args, out):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([*args, "--out", str(out)])
    return code, err.getvalue()


@settings(max_examples=200, deadline=None)
@given(mutations())
@example(("exampleEx3", [("set", ("curves", "u", 1), "1²")]))
@example(("exampleEx3", [("set", ("reference", "alpha", 2), "t^1e400")]))
@example(("example1", [("set", ("curves", "alpha", 0), "1e999*t")]))
@example(("example1", [("set", ("name",), 10**4000)]))
@example(("exampleE1", [("set", ("curves", "beta", 2), "1" * 5000)]))
def test_mutated_scene_ends_in_output_or_one_error_line(mutation):
    name, ops = mutation
    with tempfile.TemporaryDirectory() as folder:
        scene = Path(folder) / "scene.json"
        scene.write_text(json.dumps(_apply(SCENES[name], ops)))
        for command, extra in (("check", []), ("mesh", ["--format", "json"])):
            out = Path(folder) / f"{command}.json"
            code, err = _run([command, str(scene), *extra], out)
            if code == 2:
                assert err.startswith("ruled4: error:"), err
                assert len(err.splitlines()) == 1, err
                assert len(err) <= len("ruled4: error: \n") + 200, err
                assert not out.exists()
            else:
                assert code in (0, 1), (code, err)
                json.loads(out.read_text(encoding="utf-8"))
