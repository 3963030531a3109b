"""The lazy `ruled4` namespace and the modules each command loads."""

import importlib
import inspect
import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ruled4

SRC = str(Path(__file__).resolve().parents[1] / "src")
# A child's environment: only the package source on the path, and no
# bytecode written into it, as the benchmark's children run.
CHILD_ENV = {"PATH": "/usr/bin:/bin", "PYTHONPATH": SRC,
             "PYTHONDONTWRITEBYTECODE": "1"}
TYPED = str(resources.files("ruled4.scenes") / "exampleE1.json")
OCTONION = str(resources.files("ruled4.scenes") / "exampleEx3.json")
DUAL = str(resources.files("ruled4.scenes") / "dualsphere.json")


def modules_after(code: str) -> set[str]:
    """Every module a fresh interpreter holds after running code."""
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded_after(code: str) -> set[str]:
    """The ruled4 submodules a fresh interpreter holds after running code."""
    return {m.split(".", 1)[1] for m in modules_after(code)
            if m.startswith("ruled4.")}


def build_code(path: str) -> str:
    return ("import ruled4\n"
            f"ruled4.build_hypersurface(ruled4.load_scene({path!r}))")


def command_code(*args: str) -> str:
    return f"from ruled4.cli import main\nassert main({list(args)!r}) == 0"


def after_build(path: str) -> set[str]:
    return loaded_after(build_code(path))


def after_command(*args: str) -> set[str]:
    return loaded_after(command_code(*args))


# ---------------------------------------------------------------------------
# Module footprint

def test_bare_import_loads_no_submodule():
    assert loaded_after("import ruled4") == set()


def test_typed_build_loads_no_construction_check_or_export():
    loaded = after_build(TYPED)
    assert {"scene", "hypersurface"} <= loaded
    assert not loaded & {"octo", "octonion", "kernel", "pointwise", "mesh",
                         "check", "crosscheck", "cli"}


def test_octonion_build_loads_the_construction():
    # the octonion algebra is loaded only for the values star_point returns
    loaded = after_build(OCTONION)
    assert "octo" in loaded and "octonion" not in loaded


def test_typed_mesh_loads_no_claims_or_construction(tmp_path):
    loaded = after_command("mesh", TYPED, "--out", str(tmp_path / "out"))
    assert "mesh" in loaded
    assert not loaded & {"check", "crosscheck", "octo", "octonion",
                         "typedclaims", "octoclaims", "printer"}


@pytest.mark.parametrize("command", ["check", "report"])
def test_typed_check_and_report_load_no_construction(tmp_path, command):
    # the claims grade the walk's records; the scalar API is not theirs
    loaded = after_command(command, TYPED, "--out", str(tmp_path / "out"))
    assert {"check", "typedclaims"} <= loaded
    assert not loaded & {"octo", "octonion", "pointwise", "octoclaims",
                         "printer"}
    # the vertex table is report's alone
    assert ("mesh" in loaded) is (command == "report")


@pytest.mark.parametrize("scene", [OCTONION, DUAL],
                         ids=["exampleEx3", "dualsphere"])
@pytest.mark.parametrize("command", ["check", "report"])
def test_construction_check_and_report_load_no_algebra(tmp_path, command,
                                                      scene):
    # the star products come from octo, not the octonion algebra
    loaded = after_command(command, scene, "--out", str(tmp_path / "out"))
    assert {"check", "octo", "octoclaims"} <= loaded
    assert not loaded & {"octonion", "pointwise", "typedclaims", "printer"}
    assert ("mesh" in loaded) is (command == "report")


@pytest.mark.parametrize("scene", [OCTONION, DUAL],
                         ids=["exampleEx3", "dualsphere"])
def test_construction_mesh_loads_no_claims(tmp_path, scene):
    loaded = after_command("mesh", scene, "--out", str(tmp_path / "out"))
    assert {"mesh", "octo"} <= loaded
    assert not loaded & {"check", "crosscheck", "octonion", "typedclaims",
                         "octoclaims", "printer"}


def test_octtable_loads_no_scene_machinery(tmp_path):
    loaded = after_command("octtable", "--out", str(tmp_path / "table.csv"))
    assert "octonion" in loaded
    assert not loaded & {"scene", "expr", "hypersurface", "mesh", "check",
                         "octo"}


SCENES = pytest.mark.parametrize("scene", [TYPED, OCTONION, DUAL],
                                 ids=["exampleE1", "exampleEx3", "dualsphere"])


@SCENES
@pytest.mark.parametrize("command", ["check", "mesh", "report"])
def test_commands_load_neither_fractions_nor_decimal(tmp_path, command,
                                                     scene):
    # literal exponents are ints and expr.Ratio values
    code = command_code(command, scene, "--out", str(tmp_path / "out"))
    assert not modules_after(code) & {"fractions", "decimal"}


@SCENES
def test_build_loads_neither_fractions_nor_decimal(scene):
    assert not modules_after(build_code(scene)) & {"fractions", "decimal"}


# Each command's compile footprint: the AST nodes of the ruled4 sources a
# fresh interpreter compiles, summed over ast.walk of each source by a hook
# on SourceFileLoader.source_to_code.  -X pycache_prefix points the loader
# at an empty directory, so every module is compiled from source whatever
# src/ruled4/__pycache__ holds.  The bounds are the counts when they were
# pinned, the same on Python 3.10 to 3.13; a change that compiles more
# raises its bound and says why.
COUNT_PROBE = """
import ast, sys
from importlib.machinery import SourceFileLoader
to_code = SourceFileLoader.source_to_code
nodes = [0]

def counting(self, data, path, *args, **kwargs):
    if path.startswith(sys.argv[1]):
        nodes[0] += sum(1 for _ in ast.walk(ast.parse(data)))
    return to_code(self, data, path, *args, **kwargs)

SourceFileLoader.source_to_code = counting
exec(sys.argv[2])
print(nodes[0])
"""

NODE_BOUNDS = {
    ("setup", "exampleE1"): 9304, ("setup", "exampleEx3"): 10760,
    ("check", "exampleE1"): 18165, ("check", "exampleEx3"): 19664,
    ("report", "exampleE1"): 19326, ("report", "exampleEx3"): 20825,
    ("mesh", "exampleE1"): 14689, ("mesh", "exampleEx3"): 16145,
}
SCENE_FILES = {"exampleE1": TYPED, "exampleEx3": OCTONION}


def compiled_nodes(command: str, scene: str, scratch: Path) -> int:
    """The AST nodes `command` compiles on a shipped scene, "setup" standing
    for import, load_scene and build_hypersurface; scratch holds its output
    and its empty bytecode cache."""
    path = SCENE_FILES[scene]
    code = (build_code(path) if command == "setup"
            else command_code(command, path, "--out", str(scratch / "out")))
    proc = subprocess.run(
        [sys.executable, "-X", f"pycache_prefix={scratch / 'pycache'}",
         "-c", COUNT_PROBE, str(Path(SRC) / "ruled4"), code],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("command, scene", sorted(NODE_BOUNDS),
                         ids=["-".join(key) for key in sorted(NODE_BOUNDS)])
def test_compiled_nodes_stay_within_their_bound(tmp_path, command, scene):
    nodes = compiled_nodes(command, scene, tmp_path)
    assert nodes <= NODE_BOUNDS[command, scene], nodes


def test_importtime_lists_the_lazily_loaded_modules():
    # the namespace loads through __import__, which -X importtime records
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import ruled4; ruled4.load_scene"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    timed = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert {"ruled4", "ruled4.scene", "ruled4.expr"} <= timed


def test_default_i_loads_only_its_defining_module():
    loaded = loaded_after("import ruled4\nruled4.DEFAULT_I")
    assert loaded == {"_frozen", "errors", "lorentz"}


def test_submodule_attribute_after_bare_import():
    loaded = loaded_after("import ruled4\nruled4.crosscheck.lb_closed_full_p")
    assert "crosscheck" in loaded and "octo" not in loaded


# ---------------------------------------------------------------------------
# Namespace contract

# The one public value that is neither a class nor a function.
CONSTANTS = {"DEFAULT_I": "ruled4.lorentz"}


@pytest.mark.parametrize("name", [n for n in ruled4.__all__
                                  if n != "__version__"])
def test_public_name_is_its_defining_modules_object(name):
    value = getattr(ruled4, name)
    if name in CONSTANTS:
        module = importlib.import_module(CONSTANTS[name])
    else:
        assert inspect.isclass(value) or inspect.isfunction(value)
        module = sys.modules[value.__module__]
    assert vars(module)[name] is value


def test_all_names_are_distinct_and_listed_by_dir():
    assert len(set(ruled4.__all__)) == len(ruled4.__all__)
    assert set(ruled4.__all__) <= set(dir(ruled4))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ruled4.no_such_name  # noqa: B018
    assert getattr(ruled4, "_metric_gradients", None) is None


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ruled4 import *", namespace)
    for name in ruled4.__all__:
        assert namespace[name] is getattr(ruled4, name)
