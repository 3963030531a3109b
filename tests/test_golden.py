"""The CLI's outputs on the shipped scenes, pinned byte for byte.

`golden_sha256.txt` holds the SHA-256 of each output in `sha256sum`
format: `check`, `report` and `mesh --format obj|csv|json` on each of the
four shipped scenes, and the default `octtable`.  The outputs are meant to
be the same bytes on every supported Python version, so CI's version matrix
checks that claim too.  A change that alters an output on purpose prints
the new table with `PYTHONPATH=src python tests/test_golden.py`, commits it,
and says so in CHANGES.md.
"""

import hashlib
import sys
import tempfile
from importlib import resources
from pathlib import Path

from ruled4.cli import main

TABLE = Path(__file__).with_name("golden_sha256.txt")
SCENES = ("example1", "exampleE1", "exampleEx3", "dualsphere")


def _runs():
    """(output file name, CLI arguments before --out) for each output."""
    for name in SCENES:
        path = str(resources.files("ruled4.scenes") / f"{name}.json")
        yield f"{name}.check.json", ["check", path]
        yield f"{name}.report.json", ["report", path]
        for fmt in ("obj", "csv", "json"):
            yield f"{name}.mesh.{fmt}", ["mesh", path, "--format", fmt]
    yield "octtable.csv", ["octtable"]


def digests(folder: Path) -> dict[str, str]:
    """Each output's SHA-256, written under folder by the CLI in process."""
    out = {}
    for file_name, args in _runs():
        target = folder / file_name
        assert main([*args, "--out", str(target)]) == 0, file_name
        out[file_name] = hashlib.sha256(target.read_bytes()).hexdigest()
    return out


def test_cli_outputs_match_the_golden_digests(tmp_path):
    table = {}
    for line in TABLE.read_text().splitlines():
        digest, file_name = line.split("  ")
        table[file_name] = digest
    assert digests(tmp_path) == table


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        for file_name, digest in digests(Path(folder)).items():
            sys.stdout.write(f"{digest}  {file_name}\n")
