"""Command-line interface.

    ruled4 check <scene.json> [--out report.json] [overrides]
    ruled4 mesh <scene.json> --format obj --project 0 --out mesh.obj [overrides]
    ruled4 report <scene.json> [--out report.json] [overrides]
    ruled4 octtable --out table.csv [--seed 1,2,4]

Overrides (--strict/--no-strict, --dual-norm, --i-vector) replace the
scene file's options for one invocation.  `check` and `report` exit 1
when an internal-consistency claim fails or a claim is inconclusive (graded
over zero evaluable points), else 0; claim discrepancies against
published statements are findings, not failures.  `report` grades its
claims and writes its vertex table from one serial walk of the grid; a
failing vertex is flagged (DegenerateNormal, SingularMetric, DomainError,
NonFiniteValue), never fatal.  RULED4_THREADS is accepted and ignored.
Each command imports only the modules it runs.  `python -m ruled4.cli` and
the `ruled4` script freeze the import-time heap before main() runs (see
_entry); main() itself leaves the garbage collector alone.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import Ruled4Error
from .lorentz import Vec4

if TYPE_CHECKING:
    from .scene import SceneConfig

__all__ = ["main"]

# A message may echo megabytes of input; its tail has the offset or pointer.
_MAX_MESSAGE = 200


def _parse_vec4(text: str) -> Vec4:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected 4 comma-separated numbers, got {text!r}")
    try:
        return Vec4(*(float(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_seed(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected 3 comma-separated indices, got {text!r}")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _add_scene_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("scene", help="path to a scene JSON file")
    sub.add_argument("--strict", action=argparse.BooleanOptionalAction,
                     default=None,
                     help="override the scene's strict flag")
    sub.add_argument("--dual-norm", choices=("lorentz", "euclid"),
                     default=None, dest="dual_norm",
                     help="override the product used for advisory checks")
    sub.add_argument("--i-vector", type=_parse_vec4, default=None,
                     dest="i_vector", metavar="A,B,C,D",
                     help="override the ternary-product reference vector")


def _bounded(exc: Exception) -> str:
    """str(exc), its middle elided if it is longer than _MAX_MESSAGE."""
    text = str(exc)
    if len(text) <= _MAX_MESSAGE:
        return text
    keep = (_MAX_MESSAGE - 3) // 2
    return f"{text[:keep]}...{text[-keep:]}"


def _load(args: argparse.Namespace) -> SceneConfig:
    from .scene import load_scene
    cfg = load_scene(args.scene)
    return cfg.with_overrides(strict=args.strict, dual_norm=args.dual_norm,
                              i_vec=args.i_vector)


def _emit(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _cmd_check(args: argparse.Namespace) -> int:
    from .check import check_scene
    cfg = _load(args)
    report = check_scene(cfg)
    _emit(report.to_json(), args.out)
    return report.exit_code


def _cmd_mesh(args: argparse.Namespace) -> int:
    from .mesh import export_csv, export_json, export_obj, sample_grid
    from .scene import build_hypersurface
    cfg = _load(args)
    surface = build_hypersurface(cfg)
    mesh = sample_grid(surface, cfg)
    projection = cfg.projection_axis if args.project is None else args.project
    if args.format == "obj":
        export_obj(mesh, projection, args.out)
    elif args.format == "csv":
        export_csv(mesh, args.out)
    else:
        export_json(mesh, args.out)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .check import report_document
    from .scene import _dumps
    cfg = _load(args)
    doc = report_document(cfg)
    _emit(_dumps(doc), args.out)
    return 0 if doc["exit_code"] == 0 else 1


def _cmd_octtable(args: argparse.Namespace) -> int:
    from .octonion import build_mul_table, table_to_csv
    table = build_mul_table(args.seed)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(table_to_csv(table))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ruled4",
        description="2-ruled hypersurfaces of Lorentzian 4-space: "
                    "construction, curvature checks, and mesh export.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="grade a scene's claims")
    _add_scene_options(p_check)
    p_check.add_argument("--out", default=None,
                         help="write the JSON report here instead of stdout")
    p_check.set_defaults(func=_cmd_check)

    p_mesh = subs.add_parser("mesh", help="sample a scene and export geometry")
    _add_scene_options(p_mesh)
    p_mesh.add_argument("--project", type=int, choices=(0, 1, 2, 3),
                        default=None,
                        help="coordinate to drop for OBJ projection "
                             "(default: the scene's projection_axis)")
    p_mesh.add_argument("--format", choices=("obj", "csv", "json"),
                        default="obj")
    p_mesh.add_argument("--out", required=True)
    p_mesh.set_defaults(func=_cmd_mesh)

    p_report = subs.add_parser("report",
                               help="claims plus per-vertex curvature table")
    _add_scene_options(p_report)
    p_report.add_argument("--out", default=None)
    p_report.set_defaults(func=_cmd_report)

    p_table = subs.add_parser("octtable",
                              help="write the octonion multiplication table")
    p_table.add_argument("--out", required=True)
    p_table.add_argument("--seed", type=_parse_seed, default=(1, 2, 4),
                         metavar="I,J,K",
                         help="generating relation e_i e_j = e_k")
    p_table.set_defaults(func=_cmd_octtable)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Ruled4Error as exc:
        print(f"ruled4: error: {_bounded(exc)}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ruled4: i/o error: {_bounded(exc)}", file=sys.stderr)
        return 2


def _entry() -> int:
    """The process entry of `python -m ruled4.cli` and the `ruled4` script.

    What the interpreter, argparse and ruled4 built at import lives until
    exit, yet every collection, the interpreter's last ones at exit
    included, would walk it again.  gc.freeze() moves it into the permanent
    generation, which no collection visits.  main() stays free of it, so an
    in-process caller's heap is never frozen.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(_entry())
