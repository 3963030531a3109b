"""A flat, minimal 2-ruled hypersurface swept by straight-line directors.

The shipped scene example1 moves an affine base curve along two constant
unit spacelike directors. Every curvature quantity vanishes identically:
the Gauss curvature, the mean curvature, the Laplace-Beltrami image of
the position, and the minimality residual.
"""

import importlib.resources

from ruled4.pointwise import curvature_report, eval_point
from ruled4.scene import build_hypersurface, load_scene


def scene_path(name):
    return str(importlib.resources.files("ruled4") / "scenes" / name)


def main():
    cfg = load_scene(scene_path("example1.json"))
    print(f"Scene '{cfg.name}', mode {cfg.mode}")
    print(f"  base-curve interval {cfg.x_interval}, "
          f"ruling box {cfg.y_interval} x {cfg.z_interval}")

    surf = build_hypersurface(cfg)
    for w in surf.warnings:
        print(f"  warning: {w}")
    if not surf.warnings:
        print("  directors verified against their model quadrics, no warnings")

    p = eval_point(surf, 0.0, 1.0, 0.0).components()
    print(f"\n  position at (x,y,z) = (0,1,0): "
          f"({p[0]:.6f}, {p[1]:.6f}, {p[2]:.6f}, {p[3]:.6f})")

    print("\nCurvature sweep over a 3x3x3 grid:")
    print(f"  {'point':<22} {'K':>10} {'H':>10} {'|Lap|':>10} {'residual':>10}")
    worst = {"K": 0.0, "H": 0.0, "lap": 0.0, "res": 0.0}
    def probe(interval):
        lo, hi = interval
        return [lo + f * (hi - lo) for f in (0.1, 0.5, 0.9)]

    xs, ys, zs = probe(cfg.x_interval), probe(cfg.y_interval), probe(cfg.z_interval)
    shown = 0
    for x in xs:
        for y in ys:
            for z in zs:
                rep = curvature_report(surf, x, y, z)
                lap = max(abs(c) for c in rep.laplacian.components())
                if shown < 5:
                    pt = f"({x:+.2f}, {y:+.2f}, {z:+.2f})"
                    print(f"  {pt:<22} {rep.gauss_curvature:>10.2e} "
                          f"{rep.mean_curvature:>10.2e} {lap:>10.2e} "
                          f"{rep.minimality:>10.2e}")
                    shown += 1
                worst["K"] = max(worst["K"], abs(rep.gauss_curvature))
                worst["H"] = max(worst["H"], abs(rep.mean_curvature))
                worst["lap"] = max(worst["lap"], lap)
                worst["res"] = max(worst["res"], abs(rep.minimality))
    print("  ... (27 points total)")
    print(f"\n  max |K|        = {worst['K']:.3e}")
    print(f"  max |H|        = {worst['H']:.3e}")
    print(f"  max |Lap|      = {worst['lap']:.3e}")
    print(f"  max |residual| = {worst['res']:.3e}")
    assert worst["K"] < 1e-12 and worst["H"] < 1e-12
    assert worst["lap"] < 1e-10 and worst["res"] < 1e-10

    rep = curvature_report(surf, 0.2, -0.4, 0.7)
    print("\nThe ruling block of the second fundamental form is exactly zero")
    print("(position is affine in the ruling parameters):")
    print(f"  h = {rep.second}")

    print("done.")


if __name__ == "__main__":
    main()
